"""Adaptive Simpson quadrature with interval bisection.

Used for the Esseen characteristic-function integral (esseen_integral).
The integrands here are smooth except at isolated zeros of |CF|, which
plain bisection resolves; no oscillatory-integral machinery is needed.
"""

from __future__ import annotations

from typing import Callable

from .exceptions import QuadratureError


def adaptive_simpson(
    f: Callable[[float], float],
    a: float,
    b: float,
    tol: float = 1e-8,
    max_depth: int = 40,
    min_depth: int = 4,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    Bisection is forced for the first min_depth levels: the Richardson
    acceptance test can be fooled by an accidentally small correction on a
    wide interval containing a kink (|CF| has those at its zeros).  Raises
    QuadratureError (carrying the achieved estimate) if some subinterval
    still disagrees after max_depth bisections.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    value, ok = _recurse(f, a, fa, b, fb, m, fm, whole, tol, max_depth, min_depth)
    if not ok:
        raise QuadratureError(value, tol, max_depth)
    return value


def _recurse(f, a, fa, b, fb, m, fm, whole, tol, depth, force):
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm, frm = f(lm), f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    # Standard Richardson acceptance test for Simpson halving.
    if force <= 0 and abs(delta) <= 15.0 * tol:
        return left + right + delta / 15.0, True
    if depth <= 0 or lm <= a or rm <= m:
        return left + right + delta / 15.0, abs(delta) <= 15.0 * tol
    lv, lok = _recurse(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1, force - 1)
    rv, rok = _recurse(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1, force - 1)
    return lv + rv, lok and rok
