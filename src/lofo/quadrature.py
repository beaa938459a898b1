"""Adaptive Simpson quadrature with interval bisection, one level at a time.

Used for the Esseen characteristic-function integral (esseen_integral).
The integrands here are smooth except at isolated zeros of |CF|, which
plain bisection resolves; no oscillatory-integral machinery is needed.

The integrand maps a 1-D float array of nodes to a 1-D float array of
values.  The bisection tree is walked breadth first: one call evaluates the
ends and the midpoint, then one call per level evaluates the quarter points
of every panel still open at that level.  Each panel applies the classical
recursive rule's arithmetic in its operation order (float64 array operations
round exactly like Python floats), and the panel results are summed bottom
up as ``left + right`` at every split, which is the recursion's post-order.
So the nodes, the value and the error of the depth-first recursion are
reproduced bit for bit.  Cost: (levels + 1) integrand calls, each over the
open panels' nodes, instead of one call per node.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .exceptions import QuadratureError

# A level of more open panels is not evaluated: a safety bound on memory.
# The Esseen integral of a two-weight law peaks near 0.56 GB at this width.
_MAX_PANELS = 1 << 20


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-8,
    max_depth: int = 40,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    f takes a 1-D float array of nodes and returns their values as a 1-D
    float array.  Bisection is forced for the first 4 levels: the
    Richardson acceptance test can be fooled by an accidentally small
    correction on a wide interval containing a kink (|CF| has those at its
    zeros).  The tolerance halves with each level.  Raises QuadratureError
    (carrying the achieved estimate) if some subinterval still disagrees
    after max_depth bisections, or before evaluating a level of more than
    _MAX_PANELS open panels; then each open panel enters the estimate at its
    current Simpson value, and the error's depth is the levels evaluated.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    m = 0.5 * (a + b)
    fa, fb, fm = f(np.array([a, b, m], dtype=float))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    # Rows: ends and midpoint, their values, Simpson estimate; one column
    # per panel still open at the current level.
    panels = np.array([[a], [m], [b], [fa], [fm], [fb], [whole]], dtype=float)
    level_tol, depth, force = tol, max_depth, 4
    levels = []  # per level: (panel values, split mask)
    ok, below = True, None
    while panels.shape[1]:
        if panels.shape[1] > _MAX_PANELS:
            # Too wide to evaluate: the open panels keep their Simpson values.
            ok, below, max_depth = False, panels[6], len(levels)
            break
        pa, pm, pb, pfa, pfm, pfb, pwhole = panels
        lm = 0.5 * (pa + pm)
        rm = 0.5 * (pm + pb)
        fq = f(np.concatenate((lm, rm)))
        flm, frm = fq[: lm.size], fq[lm.size:]
        left = (pm - pa) / 6.0 * (pfa + 4.0 * flm + pfm)
        right = (pb - pm) / 6.0 * (pfm + 4.0 * frm + pfb)
        delta = left + right - pwhole
        # Standard Richardson acceptance test for Simpson halving.
        passed = np.abs(delta) <= 15.0 * level_tol
        accepted = passed & (force <= 0)
        split = ~(accepted | (depth <= 0) | (lm <= pa) | (rm <= pm))
        ok = ok and bool(np.all(passed | split))
        levels.append((left + right + delta / 15.0, split))
        # Children of each split panel, left then right, as the recursion visits them.
        kids = np.stack(
            (
                (pa, lm, pm, pfa, flm, pfm, left),
                (pm, rm, pb, pfm, frm, pfb, right),
            ),
            axis=-1,
        )
        panels = kids[:, split].reshape(7, -1)
        level_tol = 0.5 * level_tol
        depth -= 1
        force -= 1
    # Post-order sum: a split panel's value is its left child's plus its right's.
    for values, split in reversed(levels):
        if below is not None:
            values[split] = below[0::2] + below[1::2]
        below = values
    value = float(below[0])
    if not ok:
        raise QuadratureError(value, tol, max_depth)
    return value
