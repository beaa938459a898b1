"""Adaptive Simpson quadrature with interval bisection, one level at a time.

Used for the Esseen characteristic-function integral (esseen_integral).
The integrands here are smooth except at isolated zeros of |CF|, which
plain bisection resolves; no oscillatory-integral machinery is needed.

The integrand maps a 1-D float array of nodes to a 1-D float array of
values, each value depending on its own node only; it must not write to
the nodes.  The bisection tree is walked breadth first.  The first 4 levels
split every panel whatever the integrand does, so their nodes are known up
front: one call evaluates the 33 nodes of the ends, the midpoint and those
levels, built with the recursion's midpoints level by level.  Then one call
per level evaluates the quarter points of every panel still open at that
level.

The open panels are the columns of one (7, k) array: ends and midpoint,
their values, Simpson estimate.  A level gathers both halves of every panel
into one (7, 2k) array, [left halves | right halves], with one ``np.take``,
and evaluates them in one 2k-wide pass: one set of ufunc calls forms both
halves' quarter points and Simpson estimates, the integrand receives the
quarter-point row [left | right] as it is, and the split panels' columns
of that array are the next level's panels, their left halves first.  So
the post-order sum pairs the first half of the next level's values with its
second half.  Each panel applies the classical recursive rule's arithmetic
in its operation order, with the same operands (float64 array operations
round exactly like Python floats), and the panel results are summed bottom
up as ``left + right`` at every split, which is the recursion's post-order.
So the nodes, the value and the error of the depth-first recursion are
reproduced bit for bit.  Only the set of nodes in one integrand call is
part of that contract, not their order within the call.

Cost: (levels - 3) integrand calls, each over the open panels' nodes,
instead of one call per node; about 25 numpy calls per level besides the
integrand's.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .exceptions import QuadratureError

# A level of more open panels is not evaluated: a safety bound on memory.
# The Esseen integral of a two-weight law peaks near 0.5 GB at this width.
_MAX_PANELS = 1 << 20
# Bisections past which a subinterval that still disagrees fails the quadrature.
_MAX_DEPTH = 40
# Panel rows that seed the (7, 2, k) halves array: a, m | m, b; f(a), f(m) | f(m), f(b).
# Rows 1, 4 and 6 are placeholders for the quarter points, their values and estimates.
_HALVES = np.array([[0, 1], [0, 1], [1, 2], [3, 4], [3, 4], [4, 5], [6, 6]])


def _forced_grid(a: float, b: float) -> np.ndarray:
    """The 33 nodes of [a, b]'s ends, midpoint and forced levels, in order.

    Each node is the recursion's midpoint ``0.5 * (x + y)`` of its two
    neighbours one level up, built level by level.  Raises ValueError when
    the nodes do not increase strictly: a midpoint collapsed onto an end, so
    some panel of a forced level could not split.
    """
    x = np.empty(33)
    x[0], x[32] = a, b
    for h in (16, 8, 4, 2, 1):
        x[h::2 * h] = 0.5 * (x[: -h : 2 * h] + x[2 * h :: 2 * h])
    if not (x[1:] > x[:-1]).all():
        raise ValueError(f"the 33 forced nodes of [{a!r}, {b!r}] do not increase strictly")
    return x


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-8,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    f takes a 1-D float array of nodes and returns their values as a 1-D
    float array; it must be elementwise, each value depending on its own
    node only, since the nodes of several panels and levels share a call
    (in no fixed order), and it must not write to the nodes it is passed.
    a <= b must be finite with a finite 2 max(|a|, |b|), so that no sum of
    two nodes overflows, and unless a == b (integral 0.0) the 33 nodes of
    the forced levels must increase strictly; otherwise ValueError, before
    f is called.
    Bisection is forced for the first 4 levels: the Richardson acceptance
    test can be fooled by an accidentally small correction on a wide
    interval containing a kink (|CF| has those at its zeros).  The
    tolerance halves with each level.  Raises QuadratureError (carrying the
    achieved estimate) if some subinterval still disagrees after _MAX_DEPTH
    bisections, or before evaluating a level of more than _MAX_PANELS open
    panels; then each open panel enters the estimate at its current Simpson
    value, and the error's depth is the levels evaluated.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not (-math.inf < a <= b < math.inf
            and math.isfinite(2.0 * max(abs(float(a)), abs(float(b))))):
        raise ValueError(f"need finite a <= b with a finite 2 max(|a|, |b|), got [{a!r}, {b!r}]")
    if a == b:
        return 0.0
    x = _forced_grid(a, b)
    # Levels 0-3 done: the 16 panels of level 4, whole being their level-3
    # half estimate.  Rows: ends and midpoint, their values, Simpson
    # estimate; one column per panel still open at the current level.
    fx = f(x)
    pa, pm, pb, pfa, pfm, pfb = x[:-1:2], x[1::2], x[2::2], fx[:-1:2], fx[1::2], fx[2::2]
    whole = (pb - pa) / 6.0 * (pfa + 4.0 * pfm + pfb)
    panels = np.array([pa, pm, pb, pfa, pfm, pfb, whole])
    # Four halvings in turn: tol / 16 rounds otherwise where tol is subnormal.
    level_tol, depth = tol * 0.5 * 0.5 * 0.5 * 0.5, _MAX_DEPTH - 4
    levels = []  # per level: (panel values, split mask)
    ok, below, reached = True, None, _MAX_DEPTH
    while k := panels.shape[1]:
        if k > _MAX_PANELS:
            # Too wide to evaluate: the open panels keep their Simpson values.
            ok, below, reached = False, panels[6], 4 + len(levels)
            break
        # Both halves of every panel as columns, [left halves | right halves].
        halves = np.take(panels, _HALVES, axis=0).reshape(7, 2 * k)
        lo, q, hi, flo, fq, fhi, est = halves
        # The recursion's 0.5 * (a + m) and (m - a) / 6.0 * (fa + 4.0 * flm + fm),
        # operands and order kept, for both halves at once.
        np.multiply(0.5, np.add(lo, hi, out=q), out=q)
        fq[:] = f(q)
        np.divide(np.subtract(hi, lo, out=est), 6.0, out=est)
        mix = np.multiply(4.0, fq)
        np.add(np.add(flo, mix, out=mix), fhi, out=mix)
        np.multiply(est, mix, out=est)
        both = est[:k] + est[k:]
        delta = both - panels[6]
        # Standard Richardson acceptance test for Simpson halving.
        passed = np.abs(delta) <= 15.0 * level_tol
        collapsed = q <= lo  # a quarter point that fell onto its half's left end
        split = ~(passed | collapsed[:k] | collapsed[k:]) if depth > 0 else np.zeros(k, bool)
        ok = ok and bool((passed | split).all())
        levels.append((both + delta / 15.0, split))
        # Children of each split panel: its left half among the first columns,
        # its right half at the same place among the last.
        panels = halves.reshape(7, 2, k)[:, :, split].reshape(7, -1)
        level_tol = 0.5 * level_tol
        depth -= 1
    # Post-order sum: a split panel's value is its left child's plus its right's,
    # the first and the second half of the next level; the 4 forced levels
    # split every panel in order, so each of them sums neighbouring pairs.
    for values, split in reversed(levels):
        if below is not None:
            half = below.size // 2
            values[split] = below[:half] + below[half:]
        below = values
    for _ in range(4):
        below = below[0::2] + below[1::2]
    value = float(below[0])
    if not ok:
        raise QuadratureError(value, tol, reached)
    return value
