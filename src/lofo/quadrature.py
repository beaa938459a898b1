"""Adaptive Simpson quadrature with interval bisection, one level at a time.

Used for the Esseen characteristic-function integral (esseen_integral).
The integrands here are smooth except at isolated zeros of |CF|, which
plain bisection resolves; no oscillatory-integral machinery is needed.

The integrand maps a 1-D float array of nodes to a 1-D float array of
values, each value depending on its own node only.  The bisection tree is
walked breadth first.  The first 4 levels split every panel whatever the
integrand does, so their nodes are known up front: one call evaluates the
33 nodes of the ends, the midpoint and those levels, built with the
recursion's midpoints level by level.  Then one call per level evaluates
the quarter points of every panel still open at that level.  Each panel
applies the classical recursive rule's arithmetic in its operation order
(float64 array operations round exactly like Python floats), and the panel
results are summed bottom up as ``left + right`` at every split, which is
the recursion's post-order.  So the nodes, the value and the error of the
depth-first recursion are reproduced bit for bit.  Cost: (levels - 3)
integrand calls, each over the open panels' nodes, instead of one call per
node.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .exceptions import QuadratureError

# A level of more open panels is not evaluated: a safety bound on memory.
# The Esseen integral of a two-weight law peaks near 0.56 GB at this width.
_MAX_PANELS = 1 << 20


def _forced_grid(a: float, b: float) -> np.ndarray | None:
    """The 33 nodes of [a, b]'s ends, midpoint and forced levels, in order.

    Each node is the recursion's midpoint ``0.5 * (x + y)`` of its two
    neighbours one level up, built level by level.  None when the nodes do
    not increase strictly: a midpoint collapsed onto an end, and some panel
    of a forced level may not split.
    """
    x = np.empty(33)
    x[0], x[32] = a, b
    for h in (16, 8, 4, 2, 1):
        x[h::2 * h] = 0.5 * (x[: -h : 2 * h] + x[2 * h :: 2 * h])
    return x if np.all(x[1:] > x[:-1]) else None


def adaptive_simpson(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    tol: float = 1e-8,
    max_depth: int = 40,
) -> float:
    """Integrate f over [a, b] to absolute tolerance tol.

    f takes a 1-D float array of nodes and returns their values as a 1-D
    float array; it must be elementwise, each value depending on its own
    node only, since the nodes of several panels and levels share a call.
    a <= b must be finite with a finite b - a, and max_depth >= 0.
    Bisection is forced for the first 4 levels: the Richardson acceptance
    test can be fooled by an accidentally small correction on a wide
    interval containing a kink (|CF| has those at its zeros).  The
    tolerance halves with each level.  Raises QuadratureError (carrying the
    achieved estimate) if some subinterval still disagrees after max_depth
    bisections, or before evaluating a level of more than _MAX_PANELS open
    panels; then each open panel enters the estimate at its current Simpson
    value, and the error's depth is the levels evaluated.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if not (-math.inf < a <= b < math.inf and math.isfinite(float(b) - float(a))):
        raise ValueError(f"need finite a <= b with a finite b - a, got [{a!r}, {b!r}]")
    if not max_depth >= 0:
        raise ValueError(f"max_depth must be at least 0, got {max_depth!r}")
    if a == b:
        return 0.0
    # The forced levels split every panel unless max_depth, _MAX_PANELS or a
    # collapsed midpoint stops one; then the loop runs them from the root.
    x = _forced_grid(a, b) if max_depth >= 4 and _MAX_PANELS >= 16 else None
    # Rows: ends and midpoint, their values, Simpson estimate; one column
    # per panel still open at the current level.
    if x is None:
        m = 0.5 * (a + b)
        fa, fb, fm = f(np.array([a, b, m], dtype=float))
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        panels = np.array([[a], [m], [b], [fa], [fm], [fb], [whole]], dtype=float)
        level_tol, depth, force, done = tol, max_depth, 4, 0
    else:
        # Levels 0-3 done: the 16 panels of level 4, whole being their
        # level-3 half estimate.
        fx = f(x)
        pa, pm, pb, pfa, pfm, pfb = x[:-1:2], x[1::2], x[2::2], fx[:-1:2], fx[1::2], fx[2::2]
        whole = (pb - pa) / 6.0 * (pfa + 4.0 * pfm + pfb)
        panels = np.array([pa, pm, pb, pfa, pfm, pfb, whole])
        # Four halvings in turn: tol / 16 rounds otherwise where tol is subnormal.
        level_tol, depth, force, done = tol * 0.5 * 0.5 * 0.5 * 0.5, max_depth - 4, 0, 4
    levels = []  # per level: (panel values, split mask)
    ok, below = True, None
    while panels.shape[1]:
        if panels.shape[1] > _MAX_PANELS:
            # Too wide to evaluate: the open panels keep their Simpson values.
            ok, below, max_depth = False, panels[6], done + len(levels)
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
    # Post-order sum: a split panel's value is its left child's plus its right's;
    # the forced levels split every panel, so each of them sums pairs.
    for values, split in reversed(levels):
        if below is not None:
            values[split] = below[0::2] + below[1::2]
        below = values
    for _ in range(done):
        below = below[0::2] + below[1::2]
    value = float(below[0])
    if not ok:
        raise QuadratureError(value, tol, max_depth)
    return value
