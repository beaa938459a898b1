"""Arithmetic structure of a weight vector: lattice distance and least
common denominators.

dist(t a, Z^n) = min_{m in Z^n} ||t a - m|| measures how close the ray t a
passes to the integer lattice; it is ||a||-Lipschitz in t and equals t ||a||
exactly while every coordinate of t a stays within 1/2 of zero, i.e. for
0 <= t <= 1/(2 ||a||_inf).

The least common denominator is the first scale at which the ray beats a
growth threshold:

    lcd variant "d":       inf { t > 0 : dist(t a, Z^n) < L sqrt(log+(t/L)) }
    lcd variant "d_star":  inf { t > 0 : dist(t a, Z^n) < f_L(t ||a||) }

where f_L(u) = u/6 below e*L and L sqrt(log(u/L)) from e*L on (with an
upward jump at the branch point).  Large values mean the coefficients stay
far from arithmetic structure over a long range of scales, which is what
drives strong anti-concentration.

The search is certified: on any interval [u, v] with endpoint distances
d(u), d(v), every interior point satisfies
dist >= (d(u)+d(v))/2 - ||a|| (v-u)/2, while the threshold is nondecreasing
and hence at most its value at v.  Intervals whose certificate proves "no
crossing" are skipped wholesale; the remainder is bisected down to a width
floor, yielding a bracket [frontier, witness] around the infimum together
with a point where the defining strict inequality is demonstrated.

Cost model: time ~ evals x c_dist(n) + levels x c_level + walk nodes x
c_loop, with evals ~ D* / (mean certified width); D* grows like
exp(c n / L^2) for dense random vectors.  The search is a depth-first walk
whose stack entries carry endpoint distances and thresholds, so no point is
evaluated or thresholded twice.  The evaluation count is therefore a running
integer, and the scan's memory is its stack (one entry per bisection level)
plus the distances an aborted resolve computed ahead of the walk, not one
entry per evaluation: under 1 MB traced at 100,000 evaluations, where a set
of the evaluated points took 8 MB.  A node that fails the cone and is 8 to
4096 times as wide as the last certified node has its whole subtree
resolved one bisection level at a time.  A level of more than 8 nodes takes
one batched distance call and one array threshold call for its midpoints
(about 0.01 us per point, against 0.45 us for the scalar closure), and the
cone test runs on arrays, screened so that every decision is the closure's;
c_level, the few dozen numpy calls of such a level, is about 50 us.  A level
of at most 8 nodes, the first four levels of nearly every resolve, runs on
floats with the walk's own pieces instead: one scalar distance and one
scalar threshold per node, about 3-5 us a node at n ~ 512, so c_level there
is a few us per node and no fixed 50 us.  If every leaf certifies, the
subtree is committed at once; a level with a witness, a node at the width
floor or more than 4096 nodes aborts the resolve, and the walk takes that
subtree one node at a time (c_loop, a few float comparisons and one scalar
threshold, plus one unbatched distance call where no resolve computed it).
On dense random vectors at n ~ 512 resolves cover about 95% of the points
and abort once per scan, at the crossing.  The resolve visits the points
the walk would visit and makes its comparisons, so it changes no output
bit, the count of evaluations included.

A batched distance call works in blocks of max(1, 2^15 // n) rows, inside
one workspace of two such blocks that the scan allocates once: a block
makes four passes over its k x n entries (product, rint, subtraction, row
norms) and allocates nothing of that size.  The product is a broadcast
np.multiply under a ufunc buffer of 16 entries: at numpy's default buffer
of 8192 entries numpy copies the broadcast operands through the buffer, many
rows at a time, and the product takes 34-46 us of a 64 x 512 block, against
8-12 us for each other pass; a buffer no longer than a row lets each row
run as one plain inner loop, at 8-12 us a block.  Over the resolve levels
of the ten perfbench lcd_scan vectors (n = 448..576) c_dist is about
0.65-0.9 us per point on a 2-vCPU x86 host.  Rows shorter than about 100
entries make the product cost more per entry (110 us for a 2048 x 16
block, where an einsum outer product takes 27 us), but whole scans at n =
16 and 64 run no slower for it: their levels are small.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .concentration import WeightVector
from .distributions import _Record
from .exceptions import NumericalError, PreconditionError

_E = math.e
# Largest search horizon: midpoints 0.5*(x + y) of scales below it stay finite.
_T_FINITE = 1e307


# _dist_rows works through its t in blocks of this many entries, max(1,
# _BLOCK_ENTRIES // n) rows of n: a block's two k x n buffers stay in cache
# (at n ~ 512, blocks of 256 rows or more cost 25-60% more per row).
_BLOCK_ENTRIES = 2**15
# The ufunc buffer, in entries, under which _dist_rows forms its products:
# no longer than a row, so that numpy does not copy the broadcast operands
# (see the module docstring).  numpy 1.x and 2.x accept only multiples of 16.
_BUFSIZE = 16


def _workspace(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The two block buffers _dist_rows fills in place, for n coordinates."""
    rows = max(1, _BLOCK_ENTRIES // max(n, 1))
    return np.empty((rows, n)), np.empty((rows, n))


def _dist_rows(
    ts: np.ndarray, abs_a: np.ndarray, work: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """dist(t a, Z^n) for every t of a 1-D array; abs_a holds |a_k|.

    Per coordinate d_k = |t||a_k| - rint(|t||a_k|), the signed offset from
    the nearest integer (ties go to the even one; |d_k| is the same for
    either nearest integer).  ``work`` is a _workspace(n): each block of its
    rows takes the products |t||a_k| from np.multiply of the column t by the
    row |a| into the first buffer, one rounded product per entry as in
    _dist_point, their np.rint into the second, and the difference in place,
    so a block makes four passes and allocates nothing of size k x n.  Row
    norms go through matmul of 1 x n by n x 1, which sums in np.dot's order
    for every row (a summing einsum does not), so each entry equals
    _dist_point bit for bit.  The blocks run under a ufunc buffer of
    _BUFSIZE entries, and the caller's buffer size is restored on return,
    also when a block raises: numpy 1.x's errstate does not restore it.
    """
    D_all, R_all = work
    rows = D_all.shape[0]
    out = np.empty(ts.size)
    old = np.setbufsize(_BUFSIZE)
    try:
        for s in range(0, ts.size, rows):
            t = np.abs(ts[s:s + rows])
            D, R = D_all[:t.size], R_all[:t.size]
            np.multiply(t[:, None], abs_a, out=D)
            np.rint(D, out=R)
            D -= R
            out[s:s + rows] = np.sqrt(np.matmul(D[:, None, :], D[:, :, None])).ravel()
    finally:
        np.setbufsize(old)
    return out


def _dist_point(t: float, abs_a: np.ndarray) -> float:
    """One row of _dist_rows, without the batch axis."""
    d = abs(t) * abs_a
    d -= np.rint(d)
    return math.sqrt(np.dot(d, d))


def dist_to_lattice(t, a: WeightVector | np.ndarray):
    """Euclidean distance from t*a to the nearest integer vector.

    t is a scalar (returns a float) or a 1-D array of k values (returns k
    distances, each bitwise equal to the scalar call, in blocks of
    _BLOCK_ENTRIES entries, so memory beyond the result stays at two blocks).
    """
    abs_a = np.abs(np.asarray(getattr(a, "coords", a), dtype=float))
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        return _dist_point(float(ts), abs_a)
    if ts.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array")
    return _dist_rows(ts, abs_a, _workspace(abs_a.size))


def f_threshold(t: float, L: float) -> float:
    """Two-branch threshold: t/6 below e*L, then L*sqrt(log(t/L)).

    Discontinuous at t = e*L (left limit eL/6, value L there), exactly as
    defined; nondecreasing overall.
    """
    if not (t > 0 and L > 0):
        raise ValueError("t and L must be positive")
    return _threshold("d_star", L, 1.0)(t)


def log_plus_threshold(t: float, L: float) -> float:
    """L * sqrt(log+(t/L)): zero up to t = L, then growing."""
    if not (t > 0 and L > 0):
        raise ValueError("t and L must be positive")
    return _threshold("d", L, 1.0)(t)


@dataclass(frozen=True)
class LcdResult(_Record):
    """Certified least-common-denominator value.

    The infimum lies in the bracket [value, witness_t], of width
    ``error_radius``; ``witness_t`` is a point where the strict
    inequality dist < threshold actually holds.  ``t_start``/``t_max`` record
    the certified search interval.  ``gaps`` lists the sub-resolution
    slivers next to the crossing that could be neither certified nor
    witnessed.  They lie inside the bracket and widen it past ``tol``; dense
    random vectors report several (7 to 48 each at n = 448..576, L = 2,
    tol = 1e-8).
    """

    value: float
    error_radius: float
    witness_t: float
    L: float
    variant: str
    t_start: float
    t_max: float
    n_evals: int
    gaps: tuple = ()


def _threshold(variant: str, L: float, norm: float) -> Callable[[float], float]:
    """The scan's threshold in t, without argument checks (the scan only
    visits t > 0): f_threshold(t ||a||, L) for "d_star" and
    log_plus_threshold(t, L) for "d", which are these closures at norm 1.

    The closure is the source of truth.  Its ``array`` attribute takes a 1-D
    array of t and repeats each step with numpy, so an entry can differ from
    the closure only through np.log against math.log; _resolve screens those
    entries (see _THR_MARGIN)."""
    log, sqrt = math.log, math.sqrt
    if variant == "d_star":
        eL = _E * L

        def thr(t: float) -> float:
            u = t * norm
            if u < eL:
                return u / 6.0
            return L * sqrt(log(u / L))

        def thr_array(ts: np.ndarray) -> np.ndarray:
            us = ts * norm
            return np.where(us < eL, us / 6.0, L * np.sqrt(np.log(np.maximum(us, eL) / L)))
    else:

        def thr(t: float) -> float:
            return L * sqrt(max(0.0, log(t / L)))

        def thr_array(ts: np.ndarray) -> np.ndarray:
            return L * np.sqrt(np.maximum(0.0, np.log(ts / L)))
    thr.array = thr_array
    return thr


# A node that fails the cone is resolved level by level (see _resolve) when
# it is _RESOLVE_MIN to _RESOLVE_MAX times as wide as the last certified node:
# its subtree then most likely certifies within a few levels.  A level of more
# than _RESOLVE_CAP nodes ends the resolve, and a level of at most
# _SMALL_LEVEL nodes runs on floats, not arrays.
_RESOLVE_MIN = 8.0
_RESOLVE_MAX = 4096.0
_RESOLVE_CAP = 4096
_SMALL_LEVEL = 8


def _first_crossing(
    abs_a: np.ndarray,
    thr: Callable[[float], float],
    lip: float,
    t_lo: float,
    t_hi: float,
    floor: float,
) -> tuple[float, Optional[float], int, list]:
    """Leftmost t in [t_lo, t_hi] with dist(t a, Z^n) < thr(t), Lipschitz-certified.

    abs_a holds |a_k|, lip = ||a|| is the Lipschitz constant of the distance,
    and thr must be nondecreasing, with the ``array`` form that _threshold
    attaches.  Returns (frontier, witness, n_evals, gaps): the certified
    frontier (no crossing in [t_lo, frontier] outside the recorded gaps),
    the smallest witness found (None if there is none), the number of t
    whose distance the search used, and the gaps.

    The search is a depth-first walk, left half first.  Each stack entry
    carries (u, v, d(u), d(v), thr(v)), so every point is evaluated and
    thresholded once.  A node that fails the cone and is _RESOLVE_MIN to
    _RESOLVE_MAX times as wide as the last certified node goes to _resolve, which settles its whole subtree in
    batched levels when every leaf certifies.  When a resolve aborts, the
    walk takes that subtree one node at a time, with the distances the
    resolve computed kept in ``ahead``, and starts no other resolve inside
    it: every node it pops until it leaves the subtree has v at or below the
    subtree's right end ``scalar_to``.  Points the walk never reaches are
    not counted, so the count, like every other output, is the same as with
    one evaluation per point.

    Every batched distance call of the scan fills the same _workspace.

    n_evals is a running count, and it counts distinct points because no t
    is evaluated twice.  t_lo and t_hi end the root node.  Each midpoint and
    each floor probe lies strictly inside its own node, and a probe that
    rounds to the previous one is skipped.  The nodes of one level are
    disjoint, and an ancestor's midpoint is an endpoint of each of its
    descendants, never inside one.  So the scan holds its stack and
    ``ahead``, not one entry per evaluation.
    """
    d_lo = _dist_point(t_lo, abs_a)
    if d_lo < thr(t_lo):
        return t_lo, t_lo, 1, []
    if t_hi <= t_lo:
        return t_lo, None, 1, []

    frontier, witness, gaps = t_lo, math.inf, []
    n_evals = 2
    certified_width = math.inf
    scalar_to = -math.inf
    half_lip = 0.5 * lip
    ahead: dict[float, float] = {}
    work = _workspace(abs_a.size)
    stack = [(t_lo, t_hi, d_lo, _dist_point(t_hi, abs_a), thr(t_hi))]
    pop, push, take = stack.pop, stack.append, ahead.pop
    while stack:
        u, v, du, dv, tv = pop()
        if u >= witness:
            continue
        # Left half first: every node settled before this one moved the
        # frontier to its v or found a witness that skips all later nodes,
        # so u is the frontier and v lies at or left of any witness.  A
        # settled node therefore moves the frontier to its v, and a witness
        # found in it is the smallest so far.
        if dv < tv:
            witness = v
        # Two-sided Lipschitz cone under a monotone threshold.
        if 0.5 * (du + dv) - half_lip * (v - u) >= tv:
            frontier = v
            certified_width = v - u
            continue
        mid = 0.5 * (u + v)
        if v - u <= floor or mid <= u or mid >= v:
            # Probes of a node a few ulps wide can round to the same t; one
            # that repeats the last probe is skipped, as it already failed.
            found, last = None, u
            for k in (1, 2, 3):
                tp = u + (v - u) * k / 4.0
                if last < tp < v:
                    last = tp
                    n_evals += 1
                    if _dist_point(tp, abs_a) < thr(tp):
                        found = tp
                        break
            # A v below its threshold is already the witness: no gap.
            if found is not None:
                witness = found
            elif witness > v:
                gaps.append((u, v))
                frontier = v
            continue
        dm = take(mid, None)
        if (
            dm is None
            and scalar_to < v
            and _RESOLVE_MIN * certified_width <= v - u <= _RESOLVE_MAX * certified_width
        ):
            committed = _resolve(u, v, du, dv, tv, abs_a, work, thr, half_lip, floor, ahead)
            if committed is not None:
                frontier = v
                certified_width, points = committed
                n_evals += points
                continue
            scalar_to = v
            dm = take(mid, None)
        if dm is None:
            dm = _dist_point(mid, abs_a)
        n_evals += 1
        push((mid, v, dm, dv, tv))
        push((u, mid, du, dm, thr(mid)))
    return frontier, (None if witness == math.inf else witness), n_evals, gaps


# _resolve decides each comparison of a value X (a midpoint's distance or a
# child's cone) with a threshold T from the array form T_a, except where
# |X - T_a| <= _THR_MARGIN * T_a: there it takes the closure's T_s.  Every
# decision is then the closure's.  Proof: both forms apply the same correctly
# rounded IEEE operations to the same operands (t*norm, u/6, u/L, the branch
# test, sqrt, the product with L), except np.log against math.log.  If the
# two logs differ by k ulps, they differ by at most k*2^-52 relatively (both
# are normal: log(u/L) > 0.99 on the log branch of "d_star", and the
# resolve's t > L give t/L >= 1 + 2^-52 for "d"); sqrt halves that, and sqrt
# and the product with L each round by at most 2^-53 in either form.  So
# |T_a - T_s| <= e*T_s with e = (k/2 + 2)*2^-52, up to terms below 2^-100.
# Where |X - T_a| > _THR_MARGIN*T_a and e < _THR_MARGIN/(1 + _THR_MARGIN),
# that is for k up to 896, |T_a - T_s| <= e*T_a/(1 - e) < |X - T_a|: X - T_s
# is nonzero and has the sign of X - T_a, so < and >= decide alike.  np.log
# and math.log differ by at most 1 ulp (k = 1) on the x86 host measured,
# and a threshold of 0 is 0 in both forms, since log keeps its sign.
_THR_MARGIN = 1e-13


def _screen(
    T: np.ndarray, X: np.ndarray, ts: np.ndarray, thr: Callable[[float], float]
) -> np.ndarray:
    """T, the thresholds at ts, with every entry that X comes within
    _THR_MARGIN of replaced by the closure's value; T is updated in place."""
    for i in np.flatnonzero(np.abs(X - T) <= _THR_MARGIN * T).tolist():
        T[i] = thr(float(ts[i]))
    return T


def _resolve(
    u: float,
    v: float,
    du: float,
    dv: float,
    tv: float,
    abs_a: np.ndarray,
    work: tuple[np.ndarray, np.ndarray],
    thr: Callable[[float], float],
    half_lip: float,
    floor: float,
    ahead: dict[float, float],
) -> Optional[tuple[float, int]]:
    """Settle the subtree of [u, v], a node that fails the cone, a level at a time.

    A level bisects all of its nodes with the walk's own 0.5*(x+y), takes
    the distance and threshold of every midpoint, and runs the walk's cone
    expression on both children of every node, left children first, then
    right ones, so the rightmost node of a level stays last until it
    certifies; the children that fail make the next level.  A level of at
    most _SMALL_LEVEL nodes does this with the walk's own scalar pieces
    (_dist_point, ``thr`` and the cone on floats): its few points cost less
    than the numpy calls of an array level.  A larger level takes its
    distances in one _dist_rows call, its thresholds in one ``thr.array``
    call (every threshold has one, see _threshold) and its cone on arrays;
    each of its thresholds passes through _screen before its comparison.
    So every decision is the one ``thr`` makes.  If every leaf certifies,
    the result is the width of the rightmost leaf and the number of
    midpoints evaluated.  Below a witness-free node at or left of the
    witness, the depth-first walk would visit exactly these points, make
    exactly these comparisons, move the frontier to v and end with that
    certified width.  Thresholds never leave this function.

    A level with a midpoint below its threshold (a witness), a node at the
    floor, or more than _RESOLVE_CAP nodes aborts: every distance computed
    goes to ``ahead`` for the walk, and the result is None.
    """
    width = None
    nodes = [(u, v, du, dv, tv)]
    small: list[tuple[float, float]] = []  # (midpoint, distance) of the scalar levels
    while len(nodes) <= min(_SMALL_LEVEL, _RESOLVE_CAP):
        mids = [0.5 * (x + y) for x, y, *_ in nodes]
        if any(y - x <= floor or not x < m < y for (x, y, *_), m in zip(nodes, mids)):
            ahead.update(small)
            return None
        dms = [_dist_point(m, abs_a) for m in mids]
        small += zip(mids, dms)
        tms = [thr(m) for m in mids]
        if any(d < t for d, t in zip(dms, tms)):
            ahead.update(small)
            return None
        kids = [(x, m, dx, d, t) for (x, _, dx, _, _), m, d, t in zip(nodes, mids, dms, tms)]
        kids += [(m, y, d, dy, ty) for (_, y, _, dy, ty), m, d in zip(nodes, mids, dms)]
        ok = [0.5 * (dx + dy) - half_lip * (y - x) >= ty for x, y, dx, dy, ty in kids]
        if width is None and ok[-1]:
            width = kids[-1][1] - kids[-1][0]
        nodes = [kid for kid, certified in zip(kids, ok) if not certified]
        if not nodes:
            return width, len(small)
    U, V, DU, DV, TV = (np.array(c) for c in zip(*nodes))
    levels = []
    while U.size <= _RESOLVE_CAP:
        M = 0.5 * (U + V)
        if ((V - U <= floor) | (M <= U) | (M >= V)).any():
            break
        DM = _dist_rows(M, abs_a, work)
        levels.append((M, DM))
        TM = _screen(thr.array(M), DM, M, thr)
        if (DM < TM).any():
            break
        lo, hi = np.concatenate((U, M)), np.concatenate((M, V))
        dlo, dhi = np.concatenate((DU, DM)), np.concatenate((DM, DV))
        cone = 0.5 * (dlo + dhi) - half_lip * (hi - lo)
        thi = _screen(np.concatenate((TM, TV)), cone, hi, thr)
        fail = ~(cone >= thi)
        if width is None and not fail[-1]:
            width = float(hi[-1] - lo[-1])
        if not fail.any():
            return width, len(small) + sum(M.size for M, _ in levels)
        U, V, DU, DV, TV = lo[fail], hi[fail], dlo[fail], dhi[fail], thi[fail]
    ahead.update(small)
    for M, DM in levels:
        ahead.update(zip(M.tolist(), DM.tolist()))
    return None


def _search_horizon(variant: str, L: float, norm: float, n_eff: int) -> float:
    """Scale beyond which the threshold exceeds sqrt(n)/2 >= dist everywhere.

    The defining inequality then holds identically, so the infimum is
    guaranteed below this horizon.  Only coordinates that are nonzero can
    contribute to dist, hence n_eff.  The horizon is clamped at 1e300, or
    at 1e10/||a|| where that is larger, so that the clamp stays above
    D* ~ 1/||a|| of tiny weights; the crossing sits far below either.  The
    clamp never exceeds _T_FINITE, below which the interval midpoints and
    t ||a||_inf stay finite.
    """
    expo = min(n_eff / (4.0 * L * L), 700.0) if L * L > 0.0 else 700.0
    if variant == "d_star":
        base = max((L / norm) * math.exp(expo), _E * L / norm)
    else:
        base = max(L * math.exp(expo), _E * L)
    return min(base * (1.0 + 1e-6), max(1e300, min(1e10 / norm, _T_FINITE)))


def lcd(
    a: WeightVector,
    L: float,
    variant: str = "d_star",
    tol: float = 1e-6,
) -> LcdResult:
    """Certified least common denominator of a weight vector.

    variant "d_star" scans from 1/(2||a||_inf) (below which
    dist = t ||a|| >= f_L(t ||a||), verified at the start point); variant "d"
    scans from L (below which the threshold is zero and the strict inequality
    cannot hold).  The scan is certified up to the returned bracket; the
    horizon t_max guarantees a witness exists.  L must be finite: at L = inf
    the "d" scan would start at t = inf.  A start at or past the (clamped)
    horizon, as for weights so small that 0.5/||a||_inf overflows, raises
    PreconditionError, as does a scan that finds no crossing below a
    horizon cut at _T_FINITE, as for a single weight of 6e-308 at L = 2.
    """
    if not 0 < L < math.inf:
        raise ValueError("L must be positive and finite")
    if not tol > 0:
        raise ValueError("tol must be positive")
    variant = variant.lower()
    if variant not in ("d", "d_star"):
        raise ValueError("variant must be 'd' or 'd_star'")
    norm = a.norm2
    n_eff = int(np.count_nonzero(a.coords))
    t_lo = 0.5 / a.norm_inf if variant == "d_star" else L
    t_hi = _search_horizon(variant, L, norm, n_eff)
    if not t_lo < t_hi:
        raise PreconditionError(
            f"scan start {t_lo:.6g} is not below the search horizon {t_hi:.6g} "
            f"(||a|| = {norm:.6g}, L = {L:.6g})"
        )
    floor = max(tol / 4.0, abs(t_lo) * 4e-16)
    frontier, witness, n_evals, gaps = _first_crossing(
        np.abs(a.coords), _threshold(variant, L, norm), norm, t_lo, t_hi, floor
    )
    if witness is None:
        if t_hi == _T_FINITE:
            raise PreconditionError(
                f"no crossing below {t_hi:.6g}, the largest scale a finite "
                f"scan reaches (||a|| = {norm:.6g}, L = {L:.6g})"
            )
        raise NumericalError(
            "no crossing found below the search horizon; this contradicts the "
            "horizon guarantee and indicates a numerical problem"
        )
    # The walk goes left first, so every gap lies left of the witness, the
    # first gap is the leftmost, and the frontier never passes the witness.
    bracket_left = gaps[0][0] if gaps else frontier
    return LcdResult(
        value=bracket_left,
        error_radius=witness - bracket_left,
        witness_t=witness,
        L=L,
        variant=variant,
        t_start=t_lo,
        t_max=t_hi,
        n_evals=n_evals,
        gaps=tuple(gaps),
    )


@dataclass(frozen=True)
class ClearanceReport(_Record):
    """Outcome of sweeping dist(t a, Z^n) >= f_L(t) over [1/(2||a||_inf), D]."""

    passed: bool
    violation_t: Optional[float]
    vacuous: bool
    t_start: float
    t_end: float
    n_evals: int


def verify_lattice_clearance(
    a: WeightVector,
    L: float,
    D: float,
    tol: float = 1e-9,
) -> ClearanceReport:
    """Check dist(t a, Z^n) >= f_L(t) for all t in [1/(2||a||_inf), D].

    Stated for unit vectors (||a|| = 1 within 1e-9 required); for general
    vectors rescale and use the f_L(t ||a||) form via ``lcd``.  On failure
    the report carries a t where the strict reverse inequality holds.
    D below the interval start is a vacuous pass (flagged).  L and D must be
    finite: dist(t a, Z^n) at t = inf is NaN, which no comparison flags.
    """
    if abs(a.norm2 - 1.0) > 1e-9:
        raise ValueError("clearance check requires a unit vector (norm within 1e-9)")
    if not (0 < L < math.inf and 0 < D < math.inf):
        raise ValueError("L and D must be positive and finite")
    t_lo = 0.5 / a.norm_inf
    if D < t_lo:
        return ClearanceReport(
            passed=True, violation_t=None, vacuous=True,
            t_start=t_lo, t_end=D, n_evals=0,
        )
    floor = max(tol, abs(D) * 4e-16)
    _, witness, n_evals, _ = _first_crossing(
        np.abs(a.coords), _threshold("d_star", L, a.norm2), a.norm2, t_lo, D, floor
    )
    return ClearanceReport(
        passed=witness is None,
        violation_t=witness,
        vacuous=False,
        t_start=t_lo,
        t_end=D,
        n_evals=n_evals,
    )
