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

Cost model: time ~ evals x (c_loop + c_dist(n)), with evals ~ D* (which
grows like exp(c n / L^2) for dense random vectors).  c_loop is a few float
comparisons per point: each stack entry carries its endpoint distances and
threshold, so no point is evaluated or thresholded twice.  c_dist(n) is one
numpy pass over n coordinates plus numpy's per-call overhead, which
dominates up to n of several hundred; intervals that will clearly split
further have their dyadic midpoints evaluated in one batched call, which
shares that overhead.  The batching changes neither the points the search
visits, their order, nor any output bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .concentration import WeightVector
from .exceptions import NumericalError, PreconditionError

_E = math.e
# Largest search horizon: midpoints 0.5*(x + y) of scales below it stay finite.
_T_FINITE = 1e307


def _dist_rows(ts: np.ndarray, abs_a: np.ndarray) -> np.ndarray:
    """dist(t a, Z^n) for every t of a 1-D array; abs_a holds |a_k|.

    Per coordinate d_k = |t||a_k| - floor(|t||a_k| + 0.5), the signed offset
    from the nearest integer (half away from zero; |d_k| is the same for
    either nearest integer).  Row norms go through matmul of 1 x n by n x 1,
    which sums in np.dot's order for every row (einsum does not), so each
    entry equals _dist_point bit for bit.
    """
    D = np.abs(ts)[:, None] * abs_a
    D -= np.floor(D + 0.5)
    return np.sqrt(np.matmul(D[:, None, :], D[:, :, None])).ravel()


def _dist_point(t: float, abs_a: np.ndarray) -> float:
    """One row of _dist_rows, without the batch axis."""
    d = abs(t) * abs_a
    d -= np.floor(d + 0.5)
    return math.sqrt(np.dot(d, d))


def dist_to_lattice(t, a: WeightVector | np.ndarray):
    """Euclidean distance from t*a to the nearest integer vector.

    t is a scalar (returns a float) or a 1-D array of k values (returns k
    distances, each bitwise equal to the scalar call, through a k x n
    intermediate).
    """
    abs_a = np.abs(np.asarray(getattr(a, "coords", a), dtype=float))
    ts = np.asarray(t, dtype=float)
    if ts.ndim == 0:
        return _dist_point(float(ts), abs_a)
    if ts.ndim > 1:
        raise ValueError("t must be a scalar or a 1-D array")
    return _dist_rows(ts, abs_a)


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
class LcdResult:
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

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "error_radius": self.error_radius,
            "witness_t": self.witness_t,
            "L": self.L,
            "variant": self.variant,
            "t_start": self.t_start,
            "t_max": self.t_max,
            "n_evals": self.n_evals,
            "gaps": [list(g) for g in self.gaps],
        }


@dataclass
class _ScanResult:
    frontier: float
    witness: Optional[float]
    n_evals: int = 0
    gaps: list = field(default_factory=list)


def _threshold(variant: str, L: float, norm: float) -> Callable[[float], float]:
    """The scan's threshold in t, without argument checks (the scan only
    visits t > 0): f_threshold(t ||a||, L) for "d_star" and
    log_plus_threshold(t, L) for "d", which are these closures at norm 1."""
    log, sqrt = math.log, math.sqrt
    if variant == "d_star":
        eL = _E * L

        def thr(t: float) -> float:
            u = t * norm
            if u < eL:
                return u / 6.0
            return L * sqrt(log(u / L))
    else:

        def thr(t: float) -> float:
            return L * sqrt(max(0.0, log(t / L)))
    return thr


# A speculative block evaluates at most 2^5 - 1 dyadic midpoints at once.
_BLOCK_LEVELS = 5


def _first_crossing(
    abs_a: np.ndarray,
    thr: Callable[[float], float],
    lip: float,
    t_lo: float,
    t_hi: float,
    floor: float,
) -> _ScanResult:
    """Leftmost t in [t_lo, t_hi] with dist(t a, Z^n) < thr(t), Lipschitz-certified.

    abs_a holds |a_k|, lip = ||a|| is the Lipschitz constant of the distance,
    and thr must be nondecreasing.  Returns the certified frontier (no
    crossing in [t_lo, frontier] outside recorded gaps), the smallest witness
    found, and the number of distinct t whose distance the search used.

    Each stack entry carries (u, v, d(u), d(v), thr(v)), so every point is
    evaluated and thresholded once.  An interval more than 3x wider than the
    last certified one will most likely split down to about that width, so
    the midpoints of its subtree above 1.5x that width (the search's own
    0.5*(x+y) recursion; 3 to 31 points) are evaluated in one _dist_rows
    call and kept in ``ahead`` until the search reaches them.  Points it
    never reaches are not counted, so the count, like every other output, is
    the same as with one evaluation per point.
    """
    res = _ScanResult(frontier=t_lo, witness=None)
    seen: set[float] = set()
    ahead: dict[float, float] = {}

    def dist(t: float) -> float:
        seen.add(t)
        return _dist_point(t, abs_a)

    d_lo = dist(t_lo)
    if d_lo < thr(t_lo):
        res.witness = t_lo
        res.n_evals = len(seen)
        return res
    if t_hi <= t_lo:
        res.n_evals = len(seen)
        return res

    frontier, witness, gaps = t_lo, math.inf, res.gaps
    certified_width = math.inf
    stack = [(t_lo, t_hi, d_lo, dist(t_hi), thr(t_hi))]
    pop, push, take, seen_add = stack.pop, stack.append, ahead.pop, seen.add
    while stack:
        u, v, du, dv, tv = pop()
        if u >= witness:
            continue
        if dv < tv and v < witness:
            witness = v
        # Two-sided Lipschitz cone under a monotone threshold.
        if 0.5 * (du + dv) - 0.5 * lip * (v - u) >= tv:
            if u <= frontier:
                frontier = max(frontier, v)
            certified_width = v - u
            continue
        mid = 0.5 * (u + v)
        if v - u <= floor or mid <= u or mid >= v:
            found = None
            for k in (1, 2, 3):
                tp = u + (v - u) * k / 4.0
                if u < tp < v and dist(tp) < thr(tp):
                    found = tp
                    break
            if found is None and dv < tv:
                found = v
            if found is not None:
                witness = min(witness, found)
            else:
                gaps.append((u, v))
                if u <= frontier:
                    frontier = max(frontier, v)
            continue
        dm = take(mid, None)
        if dm is None:
            if v - u > 3.0 * certified_width:
                _speculate(u, v, 1.5 * certified_width, abs_a, ahead)
                dm = take(mid)
            else:
                dm = _dist_point(mid, abs_a)
        seen_add(mid)
        push((mid, v, dm, dv, tv))
        push((u, mid, du, dm, thr(mid)))
    res.frontier = frontier
    res.witness = None if witness == math.inf else witness
    res.n_evals = len(seen)
    return res


def _speculate(
    u: float, v: float, width: float, abs_a: np.ndarray, ahead: dict[float, float]
) -> None:
    """Add to ``ahead`` the distances at the dyadic midpoints of [u, v] that
    split intervals wider than ``width`` (at most _BLOCK_LEVELS levels).

    The midpoints follow the search's own 0.5*(x+y) recursion, so they are
    the exact t it will reach.
    """
    ends = [u, v]
    w = v - u
    for _ in range(_BLOCK_LEVELS):
        if w <= width:
            break
        finer = [u]
        for x, y in zip(ends, ends[1:]):
            finer += (0.5 * (x + y), y)
        ends = finer
        w *= 0.5
    pts = ends[1:-1]
    ahead.update(zip(pts, _dist_rows(np.array(pts), abs_a).tolist()))


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
    scan = _first_crossing(
        np.abs(a.coords), _threshold(variant, L, norm), norm, t_lo, t_hi, floor
    )
    if scan.witness is None:
        if t_hi == _T_FINITE:
            raise PreconditionError(
                f"no crossing below {t_hi:.6g}, the largest scale a finite "
                f"scan reaches (||a|| = {norm:.6g}, L = {L:.6g})"
            )
        raise NumericalError(
            "no crossing found below the search horizon; this contradicts the "
            "horizon guarantee and indicates a numerical problem"
        )
    relevant_gaps = [g for g in scan.gaps if g[0] < scan.witness]
    bracket_left = min((g[0] for g in relevant_gaps), default=scan.frontier)
    bracket_left = min(bracket_left, scan.witness)
    return LcdResult(
        value=bracket_left,
        error_radius=scan.witness - bracket_left,
        witness_t=scan.witness,
        L=L,
        variant=variant,
        t_start=t_lo,
        t_max=t_hi,
        n_evals=scan.n_evals,
        gaps=tuple(relevant_gaps),
    )


@dataclass(frozen=True)
class ClearanceReport:
    """Outcome of sweeping dist(t a, Z^n) >= f_L(t) over [1/(2||a||_inf), D]."""

    passed: bool
    violation_t: Optional[float]
    vacuous: bool
    t_start: float
    t_end: float
    n_evals: int

    def to_json(self) -> dict:
        return {
            "passed": self.passed,
            "violation_t": self.violation_t,
            "vacuous": self.vacuous,
            "t_start": self.t_start,
            "t_end": self.t_end,
            "n_evals": self.n_evals,
        }


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
    D below the interval start is a vacuous pass (flagged).
    """
    if abs(a.norm2 - 1.0) > 1e-9:
        raise ValueError("clearance check requires a unit vector (norm within 1e-9)")
    if not (L > 0 and D > 0):
        raise ValueError("L and D must be positive")
    t_lo = 0.5 / a.norm_inf
    if D < t_lo:
        return ClearanceReport(
            passed=True, violation_t=None, vacuous=True,
            t_start=t_lo, t_end=D, n_evals=0,
        )
    floor = max(tol, abs(D) * 4e-16)
    scan = _first_crossing(
        np.abs(a.coords), _threshold("d_star", L, a.norm2), a.norm2, t_lo, D, floor
    )
    passed = scan.witness is None
    return ClearanceReport(
        passed=passed,
        violation_t=scan.witness,
        vacuous=False,
        t_start=t_lo,
        t_end=D,
        n_evals=scan.n_evals,
    )
