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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .concentration import WeightVector
from .exceptions import NumericalError

_E = math.e


def dist_to_lattice(t: float, a: WeightVector | np.ndarray) -> float:
    """Euclidean distance from t*a to the nearest integer vector.

    Rounds half away from zero; the squared distance is the same for any
    nearest integer, so the choice only pins down determinism.
    """
    coords = np.asarray(getattr(a, "coords", a), dtype=float)
    y = t * coords
    nearest = np.copysign(np.floor(np.abs(y) + 0.5), y)
    d = y - nearest
    return float(math.sqrt(np.dot(d, d)))


def f_threshold(t: float, L: float) -> float:
    """Two-branch threshold: t/6 below e*L, then L*sqrt(log(t/L)).

    Discontinuous at t = e*L (left limit eL/6, value L there), exactly as
    defined; nondecreasing overall.
    """
    if not (t > 0 and L > 0):
        raise ValueError("t and L must be positive")
    if t < _E * L:
        return t / 6.0
    return L * math.sqrt(math.log(t / L))


def log_plus_threshold(t: float, L: float) -> float:
    """L * sqrt(log+(t/L)): zero up to t = L, then growing."""
    if not (t > 0 and L > 0):
        raise ValueError("t and L must be positive")
    return L * math.sqrt(max(0.0, math.log(t / L)))


@dataclass(frozen=True)
class LcdResult:
    """Certified least-common-denominator value.

    The infimum lies in [value - error_radius, value + error_radius];
    ``witness_t`` (== value + error_radius) is a point where the strict
    inequality dist < threshold actually holds.  ``t_start``/``t_max`` record
    the certified search interval; ``gaps`` lists any sub-resolution slivers
    that could be neither certified nor witnessed (empty in practice).
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


def _first_crossing(
    dist_fn: Callable[[float], float],
    thr_fn: Callable[[float], float],
    lip: float,
    t_lo: float,
    t_hi: float,
    floor: float,
) -> _ScanResult:
    """Leftmost t in [t_lo, t_hi] with dist_fn(t) < thr_fn(t), Lipschitz-certified.

    dist_fn must be lip-Lipschitz and thr_fn nondecreasing.  Returns the
    certified frontier (no crossing in [t_lo, frontier] outside recorded
    gaps), the smallest witness found, and the evaluation count.
    """
    cache: dict[float, float] = {}

    def dval(t: float) -> float:
        v = cache.get(t)
        if v is None:
            v = dist_fn(t)
            cache[t] = v
        return v

    res = _ScanResult(frontier=t_lo, witness=None)
    if dval(t_lo) < thr_fn(t_lo):
        res.witness = t_lo
        res.n_evals = len(cache)
        return res
    if t_hi <= t_lo:
        res.n_evals = len(cache)
        return res

    stack = [(t_lo, t_hi)]
    while stack:
        u, v = stack.pop()
        if res.witness is not None and u >= res.witness:
            continue
        du, dv = dval(u), dval(v)
        if dv < thr_fn(v) and (res.witness is None or v < res.witness):
            res.witness = v
        # Two-sided Lipschitz cone under a monotone threshold.
        if 0.5 * (du + dv) - 0.5 * lip * (v - u) >= thr_fn(v):
            if u <= res.frontier:
                res.frontier = max(res.frontier, v)
            continue
        mid = 0.5 * (u + v)
        if v - u <= floor or mid <= u or mid >= v:
            found = None
            for k in (1, 2, 3):
                tp = u + (v - u) * k / 4.0
                if u < tp < v and dval(tp) < thr_fn(tp):
                    found = tp
                    break
            if found is None and dv < thr_fn(v):
                found = v
            if found is not None:
                if res.witness is None or found < res.witness:
                    res.witness = found
            else:
                res.gaps.append((u, v))
                if u <= res.frontier:
                    res.frontier = max(res.frontier, v)
            continue
        stack.append((mid, v))
        stack.append((u, mid))
    res.n_evals = len(cache)
    return res


def _search_horizon(variant: str, L: float, norm: float, n_eff: int) -> float:
    """Scale beyond which the threshold exceeds sqrt(n)/2 >= dist everywhere.

    The defining inequality then holds identically, so the infimum is
    guaranteed below this horizon.  Only coordinates that are nonzero can
    contribute to dist, hence n_eff.
    """
    expo = min(n_eff / (4.0 * L * L), 700.0)
    if variant == "d_star":
        base = max((L / norm) * math.exp(expo), _E * L / norm)
    else:
        base = max(L * math.exp(expo), _E * L)
    # Clamp so interval midpoints stay finite; the crossing always sits far
    # below any horizon this large.
    return min(base * (1.0 + 1e-6), 1e300)


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
    horizon t_max guarantees a witness exists.
    """
    if not L > 0:
        raise ValueError("L must be positive")
    if not tol > 0:
        raise ValueError("tol must be positive")
    variant = variant.lower()
    if variant not in ("d", "d_star"):
        raise ValueError("variant must be 'd' or 'd_star'")
    norm = a.norm2
    n_eff = int(np.count_nonzero(a.coords))
    if variant == "d_star":
        thr = lambda t: f_threshold(t * norm, L)
        t_lo = 0.5 / a.norm_inf
    else:
        thr = lambda t: log_plus_threshold(t, L)
        t_lo = L
    t_hi = _search_horizon(variant, L, norm, n_eff)
    floor = max(tol / 4.0, abs(t_lo) * 4e-16)
    scan = _first_crossing(lambda t: dist_to_lattice(t, a), thr, norm, t_lo, t_hi, floor)
    if scan.witness is None:
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
    thr = lambda t: f_threshold(t * a.norm2, L)
    floor = max(tol, abs(D) * 4e-16)
    scan = _first_crossing(lambda t: dist_to_lattice(t, a), thr, a.norm2, t_lo, D, floor)
    passed = scan.witness is None
    return ClearanceReport(
        passed=passed,
        violation_t=scan.witness,
        vacuous=False,
        t_start=t_lo,
        t_end=D,
        n_evals=scan.n_evals,
    )
