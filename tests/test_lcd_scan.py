"""The level-resolving LCD scan against a frozen copy of the one-node-at-a-time
scan with speculative blocks: equal ``lcd`` and ``verify_lattice_clearance``
outputs, bit for bit, also with the resolver's constants forced so that every
resolve aborts, the node cap is tiny, every failing node is resolved, or every
level runs on floats."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofo.concentration import WeightVector
from lofo.lcd import lcd, verify_lattice_clearance

# The module itself: the package re-exports the function lcd under its name.
LCD = sys.modules["lofo.lcd"]

# ---------------------------------------------------------------------------
# Frozen copies, kept verbatim.
# ---------------------------------------------------------------------------


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

@dataclass
class _ScanResult:
    frontier: float
    witness: Optional[float]
    n_evals: int = 0
    gaps: list = field(default_factory=list)

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


def _oracle_scan(*args):
    r = _first_crossing(*args)
    return r.frontier, r.witness, r.n_evals, r.gaps


# ---------------------------------------------------------------------------
# Inputs and resolver settings
# ---------------------------------------------------------------------------

MODES = {
    "default": {},
    # Every resolve aborts before its first level; the walk goes one node
    # at a time.
    "abort_all": {"_RESOLVE_CAP": 0},
    # Resolves abort after handing one or two levels to the walk.
    "tiny_cap": {"_RESOLVE_CAP": 2},
    # Every failing node is resolved once any node has certified.
    "everywhere": {"_RESOLVE_MIN": 0.0, "_RESOLVE_MAX": math.inf},
    "everywhere_tiny_cap": {"_RESOLVE_MIN": 0.0, "_RESOLVE_MAX": math.inf, "_RESOLVE_CAP": 2},
    # The cap falls inside the levels that run on floats: a level of 6 to 8
    # nodes aborts the resolve.
    "small_level_cap": {"_RESOLVE_CAP": 5},
    # Every level runs on floats, however many nodes it has.
    "scalar_levels_only": {"_SMALL_LEVEL": 4096},
}

# Largest n per L that keeps a Gaussian scan within a few thousand points.
MAX_N = {0.5: 16, 1.0: 60, 2.0: 320}


def _vector(kind: str, n: int, seed: int) -> WeightVector:
    """A unit vector: Gaussian, integer, integer plus a small perturbation,
    or Gaussian with most coordinates zero."""
    rng = np.random.default_rng(seed)
    if kind == "gauss":
        v = rng.normal(size=n)
    elif kind == "integer":
        v = rng.choice((-1.0, 1.0), n) * rng.integers(1, 6, n)
    elif kind == "near_integer":
        eps = float(rng.choice([1e-9, 1e-6, 1e-3]))
        v = rng.integers(1, 6, n) + eps * rng.normal(size=n)
    else:
        v = rng.normal(size=n) * (rng.random(n) < 0.3)
        v[rng.integers(n)] = 1.0
    return WeightVector(v / np.linalg.norm(v))


def _both(call, mode):
    """call() under the frozen scan, then under the live one in ``mode``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LCD, "_first_crossing", _oracle_scan)
        expected = call()
    with pytest.MonkeyPatch.context() as mp:
        for name, value in MODES[mode].items():
            mp.setattr(LCD, name, value)
        got = call()
    return expected, got


vectors = st.tuples(
    st.sampled_from(["gauss", "integer", "near_integer", "sparse"]),
    st.sampled_from(sorted(MAX_N)),
    st.floats(0.0, 1.0),
    st.integers(0, 2**32 - 1),
)


def _draw(spec) -> tuple[WeightVector, float]:
    kind, L, frac, seed = spec
    n = 1 + int(frac * (MAX_N[L] - 1))
    return _vector(kind, n, seed), L


# ---------------------------------------------------------------------------
# Differential tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=60, deadline=None)
@given(
    spec=vectors,
    variant=st.sampled_from(["d_star", "d"]),
    tol=st.sampled_from([1e-3, 1e-6, 1e-8]),
)
def test_lcd_equals_frozen_scan(mode, spec, variant, tol):
    a, L = _draw(spec)
    expected, got = _both(lambda: lcd(a, L, variant, tol=tol).to_json(), mode)
    assert got == expected


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=30, deadline=None)
@given(
    spec=vectors,
    tol=st.sampled_from([1e-3, 1e-6, 1e-8]),
    scale=st.sampled_from([0.5, 1.0, 1.0 + 1e-7, 3.0]),
)
def test_clearance_equals_frozen_scan(mode, spec, tol, scale):
    a, L = _draw(spec)
    D = scale * lcd(a, L, "d_star", tol=tol).witness_t
    expected, got = _both(lambda: verify_lattice_clearance(a, L, D, tol).to_json(), mode)
    assert got == expected


@pytest.mark.parametrize("mode", sorted(MODES))
def test_long_scan_equals_frozen_scan_and_resolves(mode):
    """A scan of tens of thousands of points at the benchmark's size, where
    resolves both commit and abort in the default setting."""
    v = np.random.default_rng([0, 0]).normal(size=448)
    a = WeightVector(v / np.linalg.norm(v))
    outcomes = []
    resolve = LCD._resolve

    def counted(*args):
        width = resolve(*args)
        outcomes.append(width is not None)
        return width

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LCD, "_resolve", counted)
        expected, got = _both(lambda: lcd(a, 2.0, "d_star", tol=1e-8).to_json(), mode)
    assert got == expected
    assert expected["n_evals"] > 10_000
    if mode == "default":
        assert outcomes.count(True) >= 5 and outcomes.count(False) >= 1
    if mode == "abort_all":
        assert outcomes and not any(outcomes)


@pytest.mark.parametrize("variant", ["d_star", "d"])
def test_levels_on_floats_resolve_as_levels_on_arrays(monkeypatch, variant):
    """Every resolve of a long scan, run again from its own arguments, gives
    the same certified width and count and leaves the same distances for the
    walk, whether its levels run on floats, on arrays, or on floats up to
    _SMALL_LEVEL nodes.  The scan's outputs cannot show this: the width only
    steers where the next resolve starts."""
    v = np.random.default_rng([0, 0]).normal(size=448)
    a = WeightVector(v / np.linalg.norm(v))
    calls = []
    resolve = LCD._resolve

    def recorded(*args):
        calls.append(args[:-1])
        return resolve(*args)

    monkeypatch.setattr(LCD, "_resolve", recorded)
    lcd(a, 2.0, variant, tol=1e-8)
    runs = []
    for small in (0, LCD._SMALL_LEVEL, LCD._RESOLVE_CAP):
        monkeypatch.setattr(LCD, "_SMALL_LEVEL", small)
        run = []
        for args in calls:
            ahead = {}
            run.append((resolve(*args, ahead), ahead))
        runs.append(run)
    assert runs[0] == runs[1] == runs[2]
    results = [result for result, _ in runs[0]]
    assert results.count(None) >= 1 and len(results) - results.count(None) >= 5


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("depth", [1e-13, 1e-9, 1e-7])
@pytest.mark.parametrize("floor", [1e-6, 1e-5])
def test_tangent_threshold_equals_frozen_scan(mode, depth, floor):
    """A flat threshold just below a local minimum of the distance: near the
    tangency the cone certifies only below the width floor, so the scan
    records gaps there without a witness, and finds its crossing further on.

    For a = (1, 1/2), dist(t a)^2 = (t - 1)^2 + t^2/4 on [1/2, 1], with its
    minimum sqrt(1/5) at t = 4/5; on [3/2, 2] dist = sqrt(5/4) (2 - t)
    passes sqrt(1/5) at t = 8/5."""
    abs_a = np.array([1.0, 0.5])
    args = (abs_a, _level(math.sqrt(0.2) - depth), math.sqrt(1.25), 0.5, 1.9, floor)
    expected = _oracle_scan(*args)
    with pytest.MonkeyPatch.context() as mp:
        for name, value in MODES[mode].items():
            mp.setattr(LCD, name, value)
        assert LCD._first_crossing(*args) == expected


# ---------------------------------------------------------------------------
# The threshold screen: a resolve takes its thresholds from the array form
# and decides every comparison as the scalar closure would
# ---------------------------------------------------------------------------

# Every array threshold moved 4 ulps one way: more than np.log and math.log
# differ (at most 1 ulp on the x86 host measured), far less than the margin.
PUSHES = {"up": math.inf, "down": -math.inf}


def _pushed(thr, push):
    """thr, with its array form moved 4 ulps in direction ``push``."""
    exact = thr.array

    def array(ts):
        T = exact(ts)
        for _ in range(4):
            T = np.nextafter(T, PUSHES[push])
        return T

    thr.array = array
    return thr


def _level(value: float):
    """A constant threshold with an array form."""

    def thr(t: float) -> float:
        return value

    thr.array = lambda ts: np.full(ts.shape, value)
    return thr


def _push_scan_thresholds(mp, push):
    threshold = LCD._threshold
    mp.setattr(LCD, "_threshold", lambda *args: _pushed(threshold(*args), push))


@pytest.mark.parametrize("push", sorted(PUSHES))
@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=20, deadline=None)
@given(
    spec=vectors,
    variant=st.sampled_from(["d_star", "d"]),
    tol=st.sampled_from([1e-3, 1e-6, 1e-8]),
    scale=st.sampled_from([0.5, 1.0 + 1e-7, 3.0]),
)
def test_pushed_array_thresholds_equal_frozen_scan(push, mode, spec, variant, tol, scale):
    a, L = _draw(spec)

    def call():
        res = lcd(a, L, variant, tol=tol)
        D = scale * lcd(a, L, "d_star", tol=tol).witness_t
        return res.to_json(), verify_lattice_clearance(a, L, D, tol).to_json()

    with pytest.MonkeyPatch.context() as mp:
        _push_scan_thresholds(mp, push)
        expected, got = _both(call, mode)
    assert got == expected


@pytest.mark.parametrize("push", sorted(PUSHES))
def test_long_scan_with_pushed_array_thresholds_equals_frozen_scan(push):
    v = np.random.default_rng([0, 0]).normal(size=448)
    a = WeightVector(v / np.linalg.norm(v))
    with pytest.MonkeyPatch.context() as mp:
        _push_scan_thresholds(mp, push)
        expected, got = _both(lambda: lcd(a, 2.0, "d", tol=1e-8).to_json(), "default")
    assert got == expected
    assert expected["n_evals"] > 10_000


def _tangent_scan(level, push, mode):
    """The tangent-threshold scan of a = (1, 1/2) over [1/2, 1.9] under a
    constant threshold, frozen and live with the array form pushed."""
    args = (np.array([1.0, 0.5]), math.sqrt(1.25), 0.5, 1.9, 1e-6)
    expected = _oracle_scan(args[0], _level(level), *args[1:])
    with pytest.MonkeyPatch.context() as mp:
        for name, value in MODES[mode].items():
            mp.setattr(LCD, name, value)
        got = LCD._first_crossing(args[0], _pushed(_level(level), push), *args[1:])
    return expected, got


@pytest.mark.parametrize("push", sorted(PUSHES))
@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("depth", [1e-13, 1e-9, 1e-7])
def test_tangent_threshold_with_pushed_array_equals_frozen_scan(push, mode, depth):
    expected, got = _tangent_scan(math.sqrt(0.2) - depth, push, mode)
    assert got == expected


def _tie_level(push):
    """A level at which one cone of a resolve in the tangent scan ties.

    The right child [m, v] of the node [1.2, v] has cone value X; a resolve
    tests it in the default mode.  At the level X the child certifies by
    equality, and pushed up it would fail; at the next float above X it
    fails, and pushed down it would certify.
    """
    abs_a, half_lip = np.array([1.0, 0.5]), 0.5 * math.sqrt(1.25)
    u, v = 1.2, 1.2013671874999998
    m = 0.5 * (u + v)
    dm, dv = LCD._dist_point(m, abs_a), LCD._dist_point(v, abs_a)
    cone = 0.5 * (dm + dv) - half_lip * (v - m)
    return cone if push == "up" else float(np.nextafter(cone, math.inf))


@pytest.mark.parametrize("push", sorted(PUSHES))
@pytest.mark.parametrize("mode", sorted(MODES))
def test_tie_with_pushed_array_equals_frozen_scan(push, mode):
    expected, got = _tangent_scan(_tie_level(push), push, mode)
    assert got == expected


@pytest.mark.parametrize("push", sorted(PUSHES))
def test_tie_is_decided_by_the_screen(push):
    """Without the margin the pushed array decides the tie the other way and
    the scan's count moves, so the tie tests above exercise the screen."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(LCD, "_THR_MARGIN", 0.0)
        expected, got = _tangent_scan(_tie_level(push), push, "default")
    assert got[2] != expected[2]


def _closure_and_array(variant, L, norm, ts):
    thr = LCD._threshold(variant, L, norm)
    return np.array([thr(t) for t in ts.tolist()]), thr.array(ts)


def _assert_within_margin(scalar, array):
    assert np.all(np.abs(array - scalar) <= LCD._THR_MARGIN * array)


@pytest.mark.parametrize("L", [0.3, 1.0, 2.0, 7.5])
@pytest.mark.parametrize("norm", [1.0, 0.7, 3.0])
def test_array_threshold_matches_closure_around_the_branch_point(L, norm):
    # 2,001 consecutive floats centred on the t where t * norm reaches e*L.
    t_branch = math.e * L / norm
    steps = np.arange(-1000, 1001)
    ts = t_branch + steps * np.spacing(t_branch)
    scalar, array = _closure_and_array("d_star", L, norm, ts)
    below = ts * norm < math.e * L
    assert below.any() and not below.all()
    assert np.array_equal(array[below], scalar[below])
    _assert_within_margin(scalar, array)


@pytest.mark.parametrize("L", [0.3, 1.0, 2.0, 7.5])
def test_log_plus_array_threshold_matches_closure_near_L(L):
    # L itself and the 2,000 floats above it, where log(t/L) is tiny.
    ts = L + np.arange(0, 2001) * np.spacing(L)
    scalar, array = _closure_and_array("d", L, 1.0, ts)
    assert scalar[0] == array[0] == 0.0
    assert np.all(scalar[1:] > 0.0)
    _assert_within_margin(scalar, array)


@pytest.mark.parametrize("variant", ["d_star", "d"])
def test_array_threshold_matches_closure_over_the_scan_range(variant):
    ts = np.exp(np.random.default_rng(7).uniform(math.log(10.0), math.log(3e6), 100_000))
    scalar, array = _closure_and_array(variant, 2.0, 1.0, ts)
    _assert_within_margin(scalar, array)
