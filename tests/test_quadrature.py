"""Adaptive Simpson against scipy.integrate.quad oracles and a frozen copy of
the earlier depth-first recursion."""

import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from lofo import AnalyticDist, FiniteDist, WeightVector, esseen_integral, symmetrize, weighted_cf
from lofo.exceptions import QuadratureError
from lofo import quadrature
from lofo.quadrature import adaptive_simpson


def _oracle_simpson(f, a, b, tol=1e-8, max_depth=40, min_depth=4):
    """The recursive adaptive_simpson the level-synchronous one replaced, kept
    verbatim; f takes and returns one float."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    if a == b:
        return 0.0
    fa, fb = f(a), f(b)
    m = 0.5 * (a + b)
    fm = f(m)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    value, ok = _oracle_recurse(f, a, fa, b, fb, m, fm, whole, tol, max_depth, min_depth)
    if not ok:
        raise QuadratureError(value, tol, max_depth)
    return value


def _oracle_recurse(f, a, fa, b, fb, m, fm, whole, tol, depth, force):
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
    lv, lok = _oracle_recurse(f, a, fa, m, fm, lm, flm, left, 0.5 * tol, depth - 1, force - 1)
    rv, rok = _oracle_recurse(f, m, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1, force - 1)
    return lv + rv, lok and rok


def _level_oracle(f, a, b, tol=1e-8, max_depth=40, max_panels=quadrature._MAX_PANELS):
    """The level-synchronous adaptive_simpson with one integrand call per
    forced level, kept verbatim but for its panel bound, passed in."""
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
        if panels.shape[1] > max_panels:
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


@pytest.mark.parametrize(
    "f,a,b",
    [
        (lambda x: np.exp(-0.5 * x * x), 0.0, 3.0),
        (lambda x: x * x * np.exp(-x), 0.0, 10.0),
        (lambda x: 1.0 / (1.0 + x * x), -4.0, 4.0),
    ],
)
def test_matches_scipy_quad(f, a, b):
    oracle, _ = integrate.quad(f, a, b, limit=200)
    assert adaptive_simpson(f, a, b, tol=1e-10) == pytest.approx(oracle, abs=1e-9)


def test_kinked_integrand_needs_breakpoint_oracle():
    # |cos(3x)| has kinks; the oracle must be told where they are.
    f = lambda x: np.abs(np.cos(3 * x))
    kinks = [(math.pi / 2 + k * math.pi) / 3 for k in range(5)]
    oracle, err = integrate.quad(f, 0.0, 5.0, points=kinks, limit=200)
    assert err < 1e-12
    assert adaptive_simpson(f, 0.0, 5.0, tol=1e-10) == pytest.approx(oracle, abs=1e-9)


def test_degenerate_and_validation():
    assert adaptive_simpson(np.sin, 2.0, 2.0) == 0.0
    with pytest.raises(ValueError):
        adaptive_simpson(np.sin, 0.0, 1.0, tol=0.0)


@pytest.mark.parametrize(
    "a,b,max_depth",
    [
        (1.0, 0.0, 40),
        (0.0, 1.0, -1),
        (-1e308, 1e308, 40),
        (0.0, math.inf, 40),
        (-math.inf, 0.0, 40),
        (math.inf, math.inf, 40),
        (math.nan, 1.0, 40),
        (0.0, math.nan, 40),
    ],
)
def test_rejects_bad_interval_or_depth(a, b, max_depth):
    # Refused before any call and without a numpy warning: a reversed interval
    # used to run 40 levels, and max_depth -1 to report "within depth -1".
    calls = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="need finite a <= b|max_depth must be at least 0"):
            adaptive_simpson(lambda x: calls.append(x) or np.cos(x), a, b, max_depth=max_depth)
    assert calls == []


def test_depth_exhaustion_carries_estimate():
    rough = lambda x: np.sin(200.0 * x) ** 2
    with pytest.raises(QuadratureError) as exc:
        adaptive_simpson(rough, 0.0, 7.0, tol=1e-13, max_depth=3)
    oracle, _ = integrate.quad(rough, 0.0, 7.0, limit=400)
    # The achieved estimate is still in the right ballpark.
    assert abs(exc.value.estimate - oracle) < 0.5
    assert exc.value.depth == 3


def _one_node(vec):
    """The array integrand vec evaluated one node at a time, for the oracle."""
    return lambda x: float(vec(np.array([x]))[0])


def test_depth_exhaustion_matches_recursion():
    rough = lambda x: np.sin(200.0 * x) ** 2
    with pytest.raises(QuadratureError) as new:
        adaptive_simpson(rough, 0.0, 7.0, tol=1e-13, max_depth=3)
    with pytest.raises(QuadratureError) as old:
        _oracle_simpson(_one_node(rough), 0.0, 7.0, tol=1e-13, max_depth=3)
    assert (new.value.estimate, new.value.depth, new.value.tol) == (
        old.value.estimate, old.value.depth, old.value.tol)


@st.composite
def _symmetrized_laws(draw):
    k = draw(st.integers(2, 7))
    atoms = draw(st.lists(st.floats(-2.0, 2.0), min_size=k, max_size=k, unique=True))
    masses = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return symmetrize(FiniteDist(np.sort(atoms), masses / masses.sum()))


@settings(max_examples=30, deadline=None)
@given(
    g=_symmetrized_laws(),
    n=st.sampled_from([1, 8, 32]),
    seed=st.integers(0, 2**32 - 1),
    lam=st.floats(0.05, 20.0),
)
def test_esseen_bit_identical_to_recursion(g, n, seed, lam):
    # One node per call through the scalar CF (the earlier integrand) against
    # one call per level through the batched CF: the same bits.
    a = WeightVector(np.random.default_rng(seed).uniform(-1.0, 1.0, n))
    f = lambda t: abs(weighted_cf(g, a, t))
    tol = 1e-8
    expected = lam * _oracle_simpson(f, 0.0, 1.0 / lam, tol=tol / lam)
    assert esseen_integral(g, a, lam, tol) == expected


@st.composite
def _intervals(draw):
    """[a, b] of up to 60 units, or of 1 to 40 ulps anywhere in [-1e3, 1e3]."""
    if draw(st.booleans()):
        a = draw(st.floats(-20.0, 20.0))
        return a, a + draw(st.floats(0.0, 60.0))
    a = b = draw(st.floats(-1e3, 1e3))
    for _ in range(draw(st.integers(1, 40))):
        b = math.nextafter(b, math.inf)
    return a, b


@st.composite
def _integrands(draw):
    """sin(200x)^2, or |CF| of a symmetrized law under 1 to 8 random weights."""
    if draw(st.booleans()):
        return lambda x: np.sin(200.0 * x) ** 2
    g = draw(_symmetrized_laws())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = WeightVector(rng.uniform(-1.0, 1.0, draw(st.integers(1, 8))))
    return lambda t: np.abs(weighted_cf(g, a, t))


def _traced(quad, f, a, b, **kw):
    """quad's value or error, bit for bit, and the sorted bits of every node
    it passed to f."""
    nodes = []

    def seen(x):
        nodes.extend(np.asarray(x, dtype=float).tolist())
        return f(x)

    try:
        out = ("value", quad(seen, a, b, **kw).hex())
    except QuadratureError as exc:
        out = ("error", exc.estimate.hex(), exc.tol.hex(), exc.depth)
    return out, sorted(map(float.hex, nodes))


@settings(max_examples=300, deadline=None)
@given(
    f=_integrands(),
    ab=_intervals(),
    tol=st.sampled_from([1e-13, 1e-8, 1e-3, 9 * 5e-324]),
    max_depth=st.integers(0, 6) | st.just(40),
    cap=st.integers(1, 64),
)
def test_forced_levels_in_one_call_match_level_loop(f, ab, tol, max_depth, cap):
    # The 33-node first call against one call per forced level: the same value
    # or error and the same nodes, whether the grid applies (max_depth >= 4,
    # cap >= 16, no collapsed midpoint) or the loop starts from the root.
    a, b = ab
    kw = dict(tol=tol, max_depth=max_depth)
    with mock.patch.object(quadrature, "_MAX_PANELS", cap):
        got = _traced(adaptive_simpson, f, a, b, **kw)
    assert got == _traced(_level_oracle, f, a, b, max_panels=cap, **kw)


@pytest.mark.parametrize("step", [0.1, 0.3, 0.77])
def test_subnormal_tolerance_halves_four_times(step):
    # At tol = 9 * 2^-1074 four halvings give level 4 a tolerance of 0, and
    # tol / 16 one of 2^-1074: on this step of 22 * 2^-1074 they differ.
    f = lambda x: np.where(x > step, 22 * 5e-324, 0.0)
    tol = 9 * 5e-324
    assert _traced(adaptive_simpson, f, 0.0, 1.0, tol=tol) == _traced(_level_oracle, f, 0.0, 1.0, tol=tol)


@st.composite
def _mirrored_laws(draw):
    """Laws mirrored bitwise about 0 with no zero atom: up to 12 folded atoms."""
    ticks = sorted(draw(st.sets(st.integers(1, 3000), min_size=1, max_size=12)))
    half = np.array(ticks) / 1000.0
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=half.size, max_size=half.size)))
    return FiniteDist(np.concatenate((-half[::-1], half)), np.concatenate((w[::-1], w)) / (2.0 * w.sum()))


@st.composite
def _skewed_laws(draw):
    """Laws that are not mirrored, of 9 to 20 atoms: the odd sum runs too."""
    k = draw(st.integers(9, 20))
    atoms = np.sort(draw(st.lists(st.floats(0.0, 3.0), min_size=k, max_size=k, unique=True)))
    masses = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    return FiniteDist(atoms, masses / masses.sum())


_laws = st.one_of(
    _symmetrized_laws(),
    _mirrored_laws(),
    _skewed_laws(),
    st.builds(FiniteDist.bernoulli, st.floats(0.05, 0.95)),
    st.builds(AnalyticDist.gaussian, st.floats(0.1, 10.0)),
    st.builds(AnalyticDist.stable, st.floats(0.1, 2.0), st.floats(0.1, 10.0)),
)


@settings(max_examples=200, deadline=None)
@given(
    g=_laws,
    n=st.sampled_from([1, 8, 32]),
    seed=st.integers(0, 2**32 - 1),
    ts=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40),
)
def test_weighted_cf_entries_match_scalar_calls(g, n, seed, ts):
    # The quadrature's premise: each node's |CF| has the bits of its own call,
    # whatever other nodes share the batch.  The laws cover both of the
    # finite kernel's sums, atom counts on either side of np.add.reduce's
    # 8-term unrolled block, and the analytic kinds.
    a = WeightVector(np.random.default_rng(seed).uniform(-1.0, 1.0, n))
    batch = weighted_cf(g, a, np.array(ts))
    assert [repr(complex(v)) for v in batch] == [repr(weighted_cf(g, a, t)) for t in ts]


def _capped_oracle(f, a, b, tol, levels):
    """The recursion of _oracle_simpson (min_depth 4, depth not reached) cut
    after ``levels`` levels: a panel still open there counts at its Simpson
    value."""

    def recurse(a, fa, b, fb, m, fm, whole, tol, level):
        if level == levels:
            return whole
        lm, rm = 0.5 * (a + m), 0.5 * (m + b)
        flm, frm = f(lm), f(rm)
        left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if (level >= 4 and abs(delta) <= 15.0 * tol) or lm <= a or rm <= m:
            return left + right + delta / 15.0
        return (recurse(a, fa, m, fm, lm, flm, left, 0.5 * tol, level + 1)
                + recurse(m, fm, b, fb, rm, frm, right, 0.5 * tol, level + 1))

    fa, fb, m = f(a), f(b), 0.5 * (a + b)
    fm = f(m)
    return recurse(a, fa, b, fb, m, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb), tol, 0)


@pytest.mark.parametrize("cap", [1, 16, 100])
def test_panel_bound_stops_before_a_wide_level(monkeypatch, cap):
    rough = lambda x: np.sin(200.0 * x) ** 2
    widths = []

    def counted(x):
        widths.append(x.size)
        return rough(x)

    monkeypatch.setattr(quadrature, "_MAX_PANELS", cap)
    with pytest.raises(QuadratureError) as exc:
        adaptive_simpson(counted, 0.0, 7.0, tol=1e-13)
    # From cap 16 on, a first call of 33 nodes evaluates the ends, the midpoint
    # and the 4 forced levels; below it, a first call of 3 nodes evaluates the
    # ends and the midpoint.  Then one call per level evaluated, each at two
    # quarter points of at most cap panels.
    first, forced = (33, 4) if cap >= 16 else (3, 0)
    assert widths[0] == first and exc.value.depth == forced + len(widths) - 1
    assert max(widths[1:]) <= 2 * cap
    expected = _capped_oracle(_one_node(rough), 0.0, 7.0, 1e-13, exc.value.depth)
    assert exc.value.estimate == expected


def test_esseen_panel_bound_scales_with_one_over_lambda(monkeypatch):
    # The widest level holds 978 panels at lambda = 1e-2 and 9,812 at 1e-3:
    # under a bound between them the first keeps its bits, the second stops.
    g = symmetrize(FiniteDist([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]))
    a = WeightVector([1.0, 0.5])
    fits = esseen_integral(g, a, 1e-2)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 4096)
    assert esseen_integral(g, a, 1e-2) == fits
    with pytest.raises(QuadratureError):
        esseen_integral(g, a, 1e-3)


def test_esseen_quadrature_error_is_in_esseen_units(monkeypatch):
    # The quadrature runs over [0, 1/lambda]; its error's estimate and tolerance
    # are rescaled by lambda to those of the Esseen value, and its depth kept.
    g = symmetrize(FiniteDist([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]))
    a = WeightVector([1.0, 0.5])
    lam = 1e-3
    value = esseen_integral(g, a, lam)
    monkeypatch.setattr(quadrature, "_MAX_PANELS", 1024)
    with pytest.raises(QuadratureError) as inner:
        adaptive_simpson(lambda t: np.abs(weighted_cf(g, a, t)), 0.0, 1.0 / lam, tol=1e-8 / lam)
    with pytest.raises(QuadratureError) as exc:
        esseen_integral(g, a, lam)
    assert value / 2 <= exc.value.estimate <= 2 * value
    assert exc.value.estimate == lam * inner.value.estimate
    assert exc.value.tol == pytest.approx(1e-8, rel=1e-15)
    assert exc.value.depth == inner.value.depth
    assert f"achieved estimate {exc.value.estimate!r}" in str(exc.value)


@pytest.mark.parametrize("lam", [math.inf, 1e-320])
def test_esseen_rejects_lambda_without_finite_reciprocal(lam):
    g = symmetrize(FiniteDist([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]))
    with pytest.raises(ValueError, match="lambda must be positive and finite"):
        esseen_integral(g, WeightVector([1.0, 0.5]), lam)
