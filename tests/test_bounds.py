"""Bound shapes, crossover-scale equation, gadget inequalities."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc

import lofo.bounds
from lofo.bounds import (
    check_cf_exponential_bound,
    check_smoothing_gaussian_branch,
    check_smoothing_identities,
    check_smoothing_lattice_bound,
    shape_bernoulli_min,
    shape_crossover,
    shape_esseen,
    shape_kolmogorov_rogozin,
    shape_lcd,
    shape_lcd_unit,
    shape_no_arithmetic,
    shape_vershynin,
    smoothing_cf,
    solve_tau0,
)
from lofo.concentration import WeightVector, q_exact
from lofo.distributions import AnalyticDist, FiniteDist, _m_gaussian, m_functional, symmetrize
from lofo.exceptions import NumericalError, PreconditionError
from lofo.lcd import dist_to_lattice


def random_symmetrized(rng, n_atoms=5, span=2.0):
    atoms = np.sort(rng.uniform(-span, span, n_atoms))
    masses = rng.random(n_atoms) + 0.05
    return symmetrize(FiniteDist(atoms, masses / masses.sum()))


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


def test_kr_shape_examples():
    assert shape_kolmogorov_rogozin(1.0, [1.0], [0.0]) == pytest.approx(1.0)
    n, q = 16, 0.3
    val = shape_kolmogorov_rogozin(0.5, [0.5] * n, [q] * n)
    assert val == pytest.approx((n * (1 - q)) ** -0.5)
    with pytest.raises(PreconditionError):
        shape_kolmogorov_rogozin(1.0, [1.0, 1.0], [1.0, 1.0])


def test_esseen_shape_reductions():
    # Equal weights: collapses to 1/sqrt(n M(tau)).
    n, m = 9, 0.4
    assert shape_esseen(0.7, [0.7] * n, [m] * n) == pytest.approx((n * m) ** -0.5)
    # Weighted reduction: Y_k = a_k X, lambda_k = a_k tau, lambda = sup|a| tau.
    rng = np.random.default_rng(1)
    a = rng.uniform(0.3, 1.0, 6)
    tau, m_tau = 0.8, 0.55
    val = shape_esseen(np.max(a) * tau, a * tau, [m_tau] * 6)
    expected = np.max(a) / (np.linalg.norm(a) * math.sqrt(m_tau))
    assert val == pytest.approx(expected)
    assert shape_esseen(1.0, [1.0], [1.0]) == pytest.approx(1.0)


@settings(max_examples=300, deadline=None)
@given(lam=st.floats(1.0, 4.0),
       top=st.tuples(st.floats(0.5, 1.0), st.integers(0, 900)),
       ratios=st.lists(st.floats(2.0**-10, 1.0), min_size=8, max_size=8),
       comps=st.lists(st.one_of(st.just(0.0), st.floats(2.0**-40, 1.0)), min_size=1,
                      max_size=8).filter(any),
       k=st.integers(-1000, 1000))
def test_classical_shapes_are_scale_free_bit_for_bit(lam, top, ratios, comps, k):
    # Degree 0 in (lambda, lambda_k): scaling both by 2^k keeps every bit
    # while the scaled windows stay normal, and a window whose component is
    # 0 changes no bit wherever it lies in (0, lambda].  The counted windows
    # lie within 2^-10 of lam 2^-t, t up to 900; zero-weight ones are drawn
    # anywhere in [2^-10 lam, lam], often far above every counted window.
    c = np.array(comps)
    lam_k = np.where(c > 0.0, math.ldexp(lam * top[0], -top[1]), lam) * np.array(ratios[: c.size])
    for shape, comp, c_k in ((shape_esseen, c, c),
                             (shape_kolmogorov_rogozin, 1.0 - c, 1.0 - (1.0 - c))):
        value = shape(lam, lam_k, comp)
        if np.all(lam_k[c_k > 0.0] >= 2.0**-200):  # every unscaled square is normal
            assert value == lam / math.sqrt(np.dot(lam_k * lam_k, c_k))
        assert shape(lam, np.where(c_k > 0.0, lam_k, lam), comp) == value
        if np.all(np.ldexp(lam_k, k) >= 2.0**-1022):
            assert shape(math.ldexp(lam, k), np.ldexp(lam_k, k), comp) == value
            grid = shape([lam, math.ldexp(lam, k)], [lam_k, np.ldexp(lam_k, k)], [comp, comp])
            assert grid == [value, value]


@pytest.mark.parametrize("value,expected", [
    # A zero-weight window once set the scale, so the counted window's
    # square underflowed and the call raised NumericalError.
    (lambda: shape_esseen(2.0**300, [2.0**300, 2.0**-300], [0.0, 1.0]), 2.0**600),
    (lambda: shape_kolmogorov_rogozin(2.0**300, [2.0**300, 2.0**-300], [1.0, 0.0]), 2.0**600),
    (lambda: shape_esseen([1.0, 2.0**300], [[1.0, 1.0], [2.0**300, 2.0**-300]],
                          [[0.0, 1.0], [0.0, 1.0]]), [1.0, 2.0**600]),
    (lambda: shape_esseen(1.7976931348623157e308, [1.7976931348623157e308, 1.0], [0.0, 1.0]),
     1.7976931348623157e308),
    # Only the smallest component is counted, as a subnormal M_k.
    (lambda: shape_esseen(1.0, [1.0], [2.0**-1074]), 2.0**537),
    (lambda: shape_esseen(1e-200, [1e-200], [0.5]), 2.0**0.5),
], ids=["esseen_zero_weight", "kr_zero_weight", "grid_zero_weight", "max_float_zero_weight",
        "subnormal_m_k", "tiny_windows"])
def test_classical_shapes_at_extreme_scales(value, expected):
    assert value() == expected


def test_esseen_vs_kr_dominance_chain():
    # Provable pointwise: Q(G, tau) <= Q(F, tau) (symmetrization spreads) and
    # M(tau) >= 1 - Q(G, 2 tau) (the survival mass beyond tau sits outside a
    # 2 tau window).  M(tau) >= 1 - Q(tau) itself only holds up to a constant,
    # so it is checked per instance and gates the shape comparison, which is
    # then an algebraic consequence.
    rng = np.random.default_rng(5)
    gated = 0
    for _ in range(40):
        atoms = np.sort(rng.uniform(-2, 2, 4))
        masses = rng.random(4) + 0.1
        f = FiniteDist(atoms, masses / masses.sum())
        g = symmetrize(f)
        tau = float(rng.uniform(0.1, 2.0))
        m_tau = m_functional(g, tau)
        q_f = q_exact(f, tau).value
        assert q_exact(g, tau).value <= q_f + 1e-12
        assert m_tau >= 1.0 - q_exact(g, 2.0 * tau).value - 1e-12
        if m_tau < 1.0 - q_f or q_f >= 1.0:
            continue
        gated += 1
        lam_k = [tau] * 5
        kr = shape_kolmogorov_rogozin(tau, lam_k, [q_f] * 5)
        ess = shape_esseen(tau, lam_k, [m_tau] * 5)
        assert ess <= kr + 1e-12
    assert gated >= 20  # the gate passes on most ordinary instances


def test_lcd_shape_examples_and_identity():
    assert shape_lcd_unit(1.0, 1.0) == pytest.approx(1.0)
    assert shape_lcd_unit(10.0, 0.5) == pytest.approx(0.1414213562, abs=1e-9)
    assert shape_lcd(4.0, 1.0, 0.5) == pytest.approx(0.3535533906, abs=1e-9)
    # Unit form is the general form at ||a|| = 1.
    assert shape_lcd_unit(3.0, 0.37) == shape_lcd(3.0, 1.0, 0.37)
    # Scale covariance: (||a||, D) -> (c ||a||, D / c) leaves the value fixed.
    assert shape_lcd(4.0 / 2.5, 2.5, 0.5) == pytest.approx(shape_lcd(4.0, 1.0, 0.5))
    with pytest.raises(PreconditionError):
        shape_lcd(1.0, 1.0, 0.0)


def test_refined_shape_improves_on_baseline():
    # 1/(D sqrt(M1)) <= L/D exactly when L >= 1/sqrt(M1).
    for m1, L in [(0.5, 2.0), (0.5, 10.0), (1.0, 1.0), (0.08, 4.0)]:
        refined = shape_lcd_unit(7.0, m1)
        baseline = shape_vershynin(L, 7.0)
        if L >= 1.0 / math.sqrt(m1):
            assert refined <= baseline + 1e-12


@settings(max_examples=60, deadline=None)
@given(
    D=st.floats(1e-3, 1e3),
    m=st.floats(1e-6, 1.0),
    c=st.floats(1e-3, 1e3),
)
def test_lcd_shape_scale_covariance_property(D, m, c):
    # (||a||, D) -> (c ||a||, D/c) is exactly neutral.
    assert shape_lcd(D / c, c, m) == pytest.approx(shape_lcd(D, 1.0, m), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    lam=st.floats(1e-3, 1e3),
    q=st.floats(0.0, 0.999),
    n=st.integers(1, 200),
)
def test_kr_shape_iid_reduction_property(lam, q, n):
    val = shape_kolmogorov_rogozin(lam, [lam] * n, [q] * n)
    assert val == pytest.approx((n * (1.0 - q)) ** -0.5, rel=1e-12)


def test_no_arithmetic_shape():
    assert shape_no_arithmetic(1.0, 1.0, 1.0) == pytest.approx(1.0)
    val = shape_no_arithmetic(0.25, 1.0, 0.5)
    assert val == pytest.approx(0.25 / math.sqrt(0.5))


def test_bernoulli_min_shape():
    assert shape_bernoulli_min(0.0, 2.0, 0.5) == pytest.approx(1.0)
    assert shape_bernoulli_min(0.1, 100.0, 0.5) == pytest.approx(0.22)
    assert shape_bernoulli_min(10.0, 2.0, 0.3) == 1.0


# ---------------------------------------------------------------------------
# Crossover scale
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [0.1, 0.25, 0.5])
@pytest.mark.parametrize("lfac", [1.5, 3.0, 12.0])
def test_tau0_bernoulli_closed_form(p, lfac):
    g = symmetrize(FiniteDist.bernoulli(p))
    pp = 2.0 * p * (1.0 - p)
    L = lfac / math.sqrt(pp)
    root = solve_tau0(g, L)
    assert root.tau0 == pytest.approx(L * math.sqrt(pp), rel=1e-12)
    assert root.residual <= 1e-10
    assert root.method == "piecewise_exact"


def test_tau0_self_consistency_at_m1():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_symmetrized(rng)
        m1 = m_functional(g, 1.0)
        if m1 <= 0:
            continue
        L = 1.0 / math.sqrt(m1)
        p_surv = 1.0 - g.mass_at(0.0)
        if L * L <= 1.0 / p_surv:
            continue
        root = solve_tau0(g, L)
        assert root.tau0 == pytest.approx(1.0, rel=1e-9)


def test_tau0_bracketing_property():
    rng = np.random.default_rng(9)
    for _ in range(10):
        g = random_symmetrized(rng)
        p_surv = 1.0 - g.mass_at(0.0)
        L = 2.0 / math.sqrt(p_surv)
        root = solve_tau0(g, L)
        delta = 1e-6 * root.tau0
        assert m_functional(g, root.tau0 - delta) >= 1.0 / L**2 - 1e-9
        assert m_functional(g, root.tau0 + delta) <= 1.0 / L**2 + 1e-9


def test_tau0_gaussian_monotone_in_L():
    g = AnalyticDist.gaussian(math.sqrt(2.0))
    taus = [solve_tau0(g, L).tau0 for L in (1.5, 2.0, 3.0, 5.0, 9.0)]
    assert all(t1 < t2 for t1, t2 in zip(taus, taus[1:]))
    root = solve_tau0(g, 2.0)
    assert abs(m_functional(g, root.tau0) - 0.25) <= 1e-6


def test_tau0_precondition_error():
    g = symmetrize(FiniteDist.bernoulli(0.5))  # P = 0.5
    with pytest.raises(PreconditionError):
        solve_tau0(g, 1.2)  # L^2 = 1.44 < 1/P = 2
    with pytest.raises(PreconditionError):
        solve_tau0(symmetrize(FiniteDist.point_mass(1.0)), 5.0)


def test_tau0_unreachable_tolerance_is_numerical_error():
    g = symmetrize(FiniteDist.bernoulli(0.5))
    with pytest.raises(NumericalError, match="residual"):
        solve_tau0(g, 2.0, tol=1e-30)


def test_tau0_empirical_path_deterministic():
    g = AnalyticDist.stable(1.0, 2.0)
    r1 = solve_tau0(g, 4.0, n_samples=200_000, seed=7)
    r2 = solve_tau0(g, 4.0, n_samples=200_000, seed=7)
    assert r1.tau0 == r2.tau0
    assert r1.method == "empirical_sample"
    # Cauchy oracle: M(tau) = (2g/(pi tau^2))(tau - g atan(tau/g)) + 1 - (2/pi) atan(tau/g)
    gamma = 2.0
    def m_oracle(tau):
        at = math.atan(tau / gamma)
        return (2 * gamma / (math.pi * tau**2)) * (tau - gamma * at) + 1 - 2 * at / math.pi
    # Exact root by fine bisection on the oracle.
    lo, hi = 1.0, 1e5
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if m_oracle(mid) > 1 / 16.0:
            lo = mid
        else:
            hi = mid
    assert r1.tau0 == pytest.approx(lo, rel=0.02)


def test_crossover_branches_and_continuity():
    g = symmetrize(FiniteDist.bernoulli(0.5))
    a = WeightVector([0.6, 0.8])
    L, dstar = 2.0, 4.0
    root = solve_tau0(g, L)
    eps0 = root.tau0 / dstar
    below = shape_crossover(a, g, L, eps0 * (1 - 1e-12), dstar, root=root)
    above = shape_crossover(a, g, L, eps0 * (1 + 1e-12), dstar, root=root)
    at = shape_crossover(a, g, L, eps0, dstar, root=root)
    expected = L / (a.norm2 * dstar)
    assert at.params["branch"] == "small_eps"
    # Branch agreement at eps0 to fp accuracy: M(eps0 * dstar) = 1/L^2.
    assert at.value == pytest.approx(expected, rel=1e-12)
    assert below.value == pytest.approx(expected, rel=1e-6)
    assert above.value == pytest.approx(expected, rel=1e-6)


def test_crossover_zero_eps_limit():
    g = symmetrize(FiniteDist.bernoulli(0.3))
    a = WeightVector([1.0])
    shape = shape_crossover(a, g, 3.0, 0.0, 5.0)
    assert shape.value == pytest.approx(1.0 / (5.0 * math.sqrt(0.42)), rel=1e-12)
    assert shape.params["branch"] == "zero"


def test_crossover_bernoulli_regimes():
    # Between 1/D* and eps0 the bound tracks eps/sqrt(2 p(1-p)); below 1/D*
    # it freezes at 1/(D* sqrt(2 p(1-p))).
    p = 0.5
    g = symmetrize(FiniteDist.bernoulli(p))
    a = WeightVector([1.0])
    L, dstar = 4.0, 6.0
    root = solve_tau0(g, L)
    pp = 2 * p * (1 - p)
    for eps in np.linspace(1.0 / dstar, root.tau0 / dstar, 7):
        val = shape_crossover(a, g, L, float(eps), dstar, root=root).value
        assert val == pytest.approx(eps / math.sqrt(pp), rel=1e-12)
    for eps in np.linspace(1e-4, 1.0 / dstar, 5):
        val = shape_crossover(a, g, L, float(eps), dstar, root=root).value
        assert val == pytest.approx(1.0 / (dstar * math.sqrt(pp)), rel=1e-12)


def test_crossover_dominates_naive_rescaling():
    # Moving a window bound from eps1 up to eps by the covering inequality
    # is never better than evaluating the bound at eps directly.
    g = symmetrize(FiniteDist.bernoulli(0.4))
    a = WeightVector([1.0])
    L, dstar = 3.0, 8.0
    root = solve_tau0(g, L)
    eps0 = root.tau0 / dstar
    grid = np.linspace(0.02 * eps0, eps0, 12)
    for i, eps1 in enumerate(grid[:-1]):
        for eps in grid[i + 1 :]:
            direct = shape_crossover(a, g, L, float(eps), dstar, root=root).value
            rescaled = (eps / eps1) * shape_crossover(
                a, g, L, float(eps1), dstar, root=root
            ).value
            assert direct <= rescaled * (1 + 1e-12)


# ---------------------------------------------------------------------------
# Gadget inequalities
# ---------------------------------------------------------------------------


def test_cf_bound_bernoulli_grid():
    rep = check_cf_exponential_bound(
        FiniteDist.bernoulli(0.5), np.linspace(-20, 20, 4001)
    )
    assert rep.passed
    assert rep.n_points == 4001


def test_cf_bound_random_laws():
    rng = np.random.default_rng(17)
    for _ in range(100):
        atoms = np.sort(rng.uniform(-3, 3, 5))
        masses = rng.random(5) + 0.05
        f = FiniteDist(atoms, masses / masses.sum())
        rep = check_cf_exponential_bound(f, rng.uniform(-40, 40, 64))
        assert rep.passed, f"violation at t={rep.worst_t}"


def test_smoothing_cf_values():
    a = WeightVector([1.0])
    assert smoothing_cf(a, math.pi, 1.0, 0.0) == pytest.approx(1.0)
    # Lattice point: 1 - cos(2 pi) = 0, CF equals 1, distance bound is equality.
    assert smoothing_cf(a, math.pi, 1.0, 1.0) == pytest.approx(1.0)
    rep = check_smoothing_lattice_bound(a, [1.0])
    assert rep.passed


def test_smoothing_lattice_margins_match_pointwise_form():
    # One array call for the distances; the margins keep every bit of the
    # one-t-at-a-time form.
    rng = np.random.default_rng(41)
    for n in (1, 3, 8, 64):
        coords = rng.normal(size=n)
        a = WeightVector(coords / np.linalg.norm(coords))
        ts = np.concatenate([np.linspace(0.25, 50.0, 400), rng.uniform(-1e3, 1e3, 64)])
        rep = check_smoothing_lattice_bound(a, ts)
        bound = np.array([math.exp(-4.0 * dist_to_lattice(t, a) ** 2) for t in ts])
        margins = bound - smoothing_cf(a, math.pi, 1.0, ts)
        k = int(np.argmin(margins))
        assert rep.worst_t == ts[k]
        assert rep.worst_margin == margins[k]
        assert rep.n_points == ts.size


def test_smoothing_checks_random_unit_vectors():
    rng = np.random.default_rng(23)
    for _ in range(30):
        coords = rng.normal(size=8)
        a = WeightVector(coords / np.linalg.norm(coords))
        ts = np.linspace(0.0, 50.0, 401)
        gamma = float(rng.uniform(0.2, 5.0))
        z = float(rng.uniform(0.3, 3.0))
        y = float(rng.uniform(0.3, 3.0))
        assert check_smoothing_identities(a, z, y, gamma, ts).passed
        assert check_smoothing_lattice_bound(a, ts).passed
        assert check_smoothing_gaussian_branch(a, np.linspace(0, 0.5 / a.norm_inf, 101)).passed


# ---------------------------------------------------------------------------
# Frozen outputs (repr floats), compared exactly.  The Gaussian residual is
# not frozen: it moves with the last bits of M, while tau0 and the
# iteration count must not.
# ---------------------------------------------------------------------------

# (passed, worst_t, worst_margin, n_points) per seeded 5-atom law, 64 t's each.
GOLDEN_CF_BOUND = {
    0: (True, -3.972850668057042, 0.05321204496740195, 64),
    1: (True, 11.657671645995826, 0.014617421003828901, 64),
    2: (True, -0.1555156066201704, 0.0017430095280428493, 64),
    3: (True, -14.881119837253056, 0.0034223904344580225, 64),
}

# (alpha, scale, L) -> (tau0, residual) from 50,000 draws with seed 7.
GOLDEN_EMPIRICAL_TAU0 = {
    (1.0, 2.0, 2.0): (8.510998818546092, 8.604228440844963e-15),
    (1.0, 2.0, 4.0): (38.66107011678579, 1.0130785099704553e-15),
    (1.0, 2.0, 10.0): (242.75329506384242, 5.204170427930421e-18),
    (1.5, 1.0, 2.0): (3.063559770328459, 9.381384558082573e-15),
    (1.5, 1.0, 4.0): (8.39897551683711, 3.191891195797325e-16),
    (1.5, 1.0, 10.0): (28.510124588589203, 5.204170427930421e-18),
}

def test_cf_bound_matches_frozen_output():
    for seed, expected in GOLDEN_CF_BOUND.items():
        rng = np.random.default_rng(seed)
        atoms = np.sort(rng.uniform(-3, 3, 5))
        masses = rng.random(5) + 0.05
        f = FiniteDist(atoms, masses / masses.sum())
        rep = check_cf_exponential_bound(f, rng.uniform(-40, 40, 64))
        assert dataclasses.astuple(rep) == expected
    rep = check_cf_exponential_bound(FiniteDist.bernoulli(0.3), np.linspace(-20, 20, 401))
    assert dataclasses.astuple(rep) == (True, 0.0, 0.0, 401)


def test_tau0_empirical_matches_frozen_output():
    for (alpha, scale, L), (tau0, residual) in GOLDEN_EMPIRICAL_TAU0.items():
        root = solve_tau0(AnalyticDist.stable(alpha, scale), L, n_samples=50_000, seed=7)
        assert root.to_json() == {"tau0": tau0, "residual": residual, "iterations": 0,
                                  "method": "empirical_sample", "eps0": None}


@pytest.mark.parametrize("k", [530, -530, 1000, -1000])
def test_tau0_scales_by_powers_of_two(k):
    # The draws' squares overflow (k > 0) or underflow (k < 0) unscaled; the
    # root of a law scaled by 2^k is the unit root times 2^k, bit for bit.
    c = 2.0**k
    base = solve_tau0(AnalyticDist.stable(1.0, 1.0), 2.0, n_samples=10_000, seed=1)
    finite = symmetrize(FiniteDist([0.0, 1.0, 3.0], [0.5, 0.3, 0.2]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        scaled = solve_tau0(AnalyticDist.stable(1.0, c), 2.0, n_samples=10_000, seed=1)
        assert scaled.tau0 == base.tau0 * c
        assert scaled.residual == base.residual
        if k > 0:  # atoms 2^-530 apart merge by the absolute atom tolerance
            big = symmetrize(FiniteDist([0.0, c, 3.0 * c], [0.5, 0.3, 0.2]))
            assert solve_tau0(big, 2.0).tau0 == solve_tau0(finite, 2.0).tau0 * c


def _gaussian_tau0_oracle(sigma, L):
    """brentq root of M(tau) = 1/L^2 through regularized incomplete gamma
    functions: M = P(3/2, a^2/2) / a^2 + Q(1/2, a^2/2) with a = tau/sigma."""
    def m_of(tau):
        a = tau / sigma
        x = 0.5 * a * a
        return gammainc(1.5, x) / (a * a) + gammaincc(0.5, x)

    return brentq(lambda t: m_of(t) - 1.0 / (L * L), 1e-3 * sigma, 2.0 * sigma * L,
                  xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=2000)


@pytest.mark.parametrize("sigma", [0.3, math.sqrt(2.0)])
@pytest.mark.parametrize("L", [1.01, 1.2, 2.0, 5.0, 100.0, 300.0, 1e3, 1e4, 1e6, 1e150])
def test_tau0_gaussian_matches_incomplete_gamma_root(sigma, L):
    # The bisection runs to its bracket, so the root is good to the last
    # few ulps at every L, not only to a residual of 1e-6.
    root = solve_tau0(AnalyticDist.gaussian(sigma), L)
    expected = _gaussian_tau0_oracle(sigma, L)
    assert abs(root.tau0 - expected) <= 1e-13 * expected
    assert root.method == "bisection_quadrature" and root.residual <= 1e-6


def test_tau0_nan_residual_is_numerical_error():
    # tau0 ~ sigma L overflows; M(inf) is NaN and must not pass the tolerance.
    with pytest.raises(NumericalError, match="residual nan"):
        solve_tau0(AnalyticDist.gaussian(1e300), 1e10)


@pytest.mark.parametrize("k", [-1000, -600, -100, 100, 600, 1000])
def test_tau0_gaussian_scales_by_powers_of_two(k):
    # The bisection runs in units of sigma, so a power-of-two sigma scales
    # the unit root exactly.
    c = 2.0**k
    for L in (1.01, 3.0, 1e6):
        base = solve_tau0(AnalyticDist.gaussian(1.0), L)
        scaled = solve_tau0(AnalyticDist.gaussian(c), L)
        assert scaled.tau0 == base.tau0 * c
        assert (scaled.residual, scaled.iterations) == (base.residual, base.iterations)


@pytest.mark.parametrize("sigma", [1e-300, 1e-200])
@pytest.mark.parametrize("L", [1.01, 3.0, 1e100])
def test_tau0_gaussian_tiny_sigma_matches_scaled_root(sigma, L):
    root = solve_tau0(AnalyticDist.gaussian(sigma), L)
    expected = sigma * _gaussian_tau0_oracle(1.0, L)
    assert abs(root.tau0 - expected) <= 1e-13 * expected
    assert root.iterations <= 64


def test_tau0_gaussian_steps_are_bounded():
    for sigma in (0.3, math.sqrt(2.0)):
        for L in (1.01, 1.2, 2.0, 5.0, 100.0, 300.0, 1e3, 1e4, 1e6, 1e150):
            assert solve_tau0(AnalyticDist.gaussian(sigma), L).iterations <= 64


def test_tau0_gaussian_bracket_holds_in_float(monkeypatch):
    # Dense in L - 1 from 1e-9 to 1e150, and in L where the float M(L)
    # rounds to within an ulp of 1/L^2.
    brackets = []
    bisect = lofo.distributions._bisect_tau0

    def spy(m_of, m_star, lo, hi):
        brackets.append((m_star, lo, hi))
        return bisect(m_of, m_star, lo, hi)

    monkeypatch.setattr(lofo.distributions, "_bisect_tau0", spy)
    Ls = np.concatenate((1.0 + np.geomspace(1e-9, 1e150, 2000), np.linspace(8.0, 9.0, 2000)))
    for L in Ls.tolist():
        solve_tau0(AnalyticDist.gaussian(1.0), L)
    assert len(brackets) == Ls.size
    for m_star, lo, hi in brackets:
        assert _m_gaussian(1.0, lo) >= m_star >= _m_gaussian(1.0, hi)


@pytest.mark.parametrize("L", [1.0 + 1e-9, 3.0])
def test_tau0_gaussian_subnormal_root_is_numerical_error(L):
    with pytest.raises(NumericalError, match="underflows"):
        solve_tau0(AnalyticDist.gaussian(5e-324), L)


def test_smoothing_cf_zero_dim_array_gives_the_float():
    a = WeightVector([1.0, 0.5])
    got = smoothing_cf(a, 1.0, 1.0, np.array(0.5))
    assert type(got) is float and got == smoothing_cf(a, 1.0, 1.0, 0.5)


# ---------------------------------------------------------------------------
# Argument checks on outside input
# ---------------------------------------------------------------------------


def _crossover_at(eps, dstar):
    g = symmetrize(FiniteDist.bernoulli(0.5))
    return shape_crossover(WeightVector([1.0]), g, 2.0, eps, dstar)


@pytest.mark.parametrize("call,exc,message", [
    (lambda: shape_kolmogorov_rogozin(1.0, [], []), ValueError,
     "lambda_k and Q_k must be nonempty and aligned"),
    (lambda: shape_kolmogorov_rogozin(1.0, [0.5, 1.0], [0.3]), ValueError,
     "lambda_k and Q_k must be nonempty and aligned"),
    (lambda: shape_kolmogorov_rogozin(1.0, [0.0], [0.3]), ValueError,
     "each lambda_k must lie in (0, lambda]"),
    (lambda: shape_kolmogorov_rogozin(1.0, [0.5], [1.0]), PreconditionError,
     "all component concentrations equal 1: the shape diverges"),
    (lambda: shape_esseen(1.0, [0.5], [0.3, 0.4]), ValueError,
     "lambda_k and M_k must be nonempty and aligned"),
    (lambda: shape_esseen(1.0, [2.0], [0.3]), ValueError,
     "each lambda_k must lie in (0, lambda]"),
    (lambda: shape_esseen(1.0, [0.5], [0.0]), PreconditionError,
     "all spread functionals vanish: the shape diverges"),
    (lambda: shape_kolmogorov_rogozin(1.0, [1.0, 1.0], [1.5, 0.2]), ValueError,
     "each Q_k must lie in [0, 1]"),
    (lambda: shape_kolmogorov_rogozin(1.0, [1.0], [1.5]), ValueError,
     "each Q_k must lie in [0, 1]"),
    (lambda: shape_kolmogorov_rogozin(1.0, [1.0], [math.nan]), ValueError,
     "each Q_k must lie in [0, 1]"),
    (lambda: shape_esseen(1.0, [1.0], [2.0]), ValueError, "each M_k must lie in [0, 1]"),
    (lambda: shape_esseen(1.0, [1.0], [-1e-300]), ValueError, "each M_k must lie in [0, 1]"),
    (lambda: shape_esseen(1.0, [1.0], [1.0 + 2e-12]), ValueError, "each M_k must lie in [0, 1]"),
    (lambda: shape_kolmogorov_rogozin(math.nan, [1.0], [0.5]), ValueError,
     "lambda must be positive and finite"),
    (lambda: shape_esseen(math.inf, [1.0], [0.5]), ValueError,
     "lambda must be positive and finite"),
    (lambda: shape_esseen(0.0, [1.0], [0.5]), ValueError, "lambda must be positive and finite"),
    (lambda: shape_esseen(1.0, [math.nan], [0.5]), ValueError,
     "each lambda_k must lie in (0, lambda]"),
    (lambda: shape_esseen(1.0, [[1.0]], [0.5]), ValueError,
     "lambda_k and M_k must be nonempty and aligned"),
    (lambda: shape_esseen([1.0, 2.0], [[1.0]] * 3, [[0.5]] * 3), ValueError,
     "lambda_k and M_k must be nonempty and aligned"),
    (lambda: shape_esseen([1.0, 2.0], [[1.0], [1.0]], [0.5]), ValueError,
     "lambda_k and M_k must be nonempty and aligned"),
    (lambda: shape_kolmogorov_rogozin([1.0, 2.0], [[1.0], [1.0]], [[0.5], [1.0]]),
     PreconditionError, "all component concentrations equal 1: the shape diverges"),
    (lambda: shape_vershynin(0.0, 2.0), ValueError, "L and D must be positive"),
    (lambda: shape_vershynin(2.0, math.nan), ValueError, "L and D must be positive"),
    (lambda: shape_lcd(2.0, -1.0, 0.5), ValueError, "D and ||a|| must be positive"),
    (lambda: shape_lcd(2.0, 1.0, 0.0), PreconditionError, "spread functional must lie in (0, 1]"),
    (lambda: shape_lcd_unit(0.0, 0.5), ValueError, "D and ||a|| must be positive"),
    (lambda: shape_no_arithmetic(0.0, 1.0, 0.5), ValueError, "norms must be positive"),
    (lambda: shape_no_arithmetic(0.5, 1.0, 1.5), PreconditionError,
     "spread functional must lie in (0, 1]"),
    (lambda: shape_bernoulli_min(-0.1, 2.0, 0.5), ValueError,
     "need eps >= 0, dstar > 0, p in (0, 1)"),
    (lambda: shape_bernoulli_min(0.1, 2.0, 1.0), ValueError,
     "need eps >= 0, dstar > 0, p in (0, 1)"),
    (lambda: _crossover_at(-0.1, 2.0), ValueError, "eps must be nonnegative"),
    (lambda: _crossover_at(0.1, 0.0), ValueError, "dstar must be positive"),
    (lambda: _crossover_at(math.nan, 2.0), ValueError, "eps must be nonnegative"),
    (lambda: _crossover_at([0.1, -0.1], 2.0), ValueError, "eps must be nonnegative"),
    (lambda: _crossover_at([[0.1]], 2.0), ValueError, "eps must be a scalar or a 1-D grid"),
    # Non-finite inputs are named; a value that overflows, or a denominator
    # that underflows to 0, names the shape.  The lcd and no_arithmetic rows
    # once raised ZeroDivisionError, the others returned inf or 0.
    (lambda: shape_vershynin(math.inf, 1.0), ValueError, "L and D must be positive and finite"),
    (lambda: shape_lcd(math.inf, 1.0, 0.5), ValueError, "D and ||a|| must be positive and finite"),
    (lambda: shape_lcd_unit(math.inf, 0.5), ValueError, "D and ||a|| must be positive and finite"),
    (lambda: shape_no_arithmetic(1.0, math.inf, 0.5), ValueError,
     "norms must be positive and finite"),
    (lambda: shape_bernoulli_min(math.nan, 2.0, 0.5), ValueError,
     "need eps >= 0, dstar > 0, p in (0, 1), all finite"),
    (lambda: shape_bernoulli_min(0.1, math.inf, 0.5), ValueError,
     "need eps >= 0, dstar > 0, p in (0, 1), all finite"),
    (lambda: _crossover_at(math.inf, 2.0), ValueError, "eps must be nonnegative and finite"),
    (lambda: _crossover_at(0.1, math.inf), ValueError, "dstar must be positive and finite"),
    (lambda: shape_crossover(WeightVector([1.0]), symmetrize(FiniteDist.bernoulli(0.5)),
                             math.inf, 0.1, 2.0,
                             root=solve_tau0(symmetrize(FiniteDist.bernoulli(0.5)), 2.0)),
     ValueError, "L must be positive and finite"),
    (lambda: shape_lcd(1e-320, 1e-10, 0.5), NumericalError,
     "lcd shape: its denominator underflows to 0"),
    (lambda: shape_no_arithmetic(1.0, 1e-320, 1e-10), NumericalError,
     "no_arithmetic shape: its denominator underflows to 0"),
    (lambda: shape_vershynin(1.0, 1e-320), NumericalError, "vershynin shape: its value"),
    (lambda: shape_lcd_unit(1e-320, 0.5), NumericalError, "lcd_unit shape: its value"),
    (lambda: _crossover_at(0.1, 1e-320), NumericalError, "crossover shape: eps0"),
    (lambda: shape_crossover(WeightVector([1e-300]), symmetrize(FiniteDist.bernoulli(0.5)),
                             2.0, 0.1, 1e-30), NumericalError,
     "crossover shape: its denominator underflows to 0"),
    # The classical shapes: a window ratio whose value overflows once warned
    # and returned inf (the fourth once blamed its underflowed sum on the
    # components), and an infinite lambda_k passed where lambda (1 + 1e-12)
    # rounds to inf.
    (lambda: shape_esseen(1e300, [1e-157], [0.5]), NumericalError,
     "esseen shape: its value overflows"),
    (lambda: shape_kolmogorov_rogozin(1e300, [1e-157], [0.5]), NumericalError,
     "kolmogorov_rogozin shape: its value overflows"),
    (lambda: shape_esseen([1.0, 1e300], [[1.0], [1e-157]], [[0.5], [0.5]]), NumericalError,
     "esseen shape: its value overflows"),
    (lambda: shape_esseen(1.0, [1.0, 1e-300], [0.0, 5e-300]), NumericalError,
     "esseen shape: its value overflows"),
    (lambda: shape_esseen(1.7976931348623157e308, [math.inf], [0.5]), ValueError,
     "each lambda_k must lie in (0, lambda]"),
    (lambda: solve_tau0(symmetrize(FiniteDist([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])), 3.0, -1.0),
     ValueError, "tol must be positive"),
    (lambda: solve_tau0(symmetrize(FiniteDist([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])), 3.0, math.nan),
     ValueError, "tol must be positive"),
    (lambda: solve_tau0(AnalyticDist.gaussian(1.0), 3.0, 0.0), ValueError, "tol must be positive"),
    (lambda: smoothing_cf(WeightVector([1.0]), 1.0, 0.0, 0.5), ValueError,
     "gamma must be positive"),
    (lambda: solve_tau0(AnalyticDist.stable(1.0), 3.0, n_samples=0), ValueError,
     "n_samples must be at least 1"),
    (lambda: solve_tau0(AnalyticDist.stable(1.0), 3.0, n_samples=-3), ValueError,
     "n_samples must be at least 1"),
    (lambda: shape_crossover(WeightVector([1.0]), AnalyticDist.stable(1.0), 3.0, 0.5, 2.0,
                             n_samples=-3), ValueError, "n_samples must be at least 1"),
])
def test_bounds_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value).startswith(message)
