"""Exact, closed-form, and Monte Carlo concentration computation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from lofo import concentration
from lofo.concentration import (
    DEFAULT_BUDGET,
    QEstimate,
    WeightVector,
    esseen_integral,
    q_closed_form_gaussian,
    q_exact,
    q_monte_carlo,
    weighted_sum_dist,
)
from lofo.distributions import (
    ATOM_ABS_TOL,
    ATOM_REL_TOL,
    AnalyticDist,
    FiniteDist,
    cf_eval,
    symmetrize,
    weighted_cf,
)
from lofo.exceptions import CapacityError
from lofo.harness import gen_sparse_family


def random_finite(rng, n_atoms=20, span=1.0):
    atoms = np.sort(rng.uniform(0.0, span, n_atoms))
    masses = rng.random(n_atoms) + 0.05
    return FiniteDist(atoms, masses / masses.sum())


def grid_scan_oracle(f, lam, pitch):
    """Dense left-edge grid scan: a lower estimate of Q that matches the
    two-pointer answer when no atom pair aligns with the window edge."""
    lo = f.atoms[0] - 2 * pitch
    hi = f.atoms[-1] + 2 * pitch
    edges = np.arange(lo, hi, pitch)
    cum = np.concatenate(([0.0], np.cumsum(f.masses)))
    left = np.searchsorted(f.atoms, edges, side="left")
    right = np.searchsorted(f.atoms, edges + lam, side="right")
    return float(np.max(cum[right] - cum[left]))


# ---------------------------------------------------------------------------
# WeightVector
# ---------------------------------------------------------------------------


def test_weight_vector_norms_and_validation():
    a = WeightVector([3.0, 4.0])
    assert a.norm2 == pytest.approx(5.0)
    assert a.norm_inf == 4.0
    assert a.n == 2
    with pytest.raises(ValueError):
        WeightVector([0.0, 0.0])
    with pytest.raises(ValueError):
        WeightVector([])


def test_weight_vector_cached_norms_consistent():
    rng = np.random.default_rng(2)
    for _ in range(30):
        c = rng.normal(size=rng.integers(1, 40))
        if not np.any(c):
            continue
        a = WeightVector(c)
        assert a.norm2 == pytest.approx(np.linalg.norm(c), rel=1e-12)
        assert a.norm_inf == pytest.approx(np.max(np.abs(c)), rel=1e-12)


# ---------------------------------------------------------------------------
# q_exact
# ---------------------------------------------------------------------------


def test_q_exact_point_mass_and_bernoulli():
    assert q_exact(FiniteDist.point_mass(2.0), 0.0).value == 1.0
    assert q_exact(FiniteDist.point_mass(2.0), 5.0).value == 1.0
    f = FiniteDist.bernoulli(0.3)
    assert q_exact(f, 0.5).value == pytest.approx(0.7)
    assert q_exact(f, 1.0).value == pytest.approx(1.0)


def test_q_exact_binomial_half_weights():
    a = WeightVector([0.5, 0.5, 0.5, 0.5])
    fa = weighted_sum_dist(FiniteDist.bernoulli(0.5), a)
    # C(4,2)/16 from the exact DP convolution.
    assert q_exact(fa, 0.0).value == pytest.approx(0.375, abs=1e-15)


def test_q_exact_rejects_negative_lambda():
    with pytest.raises(ValueError):
        q_exact(FiniteDist.bernoulli(0.5), -0.1)


def test_q_exact_monotone_in_lambda():
    rng = np.random.default_rng(5)
    f = random_finite(rng)
    lams = np.linspace(0.0, 1.2, 25)
    vals = [q_exact(f, l).value for l in lams]
    assert all(v1 <= v2 + 1e-15 for v1, v2 in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(np.max(f.masses))


def test_q_exact_equals_grid_oracle():
    # Instances rejection-sampled so no atom pair aligns with a window edge
    # within two grid pitches; the dense scan is then exact.
    rng = np.random.default_rng(9)
    done = 0
    while done < 30:
        f = random_finite(rng)
        lam = float(rng.uniform(0.01, 0.6))
        pitch = 1e-4 * (f.atoms[-1] - f.atoms[0])
        gaps = np.abs(np.subtract.outer(f.atoms, f.atoms + lam))
        if np.min(gaps) < 2 * pitch:
            continue
        assert q_exact(f, lam).value == pytest.approx(
            grid_scan_oracle(f, lam, pitch), abs=1e-12
        )
        done += 1


# ---------------------------------------------------------------------------
# Gaussian closed form
# ---------------------------------------------------------------------------


def test_gaussian_q_examples():
    assert q_closed_form_gaussian(1.0, 0.0).value == 0.0
    assert q_closed_form_gaussian(1.0, 1e9).value == pytest.approx(1.0)
    # Oracle: standard normal CDF.
    assert q_closed_form_gaussian(1.0, 2.0).value == pytest.approx(
        2 * stats.norm.cdf(1.0) - 1, abs=1e-12
    )
    with pytest.raises(ValueError):
        q_closed_form_gaussian(0.0, 1.0)


# ---------------------------------------------------------------------------
# weighted_sum_dist
# ---------------------------------------------------------------------------


def test_weighted_sum_single_weight_is_f():
    f = FiniteDist.uniform_on([0.0, 0.25, 1.0])
    fa = weighted_sum_dist(f, WeightVector([1.0]))
    assert np.all(fa.atoms == f.atoms)
    assert np.all(fa.masses == f.masses)
    two = FiniteDist.bernoulli(0.5)
    fa2 = weighted_sum_dist(two, WeightVector([1.0]))
    assert np.all(fa2.masses == two.masses)


@pytest.mark.parametrize("s,p", [(4, 0.5), (16, 0.3), (64, 0.05)])
def test_weighted_sum_binomial_shortcut_matches_pmf(s, p):
    a = WeightVector(np.full(s, s**-0.5))
    fa = weighted_sum_dist(FiniteDist.bernoulli(p), a)
    k = np.arange(s + 1)
    assert fa.n_atoms == s + 1
    assert np.allclose(fa.atoms, k / math.sqrt(s), atol=1e-12)
    assert np.allclose(fa.masses, stats.binom.pmf(k, s, p), atol=1e-14)


def test_weighted_sum_shortcut_consistent_with_convolution():
    # The binomial shortcut must agree with a hand-rolled outer-sum fold.
    f = FiniteDist.bernoulli(0.4)
    s = 6
    a = WeightVector(np.full(s, 1.0 / s))
    shortcut = weighted_sum_dist(f, a)
    coords = np.full(s, 1.0 / s)
    generic_atoms = np.array([0.0])
    generic_masses = np.array([1.0])
    for w in coords:
        generic_atoms = np.add.outer(generic_atoms, w * f.atoms).ravel()
        generic_masses = np.outer(generic_masses, f.masses).ravel()
    oracle = FiniteDist(generic_atoms, generic_masses)
    assert shortcut.n_atoms == oracle.n_atoms
    assert np.allclose(shortcut.atoms, oracle.atoms, atol=1e-12)
    assert np.allclose(shortcut.masses, oracle.masses, atol=1e-12)


def test_weighted_sum_two_by_two_enumeration():
    fa = weighted_sum_dist(FiniteDist.bernoulli(0.5), WeightVector([1.0, 0.5]))
    assert np.allclose(fa.atoms, [0.0, 0.5, 1.0, 1.5])
    assert np.allclose(fa.masses, [0.25, 0.25, 0.25, 0.25])


def test_weighted_sum_budget_error_names_size():
    f = FiniteDist.uniform_on(np.sqrt(np.array([2.0, 3.0, 5.0, 7.0, 11.0])))
    a = WeightVector(np.geomspace(1.0, 2.0, 8))
    with pytest.raises(CapacityError) as exc:
        weighted_sum_dist(f, a, budget=1000)
    assert exc.value.attained > 1000


def test_weighted_sum_total_mass_and_cf_consistency():
    rng = np.random.default_rng(13)
    f = random_finite(rng, n_atoms=4)
    a = WeightVector(rng.uniform(0.2, 1.0, 5))
    fa = weighted_sum_dist(f, a)
    assert abs(fa.masses.sum() - 1.0) <= 1e-12
    for t in [0.3, 1.7, 6.1]:
        assert cf_eval(fa, t) == pytest.approx(weighted_cf(f, a, t), abs=1e-10)


def test_weighted_sum_zero_weights_dropped():
    f = FiniteDist.bernoulli(0.5)
    a = WeightVector([0.5, 0.0, 0.5, 0.0])
    fa = weighted_sum_dist(f, a)
    assert np.allclose(fa.atoms, [0.0, 0.5, 1.0])
    assert np.allclose(fa.masses, [0.25, 0.5, 0.25])


@pytest.mark.parametrize("s", [4, 16, 64])
def test_weighted_sum_perturbed_sparse_is_integer_exact(s):
    # Weights s^(-1/2) = c/s^3 (c = s^(5/2)) on s coordinates and s^(-3) on
    # the other 256 - s: the sum is J/s^3 with J = c B1 + B2, and a closed
    # window of length 2 covers 2 s^3 + 1 consecutive values of J.
    inst = gen_sparse_family([s], n=256, p_list=[0.5], perturbed=True).instances[0]
    q = q_exact(weighted_sum_dist(inst.law, inst.weights), 2.0).value
    c, tail = round(s**2.5), 256 - s
    pmf = np.zeros(c * s + tail + 1)
    tail_pmf = stats.binom.pmf(np.arange(tail + 1), tail, 0.5)
    for k, mass in enumerate(stats.binom.pmf(np.arange(s + 1), s, 0.5)):
        pmf[c * k : c * k + tail + 1] += mass * tail_pmf
    cum = np.concatenate(([0.0], np.cumsum(pmf)))
    sites = 2 * s**3 + 1
    assert q == pytest.approx(float(np.max(cum[sites:] - cum[:-sites])), abs=1e-12)
    if s == 4:
        assert q == pytest.approx(0.9406286432808548, abs=1e-12)


pmf_entries = st.one_of(st.just(0.0), st.just(1e-200), st.floats(1e-300, 1.0))


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(pmf_entries, min_size=1, max_size=30),
    y=st.lists(pmf_entries, min_size=1, max_size=30),
    extra=st.integers(0, 40),
)
def test_shift_add_support_matches_dense(x, y, extra):
    # At strides >= x.size the shifted copies do not overlap and the support
    # is an outer product; 1e-200 squared underflows to 0 and is dropped.
    x, y = np.array(x), np.array(y)
    stride = x.size + extra
    j, mass = _frozen_dense_support(x, y, stride)
    got_j, got_mass = concentration._shift_add_support(x, y, stride)
    assert np.array_equal(got_j, j) and got_mass.tobytes() == mass.tobytes()


@pytest.mark.parametrize("s", [16, 64])
@pytest.mark.parametrize("p", [0.15, 0.5])
def test_weighted_sum_perturbed_sparse_matches_dense_last_step(s, p):
    # At s = 16 and 64 the last group does not overlap the tail's span and
    # is placed as an outer product; the oracle builds the dense span.
    inst = gen_sparse_family([s], n=256, p_list=[p], perturbed=True).instances[0]
    fa = weighted_sum_dist(inst.law, inst.weights)
    oracle = _frozen_lattice_law(inst.law, inst.weights, _frozen_dense_support)
    assert fa.atoms.tobytes() == oracle.atoms.tobytes()
    assert fa.masses.tobytes() == oracle.masses.tobytes()


def test_weighted_sum_perturbed_s64_builds_no_dense_span():
    # The 64-weight group sits at stride 32,768 over the 193-entry pmf of the
    # tail: a dense span would hold 2,097,345 float64 entries (16.8 MB) for
    # 12,545 atoms.
    inst = gen_sparse_family([64], n=256, p_list=[0.5], perturbed=True).instances[0]
    weighted_sum_dist(inst.law, inst.weights)  # warm up outside the measurement
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fa = weighted_sum_dist(inst.law, inst.weights)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert fa.n_atoms == 12_545
    assert peak < 4_000_000


def _frozen_shift_add(x: np.ndarray, y: np.ndarray, stride: int) -> np.ndarray:
    """_shift_add as it was before _shift_add_into took every step, verbatim."""
    if stride == 1:
        return np.convolve(x, y)
    nx, ny = np.flatnonzero(x), np.flatnonzero(y)
    z = np.zeros(x.size + stride * (y.size - 1))
    if nx.size <= ny.size:
        for i in nx:
            z[i : i + stride * y.size : stride] += x[i] * y
    else:
        for j in ny:
            z[stride * j : stride * j + x.size] += y[j] * x
    return z


def _frozen_shift_add_support(x: np.ndarray, y: np.ndarray, stride: int):
    """_shift_add_support as it was before one buffer took every overlapping
    step, verbatim but for the name of the dense step."""
    if stride < x.size:
        z = _frozen_shift_add(x, y, stride)
        j = np.flatnonzero(z)
        return j, z[j]
    nx, ny = np.flatnonzero(x), np.flatnonzero(y)
    j = np.add.outer(stride * ny, nx).ravel()
    mass = np.outer(y[ny], x[nx]).ravel()
    nonzero = mass != 0.0
    return j[nonzero], mass[nonzero]


def _frozen_dense_support(x: np.ndarray, y: np.ndarray, stride: int):
    """The last step through the dense span, whatever the stride."""
    z = _frozen_shift_add(x, y, stride)
    j = np.flatnonzero(z)
    return j, z[j]


def _frozen_lattice_law(f, a, last_step=_frozen_shift_add_support):
    """The lattice path's chain with a fresh array per step, verbatim."""
    weights = a.coords[a.coords != 0.0]
    x0 = float(f.atoms[0])
    h, idx = concentration._lattice(f.atoms, x0, (DEFAULT_BUDGET - 1) // weights.size)
    span_f = int(idx[-1])
    pmf = np.zeros(span_f + 1)
    pmf[idx] = f.masses
    values, counts = np.unique(weights, return_counts=True)
    g, c = concentration._lattice(values, 0.0, DEFAULT_BUDGET)
    acc = np.ones(1)
    shift = 0
    order = np.argsort(np.abs(c), kind="stable")
    for i in order:
        p = concentration._power(pmf, int(counts[i]))
        if c[i] < 0:
            p = p[::-1]
            shift += int(c[i] * counts[i]) * span_f
        stride = abs(int(c[i]))
        if i != order[-1]:
            acc = _frozen_shift_add(acc, p, stride)
    j, mass = last_step(acc, p, stride)
    base = math.fsum((values * counts * x0).tolist())
    return FiniteDist(base + (g * h) * (j + shift), mass)


integer_weights = st.lists(st.integers(-12, 12), min_size=2, max_size=39).filter(
    lambda w: np.count_nonzero(w) >= 2
).map(lambda w: np.array(w, dtype=float))


@pytest.mark.parametrize("law", [
    FiniteDist([-1.0, 1.0], [0.5, 0.5]),
    FiniteDist([0.0, 1.0], [0.5, 0.5]),
    FiniteDist([0.0, 1.0], [0.85, 0.15]),
    FiniteDist([0.0, 1.0, 3.0], [0.2, 0.5, 0.3]),
    FiniteDist([0.0, 2.0, 3.0, 7.0], [0.1, 0.4, 0.3, 0.2]),
])
@settings(max_examples=25, deadline=None)
@given(weights=integer_weights)
@example(weights=np.arange(1.0, 301.0))
@example(weights=-np.arange(1.0, 41.0))
@example(weights=np.array([3.0, -5.0, 7.0, 2.0, 2.0, -9.0, 11.0, 13.0, 1.0, -4.0, 0.0]))
@example(weights=np.array([1.0, 1.0, 2.0, -2.0, 6.0, 6.0, 6.0, 24.0]))
def test_weighted_sum_lattice_steps_match_fresh_arrays(law, weights):
    # Every step but a non-overlapping last one runs in one buffer; the
    # oracle takes a fresh array per step.
    a = WeightVector(weights)
    fa = weighted_sum_dist(law, a)
    oracle = _frozen_lattice_law(law, a)
    assert fa.atoms.tobytes() == oracle.atoms.tobytes()
    assert fa.masses.tobytes() == oracle.masses.tobytes()


@settings(max_examples=200, deadline=None)
@given(
    x=st.lists(pmf_entries, min_size=1, max_size=30),
    y=st.lists(pmf_entries, min_size=1, max_size=30),
    stride=st.integers(1, 40),
    slack=st.integers(0, 5),
)
def test_shift_add_into_matches_fresh_array(x, y, stride, slack):
    x, y = np.array(x), np.array(y)
    z = _frozen_shift_add(x, y, stride)
    buf = np.zeros(z.size + slack)
    buf[: x.size] = x
    assert concentration._shift_add_into(buf, x.size, y, stride) == z.size
    assert buf[: z.size].tobytes() == z.tobytes()
    assert not buf[z.size :].any()


def test_weighted_sum_equal_weights_stay_on_lattice():
    # Coalescing drift once split these atoms until the support passed 4M.
    f = FiniteDist([0.0, 1.0, 3.0], [0.2, 0.5, 0.3])
    fa = weighted_sum_dist(f, WeightVector(np.full(2000, 0.1)))
    assert fa.n_atoms <= 6001
    sites = fa.atoms / 0.1
    assert np.all(np.abs(sites - np.rint(sites)) <= 1e-9 * sites[-1])


def test_weighted_sum_rademacher_littlewood_offord_extremal():
    # a = (1..n): n^(3/2) Q(F_a, 0) increases to sqrt(6/pi) (Erdos;
    # Sarkozy-Szemeredi).
    f = FiniteDist([-1.0, 1.0], [0.5, 0.5])
    scaled = {}
    for n in (300, 400):
        fa = weighted_sum_dist(f, WeightVector(np.arange(1.0, n + 1.0)))
        assert fa.n_atoms == n * (n + 1) // 2 + 1
        scaled[n] = n**1.5 * q_exact(fa, 0.0).value
    assert scaled[400] == pytest.approx(1.3778, abs=1e-4)
    assert scaled[300] < scaled[400] < math.sqrt(6.0 / math.pi)


def test_weighted_sum_span_over_budget_falls_back():
    # Index span 1001 exceeds the budget; the true support has 4 atoms.
    fa = weighted_sum_dist(FiniteDist.bernoulli(0.5), WeightVector([1.0, 1000.0]), budget=10)
    assert np.array_equal(fa.atoms, [0.0, 1.0, 1000.0, 1001.0])
    assert np.allclose(fa.masses, 0.25)


def test_weighted_sum_many_equal_bernoulli_weights():
    # The m-fold power of a two-point pmf is built in O(m), not by squaring.
    s = 100_000
    fa = weighted_sum_dist(FiniteDist.bernoulli(0.3), WeightVector(np.full(s, 0.5)))
    k = np.rint(fa.atoms / 0.5).astype(int)
    assert np.array_equal(fa.atoms, 0.5 * k)
    assert np.allclose(fa.masses, stats.binom.pmf(k, s, 0.3), rtol=1e-10, atol=1e-300)
    assert abs(fa.masses.sum() - 1.0) <= 1e-12


def test_weighted_sum_near_equal_groups_fold_per_weight(monkeypatch):
    # 1 and 1 + 1e-10 are incommensurate but their sums coalesce.  With the
    # raw outer-sum cap shrunk below 201 x 201, the second group law must
    # fold one weight at a time instead of raising CapacityError.
    monkeypatch.setattr(concentration, "_RAW_PRODUCT_CAP", 10_000)
    f = FiniteDist.bernoulli(0.5)
    a = WeightVector(np.concatenate([np.full(200, 1.0), np.full(200, 1.0 + 1e-10)]))
    fa = weighted_sum_dist(f, a)
    assert fa.n_atoms <= 401
    oracle = weighted_sum_dist(f, WeightVector(np.full(400, 1.0)))
    assert q_exact(fa, 0.5).value == pytest.approx(q_exact(oracle, 0.5).value, abs=1e-12)


@st.composite
def _engine_inputs(draw):
    ks = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=4, unique=True))
    if draw(st.booleans()):
        x0 = draw(st.sampled_from([0.0, -1.0, 0.5, 2.0]))
        h = draw(st.sampled_from([1.0, 0.5, 0.1, 1.0 / 3.0]))
        atoms = [x0 + h * k for k in ks]
    else:
        atoms = [k + math.sqrt(2.0) * draw(st.integers(0, 1)) for k in ks]
    masses = draw(st.lists(st.integers(1, 9), min_size=len(ks), max_size=len(ks)))
    g = draw(st.sampled_from([1.0, 0.25, 0.1]))
    cs = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=6).filter(any))
    irrational = [False] * len(cs)
    if draw(st.booleans()):
        irrational = draw(st.lists(st.booleans(), min_size=len(cs), max_size=len(cs)))
    weights = [c * g * (math.sqrt(3.0) if r else 1.0) for c, r in zip(cs, irrational)]
    budget = draw(st.one_of(st.just(DEFAULT_BUDGET), st.integers(1, 60)))
    return np.array(atoms), np.array(masses) / sum(masses), np.array(weights), budget


@settings(max_examples=200, deadline=None)
@given(_engine_inputs())
def test_weighted_sum_matches_enumeration(inputs):
    # Lattice and non-lattice laws, repeated, mixed-sign and incommensurate
    # weights, and budgets below the index span.  Oracle: all len(atoms)**n
    # outcomes, compared in CDF between distinct sums.
    atoms, masses, weights, budget = inputs
    f = FiniteDist(atoms, masses)
    sums, probs = np.zeros(1), np.ones(1)
    for w in weights:
        sums = np.add.outer(sums, w * f.atoms).ravel()
        probs = np.outer(probs, f.masses).ravel()
    order = np.argsort(sums, kind="stable")
    sums, probs = sums[order], probs[order]
    scale = np.maximum(np.abs(sums[1:]), np.abs(sums[:-1]))
    breaks = np.flatnonzero(np.diff(sums) > np.maximum(ATOM_ABS_TOL, ATOM_REL_TOL * scale))
    true_support = breaks.size + 1
    try:
        fa = weighted_sum_dist(f, WeightVector(weights), budget=budget)
    except CapacityError:
        assert true_support > budget
        return
    probes = np.concatenate(
        ([sums[0] - 1.0], 0.5 * (sums[breaks] + sums[breaks + 1]), [sums[-1] + 1.0])
    )
    cdf = lambda x, p: np.concatenate(([0.0], np.cumsum(p)))[
        np.searchsorted(x, probes, side="right")]
    assert np.max(np.abs(cdf(fa.atoms, fa.masses) - cdf(sums, probs))) <= 1e-12


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_point_mass():
    est = q_monte_carlo(FiniteDist.point_mass(1.0), WeightVector([1.0]), 0.0, 10_000, seed=3)
    assert est.value == 1.0
    assert est.error_radius > 0
    assert est.method == "monte_carlo"


def test_mc_covers_exact_and_closed_form():
    f = FiniteDist.bernoulli(0.5)
    a = WeightVector([2**-0.5, 2**-0.5])
    exact = q_exact(weighted_sum_dist(f, a), 0.1).value
    est = q_monte_carlo(f, a, 0.1, 50_000, seed=11)
    assert abs(est.value - exact) <= est.error_radius

    g = AnalyticDist.gaussian(1.0)
    unit = WeightVector([1.0])
    est2 = q_monte_carlo(g, unit, 2.0, 50_000, seed=12)
    assert abs(est2.value - q_closed_form_gaussian(1.0, 2.0).value) <= est2.error_radius


def test_mc_seeded_deterministic_and_min_samples():
    f = FiniteDist.bernoulli(0.3)
    a = WeightVector([1.0, 0.5])
    e1 = q_monte_carlo(f, a, 0.2, 10_000, seed=7)
    e2 = q_monte_carlo(f, a, 0.2, 10_000, seed=7)
    assert e1 == e2
    with pytest.raises(ValueError):
        q_monte_carlo(f, a, 0.2, 5_000, seed=7)


# ---------------------------------------------------------------------------
# Esseen integral
# ---------------------------------------------------------------------------


def test_esseen_constant_cf_is_one():
    f = FiniteDist.point_mass(0.0)
    assert esseen_integral(f, WeightVector([1.0]), 0.37) == pytest.approx(1.0, abs=1e-8)


def test_esseen_gaussian_matches_scipy_quad():
    g = AnalyticDist.gaussian(1.0)
    a = WeightVector([1.0])
    val = esseen_integral(g, a, 1.0)
    oracle, _ = integrate.quad(lambda t: math.exp(-0.5 * t * t), 0.0, 1.0)
    assert val == pytest.approx(oracle, abs=1e-8)
    assert val == pytest.approx(0.8556243918921488, abs=1e-8)


def test_esseen_upper_constant_over_mixed_corpus():
    # Q <= C_up * integral for arbitrary laws and weights; C_up is a frozen
    # calibration fixture.
    from lofo import fixtures

    rng = np.random.default_rng(7)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        atoms = np.sort(rng.uniform(-2.0, 2.0, k))
        masses = rng.random(k) + 0.05
        f = FiniteDist(atoms, masses / masses.sum())
        a = WeightVector(rng.uniform(0.2, 1.0, rng.integers(1, 5)))
        fa = weighted_sum_dist(f, a)
        for lam in (0.1, 0.5, 2.0):
            q = q_exact(fa, lam).value
            assert q <= fixtures.ESSEEN_UPPER_C * esseen_integral(f, a, lam)


def test_esseen_two_sided_for_nonnegative_cf():
    # For symmetrized laws (nonnegative CF) the integral is within absolute
    # constants of Q; check the ratio stays in a generous window, and that
    # the integral itself lands in (0, 1 + tol].
    rng = np.random.default_rng(21)
    for _ in range(10):
        atoms = np.sort(rng.uniform(-1.5, 1.5, 4))
        masses = rng.random(4) + 0.1
        g = symmetrize(FiniteDist(atoms, masses / masses.sum()))
        a = WeightVector([1.0])
        for lam in (0.3, 1.0):
            q = q_exact(g, lam).value
            integral = esseen_integral(g, a, lam)
            assert 0.0 < integral <= 1.0 + 1e-8
            assert 0.1 <= q / integral <= 10.0


# Frozen Esseen integrals lambda * int_0^{1/lambda} |CF_{S_a}| (repr floats)
# for seeded symmetrized 5-atom laws and 4 weights.  The finite-law CF kernel
# must reproduce every bit of each quadrature.
GOLDEN_ESSEEN = {
    (0, 0.1): 0.05989504673569741,
    (0, 1.0): 0.5028423894617633,
    (0, 10.0): 0.9907185163943937,
    (1, 0.1): 0.05208731223181001,
    (1, 1.0): 0.508972793861575,
    (1, 10.0): 0.9905868876667651,
    (2, 0.1): 0.05904180125589319,
    (2, 1.0): 0.5716916875942035,
    (2, 10.0): 0.9929048762548491,
}


def test_esseen_batches_cf_calls_by_level(monkeypatch):
    # One CF call for the ends and midpoint, then one per bisection level; a
    # fallback to one call per node would make hundreds here.
    calls = []

    def counted(dist, coords, t):
        calls.append(np.size(t))
        return weighted_cf(dist, coords, t)

    monkeypatch.setattr(concentration, "weighted_cf", counted)
    rng = np.random.default_rng(0)
    g = symmetrize(FiniteDist(np.sort(rng.uniform(-2.0, 2.0, 5)), np.full(5, 0.2)))
    value = esseen_integral(g, WeightVector([1.0]), 0.1)
    assert 0.0 < value <= 1.0
    assert len(calls) <= 40 + 2 and sum(calls) > 4 * len(calls)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_esseen_matches_frozen_output(seed):
    rng = np.random.default_rng(seed)
    atoms = np.sort(rng.uniform(-2.0, 2.0, 5))
    masses = rng.random(5) + 0.05
    g = symmetrize(FiniteDist(atoms, masses / masses.sum()))
    a = WeightVector(rng.uniform(0.2, 1.0, 4))
    for lam in (0.1, 1.0, 10.0):
        assert esseen_integral(g, a, lam) == GOLDEN_ESSEEN[(seed, lam)]


# ---------------------------------------------------------------------------
# Argument checks on outside input
# ---------------------------------------------------------------------------


def _raw_cap_convolve():
    # 5,000 x 4,000 outer-sum entries pass the 2^24 raw cap before any allocation.
    current = FiniteDist.uniform_on(np.arange(5000.0))
    return concentration._convolve(current, np.arange(4000.0) * 1e-4, np.full(4000, 1 / 4000),
                                   DEFAULT_BUDGET)


@pytest.mark.parametrize("call,exc,message", [
    (lambda: esseen_integral(FiniteDist.bernoulli(0.5), WeightVector([1.0]), 0.0), ValueError,
     "lambda must be positive"),
    (lambda: esseen_integral(FiniteDist.bernoulli(0.5), WeightVector([1.0]), math.nan),
     ValueError, "lambda must be positive"),
    (lambda: esseen_integral(FiniteDist.bernoulli(0.5), WeightVector([1.0]), 1.0, tol=0.0),
     ValueError, "tol must be positive"),
    (lambda: weighted_sum_dist(FiniteDist.bernoulli(0.5), WeightVector([1.0]), budget=0),
     ValueError, "budget must be positive"),
    (_raw_cap_convolve, CapacityError, "support size 20000000 exceeds budget"),
])
def test_concentration_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value).startswith(message)
