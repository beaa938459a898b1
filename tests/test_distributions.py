"""Distribution carriers, symmetrization, M(tau), CFs, mixture decomposition."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import gammainc, gammaincc

from lofo import distributions
from lofo.concentration import WeightVector, esseen_integral
from lofo.distributions import (
    AnalyticDist,
    FiniteDist,
    atom_survival,
    cf_eval,
    m_functional,
    mixture_decompose,
    symmetrize,
    weighted_cf,
)


def random_finite(rng, n_atoms=5, span=4.0):
    atoms = np.sort(rng.uniform(-span, span, n_atoms))
    masses = rng.random(n_atoms) + 0.05
    return FiniteDist(atoms, masses / masses.sum())


# ---------------------------------------------------------------------------
# FiniteDist construction
# ---------------------------------------------------------------------------


def test_construction_sorts_and_coalesces():
    d = FiniteDist([1.0, -1.0, 1.0 + 1e-13], [0.25, 0.5, 0.25])
    assert d.n_atoms == 2
    assert d.atoms[0] == -1.0
    assert d.mass_at(1.0) == 0.5


def test_coalesce_subnormal_masses_stay_in_group_range():
    # Mass-weighted averaging of subnormal masses loses most of their bits;
    # the merged atom must still lie among its members.
    group = 0.1 * (1.0 + np.array([0.0, 1e-10, 2e-10]))
    tiny = np.array([5e-316, 1.1e-315, 7e-316])
    d = FiniteDist(np.append(group, 1.0), np.append(tiny, 1.0))
    assert d.n_atoms == 2
    assert group[0] <= d.atoms[0] <= group[-1]
    assert d.masses[0] == pytest.approx(tiny.sum(), rel=1e-6)


def test_construction_rejects_bad_mass():
    with pytest.raises(ValueError):
        FiniteDist([0.0, 1.0], [0.6, 0.6])
    with pytest.raises(ValueError):
        FiniteDist([0.0, 1.0], [1.2, -0.2])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 60))
def test_same_atom_matches_the_spelled_out_rule(seed, k):
    # Near-duplicates at gaps around both tolerances, at scales 1e-15..1e6.
    rng = np.random.default_rng(seed)
    base = rng.normal(size=k) * 10.0 ** rng.integers(-15, 7)
    step = rng.choice([0.0, 5e-13, 1e-12, 2e-12, 1e-9, 1e-6], size=k) * (1.0 + np.abs(base))
    x = np.sort(np.concatenate((base, base + step, -base, [0.0])))
    tol = lambda scale: np.maximum(distributions.ATOM_ABS_TOL, distributions.ATOM_REL_TOL * scale)
    same = distributions._same_atom
    gaps, scale = np.diff(x), np.maximum(np.abs(x[1:]), np.abs(x[:-1]))
    assert np.array_equal(~same(x[1:], x[:-1]), gaps > tol(scale))  # _coalesce
    mirrored = -x[::-1]
    mirror_scale = np.maximum(np.abs(x), np.abs(mirrored))
    assert np.array_equal(same(x, mirrored), np.abs(x - mirrored) <= tol(mirror_scale))
    d = np.abs(x)  # symmetrize and mixture_decompose: d >= 0 is one atom with 0
    assert np.array_equal(same(d, 0.0), d <= distributions.ATOM_ABS_TOL)
    for y in rng.choice(x, size=min(k, 5)) + rng.choice([0.0, 1e-13, 1e-10], size=min(k, 5)):
        ref = np.maximum(np.abs(x), abs(y))  # FiniteDist.mass_at
        assert np.array_equal(same(x, y), np.abs(x - y) <= tol(ref))


def test_atoms_strictly_increasing_random():
    rng = np.random.default_rng(7)
    for _ in range(50):
        d = random_finite(rng, n_atoms=12)
        assert np.all(np.diff(d.atoms) > 0)
        assert np.all(d.masses > 0)
        assert abs(d.masses.sum() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------------------------


def test_symmetrize_point_mass():
    g = symmetrize(FiniteDist.point_mass(5.0))
    assert g.n_atoms == 1
    assert g.atoms[0] == 0.0


@pytest.mark.parametrize("p", [0.05, 0.3, 0.5, 0.9])
def test_symmetrize_bernoulli(p):
    g = symmetrize(FiniteDist.bernoulli(p))
    q = p * (1.0 - p)
    assert np.allclose(g.atoms, [-1.0, 0.0, 1.0])
    assert g.mass_at(1.0) == pytest.approx(q, abs=1e-15)
    assert g.mass_at(-1.0) == pytest.approx(q, abs=1e-15)
    assert g.mass_at(0.0) == pytest.approx(1.0 - 2.0 * q, abs=1e-15)


def test_symmetrize_uniform_three_atoms_brute_force():
    f = FiniteDist.uniform_on([0.0, 1.0, 2.0])
    g = symmetrize(f)
    # Independent oracle: enumerate all 9 ordered pairs.
    expected = {}
    for x, px in zip(f.atoms, f.masses):
        for y, py in zip(f.atoms, f.masses):
            expected[x - y] = expected.get(x - y, 0.0) + px * py
    assert g.n_atoms == 5
    for atom, mass in expected.items():
        assert g.mass_at(atom) == pytest.approx(mass, abs=1e-15)


def test_symmetrize_exactly_symmetric_random():
    rng = np.random.default_rng(11)
    for _ in range(60):
        g = symmetrize(random_finite(rng, n_atoms=rng.integers(2, 9)))
        # Bitwise mirror symmetry, not just approximate.
        assert np.all(g.atoms == -g.atoms[::-1])
        assert np.all(g.masses == g.masses[::-1])


def test_symmetrize_analytic_kinds():
    g = symmetrize(AnalyticDist.gaussian(1.5))
    assert g.kind == "gaussian" and g.sigma == pytest.approx(1.5 * math.sqrt(2))
    s = symmetrize(AnalyticDist.stable(1.0, 1.0))
    assert s.kind == "stable" and s.scale == 2.0


# ---------------------------------------------------------------------------
# M(tau)
# ---------------------------------------------------------------------------


def test_m_bernoulli_closed_form_branches():
    g = symmetrize(FiniteDist.bernoulli(0.5))
    assert m_functional(g, 0.5) == pytest.approx(0.5, abs=1e-15)
    assert m_functional(g, 2.0) == pytest.approx(0.125, abs=1e-15)


def test_m_point_mass_zero():
    g = symmetrize(FiniteDist.point_mass(3.0))
    assert m_functional(g, 0.7) == 0.0


def test_m_rejects_asymmetric():
    with pytest.raises(ValueError):
        m_functional(FiniteDist.bernoulli(0.3), 1.0)


def test_m_monotone_and_bounded_random():
    rng = np.random.default_rng(3)
    taus = np.geomspace(0.01, 100.0, 41)
    for _ in range(25):
        g = symmetrize(random_finite(rng))
        p_surv = atom_survival(g)
        vals = [m_functional(g, t) for t in taus]
        assert all(v1 >= v2 - 1e-14 for v1, v2 in zip(vals, vals[1:]))
        assert all(v <= p_surv + 1e-14 for v in vals)
        # tau^2 M(tau) = E min(X~^2, tau^2) is nondecreasing in tau.
        scaled = [t * t * v for t, v in zip(taus, vals)]
        assert all(s1 <= s2 + 1e-12 for s1, s2 in zip(scaled, scaled[1:]))


def test_m_gaussian_quadrature_matches_closed_form():
    # Oracle: E min(Z^2/tau^2, 1) for Z ~ N(0, s^2) in closed form via Phi/phi.
    def oracle(s, tau):
        t = tau / s
        phi = math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        cdf = 0.5 * (1 + math.erf(t / math.sqrt(2)))
        return (s / tau) ** 2 * (2 * cdf - 1 - 2 * t * phi) + 2 * (1 - cdf)

    g = AnalyticDist.gaussian(math.sqrt(2.0))  # symmetrization of sigma = 1
    for tau in [0.05, 0.3, 1.0, 4.0, 25.0]:
        assert m_functional(g, tau) == pytest.approx(oracle(math.sqrt(2), tau), abs=1e-9)
    # Independent oracle through regularized incomplete gamma functions:
    # M = P(3/2, a^2/2) / a^2 + Q(1/2, a^2/2) with a = tau/sigma, across the
    # series cutoff and down to a = 1e-300 (where a^2 underflows, M rounds to 1).
    for a in np.geomspace(1e-300, 1e4, 1201):
        x = 0.5 * a * a
        gamma_oracle = gammainc(1.5, x) / (a * a) + gammaincc(0.5, x) if x > 0 else 1.0
        assert m_functional(g, math.sqrt(2.0) * a) == pytest.approx(gamma_oracle, abs=1e-14)
    # tau far below sigma: M is 1 to double precision, with no underflow failure.
    assert m_functional(g, 1e-200) == 1.0


def test_m_stable_monte_carlo_vs_cauchy_closed_form():
    # X~ Cauchy with scale gamma: M(tau) has an elementary closed form.
    gamma = 2.0
    def oracle(tau):
        at = math.atan(tau / gamma)
        return (2 * gamma / (math.pi * tau * tau)) * (tau - gamma * at) + 1 - 2 * at / math.pi

    g = AnalyticDist.stable(1.0, gamma)
    draws = g.sample(400_000, np.random.default_rng(42))
    for tau in [0.5, 2.0, 10.0]:
        val = m_functional(g, tau, n_samples=400_000, seed=42)
        # Standard error of the mean over the same seeded draws.
        err = float(np.std(np.minimum((draws / tau) ** 2, 1.0)) / math.sqrt(400_000))
        assert err > 0
        assert abs(val - oracle(tau)) < 6 * err + 1e-3


def test_m_seeded_reproducible():
    g = AnalyticDist.stable(0.7, 1.0)
    a = m_functional(g, 1.0, n_samples=50_000, seed=5)
    b = m_functional(g, 1.0, n_samples=50_000, seed=5)
    assert a == b


# ---------------------------------------------------------------------------
# atom_survival
# ---------------------------------------------------------------------------


def test_atom_survival_examples():
    assert atom_survival(symmetrize(FiniteDist.bernoulli(0.3))) == pytest.approx(0.42, abs=1e-15)
    assert atom_survival(symmetrize(FiniteDist.point_mass(0.0))) == 0.0
    assert atom_survival(AnalyticDist.gaussian(2.0)) == 1.0


def test_atom_survival_is_m_limit():
    rng = np.random.default_rng(17)
    for _ in range(10):
        g = symmetrize(random_finite(rng))
        assert m_functional(g, 1e-9) == pytest.approx(atom_survival(g), abs=1e-12)


# ---------------------------------------------------------------------------
# Characteristic functions
# ---------------------------------------------------------------------------


def test_cf_point_mass_and_closed_forms():
    assert cf_eval(FiniteDist.point_mass(0.0), 3.7) == pytest.approx(1.0)
    val = cf_eval(FiniteDist.bernoulli(0.5), math.pi)
    assert abs(val) < 1e-12  # (1 + e^{i pi}) / 2
    assert cf_eval(AnalyticDist.stable(2.0, 1.0), 1.0) == pytest.approx(math.exp(-1.0))
    assert cf_eval(AnalyticDist.gaussian(1.0), 2.0) == pytest.approx(math.exp(-2.0))


def test_cf_conjugate_symmetry_and_modulus():
    rng = np.random.default_rng(23)
    ts = rng.uniform(-30, 30, 50)
    for _ in range(20):
        f = random_finite(rng)
        vals_pos = cf_eval(f, ts)
        vals_neg = cf_eval(f, -ts)
        assert np.allclose(vals_neg, np.conj(vals_pos), atol=1e-14)
        assert np.all(np.abs(vals_pos) <= 1.0 + 1e-12)
        g = symmetrize(f)
        assert np.max(np.abs(np.imag(cf_eval(g, ts)))) < 1e-12


def test_weighted_cf_product_structure():
    f = FiniteDist.bernoulli(0.35)
    t = 1.3
    assert weighted_cf(f, [1.0], t) == pytest.approx(cf_eval(f, t))
    n = 6
    assert weighted_cf(f, np.ones(n), t) == pytest.approx(cf_eval(f, t) ** n)
    # Both factors vanish at t = pi * sqrt(2) for weights (1/sqrt2, 1/sqrt2).
    w = np.array([1.0, 1.0]) / math.sqrt(2)
    assert abs(weighted_cf(FiniteDist.bernoulli(0.5), w, math.pi * math.sqrt(2))) < 1e-12


@pytest.mark.parametrize("dist", [
    random_finite(np.random.default_rng(3)),
    random_finite(np.random.default_rng(3), n_atoms=12),
    symmetrize(random_finite(np.random.default_rng(3), n_atoms=6)),
    FiniteDist.uniform_on([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0]),
    AnalyticDist.stable(1.3, 0.7),
    AnalyticDist.gaussian(0.8),
])
def test_weighted_cf_chunks_keep_bits(dist, monkeypatch):
    # Three t values per chunk; n_t straddles the chunk boundaries.  A block
    # has one entry per coordinate and folded atom.
    a = np.random.default_rng(4).uniform(-1.0, 1.0, 6)
    ts = np.linspace(0.0, 9.0, 10)
    unchunked = {k: weighted_cf(dist, a, ts[:k]) for k in range(11)}
    finite = isinstance(dist, FiniteDist)
    per_t = a.size * (distributions._cf_fold(dist)[0].size if finite else 1)
    monkeypatch.setattr(distributions, "_CF_CHUNK_ENTRIES", 3 * per_t + 1)
    for k, expected in unchunked.items():
        got = weighted_cf(dist, a, ts[:k])
        assert got.dtype == expected.dtype and np.array_equal(got, expected)


@settings(max_examples=40, deadline=None)
@given(
    p=st.floats(0.01, 0.99),
    t=st.floats(-50, 50, allow_nan=False),
)
def test_cf_exponential_domination(p, t):
    # |CF(t)| <= exp(-0.5 E(1 - cos(t X~))) pointwise, exact sums on both sides.
    f = FiniteDist.bernoulli(p)
    g = symmetrize(f)
    lhs = abs(cf_eval(f, t))
    expo = float(np.dot(g.masses, 1.0 - np.cos(t * g.atoms)))
    assert lhs <= math.exp(-0.5 * expo) + 1e-12


# ---------------------------------------------------------------------------
# Mixture decomposition
# ---------------------------------------------------------------------------


def test_mixture_bernoulli_boundary_annulus():
    g = symmetrize(FiniteDist.bernoulli(0.5))
    mix = mixture_decompose(g, r=math.sqrt(2))
    assert mix.q == pytest.approx(0.5)
    # Atoms at |x| = 1 sit in A_1 = (1/sqrt2, 1]: the closed right end.
    assert mix.p[0] == 0.0
    assert mix.p[1] == pytest.approx(0.5)
    assert mix.beta == pytest.approx(0.25)
    assert mix.m1 == pytest.approx(0.5)
    assert mix.certified  # equality case beta = M(1)/r^2
    assert mix.mu[1] == pytest.approx(1.0)


def test_mixture_point_mass():
    mix = mixture_decompose(symmetrize(FiniteDist.point_mass(2.0)))
    assert mix.q == 1.0
    assert mix.beta == 0.0
    assert mix.p == ()


def test_mixture_five_atom_uniform():
    g = symmetrize(FiniteDist.uniform_on([0.0, 1.0, 2.0]))
    mix = mixture_decompose(g)
    assert mix.certified
    assert mix.beta >= mix.m1 / 2.0 - 1e-12
    assert mix.q + sum(mix.p) == pytest.approx(1.0, abs=1e-12)


def test_mixture_invariants_random_r():
    rng = np.random.default_rng(31)
    for _ in range(40):
        g = symmetrize(random_finite(rng, n_atoms=rng.integers(2, 8)))
        r = float(rng.uniform(1.0001, math.sqrt(2)))
        mix = mixture_decompose(g, r=r)
        assert mix.q + sum(mix.p) == pytest.approx(1.0, abs=1e-12)
        if mix.beta > 0:
            assert sum(mix.mu) == pytest.approx(1.0, abs=1e-12)
        assert mix.beta >= mix.m1 / (r * r) - 1e-12
        assert mix.beta >= mix.m1 / 2.0 - 1e-12
        # Annulus membership recheck, straight from the definition.
        for atom, mass in zip(g.atoms, g.masses):
            if abs(atom) <= 1e-12:
                continue
            lo, hi = None, None
            for (a_lo, a_hi), pj in zip(mix.annuli, mix.p):
                if a_lo < abs(atom) <= a_hi:
                    lo, hi = a_lo, a_hi
            assert lo is not None


def _parent_mixture_decompose(g, r=math.sqrt(2.0)):
    """mixture_decompose as it was before one list of edges decided the
    annuli, kept verbatim: np.log indices, fixed up against numpy's power."""
    if not 1.0 < r <= distributions._SQRT2:
        raise ValueError("annulus ratio r must lie in (1, sqrt(2)]")
    if not isinstance(g, FiniteDist) or not g.is_symmetric():
        raise ValueError("mixture decomposition needs a symmetric finite law")
    q = g.mass_at(0.0)
    abs_atoms = np.abs(g.atoms)
    nonzero = ~distributions._same_atom(abs_atoms, 0.0)
    if not np.any(nonzero):
        return distributions.MixtureDecomposition(
            r=r, q=q, p=(), annuli=(), beta_j=(), beta=0.0, mu=(),
            m1=0.0, beta_bound=0.0, certified=True,
        )
    u = abs_atoms[nonzero]
    w = g.masses[nonzero]
    log_r = math.log(r)
    idx = np.zeros(u.size, dtype=int)
    inner = u <= 1.0
    idx[inner] = np.floor(-np.log(u[inner]) / log_r).astype(int) + 1
    # Boundary fixups: enforce r^-j < |x| <= r^-(j-1) under float log error.
    for k in np.nonzero(inner)[0]:
        j = idx[k]
        while j > 1 and u[k] > r ** (-(j - 1)):
            j -= 1
        while u[k] <= r ** (-j):
            j += 1
        idx[k] = j
    n_annuli = int(idx.max()) + 1
    p = np.zeros(n_annuli)
    np.add.at(p, idx, w)
    j_arr = np.arange(n_annuli)
    beta_j = r ** (-2.0 * j_arr) * p
    beta = float(np.sum(beta_j))
    mu = beta_j / beta if beta > 0 else np.zeros_like(beta_j)
    annuli = [(1.0, math.inf)] + [
        (r ** (-j), r ** (-(j - 1))) for j in range(1, n_annuli)
    ]
    m1 = m_functional(g, 1.0)
    bound = m1 / (r * r)
    return distributions.MixtureDecomposition(
        r=r,
        q=q,
        p=tuple(float(v) for v in p),
        annuli=tuple(annuli),
        beta_j=tuple(float(v) for v in beta_j),
        beta=beta,
        mu=tuple(float(v) for v in mu),
        m1=m1,
        beta_bound=bound,
        certified=beta >= bound - 1e-12,
    )


# Atoms on an edge r ** -j, one ulp beside one, or anywhere in [1e-3, 4];
# free atoms are drawn more often, so that many laws lie off the edges.
_free_atoms = st.tuples(st.just("free"), st.floats(1e-3, 4.0))
_edge_atoms = st.one_of(
    st.tuples(st.just("edge"), st.integers(0, 40)),
    st.tuples(st.sampled_from(["below", "above"]), st.integers(0, 40)),
    _free_atoms,
    _free_atoms,
    _free_atoms,
)


def _symmetric_law(r, specs, weights, zero_mass):
    """The symmetric law with mass w/2 at each of +-x, x from specs."""
    xs = []
    for kind, v in specs:
        if kind == "free":
            xs.append(v)
        else:
            x = r ** -v
            xs.append(x if kind == "edge" else math.nextafter(x, 0.0 if kind == "below" else 2.0))
    w = np.array(weights + [zero_mass])
    w /= w.sum()
    half = (w[:-1] / 2.0).tolist()
    return FiniteDist([-x for x in xs] + xs + [0.0], half + half + [float(w[-1])])


@settings(max_examples=300, deadline=None)
@given(
    r=st.just(math.sqrt(2.0)) | st.floats(1.001, math.sqrt(2.0)),
    specs=st.lists(_edge_atoms, min_size=1, max_size=6),
    weights=st.lists(st.floats(0.05, 1.0), min_size=6, max_size=6),
    zero_mass=st.sampled_from([0.0, 0.3]),
)
@example(r=math.sqrt(2.0), specs=[("edge", 7)], weights=[1.0] * 6, zero_mass=0.0)
def test_mixture_counts_each_atom_in_its_reported_annulus(r, specs, weights, zero_mass):
    g = _symmetric_law(r, specs, weights[: len(specs)], zero_mass)
    mix = mixture_decompose(g, r=r)
    nonzero = np.abs(g.atoms) > 1e-12
    u, w = np.abs(g.atoms[nonzero]), g.masses[nonzero]
    idx = [[j for j, (lo, hi) in enumerate(mix.annuli) if lo < x <= hi] for x in u.tolist()]
    assert all(len(js) == 1 for js in idx)
    p = np.zeros(len(mix.p))
    np.add.at(p, [js[0] for js in idx], w)
    assert mix.p == tuple(p.tolist())
    assert max(js[0] for js in idx) == len(mix.p) - 1
    edges = [r ** -j for j in range(len(mix.p) + 1)]
    if all(abs(x - e) > 4 * math.ulp(x) for x in u.tolist() for e in edges):
        assert mix == _parent_mixture_decompose(g, r=r)


def test_mixture_atom_on_an_edge_sits_in_the_annulus_it_closes():
    # The parent counted u = sqrt(2) ** -7 in annulus 7 = (u, 1/8], beta 1/128.
    u = math.sqrt(2) ** -7
    mix = mixture_decompose(FiniteDist([-u, u], [0.5, 0.5]))
    assert mix.p[-1] == 1.0 and len(mix.p) == 9
    assert mix.annuli[8] == (0.062499999999999965, 0.0883883476483184)
    assert mix.beta == pytest.approx(0.00390625, rel=1e-14)


def test_mixture_rejects_bad_r():
    g = symmetrize(FiniteDist.bernoulli(0.4))
    with pytest.raises(ValueError):
        mixture_decompose(g, r=1.0)
    with pytest.raises(ValueError):
        mixture_decompose(g, r=1.5)


# ---------------------------------------------------------------------------
# Argument checks on outside input
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call,exc,message", [
    (lambda: FiniteDist([], []), ValueError, "atoms and masses must be nonempty and aligned"),
    (lambda: FiniteDist([0.0, 1.0], [1.0]), ValueError,
     "atoms and masses must be nonempty and aligned"),
    (lambda: FiniteDist([0.0, math.nan], [0.5, 0.5]), ValueError, "atoms must be finite"),
    (lambda: FiniteDist([0.0, math.inf], [0.5, 0.5]), ValueError, "atoms must be finite"),
    (lambda: FiniteDist([0.0, 1.0], [-0.5, 1.5]), ValueError, "masses must be nonnegative"),
    (lambda: FiniteDist([0.0, 1.0], [0.0, 0.0]), ValueError, "distribution has no mass"),
    (lambda: FiniteDist([0.0, 1.0], [0.3, 0.3]), ValueError, "masses sum to 0.6"),
    (lambda: FiniteDist.bernoulli(0.0), ValueError, "bernoulli parameter must lie in (0, 1)"),
    (lambda: FiniteDist.bernoulli(1.5), ValueError, "bernoulli parameter must lie in (0, 1)"),
    (lambda: FiniteDist.bernoulli(math.nan), ValueError,
     "bernoulli parameter must lie in (0, 1)"),
    (lambda: AnalyticDist.stable(0.0), ValueError, "stable exponent must lie in (0, 2]"),
    (lambda: AnalyticDist.stable(2.5), ValueError, "stable exponent must lie in (0, 2]"),
    (lambda: AnalyticDist.stable(1.5, 0.0), ValueError, "stable scale must be positive and finite"),
    (lambda: m_functional(symmetrize(FiniteDist.bernoulli(0.5)), 0.0), ValueError,
     "tau must be positive"),
    (lambda: m_functional(AnalyticDist.gaussian(1.0), math.nan), ValueError,
     "tau must be positive"),
    (lambda: m_functional(AnalyticDist.gaussian(1.0), [[1.0, 2.0]]), ValueError,
     "tau must be a scalar or a 1-D grid"),
    (lambda: m_functional(AnalyticDist.stable(1.0), 1.0, n_samples=0), ValueError,
     "n_samples must be at least 1"),
    (lambda: m_functional(AnalyticDist.stable(1.0), [1.0, 2.0], n_samples=-3), ValueError,
     "n_samples must be at least 1"),
    (lambda: AnalyticDist.gaussian(1.0).sample(0, np.random.default_rng(0)), ValueError,
     "n_samples must be at least 1"),
    (lambda: mixture_decompose(FiniteDist.bernoulli(0.3)), ValueError,
     "mixture decomposition needs a symmetric finite law"),
    (lambda: mixture_decompose(AnalyticDist.gaussian(1.0)), ValueError,
     "mixture decomposition needs a symmetric finite law"),
    (lambda: mixture_decompose(symmetrize(FiniteDist.bernoulli(0.3)), r=1.5), ValueError,
     "annulus ratio r must lie in (1, sqrt(2)]"),
    (lambda: cf_eval(FiniteDist.bernoulli(0.3), math.inf), ValueError, "t must be finite"),
    (lambda: cf_eval(symmetrize(FiniteDist.bernoulli(0.3)), -math.inf), ValueError,
     "t must be finite"),
    (lambda: cf_eval(FiniteDist.bernoulli(0.3), math.nan), ValueError, "t must be finite"),
    (lambda: cf_eval(AnalyticDist.gaussian(1.0), [0.0, math.nan]), ValueError,
     "t must be finite"),
    (lambda: weighted_cf(FiniteDist.bernoulli(0.3), [1.0, 0.5], math.inf), ValueError,
     "t must be finite"),
    (lambda: weighted_cf(symmetrize(FiniteDist.bernoulli(0.3)), [1.0], [1.0, math.nan]),
     ValueError, "t must be finite"),
    (lambda: weighted_cf(AnalyticDist.stable(1.5), [1.0], -math.inf), ValueError,
     "t must be finite"),
    # A finite law's CF argument t a_k x_j past the float range is an error
    # before any evaluation; an analytic CF returns its limit 0, and neither
    # warns.  A row with exc None returns ``message``.
    (lambda: weighted_cf(symmetrize(FiniteDist.bernoulli(0.3)), [10.0], 1e308), ValueError,
     "CF arguments overflow"),
    (lambda: weighted_cf(FiniteDist([-4.0, 1.0], [0.5, 0.5]), [1.0], [0.0, 1e308]), ValueError,
     "CF arguments overflow"),
    (lambda: weighted_cf(FiniteDist.point_mass(0.0), WeightVector([10.0]), 1e308), ValueError,
     "CF arguments overflow"),
    (lambda: cf_eval(FiniteDist([0.0, 4.0], [0.5, 0.5]), [1.0, -1e308]), ValueError,
     "CF arguments overflow"),
    (lambda: weighted_cf(FiniteDist.bernoulli(0.3), [math.nan], 1.0), ValueError,
     "CF arguments overflow or are NaN"),
    (lambda: weighted_cf(AnalyticDist.gaussian(1.0), [math.nan], 1.0), ValueError,
     "CF arguments overflow or are NaN: max |a_k| is nan"),
    (lambda: weighted_cf(AnalyticDist.gaussian(1.0), [0.5, math.inf], [0.0, 1.0]), ValueError,
     "CF arguments overflow or are NaN: max |a_k| is inf"),
    (lambda: weighted_cf(AnalyticDist.stable(1.5), [1.0, math.nan], 0.0), ValueError,
     "CF arguments overflow or are NaN: max |a_k| is nan"),
    (lambda: weighted_cf(AnalyticDist.stable(0.5), [-math.inf], []), ValueError,
     "CF arguments overflow or are NaN: max |a_k| is inf"),
    (lambda: weighted_cf(symmetrize(FiniteDist.bernoulli(0.3)), [-math.inf], 0.0), ValueError,
     "CF arguments overflow or are NaN: max |a_k| is inf"),
    (lambda: esseen_integral(symmetrize(FiniteDist.bernoulli(0.3)), WeightVector([100.0]),
                             1e-307), ValueError, "CF arguments overflow"),
    (lambda: cf_eval(AnalyticDist.gaussian(1.0), [1e200]), None, [0.0]),
    (lambda: cf_eval(AnalyticDist.stable(1.5), [-1e300, 0.0]), None, [0.0, 1.0]),
    (lambda: weighted_cf(AnalyticDist.gaussian(1.0), [1e200], [1e200]), None, [0.0]),
    (lambda: weighted_cf(AnalyticDist.stable(0.5, 1e300), [1e300], [0.0, 1e300]), None,
     [1.0, 0.0]),
    (lambda: cf_eval(AnalyticDist.gaussian(1e300), [1e300]), None, [0.0]),
])
def test_distributions_input_checks(call, exc, message):
    if exc is None:
        assert np.array_equal(call(), message)
        return
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value).startswith(message)


def test_finite_cf_overflow_check_is_exact():
    # The check forms max |t| max |a_k| max |atom| in the kernel's order, so
    # the largest t whose arguments stay finite passes, without a warning,
    # and the next float up raises.
    f = FiniteDist([-4.0, 1.0], [0.5, 0.5])
    t = sys.float_info.max / 8.0
    assert np.isfinite(weighted_cf(f, [0.5, -2.0], [0.0, t])).all()
    with pytest.raises(ValueError, match="CF arguments overflow"):
        weighted_cf(f, [0.5, -2.0], [0.0, np.nextafter(t, math.inf)])
    assert np.isfinite(cf_eval(f, [2.0 * t])).all()
    with pytest.raises(ValueError, match="CF arguments overflow"):
        cf_eval(f, [np.nextafter(2.0 * t, math.inf)])
