"""The window-sweep kernel over a grid of window lengths and the finite-law M
kernel over a grid of tau, against frozen copies of the one-value code; and
the harness making one kernel call per instance law."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofo import concentration, distributions, harness
from lofo.concentration import (
    QEstimate,
    WeightVector,
    _window_sup,
    q_closed_form_gaussian,
    q_exact,
    q_monte_carlo,
    weighted_sum_dist,
)
from lofo.distributions import FiniteDist, _m_finite, m_functional, symmetrize
from lofo.harness import calibrate_upper, check_lower_binomial, gen_sparse_family

# ---------------------------------------------------------------------------
# Frozen copies, kept verbatim.
# ---------------------------------------------------------------------------


def _oracle_window_sup(points: np.ndarray, cum: np.ndarray, lam: float) -> tuple[float, int]:
    """Max total weight of a closed window [x_i, x_i + lam] over left edges.

    ``cum`` is the length n+1 prefix-sum array of the point weights.  Ties
    resolve to the smallest left edge (first argmax).
    """
    hi = np.searchsorted(points, points + lam, side="right")
    vals = cum[hi] - cum[: points.size]
    k = int(np.argmax(vals))
    return float(vals[k]), k


def _oracle_q_exact(f: FiniteDist, lam: float) -> QEstimate:
    """Exact Q(F, lambda) for a finite law; lambda = 0 gives the largest mass."""
    if lam < 0:
        raise ValueError("window length lambda must be nonnegative")
    cum = np.concatenate(([0.0], np.cumsum(f.masses)))
    value, _ = _oracle_window_sup(f.atoms, cum, lam)
    return QEstimate(value=min(value, 1.0), method="exact")


def _oracle_m_finite(g: FiniteDist, tau: float) -> float:
    """The finite-law branch of M(tau) = E min(X~^2/tau^2, 1)."""
    if not tau > 0:
        raise ValueError("tau must be positive")
    if isinstance(g, FiniteDist):
        if not g.is_symmetric():
            raise ValueError("expected a symmetric (symmetrized) distribution")
        ratio = g.atoms / tau
        return float(np.dot(g.masses, np.minimum(ratio * ratio, 1.0)))


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------


def _law(kind, k, seed):
    """A finite law of k atoms: on a lattice (integer multiples of a step, so
    window edges land exactly on atoms) or at random reals."""
    rng = np.random.default_rng(seed)
    if kind == "lattice":
        step = float(rng.choice([0.25, 0.1, 1.0 / 3.0, 7.0]))
        idx = rng.choice(4 * k, size=k, replace=False)
        atoms = float(rng.normal()) + step * idx
    else:
        atoms = rng.normal(size=k) * 10.0 ** rng.integers(-3, 4)
    masses = rng.random(k) + 1e-3
    return FiniteDist(atoms, masses / masses.sum())


laws = st.builds(
    _law,
    st.sampled_from(["lattice", "real"]),
    st.one_of(st.integers(1, 12), st.integers(1, 2000)),
    st.integers(0, 2**32 - 1),
)


@st.composite
def lam_grids(draw, f):
    """Window lengths with 0, inf, repeats and exact atom gaps, unsorted."""
    gaps = (f.atoms[:, None] - f.atoms[None, :])[np.triu_indices(f.n_atoms, 1)]
    gaps = np.abs(gaps)
    parts = st.one_of(
        st.just(0.0),
        st.just(math.inf),
        st.floats(0.0, 50.0),
        st.floats(0.0, 1e-6),
        st.sampled_from(gaps[:500].tolist() or [0.0]),
    )
    lams = draw(st.lists(parts, max_size=30))
    if lams and draw(st.booleans()):
        lams += lams[: draw(st.integers(1, len(lams)))]  # repeats
    return lams


def _same(x, y):
    return np.asarray(x, dtype=float).tobytes() == np.asarray(y, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# Window sweep
# ---------------------------------------------------------------------------


def _small_blocks(mp, block):
    """Cut the left edges into blocks of ``block`` and bound every chunk, so
    that small laws span many blocks; None keeps the module's settings."""
    if block is not None:
        mp.setattr(concentration, "_WINDOW_BLOCK", block)
        mp.setattr(concentration, "_WINDOW_MIN_KEYS", 0)


blocks = st.one_of(st.none(), st.sampled_from([1, 2, 3, 8]))


@pytest.fixture
def searched(monkeypatch):
    """The number of keys in each np.searchsorted call."""
    sizes = []
    searchsorted = np.searchsorted

    def counted(a, v, *args, **kwargs):
        sizes.append(np.size(v))
        return searchsorted(a, v, *args, **kwargs)

    monkeypatch.setattr(np, "searchsorted", counted)
    return sizes


@settings(max_examples=200, deadline=None)
@given(data=st.data(), f=laws, cap=st.one_of(st.none(), st.integers(1, 4000)), block=blocks)
def test_window_sweep_bit_identical(data, f, cap, block):
    # cap monkeypatches the key-block cap down to a few rows per chunk.
    lams = data.draw(lam_grids(f))
    expected = [_oracle_q_exact(f, lam).value for lam in lams]
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(concentration, "_WINDOW_CHUNK_ENTRIES", cap)
        _small_blocks(mp, block)
        assert _same(_window_sup(f.atoms, f.masses, lams), expected)
    for lam in lams[:5]:
        value = q_exact(f, lam).value
        assert type(value) is float and _same(value, _oracle_q_exact(f, lam).value)


@settings(max_examples=60, deadline=None)
@given(
    law=laws,
    n=st.integers(1, 3000),
    lams=st.lists(st.one_of(st.just(0.0), st.just(math.inf), st.floats(0.0, 20.0)), max_size=8),
    special=st.booleans(),
    cap=st.one_of(st.none(), st.integers(1, 5000)),
    block=blocks,
    seed=st.integers(0, 2**32 - 1),
)
def test_window_sweep_sample_bit_identical(law, n, lams, special, cap, block, seed):
    # A sorted sample with uniform weights 1/n: ties from a discrete law, and
    # optionally infinities and NaN (sorted last).
    rng = np.random.default_rng(seed)
    sample = rng.choice(law.atoms, size=n) + (0.0 if n % 2 else rng.normal(size=n))
    if special:
        sample[rng.random(n) < 0.05] = np.inf
        sample[rng.random(n) < 0.05] = -np.inf
        sample[rng.random(n) < 0.05] = np.nan
    sample.sort()
    with np.errstate(invalid="ignore"):
        expected = [_oracle_window_sup(sample, np.arange(n + 1) / n, lam)[0] for lam in lams]
        with pytest.MonkeyPatch.context() as mp:
            if cap is not None:
                mp.setattr(concentration, "_WINDOW_CHUNK_ENTRIES", cap)
            _small_blocks(mp, block)
            assert _same(_window_sup(sample, None, lams), expected)


def test_window_sweep_empty_grid_and_point_mass():
    f = FiniteDist.point_mass(3.0)
    assert _window_sup(f.atoms, f.masses, []) == []
    assert _window_sup(f.atoms, f.masses, [0.0, math.inf, 2.0]) == [1.0, 1.0, 1.0]


# ---------------------------------------------------------------------------
# The block bound of the window sweep
# ---------------------------------------------------------------------------


def _perturbed_law(s, p):
    inst = gen_sparse_family([s], n=256, p_list=[p], perturbed=True).instances[0]
    return weighted_sum_dist(inst.law, inst.weights)


def _geometric_law(k, ratio):
    masses = ratio ** np.arange(k)
    return FiniteDist(0.5 * np.arange(k), masses / masses.sum())


PEAKED_LAWS = {
    "binomial": lambda: weighted_sum_dist(FiniteDist.bernoulli(0.3), WeightVector([0.5] * 3000)),
    "perturbed": lambda: _perturbed_law(16, 0.35),
    "geometric": lambda: _geometric_law(3000, 0.995),
}


@pytest.mark.parametrize("block", [1, 2, 3, 8, None])
@pytest.mark.parametrize("kind", sorted(PEAKED_LAWS))
def test_window_bound_prunes_peaked_laws_bit_identical(kind, block, searched):
    f = PEAKED_LAWS[kind]()
    width = f.atoms[-1] - f.atoms[0]
    lams = [0.0, *(width * np.geomspace(1e-4, 1.0, 30)), float(f.atoms[1] - f.atoms[0])]
    expected = [_oracle_q_exact(f, lam).value for lam in lams]
    searched.clear()
    with pytest.MonkeyPatch.context() as mp:
        _small_blocks(mp, block)
        assert _same(_window_sup(f.atoms, f.masses, lams), expected)
    if block in (8, None):  # blocks of 1 to 3 edges search more keys for the bounds
        assert sum(searched) < len(lams) * f.n_atoms / 2


def test_window_bound_keeps_every_block_of_a_flat_law(searched):
    # At lam = 0 a window holds one atom, and a block's upper bound is the
    # mass of all its atoms (and of the next block's first), which nearly
    # equal masses put above every single mass: no block is pruned, and each
    # row is swept whole after the bounds.
    rng = np.random.default_rng(7)
    masses = 1.0 + 1e-3 * rng.random(5000)
    f = FiniteDist(rng.normal(size=5000), masses / masses.sum())
    expected = _oracle_q_exact(f, 0.0).value
    rows, n = 4, f.n_atoms
    searched.clear()
    assert _same(_window_sup(f.atoms, f.masses, [0.0] * rows), [expected] * rows)
    n_blocks = -(-n // concentration._WINDOW_BLOCK)
    assert rows * n >= concentration._WINDOW_MIN_KEYS
    assert searched == [rows * (n_blocks + 1), rows * n]


@pytest.mark.parametrize("block", [1, 2, 3, 8, None])
def test_window_bound_at_one_block_bit_identical(block):
    # One atom short of a block, one block, and two blocks that overlap in
    # all but one edge.
    size = block or concentration._WINDOW_BLOCK
    sizes = range(max(1, size - 1), size + 2)
    for n, kind, seed in itertools.product(sizes, ("lattice", "real"), range(4)):
        f = _law(kind, n, seed)
        gaps = np.abs(f.atoms[:, None] - f.atoms[None, :]).ravel()
        lams = [0.0, math.inf, 1e-7, *gaps[:: max(1, gaps.size // 20)].tolist()]
        expected = [_oracle_q_exact(f, lam).value for lam in lams]
        with pytest.MonkeyPatch.context() as mp:
            _small_blocks(mp, block)
            mp.setattr(concentration, "_WINDOW_MIN_KEYS", 0)
            assert _same(_window_sup(f.atoms, f.masses, lams), expected)


@pytest.mark.parametrize("masses", [False, True])
def test_window_bound_pruned_chunk_then_whole_chunk(masses, monkeypatch):
    # One row per chunk: lam = 0.5 prunes, and at lam = 0 every block of a
    # continuous sample is kept, so the left edges are first needed by the
    # second chunk.
    n = 3000
    sample = np.sort(np.random.default_rng(5).normal(size=n))
    weights = np.full(n, 1.0 / n) if masses else None
    cum = np.concatenate(([0.0], np.cumsum(weights))) if masses else np.arange(n + 1) / n
    lams = [0.5, 0.0, 0.5, 0.0]
    expected = [min(_oracle_window_sup(sample, cum, lam)[0], 1.0) for lam in lams]
    monkeypatch.setattr(concentration, "_WINDOW_CHUNK_ENTRIES", n)
    monkeypatch.setattr(concentration, "_WINDOW_MIN_KEYS", 0)
    assert _same(_window_sup(sample, weights, lams), expected)


def test_window_bound_skips_a_sample_with_nonfinite_points(searched):
    # -inf + inf is NaN, which sorts after every key, so the right ends are
    # not monotone in the left edge; a sample that holds a non-finite point
    # is swept whole, with no block pruned.
    rng = np.random.default_rng(3)
    body = rng.choice([0.0, 1.0, 2.5], size=400) + rng.normal(size=400)
    swept_whole = []
    for ends in ([-np.inf, -np.inf], [np.inf], [np.nan], [-np.inf, np.inf, np.nan]):
        sample = np.sort(np.concatenate((body, ends)))
        n = sample.size
        lams = [0.0, 0.5, 3.0, math.inf]
        with np.errstate(invalid="ignore"):
            expected = [_oracle_window_sup(sample, np.arange(n + 1) / n, lam)[0] for lam in lams]
            for block in (2, 3, 8):
                with pytest.MonkeyPatch.context() as mp:
                    _small_blocks(mp, block)
                    searched.clear()
                    assert _same(_window_sup(sample, None, lams), expected)
                swept_whole.append(searched == [len(lams) * n])
    assert all(swept_whole)


def test_window_bound_searches_a_tenth_of_the_keys(searched, monkeypatch):
    # The s = 128, p = 1/2 perturbed law (16,641 atoms) over the 40 eps of
    # its crossover rows: a full sweep searches 665,640 keys.
    grids = []
    window_sup = concentration._window_sup

    def recorded(points, masses, lams):
        grids.append(list(lams))
        return window_sup(points, masses, lams)

    monkeypatch.setattr(harness, "_window_sup", recorded)
    calibrate_upper("crossover", gen_sparse_family([128], n=256, p_list=[0.5], perturbed=True), 2.0)
    (lams,) = grids
    f = _perturbed_law(128, 0.5)
    assert f.n_atoms * len(lams) == 665_640
    expected = [_oracle_q_exact(f, lam).value for lam in lams]
    searched.clear()
    assert _same(_window_sup(f.atoms, f.masses, lams), expected)
    assert sum(searched) <= 66_564


@pytest.mark.parametrize("cap", [None, 20_000])
def test_window_sweep_key_blocks_stay_within_the_cap(cap, searched, monkeypatch):
    # The bounds, the kept blocks and the rows swept whole, at every law
    # size up to the cap.
    if cap is not None:
        monkeypatch.setattr(concentration, "_WINDOW_CHUNK_ENTRIES", cap)
    rng = np.random.default_rng(11)
    flat = FiniteDist(rng.normal(size=6000), np.full(6000, 1.0 / 6000))
    for f in (_perturbed_law(16, 0.5), _perturbed_law(128, 0.5), flat):
        lams = [0.0] * 50 + np.linspace(0.0, f.atoms[-1] - f.atoms[0], 150).tolist()
        searched.clear()
        _window_sup(f.atoms, f.masses, lams)
        assert sum(searched) >= len(lams) * (f.n_atoms // concentration._WINDOW_BLOCK)
        assert max(searched) <= concentration._WINDOW_CHUNK_ENTRIES


# ---------------------------------------------------------------------------
# Finite-law M
# ---------------------------------------------------------------------------


def _symmetric_law(k, seed):
    rng = np.random.default_rng(seed)
    half = np.abs(rng.normal(size=k)) * 10.0 ** rng.integers(-3, 4) + 1e-9
    w = rng.random(k) + 1e-3
    atoms = np.concatenate((-half, half, [0.0] if k % 2 else []))
    masses = np.concatenate((w, w, [rng.random()] if k % 2 else []))
    return FiniteDist(atoms, masses / masses.sum())


symmetric_laws = st.one_of(
    st.builds(lambda f: symmetrize(f), st.builds(_law, st.sampled_from(["lattice", "real"]),
                                                 st.integers(1, 40), st.integers(0, 2**32 - 1))),
    st.builds(_symmetric_law, st.integers(1, 1000), st.integers(0, 2**32 - 1)),
)
tau_grids = st.lists(
    st.one_of(st.floats(1e-3, 1e3), st.sampled_from([1e-200, 1e-9, 1.0, 1e9, 1e200])),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(g=symmetric_laws, taus=tau_grids, cap=st.one_of(st.none(), st.integers(1, 3000)))
def test_m_kernel_bit_identical(g, taus, cap):
    if taus and len(taus) % 3 == 0:
        taus = taus + taus[::-1]  # repeats, out of order
    with np.errstate(over="ignore"):  # the old code warned where a tiny tau overflows
        expected = [_oracle_m_finite(g, tau) for tau in taus]
    with pytest.MonkeyPatch.context() as mp:
        if cap is not None:
            mp.setattr(distributions, "_M_CHUNK_ENTRIES", cap)
        assert _same(_m_finite(g, taus), expected)
    for tau, value in zip(taus[:5], expected):
        assert m_functional(g, tau) == value and type(m_functional(g, tau)) is float


def test_m_tiny_tau_clips_without_overflow_warning():
    # (x / tau)^2 overflows for every nonzero atom; M is then all the mass off 0.
    g = FiniteDist([-1e300, 0.0, 1e300], [0.25, 0.5, 0.25])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert m_functional(g, 1e-200) == 0.5
        assert _m_finite(g, [1e-200, 1e-10, 1e310]) == [0.5, 0.5, 0.0]


def test_m_kernel_rejects_asymmetric_law():
    with pytest.raises(ValueError, match="symmetric"):
        _m_finite(FiniteDist.bernoulli(0.3), [1.0])


# ---------------------------------------------------------------------------
# A NaN window length is rejected
# ---------------------------------------------------------------------------


def test_nan_window_length_is_rejected():
    f = FiniteDist.bernoulli(0.5)
    a = WeightVector([1.0, 0.5])
    for call in (
        lambda: q_exact(f, math.nan),
        lambda: q_monte_carlo(f, a, math.nan),
        lambda: q_closed_form_gaussian(1.0, math.nan),
    ):
        with pytest.raises(ValueError, match="lambda must be nonnegative"):
            call()


# ---------------------------------------------------------------------------
# One kernel call per instance law
# ---------------------------------------------------------------------------


@pytest.fixture
def kernel_calls(monkeypatch):
    """Count the Q-kernel calls (by the law's atoms) and the M-kernel calls."""
    calls = {"q": [], "m": 0}
    window_sup, m_finite = concentration._window_sup, distributions._m_finite

    def counted_window_sup(points, masses, lams):
        calls["q"].append(points.tobytes() + masses.tobytes())
        return window_sup(points, masses, lams)

    def counted_m_finite(*args):
        calls["m"] += 1
        return m_finite(*args)

    for module in (concentration, harness):  # q_exact's and the harness's bindings
        monkeypatch.setattr(module, "_window_sup", counted_window_sup)
    for module in (distributions, harness):  # m_functional's and the harness's bindings
        monkeypatch.setattr(module, "_m_finite", counted_m_finite)
    return calls


@pytest.mark.parametrize("bound_id,laws_per_instance", [
    ("crossover", 1),           # the sum
    ("esseen", 1),              # the sum; M of the component in one M call
    ("kolmogorov_rogozin", 2),  # the component and the sum
])
def test_calibrate_one_kernel_call_per_instance_law(bound_id, laws_per_instance, kernel_calls):
    family = gen_sparse_family([4, 8, 16], p_list=[0.3, 0.5])
    report = calibrate_upper(bound_id, family, 2.0, n_eps=40)
    scored = len(family.instances) - report.n_excluded
    assert scored >= 4
    assert len(kernel_calls["q"]) == laws_per_instance * scored
    if bound_id == "crossover":
        assert len(set(kernel_calls["q"])) == scored  # no sum swept twice
    else:  # the crossover shape takes M one eps at a time, so it is not counted
        assert kernel_calls["m"] == (scored if bound_id == "esseen" else 0)


def test_lower_binomial_one_kernel_call_per_law(kernel_calls):
    # s p (1 - p) > 1 for every case but s = 4, p = 0.1: the chain grid, q0
    # and the 4 sigma window join the rows' sweep.
    check_lower_binomial([4, 16, 64], [0.1, 0.5], n_eps=40)
    assert len(kernel_calls["q"]) == 6
    assert kernel_calls["m"] == 0


def test_harness_values_match_scalar_calls():
    # The rows hold exactly the values of one scalar call per grid point.
    family = gen_sparse_family([4, 16], p_list=[0.3])
    for bound_id in ("crossover", "esseen", "kolmogorov_rogozin"):
        for row in calibrate_upper(bound_id, family, 2.0, n_eps=12).rows:
            inst = next(i for i in family.instances if i.id == row["instance"])
            fa = weighted_sum_dist(inst.law, inst.weights)
            assert row["q"] == _oracle_q_exact(fa, row["eps"]).value
    report = check_lower_binomial([16], [0.5], n_eps=12)
    fa = weighted_sum_dist(FiniteDist.bernoulli(0.5), WeightVector(np.full(16, 0.25)))
    expected = [_oracle_q_exact(fa, r["eps"]).value for r in report.rows]
    assert [r["q"] for r in report.rows] == expected
