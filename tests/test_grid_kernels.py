"""The window-sweep kernel over a grid of window lengths, the finite-law M
kernel over a grid of tau, and the classical and crossover shapes over a
window grid, against frozen copies of the one-value code; and the harness
making one kernel call and one shape call per instance."""

import itertools
import math
import warnings
from typing import Optional, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofo import concentration, distributions, fixtures, harness
from lofo.bounds import (
    BoundShape,
    RootSolution,
    shape_crossover,
    shape_esseen,
    shape_kolmogorov_rogozin,
    solve_tau0,
)
from lofo.concentration import (
    QEstimate,
    WeightVector,
    _window_sup,
    q_closed_form_gaussian,
    q_exact,
    q_monte_carlo,
    weighted_sum_dist,
)
from lofo.distributions import (
    AnalyticDist,
    Dist,
    FiniteDist,
    _m_finite,
    atom_survival,
    m_functional,
    symmetrize,
)
from lofo.exceptions import PreconditionError
from lofo.harness import (
    CalibrationReport,
    Instance,
    InstanceFamily,
    calibrate_upper,
    check_lower_binomial,
    gen_equal_weight_family,
    gen_sparse_family,
    study_gaussian_window,
)
from lofo.lcd import lcd as lcd_search

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
    monkeypatch.setattr(distributions, "_m_finite", counted_m_finite)  # m_functional's binding
    return calls


# Q calls: one per scored instance (the law of its sum), and per distinct law
# of X as given; M calls per scored instance and per distinct law of X.
@pytest.mark.parametrize("bound_id,q_per_law,m_per_instance,m_per_law", [
    ("crossover", 0, 1, 1),           # M of each shape; of each law's tau0 residual
    ("esseen", 0, 0, 1),              # M of each law's component in one M call
    ("kolmogorov_rogozin", 1, 0, 0),  # Q of each law's component
])
def test_calibrate_one_kernel_call_per_instance_law(bound_id, q_per_law, m_per_instance,
                                                    m_per_law, kernel_calls):
    family = gen_sparse_family([4, 8, 16], p_list=[0.3, 0.5])
    report = calibrate_upper(bound_id, family, 2.0, n_eps=40)
    scored, laws = len(family.instances) - report.n_excluded, 2
    assert scored >= 4
    assert len(kernel_calls["q"]) == scored + q_per_law * laws
    if bound_id == "crossover":
        assert len(set(kernel_calls["q"])) == scored  # no sum swept twice
    assert kernel_calls["m"] == m_per_instance * scored + m_per_law * laws


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


# ---------------------------------------------------------------------------
# Grid shapes and one shape call per instance, against the per-row code
# ---------------------------------------------------------------------------
# Frozen copies of the one-window shapes and the per-row recipes, kept
# verbatim but for the _oracle prefix.


def _oracle_classical_shape(
    lam: float, lam_k: Sequence[float], c_k: np.ndarray, name: str, degenerate: str
) -> float:
    """lambda * (sum lambda_k^2 c_k)^(-1/2), the body of both classical shapes
    (c_k = 1 - Q_k or M_k); ``name`` is the symbol of the component values and
    ``degenerate`` what makes them all vanish, for the messages."""
    lk = np.asarray(lam_k, dtype=float)
    if lk.size == 0 or lk.size != c_k.size:
        raise ValueError(f"lambda_k and {name} must be nonempty and aligned")
    if np.any(lk <= 0) or np.any(lk > lam * (1 + 1e-12)):
        raise ValueError("each lambda_k must lie in (0, lambda]")
    denom = float(np.dot(lk * lk, c_k))
    if denom <= 0.0:
        raise PreconditionError(f"{degenerate}: the shape diverges")
    return lam / math.sqrt(denom)


def _oracle_shape_kolmogorov_rogozin(
    lam: float, lam_k: Sequence[float], q_k: Sequence[float]
) -> float:
    """lambda * (sum lambda_k^2 (1 - Q_k))^(-1/2) for independent summands."""
    return _oracle_classical_shape(
        lam, lam_k, 1.0 - np.asarray(q_k, dtype=float), "Q_k",
        "all component concentrations equal 1",
    )


def _oracle_shape_esseen(lam: float, lam_k: Sequence[float], m_k: Sequence[float]) -> float:
    """lambda * (sum lambda_k^2 M_k(lambda_k))^(-1/2); refines Kolmogorov-Rogozin."""
    return _oracle_classical_shape(
        lam, lam_k, np.asarray(m_k, dtype=float), "M_k",
        "all spread functionals vanish",
    )


def _oracle_shape_crossover(
    a: WeightVector,
    g: Dist,
    L: float,
    eps: float,
    dstar: float,
    *,
    root: Optional[RootSolution] = None,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> BoundShape:
    """Two-regime bound at window eps, optimal at D = D*(a).

    For eps <= eps0 = tau0/D*: 1 / (||a|| D* sqrt(M(eps D*))) (with the
    eps -> 0 limit 1 / (||a|| D* sqrt(P))); for eps >= eps0 the linear
    continuation eps L / (eps0 ||a|| D*).  The branches agree at eps0.
    """
    if eps < 0:
        raise ValueError("eps must be nonnegative")
    if not dstar > 0:
        raise ValueError("dstar must be positive")
    if root is None:
        root = solve_tau0(g, L, n_samples=n_samples, seed=seed)
    eps0 = root.tau0 / dstar
    if eps == 0.0:
        value = 1.0 / (a.norm2 * dstar * math.sqrt(atom_survival(g)))
        branch = "zero"
    elif eps <= eps0:
        m_val = m_functional(g, eps * dstar, n_samples=n_samples, seed=seed)
        value = 1.0 / (a.norm2 * dstar * math.sqrt(m_val))
        branch = "small_eps"
    else:
        value = eps * L / (eps0 * a.norm2 * dstar)
        branch = "large_eps"
    return BoundShape(
        id="crossover",
        params={
            "eps": eps,
            "eps0": eps0,
            "tau0": root.tau0,
            "L": L,
            "dstar": dstar,
            "norm_a": a.norm2,
            "branch": branch,
        },
        value=value,
    )


def _oracle_crossover_rows(inst: Instance, L: float, n_eps: int):
    g = symmetrize(inst.law)
    try:
        root = solve_tau0(g, L)
    except PreconditionError:
        return None  # no crossover scale (L^2 <= 1/P): excluded, counted by caller
    dstar = lcd_search(inst.weights, L, "d_star", tol=1e-8).value
    fa = weighted_sum_dist(inst.law, inst.weights)
    eps_grid = np.linspace(0.0, 4.0 * math.sqrt(inst.p * (1.0 - inst.p)), n_eps)
    rows = []
    for eps, q_val in zip(eps_grid, _window_sup(fa.atoms, fa.masses, eps_grid)):
        shape = _oracle_shape_crossover(inst.weights, g, L, float(eps), dstar, root=root)
        rows.append(
            {
                "instance": inst.id,
                "s": inst.s,
                "p": inst.p,
                "eps": float(eps),
                "q": q_val,
                "shape": shape.value,
                "ratio": q_val / shape.value,
                "branch": shape.params["branch"],
                "dstar": dstar,
                "eps0": shape.params["eps0"],
                "precondition": "L^2 > 1/P",
            }
        )
    return rows


def _oracle_classical_rows(inst: Instance, L: float, n_eps: int, bound_id: str):
    # i.i.d. summands Y_k = a_k X with windows lambda_k = a_k tau scaled to
    # lambda = ||a||_inf tau; Q and M of a scaled law are scale-covariant.
    # The component values (Q of f, or M of its symmetrization) and Q of the
    # sum are each fetched for the whole tau grid in one call.  A tau whose
    # component is degenerate (Q = 1, or M = 0: the shape diverges) is skipped.
    a = inst.weights
    f = inst.law
    nz = a.coords[a.coords != 0.0]
    fa = weighted_sum_dist(f, a)
    taus = np.geomspace(0.25, 4.0, n_eps)
    lams = a.norm_inf * taus
    if bound_id == "kolmogorov_rogozin":
        shape, degenerate = _oracle_shape_kolmogorov_rogozin, 1.0
        comps = _window_sup(f.atoms, f.masses, taus)
    else:
        shape, degenerate = _oracle_shape_esseen, 0.0
        comps = _m_finite(symmetrize(f), taus)
    q_vals = _window_sup(fa.atoms, fa.masses, lams)
    rows = []
    for tau, lam, comp, q_val in zip(taus, lams.tolist(), comps, q_vals):
        if comp == degenerate:
            continue
        shape_val = shape(lam, np.abs(nz) * tau, [comp] * nz.size)
        rows.append(
            {
                "instance": inst.id,
                "s": inst.s,
                "p": inst.p,
                "eps": lam,
                "q": q_val,
                "shape": shape_val,
                "ratio": q_val / shape_val,
                "branch": "",
                "precondition": "nondegenerate components",
            }
        )
    return rows


def _oracle_calibrate_upper(
    bound_id: str,
    family: InstanceFamily,
    L: float,
    *,
    n_eps: int = 40,
) -> CalibrationReport:
    """Ratio sweep Q/shape for one bound id over a family.

    L must be positive and finite.  An instance whose solver or shape raises
    PreconditionError is excluded and counted, never scored.  D* is
    certified to tol 1e-8.  PASS means ratio_sup <= fixture, the bound's
    frozen constant in ``fixtures.RATIO_SUP``.
    """
    if not 0 < L < math.inf:
        raise ValueError("L must be positive and finite")
    if bound_id == "crossover":
        worker = lambda inst: _oracle_crossover_rows(inst, L, n_eps)
    elif bound_id in ("kolmogorov_rogozin", "esseen"):
        worker = lambda inst: _oracle_classical_rows(inst, L, n_eps, bound_id)
    else:
        raise ValueError(f"no calibration recipe for bound id {bound_id!r}")
    results = [worker(inst) for inst in family.instances]
    rows, excluded = [], 0
    for res in results:
        if res is None:
            excluded += 1
        else:
            rows.extend(res)
    if not rows:
        raise PreconditionError("no instance satisfied the bound preconditions")
    ratios = [r["ratio"] for r in rows]
    sup, inf = max(ratios), min(ratios)
    fixture = fixtures.RATIO_SUP[bound_id]
    passed = sup <= fixture
    return CalibrationReport(
        bound_id=bound_id,
        family_id=family.id,
        L=L,
        rows=tuple(rows),
        ratio_sup=sup,
        ratio_inf=inf,
        n_excluded=excluded,
        fixture=fixture,
        passed=passed,
    )


def _oracle_study_gaussian_window(
    sigma_list: Sequence[float],
    dstar: float,
    n_eps: int = 25,
) -> list[dict]:
    """Q(F_a, eps) * sigma / eps over eps in [sigma/D*, sigma] for unit a.

    Exact Q by the Gaussian closed form; the crossover shape is evaluated on
    the same grid (L chosen so the whole range sits below eps0) to confirm it
    reproduces the eps/sigma order.
    """
    rows = []
    for sigma in sigma_list:
        g = AnalyticDist.gaussian(sigma * math.sqrt(2.0))
        a = WeightVector([1.0])
        m_at_edge = m_functional(g, sigma * dstar)
        L = 1.05 / math.sqrt(m_at_edge)
        root = solve_tau0(g, L)
        for eps in np.geomspace(sigma / dstar, sigma, n_eps):
            q_val = q_closed_form_gaussian(sigma, float(eps)).value
            shape = _oracle_shape_crossover(a, g, L, float(eps), dstar, root=root)
            rows.append(
                {
                    "sigma": sigma,
                    "eps": float(eps),
                    "eps_over_sigma": float(eps) / sigma,
                    "q": q_val,
                    "q_ratio": q_val * sigma / eps,
                    "shape": shape.value,
                    "shape_ratio": shape.value * sigma / eps,
                    "branch": shape.params["branch"],
                }
            )
    return rows


def _outcome(call):
    """The report's JSON, or the type and message of the error it raised."""
    try:
        return call().to_json()
    except (PreconditionError, ValueError) as exc:
        return type(exc), str(exc)


def _family(kind, s_list, p_list, extra):
    if kind == "equal":
        return gen_equal_weight_family(s_list, p_list)
    n = max(s_list) + extra if kind == "perturbed" else None
    return gen_sparse_family(s_list, n=n, p_list=p_list, perturbed=kind == "perturbed")


# Q = 1 and M = 0 at every tau, and no crossover scale: no rows, or excluded.
POINT_MASS = Instance(
    id="point_mass", weights=WeightVector([0.5, 1.0]), law=FiniteDist.point_mass(0.0), s=2, p=0.5
)


@pytest.mark.parametrize("bound_id", ["crossover", "esseen", "kolmogorov_rogozin"])
@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["sparse", "perturbed", "equal"]),
    s_list=st.lists(st.integers(1, 24), min_size=1, max_size=3, unique=True),
    p_list=st.lists(st.one_of(st.sampled_from([0.1, 0.3, 0.5]), st.floats(0.02, 0.98)),
                    min_size=1, max_size=2),
    L=st.one_of(st.sampled_from([1.05, 2.0, 3.0]), st.floats(1.5, 12.0)),
    n_eps=st.one_of(st.sampled_from([1, 2]), st.integers(1, 40)),
    extra=st.integers(0, 3),
    point_mass=st.booleans(),
)
def test_calibrate_matches_frozen_per_row_recipes(bound_id, kind, s_list, p_list, L, n_eps,
                                                  extra, point_mass):
    family = _family(kind, s_list, p_list, extra)
    if point_mass:
        family = InstanceFamily(id=family.id, instances=(POINT_MASS, *family.instances))
    got = _outcome(lambda: calibrate_upper(bound_id, family, L, n_eps=n_eps))
    assert got == _outcome(lambda: _oracle_calibrate_upper(bound_id, family, L, n_eps=n_eps))


def test_calibrate_instance_with_every_tau_degenerate_gives_no_rows():
    family = InstanceFamily(id="sparse", instances=(POINT_MASS,))
    one = gen_sparse_family([4], p_list=[0.3])
    both = InstanceFamily(id="sparse", instances=(POINT_MASS, *one.instances))
    for bound_id in ("esseen", "kolmogorov_rogozin"):
        with pytest.raises(PreconditionError, match="no instance satisfied"):
            calibrate_upper(bound_id, family, 2.0)
        report = calibrate_upper(bound_id, both, 2.0, n_eps=12)
        assert report.n_excluded == 0
        assert {r["instance"] for r in report.rows} == {"sparse_s4_p0.3"}
        assert report.to_json() == _oracle_calibrate_upper(bound_id, both, 2.0, n_eps=12).to_json()
    assert calibrate_upper("crossover", both, 2.0).n_excluded == 1


@settings(max_examples=25, deadline=None)
@given(
    sigmas=st.lists(st.floats(0.05, 20.0), min_size=1, max_size=3),
    dstar=st.floats(1.5, 50.0),
    n_eps=st.integers(1, 30),
)
def test_study_gaussian_window_matches_frozen_copy(sigmas, dstar, n_eps):
    rows = study_gaussian_window(sigmas, dstar, n_eps)
    assert rows == _oracle_study_gaussian_window(sigmas, dstar, n_eps)
    assert all(type(r["shape"]) is float and type(r["eps"]) is float for r in rows)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(0, 6),
    n=st.integers(1, 60),
    equal=st.booleans(),
    kr=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_classical_shape_grid_matches_frozen_scalar_code(m, n, equal, kr, seed):
    # Rows of independent or of equal component values, as the harness has.
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.1, 10.0, m)
    lam_k = lam[:, None] * rng.uniform(1e-3, 1.0, (m, n))
    comps = rng.uniform(0.0, 0.99, (m, 1 if equal else n))
    comps = np.repeat(comps, n, axis=1) if equal else comps
    new, old = ((shape_kolmogorov_rogozin, _oracle_shape_kolmogorov_rogozin) if kr
                else (shape_esseen, _oracle_shape_esseen))
    expected = [old(lam[i].item(), lam_k[i], comps[i]) for i in range(m)]
    values = new(lam, lam_k, comps)
    assert type(values) is list and _same(values, expected)
    for i in range(min(m, 2)):
        value = new(lam[i].item(), lam_k[i].tolist(), comps[i].tolist())
        assert type(value) is float and _same(value, expected[i])


@settings(max_examples=60, deadline=None)
@given(g=symmetric_laws, taus=tau_grids)
def test_m_functional_grid_matches_scalar_calls_finite(g, taus):
    grid = m_functional(g, taus)
    assert type(grid) is list and len(grid) == len(taus)
    assert _same(grid, [m_functional(g, tau) for tau in taus])


@settings(max_examples=60, deadline=None)
@given(sigma=st.floats(1e-3, 1e3), taus=tau_grids)
def test_m_functional_grid_matches_scalar_calls_gaussian(sigma, taus):
    g = AnalyticDist.gaussian(sigma)
    assert _same(m_functional(g, taus), [m_functional(g, tau) for tau in taus])


@settings(max_examples=30, deadline=None)
@given(
    alpha=st.floats(0.3, 2.0),
    n_samples=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    taus=st.lists(st.floats(1e-3, 1e3), max_size=5),
)
def test_m_functional_grid_matches_scalar_calls_stable(alpha, n_samples, seed, taus):
    g = AnalyticDist.stable(alpha)
    grid = m_functional(g, taus, n_samples=n_samples, seed=seed)
    expected = [m_functional(g, tau, n_samples=n_samples, seed=seed) for tau in taus]
    assert _same(grid, expected)


def _count_samples(monkeypatch):
    """Record the n of every stable sample drawn from here on."""
    calls = []
    draws = distributions._stable_draws

    def counted(alpha, scale, n, rng):
        calls.append(n)
        return draws(alpha, scale, n, rng)

    monkeypatch.setattr(distributions, "_stable_draws", counted)
    return calls


def test_m_functional_stable_grid_draws_one_sample(monkeypatch):
    calls = _count_samples(monkeypatch)
    g = AnalyticDist.stable(1.5)
    values = m_functional(g, np.geomspace(0.1, 10.0, 10), n_samples=500, seed=3)
    assert len(values) == 10 and calls == [500]
    assert m_functional(g, [], n_samples=500) == [] and calls == [500]


def test_shape_crossover_stable_grid_draws_twice(monkeypatch):
    # One sample for tau0 and one for M at every small eps.
    calls = _count_samples(monkeypatch)
    g = AnalyticDist.stable(1.5)
    shape = shape_crossover(WeightVector([1.0, 0.5]), g, 3.0, np.geomspace(1e-3, 10.0, 12),
                            2.0, n_samples=400, seed=1)
    assert shape.params["branch"].count("small_eps") > 1 and calls == [400, 400]


@pytest.mark.parametrize("law", ["finite", "gaussian", "stable"])
def test_shape_crossover_grid_matches_scalar_calls(law):
    # eps = 0, eps0 exactly and one ulp either side of it, and large eps.
    g = {
        "finite": symmetrize(FiniteDist([0.0, 0.3, 1.0], [0.25, 0.35, 0.4])),
        "gaussian": AnalyticDist.gaussian(0.7),
        "stable": AnalyticDist.stable(1.3),
    }[law]
    a, L, dstar = WeightVector([0.6, 0.8, 0.1]), 2.0, 2.5
    kw = {"n_samples": 200, "seed": 4} if law == "stable" else {}
    root = solve_tau0(g, L, **kw)
    eps0 = root.tau0 / dstar
    grid = [0.0, eps0, np.nextafter(eps0, 0.0), np.nextafter(eps0, math.inf), eps0 / 3.0,
            50.0 * eps0, 0.0, 1e-300]
    shape = shape_crossover(a, g, L, np.array(grid), dstar, root=root, **kw)
    assert shape.params["branch"][:4] == ["zero", "small_eps", "small_eps", "large_eps"]
    for i, eps in enumerate(grid):
        one = shape_crossover(a, g, L, eps, dstar, root=root, **kw)
        assert one.to_json() == _oracle_shape_crossover(a, g, L, eps, dstar, root=root,
                                                        **kw).to_json()
        assert type(one.value) is float and _same(shape.value[i], one.value)
        assert shape.params["eps"][i] == eps and shape.params["branch"][i] == one.params["branch"]
        rest = {k: v for k, v in shape.params.items() if k not in ("eps", "branch")}
        assert rest == {k: v for k, v in one.params.items() if k not in ("eps", "branch")}
    assert shape_crossover(a, g, L, grid, dstar, **kw).to_json() == shape.to_json()
    empty = shape_crossover(a, g, L, [], dstar, root=root, **kw)
    assert empty.value == [] and empty.params["eps"] == [] and empty.params["branch"] == []
