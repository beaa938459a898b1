"""The sampled path (stable sampler, empirical tau0, Monte Carlo draws) against
frozen copies of the earlier code that built one array per step, also with
the stream block shrunk to a few entries, and a traced-memory guard on its
live length-n arrays."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lofo import AnalyticDist, FiniteDist, WeightVector, m_functional, q_monte_carlo, solve_tau0
from lofo import distributions
from lofo.concentration import MC_MIN_SAMPLES, sample_weighted_sum
from lofo.distributions import _empirical_spread, _piecewise_tau0, sample_symmetric_stable
from lofo.exceptions import NumericalError, PreconditionError
from lofo.harness import study_tau0_scaling

# ---------------------------------------------------------------------------
# Frozen copies, kept verbatim.
# ---------------------------------------------------------------------------


def _oracle_stable(alpha, scale, n, rng):
    """Draw n variates with CF exp(-scale * |t|^alpha) (Chambers-Mallows-Stuck)."""
    u = math.pi * (rng.random(n) - 0.5)
    w = rng.exponential(1.0, n)
    if alpha == 1.0:
        z = np.tan(u)
    else:
        z = (
            np.sin(alpha * u)
            / np.cos(u) ** (1.0 / alpha)
            * (np.cos((1.0 - alpha) * u) / w) ** ((1.0 - alpha) / alpha)
        )
    return scale ** (1.0 / alpha) * z


def _oracle_empirical_spread(g, n_samples, seed):
    """Sorted nonzero |draws| u of one seeded sample of g, weights w = 1/n_samples:
    the empirical M that _piecewise_tau0 solves."""
    draws = np.abs(g.sample(n_samples, np.random.default_rng(seed)))
    u = np.sort(draws[draws > 0])
    if u.size == 0:
        raise PreconditionError("sample has no nonzero draws")
    return u, np.full(u.size, 1.0 / n_samples)


def _oracle_piecewise_tau0(u, w, m_stars):
    """Roots of sum_i w_i min(u_i^2/tau^2, 1) = m_star on sorted positive u,
    one per target in the 1-D sequence m_stars, in order.

    Between consecutive support points M(tau) = A/tau^2 + B with A the
    within-radius second moment and B the outside mass, so the root is exact
    on its piece.  The prefix sums and the knot values are built once for all
    targets (O(len(u))); each target then costs one binary search and a short
    walk over the pieces.
    """
    a_prefix = np.cumsum(w * u * u)
    b_suffix = np.concatenate((np.cumsum(w[::-1])[::-1][1:], [0.0]))
    knot_m = a_prefix / (u * u) + b_suffix
    m_stars = np.asarray(m_stars, dtype=float)
    # knot_m is nonincreasing; find the piece [u_k, u_{k+1}) containing each root.
    starts = np.searchsorted(-knot_m, -m_stars, side="left")
    roots = []
    for m_star, k in zip(m_stars, starts):
        if k == 0:
            raise PreconditionError("target spread above M at the smallest support point")
        idx = int(k) - 1
        while idx < u.size:
            a_i, b_i = a_prefix[idx], b_suffix[idx]
            if m_star > b_i:
                tau = math.sqrt(a_i / (m_star - b_i))
                hi = u[idx + 1] if idx + 1 < u.size else math.inf
                if u[idx] <= tau * (1 + 1e-12) and tau <= hi * (1 + 1e-12):
                    roots.append(tau)
                    break
            idx += 1
        else:
            raise NumericalError("piecewise root not bracketed; inconsistent inputs")
    return roots


def _oracle_weighted_sum(dist, a, n_samples, rng):
    """n_samples draws of S_a; zero weights contribute nothing and are skipped."""
    total = np.zeros(n_samples)
    if isinstance(dist, FiniteDist):
        cum = np.cumsum(dist.masses)
        cum[-1] = 1.0
        for w in a.coords:
            if w == 0.0:
                continue
            idx = np.searchsorted(cum, rng.random(n_samples), side="right")
            total += w * dist.atoms[idx]
    else:
        for w in a.coords:
            if w == 0.0:
                continue
            total += w * dist.sample(n_samples, rng)
    return total


def _oracle_window_sup(points, cum, lam):
    """Max total weight of a closed window [x_i, x_i + lam] over left edges.

    ``cum`` is the length n+1 prefix-sum array of the point weights.  Ties
    resolve to the smallest left edge (first argmax).
    """
    hi = np.searchsorted(points, points + lam, side="right")
    vals = cum[hi] - cum[: points.size]
    k = int(np.argmax(vals))
    return float(vals[k]), k


# ---------------------------------------------------------------------------
# Helpers and strategies
# ---------------------------------------------------------------------------


def _outcome(fn, *args):
    """(bytes of the result, generator state) or the exception type raised;
    bytes compare NaN payloads too."""
    rng = np.random.default_rng(args[-1])
    try:
        with np.errstate(all="ignore"):
            out = fn(*args[:-1], rng)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), rng.bit_generator.state
    return (out.dtype, out.shape, out.tobytes()), rng.bit_generator.state


def _value_or_error(fn):
    try:
        return fn()
    except (PreconditionError, NumericalError) as exc:
        return type(exc)


def _same_array(x, y):
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


alphas = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=2.0, exclude_min=True),
)
# Exponents whose scale^(1/alpha) and draws stay finite enough to solve on.
moderate_alphas = st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.1, 2.0))
scales = st.floats(min_value=1e-3, max_value=1e3)
seeds = st.integers(0, 2**32 - 1)


@st.composite
def finite_laws(draw, min_atoms=2, max_atoms=7):
    k = draw(st.integers(min_atoms, max_atoms))
    atoms = draw(st.lists(st.integers(-20, 20), min_size=k, max_size=k, unique=True))
    masses = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    return FiniteDist([a / 4.0 for a in atoms], masses / masses.sum())


STREAM_BLOCKS = [1, 2, 3, 7]


def _with_block(block, fn):
    """fn() with the stream block of the sampler and the tau0 solver set to
    block entries."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(distributions, "_STREAM_BLOCK", block)
        return fn()


@st.composite
def block_lengths(draw):
    """A block size and a length one short of, at, one past or several times it."""
    block = draw(st.sampled_from(STREAM_BLOCKS + [distributions._STREAM_BLOCK]))
    edges = [block - 1, block, block + 1, 3 * block + 2]
    n = draw(st.one_of(st.sampled_from(edges), st.integers(0, min(12 * block + 5, 3000))))
    return block, n


weight_vectors = st.lists(
    st.one_of(st.just(0.0), st.floats(-3.0, 3.0, allow_subnormal=False)), min_size=1, max_size=6
).filter(lambda ws: any(w != 0.0 for w in ws)).map(WeightVector)


# ---------------------------------------------------------------------------
# Bit identity with the frozen copies
# ---------------------------------------------------------------------------


@settings(max_examples=150, deadline=None)
@given(alpha=alphas, scale=scales, n=st.integers(0, 3000), seed=seeds)
def test_stable_sampler_bit_identical(alpha, scale, n, seed):
    # Same bits (or the same exception) and the same generator state after.
    assert _outcome(sample_symmetric_stable, alpha, scale, n, seed) == _outcome(
        _oracle_stable, alpha, scale, n, seed
    )


@pytest.mark.parametrize("alpha", [1.0, 1.5])
@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 7, 9, 40_000])
def test_stable_sampler_exponential_blocks_keep_stream(alpha, n, monkeypatch):
    # alpha = 1 skips its exponentials in blocks; a block size that does not
    # divide n still leaves the generator where one full draw does.
    monkeypatch.setattr(distributions, "_STREAM_BLOCK", 3)
    assert _outcome(sample_symmetric_stable, alpha, 2.0, n, 11) == _outcome(
        _oracle_stable, alpha, 2.0, n, 11
    )


def _uniforms_then_exponentials(alpha, scale, n, rng):
    """The generator use of the CMS draw with nothing else: n uniforms, then
    n exponentials unless alpha = 1."""
    rng.random(n)
    if alpha != 1.0:
        rng.exponential(1.0, n)
    return np.empty(0)


@settings(max_examples=120, deadline=None)
@given(alpha=alphas, scale=scales, bn=block_lengths(), seed=seeds)
def test_private_stable_draws_skip_no_exponentials(alpha, scale, bn, seed):
    # The public sampler's bits; the generator ends after the uniforms at
    # alpha = 1, and after the exponentials elsewhere, whatever the block.
    block, n = bn
    out, state = _with_block(
        block, lambda: _outcome(distributions._stable_draws, alpha, scale, n, seed))
    assert out == _outcome(sample_symmetric_stable, alpha, scale, n, seed)[0]
    assert state == _outcome(_uniforms_then_exponentials, alpha, scale, n, seed)[1]


@pytest.mark.parametrize("block", STREAM_BLOCKS)
@pytest.mark.parametrize("offset", [-1, 0, 1, "several"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5])
def test_streamed_stable_draws_at_block_edges(block, offset, alpha):
    n = 5 * block + 2 if offset == "several" else block + offset
    assert _with_block(block, lambda: _outcome(sample_symmetric_stable, alpha, 1.5, n, 4)) == (
        _outcome(_oracle_stable, alpha, 1.5, n, 4)
    )


@pytest.mark.parametrize("block", STREAM_BLOCKS)
@pytest.mark.parametrize("offset", [-1, 0, 1, "several"])
def test_streamed_solve_tau0_at_block_edges(block, offset):
    # Root and residual of the empirical solver against the frozen path.
    n = 40 * block + 3 if offset == "several" else max(block + offset, 1)
    g = AnalyticDist.stable(1.5, 2.0)
    targets = [0.5, 0.1, 1.0 / n, 1e-9]
    u, w = _oracle_empirical_spread(g, n, 8)
    assert _with_block(block, lambda: _value_or_error(
        lambda: _piecewise_tau0(u, w[0], targets))) == _value_or_error(
        lambda: _oracle_piecewise_tau0(u, w, targets))

    def live():
        root = solve_tau0(g, 1.5, tol=1.0, n_samples=n, seed=8)
        return root.tau0, root.residual

    def frozen():
        (tau0,) = _oracle_piecewise_tau0(u, w, [1.0 / 2.25])
        return tau0, abs(float(np.sum(w * np.minimum((u / tau0) ** 2, 1.0))) - 1.0 / 2.25)

    assert _with_block(block, lambda: _value_or_error(live)) == _value_or_error(frozen)


class _StubLaw:
    """A law whose draws hold zeros of both signs, NaN and infinities."""

    def sample(self, n, rng):
        x = rng.standard_normal(n)
        x[rng.random(n) < 0.2] = 0.0
        x[rng.random(n) < 0.05] = -0.0
        x[rng.random(n) < 0.02] = np.nan
        x[rng.random(n) < 0.02] = -np.inf
        return x


@settings(max_examples=60, deadline=None)
@given(
    law=st.one_of(
        st.builds(AnalyticDist.stable, moderate_alphas, scales),
        st.builds(AnalyticDist.gaussian, scales),
        st.just(_StubLaw()),
    ),
    n=st.integers(1, 4000),
    seed=seeds,
)
def test_empirical_spread_bit_identical(law, n, seed):
    with np.errstate(all="ignore"):
        try:
            u_ref, w_ref = _oracle_empirical_spread(law, n, seed)
        except PreconditionError:
            with pytest.raises(PreconditionError):
                _empirical_spread(law, n, seed)
            return
        u, w = _empirical_spread(law, n, seed)
    assert _same_array(u, u_ref)
    assert np.ndim(w) == 0 and _same_array(np.full(u.size, w), w_ref)


def test_empirical_spread_without_nonzero_draws():
    class Zeros:
        def sample(self, n, rng):
            return np.zeros(n)

    with pytest.raises(PreconditionError, match="no nonzero draws"):
        _empirical_spread(Zeros(), 10, 0)


@settings(max_examples=120, deadline=None)
@given(
    law=st.builds(AnalyticDist.stable, moderate_alphas, scales),
    bn=block_lengths(),
    seed=seeds,
    Ls=st.lists(st.floats(1.0, 1e3, exclude_min=True), min_size=1, max_size=8),
)
def test_piecewise_tau0_equal_weights_bit_identical(law, bn, seed, Ls):
    # Scalar w (the live empirical path) and the frozen array w give the
    # frozen roots, and so does array w in the live solver, whatever the
    # block size.
    block, n = bn
    with np.errstate(all="ignore"):
        u, w = _empirical_spread(law, max(n, 1), seed)
    w_full = np.full(u.size, w)
    targets = [1.0 / (L * L) for L in Ls]
    expected = _value_or_error(lambda: _oracle_piecewise_tau0(u, w_full, targets))
    for weights in (w, w_full):
        assert _with_block(block, lambda: _value_or_error(
            lambda: _piecewise_tau0(u, weights, targets))) == expected


@settings(max_examples=120, deadline=None)
@given(
    block=st.sampled_from(STREAM_BLOCKS + [distributions._STREAM_BLOCK]),
    u=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=60, unique=True).map(sorted),
    data=st.data(),
)
def test_piecewise_tau0_array_weights_bit_identical(block, u, data):
    # The finite-law path: one weight per support point, whatever the block.
    u = np.array(u)
    w = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=u.size, max_size=u.size)))
    w /= 2.0 * w.sum()
    targets = data.draw(st.lists(st.floats(1e-9, 0.6), min_size=1, max_size=5))
    assert _with_block(block, lambda: _value_or_error(
        lambda: _piecewise_tau0(u, w, targets))) == _value_or_error(
        lambda: _oracle_piecewise_tau0(u, w, targets))


def _outside_masses(w):
    """B_i = sum_{k > i} w_k, as the frozen solver sums them."""
    return np.concatenate((np.cumsum(w[::-1])[::-1][1:], [0.0]))


@st.composite
def spread_supports(draw):
    """Points m 10^e, m in 1..9 and e in -140..-40, weights 2^-1 to 2^-60
    summing to 1/2, and targets at outside masses B_i, 0 < i < n - 1, or one
    ulp above.  Where a point's share A_i/u_i^2 is below B_i's ulp its knot
    rounds onto B, and the root walk steps past the target's piece, often
    past the block that placed it."""
    n = draw(st.integers(3, 8))
    exps = sorted(draw(st.lists(st.integers(-140, -40), min_size=n, max_size=n)))
    mants = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    u = np.unique(np.array(mants, dtype=float) * 10.0 ** np.array(exps, dtype=float))
    assume(u.size >= 3)
    w = 2.0 ** -np.array(draw(st.lists(st.integers(1, 60), min_size=u.size, max_size=u.size)),
                         dtype=float)
    w /= 2.0 * w.sum()
    b = _outside_masses(w)[1:-1]
    picks = st.tuples(st.sampled_from(b.tolist()), st.booleans())
    targets = [np.nextafter(m, 1.0) if up else m
               for m, up in draw(st.lists(picks, min_size=1, max_size=4))]
    return u, w, targets


@settings(max_examples=200, deadline=None)
@given(block=st.sampled_from(STREAM_BLOCKS), case=spread_supports())
def test_piecewise_tau0_walk_past_the_stopped_pass_bit_identical(block, case):
    # The forward pass stops at the block that places the last target; a
    # walk that steps further extends the carries block by block.  Where
    # rounding makes a knot rise, a block search and a whole-array search
    # may place a target differently (they did before the pass could stop),
    # so the knots are kept nonincreasing.
    u, w, targets = case
    assume(np.all(np.diff(np.cumsum(w * u * u) / (u * u) + _outside_masses(w)) <= 0.0))
    assert _with_block(block, lambda: _value_or_error(
        lambda: _piecewise_tau0(u, w, targets))) == _value_or_error(
        lambda: _oracle_piecewise_tau0(u, w, targets))


def _blocks_read(monkeypatch, u):
    """Log of the solver's block reads, as ("A", j) for each prefix (one
    np.ldexp of block j, j from its first point) and ("knots",) for each
    knot build (one np.negative); the points must be distinct."""
    log = []
    ldexp, negative = np.ldexp, np.negative
    size = distributions._STREAM_BLOCK

    def spy_ldexp(x, *args, **kwargs):
        log.append(("A", int(np.searchsorted(u, x[0])) // size))
        return ldexp(x, *args, **kwargs)

    def spy_negative(x, *args, **kwargs):
        log.append(("knots",))
        return negative(x, *args, **kwargs)

    monkeypatch.setattr(np, "ldexp", spy_ldexp)
    monkeypatch.setattr(np, "negative", spy_negative)
    return log


def test_piecewise_tau0_walk_extends_the_carries(monkeypatch):
    # One-point blocks: the target B_1 is placed in block 2, whose knot
    # rounds onto it; the pass stops there, and the walk steps on to the
    # root in the last piece, whose A needs the carries of blocks 3 and 4.
    u = np.array([4.0, 2.0, 1.0, 5.0, 2.0]) * 10.0 ** np.array([-131.0, -129, -57, -47, -46])
    w = 2.0 ** -np.array([35.0, 51, 59, 45, 1])
    w /= 2.0 * w.sum()
    target = float(_outside_masses(w)[1])
    monkeypatch.setattr(distributions, "_STREAM_BLOCK", 1)
    log = _blocks_read(monkeypatch, u)
    roots = _piecewise_tau0(u, w, [target])
    monkeypatch.undo()
    assert roots == _oracle_piecewise_tau0(u, w, [target])
    last_search = max(i for i, event in enumerate(log) if event == ("knots",))
    assert log[last_search - 1] == ("A", 2)
    assert max(event[1] for event in log if event[0] == "A") == 4


@settings(max_examples=100, deadline=None)
@given(
    block=st.sampled_from(STREAM_BLOCKS),
    u=st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=40, unique=True).map(sorted),
    data=st.data(),
)
def test_piecewise_tau0_target_in_every_block_bit_identical(block, u, data):
    # Array weights, with one target at or just below a knot of each block,
    # so every block is searched and places one.
    u = np.array(u)
    w = np.array(data.draw(st.lists(st.floats(1e-6, 1.0), min_size=u.size, max_size=u.size)))
    w /= 2.0 * w.sum()
    knots = np.cumsum(w * u * u) / (u * u) + _outside_masses(w)
    targets = [knots[data.draw(st.integers(lo, min(lo + block, u.size) - 1))]
               * data.draw(st.sampled_from([1.0, 1.0 - 1e-12]))
               for lo in range(0, u.size, block)]
    assert _with_block(block, lambda: _value_or_error(
        lambda: _piecewise_tau0(u, w, targets))) == _value_or_error(
        lambda: _oracle_piecewise_tau0(u, w, targets))


def _finite_spread(law):
    """The support and weights that a finite law's tau0 solves on."""
    sym = distributions.symmetrize(law)
    pos = sym.atoms > 0
    return sym.atoms[pos], 2.0 * sym.masses[pos]


@settings(max_examples=100, deadline=None)
@given(
    block=st.sampled_from(STREAM_BLOCKS),
    small=st.floats(1e-20, 1e-5),
    top=st.floats(1e140, 1e150),
    masses=st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3),
    Ls=st.lists(st.floats(1.01, 1e3), min_size=1, max_size=4),
)
def test_piecewise_tau0_support_past_the_squares_range(block, small, top, masses, Ls):
    # u_max / u_min above 2^537: scaled by max(u)'s exponent alone, the
    # smallest square fell to 0 and its knot was 0/0.  Live and frozen give
    # the same roots or error, and neither warns.
    masses = np.array(masses) / sum(masses)
    u, w = _finite_spread(FiniteDist([0.0, small, top], masses))
    targets = [1.0 / (L * L) for L in Ls]
    assert _with_block(block, lambda: _value_or_error(
        lambda: _piecewise_tau0(u, w, targets))) == _value_or_error(
        lambda: _oracle_piecewise_tau0(u, w, targets))


@pytest.mark.parametrize("block", STREAM_BLOCKS + [distributions._STREAM_BLOCK])
def test_underflow_law_solves_without_a_warning(block):
    # At L^2 = 5/3 the root lies in the first piece, which does not depend
    # on the top atom: 1e151 gives 1e140's bits.  At L = 2 it lies in the
    # top piece, as the unscaled frozen sums find it.
    def law(top):
        return FiniteDist([0.0, 1e-11, top], [0.5, 0.25, 0.25])

    def solve(top, L):
        root = solve_tau0(distributions.symmetrize(law(top)), L)
        return root.tau0, root.residual

    L = 1.2909944487358056
    assert _with_block(block, lambda: solve(1e151, L)) == solve(1e140, L)
    assert solve(1e151, L)[0] == 1.0540925533894596e-11
    tau0, residual = _with_block(block, lambda: solve(1e151, 2.0))
    assert [tau0] == _oracle_piecewise_tau0(*_finite_spread(law(1e151)), [0.25])
    assert residual == 0.0


@pytest.mark.parametrize("alpha", [0.5, 1.0, 1.5, 2.0])
@pytest.mark.parametrize("seed", [0, 1])
def test_piecewise_tau0_builds_knots_only_where_a_target_can_land(alpha, seed, monkeypatch):
    # 98 blocks of 2^10 points: the knots of at most targets + 2 blocks are
    # built (2 to 5 over five seeds; the heavier the tail, the looser the
    # bound), and the roots are the frozen solver's.
    u, w = _empirical_spread(AnalyticDist.stable(alpha, 1.0), 100_000, seed)
    targets = [1.0 / 4.0, 1.0 / 9.0, 1.0 / 100.0]
    expected = _oracle_piecewise_tau0(u, np.full(u.size, w), targets)
    monkeypatch.setattr(distributions, "_STREAM_BLOCK", 2**10)
    log = _blocks_read(monkeypatch, u)
    roots = _piecewise_tau0(u, w, targets)
    monkeypatch.undo()
    assert roots == expected
    assert log.count(("knots",)) <= len(targets) + 2


def _oracle_empirical_root(g, L, n_samples, seed):
    """solve_tau0's empirical branch as it was, on the frozen copies."""
    u, w = _oracle_empirical_spread(g, n_samples, seed)
    m_star = 1.0 / (L * L)
    (tau0,) = _oracle_piecewise_tau0(u, w, [m_star])
    clipped = np.minimum((u / tau0) ** 2, 1.0)
    residual = abs(float(np.sum(w * clipped)) - m_star)
    if residual > 1e-6:
        raise NumericalError("residual above tolerance")
    return tau0, residual


@settings(max_examples=25, deadline=None)
@given(
    alpha=st.floats(0.3, 2.0),
    scale=st.floats(0.1, 10.0),
    L=st.floats(1.2, 50.0),
    tau=st.floats(1e-3, 1e3),
    seed=seeds,
)
def test_empirical_solve_and_stable_m_bit_identical(alpha, scale, L, tau, seed):
    # solve_tau0's root and residual and the stable M against the frozen
    # formulas on the frozen draws.
    g = AnalyticDist.stable(alpha, scale)
    n = 5000
    draws = _oracle_stable(alpha, scale, n, np.random.default_rng(seed))
    expected_m = float(np.mean(np.minimum((draws / tau) ** 2, 1.0)))
    assert m_functional(g, tau, n_samples=n, seed=seed) == expected_m

    def live():
        root = solve_tau0(g, L, n_samples=n, seed=seed)
        return root.tau0, root.residual

    assert _value_or_error(live) == _value_or_error(
        lambda: _oracle_empirical_root(g, L, n, seed)
    )


@settings(max_examples=80, deadline=None)
@given(
    law=st.one_of(
        finite_laws(2, 2),
        finite_laws(3, 7),
        st.builds(AnalyticDist.stable, st.sampled_from([0.5, 1.0, 1.5, 2.0]), scales),
        st.builds(AnalyticDist.gaussian, scales),
    ),
    a=weight_vectors,
    n=st.integers(1, 2000),
    seed=seeds,
)
def test_weighted_sum_bit_identical(law, a, n, seed):
    assert _outcome(sample_weighted_sum, law, a, n, seed) == _outcome(
        _oracle_weighted_sum, law, a, n, seed
    )


@settings(max_examples=30, deadline=None)
@given(law=st.one_of(finite_laws(2, 2), finite_laws(3, 7)), a=weight_vectors,
       lam=st.floats(0.0, 3.0), seed=seeds)
def test_q_monte_carlo_bit_identical(law, a, lam, seed):
    # The sample is sorted in place; the window sweep sees the same points.
    n = MC_MIN_SAMPLES
    sample = np.sort(_oracle_weighted_sum(law, a, n, np.random.default_rng(seed)))
    value, _ = _oracle_window_sup(sample, np.arange(n + 1) / n, lam)
    assert q_monte_carlo(law, a, lam, n, seed).value == value


# ---------------------------------------------------------------------------
# Memory: live length-n arrays, measured deterministically with tracemalloc.
# ---------------------------------------------------------------------------

N_TRACED = 200_000


def _traced_peak_arrays(fn):
    """Peak traced allocation of one call, in units of one float64 array of
    length N_TRACED."""
    fn()  # warm up lazy imports and caches outside the measurement
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8 * N_TRACED)


@pytest.mark.parametrize("case,budget", [
    ("solve_tau0", 1.5),
    ("study_tau0_scaling", 1.5),
    ("stable_draws", 1.5),
    ("m_functional", 1.5),
    ("m_functional_grid", 2.5),
])
def test_sampled_path_traced_peak(case, budget):
    # The draws alone, plus block scratch, for tau0 (the sample is sorted in
    # place, the solver streams it in blocks and the residual reuses it),
    # for the CMS draws and for the stable M at one tau (alpha = 1 skips its
    # exponentials in blocks); the draws plus one scratch buffer for a tau
    # grid.  The scaling study frees each exponent's sample before the next.
    g = AnalyticDist.stable(1.0, 2.0)
    calls = {
        "solve_tau0": lambda: solve_tau0(g, 3.0, n_samples=N_TRACED),
        "study_tau0_scaling": lambda: study_tau0_scaling(
            [0.5, 1.5], [3, 10, 30], n_samples=N_TRACED),
        "stable_draws": lambda: distributions._stable_draws(
            0.5, 2.0, N_TRACED, np.random.default_rng(0)),
        "m_functional": lambda: m_functional(g, 1.0, n_samples=N_TRACED),
        "m_functional_grid": lambda: m_functional(g, [0.5, 1.0, 2.0], n_samples=N_TRACED),
    }
    assert _traced_peak_arrays(calls[case]) <= budget


def test_q_monte_carlo_traced_peak():
    # The sample, the draw buffer and its indices while drawing; then the
    # sample, the keys and the indices, or the sample, the window masses and
    # the left edges i/n, in the window sweep.
    a = WeightVector(np.linspace(0.5, 1.5, 8))
    peak = _traced_peak_arrays(
        lambda: q_monte_carlo(FiniteDist.bernoulli(0.3), a, 0.5, n_samples=N_TRACED)
    )
    assert peak <= 3.5


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_q_monte_carlo_stable_traced_peak(alpha):
    # The running sum and one sample scaled in place, plus the sampler's
    # block scratch; each sample is freed before the next is drawn.
    a = WeightVector(np.linspace(0.5, 1.5, 8))
    peak = _traced_peak_arrays(
        lambda: q_monte_carlo(AnalyticDist.stable(alpha), a, 0.5, n_samples=N_TRACED)
    )
    assert peak <= 2.5


# ---------------------------------------------------------------------------
# Input checks
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("grid", [[], [3.0], [3.0, 10.0], [5.0, 5.0, 5.0]])
def test_tau0_scaling_needs_three_distinct_L(grid):
    with pytest.raises(ValueError, match=f"at least 3 L values, not all equal; got {len(grid)}"):
        study_tau0_scaling([1.0], grid, n_samples=1000)
