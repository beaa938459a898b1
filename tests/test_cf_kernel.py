"""The finite-law characteristic-function kernel against a math.fsum oracle,
its fold of mirrored laws, the analytic kinds' unchanged bits, and cf_eval
through weighted_cf against a direct call of the kernel."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lofo import distributions
from lofo.distributions import AnalyticDist, FiniteDist, cf_eval, symmetrize, weighted_cf

EPS = 2.0**-52


@st.composite
def mirrored_laws(draw):
    """Atoms and masses mirrored bitwise about 0, with or without a zero atom:
    up to 16 folded atoms, so the atom sums run past np.add.reduce's 8-term
    unrolled block.  The atoms are 1e-3 apart or more, so none coalesce."""
    k = draw(st.integers(1, 15))
    ticks = sorted(draw(st.sets(st.integers(1, 3000), min_size=k, max_size=k)))
    half = np.array(ticks) * (draw(st.floats(0.5, 2.0)) / 1000.0)
    w = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
    if draw(st.booleans()):
        atoms, masses = np.concatenate((-half[::-1], [0.0], half)), np.concatenate((w[::-1], [1.0], w))
    else:
        atoms, masses = np.concatenate((-half[::-1], half)), np.concatenate((w[::-1], w))
    return FiniteDist(atoms, masses / masses.sum())


def _laws(min_atoms, max_atoms):
    @st.composite
    def laws(draw):
        k = draw(st.integers(min_atoms, max_atoms))
        atoms = draw(st.lists(st.floats(-3.0, 3.0), min_size=k, max_size=k, unique=True))
        masses = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k, max_size=k)))
        return FiniteDist(np.sort(atoms), masses / masses.sum())
    return laws()


# Laws as drawn, mostly not mirrored: 1 to 20 atoms.
skewed_laws = _laws(1, 20)
# Symmetrized 2- to 7-atom laws: up to 22 folded atoms.
symmetrized_laws = _laws(2, 7).map(symmetrize)
finite_laws = st.one_of(mirrored_laws(), skewed_laws, symmetrized_laws)


def _oracle_factor(f, u):
    """CF of f at the float u as math.fsum sums of its math.cos / math.sin
    terms over every atom, each argument rounded as the kernel rounds it;
    with the sum of the terms' moduli."""
    cos_terms = [p * math.cos(u * x) for x, p in zip(f.atoms.tolist(), f.masses.tolist())]
    sin_terms = [p * math.sin(u * x) for x, p in zip(f.atoms.tolist(), f.masses.tolist())]
    value = complex(math.fsum(cos_terms), math.fsum(sin_terms))
    return value, math.fsum(map(abs, cos_terms)) + math.fsum(map(abs, sin_terms))


@settings(max_examples=300, deadline=None)
@given(
    f=finite_laws,
    a=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    ts=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
)
def test_weighted_cf_matches_fsum_oracle(f, a, ts):
    # Per t: the product over weights of the oracle factors at the float
    # arguments t * a_k.  Allowed error: 8 ulps of each factor's sum of
    # |terms| (one rounding each for the cosine or sine, the mass and every
    # level of the reduction) plus 4 ulps per factor for the product.
    vals = weighted_cf(f, a, np.array(ts))
    for t, got in zip(ts, vals):
        expected, budget = complex(1.0), 4.0 * EPS * len(a)
        for ak in a:
            factor, terms = _oracle_factor(f, t * ak)
            expected *= factor
            budget += 8.0 * EPS * terms
        assert abs(got - expected) <= budget


@settings(max_examples=200, deadline=None)
@given(f=finite_laws, ts=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12))
def test_cf_eval_matches_fsum_oracle(f, ts):
    vals = cf_eval(f, np.array(ts))
    for t, got in zip(ts, vals):
        expected, terms = _oracle_factor(f, t)
        assert abs(got - expected) <= 8.0 * EPS * terms


@settings(max_examples=100, deadline=None)
@given(f=st.one_of(mirrored_laws(), symmetrized_laws))
def test_mirrored_law_folds_onto_its_nonnegative_half(f):
    y, m, o = distributions._cf_fold(f)
    assert o.size == 0 and np.all(y >= 0.0) and y.size == (f.n_atoms + 1) // 2
    assert math.fsum(m) == math.fsum(f.masses)
    assert distributions._cf_fold(f) is f._fold  # built once, then cached
    ts = np.linspace(-5.0, 5.0, 7)
    assert cf_eval(f, ts).dtype == weighted_cf(f, [0.5, 1.0], ts).dtype == np.float64


def test_unmirrored_laws_keep_both_sums():
    for f in (FiniteDist.bernoulli(0.3), FiniteDist([-1.0, 1.0], [0.25, 0.75]),
              FiniteDist([-1.0, 0.5, 1.0], [0.25, 0.5, 0.25])):
        y, m, o = distributions._cf_fold(f)
        assert y is f.atoms and m is f.masses and o is f.masses
        assert cf_eval(f, np.array([0.5, 1.0])).dtype == np.complex128
    # A scalar t gives a complex for every law.
    assert type(cf_eval(symmetrize(FiniteDist.bernoulli(0.3)), 1.0)) is complex
    assert type(weighted_cf(AnalyticDist.gaussian(1.0), [1.0], 1.0)) is complex


def _old_analytic_cf(g, t):
    """The analytic kinds' CF as it was when it returned complex128."""
    if g.kind == "gaussian":
        return np.exp(-0.5 * (g.sigma * t) ** 2) + 0.0j
    return np.exp(-g.scale * np.abs(t) ** g.alpha) + 0.0j


@settings(max_examples=100, deadline=None)
@given(
    g=st.one_of(
        st.builds(AnalyticDist.gaussian, st.floats(0.1, 10.0)),
        st.builds(AnalyticDist.stable, st.floats(0.1, 2.0), st.floats(0.1, 10.0)),
    ),
    a=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=6),
    ts=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=12),
)
def test_analytic_cf_keeps_its_bits(g, a, ts):
    # Real float64 values now; the values and |CF| keep every bit of the
    # complex ones, so the Esseen integrals of these laws do too.
    t = np.array(ts)
    vals = cf_eval(g, t)
    assert vals.dtype == np.float64 and np.array_equal(vals, _old_analytic_cf(g, t).real)
    wvals = weighted_cf(g, a, t)
    old = np.prod(_old_analytic_cf(g, np.outer(t, a).ravel()).reshape(t.size, len(a)), axis=-1)
    assert wvals.dtype == np.float64
    assert np.array_equal(wvals, old.real) and np.array_equal(np.abs(wvals), np.abs(old))


def _cf_nodes_before_weighted_cf(t):
    """t as an array of at least one dimension and max |t| (0 if t is empty);
    ValueError unless every t is finite."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    t_max = float(np.maximum.reduce(np.abs(t_arr), axis=None, initial=0.0))
    if not t_max < math.inf:
        raise ValueError("t must be finite")
    return t_arr, t_max


def _cf_eval_before_weighted_cf(dist, t):
    """cf_eval as it was when it evaluated the kind's kernel itself, not
    through weighted_cf at the unit weight: the reference of the test below."""
    t_arr, t_max = _cf_nodes_before_weighted_cf(t)
    dist._cf_width(t_max)
    vals = dist._cf(t_arr)
    if np.any(np.abs(vals) > 1.0 + 1e-12):
        raise ValueError("characteristic function exceeds modulus 1")
    return complex(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


def _outcome(call):
    """A call's value bytes, Python type, dtype and shape, or its error."""
    try:
        v = call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)
    return type(v), np.asarray(v).dtype, np.shape(v), np.asarray(v).tobytes()


# Moderate t two times in three; else any float, with NaN, inf and overflowing t.
_t_values = st.one_of(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3), st.floats())
_t_inputs = st.one_of(
    _t_values,                                                          # scalar
    _t_values.map(np.float64),                                          # numpy scalar
    _t_values.map(np.array),                                            # 0-d
    st.lists(_t_values, max_size=12),                                   # list, maybe empty
    st.lists(_t_values, max_size=12).map(np.array),                     # 1-D, maybe empty
    st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(            # 2-D, maybe empty
        lambda shape: st.lists(_t_values, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda xs: np.array(xs, dtype=float).reshape(shape))),
)
_all_laws = st.one_of(
    finite_laws,
    st.builds(AnalyticDist.gaussian, st.floats(0.1, 10.0)),
    st.builds(AnalyticDist.stable, st.floats(0.1, 2.0), st.floats(0.1, 10.0)),
)


@settings(max_examples=400, deadline=None)
@given(dist=_all_laws, t=_t_inputs, chunk=st.sampled_from([None, 1, 7, 64]))
def test_cf_eval_keeps_the_bits_of_its_own_kernel_call(dist, t, chunk):
    # cf_eval is weighted_cf at the unit weight; the value bytes, Python
    # type, dtype and shape, or the error and its message, are those of the
    # kernel called on t whole, also when weighted_cf takes t in chunks.
    expected = _outcome(lambda: _cf_eval_before_weighted_cf(dist, t))
    old = distributions._CF_CHUNK_ENTRIES
    distributions._CF_CHUNK_ENTRIES = chunk or old
    try:
        got = _outcome(lambda: cf_eval(dist, t))
    finally:
        distributions._CF_CHUNK_ENTRIES = old
    assert got == expected
