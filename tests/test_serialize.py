"""Canonical JSON encoder against a frozen copy of the earlier recursive encoder."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lofo.cli
from lofo.serialize import dumps_canonical


def _oracle_format_float(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite float has no canonical JSON form")
    return format(x, ".17g")


def _oracle(obj) -> str:
    """The recursive encoder that dumps_canonical replaced, kept verbatim."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _oracle_format_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ",".join(f"{json.dumps(k, ensure_ascii=False)}:{_oracle(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(_oracle(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


GRID = ["--s-list", "4,8,16,32,64,128,256",
        "--p-list", "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5", "--n-eps", "40"]


@pytest.mark.parametrize("argv", [
    ["--family", "sparse", "--bound", "crossover", "--L", "2"],
    ["--bound", "binomial_lower"],
    ["--family", "equal_weight", "--bound", "esseen"],
    ["--family", "equal_weight", "--bound", "kolmogorov_rogozin"],
], ids=["crossover", "binomial_lower", "esseen", "kolmogorov_rogozin"])
def test_verify_reports_match_oracle_bytes(argv, monkeypatch):
    # The payload objects as the CLI builds them, numpy scalars included.
    payloads = []
    monkeypatch.setattr(lofo.cli, "_emit", lambda obj, out_path: payloads.append(obj))
    assert lofo.cli.main(["verify", *argv, *GRID]) == 0
    (payload,) = payloads
    assert len(payload["rows"]) >= 1400
    assert dumps_canonical(payload) == _oracle(payload)


_finite = st.floats(allow_nan=False, allow_infinity=False)
_edge = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                         1e308, -1e308, 1.7976931348623157e308, 1.0 / 3.0])
_text = st.text(alphabet=st.characters(codec="utf-8"), max_size=6) | st.sampled_from(
    ["", "é", "ß", "λ", "雪", " ", '"', "\\", "\n", "\x00", "😀"])
_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    _finite,
    _edge,
    (_finite | _edge).map(np.float64),
    st.integers(min_value=-(2**63), max_value=2**63 - 1).map(np.int64),
    _text,
    st.lists(_finite | _edge, max_size=4).map(lambda v: np.array(v, dtype=np.float64)),
    st.lists(st.integers(-(2**63), 2**63 - 1), max_size=4).map(
        lambda v: np.array(v, dtype=np.int64)),
)
_trees = st.recursive(
    _scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(tuple),
        st.dictionaries(_text, children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(_trees)
def test_encoder_matches_oracle_on_random_trees(obj):
    assert dumps_canonical(obj) == _oracle(obj)


@pytest.mark.parametrize("bad", [
    float("nan"), float("inf"), -float("inf"),
    {"a": [1.0, np.float64("nan")]}, [np.float64("-inf")], np.array([1.0, np.inf]),
])
def test_non_finite_floats_raise_value_error(bad):
    with pytest.raises(ValueError):
        dumps_canonical(bad)


@pytest.mark.parametrize("bad", [
    {1: "a", 2: 0.5}, {True: "b"}, [{2.5: None, -1.0: 1}], {"a": {None: []}},
])
def test_non_str_keys_raise_type_error(bad):
    # JSON object keys are strings; the old encoder wrote '{1:"a",2:0.5}'.
    with pytest.raises(TypeError):
        dumps_canonical(bad)


def test_str_subclass_keys_encode_as_str():
    class Key(str):
        pass

    obj = {Key("b"): 1, np.str_("a"): [{Key("a"): 0.5}]}
    assert dumps_canonical(obj) == _oracle(obj) == '{"a":[{"a":0.5}],"b":1}'


@pytest.mark.parametrize("bad", [
    {1, 2}, {"a": [frozenset()]}, (np.bool_(True),), np.array([True, False]),
])
def test_unknown_types_raise_type_error(bad):
    with pytest.raises(TypeError):
        dumps_canonical(bad)
    with pytest.raises(TypeError):
        _oracle(bad)


# Floats from a small pool, so most leaves repeat a value the per-call memo
# already holds; 1.0 sits beside the int 1 and True, which compare equal to it.
_pool = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1, 1.0, 1.0 / 3.0, 2.5e300])
_pooled_scalars = st.one_of(
    _pool, _pool, _pool.map(np.float64), st.sampled_from([0, 1, True, False, None, "x"]))
_pooled_trees = st.recursive(
    _pooled_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=6),
        st.dictionaries(st.sampled_from(["a", "b", "eps", "q"]), children, max_size=4),
    ),
    max_leaves=60,
)


@settings(max_examples=200, deadline=None)
@given(_pooled_trees)
def test_encoder_matches_oracle_on_repeated_floats(obj):
    assert dumps_canonical(obj) == _oracle(obj)


@pytest.mark.parametrize("nan", [float("nan"), np.float64("nan")])
def test_nan_after_memoized_float_raises(nan):
    obj = {"a": [0.5, 0.5, np.float64(0.5)], "b": [0.5, nan]}
    with pytest.raises(ValueError):
        dumps_canonical(obj)
    # A NaN key may be looked up, but no NaN is ever stored in the memo.
    with pytest.raises(ValueError):
        dumps_canonical([nan, nan])
    assert dumps_canonical([0.5, -0.0, 0.0]) == "[0.5,-0,0]"
