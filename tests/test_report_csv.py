"""CSV rendering against a frozen copy of the csv.DictWriter renderers."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lofo.cli import main
from lofo.harness import rows_to_csv, rows_to_long_csv


def _oracle_rows_to_csv(rows, path):
    """The DictWriter renderer that rows_to_csv replaced, kept verbatim."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to render")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _oracle_rows_to_long_csv(rows, path):
    """The long renderer that rows_to_long_csv replaced, kept verbatim."""
    out = []
    for r in rows:
        out.append(
            {
                "instance": r.get("instance", ""),
                "eps": r.get("eps", ""),
                "q": r.get("q", ""),
                "shape": r.get("shape", r.get("min_form", "")),
                "ratio": r.get("ratio", ""),
            }
        )
    _oracle_rows_to_csv(out, path)


def _outcome(render, rows, path):
    """(error type and message or None, bytes written or None)."""
    try:
        render(rows, str(path))
        error = None
    except ValueError as exc:
        error = (type(exc), str(exc))
    return error, path.read_bytes() if path.exists() else None


# Floats from a small pool, so the per-file memo is hit, with the zeros that
# compare equal but print differently and the non-finite values.
_floats = st.sampled_from(
    [0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 0.1, 1.0, 1.0 / 3.0, 1e16])
_strings = st.sampled_from(
    ["", "a,b", 'say "hi"', "two\nlines", "cr\r", " lead", "plain", "1.0", "é"])
_cells = st.one_of(
    _floats, _floats, _floats.map(np.float64), st.none(), st.booleans(),
    st.integers(-3, 3), _strings, st.lists(_floats | st.integers(0, 2), max_size=3))
_keys = st.sampled_from(["instance", "eps", "q", "shape", "min_form", "ratio", "s", "x,y"])
_rows = st.lists(st.dictionaries(_keys, _cells, max_size=7), max_size=6)
# Rows that all hold one drawn key list, as every report's rows do.  The
# key order of each row is drawn too.
_shared_rows = st.lists(_keys, unique=True, max_size=7).flatmap(
    lambda keys: st.lists(
        st.permutations(keys).flatmap(
            lambda order: st.fixed_dictionaries({k: _cells for k in order})),
        min_size=1, max_size=8))


def _assert_renderers_match_oracle(d, rows):
    for render, oracle in ((rows_to_csv, _oracle_rows_to_csv),
                           (rows_to_long_csv, _oracle_rows_to_long_csv)):
        got = _outcome(render, rows, d / f"{render.__name__}.csv")
        want = _outcome(oracle, rows, d / f"oracle_{render.__name__}.csv")
        assert got == want


@settings(max_examples=300, deadline=None)
@given(_rows)
def test_csv_renderers_match_dictwriter_oracle(tmp_path_factory, rows):
    # Later rows may miss header keys or carry keys outside it (ValueError
    # after the rows before it are written); an empty list has no header.
    _assert_renderers_match_oracle(tmp_path_factory.mktemp("csv"), rows)


@settings(max_examples=300, deadline=None)
@given(_shared_rows)
def test_csv_renderers_match_oracle_on_shared_keys(tmp_path_factory, rows):
    _assert_renderers_match_oracle(tmp_path_factory.mktemp("csv"), rows)


class _Tagged(float):
    """A float subclass that prints apart from its value, as csv writes it."""

    def __str__(self):
        return "tagged"


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("rows", [
    [{"a": 0.0}, {"a": -0.0}, {"a": 0.5}, {"a": -0.0}],
    [{"eps": 0}, {"eps": 0.0}, {"eps": -0.0}, {"eps": 1}, {"eps": 1.0}, {"eps": 0.5}],
    [{"q": 0, "ratio": 1.0}, {"q": 0.0, "ratio": 1}, {"q": 0.25, "ratio": 1.0}],
    [{"ratio": _NAN}, {"ratio": _INF}, {"ratio": -_INF}, {"ratio": float("nan")}],
    [{"s": True}, {"s": 1}, {"s": False}, {"s": 0}, {"s": 1.0}],
    [{"shape": np.float64(0.1)}, {"shape": 0.1}, {"shape": np.float64(-0.0)}],
    [{"shape": 0.5}, {"shape": _Tagged(0.5)}, {"shape": 0.5}],
    [{"instance": [0.1, 1]}, {"instance": []}, {"instance": [0.1, 1]}],
    [{"instance": "a,b"}, {"instance": 'say "hi"'}, {"instance": "cr\r"},
     {"instance": "two\nlines"}, {"instance": "plain"}, {"instance": "a,b"}],
    [{"x,y": 1, 'q"': 2, "ratio": 0.5}],
    [{"a": ""}, {"a": None}, {"a": "x"}, {"a": ""}],
    [{"": ""}, {"": 1}],
    [{"min_form": 0, "eps": 0.5}, {"min_form": 0.25, "eps": 0}],
    [{}, {}],
    [{}],
    [{}, {"a": 1}],
    [{"a": 1, "b": 0.5}, {"b": -0.0, "a": 2}, {"a": 3}, {"a": 4, "c": 0.0}, {"a": 5}],
], ids=["signed_zeros", "int_float_zeros", "int_beside_float", "nonfinite", "bools",
        "np_float64", "float_subclass", "lists", "quoted_strings", "header_quoting",
        "one_key_empty", "empty_key", "min_form", "first_row_empty", "one_empty_row",
        "empty_header_extra_key", "extra_key_after_missing"])
def test_csv_renderers_match_oracle_on_edge_cells(rows, tmp_path):
    _assert_renderers_match_oracle(tmp_path, rows)


def test_csv_extra_keys_raise_dictwriter_error(tmp_path):
    rows = [{"a": 0.5, "b": 1}, {"a": 0.5}, {"a": -0.0, "c": 0.0, "d": None}]
    got = _outcome(rows_to_csv, rows, tmp_path / "got.csv")
    want = _outcome(_oracle_rows_to_csv, rows, tmp_path / "want.csv")
    assert got == want
    assert got[0][1].startswith("dict contains fields not in fieldnames: ")
    assert got[1] == b"a,b\r\n0.5,1\r\n0.5,\r\n"


GRID = ["--s-list", "4,8,16,32,64,128,256",
        "--p-list", "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5", "--n-eps", "40"]


@pytest.mark.parametrize("argv", [
    ["--family", "sparse", "--bound", "crossover", "--L", "2"],
    ["--bound", "binomial_lower"],
    ["--family", "equal_weight", "--bound", "esseen"],
    ["--family", "equal_weight", "--bound", "kolmogorov_rogozin"],
], ids=["crossover", "binomial_lower", "esseen", "kolmogorov_rogozin"])
def test_cli_report_writes_oracle_bytes(argv, tmp_path):
    report = tmp_path / "report.json"
    assert main(["verify", *argv, *GRID, "--out", str(report)]) == 0
    wide, long = tmp_path / "wide.csv", tmp_path / "long.csv"
    assert main(["report", "--in", str(report), "--out-csv", str(wide),
                 "--out-long", str(long)]) == 0
    rows = json.loads(report.read_text(encoding="utf-8"))["rows"]
    assert len(rows) >= 1400
    _oracle_rows_to_csv(rows, str(tmp_path / "oracle_wide.csv"))
    _oracle_rows_to_long_csv(rows, str(tmp_path / "oracle_long.csv"))
    assert wide.read_bytes() == (tmp_path / "oracle_wide.csv").read_bytes()
    assert long.read_bytes() == (tmp_path / "oracle_long.csv").read_bytes()


@pytest.mark.parametrize("out_long", [True, False])
def test_cli_report_matches_separate_renders(out_long, tmp_path):
    # cmd_report renders both files at once; the bytes are those of the two
    # public renderers called apart.
    rows = [{"instance": "x,1", "eps": 0, "q": 0.5, "min_form": 1, "ratio": 0.5},
            {"instance": "x,1", "eps": 0.25, "q": 0, "min_form": 0.75, "ratio": 1.5},
            {"instance": "y", "eps": 0.5, "q": 0.125, "min_form": 0.5, "ratio": 0.25}]
    report = tmp_path / "report.json"
    report.write_text(json.dumps({"rows": rows}), encoding="utf-8")
    wide, long = tmp_path / "wide.csv", tmp_path / "long.csv"
    argv = ["report", "--in", str(report), "--out-csv", str(wide)]
    assert main(argv + (["--out-long", str(long)] if out_long else [])) == 0
    loaded = json.loads(report.read_text(encoding="utf-8"))["rows"]
    rows_to_csv(loaded, str(tmp_path / "apart.csv"))
    rows_to_long_csv(loaded, str(tmp_path / "apart_long.csv"))
    assert wide.read_bytes() == (tmp_path / "apart.csv").read_bytes()
    assert long.exists() == out_long
    if out_long:
        assert long.read_bytes() == (tmp_path / "apart_long.csv").read_bytes()
