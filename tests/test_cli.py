"""CLI subcommands, JSON schemas, determinism, exit codes."""

import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import lofo
from lofo.cli import main
from lofo.concentration import QEstimate, WeightVector
from lofo.distributions import AnalyticDist, FiniteDist
from lofo.exceptions import ParseError
from lofo.serialize import (
    dist_from_json,
    dist_to_json,
    dumps_canonical,
    load_weights,
    write_canonical,
)


@pytest.fixture
def bernoulli_file(tmp_path):
    path = tmp_path / "bernoulli.json"
    path.write_text(json.dumps({"type": "finite", "atoms": [0.0, 1.0], "masses": [0.5, 0.5]}))
    return str(path)


@pytest.fixture
def unit_weight_file(tmp_path):
    path = tmp_path / "a.txt"
    path.write_text("1\n")
    return str(path)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def test_dist_json_round_trip():
    f = FiniteDist.bernoulli(0.3)
    f2 = dist_from_json(dist_to_json(f))
    assert np.all(f2.atoms == f.atoms) and np.all(f2.masses == f.masses)
    g = AnalyticDist.gaussian(2.5)
    g2 = dist_from_json(dist_to_json(g))
    assert g2.kind == "gaussian" and g2.sigma == 2.5
    s = AnalyticDist.stable(1.5, 0.7)
    s2 = dist_from_json(dist_to_json(s))
    assert s2.alpha == 1.5 and s2.scale == 0.7
    with pytest.raises(ValueError):
        dist_from_json({"type": "mystery"})


def test_weights_file_formats(tmp_path):
    arr = tmp_path / "a.json"
    arr.write_text("[0.5, 0.25, 0.25]")
    assert np.allclose(load_weights(str(arr)).coords, [0.5, 0.25, 0.25])
    txt = tmp_path / "a.txt"
    txt.write_text("0.5\n0.25\n0.25\n")
    assert np.allclose(load_weights(str(txt)).coords, [0.5, 0.25, 0.25])


def test_malformed_inputs_are_parse_errors(tmp_path):
    for obj in ([0.5], {"type": "finite", "atoms": [0.0]}, {"type": "gaussian"}):
        with pytest.raises(ParseError):
            dist_from_json(obj)
    for text in ("", "[]", "0.5\nhalf\n", '["a"]'):
        path = tmp_path / "a.txt"
        path.write_text(text)
        with pytest.raises(ParseError):
            load_weights(str(path))


def test_canonical_json_sorted_and_17g():
    text = dumps_canonical({"b": 1.0 / 3.0, "a": [1, 2.5]})
    assert text == '{"a":[1,2.5],"b":0.33333333333333331}'
    # 17 significant digits round-trip losslessly.
    x = math.pi * 1e-7
    assert float(json.loads(dumps_canonical({"x": x}))["x"]) == x


def test_qestimate_round_trip():
    est = QEstimate(value=0.5, method="monte_carlo", error_radius=0.01,
                    sample_size=10_000, seed=3)
    parsed = json.loads(dumps_canonical(est.to_json()))
    assert QEstimate(**parsed) == est


def test_lcd_result_round_trip(tmp_path, unit_weight_file):
    out = tmp_path / "lcd.json"
    assert main(["lcd", "--weights", unit_weight_file, "--L", "1",
                 "--out", str(out)]) == 0
    from lofo.lcd import LcdResult

    parsed = json.loads(out.read_text())
    parsed["gaps"] = tuple(tuple(g) for g in parsed["gaps"])
    res = LcdResult(**parsed)
    assert res.value == pytest.approx(6.0 / 7.0, abs=1e-6)


def test_root_solution_and_shape_round_trip(tmp_path, bernoulli_file):
    from lofo.bounds import BoundShape, RootSolution

    out = tmp_path / "r.json"
    assert main(["tau0", "--dist", bernoulli_file, "--L", "2", "--dstar", "4",
                 "--out", str(out)]) == 0
    root = RootSolution(**json.loads(out.read_text()))
    assert root.tau0 == pytest.approx(math.sqrt(2.0))
    assert root.eps0 == pytest.approx(math.sqrt(2.0) / 4.0)
    assert main(["bound", "--shape", "vershynin", "--L", "3", "--D", "6",
                 "--out", str(out)]) == 0
    shape = BoundShape(**json.loads(out.read_text()))
    assert shape.value == pytest.approx(0.5)


def test_write_canonical_atomic(tmp_path):
    path = tmp_path / "out.json"
    write_canonical({"v": 1.5}, str(path))
    assert path.read_text() == '{"v":1.5}\n'
    assert list(tmp_path.iterdir()) == [path]  # no temp leftovers


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def test_cli_q_exact(bernoulli_file, tmp_path, capsys):
    weights = tmp_path / "a.txt"
    weights.write_text("1\n0.5\n")
    out = tmp_path / "q.json"
    rc = main(["q", "--dist", bernoulli_file, "--weights", str(weights),
               "--lambda", "0.5", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "exact"
    assert payload["value"] == pytest.approx(0.5)
    assert payload["error_radius"] == 0.0


def test_cli_q_gaussian_closed_form(tmp_path):
    dist = tmp_path / "g.json"
    dist.write_text(json.dumps({"type": "gaussian", "sigma": 1.0}))
    weights = tmp_path / "a.txt"
    weights.write_text("1\n")
    out = tmp_path / "q.json"
    rc = main(["q", "--dist", str(dist), "--weights", str(weights),
               "--lambda", "2.0", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "closed_form"
    assert payload["value"] == pytest.approx(0.6826894921370859, abs=1e-12)


@pytest.mark.parametrize("method", ["exact", "monte-carlo", "closed-form"])
def test_cli_q_nan_lambda_is_precondition(method, bernoulli_file, unit_weight_file, tmp_path,
                                          capsys):
    dist = bernoulli_file
    if method == "closed-form":
        dist = tmp_path / "g.json"
        dist.write_text(json.dumps({"type": "gaussian", "sigma": 1.0}))
    argv = ["q", "--dist", str(dist), "--weights", unit_weight_file, "--lambda", "nan",
            "--method", method, "--samples", "10000"]
    assert _run_without_runtime_warnings(argv) == 1
    _one_line_failure(capsys, "precondition violated: window length lambda must be nonnegative")


def test_cli_lcd(unit_weight_file, tmp_path):
    out = tmp_path / "lcd.json"
    rc = main(["lcd", "--weights", unit_weight_file, "--L", "1",
               "--variant", "d_star", "--tol", "1e-6", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(6.0 / 7.0, abs=1e-6)
    assert payload["variant"] == "d_star"
    assert payload["witness_t"] <= payload["value"] + payload["error_radius"] + 1e-15


def test_cli_tau0(bernoulli_file, unit_weight_file, tmp_path):
    out = tmp_path / "tau0.json"
    rc = main(["tau0", "--dist", bernoulli_file, "--L", "2", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["tau0"] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    assert payload["method"] == "piecewise_exact"


def test_cli_bound_shapes(tmp_path):
    out = tmp_path / "b.json"
    rc = main(["bound", "--shape", "lcd_unit", "--D", "10", "--m1", "0.5",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["value"] == pytest.approx(1.0 / (10 * math.sqrt(0.5)))
    rc = main(["bound", "--shape", "kolmogorov_rogozin", "--lambda", "1",
               "--lambda-k", "1,1", "--q-k", "0.5,0.5", "--out", str(out)])
    assert rc == 0
    assert json.loads(out.read_text())["value"] == pytest.approx(1.0)


def test_cli_bound_crossover(bernoulli_file, unit_weight_file, tmp_path):
    out = tmp_path / "c.json"
    rc = main(["bound", "--shape", "crossover", "--dist", bernoulli_file,
               "--weights", unit_weight_file, "--L", "2", "--eps", "0.1",
               "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["id"] == "crossover"
    assert payload["value"] > 0


def test_cli_verify_and_report(tmp_path):
    rep_path = tmp_path / "rep.json"
    rc = main(["verify", "--family", "sparse", "--bound", "crossover",
               "--L", "2", "--s-list", "4,8", "--p-list", "0.3,0.5",
               "--n-eps", "8", "--out", str(rep_path)])
    assert rc == 0
    payload = json.loads(rep_path.read_text())
    assert payload["kind"] == "calibration"
    assert payload["passed"] is True
    csv_path = tmp_path / "rows.csv"
    long_path = tmp_path / "long.csv"
    rc = main(["report", "--in", str(rep_path), "--out-csv", str(csv_path),
               "--out-long", str(long_path)])
    assert rc == 0
    header = csv_path.read_text().splitlines()[0].split(",")
    assert {"instance", "eps", "q", "shape", "ratio"} <= set(header)
    assert long_path.read_text().splitlines()[0] == "instance,eps,q,shape,ratio"


def test_cli_verify_binomial_lower(tmp_path):
    rep_path = tmp_path / "low.json"
    rc = main(["verify", "--bound", "binomial_lower", "--s-list", "4,16",
               "--p-list", "0.3,0.5", "--n-eps", "10", "--out", str(rep_path)])
    assert rc == 0
    payload = json.loads(rep_path.read_text())
    assert payload["kind"] == "binomial_lower"
    assert payload["passed"] is True


_IMPORT_GRAPH = """
import json, sys
def scipy_modules():
    return sorted(m for m in sys.modules if m.startswith("scipy"))
import lofo.cli
after_import = scipy_modules()
rc = lofo.cli.main(["verify", "--bound", "binomial_lower", "--s-list", "4,16",
                    "--p-list", "0.3,0.5", "--n-eps", "4", "--out", sys.argv[1]])
print(json.dumps([after_import, rc, scipy_modules()]))
"""


def test_cli_imports_no_scipy(tmp_path):
    # The runtime needs only numpy; a module-level scipy import would put
    # about a second on every CLI call.
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lofo.__file__)))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_GRAPH, str(tmp_path / "low.json")],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    after_import, rc, after_verify = json.loads(proc.stdout.splitlines()[-1])
    assert after_import == []
    assert rc == 0
    assert after_verify == []


# ---------------------------------------------------------------------------
# Determinism and exit codes
# ---------------------------------------------------------------------------


def test_cli_byte_identical_reruns(bernoulli_file, tmp_path):
    weights = tmp_path / "a.txt"
    weights.write_text("0.70710678118654746\n0.70710678118654746\n")
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    argv = ["q", "--dist", bernoulli_file, "--weights", str(weights),
            "--lambda", "0.1", "--method", "monte-carlo", "--samples", "20000",
            "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_exit_1_on_precondition(bernoulli_file, unit_weight_file, capsys):
    # L^2 <= 1/P for the Bernoulli symmetrization: no crossover scale.
    rc = main(["tau0", "--dist", bernoulli_file, "--L", "1.2"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "L^2" in err


def test_cli_exit_1_on_bad_lambda(bernoulli_file, unit_weight_file):
    rc = main(["q", "--dist", bernoulli_file, "--weights", unit_weight_file,
               "--lambda", "-1"])
    assert rc == 1


def test_cli_exit_2_on_missing_file(unit_weight_file):
    rc = main(["q", "--dist", "/nonexistent/d.json", "--weights", unit_weight_file,
               "--lambda", "1"])
    assert rc == 2


def test_cli_exit_2_on_capacity(tmp_path):
    dist = tmp_path / "d.json"
    atoms = np.sqrt([2.0, 3.0, 5.0, 7.0, 11.0])
    dist.write_text(json.dumps({"type": "finite", "atoms": list(atoms),
                                "masses": [0.2] * 5}))
    weights = tmp_path / "a.txt"
    weights.write_text("\n".join(str(1 + 0.1 * i) for i in range(8)))
    rc = main(["q", "--dist", str(dist), "--weights", str(weights),
               "--lambda", "0.1", "--budget", "100"])
    assert rc == 2


def _one_line_failure(capsys, prefix):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(prefix)


def test_cli_exit_2_on_tau0_numerical_failure(bernoulli_file, capsys):
    # The exact root cannot meet a residual tolerance below double rounding.
    rc = main(["tau0", "--dist", bernoulli_file, "--L", "2", "--tol", "1e-30"])
    assert rc == 2
    _one_line_failure(capsys, "operational failure: crossover residual")


def test_cli_exit_2_on_empty_weights_file(bernoulli_file, tmp_path, capsys):
    empty = tmp_path / "empty.txt"
    empty.write_text("\n")
    rc = main(["q", "--dist", bernoulli_file, "--weights", str(empty), "--lambda", "1"])
    assert rc == 2
    _one_line_failure(capsys, "parse error: empty weight file")


def test_cli_exit_2_on_unknown_distribution_type(unit_weight_file, tmp_path, capsys):
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps({"type": "mystery"}))
    rc = main(["q", "--dist", str(dist), "--weights", unit_weight_file, "--lambda", "1"])
    assert rc == 2
    _one_line_failure(capsys, "parse error: unknown distribution type")


def test_cli_rejects_unknown_flag(bernoulli_file, unit_weight_file):
    with pytest.raises(SystemExit):
        main(["q", "--dist", bernoulli_file, "--weights", unit_weight_file,
              "--lambda", "1", "--bogus", "3"])


@pytest.mark.parametrize(
    "case",
    ["sigma_null", "atom_object", "sigma_text", "atom_text", "report_array",
     "report_scalar_rows", "s_list_text"],
)
def test_cli_malformed_input_is_parse_error(case, unit_weight_file, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    out_csv = str(tmp_path / "out.csv")
    dists = {
        "sigma_null": {"type": "gaussian", "sigma": None},
        "atom_object": {"type": "finite", "atoms": [{}], "masses": [1]},
        "sigma_text": {"type": "gaussian", "sigma": "abc"},
        "atom_text": {"type": "finite", "atoms": ["a"], "masses": [1]},
    }
    if case in dists:
        bad.write_text(json.dumps(dists[case]))
        argv = ["q", "--dist", str(bad), "--weights", unit_weight_file, "--lambda", "1"]
    elif case in ("report_array", "report_scalar_rows"):
        bad.write_text("[]" if case == "report_array" else '{"rows": [1, 2]}')
        argv = ["report", "--in", str(bad), "--out-csv", out_csv]
    else:
        argv = ["verify", "--bound", "crossover", "--s-list", "4,x"]
    assert main(argv) == 2
    _one_line_failure(capsys, "parse error:")


@pytest.mark.parametrize("dist", [
    {"type": "finite", "atoms": [0, 1], "masses": [-0.5, 1.5]},
    {"type": "finite", "atoms": [0, 1], "masses": [0.3, 0.3]},
])
def test_cli_invalid_finite_law_is_precondition(dist, unit_weight_file, tmp_path, capsys):
    # Well-formed numbers that do not make a law stay math preconditions.
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dist))
    assert main(["q", "--dist", str(path), "--weights", unit_weight_file, "--lambda", "1"]) == 1
    _one_line_failure(capsys, "precondition violated: masses")


def test_cli_tiny_L_and_zero_dstar_are_preconditions(bernoulli_file, capsys):
    # L^2 underflows to 0 (so L^2 <= 1/P); D* = 0 leaves eps0 undefined.
    assert main(["tau0", "--dist", bernoulli_file, "--L", "1e-300"]) == 1
    _one_line_failure(capsys, "precondition violated: L^2 <= 1/P")
    assert main(["tau0", "--dist", bernoulli_file, "--L", "2", "--dstar", "0"]) == 1
    _one_line_failure(capsys, "precondition violated:")


def test_cli_crossover_at_tiny_window(unit_weight_file, tmp_path):
    # At eps D* = 1.5e-170 the Gaussian M is 1 to double precision, so the
    # small-eps branch is 1 / (||a|| D*); nothing may underflow on the way.
    dist = tmp_path / "g.json"
    dist.write_text(json.dumps({"type": "gaussian", "sigma": 1.0}))
    out = tmp_path / "s.json"
    rc = main(["bound", "--shape", "crossover", "--dist", str(dist), "--weights",
               unit_weight_file, "--L", "2", "--eps", "1e-170", "--dstar", "1.5",
               "--out", str(out)])
    assert rc == 0
    shape = json.loads(out.read_text())
    assert shape["params"]["branch"] == "small_eps"
    assert shape["value"] == 1.0 / 1.5


def _run_without_runtime_warnings(argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main(argv)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    return rc


def test_cli_lcd_rejects_overflowing_norm(tmp_path, capsys):
    # ||a||^2 overflows to inf; the scan would certify a bracket with t_max < t_start.
    weights = tmp_path / "big.txt"
    weights.write_text("1e308\n1\n")
    assert _run_without_runtime_warnings(["lcd", "--weights", str(weights), "--L", "2"]) == 1
    _one_line_failure(capsys, "precondition violated: Euclidean norm of the weight vector")


@pytest.mark.parametrize("cmd", ["lcd_d", "lcd_d_star", "bound_crossover", "tau0"])
def test_cli_infinite_L_is_precondition(cmd, bernoulli_file, tmp_path, capsys):
    weights = tmp_path / "w.txt"
    weights.write_text("1\n0.5\n")
    argv = {
        "lcd_d": ["lcd", "--weights", str(weights), "--L", "inf", "--variant", "d"],
        "lcd_d_star": ["lcd", "--weights", str(weights), "--L", "inf"],
        "bound_crossover": ["bound", "--shape", "crossover", "--dist", bernoulli_file,
                            "--weights", str(weights), "--L", "inf", "--eps", "0.5"],
        "tau0": ["tau0", "--dist", bernoulli_file, "--L", "inf"],
    }[cmd]
    assert _run_without_runtime_warnings(argv) == 1
    _one_line_failure(capsys, "precondition violated: L must be positive and finite")


@pytest.mark.parametrize("cmd", ["bound_crossover", "tau0"])
def test_cli_overflowing_L_squared_is_precondition(cmd, bernoulli_file, tmp_path, capsys):
    # L = 1e200 is finite, but 1/L^2 rounds to 0 and no piece holds the root.
    weights = tmp_path / "w.txt"
    weights.write_text("1\n0.5\n")
    argv = {
        "bound_crossover": ["bound", "--shape", "crossover", "--dist", bernoulli_file,
                            "--weights", str(weights), "--L", "1e200", "--eps", "0.5",
                            "--dstar", "2"],
        "tau0": ["tau0", "--dist", bernoulli_file, "--L", "1e200"],
    }[cmd]
    assert _run_without_runtime_warnings(argv) == 1
    _one_line_failure(capsys, "precondition violated: L^2 overflows")


@pytest.mark.parametrize("weight,variant,rc", [
    ("1e-200", "d", 0),
    ("1e-200", "d_star", 0),
    ("6e-301", "d_star", 0),
    ("8e-301", "d_star", 0),
    ("1e-307", "d_star", 0),
    ("6e-308", "d_star", 1),
    ("2e-308", "d_star", 1),
    ("1e-310", "d_star", 1),
])
def test_cli_lcd_underflowing_norm(weight, variant, rc, tmp_path, capsys):
    # ||a||^2 underflows to 0; the norm is taken with a sup-norm scale.  At
    # 6e-301 and 8e-301 D* ~ 0.857/||a|| lies past 1e300, so the horizon
    # clamp must follow 1/||a||.  At 6e-308 D* lies past the largest finite
    # horizon 1e307, at 2e-308 the D* scan would start past it, and at
    # 1e-310 it would start at 0.5/||a||_inf = inf.
    weights = tmp_path / "tiny.txt"
    weights.write_text(weight + "\n")
    out = tmp_path / "lcd.json"
    argv = ["lcd", "--weights", str(weights), "--L", "2", "--variant", variant, "--out", str(out)]
    assert _run_without_runtime_warnings(argv) == rc
    if rc == 0:
        res = json.loads(out.read_text())
        assert res["t_start"] < res["witness_t"] <= res["t_max"]
        if variant == "d_star":
            # One weight a: dist(ta, Z) = 1 - ta first falls below ta/6 at ta = 6/7.
            assert float(weight) * res["value"] <= 6 / 7 <= float(weight) * res["witness_t"] * (1 + 1e-12)
            assert float(weight) * res["witness_t"] == pytest.approx(6 / 7, rel=1e-6)
    elif weight == "6e-308":
        _one_line_failure(capsys, "precondition violated: no crossing below 1e+307")
    elif weight == "2e-308":
        _one_line_failure(capsys, "precondition violated: scan start 2.5e+307")
    else:
        _one_line_failure(capsys, "precondition violated: scan start inf")


@pytest.mark.parametrize("weights,L,ta", [
    (["1e-9"], "0.018", 0.9640864623220867),
    (["1e-10"] * 30, "0.1", 0.9636400114703644),
])
def test_cli_lcd_tiny_weights_small_L(weights, L, ta, tmp_path):
    # The unclamped horizon (L/||a||) e^700 overflows, so the horizon is the
    # 1e300 clamp; t * a at the witness is that of the unit-scale vector.
    path = tmp_path / "tiny.txt"
    path.write_text("\n".join(weights) + "\n")
    out = tmp_path / "lcd.json"
    argv = ["lcd", "--weights", str(path), "--L", L, "--variant", "d_star", "--out", str(out)]
    assert _run_without_runtime_warnings(argv) == 0
    res = json.loads(out.read_text())
    assert float(weights[0]) * res["witness_t"] == pytest.approx(ta, rel=1e-12)
    assert res["t_start"] < res["witness_t"] <= res["t_max"] == 1e300


@pytest.mark.parametrize("dist", [
    {"type": "gaussian", "sigma": 1e400},
    {"type": "stable", "alpha": 1.5, "scale": 1e400},
])
def test_cli_infinite_analytic_scale_is_precondition(dist, unit_weight_file, tmp_path, capsys):
    # JSON 1e400 parses to inf.
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dist).replace("Infinity", "1e400"))
    argv = ["q", "--dist", str(path), "--weights", unit_weight_file, "--lambda", "1",
            "--samples", "10000"]
    assert _run_without_runtime_warnings(argv) == 1
    _one_line_failure(capsys, "precondition violated:")


# ---------------------------------------------------------------------------
# Fuzzed command lines: every outcome is an exit code of the contract
# ---------------------------------------------------------------------------


_NUMBERS = ["nan", "inf", "-inf", "0", "-1", "0.5", "2", "3"]
_LISTS = ["0.5,1", "x", "", "4", "nan", "4,8", "-1", "inf"]


@pytest.fixture(scope="module")
def fuzz_paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    texts = {
        "bern.json": json.dumps({"type": "finite", "atoms": [0.0, 1.0], "masses": [0.5, 0.5]}),
        "gauss.json": json.dumps({"type": "gaussian", "sigma": 1.0}),
        "stable.json": json.dumps({"type": "stable", "alpha": 1.5}),
        "truncated.json": "{",
        "array.json": "[1, 2]",
        "sigma_null.json": '{"type": "gaussian", "sigma": null}',
        "atom_object.json": '{"type": "finite", "atoms": [{}], "masses": [1]}',
        "w.txt": "1\n0.5\n",
        "w_nan.txt": "nan\n",
        "w_empty.txt": "",
        "rows_scalar.json": '{"rows": [1, 2]}',
        "report.json": '{"rows": [{"instance": "a", "eps": 0.1, "q": 0.5}]}',
    }
    for name, text in texts.items():
        (d / name).write_text(text)
    p = {name: str(d / name) for name in texts}
    files = list(p.values()) + [str(d / "missing.json"), str(d)]
    outs = [str(d / "out.json"), str(d), str(d / "no_dir" / "out.json")]
    return p, files, outs


def _fuzz_commands(p):
    # Each subcommand: (fuzzed flag -> value kind or choices, cheap valid prefix).
    # Fuzzed flags come after the prefix, so they override it.
    return {
        "q": ({"--dist": "F", "--weights": "F", "--lambda": "N", "--samples": "N",
               "--method": ["auto", "exact", "closed-form", "monte-carlo"],
               "--seed": "N", "--budget": "N", "--out": "O"},
              ["--dist", p["bern.json"], "--weights", p["w.txt"], "--lambda", "0.5",
               "--samples", "10000"]),
        "lcd": ({"--weights": "F", "--L": "N", "--variant": ["d", "d_star"], "--tol": "N",
                 "--out": "O"},
                ["--weights", p["w.txt"], "--L", "2"]),
        "tau0": ({"--dist": "F", "--L": "N", "--tol": "N", "--dstar": "N", "--samples": "N",
                  "--seed": "N", "--out": "O"},
                 ["--dist", p["bern.json"], "--L", "2", "--samples", "2000"]),
        "bound": ({"--shape": ["kolmogorov_rogozin", "esseen", "vershynin", "lcd_unit", "lcd",
                               "no_arithmetic", "crossover", "bernoulli_min"],
                   "--lambda": "N", "--lambda-k": "L", "--q-k": "L", "--m-k": "L", "--L": "N",
                   "--D": "N", "--m1": "N", "--m-tau": "N", "--norm-a": "N", "--norm-inf": "N",
                   "--eps": "N", "--dstar": "N", "--p": "N", "--dist": "F", "--weights": "F",
                   "--tol": "N", "--samples": "N", "--seed": "N", "--out": "O"},
                  ["--shape", "crossover", "--dist", p["bern.json"], "--weights", p["w.txt"],
                   "--L", "2", "--eps", "0.5", "--samples", "2000"]),
        "verify": ({"--family": ["sparse", "equal_weight"],
                    "--bound": ["crossover", "kolmogorov_rogozin", "esseen", "binomial_lower"],
                    "--L": "N", "--s-list": "L", "--p-list": "L", "--n-eps": "N", "--seed": "N",
                    "--perturbed": None, "--out": "O"},
                   ["--bound", "crossover", "--s-list", "4", "--p-list", "0.5", "--n-eps", "2"]),
        "report": ({"--in": "F", "--out-csv": "O", "--out-long": "O"},
                   ["--in", p["report.json"], "--out-csv", p["report.json"] + ".csv"]),
    }


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exit_codes(fuzz_paths, data):
    p, files, outs = fuzz_paths
    values = {"N": st.sampled_from(_NUMBERS), "L": st.sampled_from(_LISTS),
              "F": st.sampled_from(files), "O": st.sampled_from(outs)}
    commands = _fuzz_commands(p)
    cmd = data.draw(st.sampled_from(sorted(commands)))
    flags, argv = commands[cmd]
    argv = [cmd] + argv
    for flag in data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=6)):
        kind = flags[flag]
        argv.append(flag)
        if kind is not None:
            argv.append(data.draw(st.sampled_from(kind) if isinstance(kind, list)
                                  else values[kind]))
    try:
        rc = main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        rc = exc.code
    assert rc in (0, 1, 2), argv
