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
    for obj in ([0.5], {"type": "finite", "atoms": [0.0]}, {"type": "gaussian"},
                {"type": ["finite"]}, {"type": {}}, {"type": None}, {}):
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


def test_cli_parser_built_once_per_process(bernoulli_file, unit_weight_file, tmp_path,
                                           monkeypatch, capsys):
    # main reuses one parser across calls, a usage error included; each
    # build_parser call still returns a parser of its own.
    assert main(["tau0", "--dist", bernoulli_file, "--L", "2"]) == 0

    def no_build():
        raise AssertionError("main built a second parser")

    monkeypatch.setattr(lofo.cli, "build_parser", no_build)
    with pytest.raises(SystemExit) as exc:
        main(["tau0", "--dist", bernoulli_file])
    assert exc.value.code == 2
    stable = tmp_path / "stable.json"
    stable.write_text(json.dumps({"type": "stable", "alpha": 1.5, "scale": 1.0}))
    assert main(["q", "--dist", str(stable), "--weights", unit_weight_file, "--lambda", "0.5",
                 "--method", "monte-carlo", "--samples", "20000"]) == 0
    assert main(["tau0", "--dist", bernoulli_file, "--L", "2"]) == 0
    monkeypatch.undo()
    assert lofo.cli.build_parser() is not lofo.cli.build_parser()
    capsys.readouterr()


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


# Each bound shape's required flags, in argument order, with valid values.
BOUND_FLAGS = {
    "kolmogorov_rogozin": [("--lambda", "1"), ("--lambda-k", "0.5,1"), ("--q-k", "0.3,0.4")],
    "esseen": [("--lambda", "1"), ("--lambda-k", "0.5,1"), ("--m-k", "0.3,0.4")],
    "vershynin": [("--L", "3"), ("--D", "6")],
    "lcd_unit": [("--D", "10"), ("--m1", "0.5")],
    "lcd": [("--D", "10"), ("--norm-a", "2"), ("--m-tau", "0.5")],
    "no_arithmetic": [("--norm-inf", "0.5"), ("--norm-a", "2"), ("--m-tau", "0.5")],
    "crossover": [("--dist", "DIST"), ("--weights", "WEIGHTS"), ("--L", "2"), ("--eps", "0.5")],
    "bernoulli_min": [("--eps", "0.1"), ("--dstar", "4"), ("--p", "0.3")],
}


def _bound_argv(shape, flags, dist, weights):
    files = {"DIST": dist, "WEIGHTS": weights}
    return ["bound", "--shape", shape] + [x for flag, value in flags
                                          for x in (flag, files.get(value, value))]


# The stdout of each table shape's command line above, frozen from the
# per-shape branches that the flag table replaced.
BOUND_STDOUT = {
    "kolmogorov_rogozin": '{"id":"kolmogorov_rogozin","params":{"lambda":1,"lambda_k":"0.5,1",'
                          '"q_k":"0.3,0.4"},"value":1.1359236684941298}',
    "esseen": '{"id":"esseen","params":{"lambda":1,"lambda_k":"0.5,1","m_k":"0.3,0.4"},'
              '"value":1.4509525002200232}',
    "vershynin": '{"id":"vershynin","params":{"D":6,"L":3},"value":0.5}',
    "lcd_unit": '{"id":"lcd_unit","params":{"D":10,"m1":0.5},"value":0.1414213562373095}',
    "lcd": '{"id":"lcd","params":{"D":10,"m_tau":0.5,"norm_a":2},"value":0.070710678118654752}',
    "no_arithmetic": '{"id":"no_arithmetic","params":{"m_tau":0.5,"norm_a":2,"norm_inf":0.5},'
                     '"value":0.35355339059327373}',
    "bernoulli_min": '{"id":"bernoulli_min","params":{"dstar":4,"eps":0.10000000000000001,'
                     '"p":0.29999999999999999},"value":0.76376261582597327}',
}


@pytest.mark.parametrize("shape", sorted(BOUND_FLAGS))
def test_cli_bound_every_shape(shape, bernoulli_file, unit_weight_file, capsys):
    argv = _bound_argv(shape, BOUND_FLAGS[shape], bernoulli_file, unit_weight_file)
    assert main(argv) == 0
    out = capsys.readouterr().out
    if shape == "crossover":
        assert json.loads(out)["id"] == "crossover"
    else:
        assert out == BOUND_STDOUT[shape] + "\n"


@pytest.mark.parametrize("shape,missing", [
    (shape, k) for shape in sorted(BOUND_FLAGS) for k in range(len(BOUND_FLAGS[shape]))
])
def test_cli_bound_missing_flag_is_named_first(shape, missing, bernoulli_file,
                                               unit_weight_file, capsys, monkeypatch):
    # The missing flag is reported before anything is computed: crossover
    # without --L once reached the LCD scan and died with a TypeError.
    def no_scan(*args, **kwargs):
        raise AssertionError("the LCD scan ran before the flags were checked")

    monkeypatch.setattr(lofo.cli, "lcd_search", no_scan)
    flags = BOUND_FLAGS[shape]
    kept = flags[:missing] + flags[missing + 1:]
    assert main(_bound_argv(shape, kept, bernoulli_file, unit_weight_file)) == 1
    _one_line_failure(
        capsys, f"precondition violated: shape {shape!r} requires {flags[missing][0]}\n"
    )


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


class _DummyKind:
    """A Gaussian law under the JSON type "dummy" that inherits no built-in
    kind's methods: each job calls the public functions on the Gaussian."""

    _q_methods = ("closed-form", "monte-carlo")
    _tau0_tol = 1e-6
    _tau0_method = "bisection_quadrature"

    def __init__(self, sigma):
        self.sigma = sigma
        self.law = AnalyticDist.gaussian(sigma)

    @classmethod
    def _from_json(cls, field):
        return cls(field("sigma"))

    def _symmetrize(self):
        return _DummyKind(lofo.symmetrize(self.law).sigma)

    def _survival(self):
        return lofo.atom_survival(self.law)

    def _m(self, taus, n_samples, seed):
        return lofo.m_functional(self.law, taus, n_samples=n_samples, seed=seed)

    def _tau0(self, m_star, L, n_samples, seed):
        root = lofo.solve_tau0(self.law, L, n_samples=n_samples, seed=seed)
        return root.tau0, root.iterations, root.residual


def test_cli_law_kind_is_one_class_and_one_table_row(tmp_path, unit_weight_file, monkeypatch,
                                                      capsys):
    # A kind registered in the type table alone reaches q, tau0 and the
    # crossover bound, with the bytes of the kind it imitates.
    monkeypatch.setitem(lofo.distributions._KINDS, "dummy", _DummyKind)
    commands = [
        ["q", "--weights", unit_weight_file, "--lambda", "0.5", "--method", "auto"],
        ["tau0", "--L", "3"],
        ["bound", "--shape", "crossover", "--weights", unit_weight_file, "--L", "2",
         "--eps", "0"],
        ["bound", "--shape", "crossover", "--weights", unit_weight_file, "--L", "2",
         "--eps", "0.05"],
    ]
    outputs = {}
    for kind in ("dummy", "gaussian"):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"type": kind, "sigma": 0.7}))
        for i, cmd in enumerate(commands):
            assert main([*cmd, "--dist", str(path)]) == 0
            outputs[kind, i] = capsys.readouterr().out
    for i in range(len(commands)):
        assert outputs["dummy", i] == outputs["gaussian", i] != ""


def test_cli_verify_binomial_lower(tmp_path):
    rep_path = tmp_path / "low.json"
    rc = main(["verify", "--bound", "binomial_lower", "--s-list", "4,16",
               "--p-list", "0.3,0.5", "--n-eps", "10", "--out", str(rep_path)])
    assert rc == 0
    payload = json.loads(rep_path.read_text())
    assert payload["kind"] == "binomial_lower"
    assert payload["passed"] is True


@pytest.mark.parametrize("method,dist,message", [
    ("exact", {"type": "gaussian", "sigma": 1.0},
     "exact concentration needs a finite distribution"),
    ("closed-form", {"type": "stable", "alpha": 1.5},
     "closed-form concentration needs a gaussian law"),
])
def test_cli_q_method_needs_its_law(method, dist, message, unit_weight_file, tmp_path, capsys):
    path = tmp_path / "d.json"
    path.write_text(json.dumps(dist))
    rc = main(["q", "--dist", str(path), "--weights", unit_weight_file, "--lambda", "1",
               "--method", method])
    assert rc == 1
    _one_line_failure(capsys, "precondition violated: " + message)


@pytest.mark.parametrize("bound,family", [
    ("crossover", "sparse"),
    ("crossover", "equal_weight"),
    ("kolmogorov_rogozin", "sparse"),
    ("esseen", "equal_weight"),
    ("binomial_lower", "sparse"),
])
def test_cli_verify_rejects_size_zero(bound, family, capsys):
    # 0 ** -0.5 used to raise ZeroDivisionError; the family generators own the size check.
    rc = main(["verify", "--bound", bound, "--family", family, "--s-list", "0"])
    assert rc == 1
    _one_line_failure(capsys, "precondition violated: every s in --s-list must be at least 1")


@pytest.mark.parametrize("flag,item", [("--s-list", "s"), ("--p-list", "p")])
@pytest.mark.parametrize("bound,family", [
    ("crossover", "sparse"),
    ("crossover", "equal_weight"),
    ("kolmogorov_rogozin", "sparse"),
    ("esseen", "equal_weight"),
    ("binomial_lower", "sparse"),
])
def test_cli_verify_rejects_empty_list(bound, family, flag, item, capsys):
    # An empty --s-list used to fail in max() or min() with a message that
    # named neither the flag nor the condition.
    rc = main(["verify", "--bound", bound, "--family", family, flag, ""])
    assert rc == 1
    _one_line_failure(capsys, f"precondition violated: {flag} must name at least one {item}")


def test_cli_verify_crossover_without_atom_survival_is_excluded(tmp_path, capsys):
    # Bernoulli(1e-300) symmetrizes to P = 0 after rounding: no crossover scale,
    # so the instance is excluded (the harness used to divide by P).
    rc = main(["verify", "--bound", "crossover", "--p-list", "1e-300"])
    assert rc == 1
    _one_line_failure(
        capsys, "precondition violated: no instance satisfied the bound preconditions"
    )
    out = tmp_path / "rep.json"
    rc = main(["verify", "--bound", "crossover", "--p-list", "1e-300,0.5", "--s-list", "4",
               "--n-eps", "4", "--out", str(out)])
    assert rc == 0
    payload = json.loads(out.read_text())
    assert payload["n_excluded"] == 1
    assert {row["p"] for row in payload["rows"]} == {0.5}


def test_cli_verify_binomial_lower_names_bernoulli_parameter(capsys):
    rc = main(["verify", "--bound", "binomial_lower", "--p-list", "1.5"])
    assert rc == 1
    _one_line_failure(capsys, "precondition violated: bernoulli parameter must lie in (0, 1)")


@pytest.mark.parametrize("bound", ["crossover", "kolmogorov_rogozin", "esseen"])
@pytest.mark.parametrize("L", ["nan", "-2", "0", "inf"])
def test_cli_verify_rejects_bad_L_before_the_sweep(bound, L, capsys):
    rc = main(["verify", "--bound", bound, "--L", L, "--s-list", "4", "--p-list", "0.5"])
    assert rc == 1
    _one_line_failure(capsys, "precondition violated: L must be positive and finite")


def test_cli_verify_crossover_overflowing_L_excludes_every_instance(capsys):
    # 1/L^2 rounds to 0, so solve_tau0 finds no crossover scale for any instance.
    rc = main(["verify", "--bound", "crossover", "--L", "1e200", "--s-list", "4",
               "--p-list", "0.5"])
    assert rc == 1
    _one_line_failure(
        capsys, "precondition violated: no instance satisfied the bound preconditions"
    )


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


@pytest.mark.parametrize("argv", [
    ["q", "--dist", "{dist}", "--weights", "{weights}", "--lambda", "0.5"],
    ["lcd", "--weights", "{weights}", "--L", "2"],
    ["tau0", "--dist", "{dist}", "--L", "3"],
    ["bound", "--shape", "vershynin", "--L", "3", "--D", "6"],
    ["verify", "--bound", "crossover", "--s-list", "4,8", "--p-list", "0.25,0.5", "--n-eps", "5"],
], ids=lambda argv: argv[0])
def test_cli_stdout_bytes_equal_out_file_bytes(argv, bernoulli_file, tmp_path, capsysbinary):
    weights = tmp_path / "a.txt"
    weights.write_text("1\n0.5\n")
    argv = [arg.format(dist=bernoulli_file, weights=weights) for arg in argv]
    out = tmp_path / "out.json"
    assert main(argv) == 0
    stdout = capsysbinary.readouterr().out
    assert main(argv + ["--out", str(out)]) == 0
    assert capsysbinary.readouterr().out == b""
    assert stdout == out.read_bytes() and stdout.endswith(b"}\n")


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


@pytest.mark.parametrize("flags,message", [
    (["--shape", "kolmogorov_rogozin", "--lambda", "1", "--lambda-k", "1,1", "--q-k", "1.5,0.2"],
     "each Q_k must lie in [0, 1]"),
    (["--shape", "kolmogorov_rogozin", "--lambda", "1", "--lambda-k", "1", "--q-k", "1.5"],
     "each Q_k must lie in [0, 1]"),
    (["--shape", "esseen", "--lambda", "1", "--lambda-k", "1", "--m-k", "2"],
     "each M_k must lie in [0, 1]"),
    (["--shape", "kolmogorov_rogozin", "--lambda", "nan", "--lambda-k", "1", "--q-k", "0.5"],
     "lambda must be positive and finite"),
    (["--shape", "esseen", "--lambda", "inf", "--lambda-k", "1", "--m-k", "0.5"],
     "lambda must be positive and finite"),
])
def test_cli_bound_classical_rejects_invalid_components(flags, message, capsys):
    # These once exited 0 with a value, or exited 1 blaming the wrong input.
    assert main(["bound", *flags]) == 1
    _one_line_failure(capsys, f"precondition violated: {message}\n")


@pytest.mark.parametrize("flags,code,message", [
    (["--shape", "lcd", "--D", "1e-320", "--norm-a", "1e-10", "--m-tau", "0.5"], 2,
     "operational failure: lcd shape: its denominator underflows to 0"),
    (["--shape", "no_arithmetic", "--norm-inf", "1", "--norm-a", "1e-320", "--m-tau", "1e-10"], 2,
     "operational failure: no_arithmetic shape: its denominator underflows to 0"),
    (["--shape", "vershynin", "--L", "1", "--D", "1e-320"], 2,
     "operational failure: vershynin shape: its value"),
    (["--shape", "lcd_unit", "--D", "1e-320", "--m1", "0.5"], 2,
     "operational failure: lcd_unit shape: its value"),
    (["--shape", "vershynin", "--L", "inf", "--D", "1"], 1,
     "precondition violated: L and D must be positive and finite\n"),
    (["--shape", "bernoulli_min", "--eps", "nan", "--dstar", "2", "--p", "0.5"], 1,
     "precondition violated: need eps >= 0, dstar > 0, p in (0, 1), all finite\n"),
    (["--shape", "crossover", "--dist", "{law}", "--weights", "{weights}", "--L", "3",
      "--eps", "0.1", "--dstar", "inf"], 1,
     "precondition violated: dstar must be positive and finite\n"),
    (["--shape", "crossover", "--dist", "{law}", "--weights", "{weights}", "--L", "3",
      "--eps", "0.1", "--dstar", "1e-320"], 2,
     "operational failure: crossover shape: eps0 = 2.12132 / 9.99989e-321 overflows\n"),
    # The classical shapes: each value overflows.  The first two once warned
    # and exited 1 naming the JSON encoder, the third blamed M_k for vanishing.
    (["--shape", "esseen", "--lambda", "1e300", "--lambda-k", "1e-157", "--m-k", "0.5"], 2,
     "operational failure: esseen shape: its value overflows\n"),
    (["--shape", "kolmogorov_rogozin", "--lambda", "1e300", "--lambda-k", "1e-157",
      "--q-k", "0.5"], 2, "operational failure: kolmogorov_rogozin shape: its value overflows\n"),
    (["--shape", "esseen", "--lambda", "1", "--lambda-k", "1,1e-300", "--m-k", "0,5e-300"], 2,
     "operational failure: esseen shape: its value overflows\n"),
])
def test_cli_bound_scalar_shapes_fail_on_one_line(flags, code, message, bernoulli_file,
                                                   unit_weight_file, capsys):
    # The first two once printed a ZeroDivisionError traceback; the others
    # exited 1 naming the JSON encoder instead of the input.
    flags = [f.format(law=bernoulli_file, weights=unit_weight_file) for f in flags]
    assert main(["bound", *flags]) == code
    _one_line_failure(capsys, message)


@pytest.mark.parametrize("flags,value", [
    # lambda_k^2 underflowed to 0 here, and esseen exited 1 with "all spread
    # functionals vanish"; the shape has degree 0, so it is that of unit windows.
    (["esseen", "--lambda", "1e-200", "--lambda-k", "1e-200", "--m-k", "0.5"], 2.0**0.5),
    (["kolmogorov_rogozin", "--lambda", "1e-200", "--lambda-k", "1e-200", "--q-k", "0.5"],
     2.0**0.5),
    # A zero-weight window of 2^300 once set the scale, the counted window's
    # square underflowed, and the command exited 2.
    (["esseen", "--lambda", repr(2.0**300), "--lambda-k", f"{2.0**300!r},{2.0**-300!r}",
      "--m-k", "0,1"], 2.0**600),
    (["kolmogorov_rogozin", "--lambda", repr(2.0**300), "--lambda-k",
      f"{2.0**300!r},{2.0**-300!r}", "--q-k", "1,0"], 2.0**600),
], ids=["esseen_tiny", "kr_tiny", "esseen_zero_weight", "kr_zero_weight"])
def test_cli_bound_classical_extreme_windows(flags, value, capsys):
    assert main(["bound", "--shape", *flags]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == value


@pytest.mark.parametrize("tol", ["-1", "nan", "0"])
@pytest.mark.parametrize("law", [
    {"type": "finite", "atoms": [0.0, 1.0, 3.0], "masses": [0.2, 0.5, 0.3]},
    {"type": "gaussian", "sigma": 1.0},
])
def test_cli_tau0_rejects_nonpositive_tol(tol, law, tmp_path, capsys):
    # These once solved, then exited 2 with the residual "above tolerance" tol.
    dist = tmp_path / "d.json"
    dist.write_text(json.dumps(law))
    assert main(["tau0", "--dist", str(dist), "--L", "3", "--tol", tol]) == 1
    _one_line_failure(capsys, "precondition violated: tol must be positive\n")


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


@pytest.mark.parametrize("dstar,code,message", [
    ("1e-320", 2,
     "operational failure: crossover shape: eps0 = 2.12132 / 9.99989e-321 overflows\n"),
    ("inf", 1, "precondition violated: dstar must be positive and finite\n"),
])
def test_cli_tau0_checks_eps0_as_the_crossover_shape_does(dstar, code, message, bernoulli_file,
                                                          capsys):
    # tau0 once exited 1 naming the JSON encoder at 1e-320 and printed
    # eps0 = 0 at inf.
    assert main(["tau0", "--dist", bernoulli_file, "--L", "3", "--dstar", dstar]) == code
    _one_line_failure(capsys, message)


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


def test_cli_tau0_gaussian_root_at_large_L(tmp_path):
    # The bisection runs to its bracket: tau0 = sqrt(2) L for N(0, 1) at large L.
    dist = tmp_path / "g.json"
    dist.write_text(json.dumps({"type": "gaussian", "sigma": 1}))
    out = tmp_path / "tau0.json"
    assert main(["tau0", "--dist", str(dist), "--L", "1000", "--out", str(out)]) == 0
    assert abs(json.loads(out.read_text())["tau0"] - 1000.0 * math.sqrt(2.0)) <= 1e-12


def test_cli_stable_crossover_at_overflowing_window_is_quiet(tmp_path):
    # (x / (eps D*))^2 overflows for every draw; the stable M clips it to 1
    # without a RuntimeWarning, so an interpreter that raises on them exits 0.
    dist = tmp_path / "s.json"
    dist.write_text(json.dumps({"type": "stable", "alpha": 1.5}))
    weights = tmp_path / "w.txt"
    weights.write_text("1\n0.5\n")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(lofo.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "lofo.cli", "bound", "--shape",
         "crossover", "--dist", str(dist), "--weights", str(weights), "--L", "3", "--eps",
         "1e-300", "--dstar", "2", "--samples", "1000"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["params"]["branch"] == "small_eps"


@pytest.mark.parametrize("samples", ["0", "-5"])
def test_cli_stable_without_draws_is_precondition(samples, tmp_path, capsys):
    dist = tmp_path / "s.json"
    dist.write_text(json.dumps({"type": "stable", "alpha": 1.5}))
    assert main(["tau0", "--dist", str(dist), "--L", "3", "--samples", samples]) == 1
    _one_line_failure(capsys, f"precondition violated: n_samples must be at least 1, got {samples}")


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
_LISTS = ["0.5,1", "x", "", "4", "nan", "4,8", "-1", "inf", "0", "1e-300"]


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
    # Fuzzed flags come after the prefix, so they override it; the test may
    # drop flags from the prefix, required ones included.
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


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_fuzz_exit_codes(fuzz_paths, data):
    p, files, outs = fuzz_paths
    values = {"N": st.sampled_from(_NUMBERS), "L": st.sampled_from(_LISTS),
              "F": st.sampled_from(files), "O": st.sampled_from(outs)}
    commands = _fuzz_commands(p)
    cmd = data.draw(st.sampled_from(sorted(commands)))
    flags, prefix = commands[cmd]
    pairs = [prefix[i:i + 2] for i in range(0, len(prefix), 2)]
    dropped = data.draw(st.sets(st.sampled_from(range(len(pairs))), max_size=2))
    argv = [cmd] + [x for i, pair in enumerate(pairs) if i not in dropped for x in pair]
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
