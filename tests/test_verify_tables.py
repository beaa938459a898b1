"""``verify``'s two tables: bound recipes and instance families.

A bound or a family added as one table row is reachable from ``lofo verify``,
and ``verify`` refuses flag combinations that its tables say cannot run.
"""

import json

import numpy as np
import pytest

from lofo import fixtures, harness
from lofo.cli import build_parser, main
from lofo.harness import InstanceFamily, gen_equal_weight_family


def _verify_choices(dest):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    return next(a.choices for a in sub.choices["verify"]._actions if a.dest == dest)


def test_bound_choices_are_the_recipes_and_the_lower_bound():
    assert _verify_choices("bound") == [*harness._RECIPES, "binomial_lower"]
    assert _verify_choices("family") == list(harness._FAMILIES)


def test_every_recipe_has_a_frozen_fixture():
    assert set(harness._RECIPES) == set(fixtures.RATIO_SUP)


def test_a_table_row_is_reachable_from_verify(monkeypatch, tmp_path):
    seen = []

    def recipe(inst, L, n_eps, memo):
        # Shape 1 at every window: each row's ratio is its Q.
        seen.append((inst.id, L, n_eps))
        memo[inst.id] = memo.get(inst.id, 0) + 1
        grid = np.linspace(0.0, 1.0, n_eps)
        return grid, [1.0] * n_eps, ["dummy"] * n_eps, {"memo": len(memo)}

    def family(s_list, p_list, perturbed):
        seen.append((tuple(s_list), tuple(p_list), perturbed))
        return InstanceFamily("dummy_family", gen_equal_weight_family(s_list, p_list).instances)

    monkeypatch.setitem(harness._RECIPES, "dummy_bound", recipe)
    monkeypatch.setitem(fixtures.RATIO_SUP, "dummy_bound", 1.0)
    monkeypatch.setitem(harness._FAMILIES, "dummy_family", (family, True))
    out = tmp_path / "dummy.json"
    rc = main(["verify", "--family", "dummy_family", "--bound", "dummy_bound", "--perturbed",
               "--L", "3", "--s-list", "4,9", "--p-list", "0.5", "--n-eps", "3",
               "--out", str(out)])
    assert rc == 0
    assert seen == [((4, 9), (0.5,), True), ("equal_n4_p0.5", 3.0, 3), ("equal_n9_p0.5", 3.0, 3)]
    report = json.loads(out.read_text())
    assert (report["kind"], report["bound_id"], report["family_id"]) == (
        "calibration", "dummy_bound", "dummy_family")
    assert [(r["instance"], r["branch"], r["memo"]) for r in report["rows"]] == (
        [("equal_n4_p0.5", "dummy", 1)] * 3 + [("equal_n9_p0.5", "dummy", 2)] * 3)
    assert all(r["ratio"] == r["q"] for r in report["rows"])
    assert report["passed"] is True and report["fixture"] == 1.0


def _one_line_failure(capsys, message):
    err = capsys.readouterr().err
    assert err == f"precondition violated: {message}\n"


@pytest.mark.parametrize("bound,family,conflict", [
    ("esseen", "equal_weight", "--family equal_weight"),
    ("crossover", "equal_weight", "--family equal_weight"),
    ("kolmogorov_rogozin", "equal_weight", "--family equal_weight"),
    ("binomial_lower", "sparse", "--bound binomial_lower"),
    ("binomial_lower", "equal_weight", "--bound binomial_lower"),
])
def test_verify_refuses_perturbed_without_a_zero_tail(bound, family, conflict, tmp_path, capsys):
    # --perturbed used to be dropped here, writing the unperturbed report.
    out = tmp_path / "rep.json"
    rc = main(["verify", "--bound", bound, "--family", family, "--perturbed",
               "--s-list", "4,8", "--p-list", "0.5", "--n-eps", "4", "--out", str(out)])
    assert rc == 1 and not out.exists()
    _one_line_failure(capsys, f"--perturbed conflicts with {conflict}: no zero tail to perturb")


@pytest.mark.parametrize("bound", ["crossover", "kolmogorov_rogozin", "esseen", "binomial_lower"])
@pytest.mark.parametrize("n_eps", ["0", "-3"])
def test_verify_refuses_n_eps_below_one(bound, n_eps, capsys):
    # These used to fail inside the sweep: "min() arg is an empty sequence",
    # numpy's "Number of samples, -3, must be non-negative", or "no instance
    # satisfied the bound preconditions".
    rc = main(["verify", "--bound", bound, "--n-eps", n_eps, "--s-list", "4", "--p-list", "0.5"])
    assert rc == 1
    _one_line_failure(capsys, f"--n-eps must be at least 1; got {n_eps}")


def test_verify_help_says_what_the_lower_bound_runs_on(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "binomial_lower: equal-weight vectors; no --family, --L, --perturbed" in text
