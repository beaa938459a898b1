"""Instance families, calibration reports, lower bounds, scaling studies."""

import math

import numpy as np
import pytest

import lofo.harness
from lofo.bounds import _empirical_spread, _piecewise_tau0, solve_tau0
from lofo.concentration import WeightVector, q_exact, weighted_sum_dist
from lofo.distributions import AnalyticDist, FiniteDist
from lofo.exceptions import PreconditionError
from lofo.lcd import lcd as lcd_search
from lofo.harness import (
    calibrate_upper,
    check_lower_binomial,
    gaussian_spread_relation,
    gen_equal_weight_family,
    gen_sparse_family,
    improvement_report,
    ratio_sup_by_s,
    rows_to_csv,
    rows_to_long_csv,
    study_gaussian_window,
    study_tau0_scaling,
)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


def test_sparse_family_deterministic_and_dense_case():
    f1 = gen_sparse_family([4, 16], p_list=[0.3, 0.5])
    f2 = gen_sparse_family([4, 16], p_list=[0.3, 0.5])
    assert [i.id for i in f1.instances] == [i.id for i in f2.instances]
    assert len(f1.instances) == 4
    dense = gen_sparse_family([8], n=8, p_list=[0.5]).instances[0]
    assert np.all(dense.weights.coords == 8**-0.5)


def test_sparse_family_binomial_law():
    inst = gen_sparse_family([4], p_list=[0.5]).instances[0]
    fa = weighted_sum_dist(inst.law, inst.weights)
    assert fa.n_atoms == 5
    assert q_exact(fa, 0.0).value == pytest.approx(0.375)


def test_sparse_family_validates_s_vs_n():
    with pytest.raises(ValueError):
        gen_sparse_family([16], n=8)


def test_sparse_family_both_variants():
    def ids(s_list, n):
        return [i.id for pert in (False, True)
                for i in gen_sparse_family(s_list, n=n, p_list=[0.5], perturbed=pert).instances]

    both = ids([4, 8], 16)
    assert "sparse_s4_p0.5" in both and "sparse_pert_s4_p0.5" in both
    assert len(both) == 4
    # The dense s = n case has no tail to perturb.
    assert ids([8], 8) == ["sparse_s8_p0.5"]


def test_perturbed_family_close_to_unperturbed():
    plain = gen_sparse_family([16], n=32, p_list=[0.5]).instances[0]
    pert = gen_sparse_family([16], n=32, p_list=[0.5], perturbed=True).instances[0]
    assert np.all(pert.weights.coords[16:] == 16.0**-3)
    fa_plain = weighted_sum_dist(plain.law, plain.weights)
    fa_pert = weighted_sum_dist(pert.law, pert.weights)
    # Window not aligned with the lattice pitch: values match to fp accuracy.
    q_plain = q_exact(fa_plain, 0.9).value
    q_pert = q_exact(fa_pert, 0.9).value
    assert abs(q_plain - q_pert) < 1e-3
    # lambda = 1 spans exactly sqrt(s)+1 atoms with closed endpoints, a
    # knife-edge window: perturbation sheds at most one atom's mass.
    q1_plain = q_exact(fa_plain, 1.0).value
    q1_pert = q_exact(fa_pert, 1.0).value
    assert abs(q1_plain - q1_pert) <= float(np.max(fa_plain.masses)) + 1e-12


def test_perturbed_family_preserves_lcd_order():
    from lofo.lcd import lcd

    plain = gen_sparse_family([16], n=32, p_list=[0.5]).instances[0]
    pert = gen_sparse_family([16], n=32, p_list=[0.5], perturbed=True).instances[0]
    d_plain = lcd(plain.weights, 2.0, "d_star", tol=1e-8).value
    d_pert = lcd(pert.weights, 2.0, "d_star", tol=1e-8).value
    assert d_pert == pytest.approx(d_plain, rel=1e-3)


# ---------------------------------------------------------------------------
# Upper calibration
# ---------------------------------------------------------------------------


def test_calibrate_crossover_small_family():
    fam = gen_sparse_family([4, 8, 16], p_list=[0.3, 0.5])
    rep = calibrate_upper("crossover", fam, L=2.0, n_eps=15)
    assert rep.passed
    assert 0 < rep.ratio_inf <= rep.ratio_sup < rep.fixture
    assert rep.n_excluded == 0
    assert all(r["precondition"] == "L^2 > 1/P" for r in rep.rows)
    cum = ratio_sup_by_s(rep)
    assert sorted(cum) == [4, 8, 16]
    assert cum[16] == rep.ratio_sup


def test_calibrate_excludes_precondition_violations():
    # p = 0.05: P = 0.095, 1/P > 4 = L^2, so the instance cannot be scored.
    fam = gen_sparse_family([4], p_list=[0.05, 0.5])
    rep = calibrate_upper("crossover", fam, L=2.0, n_eps=10)
    assert rep.n_excluded == 1
    assert {r["p"] for r in rep.rows} == {0.5}
    with pytest.raises(PreconditionError):
        calibrate_upper("crossover", gen_sparse_family([4], p_list=[0.05]), L=2.0)


def test_calibrate_crossover_perturbed_family():
    reps = [calibrate_upper("crossover",
                            gen_sparse_family([4, 8], n=16, p_list=[0.5], perturbed=pert),
                            L=2.0, n_eps=10)
            for pert in (False, True)]
    assert all(rep.passed for rep in reps)
    rows = [r for rep in reps for r in rep.rows]
    pert_rows = [r for r in rows if r["instance"].startswith("sparse_pert")]
    plain_rows = [r for r in rows if not r["instance"].startswith("sparse_pert")]
    assert pert_rows and plain_rows
    # Perturbation moves neither Q nor D* by much: ratios stay comparable.
    sup_pert = max(r["ratio"] for r in pert_rows)
    sup_plain = max(r["ratio"] for r in plain_rows)
    assert abs(sup_pert - sup_plain) <= 0.15 * sup_plain


@pytest.mark.parametrize("perturbed", [False, True])
def test_calibrate_crossover_scans_each_weight_vector_once(perturbed, monkeypatch):
    # The sparse family reuses one vector across every p: 3 vectors, 9 instances.
    calls = []

    def counted(weights, *args, **kwargs):
        calls.append(weights.coords.tobytes())
        return lcd_search(weights, *args, **kwargs)

    fam = gen_sparse_family([4, 8, 16], n=32, p_list=[0.3, 0.4, 0.5], perturbed=perturbed)
    rep = calibrate_upper("crossover", fam, L=2.0, n_eps=5)
    monkeypatch.setattr(lofo.harness, "lcd_search", counted)
    assert calibrate_upper("crossover", fam, L=2.0, n_eps=5) == rep
    assert len(calls) == len(set(calls)) == 3


def test_calibrate_classical_bounds():
    fam = gen_equal_weight_family([4, 16, 64], p_list=[0.3, 0.5])
    kr = calibrate_upper("kolmogorov_rogozin", fam, L=2.0, n_eps=10)
    es = calibrate_upper("esseen", fam, L=2.0, n_eps=10)
    assert kr.passed and es.passed
    # Refined shape is smaller, so its ratio runs higher.
    assert es.ratio_sup >= kr.ratio_sup


def test_calibrate_rejects_unknown_bound():
    fam = gen_sparse_family([4], p_list=[0.5])
    with pytest.raises(ValueError):
        calibrate_upper("bogus", fam, L=2.0)


# ---------------------------------------------------------------------------
# Binomial lower bound
# ---------------------------------------------------------------------------


def test_lower_binomial_report():
    rep = check_lower_binomial([4, 16, 64], [0.2, 0.5], n_eps=20)
    assert rep.passed
    assert rep.chebyshev_ok and rep.chain_ok
    assert rep.c_low_observed >= rep.fixture


def test_lower_binomial_known_instance():
    rep = check_lower_binomial([4], [0.5], n_eps=2)
    # eps = 0 row: Q = 0.375, min-form = min{(0 + 1/2)/0.5, 1} = 1.
    row0 = [r for r in rep.rows if r["eps"] == 0.0][0]
    assert row0["q"] == pytest.approx(0.375)
    assert row0["min_form"] == pytest.approx(1.0)
    assert row0["mass_two_sigma"] >= 0.75


P_GRID = [0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5]


def test_lower_binomial_two_sigma_mass_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    # Powers of 4 make the weight s^(-1/2) a power of 2; 8, 128 and 3000 do not.
    for s in (4, 8, 16, 64, 128, 256, 1024, 3000, 4096):
        rep = check_lower_binomial([s], P_GRID, n_eps=1)
        assert [r["p"] for r in rep.rows] == P_GRID
        for r in rep.rows:
            p = r["p"]
            k = np.arange(s + 1)
            inside = np.abs(k - s * p) < 2.0 * math.sqrt(s * p * (1.0 - p))
            expected = float(np.sum(stats.binom.pmf(k[inside], s, p)))
            assert abs(r["mass_two_sigma"] - expected) <= 1e-14, (s, p)


def test_lower_binomial_acceptance_grid_verdicts_unchanged():
    # Recorded when the two-sigma mass came from scipy.stats.binom.pmf.
    rep = check_lower_binomial([4, 8, 16, 32, 64, 128, 256], P_GRID, n_eps=40)
    assert rep.chebyshev_ok and rep.chain_ok
    assert rep.c_low_observed == 0.1981273529549226


def test_lower_binomial_large_eps_order_one():
    rep = check_lower_binomial([16, 64], [0.3], n_eps=40)
    sig = math.sqrt(0.3 * 0.7)
    for r in rep.rows:
        if r["eps"] >= 4 * sig - 1e-12:
            assert r["q"] >= 0.75


# ---------------------------------------------------------------------------
# Scaling studies
# ---------------------------------------------------------------------------


def test_tau0_scaling_gaussian_boundary():
    fits = study_tau0_scaling([2.0], np.geomspace(3, 100, 8), seed=1, n_samples=200_000)
    assert fits[0].slope == pytest.approx(1.0, abs=0.05)
    assert not fits[0].inconclusive


def test_tau0_scaling_deterministic():
    grid = np.geomspace(3, 30, 5)
    a = study_tau0_scaling([1.0], grid, seed=3, n_samples=100_000)[0]
    b = study_tau0_scaling([1.0], grid, seed=3, n_samples=100_000)[0]
    assert a.slope == b.slope
    assert a.points == b.points


def test_gaussian_spread_relation_bracket():
    rows = gaussian_spread_relation(1.0, np.geomspace(0.01, 100, 31))
    ratios = [r["ratio"] for r in rows]
    assert min(ratios) >= 0.53
    assert max(ratios) <= 1.0
    # Scale invariance.
    rows2 = gaussian_spread_relation(5.0, [0.5, 2.0])
    rows1 = gaussian_spread_relation(1.0, [0.5, 2.0])
    for r1, r2 in zip(rows1, rows2):
        assert r1["ratio"] == pytest.approx(r2["ratio"], rel=1e-8)


def test_gaussian_window_study():
    rows = study_gaussian_window([1.0, 2.0], dstar=8.0, n_eps=10)
    for r in rows:
        assert r["q_ratio"] <= 0.42
        assert 0.60 <= r["shape_ratio"] <= 1.40
    # Scale covariance: sigma doubled at fixed eps/sigma leaves ratios fixed.
    r1 = [r for r in rows if r["sigma"] == 1.0]
    r2 = [r for r in rows if r["sigma"] == 2.0]
    for a, b in zip(r1, r2):
        assert a["q_ratio"] == pytest.approx(b["q_ratio"], rel=1e-9)


# ---------------------------------------------------------------------------
# Improvement report
# ---------------------------------------------------------------------------


def test_improvement_ratio():
    fam = gen_sparse_family([4], p_list=[0.5])
    rows = improvement_report(fam, L=10.0)
    assert rows[0]["ratio"] == pytest.approx(1.0 / (10.0 * math.sqrt(0.5)), rel=1e-12)
    assert rows[0]["hypothesis"]
    # At L = 1/sqrt(M(1)) the two shapes coincide.
    rows_eq = improvement_report(fam, L=1.0 / math.sqrt(0.5))
    assert rows_eq[0]["ratio"] == pytest.approx(1.0, rel=1e-12)


def test_improvement_below_one_under_hypothesis():
    fam = gen_sparse_family([4, 16], p_list=[0.1, 0.3, 0.5])
    for L in (1.5, 2.0, 5.0):
        for row in improvement_report(fam, L):
            if row["hypothesis"]:
                assert row["ratio"] <= 1.0 + 1e-12
                assert row["refined"] <= row["baseline"] / row["L"] * L + 1e-12


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------


def test_csv_rendering(tmp_path):
    fam = gen_sparse_family([4], p_list=[0.5])
    rep = calibrate_upper("crossover", fam, L=2.0, n_eps=5)
    wide = tmp_path / "rows.csv"
    long = tmp_path / "long.csv"
    rows_to_csv(rep.rows, str(wide))
    rows_to_long_csv(rep.rows, str(long))
    header = wide.read_text().splitlines()[0]
    assert "ratio" in header and "instance" in header
    long_lines = long.read_text().splitlines()
    assert long_lines[0] == "instance,eps,q,shape,ratio"
    assert len(long_lines) == len(rep.rows) + 1


# Frozen stable tau0 scaling fits (alpha -> slope, half_width, tau0 per L;
# repr floats), one 20,000-draw sample per alpha.  The shared empirical
# sample path must reproduce every bit.
GOLDEN_SCALING = {
    0.5: (4.237167073965781, 0.040364250047298385,
          (349.9574988564913, 4062.136823456953, 44385.83746546306,
           553185.2735702156, 5934937.025392952)),
    1.0: (2.160073052222243, 0.04422143328503252,
          (21.543237580718696, 71.40996399625242, 237.78345986050888,
           865.2040483394273, 3102.575950944594)),
    1.5: (1.4333179477151257, 0.028046846651811508,
          (8.991743843918364, 19.955992808692173, 44.757368799682894,
           103.03579095585586, 244.92548438840512)),
    2.0: (1.000780959761312, 0.0009017746568396746,
          (5.987057147354421, 10.670618749405985, 18.975341614443945,
           33.7434592914204, 60.005298881419485)),
}


def test_tau0_scaling_matches_frozen_output():
    grid = np.geomspace(3.0, 30.0, 5)
    fits = study_tau0_scaling(sorted(GOLDEN_SCALING), grid, seed=5, n_samples=20_000)
    for fit in fits:
        slope, half_width, taus = GOLDEN_SCALING[fit.alpha]
        assert (fit.slope, fit.half_width) == (slope, half_width)
        assert fit.points == tuple(zip(grid.tolist(), taus))
        assert fit.expected == 2.0 / fit.alpha and not fit.inconclusive


def test_piecewise_tau0_many_targets_match_one_at_a_time():
    # The frozen scaling sample: all targets in one call give the roots of
    # one call per target, the frozen taus, and solve_tau0's single root.
    grid = np.geomspace(3.0, 30.0, 5)
    targets = [1.0 / (L * L) for L in grid]
    for alpha, (_, _, taus) in GOLDEN_SCALING.items():
        u, w = _empirical_spread(AnalyticDist.stable(alpha, 2.0), 20_000, 5)
        roots = _piecewise_tau0(u, w, targets)
        assert roots == [_piecewise_tau0(u, w, [m])[0] for m in targets] == list(taus)
        root = solve_tau0(AnalyticDist.stable(alpha, 2.0), grid[2], n_samples=20_000, seed=5)
        assert root.tau0 == roots[2]


# ---------------------------------------------------------------------------
# Argument checks on outside input
# ---------------------------------------------------------------------------


_FAMILY = gen_sparse_family([4], p_list=[0.5])


@pytest.mark.parametrize("call,exc,message", [
    (lambda: rows_to_csv([], "unused.csv"), ValueError, "no rows to render"),
    (lambda: gen_sparse_family([0, 4]), ValueError, "every s in --s-list must be at least 1"),
    (lambda: gen_sparse_family([8], n=4), ValueError, "every s must satisfy s <= n"),
    (lambda: gen_equal_weight_family([-1]), ValueError, "every s in --s-list must be at least 1"),
    (lambda: gen_equal_weight_family([4], p_list=[1.5]), ValueError,
     "bernoulli parameter must lie in (0, 1)"),
    (lambda: check_lower_binomial([4], [1.5]), ValueError,
     "bernoulli parameter must lie in (0, 1)"),
    (lambda: calibrate_upper("esseen", _FAMILY, math.nan), ValueError,
     "L must be positive and finite"),
    (lambda: calibrate_upper("kolmogorov_rogozin", _FAMILY, -2.0), ValueError,
     "L must be positive and finite"),
    (lambda: calibrate_upper("vershynin", _FAMILY, 2.0), ValueError,
     "no calibration recipe for bound id 'vershynin'"),
    (lambda: calibrate_upper("crossover", _FAMILY, 2.0, n_eps=0), ValueError,
     "n_eps must be an integer of at least 1; got 0"),
    (lambda: calibrate_upper("esseen", _FAMILY, 2.0, n_eps=-3), ValueError,
     "n_eps must be an integer of at least 1; got -3"),
    (lambda: calibrate_upper("kolmogorov_rogozin", _FAMILY, 2.0, n_eps=1.5), ValueError,
     "n_eps must be an integer of at least 1; got 1.5"),
    (lambda: check_lower_binomial([4], [0.5], n_eps=0), ValueError,
     "n_eps must be an integer of at least 1; got 0"),
    (lambda: check_lower_binomial([4], [0.5], n_eps=-3), ValueError,
     "n_eps must be an integer of at least 1; got -3"),
    (lambda: check_lower_binomial([4], [0.5], n_eps=1.5), ValueError,
     "n_eps must be an integer of at least 1; got 1.5"),
])
def test_harness_input_checks(call, exc, message):
    with pytest.raises(exc) as info:
        call()
    assert type(info.value) is exc and str(info.value).startswith(message)
