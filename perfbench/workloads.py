"""The four benchmark workloads: inputs, ops, and output checks.

``WORKLOADS[name](seed, workdir)`` generates a repetition's inputs and returns
its ops.  An op is one top-level call a lofo user makes: one CLI
command run in-process through ``lofo.cli.main``, or one direct public call.
Ops look lofo functions up at call time, so a traced repetition sees the
wrapped versions.  Each op carries a check that compares its output with a
reference from ``oracles`` (or a frozen reference value) and returns None on
success or a one-line reason.  Checks run after all ops of a repetition.

Inputs depend only on the seed: every repetition of a run does the same
work, so medians over repetitions are taken over like samples, and a traced
repetition can be compared byte for byte with an untraced one.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

import lofo
import lofo.cli
import lofo.fixtures
import lofo.harness

import oracles

S_GRID = "4,8,16,32,64,128,256"
P_GRID = "0.05,0.1,0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5"
P_PERTURBED = "0.15,0.2,0.25,0.3,0.35,0.4,0.45,0.5"

# ratio_sup (c_low for binomial_lower) of the acceptance-grid reports, as
# computed at the commit that introduced the benchmark.  The computations
# are exact, so any drift beyond rounding is a changed result.
REFERENCE = {
    "crossover": 0.9438882632371743,
    "binomial_lower": 0.19812735295492276,
    "esseen": 1.085634873274565,
    "kolmogorov_rogozin": 0.5636388874963648,
    "crossover_perturbed": 1.0187474763532693,
}
REFERENCE_RTOL = 1e-9

LCD_SIZES = (448, 480, 512, 544, 576)
LCD_L = 2.0
LCD_TOL = 1e-8


@dataclass
class Op:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    outputs: tuple = ()             # files a CLI op writes; traced bytes must match


@dataclass
class Rep:
    ops: list
    facts: dict = field(default_factory=dict)   # counts gathered by checks


def rng_for(seed: int, *tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tag])


def _close(x, ref, rtol=REFERENCE_RTOL):
    return abs(x - ref) <= rtol * abs(ref)


# ---------------------------------------------------------------------------
# calibrate: the acceptance grid through `lofo verify`, JSON written and re-read
# ---------------------------------------------------------------------------


def _verify_check(path, key, field_name, n_rows, n_excluded=None):
    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(path, encoding="utf-8") as fh:
            rep = json.load(fh)
        if rep["passed"] is not True:
            return "report did not pass"
        if not _close(rep[field_name], REFERENCE[key]):
            return f"{field_name} {rep[field_name]!r} != reference {REFERENCE[key]!r}"
        if len(rep["rows"]) != n_rows:
            return f"{len(rep['rows'])} rows, expected {n_rows}"
        if n_excluded is not None and rep["n_excluded"] != n_excluded:
            return f"{rep['n_excluded']} excluded, expected {n_excluded}"
        return None
    return check


def _report_check(json_path, csv_path, long_path):
    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(json_path, encoding="utf-8") as fh:
            rows = json.load(fh)["rows"]
        for path in (csv_path, long_path):
            with open(path, newline="") as fh:
                got = list(csv.DictReader(fh))
            if len(got) != len(rows):
                return f"{path}: {len(got)} rows, expected {len(rows)}"
            if any(float(g["ratio"]) != r["ratio"] for g, r in zip(got, rows)):
                return f"{path}: ratio column differs from the JSON"
        return None
    return check


def _verify_op(workdir, tag, argv, key, field_name, n_rows, n_excluded=None):
    path = os.path.join(workdir, f"{tag}.json")
    return Op(
        kind=f"verify_{tag}",
        call=lambda: lofo.cli.main(["verify", *argv, "--out", path]),
        check=_verify_check(path, key, field_name, n_rows, n_excluded),
        outputs=(path,),
    )


def _report_op(workdir, tag):
    src = os.path.join(workdir, f"{tag}.json")
    wide = os.path.join(workdir, f"{tag}.csv")
    long = os.path.join(workdir, f"{tag}_long.csv")
    return Op(
        kind=f"report_{tag}",
        call=lambda: lofo.cli.main(["report", "--in", src, "--out-csv", wide, "--out-long", long]),
        check=_report_check(src, wide, long),
        outputs=(wide, long),
    )


def build_calibrate(seed, workdir):
    del seed  # the acceptance grid is fixed
    grid = ["--s-list", S_GRID, "--p-list", P_GRID, "--n-eps", "40"]
    specs = [
        ("cx", ["--family", "sparse", "--bound", "crossover", "--L", "2", *grid],
         "crossover", "ratio_sup", 2240, 14),
        ("bl", ["--bound", "binomial_lower", *grid], "binomial_lower", "c_low_observed", 2800, None),
        ("es", ["--family", "equal_weight", "--bound", "esseen", *grid], "esseen", "ratio_sup", 2800, 0),
        ("kr", ["--family", "equal_weight", "--bound", "kolmogorov_rogozin", *grid],
         "kolmogorov_rogozin", "ratio_sup", 1400, 0),
    ]
    ops = []
    for tag, argv, key, field_name, n_rows, n_excl in specs:
        ops.append(_verify_op(workdir, tag, argv, key, field_name, n_rows, n_excl))
        ops.append(_report_op(workdir, tag))
    return Rep(ops)


# ---------------------------------------------------------------------------
# lcd_scan: `lofo lcd` on dense Gaussian unit vectors
# ---------------------------------------------------------------------------


def _lcd_check(weights_path, out_path, variant, seed):
    def check(rc):
        if rc != 0:
            return f"exit code {rc}"
        with open(weights_path, encoding="utf-8") as fh:
            a = np.asarray(json.load(fh), dtype=float)
        with open(out_path, encoding="utf-8") as fh:
            res = json.load(fh)
        norm = float(np.linalg.norm(a))
        value, radius, witness = res["value"], res["error_radius"], res["witness_t"]
        if res["variant"] != variant or res["L"] != LCD_L:
            return "result echoes the wrong variant or L"
        if not res["t_start"] <= value <= witness <= res["t_max"]:
            return "bracket not inside the search interval"
        if abs(value + radius - witness) > 4e-16 * witness:
            return "witness is not value + error_radius"
        # Slivers next to the crossing that the cone cannot certify are
        # reported as gaps and widen the bracket past tol (about 3x at
        # tol 1e-8); they must lie inside it, and the bracket stays tight.
        if any(not value <= lo < hi <= witness for lo, hi in res["gaps"]):
            return "uncertified gap outside the bracket"
        if radius > 1e-9 * value:
            return f"bracket width {radius!r} above 1e-9 relative"
        if not oracles.lattice_distance(witness, a) < oracles.lcd_threshold(variant, witness, LCD_L, norm):
            return f"strict inequality fails at witness {witness!r}"
        # Spot check of the certificate: no crossing before the bracket.
        probe = np.random.default_rng([seed, 99]).uniform(res["t_start"], value, 256)
        for t in probe:
            if oracles.lattice_distance(t, a) < oracles.lcd_threshold(variant, t, LCD_L, norm):
                return f"crossing at {t!r} below the certified value {value!r}"
        return None
    return check


def build_lcd_scan(seed, workdir):
    # The scan costs about D* evaluations, and D* of a Gaussian vector varies
    # by 20% from draw to draw.  So the ten vectors (one per size and variant)
    # are drawn once, and the seed permutes and flips their coordinates:
    # dist(t a, Z^n), hence D* and the cost, is invariant under both, while
    # every seed hands the program different inputs.
    ops = []
    for i, n in enumerate(LCD_SIZES):
        for j, variant in enumerate(("d_star", "d")):
            v = np.random.default_rng([i, j]).normal(size=n)
            v /= np.linalg.norm(v)
            rng = rng_for(seed, i, j)
            v = rng.choice((-1.0, 1.0), n) * v[rng.permutation(n)]
            weights = os.path.join(workdir, f"a{n}_{variant}.json")
            out = os.path.join(workdir, f"lcd{n}_{variant}.json")
            with open(weights, "w", encoding="utf-8") as fh:
                json.dump([float(x) for x in v], fh)
            argv = ["lcd", "--weights", weights, "--L", "2", "--variant", variant,
                    "--tol", repr(LCD_TOL), "--out", out]
            ops.append(Op(
                kind=f"lcd_{variant}",
                call=lambda argv=argv: lofo.cli.main(argv),
                check=_lcd_check(weights, out, variant, seed),
                outputs=(out,),
            ))
    return Rep(ops)


# ---------------------------------------------------------------------------
# exact_law: exact laws of weighted sums and Q sweeps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LatticeCase:
    """Sum of w_k X_k with X on integers, placed at offset + step * index."""

    tag: str
    values: tuple
    masses: tuple
    int_weights: tuple
    step: float
    offset: float
    lams: tuple


def _lattice_oracle(case):
    return functools.cache(lambda: oracles.lattice_law(case.values, case.masses, case.int_weights))


def _lattice_law_check(case, oracle, facts):
    def check(law):
        pmf, reach = oracle()
        # Kolmogorov distance, with the CDFs compared halfway between sites.
        mids = case.offset + case.step * (np.arange(pmf.size) + 0.5)
        cdf = np.concatenate(([0.0], np.cumsum(law.masses)))[
            np.searchsorted(law.atoms, mids, side="right")]
        err = float(np.max(np.abs(cdf - np.cumsum(pmf))))
        if err > 1e-12:
            return f"CDF differs from the lattice oracle by {err:.3g}"
        # Atoms away from a reachable site carry negligible mass (the CDF
        # check bounds it) but are wasted support: counted, not failed.
        idx = np.rint((law.atoms - case.offset) / case.step).astype(np.int64)
        inside = (idx >= 0) & (idx < pmf.size)
        on_site = inside & (np.abs(law.atoms - (case.offset + case.step * idx))
                            <= 1e-6 * np.maximum(1.0, np.abs(law.atoms)))
        on_site[on_site] = reach[idx[on_site]]
        facts["off_lattice_atoms"] = facts.get("off_lattice_atoms", 0) + int(np.sum(~on_site))
        inflation = law.n_atoms / int(np.count_nonzero(reach))
        facts["support_inflation"] = max(facts.get("support_inflation", 0.0), inflation)
        return None
    return check


def _q_check(expected_fn, tol=1e-10):
    def check(est):
        expected = expected_fn()
        if abs(est.value - expected) > tol:
            return f"Q {est.value!r} != oracle {expected!r}"
        return None
    return check


def _q_bracket_check(bracket_fn):
    def check(est):
        lo, hi = bracket_fn()
        if not lo - 1e-12 <= est.value <= hi + 1e-12:
            return f"Q {est.value!r} outside oracle bracket [{lo!r}, {hi!r}]"
        return None
    return check


def _law_ops(tag, make_law, law_check, lams, q_checks, state):
    ops = [Op(kind="weighted_sum_dist", call=lambda: state.setdefault(tag, make_law()),
              check=law_check)]
    for lam, qc in zip(lams, q_checks):
        ops.append(Op(kind="q_exact", call=lambda lam=lam: lofo.q_exact(state[tag], lam),
                      check=qc))
    return ops


def _nonlattice_case(seed, n, state):
    rng = rng_for(seed, n)
    atoms = np.sort(rng.uniform(-1.0, 2.0, 3))
    masses = rng.random(3) + 0.2
    masses /= masses.sum()
    weights = rng.normal(size=n)
    f = lofo.FiniteDist(atoms, masses)
    a = lofo.WeightVector(weights)
    outcomes = functools.cache(lambda: oracles.enumerate_sum(atoms, masses, weights))
    mean = float(np.dot(masses, atoms)) * weights.sum()
    var = float(np.dot(masses, (atoms - np.dot(masses, atoms)) ** 2)) * np.dot(weights, weights)
    spread = float(np.abs(weights).sum() * np.abs(atoms).max())

    def law_check(law):
        if law.n_atoms > 3**n:
            return f"{law.n_atoms} atoms, more than the {3**n} outcomes"
        m0 = float(np.sum(law.masses))
        m1 = float(np.dot(law.masses, law.atoms))
        m2 = float(np.dot(law.masses, (law.atoms - m1) ** 2))
        if abs(m0 - 1.0) > 1e-12:
            return f"total mass {m0!r}"
        if abs(m1 - mean) > 1e-9 * spread:
            return f"mean {m1!r} != {mean!r}"
        if abs(m2 - var) > 1e-8 * var:
            return f"variance {m2!r} != {var!r}"
        return None

    # Atoms closer than lofo's coalescing tolerance may merge, so Q is checked
    # against the windows shrunk and grown by a margin well above it.
    delta = 1e-7 * spread
    lams = [0.0, 0.01 * spread, 0.1 * spread]
    q_checks = [
        _q_bracket_check(lambda lam=lam: (
            oracles.window_sup(*outcomes(), max(0.0, lam - delta)),
            oracles.window_sup(*outcomes(), lam + delta)))
        for lam in lams
    ]
    return _law_ops(f"nl{n}", lambda: lofo.weighted_sum_dist(f, a), law_check, lams, q_checks, state)


def build_exact_law(seed, workdir):
    state: dict = {}
    facts: dict = {}
    pert = ["--family", "sparse", "--bound", "crossover", "--perturbed", "--L", "2",
            "--s-list", S_GRID, "--p-list", P_PERTURBED, "--n-eps", "40"]
    ops = [_verify_op(workdir, "pert", pert, "crossover_perturbed", "ratio_sup", 1920, 0)]

    cases = [
        # {0,1,3} with masses (.2,.5,.3) and weights 0.1: n = 480 is the
        # coalescing blow-up (221,411 atoms for 1,435 true ones).
        LatticeCase(f"tri{n}", (0, 1, 3), (0.2, 0.5, 0.3), (1,) * n, 0.1, 0.0,
                    (0.05, 0.25, 0.55, 1.05, 2.55, 5.05))
        for n in (455, 480)
    ] + [
        # Rademacher with a = (1..300): sums on 2Z + offset, 45,151 atoms.
        LatticeCase("rad300", (0, 1), (0.5, 0.5), tuple(range(1, 301)), 2.0,
                    -float(sum(range(1, 301))), (0.0, 1.0, 3.0, 9.0, 99.0)),
    ]
    for case in cases:
        oracle = _lattice_oracle(case)
        # Window lengths sit between lattice multiples, so a window from an
        # atom covers floor(lam / step) + 1 sites whatever the rounding.
        q_checks = [
            _q_check(lambda s=int(math.floor(lam / case.step)) + 1, oracle=oracle:
                     oracles.lattice_window_sup(oracle()[0], s))
            for lam in case.lams
        ]
        if case.tag.startswith("rad"):
            f = lofo.FiniteDist([-1.0, 1.0], [0.5, 0.5])
            a = lofo.WeightVector(np.asarray(case.int_weights, dtype=float))
        else:
            f = lofo.FiniteDist([float(v) for v in case.values], case.masses)
            a = lofo.WeightVector(np.full(len(case.int_weights), case.step))
        ops += _law_ops(case.tag, lambda f=f, a=a: lofo.weighted_sum_dist(f, a),
                        _lattice_law_check(case, oracle, facts), case.lams, q_checks, state)
    for n in (8, 9, 10):
        ops += _nonlattice_case(seed, n, state)
    return Rep(ops, facts)


# ---------------------------------------------------------------------------
# sampled: Monte Carlo, tau0 solvers, quadrature
# ---------------------------------------------------------------------------


def _mc_check(expected_fn, n_samples, facts):
    radius = 2.0 * math.sqrt(math.log(2.0 / (1.0 - 0.99)) / (2.0 * n_samples))

    def check(est):
        if not 0.0 <= est.value <= 1.0 or est.sample_size != n_samples:
            return f"estimate {est!r} malformed"
        if abs(est.error_radius - radius) > 1e-15:
            return f"error radius {est.error_radius!r} != DKW radius {radius!r}"
        facts["mc_total"] = facts.get("mc_total", 0) + 1
        covered = abs(est.value - expected_fn()) <= radius
        facts["mc_covered"] = facts.get("mc_covered", 0) + int(covered)
        return None
    return check


def _tau0_check(target_m, m_of, rtol, method):
    def check(root):
        expected = oracles.solve_decreasing(m_of, target_m)
        if root.method != method:
            return f"method {root.method!r}, expected {method!r}"
        if abs(root.tau0 - expected) > rtol * expected:
            return f"tau0 {root.tau0!r} != oracle {expected!r}"
        return None
    return check


def _slopes_check(fits):
    by_alpha = {f.alpha: f for f in fits}
    if abs(by_alpha[1.0].slope - 2.0) > 0.1 or abs(by_alpha[0.5].slope - 4.0) > 0.2:
        return f"slopes {[f.slope for f in fits]} off 2/alpha"
    if any(f.inconclusive for f in fits):
        return "inconclusive fit"
    return None


def _esseen_check(g, atoms, masses, lam, facts):
    lo, hi = lofo.fixtures.ESSEEN_TWO_SIDED_BRACKET
    inflate = lofo.fixtures.STABILITY_FACTOR

    def check(value):
        expected = oracles.esseen_integral(atoms, masses, lam)
        if abs(value - expected) > 1e-6:
            return f"Esseen integral {value!r} != oracle {expected!r}"
        # The fixture bracket is calibrated on two seeds only; about 5% of
        # other seeded corpora leave it, so it is counted, not failed.
        facts["esseen_total"] = facts.get("esseen_total", 0) + 1
        ratio = lofo.q_exact(g, lam).value / value
        facts["esseen_in_bracket"] = facts.get("esseen_in_bracket", 0) + int(
            lo / inflate <= ratio <= hi * inflate)
        return None
    return check


def _spread_check(rows):
    lo, hi = lofo.fixtures.GAUSSIAN_SPREAD_BRACKET
    for r in rows:
        expected = oracles.m_gaussian(math.sqrt(2.0), r["tau_over_sigma"])
        if abs(r["m"] - expected) > 1e-9:
            return f"M({r['tau_over_sigma']!r}) = {r['m']!r} != {expected!r}"
        if not lo <= r["ratio"] <= hi:
            return f"ratio {r['ratio']!r} outside the fixture bracket"
    return None


def build_sampled(seed, workdir):
    del workdir
    facts: dict = {}
    mc_seed = int(rng_for(seed, 0).integers(2**31))
    n_mc = 100_000
    bern = lofo.FiniteDist.bernoulli(0.5)
    a64 = lofo.WeightVector(np.full(64, 0.125))
    # The sum is Binomial(64, 1/2) / 8; a window of 0.3 covers three sites.
    q_bern = lambda: oracles.lattice_window_sup(
        oracles.lattice_law((0, 1), (0.5, 0.5), (1,) * 64)[0], 3)
    cauchy = lofo.AnalyticDist.stable(1.0)
    a16 = lofo.WeightVector(np.full(16, 0.25))
    # Weighted Cauchy variates sum to a Cauchy law of scale sum |a_k| = 4.
    q_cauchy = lambda: oracles.cauchy_window(4.0, 0.5)
    g_stable = lofo.symmetrize(cauchy)
    g_gauss = lofo.symmetrize(lofo.AnalyticDist.gaussian(1.0))
    # Symmetrization doubles the Cauchy scale and multiplies sigma by sqrt 2.
    m_stable = lambda t: oracles.m_cauchy(2.0, t)
    m_gauss = lambda t: oracles.m_gaussian(math.sqrt(2.0), t)
    L_grid = np.geomspace(3.0, 100.0, 8)

    ops = [
        Op("q_monte_carlo", lambda: lofo.q_monte_carlo(bern, a64, 0.3, n_mc, mc_seed),
           _mc_check(q_bern, n_mc, facts)),
        Op("q_monte_carlo", lambda: lofo.q_monte_carlo(cauchy, a16, 0.5, n_mc, mc_seed),
           _mc_check(q_cauchy, n_mc, facts)),
        Op("solve_tau0", lambda: lofo.solve_tau0(g_stable, 3.0, n_samples=1_000_000, seed=mc_seed),
           _tau0_check(1.0 / 9.0, m_stable, 0.02, "empirical_sample")),
        Op("solve_tau0", lambda: lofo.solve_tau0(g_gauss, 3.0),
           _tau0_check(1.0 / 9.0, m_gauss, 1e-5, "bisection_quadrature")),
        Op("study_tau0_scaling",
           lambda: lofo.harness.study_tau0_scaling([1.0, 0.5], L_grid, seed=mc_seed),
           _slopes_check),
    ]
    rng = rng_for(seed, 1)
    unit = lofo.WeightVector([1.0])
    for _ in range(50):
        atoms = np.sort(rng.uniform(-2.0, 2.0, 5))
        masses = rng.random(5) + 0.2
        masses /= masses.sum()
        g = lofo.symmetrize(lofo.FiniteDist(atoms, masses))
        for lam in (0.1, 1.0, 10.0):
            ops.append(Op("esseen_integral", lambda g=g, lam=lam: lofo.esseen_integral(g, unit, lam),
                          _esseen_check(g, atoms, masses, lam, facts)))
    ops.append(Op("gaussian_spread_relation",
                  lambda: lofo.harness.gaussian_spread_relation(1.0, np.geomspace(0.01, 100.0, 61)),
                  _spread_check))
    return Rep(ops, facts)


WORKLOADS = {
    "calibrate": build_calibrate,
    "lcd_scan": build_lcd_scan,
    "exact_law": build_exact_law,
    "sampled": build_sampled,
}
