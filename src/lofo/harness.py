"""Instance families, empirical constant calibration, and scaling studies.

Every inequality in this domain carries an unspecified absolute constant.
The harness operationalizes "absolute": an upper bound PASSES when the
supremum of Q/shape over a declared instance corpus is finite, matches its
frozen fixture, stays seed-stable, and does not blow up when the family is
extended.  Lower bounds are checked against frozen minimum ratios the same
way.  Exact Q values are used wherever a finite law permits; Monte Carlo
rows carry their error radii.

Reports are plain dataclasses with ``rows`` (one dict per evaluated
instance/window pair) so they serialize to JSON and render to CSV directly.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    _empirical_spread,
    _piecewise_tau0,
    shape_bernoulli_min,
    shape_crossover,
    shape_esseen,
    shape_kolmogorov_rogozin,
    shape_lcd_unit,
    shape_vershynin,
    solve_tau0,
)
from .concentration import (
    WeightVector,
    _window_sup,
    q_closed_form_gaussian,
    weighted_sum_dist,
)
from .distributions import (
    AnalyticDist,
    FiniteDist,
    _m_finite,
    atom_survival,
    m_functional,
    symmetrize,
)
from .exceptions import PreconditionError
from .lcd import lcd as lcd_search
from . import fixtures


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    id: str
    weights: WeightVector
    law: FiniteDist
    params: dict


@dataclass(frozen=True)
class InstanceFamily:
    id: str
    params: dict
    description: str
    instances: tuple


def gen_sparse_family(
    s_list: Sequence[int],
    n: Optional[int] = None,
    p_list: Sequence[float] = (0.5,),
    *,
    perturbed: bool = False,
) -> InstanceFamily:
    """Vectors with s coordinates s^(-1/2) (rest zero), Bernoulli(p) laws.

    ``perturbed=True`` replaces the zero tail by eta = s^-3, small enough that
    the weighted sum and its least common denominator stay within the
    unperturbed brackets; s = n has no tail and is skipped.  n defaults to
    max(s_list).
    """
    s_list = [int(s) for s in s_list]
    n = max(s_list) if n is None else int(n)
    if any(s > n for s in s_list):
        raise ValueError("every s must satisfy s <= n")
    instances = []
    for s in s_list:
        for p in p_list:
            coords = np.zeros(n)
            coords[:s] = s**-0.5
            tag = f"sparse_s{s}_p{p:g}"
            if perturbed:
                if s == n:
                    continue  # no tail to perturb
                coords[s:] = float(s) ** -3.0
                tag = f"sparse_pert_s{s}_p{p:g}"
            instances.append(
                Instance(
                    id=tag,
                    weights=WeightVector(coords),
                    law=FiniteDist.bernoulli(p),
                    params={"s": s, "p": p, "perturbed": perturbed, "n": n},
                )
            )
    return InstanceFamily(
        id="sparse_perturbed" if perturbed else "sparse",
        params={"s_list": s_list, "n": n, "p_list": list(p_list)},
        description="equal-weight s-sparse vectors with Bernoulli summands",
        instances=tuple(instances),
    )


def gen_equal_weight_family(
    n_list: Sequence[int], p_list: Sequence[float] = (0.5,)
) -> InstanceFamily:
    """Dense n^(-1/2)-weight vectors: the no-structure baseline corpus."""
    return InstanceFamily(
        id="equal_weight",
        params={"n_list": list(n_list), "p_list": list(p_list)},
        description="dense equal-weight vectors with Bernoulli summands",
        instances=tuple(
            Instance(
                id=f"equal_n{n}_p{p:g}",
                weights=WeightVector(np.full(n, n**-0.5)),
                law=FiniteDist.bernoulli(p),
                params={"s": n, "p": p, "perturbed": False, "n": n},
            )
            for n in n_list
            for p in p_list
        ),
    )


# ---------------------------------------------------------------------------
# Upper-bound calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport:
    """Per-instance Q/shape ratios for one bound over one family."""

    bound_id: str
    family_id: str
    L: float
    rows: tuple
    ratio_sup: float
    ratio_inf: float
    n_excluded: int
    fixture: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "bound_id": self.bound_id,
            "family_id": self.family_id,
            "L": self.L,
            "rows": [dict(r) for r in self.rows],
            "ratio_sup": self.ratio_sup,
            "ratio_inf": self.ratio_inf,
            "n_excluded": self.n_excluded,
            "fixture": self.fixture,
            "passed": self.passed,
        }


def _crossover_rows(inst: Instance, L: float, n_eps: int):
    p = inst.params["p"]
    g = symmetrize(inst.law)
    p_surv = atom_survival(g)
    if L * L <= 1.0 / p_surv:
        return None  # precondition fails: excluded, counted by caller
    root = solve_tau0(g, L)
    dstar = lcd_search(inst.weights, L, "d_star", tol=1e-8).value
    fa = weighted_sum_dist(inst.law, inst.weights)
    eps_grid = np.linspace(0.0, 4.0 * math.sqrt(p * (1.0 - p)), n_eps)
    rows = []
    for eps, q_val in zip(eps_grid, _window_sup(fa.atoms, fa.masses, eps_grid)):
        shape = shape_crossover(inst.weights, g, L, float(eps), dstar, root=root)
        rows.append(
            {
                "instance": inst.id,
                "s": inst.params["s"],
                "p": p,
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


def _classical_rows(inst: Instance, L: float, n_eps: int, bound_id: str):
    # i.i.d. summands Y_k = a_k X with windows lambda_k = a_k tau scaled to
    # lambda = ||a||_inf tau; Q and M of a scaled law are scale-covariant.
    # The component values (Q of f, or M of its symmetrization) and Q of the
    # sum are each fetched for the whole tau grid in one call.
    a = inst.weights
    f = inst.law
    nz = a.coords[a.coords != 0.0]
    fa = weighted_sum_dist(f, a)
    taus = np.geomspace(0.25, 4.0, n_eps)
    lams = a.norm_inf * taus
    if bound_id == "kolmogorov_rogozin":
        comps = _window_sup(f.atoms, f.masses, taus)
    else:
        comps = _m_finite(symmetrize(f), taus)
    q_vals = _window_sup(fa.atoms, fa.masses, lams)
    rows = []
    for tau, lam, comp, q_val in zip(taus, lams.tolist(), comps, q_vals):
        lam_k = np.abs(nz) * tau
        if bound_id == "kolmogorov_rogozin":
            if comp >= 1.0:
                continue
            shape_val = shape_kolmogorov_rogozin(lam, lam_k, [comp] * nz.size)
        else:
            if comp <= 0.0:
                continue
            shape_val = shape_esseen(lam, lam_k, [comp] * nz.size)
        rows.append(
            {
                "instance": inst.id,
                "s": inst.params["s"],
                "p": inst.params["p"],
                "eps": lam,
                "q": q_val,
                "shape": shape_val,
                "ratio": q_val / shape_val,
                "branch": "",
                "precondition": "nondegenerate components",
            }
        )
    return rows


def calibrate_upper(
    bound_id: str,
    family: InstanceFamily,
    L: float,
    *,
    n_eps: int = 40,
) -> CalibrationReport:
    """Ratio sweep Q/shape for one bound id over a family.

    Instances violating the bound's precondition are excluded and counted,
    never scored.  D* is certified to tol 1e-8.  PASS means ratio_sup <=
    fixture, the bound's frozen constant in ``fixtures.RATIO_SUP``.
    """
    if bound_id == "crossover":
        worker = lambda inst: _crossover_rows(inst, L, n_eps)
    elif bound_id in ("kolmogorov_rogozin", "esseen"):
        worker = lambda inst: _classical_rows(inst, L, n_eps, bound_id)
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


def ratio_sup_by_s(report: CalibrationReport) -> dict[int, float]:
    """Cumulative ratio_sup as the family extends through increasing s."""
    by_s: dict[int, float] = {}
    for row in report.rows:
        s = int(row["s"])
        by_s[s] = max(by_s.get(s, 0.0), row["ratio"])
    out, running = {}, 0.0
    for s in sorted(by_s):
        running = max(running, by_s[s])
        out[s] = running
    return out


# ---------------------------------------------------------------------------
# Binomial lower bound
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LowerBoundReport:
    rows: tuple
    c_low_observed: float
    chebyshev_ok: bool
    chain_ok: bool
    fixture: float
    passed: bool

    def to_json(self) -> dict:
        return {
            "rows": [dict(r) for r in self.rows],
            "c_low_observed": self.c_low_observed,
            "chebyshev_ok": self.chebyshev_ok,
            "chain_ok": self.chain_ok,
            "fixture": self.fixture,
            "passed": self.passed,
        }


def check_lower_binomial(
    s_list: Sequence[int],
    p_list: Sequence[float],
    n_eps: int = 40,
) -> LowerBoundReport:
    """Exact Q(F_a, eps) >= c_low * min{(eps + 1/sqrt(s)) / sqrt(p(1-p)), 1}.

    F_a is the rescaled binomial of the s-sparse equal-weight vector.  Also
    reproduces the derivation chain with explicit constants:
      * two-sigma mass >= 3/4 (Chebyshev, checked exactly: the masses are
        those of the exact law F_a, whose atom k/sqrt(s) carries P(B = k)),
      * Q(F_a, eps) >= (3/32) eps / sqrt(p(1-p)) for eps <= 4 sqrt(p(1-p))
        when s p(1-p) > 1 (window covering),
      * Q(F_a, 0) >= (3/64) / sqrt(s p(1-p)) (lattice pitch s^(-1/2)).

    PASS also needs the observed constant to reach the frozen
    ``fixtures.BINOMIAL_LOWER_C``.
    """
    rows = []
    chebyshev_ok = True
    chain_ok = True
    for s in s_list:
        for p in p_list:
            sig = math.sqrt(p * (1.0 - p))
            w = s**-0.5
            fa = weighted_sum_dist(FiniteDist.bernoulli(p), WeightVector(np.full(s, w)))
            # Chebyshev step: mass within 2 * sd(B) of the mean, exactly.  The
            # atom w * k of fa carries the binomial mass P(B = k).
            sd_b = math.sqrt(s * p * (1.0 - p))
            k = np.rint(fa.atoms / w)
            inside = np.abs(k - s * p) < 2.0 * sd_b
            mass2sd = float(np.sum(fa.masses[inside]))
            if mass2sd < 0.75:
                chebyshev_ok = False
            # Every Q of fa in one sweep: the 4 sigma and zero windows, the
            # chain grid (fetched whether or not the chain applies) and the rows.
            chain = np.linspace(1e-6, 4.0 * sig, 8)
            eps_grid = np.linspace(0.0, 4.0 * sig, n_eps)
            q_4sig, q0, *q_vals = _window_sup(
                fa.atoms, fa.masses, np.concatenate(([4.0 * sig, 0.0], chain, eps_grid))
            )
            q_chain, q_rows = q_vals[: chain.size], q_vals[chain.size :]
            if q_4sig < 0.75:
                chain_ok = False
            if s * p * (1.0 - p) > 1.0:
                for eps, q_val in zip(chain, q_chain):
                    if q_val < (3.0 / 32.0) * eps / sig - 1e-12:
                        chain_ok = False
                if q0 < (3.0 / 64.0) / sd_b - 1e-12:
                    chain_ok = False
            for eps, q_val in zip(eps_grid, q_rows):
                form = shape_bernoulli_min(float(eps), math.sqrt(s), p)
                rows.append(
                    {
                        "s": s,
                        "p": p,
                        "eps": float(eps),
                        "q": q_val,
                        "min_form": form,
                        "ratio": q_val / form,
                        "mass_two_sigma": mass2sd,
                    }
                )
    c_obs = min(r["ratio"] for r in rows)
    passed = chebyshev_ok and chain_ok and c_obs >= fixtures.BINOMIAL_LOWER_C
    return LowerBoundReport(
        rows=tuple(rows),
        c_low_observed=c_obs,
        chebyshev_ok=chebyshev_ok,
        chain_ok=chain_ok,
        fixture=fixtures.BINOMIAL_LOWER_C,
        passed=passed,
    )


# ---------------------------------------------------------------------------
# Scaling studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit:
    alpha: float
    slope: float
    half_width: float
    expected: float
    points: tuple
    inconclusive: bool

    def to_json(self) -> dict:
        return {
            "alpha": self.alpha,
            "slope": self.slope,
            "half_width": self.half_width,
            "expected": self.expected,
            "points": [list(p) for p in self.points],
            "inconclusive": self.inconclusive,
        }


def study_tau0_scaling(
    alpha_list: Sequence[float],
    L_grid: Sequence[float],
    seed: int = 0,
    n_samples: int = 1_000_000,
) -> list[ScalingFit]:
    """Fit log tau0 against log L for symmetric stable laws.

    The symmetrized law of a stable variate with CF exp(-|t|^alpha) is stable
    with doubled scale; tau0(L) grows like L^(2/alpha).  One seeded sample per
    alpha backs the empirical spread functional at every L (common random
    numbers keep tau0 monotone in L); its prefix sums are built once and
    solve all L together.  A fit whose 2-sigma slope half-width
    exceeds 0.5 is flagged inconclusive.  The fit and its error bar need at
    least three L values, not all equal; fewer raise ValueError.
    """
    n_L = len(L_grid)
    if n_L < 3 or len({float(L) for L in L_grid}) < 2:
        raise ValueError(
            f"the slope fit needs at least 3 L values, not all equal; got {n_L}"
        )
    out = []
    for alpha in alpha_list:
        u, w = _empirical_spread(AnalyticDist.stable(alpha, 2.0), n_samples, seed)
        taus = _piecewise_tau0(u, w, [1.0 / (L * L) for L in L_grid])
        pts = [(float(L), tau) for L, tau in zip(L_grid, taus)]
        x, y = np.log(pts).T
        coeffs, cov = np.polyfit(x, y, 1, cov=True)
        slope = float(coeffs[0])
        half_width = 2.0 * float(np.sqrt(cov[0, 0]))
        out.append(
            ScalingFit(
                alpha=float(alpha),
                slope=slope,
                half_width=half_width,
                expected=2.0 / float(alpha),
                points=tuple(pts),
                inconclusive=half_width > 0.5,
            )
        )
    return out


def gaussian_spread_relation(
    sigma: float, tau_over_sigma_grid: Sequence[float]
) -> list[dict]:
    """Rows of 1/sqrt(M(tau)) / (1 + tau/sigma) for X Gaussian with scale sigma.

    The symmetrized law has scale sigma*sqrt(2); the ratio stays inside a
    fixed bracket for all tau, reflecting 1/sqrt(M) ~ 1 + tau/sigma.
    """
    g = AnalyticDist.gaussian(sigma * math.sqrt(2.0))
    rows = []
    for x in tau_over_sigma_grid:
        tau = float(x) * sigma
        m = m_functional(g, tau)
        rows.append(
            {
                "tau_over_sigma": float(x),
                "m": m,
                "ratio": (1.0 / math.sqrt(m)) / (1.0 + x),
            }
        )
    return rows


def study_gaussian_window(
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
            shape = shape_crossover(a, g, L, float(eps), dstar, root=root)
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


def improvement_report(family: InstanceFamily, L: float) -> list[dict]:
    """Refined-shape-to-baseline ratio 1/(L sqrt(M(1))) per instance.

    The ratio is <= 1 exactly on instances satisfying the L^2 >= 1/M(1)
    hypothesis, and shrinks as L grows past 1/sqrt(M(1)).
    """
    rows = []
    for inst in family.instances:
        g = symmetrize(inst.law)
        m1 = m_functional(g, 1.0)
        if m1 <= 0.0:
            continue
        satisfied = L * L >= 1.0 / m1
        d_ref = 10.0  # any common D cancels in the ratio
        rows.append(
            {
                "instance": inst.id,
                "m1": m1,
                "L": L,
                "hypothesis": satisfied,
                "refined": shape_lcd_unit(d_ref, m1),
                "baseline": shape_vershynin(L, d_ref),
                "ratio": 1.0 / (L * math.sqrt(m1)),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------


def rows_to_csv(rows: Sequence[dict], path: str) -> None:
    """One CSV row per report row; keys of the first row fix the header."""
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to render")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def rows_to_long_csv(rows: Sequence[dict], path: str) -> None:
    """Plot-ready long format: (instance, eps, Q, shape, ratio)."""
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
    rows_to_csv(out, path)
