"""Instance families, empirical constant calibration, and scaling studies.

Every inequality in this domain carries an unspecified absolute constant.
The harness operationalizes "absolute": an upper bound PASSES when the
supremum of Q/shape over a declared instance corpus is finite, matches its
frozen fixture, stays seed-stable, and does not blow up when the family is
extended.  Lower bounds are checked against frozen minimum ratios the same
way.  Exact Q values are used wherever a finite law permits; Monte Carlo
rows carry their error radii.

Each precondition is checked by the function that owns it, not here: an
excluded instance is one whose solver or shape raises PreconditionError
(the crossover recipe's ``solve_tau0`` when L^2 <= 1/P), and the family
generators reject sizes below 1 and the Bernoulli law a p outside (0, 1).

``verify`` reads its bounds from ``_RECIPES`` and its families from
``_FAMILIES``: a new bound (with its constant in ``fixtures.RATIO_SUP``) or a
new family is one table row.  The lower bound ``_BINOMIAL_LOWER`` is its own path.

Reports are plain dataclasses with ``rows`` (one dict per evaluated
instance/window pair) so they render to CSV directly.  A report's JSON
object is its fields, by name: ``to_json`` reads them from the dataclass.
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
    _Record,
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
    s: int
    p: float


@dataclass(frozen=True)
class InstanceFamily:
    id: str
    instances: tuple


def _check_lists(s_list: Sequence[int], p_list: Sequence[float]) -> None:
    """The family generators' list checks, in the terms of ``verify``'s flags."""
    if not s_list:
        raise ValueError("--s-list must name at least one s")
    if not p_list:
        raise ValueError("--p-list must name at least one p")
    if any(s < 1 for s in s_list):
        raise ValueError(f"every s in --s-list must be at least 1; got {min(s_list)}")


def _check_n_eps(n_eps: int) -> None:
    """The sweeps' grid size: an integer of at least 1, checked before any sweep."""
    if not isinstance(n_eps, (int, np.integer)) or n_eps < 1:
        raise ValueError(f"n_eps must be an integer of at least 1; got {n_eps!r}")


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
    max(s_list).  Both lists must be nonempty and every s at least 1.
    """
    s_list = [int(s) for s in s_list]
    _check_lists(s_list, p_list)
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
                    s=s,
                    p=p,
                )
            )
    return InstanceFamily(
        id="sparse_perturbed" if perturbed else "sparse",
        instances=tuple(instances),
    )


def gen_equal_weight_family(
    n_list: Sequence[int], p_list: Sequence[float] = (0.5,)
) -> InstanceFamily:
    """Dense n^(-1/2)-weight vectors: the no-structure baseline corpus.

    Both lists must be nonempty and every n at least 1.
    """
    _check_lists(n_list, p_list)
    return InstanceFamily(
        id="equal_weight",
        instances=tuple(
            Instance(
                id=f"equal_n{n}_p{p:g}",
                weights=WeightVector(np.full(n, n**-0.5)),
                law=FiniteDist.bernoulli(p),
                s=n,
                p=p,
            )
            for n in n_list
            for p in p_list
        ),
    )


# Family id -> (its generator from verify's s and p lists and --perturbed, and
# whether its vectors have a zero tail to perturb); the first is the default.
_FAMILIES = {
    "sparse": (lambda s, p, pert: gen_sparse_family(s, p_list=p, perturbed=pert), True),
    "equal_weight": (lambda s, p, pert: gen_equal_weight_family(s, p), False),
}
_BINOMIAL_LOWER = "binomial_lower"  # check_lower_binomial: equal-weight vectors, no L


# ---------------------------------------------------------------------------
# Upper-bound calibration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CalibrationReport(_Record):
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


# A recipe returns None for an excluded instance, or from one shape call its
# window grid, the shape value and branch at each window, and the columns
# that every row of the instance shares.  The crossover recipe's memo holds
# D* by weight-vector bytes, since a sparse family reuses one vector across
# every p.
def _crossover_shapes(inst: Instance, L: float, n_eps: int, dstars: dict):
    g = symmetrize(inst.law)
    try:
        root = solve_tau0(g, L)
    except PreconditionError:
        return None  # no crossover scale (L^2 <= 1/P): excluded, counted by caller
    key = inst.weights.coords.tobytes()
    dstar = dstars.get(key)
    if dstar is None:
        dstar = dstars[key] = lcd_search(inst.weights, L, "d_star", tol=1e-8).value
    eps_grid = np.linspace(0.0, 4.0 * math.sqrt(inst.p * (1.0 - inst.p)), n_eps)
    shape = shape_crossover(inst.weights, g, L, eps_grid, dstar, root=root)
    shared = {"dstar": dstar, "eps0": shape.params["eps0"], "precondition": "L^2 > 1/P"}
    return eps_grid, shape.value, shape.params["branch"], shared


def _classical_shapes(inst: Instance, n_eps: int, shape, degenerate: float, components):
    # i.i.d. summands Y_k = a_k X with windows lambda_k = a_k tau scaled to
    # lambda = ||a||_inf tau; Q and M of a scaled law are scale-covariant.
    # A tau whose component value (Q of f, or M of its symmetrization) is
    # degenerate (Q = 1, or M = 0: the shape diverges) is dropped.
    a = inst.weights
    nz = np.abs(a.coords[a.coords != 0.0])
    taus = np.geomspace(0.25, 4.0, n_eps)
    comps = np.array(components(inst.law, taus))
    keep = comps != degenerate
    taus, comps = taus[keep], comps[keep]
    lams = a.norm_inf * taus
    # Contiguous rows: np.dot's summation order needs unit inner strides.
    values = shape(lams, nz * taus[:, None], np.repeat(comps[:, None], nz.size, axis=1))
    return lams, values, [""] * lams.size, {"precondition": "nondegenerate components"}


# Upper-bound id -> recipe(inst, L, n_eps, memo), one memo per calibrate_upper call.
_RECIPES = {
    "crossover": _crossover_shapes,
    "kolmogorov_rogozin": lambda inst, L, n_eps, memo: _classical_shapes(
        inst, n_eps, shape_kolmogorov_rogozin, 1.0, lambda f, t: _window_sup(f.atoms, f.masses, t)),
    "esseen": lambda inst, L, n_eps, memo: _classical_shapes(
        inst, n_eps, shape_esseen, 0.0, lambda f, t: m_functional(symmetrize(f), t)),
}


def calibrate_upper(
    bound_id: str,
    family: InstanceFamily,
    L: float,
    *,
    n_eps: int = 40,
) -> CalibrationReport:
    """Ratio sweep Q/shape for one bound id over a family.

    L must be positive and finite, and n_eps, the number of grid points per
    instance, an integer of at least 1.  An instance whose solver or shape
    raises PreconditionError is excluded and counted, never scored.  D* is
    certified to tol 1e-8.  PASS means ratio_sup <= fixture, the bound's
    frozen constant in ``fixtures.RATIO_SUP``.  An instance takes one shape
    call and one window sweep of its sum; D* is searched once per distinct
    weight vector.
    """
    if not 0 < L < math.inf:
        raise ValueError("L must be positive and finite")
    if bound_id not in _RECIPES:
        raise ValueError(f"no calibration recipe for bound id {bound_id!r}")
    _check_n_eps(n_eps)
    recipe, memo = _RECIPES[bound_id], {}
    rows, excluded = [], 0
    for inst in family.instances:
        res = recipe(inst, L, n_eps, memo)
        if res is None:
            excluded += 1
            continue
        grid, shapes, branches, shared = res
        fa = weighted_sum_dist(inst.law, inst.weights)
        q_vals = _window_sup(fa.atoms, fa.masses, grid)
        for eps, q_val, shape, branch in zip(grid.tolist(), q_vals, shapes, branches):
            rows.append({"instance": inst.id, "s": inst.s, "p": inst.p, "eps": eps, "q": q_val,
                         "shape": shape, "ratio": q_val / shape, "branch": branch, **shared})
    if not rows:
        raise PreconditionError("no instance satisfied the bound preconditions")
    ratios = [r["ratio"] for r in rows]
    sup, fixture = max(ratios), fixtures.RATIO_SUP[bound_id]
    return CalibrationReport(bound_id=bound_id, family_id=family.id, L=L, rows=tuple(rows),
                             ratio_sup=sup, ratio_inf=min(ratios), n_excluded=excluded,
                             fixture=fixture, passed=sup <= fixture)


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
class LowerBoundReport(_Record):
    rows: tuple
    c_low_observed: float
    chebyshev_ok: bool
    chain_ok: bool
    fixture: float
    passed: bool


def check_lower_binomial(
    s_list: Sequence[int],
    p_list: Sequence[float],
    n_eps: int = 40,
) -> LowerBoundReport:
    """Exact Q(F_a, eps) >= c_low * min{(eps + 1/sqrt(s)) / sqrt(p(1-p)), 1}.

    F_a is the rescaled binomial of the s-sparse equal-weight vector, as
    ``gen_equal_weight_family`` builds it and checks s and p.  Also
    reproduces the derivation chain with explicit constants:
      * two-sigma mass >= 3/4 (Chebyshev, checked exactly: the masses are
        those of the exact law F_a, whose atom k/sqrt(s) carries P(B = k)),
      * Q(F_a, eps) >= (3/32) eps / sqrt(p(1-p)) for eps <= 4 sqrt(p(1-p))
        when s p(1-p) > 1 (window covering),
      * Q(F_a, 0) >= (3/64) / sqrt(s p(1-p)) (lattice pitch s^(-1/2)).

    PASS also needs the observed constant to reach the frozen
    ``fixtures.BINOMIAL_LOWER_C``.  n_eps, the number of grid points per
    instance, must be an integer of at least 1.
    """
    _check_n_eps(n_eps)
    rows = []
    chebyshev_ok = True
    chain_ok = True
    for inst in gen_equal_weight_family(s_list, p_list).instances:
        s, p = inst.s, inst.p
        sig = math.sqrt(p * (1.0 - p))
        w = s**-0.5
        fa = weighted_sum_dist(inst.law, inst.weights)
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
            rows.append({"s": s, "p": p, "eps": float(eps), "q": q_val, "min_form": form,
                         "ratio": q_val / form, "mass_two_sigma": mass2sd})
    c_obs, fixture = min(r["ratio"] for r in rows), fixtures.BINOMIAL_LOWER_C
    return LowerBoundReport(rows=tuple(rows), c_low_observed=c_obs, chebyshev_ok=chebyshev_ok,
                            chain_ok=chain_ok, fixture=fixture,
                            passed=chebyshev_ok and chain_ok and c_obs >= fixture)


# ---------------------------------------------------------------------------
# Scaling studies
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ScalingFit(_Record):
    alpha: float
    slope: float
    half_width: float
    expected: float
    points: tuple
    inconclusive: bool


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
    xs = [float(x) for x in tau_over_sigma_grid]
    return [
        {"tau_over_sigma": x, "m": m, "ratio": (1.0 / math.sqrt(m)) / (1.0 + x)}
        for x, m in zip(xs, m_functional(g, [x * sigma for x in xs]))
    ]


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
        eps_grid = np.geomspace(sigma / dstar, sigma, n_eps)
        shape = shape_crossover(a, g, L, eps_grid, dstar, root=root)
        for eps, value, branch in zip(shape.params["eps"], shape.value, shape.params["branch"]):
            q_val = q_closed_form_gaussian(sigma, eps).value
            rows.append(
                {
                    "sigma": sigma,
                    "eps": eps,
                    "eps_over_sigma": eps / sigma,
                    "q": q_val,
                    "q_ratio": q_val * sigma / eps,
                    "shape": value,
                    "shape_ratio": value * sigma / eps,
                    "branch": branch,
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
    """One CSV row per report row; keys of the first row fix the header.

    The bytes are those of ``csv.DictWriter`` with its defaults: a key
    missing from a row writes "", and a key outside the header raises
    ValueError naming it, after the rows before it are written.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to render")
    header = list(rows[0].keys())
    _write_csv(path, header, _dict_cells(rows, header))


def rows_to_long_csv(rows: Sequence[dict], path: str) -> None:
    """Plot-ready long format: (instance, eps, Q, shape, ratio)."""
    cells = [
        (r.get("instance", ""), r.get("eps", ""), r.get("q", ""),
         r.get("shape", r.get("min_form", "")), r.get("ratio", ""))
        for r in rows
    ]
    if not cells:
        raise ValueError("no rows to render")
    _write_csv(path, ["instance", "eps", "q", "shape", "ratio"], cells)


def _dict_cells(rows: list, header: list):
    """DictWriter's cells of each row, made as the writer asks for them."""
    for row in rows:
        wrong_fields = row.keys() - header
        if wrong_fields:
            raise ValueError("dict contains fields not in fieldnames: "
                             + ", ".join([repr(x) for x in wrong_fields]))
        yield [row.get(key, "") for key in header]


def _write_csv(path: str, header: list, rows) -> None:
    """Write the header and the rows of cells, each distinct float's repr made once.

    csv writes a float as its repr, so a cell whose type is exactly float
    is handed over as its memoized repr, which holds no delimiter, quote or
    newline and is written unquoted as before.  Every other cell, numpy
    scalars, None and bools included, goes to csv unchanged.
    """
    reprs: dict = {}
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            [(reprs.get(v) or _float_repr(v, reprs)) if type(v) is float else v for v in cells]
            for cells in rows
        )


def _float_repr(x: float, reprs: dict) -> str:
    text = repr(x)
    if x:  # 0.0 and -0.0 compare equal but print differently
        reprs[x] = text
    return text
