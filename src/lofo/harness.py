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

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Optional, Sequence

import numpy as np

from .bounds import (
    shape_bernoulli_min,
    shape_crossover,
    shape_esseen,
    shape_kolmogorov_rogozin,
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
    _empirical_spread,
    _piecewise_tau0,
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


def _check_lists(s_list: Sequence[int], p_list: Sequence[float]) -> list[int]:
    """The family generators' list checks, in the terms of ``verify``'s flags;
    the sizes as ints.  A size must be integral: an int, a numpy integer or a
    float (numpy's too) whose value is a whole number."""
    s_list = list(s_list)
    for s in s_list:
        if not (isinstance(s, (int, np.integer))
                or isinstance(s, (float, np.floating)) and s.is_integer()):
            raise ValueError(f"every s in --s-list must be an integer; got {s!r}")
    s_list = [int(s) for s in s_list]
    if not s_list:
        raise ValueError("--s-list must name at least one s")
    if not p_list:
        raise ValueError("--p-list must name at least one p")
    if any(s < 1 for s in s_list):
        raise ValueError(f"every s in --s-list must be at least 1; got {min(s_list)}")
    return s_list


def _check_n_eps(n_eps: int) -> None:
    """The sweeps' grid size: an integer of at least 1, checked before any sweep."""
    if not isinstance(n_eps, (int, np.integer)) or n_eps < 1:
        raise ValueError(f"n_eps must be an integer of at least 1; got {n_eps!r}")


def _once(memo: dict, x, build):
    """build(x), called the first time a value of x's type equal to x is
    asked for and kept in memo; an x that raises is not kept."""
    key = (type(x), x)
    if key not in memo:
        memo[key] = build(x)
    return memo[key]


def _instances(sizes, p_list, vector, tag) -> tuple:
    """One instance per (size, p), sizes outer, each size's weight vector and
    each p's Bernoulli law built for the first instance that uses it and
    shared by the rest."""
    vectors, laws = {}, {}
    return tuple(Instance(id=tag(s, p), weights=_once(vectors, s, vector),
                          law=_once(laws, p, FiniteDist.bernoulli), s=s, p=p)
                 for s in sizes for p in p_list)


def gen_sparse_family(
    s_list: Sequence[int],
    p_list: Sequence[float] = (0.5,),
    *,
    perturbed: bool = False,
) -> InstanceFamily:
    """Vectors of length n = max(s_list) with s coordinates s^(-1/2) (rest
    zero), Bernoulli(p) laws.

    ``perturbed=True`` replaces the zero tail by eta = s^-3, small enough that
    the weighted sum and its least common denominator stay within the
    unperturbed brackets; s = n has no tail and is skipped.  Both lists must
    be nonempty and every s an integral value of at least 1.  The instances
    share one weight vector per s and one law per p.
    """
    s_list = _check_lists(s_list, p_list)
    n = max(s_list)

    def vector(s):
        coords = np.zeros(n)
        coords[:s] = s**-0.5
        if perturbed:
            coords[s:] = float(s) ** -3.0
        return WeightVector(coords)

    sizes = [s for s in s_list if not (perturbed and s == n)]  # s = n: no tail to perturb
    prefix = "sparse_pert" if perturbed else "sparse"
    return InstanceFamily(
        id="sparse_perturbed" if perturbed else "sparse",
        instances=_instances(sizes, p_list, vector, lambda s, p: f"{prefix}_s{s}_p{p:g}"),
    )


def gen_equal_weight_family(
    n_list: Sequence[int], p_list: Sequence[float] = (0.5,)
) -> InstanceFamily:
    """Dense n^(-1/2)-weight vectors: the no-structure baseline corpus.

    Both lists must be nonempty and every n an integral value of at least 1.
    The instances share one weight vector per n and one law per p.
    """
    n_list = _check_lists(n_list, p_list)
    return InstanceFamily(
        id="equal_weight",
        instances=_instances(n_list, p_list, lambda n: WeightVector(np.full(n, n**-0.5)),
                             lambda n, p: f"equal_n{n}_p{p:g}"),
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
# that every row of the instance shares.  Its memo, one per calibrate_upper
# call, holds what depends on the law alone by the law's contents and D* by
# the weight vector's bytes: a family shares one law across every s and one
# vector across every p.
def _per_law(memo: dict, law: FiniteDist, build):
    """build(law), called once per distinct law (atoms and masses) in memo."""
    return _once(memo, (law.atoms.tobytes(), law.masses.tobytes()), lambda key: build(law))


def _crossover_law(law: FiniteDist, L: float):
    # The symmetrized law and its crossover scale, or None without one.
    g = symmetrize(law)
    try:
        return g, solve_tau0(g, L)
    except PreconditionError:
        return None  # no crossover scale (L^2 <= 1/P): excluded, counted by caller


def _crossover_shapes(inst: Instance, L: float, n_eps: int, memo: dict):
    solved = _per_law(memo, inst.law, lambda f: _crossover_law(f, L))
    if solved is None:
        return None
    g, root = solved
    dstar = _once(memo, inst.weights.coords.tobytes(),
                  lambda key: lcd_search(inst.weights, L, "d_star", tol=1e-8).value)
    eps_grid = np.linspace(0.0, 4.0 * math.sqrt(inst.p * (1.0 - inst.p)), n_eps)
    shape = shape_crossover(inst.weights, g, L, eps_grid, dstar, root=root)
    shared = {"dstar": dstar, "eps0": shape.params["eps0"], "precondition": "L^2 > 1/P"}
    return eps_grid, shape.value, shape.params["branch"], shared


def _classical_shapes(inst: Instance, n_eps: int, memo: dict, shape, degenerate: float,
                      components):
    # i.i.d. summands Y_k = a_k X with windows lambda_k = a_k tau scaled to
    # lambda = ||a||_inf tau; Q and M of a scaled law are scale-covariant.
    # A tau whose component value (Q of f, or M of its symmetrization) is
    # degenerate (Q = 1, or M = 0: the shape diverges) is dropped.
    def kept(f):
        taus = np.geomspace(0.25, 4.0, n_eps)
        comps = np.array(components(f, taus))
        keep = comps != degenerate
        return taus[keep], comps[keep]

    taus, comps = _per_law(memo, inst.law, kept)
    a = inst.weights
    nz = np.abs(a.coords[a.coords != 0.0])
    lams = a.norm_inf * taus
    # Contiguous rows: np.dot's summation order needs unit inner strides.
    values = shape(lams, nz * taus[:, None], np.repeat(comps[:, None], nz.size, axis=1))
    return lams, values, [""] * lams.size, {"precondition": "nondegenerate components"}


# Upper-bound id -> recipe(inst, L, n_eps, memo), one memo per calibrate_upper call.
_RECIPES = {
    "crossover": _crossover_shapes,
    "kolmogorov_rogozin": lambda inst, L, n_eps, memo: _classical_shapes(
        inst, n_eps, memo, shape_kolmogorov_rogozin, 1.0,
        lambda f, t: _window_sup(f.atoms, f.masses, t)),
    "esseen": lambda inst, L, n_eps, memo: _classical_shapes(
        inst, n_eps, memo, shape_esseen, 0.0, lambda f, t: m_functional(symmetrize(f), t)),
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
    frozen constant in ``fixtures.RATIO_SUP``.

    Work is done once per distinct law (by its atoms and masses), once per
    distinct weight vector (by its coordinates) or once per instance:
      * per law: the crossover recipe's symmetrization and tau0 solve (a law
        with no crossover scale is excluded once, and each of its instances
        counted in n_excluded); the Esseen recipe's M of the symmetrized
        law, and the Kolmogorov-Rogozin recipe's Q of the law, over the
        tau grid;
      * per vector: the crossover recipe's D* search;
      * per instance: the law of the weighted sum, its window sweep, one
        shape call and the rows.
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
    numbers keep tau0 monotone in L); one streamed pass over its knots
    places all L together.  A fit whose 2-sigma slope half-width
    exceeds 0.5 is flagged inconclusive.  The fit and its error bar need at
    least three L values, not all equal; fewer raise ValueError, as does an
    L that is not positive and finite or an alpha outside (0, 2], before any
    sample is drawn.
    """
    n_L = len(L_grid)
    if n_L < 3 or len({float(L) for L in L_grid}) < 2:
        raise ValueError(
            f"the slope fit needs at least 3 L values, not all equal; got {n_L}"
        )
    for L in L_grid:
        if not 0 < L < math.inf:
            raise ValueError(f"L must be positive and finite, got {float(L)!r}")
    targets = [1.0 / (L * L) for L in L_grid]
    laws = [symmetrize(AnalyticDist.stable(alpha)) for alpha in alpha_list]
    out = []
    for alpha, g in zip(alpha_list, laws):
        # No name keeps the sample, so it is freed before the next alpha's is drawn.
        taus = _piecewise_tau0(*_empirical_spread(g, n_samples, seed), targets)
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
    g = symmetrize(AnalyticDist.gaussian(sigma))
    xs = [float(x) for x in tau_over_sigma_grid]
    return [
        {"tau_over_sigma": x, "m": m, "ratio": (1.0 / math.sqrt(m)) / (1.0 + x)}
        for x, m in zip(xs, m_functional(g, [x * sigma for x in xs]))
    ]


def study_gaussian_window(sigma_list: Sequence[float], dstar: float) -> list[dict]:
    """Q(F_a, eps) * sigma / eps over 25 geometric eps in [sigma/D*, sigma]
    for unit a.

    Exact Q by the Gaussian closed form; the crossover shape is evaluated on
    the same grid (L chosen so the whole range sits below eps0) to confirm it
    reproduces the eps/sigma order.  D* must be positive and finite, checked
    before any work.
    """
    if not 0 < dstar < math.inf:
        raise ValueError(f"D* must be positive and finite; got {dstar!r}")
    rows = []
    for sigma in sigma_list:
        g = symmetrize(AnalyticDist.gaussian(sigma))
        a = WeightVector([1.0])
        m_at_edge = m_functional(g, sigma * dstar)
        L = 1.05 / math.sqrt(m_at_edge)
        root = solve_tau0(g, L)
        eps_grid = np.geomspace(sigma / dstar, sigma, 25)
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


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------


def render_csvs(rows: Sequence[dict], wide_path: Optional[str] = None,
                long_path: Optional[str] = None) -> None:
    """Write the wide CSV of ``rows`` to ``wide_path`` and the long one to ``long_path``.

    Either path may be None.  The wide file has one CSV row per report row,
    the keys of the first row being the header; the long one is plot-ready:
    (instance, eps, q, shape, ratio), the shape cell falling back to
    ``min_form``.  The bytes are those of ``csv.DictWriter`` with its
    defaults: a missing cell writes "", and a wide file that meets a key
    outside its header writes the rows before it, then raises ValueError
    naming the key, before the long file is written.  Each column is
    gathered by one C-level ``dict.get`` map and formatted once, and the
    long file takes the wide file's texts.
    """
    rows = list(rows)
    if not rows:
        raise ValueError("no rows to render")
    header = list(rows[0])
    first = rows[0].keys()
    error = None
    if wide_path is not None:
        for i, row in enumerate(rows):
            if not row.keys() <= first:
                error = ValueError("dict contains fields not in fieldnames: "
                                   + ", ".join([repr(x) for x in row.keys() - header]))
                rows = rows[:i]
                break
    texts: dict = {}

    def column(key):
        if key not in texts:
            texts[key] = _column_texts(list(map(dict.get, rows, repeat(key), repeat(""))))
        return texts[key]

    if wide_path is not None:
        _write_columns(wide_path, header, [column(key) for key in header], len(rows))
        if error is not None:
            raise error
    if long_path is not None:
        has_shape = map(dict.__contains__, rows, repeat("shape"))
        shape = [text if has else fallback for has, text, fallback
                 in zip(has_shape, column("shape"), column("min_form"))]
        _write_columns(long_path, ["instance", "eps", "q", "shape", "ratio"],
                       [column("instance"), column("eps"), column("q"), shape,
                        column("ratio")], len(rows))


def _column_texts(values: Sequence) -> Sequence[str]:
    """csv's text of each cell of one column, quoted where csv quotes it."""
    kinds = set(map(type, values))
    if kinds <= {float, int}:
        return _number_texts(values, len(kinds) == 1)
    texts = values if kinds == {str} else list(map(_cell_text, values))
    quoted = {text: _quoted(text) for text in set(texts)}
    return list(map(quoted.__getitem__, texts))


def _number_texts(values: Sequence, single: bool) -> list:
    """The text of each int or exact float, made once per distinct number.

    No such text needs quoting.  A column of ints and floats keys its memo
    by (number, type), since 0 == 0.0 but they print "0" and "0.0".  A
    column of one type holding a zero formats every cell, since -0.0 == 0.0
    too; so does a mixed column holding a float zero.
    """
    keys = values if single else list(zip(values, map(type, values)))
    distinct = set(keys)
    if (0 if single else (0.0, float)) in distinct:
        return list(map(str, values))
    memo = {key: str(key if single else key[0]) for key in distinct}
    return list(map(memo.__getitem__, keys))


def _cell_text(value) -> str:
    """csv's text of one cell: a str as itself, None as "", anything else by str.

    str of an exact float is its repr; a float subclass (np.float64) is
    written by its own str, as csv does.
    """
    if isinstance(value, str):
        return value
    return "" if value is None else str(value)


def _quoted(text: str) -> str:
    """csv's QUOTE_MINIMAL: a text holding , " CR or LF is quoted, each " doubled."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _write_columns(path: str, header: list, columns: list, n_rows: int) -> None:
    """Write the header and the rows of column texts in one write, as csv would.

    Lines end in CRLF.  A line whose one field is empty is written as "",
    as csv does so that the line is not blank.
    """
    lines = [",".join([_quoted(_cell_text(key)) for key in header])]
    lines += map(",".join, zip(*columns)) if columns else [""] * n_rows
    if len(columns) == 1:
        lines = [line or '""' for line in lines]
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))
