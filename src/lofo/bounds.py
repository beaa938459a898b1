"""Right-hand-side shapes of the concentration bounds, the crossover-scale
equation M(tau0) = 1/L^2, and pointwise gadget inequalities.

Every bound in this area holds up to an unspecified absolute constant, so
the shapes below are evaluated with constant 1; empirical calibration of the
constants lives in the harness.  Implemented shapes:

* Kolmogorov-Rogozin:   lambda (sum lambda_k^2 (1 - Q_k))^(-1/2)
* Esseen refinement:    lambda (sum lambda_k^2 M_k(lambda_k))^(-1/2)
* Baseline L/D comparison (Vershynin-style least-common-denominator bound)
* LCD-spread bound:      1 / (||a|| D sqrt(M(tau)))   (unit-norm special case
  provided separately), and its D = 1/(2 ||a||_inf) "no arithmetic" form
* Two-regime crossover bound around eps0 = tau0 / D*(a)
* Bernoulli min-form:    min{(eps + 1/D*) / sqrt(p(1-p)), 1}

The crossover scale tau0 solves L^2 = 1/M(tau0); M is continuous and
nonincreasing with limit P = P(X~ != 0) at 0, so a root exists exactly when
L^2 > 1/P.  solve_tau0 checks L, the target and the residual; the law's kind
solves, next to M in ``distributions``: a finite law's M is piecewise
A + B/tau^2 between distinct |atoms|, closed-form on its piece, the Gaussian
bisects its closed-form M, and a stable law solves the M of one sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .concentration import WeightVector
from .distributions import (
    Dist,
    FiniteDist,
    _Record,
    atom_survival,
    cf_eval,
    m_functional,
    symmetrize,
)
from .exceptions import NumericalError, PreconditionError
from .lcd import dist_to_lattice


@dataclass(frozen=True)
class BoundShape(_Record):
    """One evaluated right-hand side: shape id, its inputs, and the value."""

    id: str
    params: dict
    value: float


# ---------------------------------------------------------------------------
# Classical shapes
# ---------------------------------------------------------------------------


def _classical_shape(lam, lam_k, c_k, shape: str, name: str, degenerate: str):
    """lambda * (sum lambda_k^2 c_k)^(-1/2), the body of both classical shapes
    (c_k = 1 - Q_k or M_k); ``shape`` names the shape, ``name`` is the symbol
    of the component values and ``degenerate`` what makes them all vanish,
    for the messages.

    lambda is a scalar (gives a float) or a grid (gives a list); lambda_k and
    c_k have its shape plus a last axis of n.  Each sum is a stacked
    vector-vector np.matmul, in np.dot's order.  Needs lambda positive and
    finite, lambda_k in (0, lambda] and c_k in [0, 1 + 1e-12].

    The shape has degree 0 in (lambda, lambda_k), so each row is evaluated
    on lambda and lambda_k times 2^-e, e the binary exponent of the row's
    largest lambda_k whose c_k is positive (which then lies in [1, 2)); a
    lambda_k whose c_k is 0 adds nothing and is zeroed first, so it cannot
    set the scale.  The largest term is then at least its c_k, so the
    denominator never underflows to 0 however large or small the windows
    are.  Products, sums, square roots and quotients commute with a
    power-of-two scaling away from subnormals, so the value has the bits of
    the unscaled formula wherever every square, product and partial sum,
    scaled and unscaled, is normal or 0.  A value that overflows raises
    NumericalError naming the shape."""
    lam = np.asarray(lam, dtype=float)
    lk = np.asarray(lam_k, dtype=float)
    if not np.all((lam > 0) & (lam < math.inf)):
        raise ValueError("lambda must be positive and finite")
    n = lk.shape[-1:]
    if n in ((), (0,)) or lk.shape != lam.shape + n or c_k.shape != lk.shape:
        raise ValueError(f"lambda_k and {name} must be nonempty and aligned")
    with np.errstate(over="ignore"):  # lambda (1 + 1e-12) may round up to inf
        top = lam[..., None] * (1 + 1e-12)
    if not np.all((lk > 0) & (lk <= top) & (lk < math.inf)):
        raise ValueError("each lambda_k must lie in (0, lambda]")
    if not np.all((c_k >= 0) & (c_k <= 1 + 1e-12)):
        raise ValueError(f"each {name} must lie in [0, 1]")
    if not np.all(np.any(c_k > 0.0, axis=-1)):
        raise PreconditionError(f"{degenerate}: the shape diverges")
    lk = np.where(c_k > 0.0, lk, 0.0)
    exp = np.frexp(lk.max(axis=-1))[1] - 1
    lk = np.ldexp(lk, -exp[..., None])
    denom = np.matmul((lk * lk)[..., None, :], c_k[..., :, None])[..., 0, 0]
    with np.errstate(over="ignore"):
        value = np.ldexp(lam, -exp) / np.sqrt(denom)
    if not np.all(value < math.inf):
        raise NumericalError(f"{shape} shape: its value overflows")
    return value.tolist()


def shape_kolmogorov_rogozin(lam, lam_k, q_k):
    """lambda * (sum lambda_k^2 (1 - Q_k))^(-1/2) for independent summands;
    lambda may be a grid of windows (see ``_classical_shape``)."""
    return _classical_shape(
        lam, lam_k, 1.0 - np.asarray(q_k, dtype=float), "kolmogorov_rogozin", "Q_k",
        "all component concentrations equal 1",
    )


def shape_esseen(lam, lam_k, m_k):
    """lambda * (sum lambda_k^2 M_k(lambda_k))^(-1/2); refines Kolmogorov-Rogozin;
    lambda may be a grid of windows (see ``_classical_shape``)."""
    return _classical_shape(
        lam, lam_k, np.asarray(m_k, dtype=float), "esseen", "M_k",
        "all spread functionals vanish",
    )


def _quotient(shape: str, num: float, den: float) -> float:
    """num / den for positive num and den; NumericalError naming the shape
    when den underflowed to 0 or the quotient is not finite."""
    if den == 0.0:
        raise NumericalError(f"{shape} shape: its denominator underflows to 0")
    value = num / den
    if not value < math.inf:
        raise NumericalError(f"{shape} shape: its value {num:g} / {den:g} overflows")
    return value


def shape_vershynin(L: float, D: float) -> float:
    """Baseline comparison shape L/D (constant set to 1)."""
    if not (0 < L < math.inf and 0 < D < math.inf):
        raise ValueError("L and D must be positive and finite")
    return _quotient("vershynin", L, D)


def _over_root_spread(shape: str, num: float, den: float, m_tau: float) -> float:
    """num / (den sqrt(M(tau))), the body of the LCD-spread shapes."""
    if not 0.0 < m_tau <= 1.0 + 1e-12:
        raise PreconditionError("spread functional must lie in (0, 1]")
    return _quotient(shape, num, den * math.sqrt(m_tau))


def shape_lcd(D: float, norm_a: float, m_tau: float) -> float:
    """1 / (||a|| D sqrt(M(tau))): LCD-spread bound at window tau/D."""
    if not (0 < D < math.inf and 0 < norm_a < math.inf):
        raise ValueError("D and ||a|| must be positive and finite")
    return _over_root_spread("lcd", 1.0, norm_a * D, m_tau)


def shape_lcd_unit(D: float, m1: float) -> float:
    """Unit-norm LCD-spread bound 1 / (D sqrt(M(1)))."""
    if not 0 < D < math.inf:
        raise ValueError("D and ||a|| must be positive and finite")
    return _over_root_spread("lcd_unit", 1.0, D, m1)


def shape_no_arithmetic(norm_inf: float, norm: float, m_tau: float) -> float:
    """||a||_inf / (||a|| sqrt(M(tau))): window ||a||_inf tau, no structure used."""
    if not (0 < norm_inf < math.inf and 0 < norm < math.inf):
        raise ValueError("norms must be positive and finite")
    return _over_root_spread("no_arithmetic", norm_inf, norm, m_tau)


def shape_bernoulli_min(eps: float, dstar: float, p: float) -> float:
    """min{(eps + 1/D*) / sqrt(p(1-p)), 1}: two-regime Bernoulli envelope."""
    if not (0 <= eps < math.inf and 0 < dstar < math.inf and 0 < p < 1):
        raise ValueError("need eps >= 0, dstar > 0, p in (0, 1), all finite")
    return min((eps + 1.0 / dstar) / math.sqrt(p * (1.0 - p)), 1.0)


# ---------------------------------------------------------------------------
# Crossover scale: M(tau0) = 1/L^2
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RootSolution(_Record):
    """Solution of M(tau0) = 1/L^2 (and eps0 = tau0/D* when D* is supplied).

    ``method`` is the kind's label: the Gaussian's reads "bisection_quadrature"
    although its M is closed-form, as the ``lofo tau0`` JSON and stored
    reports have it.  ``iterations`` counts bisection steps (50 to 56 for
    L >= 1.01); the finite and stable roots are exact on their piece: 0.
    """

    tau0: float
    residual: float
    iterations: int
    method: str
    eps0: Optional[float] = None


def _eps0(tau0: float, dstar: float) -> float:
    """eps0 = tau0 / D*, the crossover shape's corner: D* must be positive and
    finite, and the quotient must not overflow.  tau0 = 0 checks D* alone,
    before any work."""
    if not 0 < dstar < math.inf:
        raise ValueError("dstar must be positive and finite")
    eps0 = tau0 / dstar
    if eps0 == math.inf:
        raise NumericalError(f"crossover shape: eps0 = {tau0:g} / {dstar:g} overflows")
    return eps0


def solve_tau0(
    g: Dist, L: float, tol: Optional[float] = None, *, dstar: Optional[float] = None,
    n_samples: int = 1_000_000, seed: int = 0,
) -> RootSolution:
    """Solve M(tau0) = 1/L^2 for a symmetric law g.

    Requires a finite L with L^2 > 1/P, P = P(X~ != 0); otherwise no root
    exists and a PreconditionError is raised, as for an L whose square
    overflows (the target 1/L^2 would round to 0).  tol > 0 bounds the
    residual |M(tau0) - 1/L^2| accepted (default the kind's: 1e-10 finite,
    1e-6 analytic); a larger or NaN residual raises NumericalError, as does
    a Gaussian root below the smallest normal float or past the float
    range.  A D*, if given, must be positive and finite (checked first), and
    eps0 = tau0/D* must not overflow (NumericalError).
    """
    if not 0 < L < math.inf:
        raise ValueError("L must be positive and finite")
    if dstar is not None:
        _eps0(0.0, dstar)
    if tol is not None and not tol > 0:
        raise ValueError("tol must be positive")
    if L * L == math.inf:
        raise PreconditionError(
            f"L^2 overflows (L = {L:.6g}), so the target spread 1/L^2 rounds to 0"
        )
    p_surv = atom_survival(g)
    m_star = 1.0 / (L * L) if L * L > 0.0 else math.inf  # L^2 may underflow
    if p_surv <= 0.0 or m_star >= p_surv:
        raise PreconditionError(
            f"L^2 <= 1/P (L^2 = {L * L:.6g}, 1/P = "
            f"{math.inf if p_surv == 0 else 1.0 / p_surv:.6g}): "
            "no crossover scale exists"
        )
    tau0, iters, residual = g._tau0(m_star, L, n_samples, seed)
    tol = g._tau0_tol if tol is None else tol
    if not residual <= tol:
        raise NumericalError(f"crossover residual {residual:g} above tolerance {tol:g}")
    return RootSolution(tau0=tau0, residual=residual, iterations=iters, method=g._tau0_method,
                        eps0=_eps0(tau0, dstar) if dstar is not None else None)


def shape_crossover(
    a: WeightVector,
    g: Dist,
    L: float,
    eps,
    dstar: float,
    *,
    root: Optional[RootSolution] = None,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> BoundShape:
    """Two-regime bound at window eps, optimal at D = D*(a).

    For eps <= eps0 = tau0/D*: 1 / (||a|| D* sqrt(M(eps D*))) (with the
    eps -> 0 limit 1 / (||a|| D* sqrt(P))); for eps >= eps0 the linear
    continuation eps L / (eps0 ||a|| D*).  The branches agree at eps0.

    eps is a scalar, or a 1-D grid for which ``value`` and the ``eps`` and
    ``branch`` params are lists, one entry per window; M of every small eps
    comes from one ``m_functional`` call.
    """
    eps_arr = np.asarray(eps, dtype=float)
    if eps_arr.ndim > 1:
        raise ValueError("eps must be a scalar or a 1-D grid")
    if not np.all((eps_arr >= 0) & (eps_arr < math.inf)):
        raise ValueError("eps must be nonnegative and finite")
    _eps0(0.0, dstar)
    if not 0 < L < math.inf:
        raise ValueError("L must be positive and finite")
    if root is None:
        root = solve_tau0(g, L, n_samples=n_samples, seed=seed)
    eps0 = _eps0(root.tau0, dstar)
    eps_list = eps_arr.ravel().tolist()
    small = [e * dstar for e in eps_list if 0.0 < e <= eps0]
    m_vals = iter(m_functional(g, small, n_samples=n_samples, seed=seed))
    values, branches = [], []
    for e in eps_list:
        if e > eps0:
            values.append(_quotient("crossover", e * L, eps0 * a.norm2 * dstar))
            branches.append("large_eps")
        else:  # M(0+) = P
            m_val = next(m_vals) if e > 0.0 else atom_survival(g)
            values.append(_quotient("crossover", 1.0, a.norm2 * dstar * math.sqrt(m_val)))
            branches.append("small_eps" if e > 0.0 else "zero")
    if eps_arr.ndim == 0:
        eps_list, values, branches = eps_list[0], values[0], branches[0]
    return BoundShape(
        id="crossover",
        params={
            "eps": eps_list,
            "eps0": eps0,
            "tau0": root.tau0,
            "L": L,
            "dstar": dstar,
            "norm_a": a.norm2,
            "branch": branches,
        },
        value=values,
    )


# ---------------------------------------------------------------------------
# Pointwise gadget inequalities
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GadgetReport:
    """Worst margin of a pointwise inequality over a probe grid.

    margin >= 0 everywhere means the inequality held (up to 1e-12 slack);
    worst_t localizes the tightest or violating point.
    """

    passed: bool
    worst_t: float
    worst_margin: float
    n_points: int


def _worst_margin(ts: np.ndarray, margins: np.ndarray, slack: float = 1e-12) -> GadgetReport:
    """Report the first smallest margin over ts; passed when it is >= -slack."""
    k = int(np.argmin(margins))
    return GadgetReport(
        passed=bool(margins[k] >= -slack),
        worst_t=float(ts[k]),
        worst_margin=float(margins[k]),
        n_points=int(ts.size),
    )


def check_cf_exponential_bound(f: FiniteDist, t_grid: Sequence[float]) -> GadgetReport:
    """|CF(t)| <= exp(-0.5 E(1 - cos(t X~))) at every grid point, exact sums."""
    ts = np.asarray(t_grid, dtype=float)
    g = symmetrize(f)
    cf_abs = np.abs(cf_eval(f, ts))
    expo = (1.0 - np.cos(np.outer(ts, g.atoms))) @ g.masses
    margins = np.exp(-0.5 * expo) - cf_abs
    return _worst_margin(ts, margins)


def smoothing_cf(a: WeightVector, z: float, gamma: float, t) -> float | np.ndarray:
    """CF exp(-gamma/2 sum_k (1 - cos(2 a_k z t))) of the symmetric smoothing law."""
    if not gamma > 0:
        raise ValueError("gamma must be positive")
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    expo = np.sum(1.0 - np.cos(2.0 * z * np.outer(ts, a.coords)), axis=1)
    vals = np.exp(-0.5 * gamma * expo)
    return float(vals[0]) if np.ndim(t) == 0 else vals


def check_smoothing_identities(
    a: WeightVector,
    z: float,
    y: float,
    gamma: float,
    t_grid: Sequence[float],
) -> GadgetReport:
    """Scale identity H_{z,gamma}(t) = H_{y,gamma}(z t / y) and power identity
    H_{z,gamma} = H_{z,1}^gamma, checked to floating-point accuracy (relative
    error 1e-11)."""
    ts = np.asarray(t_grid, dtype=float)
    base = smoothing_cf(a, z, gamma, ts)
    rescaled = smoothing_cf(a, y, gamma, z * ts / y)
    powered = smoothing_cf(a, z, 1.0, ts) ** gamma
    err = np.maximum(np.abs(base - rescaled), np.abs(base - powered))
    scale = np.maximum(np.abs(base), 1e-300)
    return _worst_margin(ts, -(err / scale), slack=1e-11)


def check_smoothing_lattice_bound(
    a: WeightVector, t_grid: Sequence[float]
) -> GadgetReport:
    """H_{pi,1}(t) <= exp(-4 dist(t a, Z^n)^2): cosine-vs-quadratic domination."""
    ts = np.asarray(t_grid, dtype=float)
    h = smoothing_cf(a, math.pi, 1.0, ts)
    # Scalar math.exp (np.exp may differ in the last bit).
    bound = np.array([math.exp(-4.0 * d ** 2) for d in dist_to_lattice(ts, a).tolist()])
    margins = bound - h
    return _worst_margin(ts, margins)


def check_smoothing_gaussian_branch(
    a: WeightVector, t_grid: Sequence[float]
) -> GadgetReport:
    """H_{pi,1}(t) <= exp(-4 t^2 ||a||^2) on |t| <= 1/(2 ||a||_inf), where the
    lattice distance is exactly t ||a||."""
    ts = np.asarray(t_grid, dtype=float)
    ts = ts[np.abs(ts) <= 0.5 / a.norm_inf]
    if ts.size == 0:
        return GadgetReport(passed=True, worst_t=0.0, worst_margin=0.0, n_points=0)
    h = smoothing_cf(a, math.pi, 1.0, ts)
    bound = np.exp(-4.0 * (ts * a.norm2) ** 2)
    margins = bound - h
    return _worst_margin(ts, margins)
