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
L^2 > 1/P.  For finite laws M is piecewise A + B/tau^2 between consecutive
distinct |atoms| and the root is closed-form on its piece; the Gaussian path
bisects the closed-form M in units of sigma on a bracket from M's bounds, and
stable laws take the piecewise root of the empirical M of one seeded sample.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .concentration import WeightVector
from .distributions import (
    _STREAM_BLOCK,
    Dist,
    FiniteDist,
    _Record,
    _m_gaussian,
    _seeded_draws,
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

    The Gaussian ``method`` reads "bisection_quadrature" although its M is
    closed-form: the label is part of the ``lofo tau0`` JSON and stored reports.
    Its ``iterations`` count bisection steps only (50 to 56 for L >= 1.01);
    the finite and stable roots are exact on their piece and report 0.
    """

    tau0: float
    residual: float
    iterations: int
    method: str
    eps0: Optional[float] = None


def _piecewise_tau0(u: np.ndarray, w, m_stars) -> list[float]:
    """Roots of sum_i w_i min(u_i^2/tau^2, 1) = m_star on sorted positive u
    with positive weights, one per target in the 1-D sequence m_stars, in
    order.

    w is an array aligned with u, or a scalar for equal weights (the
    empirical path), which is never expanded to a length-n array.  Between
    consecutive support points M(tau) = A/tau^2 + B with A the within-radius
    second moment and B the outside mass, so the root is exact on its piece.
    Each target takes one search over the knots m_i = A_i/u_i^2 + B_i and a
    short walk over the pieces from there.

    Nothing of length n is built: u is taken in blocks of _STREAM_BLOCK
    entries, and a block's prefix sums A, suffix sums B and knots are
    rebuilt in three block buffers whenever they are read.  A reverse pass
    records B at each block's last entry; a forward pass records A before
    each block's first entry, builds the blocks in turn, and searches each
    target in the first block whose last knot reaches it.  A block's A
    starts from carry + x_0 and its B, summed from the top down, from the
    recorded B; np.cumsum is a sequential accumulate, so every A and B has
    the bits of one whole-array cumsum (the top block's 0 + w_{n-1} is
    w_{n-1} for a positive weight).  The walks then rebuild only the blocks
    they read.  The block search returns what np.searchsorted over all n
    knots returns whenever the knots are nonincreasing, as they are in
    exact arithmetic: m_{i+1} = A_i/u_{i+1}^2 + B_i <= m_i.  One length-n
    array is read, u, and 3 * _STREAM_BLOCK + 2 n / _STREAM_BLOCK floats
    are written.

    The sums are taken on u times 2^-e, e the binary exponent of max(u)
    (at most 1023), so the squares neither overflow nor underflow however
    large or small u is.  Products, sums, quotients and square roots commute
    with a power-of-two scaling away from subnormals, so a root scaled back
    by 2^e has the bits of the unscaled sums wherever those stayed normal.
    """
    n = u.size
    exp = min(math.frexp(u[-1])[1], 1023)  # 2^exp stays a finite float
    back = 2.0**exp
    size = min(_STREAM_BLOCK, n)
    n_blocks = -(-n // size)
    equal = np.ndim(w) == 0
    knot_buf, a_buf, b_buf = np.empty(size), np.empty(size), np.empty(size)

    def suffix(j, last):
        # B_i = sum_{k > i} w_k on block j, summed from the top down from
        # B at the block's last entry.
        lo, hi = j * size, min(j * size + size, n)
        b = b_buf[: hi - lo]
        b[:-1] = w if equal else w[lo + 1 : hi]
        b[-1] = last
        np.cumsum(b[::-1], out=b[::-1])
        return b

    def prefix(j, carry):
        # s = u 2^-exp (in the knot buffer) and A_i = sum_{k <= i} w_k s_k^2
        # on block j, after carry.
        lo, hi = j * size, min(j * size + size, n)
        s = np.ldexp(u[lo:hi], -exp, out=knot_buf[: hi - lo])
        a = np.multiply(w if equal else w[lo:hi], s, out=a_buf[: hi - lo])
        a *= s
        if lo:
            a[0] = carry + a[0]
        np.cumsum(a, out=a)
        return s, a

    b_last = np.empty(n_blocks)
    last = 0.0
    for j in range(n_blocks - 1, -1, -1):
        b_last[j] = last
        last = suffix(j, last)[0] + (w if equal else w[j * size])
    a_carry = np.empty(n_blocks)
    carry = 0.0
    # Find the piece [u_k, u_{k+1}) containing each root: k is the first
    # index whose knot is at most m_star, n when none is.
    m_stars = np.asarray(m_stars, dtype=float)
    neg_targets = -m_stars
    starts = np.full(m_stars.size, n)
    pending = np.arange(m_stars.size)
    for j in range(n_blocks):
        a_carry[j] = carry
        knot, a = prefix(j, carry)
        np.multiply(knot, knot, out=knot)
        np.divide(a, knot, out=knot)
        knot += suffix(j, b_last[j])
        np.negative(knot, out=knot)
        at = np.searchsorted(knot, neg_targets[pending], side="left")
        placed = at < a.size
        starts[pending[placed]] = j * size + at[placed]
        pending = pending[~placed]
        carry = a[-1]
    roots = []
    built = -1
    for m_star, k in zip(m_stars, starts):
        if k == 0:
            raise PreconditionError("target spread above M at the smallest support point")
        idx = int(k) - 1
        while idx < n:
            j = idx // size
            if j != built:
                a, b = prefix(j, a_carry[j])[1], suffix(j, b_last[j])
                built = j
            a_i, b_i = a[idx - j * size], b[idx - j * size]
            if m_star > b_i:
                tau = math.sqrt(a_i / (m_star - b_i)) * back
                hi = u[idx + 1] if idx + 1 < n else math.inf
                if u[idx] <= tau * (1 + 1e-12) and tau <= hi * (1 + 1e-12):
                    roots.append(tau)
                    break
            idx += 1
        else:
            raise NumericalError("piecewise root not bracketed; inconsistent inputs")
    return roots


def _empirical_spread(g: Dist, n_samples: int, seed: int) -> tuple[np.ndarray, float]:
    """Sorted nonzero |draws| u of one seeded sample of g and the common
    weight 1/n_samples: the empirical M that _piecewise_tau0 solves.

    The draws are made absolute and sorted in place; u is the view past the
    zeros (and before any NaN, which sorts last), so the sample is the only
    length-n array held.  _piecewise_tau0 streams it in blocks, and
    solve_tau0 forms its residual terms over it once the root is known, so
    the empirical tau0 holds this one array plus O(_STREAM_BLOCK) scratch.
    """
    draws = _seeded_draws(g, n_samples, seed)
    np.abs(draws, out=draws)
    draws.sort()
    lo = np.searchsorted(draws, 0.0, side="right")
    hi = np.searchsorted(draws, np.nan, side="left")
    u = draws[lo:hi]
    if u.size == 0:
        raise PreconditionError("sample has no nonzero draws")
    return u, 1.0 / n_samples


def _bisect_tau0(m_of, m_star: float, lo: float, hi: float) -> tuple[float, int]:
    """Root of the nonincreasing m_of = m_star in the bracket [lo, hi] (with
    m_of(lo) >= m_star >= m_of(hi)), and the step count: bisects until
    hi - lo <= 1e-15 * mid, the only stop, reached since lo is a normal float.
    """
    it = 0
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * mid:
            return mid, it
        it += 1
        if m_of(mid) > m_star:
            lo = mid
        else:
            hi = mid


def solve_tau0(
    g: Dist,
    L: float,
    tol: Optional[float] = None,
    *,
    dstar: Optional[float] = None,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> RootSolution:
    """Solve M(tau0) = 1/L^2 for a symmetric law g.

    Requires a finite L with L^2 > 1/P, P = P(X~ != 0); otherwise no root
    exists and a PreconditionError is raised.  So does an L whose square
    overflows, since the target 1/L^2 would round to 0.  tol, which must be
    positive, bounds the residual |M(tau0) - 1/L^2| accepted (default 1e-10
    for finite laws, 1e-6 for the analytic kinds); a larger or NaN residual
    raises NumericalError.
    So does a Gaussian root below the smallest normal float.
    """
    if not 0 < L < math.inf:
        raise ValueError("L must be positive and finite")
    if dstar is not None and not dstar > 0:
        raise ValueError("dstar must be positive")
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
    if tol is None:
        tol = 1e-10 if isinstance(g, FiniteDist) else 1e-6
    if isinstance(g, FiniteDist):
        pos = g.atoms > 0
        u = g.atoms[pos]
        w = 2.0 * g.masses[pos]
        (tau0,) = _piecewise_tau0(u, w, [m_star])
        method, iters = "piecewise_exact", 0
    elif g.kind == "gaussian":
        # Bisect a = tau/sigma on m(a) = E min(Z^2/a^2, 1), Z ~ N(0, 1), in a bracket:
        # m(a) <= E Z^2/a^2 = 1/a^2, so m(sqrt2 L) <= m_star/2 (m(L) may round above);
        # m(a) >= P(|Z| >= a) >= 1 - a sqrt(2/pi), |Z| having density <= sqrt(2/pi);
        # m(a) >= m(1) min(1, a^-2), m(1) = 0.51606 > 1/2: m((2 m_star)^-1/2) > m_star,
        # and for m_star <= 1/2 that end is the larger.
        lo = (1.0 - m_star) * math.sqrt(0.5 * math.pi) if m_star > 0.5 else (2.0 * m_star) ** -0.5
        a0, iters = _bisect_tau0(lambda a: _m_gaussian(1.0, a), m_star, lo, math.sqrt(2.0) * L)
        tau0 = g.sigma * a0
        if tau0 < np.finfo(float).tiny:
            raise NumericalError(f"crossover scale {g.sigma:g} * {a0:.6g} underflows")
        method = "bisection_quadrature"
    else:
        u, w = _empirical_spread(g, n_samples, seed)
        (tau0,) = _piecewise_tau0(u, w, [m_star])
        # w * min((u/tau0)^2, 1) over u's own buffer, dead from here; np.sum's
        # pairwise order needs exactly these elementwise values.
        terms = np.divide(u, tau0, out=u)
        np.square(terms, out=terms)
        np.minimum(terms, 1.0, out=terms)
        terms *= w
        residual = abs(float(np.sum(terms)) - m_star)
        method, iters = "empirical_sample", 0
    if method != "empirical_sample":  # the exact M of a finite or Gaussian law
        residual = abs(m_functional(g, tau0) - m_star)
    if not residual <= tol:
        raise NumericalError(f"crossover residual {residual:g} above tolerance {tol:g}")
    eps0 = tau0 / dstar if dstar is not None else None
    return RootSolution(tau0=tau0, residual=residual, iterations=iters, method=method, eps0=eps0)


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
    if not 0 < dstar < math.inf:
        raise ValueError("dstar must be positive and finite")
    if not 0 < L < math.inf:
        raise ValueError("L must be positive and finite")
    if root is None:
        root = solve_tau0(g, L, n_samples=n_samples, seed=seed)
    eps0 = root.tau0 / dstar
    if eps0 == math.inf:
        raise NumericalError(f"crossover shape: eps0 = {root.tau0:g} / {dstar:g} overflows")
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
