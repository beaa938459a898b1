"""Distribution representations and the spread functional M.

Two carriers are supported:

* ``FiniteDist`` -- a finite discrete law (sorted atoms + masses), the
  exact-computation workhorse.  All arithmetic on finite laws (symmetrization,
  convolution) coalesces atoms that floating point splits apart.
* ``AnalyticDist`` -- a law given in closed form through its characteristic
  function (centered Gaussian or symmetric stable), with a seeded sampler for
  Monte Carlo paths.

On top of these live the symmetrization map X -> X1 - X2, characteristic
function evaluation, the spread functional

    M(tau) = E min(X~^2 / tau^2, 1),

its tau -> 0 limit P = P(X~ != 0), and the annulus mixture decomposition of a
symmetric finite law used by the smoothing argument (q at zero, masses p_j on
annuli A_0 = {|x| > 1}, A_j = (r^-j, r^-(j-1)], and beta = sum r^-2j p_j with
the certified lower bound beta >= M(1)/r^2 >= M(1)/2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

# Atoms closer than this merge during construction.  Exact rational supports
# pushed through float arithmetic must not split their masses.
ATOM_REL_TOL = 1e-9
ATOM_ABS_TOL = 1e-12
MASS_TOL = 1e-12
_CF_CHUNK_ENTRIES = 2**22     # cap on one weighted_cf block (64 MiB of complex128)
_EXP_SKIP_BLOCK = 2**14       # exponentials skipped per block by the alpha = 1 sampler
_M_CHUNK_ENTRIES = 2**18      # cap on one finite-law M ratio block (2 MiB of float64)

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def _coalesce(atoms: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge near-duplicate sorted atoms; masses add, positions mass-average.

    Ungrouped atoms pass through bitwise so exact (e.g. dyadic) supports stay
    exact; only genuinely merged groups are repositioned.  The average weighs
    each member by its mass over the group's largest mass, so subnormal
    masses cannot move a merged atom outside its members' range.
    """
    if atoms.size <= 1:
        return atoms, masses
    gaps = np.diff(atoms)
    scale = np.maximum(np.abs(atoms[1:]), np.abs(atoms[:-1]))
    starts = gaps > np.maximum(ATOM_ABS_TOL, ATOM_REL_TOL * scale)
    if np.all(starts):
        return atoms, masses
    group = np.concatenate(([0], np.cumsum(starts)))
    sizes = np.bincount(group)
    merged_mass = np.bincount(group, weights=masses)
    first_member = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    out_atoms = atoms[first_member]
    multi = sizes > 1
    if np.any(multi):
        rel = masses / np.maximum.reduceat(masses, first_member)[group]
        centroid = np.bincount(group, weights=rel * atoms) / np.bincount(group, weights=rel)
        centroid = np.clip(centroid, atoms[first_member], atoms[first_member + sizes - 1])
        out_atoms = np.where(multi, centroid, out_atoms)
    return out_atoms, merged_mass


class FiniteDist:
    """Finite discrete probability law with strictly increasing atoms.

    Construction sorts, coalesces near-duplicate atoms, drops zero masses,
    and validates that masses are positive and sum to 1 within 1e-12.
    The arrays are frozen; instances are immutable and shareable.
    """

    __slots__ = ("atoms", "masses")

    def __init__(self, atoms: Sequence[float], masses: Sequence[float]):
        a = np.asarray(atoms, dtype=float).ravel()
        p = np.asarray(masses, dtype=float).ravel()
        if a.size == 0 or a.size != p.size:
            raise ValueError("atoms and masses must be nonempty and aligned")
        if not np.all(np.isfinite(a)):
            raise ValueError("atoms must be finite")
        if np.any(p < -MASS_TOL):
            raise ValueError("masses must be nonnegative")
        # Zero masses (e.g. pmf underflow) carry no information; drop before
        # coalescing so they cannot form empty groups.
        nonzero = p > 0.0
        a, p = a[nonzero], p[nonzero]
        if a.size == 0:
            raise ValueError("distribution has no mass")
        order = np.argsort(a, kind="stable")
        a, p = _coalesce(a[order], p[order])
        total = float(np.sum(p))
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1 within {MASS_TOL:g}")
        a.flags.writeable = False
        p.flags.writeable = False
        self.atoms = a
        self.masses = p

    # -- constructors -------------------------------------------------------

    @classmethod
    def point_mass(cls, x: float) -> "FiniteDist":
        return cls([x], [1.0])

    @classmethod
    def bernoulli(cls, p: float) -> "FiniteDist":
        if not 0.0 < p < 1.0:
            raise ValueError("bernoulli parameter must lie in (0, 1)")
        return cls([0.0, 1.0], [1.0 - p, p])

    @classmethod
    def uniform_on(cls, atoms: Sequence[float]) -> "FiniteDist":
        a = np.asarray(atoms, dtype=float)
        return cls(a, np.full(a.size, 1.0 / a.size))

    # -- basic queries -------------------------------------------------------

    @property
    def n_atoms(self) -> int:
        return int(self.atoms.size)

    def mass_at(self, x: float) -> float:
        """Mass of the atom coalescing with x (0.0 if none)."""
        i = int(np.searchsorted(self.atoms, x))
        for j in (i - 1, i):
            if 0 <= j < self.atoms.size:
                ref = max(abs(x), abs(self.atoms[j]))
                if abs(self.atoms[j] - x) <= max(ATOM_ABS_TOL, ATOM_REL_TOL * ref):
                    return float(self.masses[j])
        return 0.0

    def is_symmetric(self, tol: float = MASS_TOL) -> bool:
        """True when mass(x) == mass(-x) for every atom (about 0)."""
        a, p = self.atoms, self.masses
        mirrored = -a[::-1]
        scale = np.maximum(np.abs(a), np.abs(mirrored))
        if np.any(np.abs(a - mirrored) > np.maximum(ATOM_ABS_TOL, ATOM_REL_TOL * scale)):
            return False
        return bool(np.all(np.abs(p - p[::-1]) <= tol))

    def scaled(self, c: float) -> "FiniteDist":
        """Law of c*X."""
        if c == 0.0:
            return FiniteDist.point_mass(0.0)
        return FiniteDist(c * self.atoms, self.masses)

    def __repr__(self) -> str:
        return f"FiniteDist({self.n_atoms} atoms on [{self.atoms[0]:g}, {self.atoms[-1]:g}])"


class AnalyticDist:
    """Law given by a closed-form characteristic function plus a sampler.

    Two kinds:
      * ``gaussian``: centered with scale sigma, CF exp(-sigma^2 t^2 / 2);
      * ``stable``: symmetric stable, CF exp(-scale * |t|^alpha), alpha in (0, 2].

    The constructors require a positive, finite scale.
    """

    __slots__ = ("kind", "sigma", "alpha", "scale")

    def __init__(self, kind, sigma=None, alpha=None, scale=None):
        self.kind = kind
        self.sigma = sigma
        self.alpha = alpha
        self.scale = scale

    @classmethod
    def gaussian(cls, sigma: float) -> "AnalyticDist":
        if not 0 < sigma < math.inf:
            raise ValueError("gaussian scale sigma must be positive and finite")
        return cls("gaussian", sigma=float(sigma))

    @classmethod
    def stable(cls, alpha: float, scale: float = 1.0) -> "AnalyticDist":
        if not 0.0 < alpha <= 2.0:
            raise ValueError("stable exponent must lie in (0, 2]")
        if not 0 < scale < math.inf:
            raise ValueError("stable scale must be positive and finite")
        return cls("stable", alpha=float(alpha), scale=float(scale))

    def cf(self, t: np.ndarray) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        if self.kind == "gaussian":
            return np.exp(-0.5 * (self.sigma * t) ** 2) + 0.0j
        return np.exp(-self.scale * np.abs(t) ** self.alpha) + 0.0j

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        if self.kind == "gaussian":
            return rng.normal(0.0, self.sigma, n)
        return sample_symmetric_stable(self.alpha, self.scale, n, rng)

    def __repr__(self) -> str:
        if self.kind == "gaussian":
            return f"AnalyticDist.gaussian(sigma={self.sigma:g})"
        return f"AnalyticDist.stable(alpha={self.alpha:g}, scale={self.scale:g})"


Dist = Union[FiniteDist, AnalyticDist]


def sample_symmetric_stable(
    alpha: float, scale: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n variates with CF exp(-scale * |t|^alpha) (Chambers-Mallows-Stuck).

    With U uniform on (-pi/2, pi/2) and W standard exponential,
    Z = sin(alpha U) / cos(U)^(1/alpha) * (cos((1 - alpha) U) / W)^((1 - alpha)/alpha),
    or tan(U) at alpha = 1, and the draw is scale^(1/alpha) Z.  The n
    uniforms are drawn first and the n exponentials right after them, so the
    generator's stream is the same as drawing both up front; the formula is
    evaluated in place in that operation order, and W is drawn into U's
    buffer once U is spent, so at most three length-n arrays are live.
    alpha = 1 does not use W but still draws it, in blocks of
    _EXP_SKIP_BLOCK, so that the generator ends where the other exponents
    leave it: a weighted sum of several stable variates draws them one after
    another from one generator.
    """
    u = rng.random(n)
    u -= 0.5
    u *= math.pi
    if alpha == 1.0:
        z = np.tan(u, out=u)
        for lo in range(0, n, _EXP_SKIP_BLOCK):
            rng.exponential(1.0, min(_EXP_SKIP_BLOCK, n - lo))
    else:
        z = np.multiply(u, alpha)
        np.sin(z, out=z)
        c = np.cos(u)
        c **= 1.0 / alpha
        z /= c
        np.multiply(u, 1.0 - alpha, out=c)
        np.cos(c, out=c)
        w = rng.standard_exponential(out=u)  # the variates of rng.exponential(1.0, n)
        c /= w
        c **= (1.0 - alpha) / alpha
        z *= c
    z *= scale ** (1.0 / alpha)
    return z


# ---------------------------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------------------------


def symmetrize(dist: Dist) -> Dist:
    """Law of X~ = X1 - X2 for independent copies X1, X2 ~ dist.

    For a finite law the result is built on the nonnegative half and mirrored,
    so mass(x) == mass(-x) holds bitwise.  For analytic laws: a Gaussian with
    scale sigma maps to scale sigma*sqrt(2); a stable law keeps alpha and
    doubles the scale.
    """
    if isinstance(dist, AnalyticDist):
        if dist.kind == "gaussian":
            return AnalyticDist.gaussian(dist.sigma * _SQRT2)
        return AnalyticDist.stable(dist.alpha, 2.0 * dist.scale)

    x, p = dist.atoms, dist.masses
    mass_zero = float(np.dot(p, p))
    if x.size == 1:
        return FiniteDist.point_mass(0.0)
    i, j = np.tril_indices(x.size, k=-1)
    diffs = x[i] - x[j]          # strictly positive: atoms sorted, i > j
    weights = p[i] * p[j]
    order = np.argsort(diffs, kind="stable")
    d, w = _coalesce(diffs[order], weights[order])
    # A positive difference below the absolute tolerance belongs to the zero atom.
    near_zero = d <= ATOM_ABS_TOL
    if np.any(near_zero):
        mass_zero += 2.0 * float(np.sum(w[near_zero]))
        d, w = d[~near_zero], w[~near_zero]
    atoms = np.concatenate((-d[::-1], [0.0], d))
    masses = np.concatenate((w[::-1], [mass_zero], w))
    return FiniteDist(atoms, masses)


# ---------------------------------------------------------------------------
# Characteristic functions
# ---------------------------------------------------------------------------


def _finite_cf(f: FiniteDist, t: np.ndarray) -> np.ndarray:
    """Exact CF sum_j p_j exp(i t x_j) at every entry of t (any shape)."""
    return np.exp(1j * np.multiply.outer(t, f.atoms)) @ f.masses


def cf_eval(dist: Dist, t) -> complex | np.ndarray:
    """Characteristic function E exp(itX); vectorized over t.

    Exact finite sum for FiniteDist, closed form for the analytic kinds.
    Raises if a value has modulus above 1 + 1e-12.
    """
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if isinstance(dist, FiniteDist):
        vals = _finite_cf(dist, t_arr)
    else:
        vals = dist.cf(t_arr)
    if np.any(np.abs(vals) > 1.0 + 1e-12):
        raise ValueError("characteristic function exceeds modulus 1")
    return complex(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


def weighted_cf(dist: Dist, coords, t) -> complex | np.ndarray:
    """CF of sum_k a_k X_k for i.i.d. X_k ~ dist: prod_k CF(a_k t).

    ``coords`` may be a weight vector object (anything with .coords) or a
    plain sequence.  Vectorized over t (flattened).  The t values are taken
    in chunks so that the (t, coords, atoms) complex block stays within
    _CF_CHUNK_ENTRIES entries; a single t whose block alone is larger is
    still evaluated whole.  Each t is reduced on its own, so chunking does
    not change a bit.
    """
    a = np.asarray(getattr(coords, "coords", coords), dtype=float).ravel()
    t_arr = np.atleast_1d(np.asarray(t, dtype=float)).ravel()
    finite = isinstance(dist, FiniteDist)
    per_t = a.size * (dist.n_atoms if finite else 1)
    rows = max(1, _CF_CHUNK_ENTRIES // max(per_t, 1))
    chunks = []
    for lo in range(0, max(t_arr.size, 1), rows):  # an empty t still makes one chunk
        # (rows, n_coords) grid of scaled arguments; product over coordinates.
        args = np.outer(t_arr[lo : lo + rows], a)
        if finite:
            flat = _finite_cf(dist, args)
        else:
            flat = dist.cf(args.ravel()).reshape(args.shape)
        chunks.append(np.prod(flat, axis=-1))
    vals = np.concatenate(chunks)
    return complex(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


# ---------------------------------------------------------------------------
# The spread functional M(tau) and its tau -> 0 limit
# ---------------------------------------------------------------------------


def m_functional(
    g: Dist,
    tau: float,
    *,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> float:
    """Spread functional M(tau) = E min(X~^2/tau^2, 1) of a symmetric law g.

    Exact sum for finite laws; closed form through erf/erfc for Gaussian
    laws (within 1e-14 absolute for every tau > 0); the mean over n_samples
    seeded draws for stable laws, whose Monte Carlo error is not reported.
    The stable path divides, squares and clips the draws in their own
    buffer, so beyond the sampler it holds no second length-n array.
    Nonincreasing in tau, with M(tau) <= P(X~ != 0).  A finite law must be
    symmetric; the analytic kinds are symmetric by construction.
    """
    if not tau > 0:
        raise ValueError("tau must be positive")
    if isinstance(g, FiniteDist):
        return _m_finite(g, [tau])[0]
    if g.kind == "gaussian":
        return _m_gaussian(g.sigma, tau)
    draws = g.sample(n_samples, np.random.default_rng(seed))
    draws /= tau
    np.square(draws, out=draws)
    np.minimum(draws, 1.0, out=draws)
    return float(np.mean(draws))


def _m_finite(g: FiniteDist, taus) -> list[float]:
    """M(tau) = sum_j p_j min(x_j^2/tau^2, 1) of a symmetric finite law, for
    every tau > 0 in the 1-D sequence ``taus``.

    Symmetry is checked once.  The taus are taken in chunks so that the
    (taus, atoms) ratio block stays within _M_CHUNK_ENTRIES entries; a single
    tau whose row alone is larger is still taken whole.  Each row is summed
    by a stacked vector-vector np.matmul, which sums in np.dot's order, so
    every value has the bits of a one-tau call (a matrix-vector V @ p would
    sum in another order and change bits).
    """
    if not g.is_symmetric():
        raise ValueError("expected a symmetric (symmetrized) distribution")
    taus = np.asarray(taus, dtype=float).ravel()
    out = []
    rows = max(1, _M_CHUNK_ENTRIES // g.n_atoms)
    masses = g.masses[:, None]
    for lo in range(0, taus.size, rows):
        with np.errstate(over="ignore"):  # a ratio or square past the float range clips to 1
            ratio = g.atoms / taus[lo : lo + rows, None]
            np.multiply(ratio, ratio, out=ratio)
        np.minimum(ratio, 1.0, out=ratio)
        out += np.matmul(ratio[:, None, :], masses)[:, 0, 0].tolist()
    return out


def _m_gaussian(sigma: float, tau: float) -> float:
    """M(tau) for a centered Gaussian with scale sigma (the symmetric law itself).

    With a = tau/sigma: M = erfc(a/sqrt2) + (erf(a/sqrt2) - sqrt(2/pi) a e^(-a^2/2))/a^2,
    tail mass plus truncated second moment.  Below a = 0.05 the second term,
    which cancels there, is its series sqrt(2/pi) a (1/3 - a^2/10 + a^4/56 -
    a^6/432); the first omitted term is below 4e-16.
    """
    a = tau / sigma
    if a < 0.05:
        a2 = a * a
        body = _SQRT_2_OVER_PI * a * (1.0 / 3.0 - a2 * (0.1 - a2 * (1.0 / 56.0 - a2 / 432.0)))
    else:
        body = (math.erf(a / _SQRT2) - _SQRT_2_OVER_PI * a * math.exp(-0.5 * a * a)) / (a * a)
    return math.erfc(a / _SQRT2) + body


def atom_survival(g: Dist) -> float:
    """P = P(X~ != 0), the tau -> 0 limit of M(tau).

    1 - (mass at 0) for finite laws; 1.0 for the continuous analytic kinds.
    """
    if isinstance(g, FiniteDist):
        return 1.0 - g.mass_at(0.0)
    return 1.0


# ---------------------------------------------------------------------------
# Annulus mixture decomposition of a symmetric finite law
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MixtureDecomposition:
    """Mixture of a symmetric finite law over the zero atom and annuli.

    q is the mass at 0; p[j] is the mass of annulus A_j where A_0 = {|x| > 1}
    and A_j = (r^-j, r^-(j-1)] for j >= 1; beta_j = r^(-2j) p_j; beta is their
    sum and mu_j = beta_j / beta.  ``beta_bound`` is M(1)/r^2, which beta is
    certified to dominate (hence beta >= M(1)/2 for r <= sqrt(2)).
    """

    r: float
    q: float
    p: tuple[float, ...]
    annuli: tuple[tuple[float, float], ...]
    beta_j: tuple[float, ...]
    beta: float
    mu: tuple[float, ...]
    m1: float
    beta_bound: float
    certified: bool


def mixture_decompose(g: FiniteDist, r: float = _SQRT2) -> MixtureDecomposition:
    """Decompose a symmetric finite law into zero mass plus annulus masses.

    Annuli stop at the smallest nonzero |atom|; all deeper annuli are empty.
    The returned certificate checks beta >= M(1)/r^2 (within 1e-12).
    """
    if not 1.0 < r <= _SQRT2:
        raise ValueError("annulus ratio r must lie in (1, sqrt(2)]")
    if not isinstance(g, FiniteDist) or not g.is_symmetric():
        raise ValueError("mixture decomposition needs a symmetric finite law")
    q = g.mass_at(0.0)
    abs_atoms = np.abs(g.atoms)
    nonzero = abs_atoms > ATOM_ABS_TOL
    if not np.any(nonzero):
        return MixtureDecomposition(
            r=r, q=q, p=(), annuli=(), beta_j=(), beta=0.0, mu=(),
            m1=0.0, beta_bound=0.0, certified=True,
        )
    u = abs_atoms[nonzero]
    w = g.masses[nonzero]
    log_r = math.log(r)
    idx = np.zeros(u.size, dtype=int)
    inner = u <= 1.0
    idx[inner] = np.floor(-np.log(u[inner]) / log_r).astype(int) + 1
    # Boundary fixups: enforce r^-j < |x| <= r^-(j-1) under float log error.
    for k in np.nonzero(inner)[0]:
        j = idx[k]
        while j > 1 and u[k] > r ** (-(j - 1)):
            j -= 1
        while u[k] <= r ** (-j):
            j += 1
        idx[k] = j
    n_annuli = int(idx.max()) + 1
    p = np.zeros(n_annuli)
    np.add.at(p, idx, w)
    j_arr = np.arange(n_annuli)
    beta_j = r ** (-2.0 * j_arr) * p
    beta = float(np.sum(beta_j))
    mu = beta_j / beta if beta > 0 else np.zeros_like(beta_j)
    annuli = [(1.0, math.inf)] + [
        (r ** (-j), r ** (-(j - 1))) for j in range(1, n_annuli)
    ]
    m1 = m_functional(g, 1.0)
    bound = m1 / (r * r)
    return MixtureDecomposition(
        r=r,
        q=q,
        p=tuple(float(v) for v in p),
        annuli=tuple(annuli),
        beta_j=tuple(float(v) for v in beta_j),
        beta=beta,
        mu=tuple(float(v) for v in mu),
        m1=m1,
        beta_bound=bound,
        certified=beta >= bound - 1e-12,
    )
