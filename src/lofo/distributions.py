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
from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

# Atoms closer than this merge during construction.  Exact rational supports
# pushed through float arithmetic must not split their masses.
ATOM_REL_TOL = 1e-9
ATOM_ABS_TOL = 1e-12
MASS_TOL = 1e-12
_CF_CHUNK_ENTRIES = 2**22     # cap on one weighted_cf block (32 MiB of float64; two if not mirrored)
_STREAM_BLOCK = 2**14         # entries per block of the stable sampler and the tau0 solver
_M_CHUNK_ENTRIES = 2**18      # cap on one finite-law M ratio block (2 MiB of float64)

_SQRT2 = math.sqrt(2.0)
_SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class _Record:
    """Base of the result dataclasses: the JSON object is the fields, by name.

    A tuple field (rows, gaps, points) becomes a list whose tuple items
    become lists and whose dict items are copied.
    """

    def to_json(self) -> dict:
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [dict(x) if isinstance(x, dict) else list(x) for x in value]
            out[f.name] = value
        return out


def _same_atom(x, y):
    """True where positions x and y are one atom: |x - y| is at most
    max(ATOM_ABS_TOL, ATOM_REL_TOL * max(|x|, |y|)).  Elementwise on arrays."""
    scale = np.maximum(np.abs(x), np.abs(y))
    return np.abs(x - y) <= np.maximum(ATOM_ABS_TOL, ATOM_REL_TOL * scale)


def _coalesce(atoms: np.ndarray, masses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Merge near-duplicate sorted atoms; masses add, positions mass-average.

    Ungrouped atoms pass through bitwise so exact (e.g. dyadic) supports stay
    exact; only genuinely merged groups are repositioned.  The average weighs
    each member by its mass over the group's largest mass, so subnormal
    masses cannot move a merged atom outside its members' range.
    """
    starts = ~_same_atom(atoms[1:], atoms[:-1])
    if np.all(starts):
        return atoms, masses
    group = np.concatenate(([0], np.cumsum(starts)))
    sizes = np.bincount(group)
    merged_mass = np.bincount(group, weights=masses)
    first_member = np.concatenate(([0], np.cumsum(sizes)[:-1]))
    rel = masses / np.maximum.reduceat(masses, first_member)[group]
    centroid = np.bincount(group, weights=rel * atoms) / np.bincount(group, weights=rel)
    centroid = np.clip(centroid, atoms[first_member], atoms[first_member + sizes - 1])
    return np.where(sizes > 1, centroid, atoms[first_member]), merged_mass


class FiniteDist:
    """Finite discrete probability law with strictly increasing atoms.

    Construction sorts, coalesces near-duplicate atoms, drops zero masses,
    and validates that masses are positive and sum to 1 within 1e-12.
    The arrays are frozen; instances are immutable and shareable.
    """

    __slots__ = ("atoms", "masses", "_fold")

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
        self._fold = None  # filled by _cf_fold on the first CF evaluation

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
            if 0 <= j < self.atoms.size and _same_atom(self.atoms[j], x):
                return float(self.masses[j])
        return 0.0

    def is_symmetric(self) -> bool:
        """True when mass(x) == mass(-x) for every atom (about 0)."""
        a, p = self.atoms, self.masses
        if not np.all(_same_atom(a, -a[::-1])):
            return False
        return bool(np.all(np.abs(p - p[::-1]) <= MASS_TOL))

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
            return np.exp(-0.5 * (self.sigma * t) ** 2)
        return np.exp(-self.scale * np.abs(t) ** self.alpha)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_sample_size(n)
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

    The draws of _stable_draws, so one length-n array plus O(_STREAM_BLOCK)
    scratch.  alpha = 1 does not use the n exponentials but still draws
    them, in blocks of _STREAM_BLOCK, so that the generator ends where the
    other exponents leave it: a weighted sum of several stable variates
    draws them one after another from one generator.
    """
    z = _stable_draws(alpha, scale, n, rng)
    if alpha == 1.0:
        for lo in range(0, n, _STREAM_BLOCK):
            rng.exponential(1.0, min(_STREAM_BLOCK, n - lo))
    return z


def _stable_draws(alpha: float, scale: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """n variates with CF exp(-scale * |t|^alpha), with no exponential drawn
    at alpha = 1: for a generator that nothing draws from afterwards.

    With U uniform on (-pi/2, pi/2) and W standard exponential,
    Z = sin(alpha U) / cos(U)^(1/alpha) * (cos((1 - alpha) U) / W)^((1 - alpha)/alpha),
    or tan(U) at alpha = 1, and the draw is scale^(1/alpha) Z.  The n
    uniforms are drawn into the returned buffer first.  alpha = 1 then takes
    tan in place.  Other exponents evaluate Z one block of _STREAM_BLOCK
    entries at a time, in this operation order, in two block scratch
    buffers: each block's exponentials are drawn over its spent uniforms
    just before it uses them, and its Z is written back over them.  The
    blocks are taken in order, so the generator sees all n uniforms and then
    all n exponentials, the stream of drawing both up front; the formula is
    elementwise, so every draw has the bits of a whole-array evaluation.
    One length-n array is live, plus 2 * _STREAM_BLOCK floats of scratch.
    """
    u = rng.random(n)
    if alpha == 1.0:
        u -= 0.5
        u *= math.pi
        np.tan(u, out=u)
    else:
        size = max(1, min(_STREAM_BLOCK, n))
        z_buf, c_buf = np.empty(size), np.empty(size)
        for lo in range(0, n, size):
            ub = u[lo : lo + size]
            z, c = z_buf[: ub.size], c_buf[: ub.size]
            ub -= 0.5
            ub *= math.pi
            np.multiply(ub, alpha, out=z)
            np.sin(z, out=z)
            np.cos(ub, out=c)
            c **= 1.0 / alpha
            z /= c
            np.multiply(ub, 1.0 - alpha, out=c)
            np.cos(c, out=c)
            w = rng.standard_exponential(out=ub)  # as rng.exponential(1.0, ub.size)
            c /= w
            c **= (1.0 - alpha) / alpha
            np.multiply(z, c, out=ub)
    # After every draw: scale ** (1/alpha) may raise OverflowError.
    u *= scale ** (1.0 / alpha)
    return u


def _seeded_draws(g: Dist, n: int, seed: int) -> np.ndarray:
    """n draws of g from a generator of its own, seeded with seed and then
    dropped.  A stable law takes _stable_draws: nothing draws after it, so
    the exponentials that keep sample_symmetric_stable's stream are waste."""
    rng = np.random.default_rng(seed)
    if isinstance(g, AnalyticDist) and g.kind == "stable":
        _check_sample_size(n)
        return _stable_draws(g.alpha, g.scale, n, rng)
    return g.sample(n, rng)


def _check_sample_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"n_samples must be at least 1, got {n}")


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
    # A positive difference that is one atom with 0 belongs to the zero atom.
    near_zero = _same_atom(d, 0.0)
    if np.any(near_zero):
        mass_zero += 2.0 * float(np.sum(w[near_zero]))
        d, w = d[~near_zero], w[~near_zero]
    atoms = np.concatenate((-d[::-1], [0.0], d))
    masses = np.concatenate((w[::-1], [mass_zero], w))
    return FiniteDist(atoms, masses)


# ---------------------------------------------------------------------------
# Characteristic functions
# ---------------------------------------------------------------------------


def _cf_fold(f: FiniteDist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atoms y, even masses m and odd masses o with
    CF_f(t) = sum_j m_j cos(t y_j) + i sum_j o_j sin(t y_j), built once per law.

    A law whose atoms and masses are bitwise mirrored about 0 (every
    symmetrized law) folds onto its nonnegative half: each positive atom
    carries twice its mass, the zero atom its own, and o is empty because
    the sine terms cancel in pairs.  Any other law keeps its atoms, with
    m = o = its masses.  The law's arrays are read-only, so the fold is
    cached on it.
    """
    fold = f._fold
    if fold is None:
        x, p = f.atoms, f.masses
        if np.array_equal(x, -x[::-1]) and np.array_equal(p, p[::-1]):
            half = x.size // 2
            m = 2.0 * p[half:]
            if x.size % 2:
                m[0] = p[half]
            fold = (x[half:], m, p[:0])
        else:
            fold = (x, p, p)
        f._fold = fold
    return fold


def _finite_cf(f: FiniteDist, t: np.ndarray) -> np.ndarray:
    """Exact CF of f at every entry of t (any shape), over f's fold.

    The even sum, and the odd sum when the fold has odd masses, are each one
    np.add.reduce along the atom axis, whose order depends only on the
    number of atoms: every entry has the bits of its own call.  float64 for
    a mirrored law, complex128 otherwise.
    """
    y, m, o = _cf_fold(f)
    ty = np.multiply.outer(t, y)
    if o.size:
        odd = np.sin(ty)
        odd *= o
    np.cos(ty, out=ty)
    ty *= m
    even = np.add.reduce(ty, axis=-1)
    if not o.size:
        return even
    vals = np.empty(even.shape, dtype=complex)
    vals.real, vals.imag = even, np.add.reduce(odd, axis=-1)
    return vals


def _cf_nodes(t) -> np.ndarray:
    """t as a float array of at least one dimension; ValueError unless finite."""
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.isfinite(t_arr).all():
        raise ValueError("t must be finite")
    return t_arr


def cf_eval(dist: Dist, t) -> complex | np.ndarray:
    """Characteristic function E exp(itX); vectorized over t.

    Exact finite sum for FiniteDist (see _finite_cf), closed form for the
    analytic kinds.  An array t gives float64 values where the CF is real
    (a mirrored finite law, a Gaussian or a stable law) and complex128
    otherwise; a scalar t gives a complex.  Raises ValueError, before any
    evaluation, if some t is not finite, and if a value has modulus above
    1 + 1e-12.
    """
    t_arr = _cf_nodes(t)
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
    plain sequence.  Vectorized over t (flattened): float64 values where
    the law's CF is real (a mirrored finite law, a Gaussian or a stable
    law), complex128 otherwise; a scalar t gives a complex.  Raises
    ValueError, before any evaluation, if some t is not finite.  The t
    values are taken in chunks so that the (t, coords, folded atoms) block
    stays within _CF_CHUNK_ENTRIES entries; a single t whose block alone is
    larger is still evaluated whole.  Each t is reduced on its own, so
    chunking does not change a bit.
    """
    a = np.asarray(getattr(coords, "coords", coords), dtype=float).ravel()
    t_arr = _cf_nodes(t).ravel()
    finite = isinstance(dist, FiniteDist)
    per_t = a.size * (_cf_fold(dist)[0].size if finite else 1)
    rows = max(1, _CF_CHUNK_ENTRIES // max(per_t, 1))
    chunks = []
    for lo in range(0, max(t_arr.size, 1), rows):  # an empty t still makes one chunk
        # (rows, n_coords) grid of scaled arguments; product over coordinates.
        args = t_arr[lo : lo + rows, None] * a
        flat = _finite_cf(dist, args) if finite else dist.cf(args)
        chunks.append(np.prod(flat, axis=-1))
    vals = np.concatenate(chunks)
    return complex(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


# ---------------------------------------------------------------------------
# The spread functional M(tau) and its tau -> 0 limit
# ---------------------------------------------------------------------------


def m_functional(
    g: Dist,
    tau,
    *,
    n_samples: int = 1_000_000,
    seed: int = 0,
) -> float | list[float]:
    """Spread functional M(tau) = E min(X~^2/tau^2, 1) of a symmetric law g.

    tau is a scalar (returns a float) or a 1-D grid (returns a list whose
    every value has the bits of the scalar call).  tau is checked once and
    the whole grid goes to one kernel per law kind: the exact sum for finite
    laws (``_m_finite``); the closed form through erf/erfc for Gaussian laws
    (``_m_gaussian``, within 1e-14 absolute for every tau > 0); the mean over
    one seeded sample of n_samples draws for stable laws (``_m_stable``),
    whose Monte Carlo error is not reported.  Nonincreasing in tau, with
    M(tau) <= P(X~ != 0).  A finite law must be symmetric; the analytic
    kinds are symmetric by construction.
    """
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise ValueError("tau must be a scalar or a 1-D grid")
    tau_list = taus.ravel().tolist()
    if not all(t > 0 for t in tau_list):
        raise ValueError("tau must be positive")
    if isinstance(g, FiniteDist):
        vals = _m_finite(g, taus)
    elif g.kind == "gaussian":
        vals = [_m_gaussian(g.sigma, t) for t in tau_list]
    else:
        vals = _m_stable(g, tau_list, n_samples, seed)
    return vals if taus.ndim else vals[0]


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


def _m_stable(g: AnalyticDist, taus: list, n_samples: int, seed: int) -> list[float]:
    """M(tau) of a stable law g at every tau of the list ``taus``, from one
    seeded sample of n_samples draws (none for an empty list).  One tau
    works in the draws' buffer, more in one scratch buffer; a ratio or
    square past the float range clips to 1."""
    if not taus:
        return []
    draws = _seeded_draws(g, n_samples, seed)
    # A grid needs the draws intact for every tau, so its ratios take one
    # length-n scratch array: np.mean sums pairwise over the whole array, an
    # order that blocks of it would not keep.
    buf = draws if len(taus) == 1 else np.empty_like(draws)
    out = []
    with np.errstate(over="ignore"):
        for tau in taus:
            np.divide(draws, tau, out=buf)
            np.square(buf, out=buf)
            np.minimum(buf, 1.0, out=buf)
            out.append(float(np.mean(buf)))
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
    One list of edges r ** -j, j = 0, 1, ..., decides each atom's annulus
    and is the list the reported annuli are read from, so every atom is
    counted in the annulus whose reported (lo, hi] contains it.  The returned
    certificate checks beta >= M(1)/r^2 (within 1e-12).
    """
    if not 1.0 < r <= _SQRT2:
        raise ValueError("annulus ratio r must lie in (1, sqrt(2)]")
    if not isinstance(g, FiniteDist) or not g.is_symmetric():
        raise ValueError("mixture decomposition needs a symmetric finite law")
    q = g.mass_at(0.0)
    abs_atoms = np.abs(g.atoms)
    nonzero = ~_same_atom(abs_atoms, 0.0)
    if not np.any(nonzero):
        return MixtureDecomposition(
            r=r, q=q, p=(), annuli=(), beta_j=(), beta=0.0, mu=(),
            m1=0.0, beta_bound=0.0, certified=True,
        )
    u = abs_atoms[nonzero]
    w = g.masses[nonzero]
    # Annulus j >= 1 is (edges[j], edges[j - 1]]; the list ends at the first
    # edge below the smallest |atom|.  The index of |x| is the number of
    # edges >= |x|.
    u_min = float(u.min())
    edges = [1.0]
    while edges[-1] >= u_min:
        edges.append(r ** -len(edges))
    idx = np.searchsorted(-np.array(edges), -u, side="right")
    n_annuli = len(edges)
    p = np.zeros(n_annuli)
    np.add.at(p, idx, w)
    j_arr = np.arange(n_annuli)
    beta_j = r ** (-2.0 * j_arr) * p
    beta = float(np.sum(beta_j))
    mu = beta_j / beta if beta > 0 else np.zeros_like(beta_j)
    annuli = [(1.0, math.inf)] + list(zip(edges[1:], edges[:-1]))
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
