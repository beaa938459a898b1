"""Distribution representations, the spread functional M and its inverse.

Three law kinds, each one class that decides once how it does every job:

* ``FiniteDist`` -- a finite discrete law (sorted atoms + masses), the
  exact-computation workhorse.  All arithmetic on finite laws (symmetrization,
  convolution) coalesces atoms that floating point splits apart.
* ``AnalyticDist.gaussian`` / ``.stable`` -- a centered Gaussian or symmetric
  stable law given in closed form through its characteristic function, with
  a seeded sampler; each constructor returns a private subclass.

The functions below call the law's private methods (FiniteDist's "law
kind" section lists them) and never branch on its kind, so a new kind is one
class plus one row of ``_KINDS``, the JSON ``type`` table.  They are the
symmetrization X -> X1 - X2, characteristic functions, the spread functional
M(tau) = E min(X~^2 / tau^2, 1), its tau -> 0 limit P(X~ != 0), the kernels
that invert M, and the annulus mixture decomposition of a symmetric finite
law used by the smoothing argument (q at zero, masses p_j on annuli
A_0 = {|x| > 1}, A_j = (r^-j, r^-(j-1)], and beta = sum r^-2j p_j with the
certified lower bound beta >= M(1)/r^2 >= M(1)/2).
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass, fields
from typing import Sequence, Union

import numpy as np

from .exceptions import NumericalError, PreconditionError

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

    # -- the law kind: CF, atoms per CF argument, weighted-sum sampler (and, for
    # a sampled M, seeded draws), symmetrization, M, P(X~ != 0), tau0, Q, JSON.

    _q_methods = ("exact", "monte-carlo")
    _tau0_tol = 1e-10
    _tau0_method = "piecewise_exact"

    def _cf(self, t: np.ndarray) -> np.ndarray:
        """Exact CF at every entry of t (any shape) over the fold, float64 if
        mirrored and complex128 otherwise.  Each sum is one np.add.reduce along
        the atom axis, so every entry has the bits of its own call."""
        y, m, o = _cf_fold(self)
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

    def _cf_width(self, reach: float) -> int:
        # The kernel's own product at its largest: no other can overflow.
        y = _cf_fold(self)[0]
        y_max = max(-float(y[0]), float(y[-1]))
        if not reach * y_max < math.inf:
            raise ValueError(f"CF arguments overflow or are NaN: {reach:.6g} times {y_max:.6g}")
        return y.size

    def _add_weighted_draws(self, total: np.ndarray, weights, rng) -> None:
        # A uniform r picks the atom whose index is the number of cumulative
        # masses <= r: for two atoms the comparison r >= cum[0], the binary
        # search's pick at a fraction of its cost.  x holds r, then its atom.
        atoms = self.atoms
        cum = np.cumsum(self.masses)
        cum[-1] = 1.0
        x = np.empty(total.size)
        for w in weights:
            rng.random(out=x)
            idx = x >= cum[0] if atoms.size == 2 else np.searchsorted(cum, x, side="right")
            np.take(atoms, idx, out=x, mode="clip")  # every index is in range
            del idx  # the next index array is built without this one alive
            x *= w
            total += x

    def _symmetrize(self) -> "FiniteDist":
        x, p = self.atoms, self.masses
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

    def _m(self, taus: list, n_samples: int, seed: int) -> list[float]:
        return _m_finite(self, taus)

    def _survival(self) -> float:
        return 1.0 - self.mass_at(0.0)

    def _tau0(self, m_star: float, L: float, n_samples: int, seed: int):
        pos = self.atoms > 0
        (tau0,) = _piecewise_tau0(self.atoms[pos], 2.0 * self.masses[pos], [m_star])
        return tau0, 0, abs(m_functional(self, tau0) - m_star)

    def _to_json(self) -> dict:
        return {"type": "finite", "atoms": self.atoms.tolist(), "masses": self.masses.tolist()}

    @classmethod
    def _from_json(cls, field) -> "FiniteDist":
        floats = lambda value: np.asarray(value, dtype=float)
        return cls(field("atoms", floats), field("masses", floats))


class AnalyticDist:
    """Law given by a closed-form characteristic function plus a sampler.

    Two kinds, named by ``kind``, each a private subclass made by its
    constructor, which requires a positive, finite scale:
      * ``gaussian``: centered with scale sigma, CF exp(-sigma^2 t^2 / 2);
      * ``stable``: symmetric stable, CF exp(-scale * |t|^alpha), alpha in (0, 2].
    A CF argument past the float range gives the CF's limit 0.
    """

    __slots__ = ()
    _tau0_tol = 1e-6

    @staticmethod
    def gaussian(sigma: float) -> "AnalyticDist":
        if not 0 < sigma < math.inf:
            raise ValueError("gaussian scale sigma must be positive and finite")
        return _Gaussian(float(sigma))

    @staticmethod
    def stable(alpha: float, scale: float = 1.0) -> "AnalyticDist":
        if not 0.0 < alpha <= 2.0:
            raise ValueError("stable exponent must lie in (0, 2]")
        if not 0 < scale < math.inf:
            raise ValueError("stable scale must be positive and finite")
        return _Stable(float(alpha), float(scale))

    def _cf_width(self, reach: float) -> int:
        return 1

    def _add_weighted_draws(self, total: np.ndarray, weights, rng) -> None:
        for w in weights:
            x = self.sample(total.size, rng)
            x *= w  # in place: w x equals x w bit for bit
            total += x
            del x  # the next sample is drawn without this one alive

    def _survival(self) -> float:
        return 1.0

    def _to_json(self) -> dict:
        return {"type": self.kind, **{key: getattr(self, key) for key in self.__slots__}}

    def __repr__(self) -> str:
        args = ", ".join(f"{key}={getattr(self, key):g}" for key in self.__slots__)
        return f"AnalyticDist.{self.kind}({args})"


class _Gaussian(AnalyticDist):
    __slots__ = ("sigma",)
    kind = "gaussian"
    _q_methods = ("closed-form", "monte-carlo")
    _tau0_method = "bisection_quadrature"

    def __init__(self, sigma: float):
        self.sigma = sigma

    def _cf(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(-0.5 * (self.sigma * t) ** 2)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_sample_size(n)
        return rng.normal(0.0, self.sigma, n)

    def _symmetrize(self) -> AnalyticDist:
        return AnalyticDist.gaussian(self.sigma * _SQRT2)

    def _m(self, taus: list, n_samples: int, seed: int) -> list[float]:
        return [_m_gaussian(self.sigma, t) for t in taus]

    def _tau0(self, m_star: float, L: float, n_samples: int, seed: int):
        # Bisect a = tau/sigma on m(a) = E min(Z^2/a^2, 1), Z ~ N(0, 1), in a bracket:
        # m(a) <= E Z^2/a^2 = 1/a^2, so m(sqrt2 L) <= m_star/2 (m(L) may round above);
        # m(a) >= P(|Z| >= a) >= 1 - a sqrt(2/pi), |Z| having density <= sqrt(2/pi);
        # m(a) >= m(1) min(1, a^-2), m(1) = 0.51606 > 1/2: m((2 m_star)^-1/2) > m_star,
        # and for m_star <= 1/2 that end is the larger.
        lo = (1.0 - m_star) * math.sqrt(0.5 * math.pi) if m_star > 0.5 else (2.0 * m_star) ** -0.5
        a0, iters = _bisect_tau0(lambda a: _m_gaussian(1.0, a), m_star, lo, _SQRT2 * L)
        tau0 = self.sigma * a0
        if tau0 < np.finfo(float).tiny:
            raise NumericalError(f"crossover scale {self.sigma:g} * {a0:.6g} underflows")
        return tau0, iters, abs(m_functional(self, tau0) - m_star)

    @staticmethod
    def _from_json(field) -> AnalyticDist:
        return AnalyticDist.gaussian(field("sigma"))


class _Stable(AnalyticDist):
    __slots__ = ("alpha", "scale")
    kind = "stable"
    _q_methods = ("monte-carlo",)
    _tau0_method = "empirical_sample"

    def __init__(self, alpha: float, scale: float):
        self.alpha, self.scale = alpha, scale

    def _cf(self, t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(-self.scale * np.abs(t) ** self.alpha)

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        _check_sample_size(n)
        return sample_symmetric_stable(self.alpha, self.scale, n, rng)

    def _draws(self, n: int, rng: np.random.Generator) -> np.ndarray:
        return _stable_draws(self.alpha, self.scale, n, rng)

    def _symmetrize(self) -> AnalyticDist:
        return AnalyticDist.stable(self.alpha, 2.0 * self.scale)

    def _m(self, taus: list, n_samples: int, seed: int) -> list[float]:
        # One seeded sample; a grid keeps it intact in one scratch array, since
        # np.mean sums pairwise over the whole array, an order blocks would not keep.
        if not taus:
            return []
        draws = _seeded_draws(self, n_samples, seed)
        buf = draws if len(taus) == 1 else np.empty_like(draws)
        out = []
        with np.errstate(over="ignore"):  # a ratio or square past the float range clips to 1
            for tau in taus:
                np.divide(draws, tau, out=buf)
                np.square(buf, out=buf)
                np.minimum(buf, 1.0, out=buf)
                out.append(float(np.mean(buf)))
        return out

    def _tau0(self, m_star: float, L: float, n_samples: int, seed: int):
        u, w = _empirical_spread(self, n_samples, seed)
        (tau0,) = _piecewise_tau0(u, w, [m_star])
        # w * min((u/tau0)^2, 1) over u's own buffer, dead from here; np.sum's
        # pairwise order needs exactly these elementwise values.
        terms = np.divide(u, tau0, out=u)
        np.square(terms, out=terms)
        np.minimum(terms, 1.0, out=terms)
        terms *= w
        return tau0, 0, abs(float(np.sum(terms)) - m_star)

    @staticmethod
    def _from_json(field) -> AnalyticDist:
        return AnalyticDist.stable(field("alpha"), field("scale", float, 1.0))


_KINDS = {"finite": FiniteDist, "gaussian": _Gaussian, "stable": _Stable}

Dist = Union[FiniteDist, AnalyticDist]


def sample_symmetric_stable(
    alpha: float, scale: float, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw n variates with CF exp(-scale * |t|^alpha) (Chambers-Mallows-Stuck):
    the draws of _stable_draws.  alpha = 1 does not use the n exponentials
    but still draws them, in blocks of _STREAM_BLOCK, so that the generator
    ends where other exponents leave it: a weighted sum of stable variates
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
    uniforms fill the returned buffer first; alpha = 1 takes tan in place,
    other exponents evaluate Z by blocks of _STREAM_BLOCK entries in two
    scratch buffers, drawing each block's exponentials over its spent
    uniforms just before use.  The generator still sees all uniforms, then
    all exponentials, and the formula is elementwise, so every draw has the
    bits of a whole-array evaluation.  One length-n array is live.
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
    """n draws of g from a generator of its own, seeded with seed: the kind's
    ``_draws``, which need not keep ``sample``'s stream (the stable kind's
    skip its exponentials), or ``sample`` for a law without them."""
    _check_sample_size(n)
    return (getattr(g, "_draws", None) or g.sample)(n, np.random.default_rng(seed))


def _check_sample_size(n: int) -> None:
    if n < 1:
        raise ValueError(f"n_samples must be at least 1, got {n}")


# ---------------------------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------------------------


def symmetrize(dist: Dist) -> Dist:
    """Law of X~ = X1 - X2 for independent copies X1, X2 ~ dist.

    A finite law's is built on the nonnegative half and mirrored, so
    mass(x) == mass(-x) holds bitwise.  A Gaussian's scale sigma becomes
    sigma*sqrt(2); a stable law keeps alpha and doubles the scale.
    """
    return dist._symmetrize()


# ---------------------------------------------------------------------------
# Characteristic functions
# ---------------------------------------------------------------------------


def _cf_fold(f: FiniteDist) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Atoms y, even masses m and odd masses o with
    CF_f(t) = sum_j m_j cos(t y_j) + i sum_j o_j sin(t y_j), cached on the law.

    A law bitwise mirrored about 0 (every symmetrized law) folds onto its
    nonnegative half: each positive atom carries twice its mass, the zero
    atom its own, and o is empty since the sines cancel in pairs.  Any other
    law keeps its atoms, with m = o = its masses.
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


def cf_eval(dist: Dist, t) -> complex | np.ndarray:
    """Characteristic function E exp(itX): ``weighted_cf`` at the unit weight,
    in the shape of t.  An array t gives float64 values where the CF is real
    (a mirrored finite law, a Gaussian or a stable law) and complex128
    otherwise; a scalar t gives a complex.  ValueError as weighted_cf's, and
    after evaluation if a value has modulus above 1 + 1e-12.
    """
    vals = weighted_cf(dist, (1.0,), t)
    if np.any(np.abs(vals) > 1.0 + 1e-12):
        raise ValueError("characteristic function exceeds modulus 1")
    return vals if isinstance(vals, complex) else vals.reshape(np.shape(t))


def weighted_cf(dist: Dist, coords, t) -> complex | np.ndarray:
    """CF of sum_k a_k X_k for i.i.d. X_k ~ dist: prod_k CF(a_k t).

    ``coords`` is a weight vector object (with .coords and a cached
    .norm_inf) or a plain sequence.  Vectorized over t (flattened), with
    cf_eval's dtypes; ValueError before any evaluation if some t is not
    finite, or if max |t| max |a_k| overflows the law's CF kernel, and for
    every law kind if a weight is NaN or infinite.  The t values are taken
    in chunks that keep the (t, coords, folded atoms) block within
    _CF_CHUNK_ENTRIES entries (a single larger t is evaluated whole); each
    t is reduced on its own, so chunking does not change a bit.
    """
    a = np.asarray(getattr(coords, "coords", coords), dtype=float).ravel()
    t_arr = np.asarray(t, dtype=float).ravel()
    t_max = float(np.maximum.reduce(np.abs(t_arr), initial=0.0))
    if not t_max < math.inf:
        raise ValueError("t must be finite")
    a_max = getattr(coords, "norm_inf", None) or float(np.max(np.abs(a), initial=0.0))
    if not a_max < math.inf:
        raise ValueError(f"CF arguments overflow or are NaN: max |a_k| is {a_max!r}")
    reach = t_max * a_max
    per_t = a.size * dist._cf_width(reach)
    rows = max(1, _CF_CHUNK_ENTRIES // max(per_t, 1))
    chunks = []
    # t a_k overflows only where reach does, so only for an analytic law, whose CF is 0 there.
    with np.errstate(over="ignore") if reach == math.inf else contextlib.nullcontext():
        for lo in range(0, max(t_arr.size, 1), rows):  # an empty t still makes one chunk
            # (rows, n_coords) grid of scaled arguments; product over coordinates.
            args = t_arr[lo : lo + rows, None] * a
            chunks.append(np.prod(dist._cf(args), axis=-1))
    vals = np.concatenate(chunks)
    return complex(vals[0]) if np.isscalar(t) or np.asarray(t).ndim == 0 else vals


# ---------------------------------------------------------------------------
# The spread functional M(tau) and its tau -> 0 limit
# ---------------------------------------------------------------------------


def m_functional(g: Dist, tau, *, n_samples: int = 1_000_000, seed: int = 0) -> float | list[float]:
    """Spread functional M(tau) = E min(X~^2/tau^2, 1) of a symmetric law g.

    tau is a scalar (returns a float) or a 1-D grid (returns a list whose
    every value has the bits of the scalar call), checked once; the law's
    kind takes the whole grid: the exact sum for finite laws (``_m_finite``),
    the closed form through erf/erfc for Gaussian laws (``_m_gaussian``,
    within 1e-14 absolute), the mean over one seeded sample of n_samples
    draws for stable laws, whose Monte Carlo error is not reported.
    Nonincreasing in tau, with M(tau) <= P(X~ != 0).  A finite law must be
    symmetric; the analytic kinds are symmetric by construction.
    """
    taus = np.asarray(tau, dtype=float)
    if taus.ndim > 1:
        raise ValueError("tau must be a scalar or a 1-D grid")
    tau_list = taus.ravel().tolist()
    if not all(t > 0 for t in tau_list):
        raise ValueError("tau must be positive")
    vals = g._m(tau_list, n_samples, seed)
    return vals if taus.ndim else vals[0]


def _m_finite(g: FiniteDist, taus) -> list[float]:
    """M(tau) = sum_j p_j min(x_j^2/tau^2, 1) of a symmetric finite law, for
    every tau > 0 in the 1-D sequence ``taus``; symmetry is checked once.

    The (taus, atoms) ratio block is chunked within _M_CHUNK_ENTRIES entries
    (a single longer row is taken whole).  Each row is summed by a stacked
    vector-vector np.matmul, in np.dot's order, so every value has the bits
    of a one-tau call (a matrix-vector V @ p would sum in another order).
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
    return g._survival()


# ---------------------------------------------------------------------------
# The crossover scale: roots of M(tau) = m_star
# ---------------------------------------------------------------------------


def _piecewise_tau0(u: np.ndarray, w, m_stars) -> list[float]:
    """Roots of sum_i w_i min(u_i^2/tau^2, 1) = m_star on sorted positive u
    with positive weights w (an aligned array, or a scalar for equal
    weights, never expanded), one per target in the 1-D sequence m_stars.

    Between consecutive support points M(tau) = A/tau^2 + B, A the
    within-radius second moment and B the outside mass, so the root is exact
    on its piece: one search over the knots m_i = A_i/u_i^2 + B_i, then a
    short walk over the pieces.  u is streamed in blocks of _STREAM_BLOCK
    entries whose A, B and knots are rebuilt in three block buffers when
    read: a reverse pass records B at each block's last entry, a forward
    pass A before its first and searches each target in the first block
    whose last knot reaches it.  np.cumsum accumulates sequentially, so every
    A and B has the bits of one whole-array cumsum, and the block search
    returns np.searchsorted's index over all knots, which are nonincreasing
    in exact arithmetic (m_{i+1} = A_i/u_{i+1}^2 + B_i <= m_i).

    The forward pass builds a block's knots only when the block can hold a
    pending target, and stops once every target is placed; the root walk
    extends the recorded A carries block by block with the same cumsums.
    The skip is exact: A is a running sum of nonnegative terms, s is sorted
    and B a top-down sum of nonnegative weights, and rounded +, * and / are
    monotone, so every knot of block j is at least
    lb_j = A_first / (s_last s_last) + B_last, formed as floats.  When lb_j
    is above every pending target, each -knot lies below each -m_star and
    np.searchsorted(side="left") returns the block length whatever the
    knots' order: the block places no target, as a search would find.  A
    block with a zero or infinite square (an underflow, an infinite point)
    may hold a NaN knot and is always searched.  So the reverse pass costs
    a fill and a cumsum per block, A an ldexp, two multiplies and a cumsum
    per block up to the last block read, and the knots (a square, a divide,
    a rebuilt suffix, an add, a negate and a search) only blocks that can
    place a target or that the walk reads.  Only u is read at length n;
    3 _STREAM_BLOCK + 2 n / _STREAM_BLOCK floats are written.

    The sums are taken on s = u 2^-e, e the binary exponent of max(u) (at
    most 1023), lowered when the smallest square times the smallest weight,
    min(w) s_0^2, would fall below the normal range, as far as that needs
    and s_max < 2^511 allows: every square and every term w_i s_i^2 then
    stays normal unless max(u)/min(u) exceeds about 2^1021 sqrt(min(w)).
    A power-of-two scaling commutes with every operation away from
    subnormals, so the root scaled back has the unscaled sums' bits.
    """
    n = u.size
    equal = np.ndim(w) == 0
    # u_0 >= 2^(e_0 - 1) and min(w) >= 2^(f - 1) give w_i s_0^2 >= 2^-1022 for
    # exp <= e_0 + (f + 1019) // 2, f capped at 0 so that s_0^2 is normal too.
    top_exp = math.frexp(u[-1])[1]
    low_exp = math.frexp(u[0])[1] + (min(math.frexp(w if equal else np.min(w))[1], 0) + 1019) // 2
    exp = min(top_exp, 1023, max(low_exp, top_exp - 511))  # 2^exp stays a finite float
    back = 2.0**exp
    size = min(_STREAM_BLOCK, n)
    n_blocks = -(-n // size)
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
    # a_carry[j] is A before block j, recorded for j < reached.
    a_carry = np.empty(n_blocks + 1)
    a_carry[0] = 0.0
    reached = 1

    def carry(j):
        nonlocal reached
        while reached <= j:
            a_carry[reached] = prefix(reached - 1, a_carry[reached - 1])[1][-1]
            reached += 1
        return a_carry[j]

    # Find the piece [u_k, u_{k+1}) containing each root: k is the first
    # index whose knot is at most m_star, n when none is.
    m_stars = np.asarray(m_stars, dtype=float)
    neg_targets = -m_stars
    starts = np.full(m_stars.size, n)
    pending = np.arange(m_stars.size)
    top = np.max(m_stars, initial=-math.inf)  # NaN if a target is: no block skipped
    for j in range(n_blocks):
        if not pending.size:
            break
        knot, a = prefix(j, a_carry[j])
        a_carry[j + 1] = a[-1]
        reached = j + 2
        # lb_j in Python floats, which neither warn nor divide by zero here.
        s_first, s_last = float(knot[0]), float(knot[-1])
        first_sq, last_sq = s_first * s_first, s_last * s_last
        if 0.0 < first_sq and last_sq < math.inf and float(a[0]) / last_sq + float(b_last[j]) > top:
            continue
        np.multiply(knot, knot, out=knot)
        np.divide(a, knot, out=knot)
        knot += suffix(j, b_last[j])
        np.negative(knot, out=knot)
        at = np.searchsorted(knot, neg_targets[pending], side="left")
        placed = at < a.size
        starts[pending[placed]] = j * size + at[placed]
        pending = pending[~placed]
        top = np.max(m_stars[pending], initial=-math.inf)
    roots = []
    built = -1
    for m_star, k in zip(m_stars, starts):
        if k == 0:
            raise PreconditionError("target spread above M at the smallest support point")
        idx = int(k) - 1
        while idx < n:
            j = idx // size
            if j != built:
                a, b = prefix(j, carry(j))[1], suffix(j, b_last[j])
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
    weight 1/n_samples: the empirical M that _piecewise_tau0 solves.  u is a
    view of the draws, made absolute and sorted in place, past the zeros and
    before any NaN (which sorts last): the stable tau0's one length-n array."""
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
    hi - lo <= 1e-15 * mid, the only stop, reached since lo is a normal float."""
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
