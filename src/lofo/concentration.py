"""Concentration functions Q(F, lambda) of weighted i.i.d. sums.

Q(F, lambda) = sup_x F{[x, x + lambda]} over closed windows.  For a finite
law the supremum is attained with the window's left edge at an atom, so
one binary search per left edge for the window's right end over the sorted
support is exact.  The sweep cuts the left edges into blocks of
_WINDOW_BLOCK = B and searches only the blocks whose upper bound reaches
the best window mass at a block start, which leaves the maximum's bits as
they are.  For n atoms that costs n/B + 1 keys per window length for the
bounds, plus (kept blocks x B) keys, each a log n search; a peaked law
keeps a few percent of its left edges.  The same window-sweep kernel,
applied to a sorted sample with uniform weights, is the Monte Carlo
estimator; a DKW-style bound supplies its certified error radius.  The
kernel takes a whole grid of window lengths at once, so a calibration sweep
of one law is one call.

Also here: the exact law of S_a = sum_k a_k X_k from one convolution
engine (lattice-exact on integer indices when the atoms lie on a lattice
and the weights are commensurate; per-group or per-weight folds with
coalescing otherwise; see ``weighted_sum_dist``), the Gaussian closed form,
and the characteristic-function
integral lambda * int_0^{1/lambda} |CF_{S_a}(t)| dt that upper-bounds Q up
to an absolute constant (and matches it two-sidedly for symmetric laws
with nonnegative CF).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .distributions import Dist, FiniteDist, _cf_checks, _cf_kernel, _Record
from .exceptions import CapacityError, QuadratureError
from .quadrature import adaptive_simpson

DEFAULT_BUDGET = 2**22          # coalesced support-size budget for exact paths
_RAW_PRODUCT_CAP = 2**24        # hard cap on a single outer-sum allocation
_ROUND_TRIP_ULPS = 4            # width of the lattice round-trip test
_WINDOW_CHUNK_ENTRIES = 2**18   # cap on one window-sweep key block (2 MiB of float64)
_WINDOW_BLOCK = 64              # left edges per block of the window-sweep bound
_WINDOW_MIN_KEYS = 2**14        # smallest chunk of a full sweep that is bounded first
MC_MIN_SAMPLES = 10_000
MC_CONFIDENCE = 0.99


class WeightVector:
    """Coefficient vector a != 0 with cached Euclidean and sup norms."""

    __slots__ = ("coords", "norm2", "norm_inf", "n")

    def __init__(self, coords: Sequence[float]):
        c = np.asarray(coords, dtype=float).ravel()
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise ValueError("weight vector must be nonempty and finite")
        if not np.any(c != 0.0):
            raise ValueError("weight vector must be nonzero")
        c = c.copy()
        c.flags.writeable = False
        self.coords = c
        self.norm_inf = float(np.max(np.abs(c)))
        # Only past this test can the sum of squares overflow; check it quietly.
        if self.norm_inf * self.norm_inf * c.size > sys.float_info.max:
            with np.errstate(over="ignore"):
                if np.dot(c, c) == math.inf:
                    raise ValueError("Euclidean norm of the weight vector overflows")
        sum_sq = np.dot(c, c)
        if sum_sq < sys.float_info.min:
            # The squares underflow; scale by the sup norm (only here, so
            # every other vector keeps the bits of the plain formula).
            scaled = c / self.norm_inf
            self.norm2 = float(self.norm_inf * np.sqrt(np.dot(scaled, scaled)))
        else:
            self.norm2 = float(np.sqrt(sum_sq))
        self.n = int(c.size)

    def __repr__(self) -> str:
        return f"WeightVector(n={self.n}, norm={self.norm2:.6g}, sup={self.norm_inf:.6g})"


@dataclass(frozen=True)
class QEstimate(_Record):
    """One concentration-function value with its provenance.

    For the monte_carlo method the contract is
    value - error_radius <= Q <= value + error_radius at 99% confidence;
    exact and closed_form carry error_radius 0.
    """

    value: float
    method: str                      # "exact" | "closed_form" | "monte_carlo"
    error_radius: float = 0.0
    sample_size: Optional[int] = None
    seed: Optional[int] = None


def _window_sup(points: np.ndarray, masses: Optional[np.ndarray], lams) -> list[float]:
    """Max total weight of a closed window [x_i, x_i + lam] over left edges,
    capped at 1, for every lam in the 1-D sequence ``lams``.

    ``points`` is sorted; ``masses`` holds their weights, or is None for a
    sample whose n points weigh 1/n each.  The prefix sums cum are built
    once; cum[k] = k/n is never stored for a sample, whose window mass is
    hi/n - i/n straight from the index array (at most 1, so the cap, which
    only catches prefix sums of masses rounding past 1, never bites there).
    The lams are taken in chunks so that the (lams, points) key block stays
    within _WINDOW_CHUNK_ENTRIES entries; a single lam whose row alone is
    larger is still taken whole.

    A chunk whose full sweep would search at least _WINDOW_MIN_KEYS keys is
    bounded first (see _sweep_pruned); smaller ones, such as every law of up
    to 257 atoms over 40 lams, would not repay the bound's fixed cost of
    some 20 numpy calls.  A row that keeps more than 2/3 of its blocks, and
    every row of a sample that holds a non-finite point, is swept whole as
    one contiguous slice.  Every value has the bits of a one-lam full sweep:
    the keys, searches and differences are elementwise, and a row's max is
    exact.

    Cost, with B = _WINDOW_BLOCK: n/B + 1 keys per lam for the bounds, plus
    (kept blocks x B) keys, each a log n search, and one cumsum; a row swept
    whole searches its n keys after the bounds.  Beyond the points, cum (or
    the left edges) and two blocks of the chunk are alive.
    """
    lams = np.asarray(lams, dtype=float).ravel()
    n = points.size
    uniform = masses is None
    if uniform:
        edge_mass = lambda k: k / n
        left = None
    else:
        cum = np.concatenate(([0.0], np.cumsum(masses)))
        edge_mass = cum.take
        left = cum[:n]
    bounded = n > _WINDOW_BLOCK and math.isfinite(points[0]) and math.isfinite(points[-1])
    out = []
    rows = max(1, _WINDOW_CHUNK_ENTRIES // max(n, 1))
    for lo in range(0, lams.size, rows):
        lam = lams[lo : lo + rows]
        best = np.empty(lam.size)
        whole = np.arange(lam.size)
        if bounded and lam.size * n >= _WINDOW_MIN_KEYS:
            whole = _sweep_pruned(points, edge_mass, lam, best)
        if whole.size:
            keys = np.add.outer(lam[whole], points)
            hi = _right_ends(points, keys)
            # The window masses reuse the keys; every index is in range.
            if uniform:
                vals = np.divide(hi, n, out=keys)
            else:
                vals = np.take(cum, hi, out=keys, mode="clip")
            del hi
            if left is None:  # a sample's left edges i/n, built without the indices alive
                left = np.arange(n, dtype=float)
                left /= n
            vals -= left
            best[whole] = vals.max(axis=1)
        out += np.minimum(best, 1.0).tolist()
    return out


def _right_ends(points: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index past the last point <= each key, in the shape of ``keys``."""
    return np.searchsorted(points, keys.ravel(), side="right").reshape(keys.shape)


def _sweep_pruned(points: np.ndarray, edge_mass, lam: np.ndarray, best: np.ndarray) -> np.ndarray:
    """Sweep only the blocks of left edges that may hold a row's maximum.

    The n > B finite left edges are cut into blocks of B = _WINDOW_BLOCK
    starting at s_b = b B.  Per row, with H_b the right end of s_b and
    H_nb that of the last edge, block b gets the exact window mass
    mass(H_b) - mass(s_b) at s_b, a lower bound on the row's maximum, and
    mass(H_{b+1}) - mass(s_b), which bounds every window mass from the
    block.  Keys x + lam, right ends, prefix sums of
    nonnegative masses and IEEE subtraction are all monotone, so that bound
    dominates the entry of every left edge in the block: the block that
    holds the maximum reaches the row's best lower bound, is never pruned,
    and its exact entries give the row's maximum, bit for bit.  The last
    block is padded with copies of the last edge, a real window mass.
    Searching the kept blocks costs about 3/2 of a contiguous sweep per key.

    Fills ``best`` for the rows that keep at most 2/3 of their blocks, and
    returns the indices of the other rows, to be swept whole.
    """
    size, last = _WINDOW_BLOCK, points.size - 1
    starts = np.arange(0, points.size, size)
    mass = edge_mass(_right_ends(points, np.add.outer(lam, points[np.append(starts, last)])))
    base = edge_mass(starts)
    lower = mass[:, :-1] - base
    keep = mass[:, 1:] - base >= lower.max(axis=1)[:, None]
    swept_whole = 3 * np.count_nonzero(keep, axis=1) > 2 * starts.size
    part = np.flatnonzero(~swept_whole)
    if part.size:
        r, b = np.nonzero(keep[part])
        idx = np.minimum(starts[b][:, None] + np.arange(size), last)
        hi = _right_ends(points, lam[part][r][:, None] + points[idx])
        vals = (edge_mass(hi) - edge_mass(idx)).max(axis=1)
        best[part] = np.maximum.reduceat(vals, np.flatnonzero(np.diff(r, prepend=-1)))
    return np.flatnonzero(swept_whole)


def q_exact(f: FiniteDist, lam: float) -> QEstimate:
    """Exact Q(F, lambda) for a finite law; lambda = 0 gives the largest mass."""
    if not lam >= 0:
        raise ValueError("window length lambda must be nonnegative")
    (value,) = _window_sup(f.atoms, f.masses, [lam])
    return QEstimate(value=value, method="exact")


def q_closed_form_gaussian(sigma_total: float, lam: float) -> QEstimate:
    """Q for a centered Gaussian sum with total scale sigma_total.

    The optimal window is centered at the mean: Q = 2 Phi(lam/(2 sigma)) - 1.
    """
    if not sigma_total > 0:
        raise ValueError("sigma_total must be positive")
    if not lam >= 0:
        raise ValueError("window length lambda must be nonnegative")
    value = math.erf(lam / (2.0 * sigma_total * math.sqrt(2.0)))
    return QEstimate(value=value, method="closed_form")


def weighted_sum_dist(
    f: FiniteDist,
    a: WeightVector,
    budget: int = DEFAULT_BUDGET,
) -> FiniteDist:
    """Exact law of S_a = sum_k a_k X_k for i.i.d. X_k ~ f.

    Nonzero weights are grouped by exact value.  The atoms of f lie on a
    lattice when they are x0 + h k with integer 0 <= k <= K and n K < budget
    for n nonzero weights; the distinct weights are commensurate when they
    are integer multiples c g of a common g.  Both are strict round-trip
    tests, a few ulps wide.

    Lattice path (f on a lattice, weights commensurate, dense index span
    K sum m |c| below ``budget``): each group of m equal weights is the
    m-fold power of f's integer pmf by binary powering, groups combine by
    strided shift-add into one zeroed buffer that takes every overlapping
    step in place, and positions are placed once at the end as
    fsum(w m x0) + g h j: exact, with no coalescing.  When the last group's
    stride is at least the length of the accumulator before it, its shifted
    copies do not overlap: the buffer stops before that group, whose support
    is placed as an outer product, without the dense index span.

    Fallbacks: if f is on a lattice but the weights are incommensurate or
    the span is over budget, each group's law is the same lattice power with
    exact positions, and the groups are folded in descending |w| by outer
    sums with coalescing; a group whose outer sum would pass the raw cap
    (2^24 entries) is folded one weight at a time instead.  If f is not on a
    lattice, the weights are folded one at a time.  CapacityError is raised
    instead of truncating when a folded support, i.e. the true support,
    exceeds the budget, or when one weight's outer sum passes the raw cap;
    never for the index span.

    Cost: the lattice path is about the sum over shift-add steps of (nonzeros
    of the sparser factor x length of the other), at most n x span, except
    that a non-overlapping last step costs its (nonzeros x nonzeros); a group
    power is O(m) for a two-atom f and O((m K)^2) otherwise; a fold step
    costs (current support x factor support) plus a sort.
    """
    if not budget > 0:
        raise ValueError("budget must be positive")
    weights = a.coords[a.coords != 0.0]  # nonempty: a WeightVector is nonzero
    if weights.size == 1:
        return FiniteDist(float(weights[0]) * f.atoms, f.masses)

    x0 = float(f.atoms[0])
    grid = _lattice(f.atoms, x0, (budget - 1) // weights.size)
    if grid is None:
        current = None
        for w in weights[np.argsort(-np.abs(weights), kind="stable")]:
            current = _convolve(current, w * f.atoms, f.masses, budget)
        return current

    h, idx = grid
    span_f = int(idx[-1])
    pmf = np.zeros(span_f + 1)
    pmf[idx] = f.masses
    values, counts = np.unique(weights, return_counts=True)
    multiples = _lattice(values, 0.0, budget)
    if multiples is not None:
        g, c = multiples
        span = span_f * int(np.dot(counts, np.abs(c)))
        if span < budget:
            shift = 0
            order = np.argsort(np.abs(c), kind="stable")
            last = order[-1]
            # One zeroed buffer takes every step.  It stops at head, before
            # the last group, when that group's shifted copies do not overlap:
            # _shift_add_support then places it.
            head = 1 + span - span_f * int(counts[last]) * abs(int(c[last]))
            overlap = abs(int(c[last])) < head
            acc = np.zeros(1 + span if overlap else head)
            acc[0] = 1.0
            size = 1
            for i in order:
                p = _power(pmf, int(counts[i]))
                if c[i] < 0:
                    p = p[::-1]
                    shift += int(c[i] * counts[i]) * span_f
                stride = abs(int(c[i]))
                if overlap or i != last:
                    size = _shift_add_into(acc, size, p, stride)
            if overlap:
                j = np.flatnonzero(acc[:size])
                mass = acc[j]
            else:
                j, mass = _shift_add_support(acc[:size], p, stride)
            base = math.fsum((values * counts * x0).tolist())
            return FiniteDist(base + (g * h) * (j + shift), mass)

    current = None
    for i in np.argsort(-np.abs(values), kind="stable"):
        w, m = float(values[i]), int(counts[i])
        p = _power(pmf, m)
        j = np.flatnonzero(p)
        if current is not None and current.n_atoms * j.size > _RAW_PRODUCT_CAP:
            # Near-equal weights can coalesce far below the raw product.
            for _ in range(m):
                current = _convolve(current, w * f.atoms, f.masses, budget)
        else:
            current = _convolve(current, w * m * x0 + (w * h) * j, p[j], budget)
    return current


def _lattice(x: np.ndarray, origin: float, limit: int):
    """(step, k) with step > 0, integer |k| <= limit and origin + step k == x.

    Equality is to _ROUND_TRIP_ULPS ulps; None when no such lattice exists.
    The step is the smallest nonzero |x - origin| over the common denominator
    of the ratios to it, then refined on the largest index.
    """
    d = x - origin
    mags = np.abs(d[d != 0.0])
    if mags.size == 0:
        return 1.0, np.zeros(x.size, dtype=np.int64)
    if mags.size == 1:
        # One nonzero offset is its own step; origin + d round-trips to x
        # within 2 ulps of the scale below.
        return (float(mags[0]), np.sign(d).astype(np.int64)) if limit >= 1 else None
    ratios = d / mags.min()
    top = float(np.max(np.abs(ratios)))
    if top > limit:
        return None
    den = 1
    off = ratios[ratios != np.rint(ratios)]
    for r in sorted(set(off.tolist())):
        den = math.lcm(den, Fraction(r).limit_denominator(limit).denominator)
        if den * top > limit:
            return None
    k = np.rint(ratios * den).astype(np.int64)
    far = int(np.argmax(np.abs(k)))
    step = float(d[far] / k[far])
    scale = np.abs(x) + abs(origin)
    if np.all(np.abs(origin + step * k - x) <= _ROUND_TRIP_ULPS * np.spacing(scale)):
        return step, k
    return None


def _shift_add_into(buf: np.ndarray, size: int, y: np.ndarray, stride: int) -> int:
    """pmf of I + stride * J for independent I ~ buf[:size], J ~ y on 0, 1, 2, ...

    The pmf is written into buf[:end], end = size + stride * (y.size - 1),
    and end is returned; entries of buf past size must be zero.  At stride 1
    this is np.convolve.  For a two-point y = (y0, y1) with both entries
    nonzero at stride > 1, entry k adds at most two products, y0 * x[k] and
    y1 * x[k - stride], into 0.0 in some order; since 0 + a + b is b + a
    exactly, x is scaled in place and the shifted y1 * x added, with one
    product array instead of a zeroed array of the new span and two
    products.  Otherwise the factor with fewer nonzeros is added as one
    shifted, scaled copy of the other per nonzero into a zeroed array, so
    the Python-level loop is as short as it can be, and that array is copied
    into buf.
    """
    x = buf[:size]
    end = size + stride * (y.size - 1)
    if stride == 1:
        buf[:end] = np.convolve(x, y)
    elif y.size == 2 and y.all():
        tmp = y[1] * x
        x *= y[0]
        buf[stride:end] += tmp
    else:
        nx, ny = np.flatnonzero(x), np.flatnonzero(y)
        z = np.zeros(end)
        if nx.size <= ny.size:
            for i in nx:
                z[i : i + stride * y.size : stride] += x[i] * y
        else:
            for j in ny:
                z[stride * j : stride * j + size] += y[j] * x
        buf[:end] = z
    return end


def _shift_add_support(x: np.ndarray, y: np.ndarray, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Nonzero indices of the pmf of I + stride * J, ascending, and their masses.

    I ~ x and J ~ y are independent on 0, 1, 2, ..., and stride >= x.size,
    so the shifted copies of x do not overlap and each entry is
    0.0 + x[i] * y[k], which is exactly y[k] * x[i]: the outer product is
    placed at i + stride * k without building the dense span.  Products
    that underflow to 0 are dropped, as np.flatnonzero drops them.
    """
    nx, ny = np.flatnonzero(x), np.flatnonzero(y)
    j = np.add.outer(stride * ny, nx).ravel()
    mass = np.outer(y[ny], x[nx]).ravel()
    nonzero = mass != 0.0
    return j[nonzero], mass[nonzero]


def _power(p: np.ndarray, m: int) -> np.ndarray:
    """m-fold convolution power of an integer-indexed pmf, by binary powering.

    A two-point pmf (p0, p1) has the binomial pmf as its power, built in
    O(m) outward from the mode by the ratio b(k+1)/b(k) = (m-k) p1 / ((k+1) p0)
    and then normalized.  No entry exceeds the mode's, so nothing overflows;
    far tails underflow to zero as they do under repeated convolution.
    """
    if p.size == 2:
        p0, p1 = float(p[0]), float(p[1])
        mode = min(int((m + 1) * p1 / (p0 + p1)), m)
        up, down = np.arange(mode, m), np.arange(mode - 1, -1, -1)
        out = np.ones(m + 1)
        out[mode + 1 :] = np.cumprod((m - up) * p1 / ((up + 1) * p0))
        out[:mode] = np.cumprod((down + 1) * p0 / ((m - down) * p1))[::-1]
        return out / np.sum(out)
    out = None
    while True:
        if m & 1:
            out = p if out is None else np.convolve(out, p)
        m >>= 1
        if not m:
            return out
        p = np.convolve(p, p)


def _convolve(
    current: Optional[FiniteDist], atoms: np.ndarray, masses: np.ndarray, budget: int
) -> FiniteDist:
    """Law of current + Y for independent Y on (atoms, masses); None is 0."""
    if current is None:
        return FiniteDist(atoms, masses)
    raw = current.n_atoms * atoms.size
    if raw > _RAW_PRODUCT_CAP:
        raise CapacityError(raw, budget)
    out = FiniteDist(
        np.add.outer(current.atoms, atoms).ravel(),
        np.outer(current.masses, masses).ravel(),
    )
    if out.n_atoms > budget:
        raise CapacityError(out.n_atoms, budget)
    return out


def q_monte_carlo(
    dist: Dist,
    a: WeightVector,
    lam: float,
    n_samples: int = 100_000,
    seed: int = 0,
) -> QEstimate:
    """Monte Carlo Q(F_a, lambda) via the window sweep on a sorted sample.

    The sample is n_samples draws of S_a from one generator seeded with seed:
    each nonzero weight takes n_samples draws of X in coordinate order, by
    the law's own sampler, which holds one or two length-n arrays beside the
    running sum; zero weights draw nothing.  The error radius is the
    two-sided DKW band at 99% confidence, doubled because a window mass is a
    difference of two CDF values.
    """
    if not lam >= 0:
        raise ValueError("window length lambda must be nonnegative")
    if n_samples < MC_MIN_SAMPLES:
        raise ValueError(f"n_samples must be at least {MC_MIN_SAMPLES}")
    sample = np.zeros(n_samples)
    dist._add_weighted_draws(sample, a.coords[a.coords != 0.0], np.random.default_rng(seed))
    sample.sort()
    (value,) = _window_sup(sample, None, [lam])
    eps = math.sqrt(math.log(2.0 / (1.0 - MC_CONFIDENCE)) / (2.0 * n_samples))
    return QEstimate(
        value=value,
        method="monte_carlo",
        error_radius=2.0 * eps,
        sample_size=n_samples,
        seed=seed,
    )


def esseen_integral(
    dist: Dist,
    a: WeightVector,
    lam: float,
    tol: float = 1e-8,
) -> float:
    """lambda * int_0^{1/lambda} |CF_{S_a}(t)| dt to absolute tolerance tol.

    Upper-bounds Q(F_a, lambda) up to an absolute constant; for symmetric
    laws with nonnegative CF it is two-sided.  The quadrature evaluates
    |CF_{S_a}| one bisection level at a time: weighted_cf's argument checks
    run once, for every t in [0, 1/lambda], and its kernel runs once over
    the 33 nodes of the 4 forced levels and then once per level over all of
    that level's nodes.  lambda must be positive with 2 / lambda finite, so
    that no sum of two nodes overflows; the quadrature runs to tol / lambda,
    which must not underflow to 0.  A QuadratureError carries its
    estimate and tolerance in the units of this value, lambda times the
    integral.
    """
    if not (0 < lam < math.inf and 2.0 / float(lam) < math.inf):
        raise ValueError(f"lambda must be positive and finite, with 2 / lambda finite, got {lam!r}")
    if not tol > 0:
        raise ValueError("tol must be positive")
    if tol / lam == 0.0:
        raise ValueError(f"tol / lambda underflows to 0: {tol!r} / {lam!r}")
    # weighted_cf's checks once, for every node in [0, 1/lambda]: the first
    # call's nodes include 1/lambda, so its errors are those of weighted_cf.
    coords, _, rows, overflows = _cf_checks(dist, a, (0.0, 1.0 / lam))
    integrand = lambda t: np.abs(_cf_kernel(dist, coords, t, rows, overflows))
    try:
        return lam * adaptive_simpson(integrand, 0.0, 1.0 / lam, tol=tol / lam)
    except QuadratureError as exc:
        raise QuadratureError(lam * exc.estimate, lam * exc.tol, exc.depth) from None
