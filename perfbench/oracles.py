"""Reference computations the benchmark checks lofo's outputs against.

Everything here is plain numpy/math and shares no code with lofo: integer-
indexed lattice convolution, brute-force enumeration of finite sums, a direct
window sweep, closed forms for Gaussian and Cauchy laws, and a dense
Gauss-Legendre rule for the Esseen integral.
"""

from __future__ import annotations

import math

import numpy as np


def lattice_law(values, masses, weights):
    """pmf and reachability of sum_k w_k X_k for X on nonnegative integers.

    ``values`` are the integer atoms of X, ``weights`` nonnegative integers.
    Index i of the returned arrays is the sum value i.  Reachability is
    tracked in booleans so that masses which underflow to zero still count
    as atoms of the true law.
    """
    values = [int(v) for v in values]
    pmf = np.ones(1)
    reach = np.ones(1, dtype=bool)
    for w in weights:
        w = int(w)
        size = pmf.size + w * max(values)
        new_pmf = np.zeros(size)
        new_reach = np.zeros(size, dtype=bool)
        for v, m in zip(values, masses):
            off = w * v
            new_pmf[off:off + pmf.size] += m * pmf
            new_reach[off:off + reach.size] |= reach
        pmf, reach = new_pmf, new_reach
    return pmf, reach


def lattice_window_sup(pmf, sites):
    """Max total mass of ``sites`` consecutive lattice points."""
    cum = np.concatenate(([0.0], np.cumsum(pmf)))
    sites = min(int(sites), pmf.size)
    return float(np.max(cum[sites:] - cum[:-sites]))


def enumerate_sum(atoms, masses, weights):
    """All len(atoms)**n raw outcomes of sum_k w_k X_k with their probabilities."""
    sums = np.zeros(1)
    probs = np.ones(1)
    atoms = np.asarray(atoms, dtype=float)
    masses = np.asarray(masses, dtype=float)
    for w in weights:
        sums = np.add.outer(sums, w * atoms).ravel()
        probs = np.outer(probs, masses).ravel()
    return sums, probs


def window_sup(points, probs, lam):
    """sup_x P(points in [x, x + lam]) over all left edges, by direct sweep."""
    order = np.argsort(points, kind="stable")
    x = points[order]
    cum = np.concatenate(([0.0], np.cumsum(probs[order])))
    lo = np.searchsorted(x, x, side="left")
    hi = np.searchsorted(x, x + lam, side="right")
    return float(np.max(cum[hi] - cum[lo]))


def cauchy_window(scale, lam):
    """Q of a centered Cauchy law with the given scale: the centered window."""
    return 2.0 / math.pi * math.atan(lam / (2.0 * scale))


def m_cauchy(scale, tau):
    """E min(X^2/tau^2, 1) for X centered Cauchy with the given scale."""
    r = math.atan(tau / scale)
    return 1.0 - 2.0 / math.pi * r + 2.0 * scale / (math.pi * tau * tau) * (tau - scale * r)


def m_gaussian(sigma, tau):
    """E min(X^2/tau^2, 1) for X centered Gaussian with scale sigma."""
    a = tau / sigma
    phi = math.exp(-0.5 * a * a) / math.sqrt(2.0 * math.pi)
    return (sigma / tau) ** 2 * (math.erf(a / math.sqrt(2.0)) - 2.0 * a * phi) + math.erfc(
        a / math.sqrt(2.0)
    )


def solve_decreasing(fn, target, lo=1e-9, hi=1e12, iters=200):
    """Root of a decreasing fn(x) = target by bisection on a log scale."""
    for _ in range(iters):
        mid = math.sqrt(lo * hi)
        if fn(mid) > target:
            lo = mid
        else:
            hi = mid
    return math.sqrt(lo * hi)


def esseen_integral(atoms, masses, lam, panels=200, order=16):
    """lam * int_0^{1/lam} |CF(t)|^2 dt for the law of X1 - X2, X ~ (atoms, masses).

    |CF_X|^2 is the characteristic function of the symmetrization; it is
    nonnegative and entire, so composite Gauss-Legendre converges fast (200
    panels of 16 nodes agree with 20,000 panels of 8 to 1e-15 on these laws).
    """
    nodes, wts = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(0.0, 1.0 / lam, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
    cf = np.exp(1j * np.outer(t, np.asarray(atoms, dtype=float))) @ np.asarray(masses, dtype=float)
    vals = (np.abs(cf) ** 2).reshape(panels, order)
    return lam * float(np.sum(half[:, None] * wts[None, :] * vals))


def lattice_distance(t, coords):
    """Euclidean distance from t * coords to the nearest integer vector."""
    y = t * np.asarray(coords, dtype=float)
    return float(np.linalg.norm(y - np.rint(y)))


def lcd_threshold(variant, t, L, norm):
    """Right-hand side of the LCD inequality at scale t."""
    if variant == "d_star":
        u = t * norm
        return u / 6.0 if u < math.e * L else L * math.sqrt(math.log(u / L))
    return L * math.sqrt(max(0.0, math.log(t / L)))
