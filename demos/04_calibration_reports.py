"""Calibrating the absolute constants empirically.

Upper bounds here hold up to unspecified absolute constants.  The harness
makes that operational: sweep Q/shape over a declared family, record the
supremum, and check it stays finite, seed-stable, and flat as the family
extends.  This script runs a small sparse-family calibration, the exact
binomial lower bound, and the stable-law crossover scaling study, prints
the closed-form gain 1/(L sqrt(M(1))) of the refined shape 1/(D sqrt(M(1)))
over the L/D baseline for a few Bernoulli laws, then writes the wide and
the long CSV report of the calibration with one render_csvs call.
"""

import math

import numpy as np

from lofo.distributions import FiniteDist, m_functional, symmetrize
from lofo.harness import (
    calibrate_upper,
    check_lower_binomial,
    gen_sparse_family,
    ratio_sup_by_s,
    render_csvs,
    study_tau0_scaling,
)

family = gen_sparse_family([4, 8, 16, 32, 64], p_list=[0.2, 0.3, 0.4, 0.5])
report = calibrate_upper("crossover", family, L=2.0, n_eps=30)
print(f"crossover bound over {len(report.rows)} (instance, eps) pairs:")
print(f"  ratio Q/shape in [{report.ratio_inf:.4f}, {report.ratio_sup:.4f}], "
      f"fixture {report.fixture}, excluded {report.n_excluded}")
print("  cumulative sup by s:", {s: round(v, 4) for s, v in ratio_sup_by_s(report).items()})

lower = check_lower_binomial([4, 16, 64], [0.2, 0.5], n_eps=30)
print(f"\nbinomial lower bound: min ratio {lower.c_low_observed:.4f} "
      f">= fixture {lower.fixture}; chebyshev mass check: {lower.chebyshev_ok}")

fits = study_tau0_scaling([1.0, 0.5], np.geomspace(3, 100, 8), seed=123,
                          n_samples=300_000)
print("\ncrossover-scale scaling for heavy-tailed laws (tau0 ~ L^(2/alpha)):")
for f in fits:
    print(f"  alpha = {f.alpha}: fitted slope {f.slope:.3f} "
          f"(expected {f.expected}, half-width {f.half_width:.3f})")

# Each law satisfies the hypothesis L^2 >= 1/M(1) at L = 5, so each ratio is below 1.
L = 5.0
print(f"\nrefined shape vs L/D baseline at L = {L:g} (ratio = 1/(L sqrt(M(1)))):")
for p in [0.2, 0.3, 0.4, 0.5]:
    m1 = m_functional(symmetrize(FiniteDist.bernoulli(p)), 1.0)
    print(f"  Bernoulli({p}): ratio {1.0 / (L * math.sqrt(m1)):.4f}")

render_csvs(report.rows, "calibration_rows.csv", "calibration_long.csv")
print("\nwrote calibration_rows.csv and calibration_long.csv")
