#!/usr/bin/env python3
"""Restarting the flow near the top shell: geometric accuracy loss, and
how far the root sits from the Bogoliubov energy.

The difference between the full flow and the truncated restart decays
geometrically in the restart span N^(1-beta), rounded down to even
(model.power_span).  The root z* approaches the closed-form energy E as
E + c1*phi/N; the measured N(z* - E)/phi is printed beside the
closed-form coefficient c1 of the 1/N expansion.
"""

import numpy as np

import bogoflow as bf
from bogoflow.model import power_span

params = bf.ModelParams(n_particles=10**4, epsilon=0.04)
z = bf.bogoliubov_energy(params)
full = bf.g_check(params, z).g_values[-1]

print("restart span  |G - G_T|")
for beta in (0.75, 0.65, 0.55, 0.45):
    span = power_span(params.n_particles, 1 - beta)
    diff = abs(full - bf.g_truncated(params, z, beta))
    print(f"  {span:>6}      {diff:.3e}")

report = bf.gamma_truncation_experiment(params, np.linspace(0.45, 0.75, 9), z)
print(
    f"\nfit: slope {report.slope:+.4f} per level, R^2 = {report.r_squared:.4f}, "
    f"decay constant c = {report.fitted_c:.2f}"
)

print("\nN (z* - E)/phi against the closed-form c1 at eps = 0.01:")
for n in (10**4, 10**5, 10**6):
    p = bf.ModelParams(n_particles=n, epsilon=0.01)
    measured = n * (bf.solve_fixed_point(p).z_star - bf.bogoliubov_energy(p)) / p.phi
    c1 = bf.inverse_n_coefficient(p) / p.phi
    print(f"  N = {n:>7}: measured {measured:.6f}  c1 {c1:.6f}")
