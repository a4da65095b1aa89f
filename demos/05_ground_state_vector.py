#!/usr/bin/env python3
"""Reconstructing the ground-state vector shell by shell.

Each pair amplitude is one product step of flow factor, shell resolvent,
and coupling element; signs alternate.  The result matches the inverse-
iteration eigenvector to better than 1e-9 overlap, and the analytic tail
series dominates whatever a truncation omits.  At large N the amplitudes
need the flow's top levels only, which two restarts of the flow enclose.
"""

import numpy as np

import bogoflow as bf

params = bf.ModelParams(n_particles=256, epsilon=0.01)
result = bf.solve_fixed_point(params)
vec = bf.expand_ground_state(params, result.z_star)
tri = bf.build_sector_hamiltonian(params)

psi = vec.normalized()
overlap = abs(psi @ bf.lowest_eigenpair(tri).vector[: psi.size])
print(f"first amplitudes: {np.array2string(psi[:6], precision=6)}")
print(f"overlap with oracle eigenvector: {overlap:.15f}")
res = bf.eigen_residual(tri, vec.coeffs, result.z_star)
print(f"eigen-residual / matrix norm:    {res / tri.norm_inf():.3e}")

cut = bf.expand_ground_state(params, result.z_star, k_max=20)
full = bf.expand_ground_state(params, result.z_star)
omitted = float(np.linalg.norm(full.coeffs[21:]))
print(f"\ntruncation at 20 pairs: omitted norm {omitted:.3e}, analytic bound {cut.tail_bound:.3e}")

series = bf.tail_series(params, 60)
print(f"tail-series ratio drops below 1 from j = {series.threshold_index}")
meas = np.abs(full.coeffs)
worst = max(
    meas[j] / meas[j - 1] / (series.c[j - 2] / series.c[j - 3]) for j in range(3, 40)
)
print(f"measured decay / series decay, worst ratio: {worst:.6f} (<= 1)")

big = bf.ModelParams(n_particles=10**9, epsilon=0.01)
top = bf.expand_ground_state(big, bf.bogoliubov_energy(big))
print(
    f"\nN = 1e9 at the closed-form energy: {top.coeffs.size} amplitudes, "
    f"flow read from level N - {top.flow_span} (tail bound {top.tail_bound:.1e})"
)
