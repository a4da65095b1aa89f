#!/usr/bin/env python3
"""The central identity: the flow's fixed-point function equals the
Schur complement of the sector matrix onto the condensate entry,
identically in z.

The two sides are computed by genuinely different recursions (forward
geometric-series factors vs a bottom-up nested fraction), so their
agreement at rounding level is a real cross-check, and breaking one
matrix element by 1e-6 breaks the identity visibly.
"""

import numpy as np

import bogoflow as bf
from bogoflow.oracle import TridiagonalHamiltonian

params = bf.ModelParams(n_particles=1024, epsilon=0.01)
tri = bf.build_sector_hamiltonian(params)
pair = bf.lowest_eigenpair(tri)
lam0 = pair.value
print(f"N = 1024, eps = 0.01, lambda0 = {lam0:+.12f}")
# below 1024 rows the oracle solves the whole sector: K = size, enclosure 0
print(f"oracle block K = {pair.block_size} of {tri.size} rows, certified width {pair.enclosure:.1e}\n")

print(" z - lambda0      f(flow)          f(matrix)        rel diff")
for dz in np.geomspace(1e-2, 2.0, 6):
    z = lam0 - dz
    f_flow = bf.f_of_z(params, z)
    f_mat = bf.schur_complement(tri, z)
    print(f"  -{dz:8.3e}  {f_flow:+.12e}  {f_mat:+.12e}  {abs(f_flow-f_mat)/abs(f_mat):.2e}")

# negative control: one perturbed shallow coupling must show up
# immediately (deep couplings are geometrically suppressed in f)
off = tri.offdiag.copy()
off[1] *= 1.0 + 1e-6
broken = TridiagonalHamiltonian(diag=tri.diag, offdiag=off)
z = lam0 - 0.1
rel = abs(bf.f_of_z(params, z) - bf.schur_complement(broken, z)) / abs(
    bf.schur_complement(broken, z)
)
print(f"\nwith t_1 scaled by 1+1e-6: rel diff jumps to {rel:.2e}")

# monotonicity: every flow factor grows with z, f falls with slope <= -1
z1, z2 = lam0 - 0.5, lam0 - 0.4
g1, g2 = bf.g_check(params, z1), bf.g_check(params, z2)
print(f"min level increment of G over dz=0.1: {np.min(g2.g_values - g1.g_values):.3e}")
print(f"f slope over the same step: {(g2.f_value - g1.f_value) / (z2 - z1):+.4f} (<= -1)")
