#!/usr/bin/env python3
"""Ground-state energy three ways: shell-elimination flow, exact
tridiagonal diagonalization, and the closed-form approximation.

The flow solves f(z) = 0 by safeguarded Newton steps on the exact slope,
started at the closed-form energy; the ends of the sign-change bracket
are evaluated only when a safeguard needs them.  Inside the proven
regime the steps run on the flow restarted a few hundred levels below
the top, and one full O(N) pass certifies the root.  The oracle diagonalizes the symmetric pair
sector independently.  The two agree to ~1e-15 while the closed form is
off by O(1/N), shrinking as N grows.
"""

import bogoflow as bf

for n in (128, 4096, 131072):
    params = bf.ModelParams(n_particles=n, epsilon=0.01, phi=1.0)
    result = bf.solve_fixed_point(params)
    lambda0 = bf.lowest_eigenpair(bf.build_sector_hamiltonian(params)).value
    e_bog = bf.bogoliubov_energy(params)
    regime = "in regime" if result.assumptions.nu_ok else "outside regime"
    print(f"N = {n:>7}  ({regime})")
    steps = (
        f"{result.evaluations} flow passes, {result.full_evaluations} of them O(N), "
        f"{result.iterations} Newton/bisection steps"
    )
    print(f"  flow root        z* = {result.z_star:+.15f}  ({steps})")
    print(f"  oracle disagreement  {abs(result.z_star - lambda0):.3e}")
    print(f"  closed form       E = {e_bog:+.15f}")
    print(f"  |z* - E|            {abs(result.z_star - e_bog):.3e}")
    print(f"  z* below analytic cap {bf.energy_cap(params):+.6f}: {result.upper_bound_check}")
