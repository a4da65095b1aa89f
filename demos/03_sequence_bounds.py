#!/usr/bin/env python3
"""Every auxiliary sequence against its analytic companion bound.

The majorant chain X stays above its lower bound at every even N, by one
step inequality checked without running a chain; the minorant chain stays
below its upper bound on the stated tail range, the closed form solves its
recursion to rounding, and the two-factor product identity holds exactly.
"""

import numpy as np

import bogoflow as bf
from bogoflow.sequences import STEP_SPAN, majorant_step, y_closed_recursion_residual

for eps in (0.04, 0.01):
    params = bf.ModelParams(n_particles=10**7, epsilon=eps)
    _, min_slack, _, tail, failures = majorant_step(params)  # reads eps alone
    x = bf.x_sequence(bf.ModelParams(n_particles=10**5, epsilon=eps))
    xt = bf.xtilde_sequence(params)
    fin = np.isfinite(xt.bound)
    print(f"eps = {eps}")
    print(
        f"  X step: min slack {min_slack:+.3e} on even m <= M = {STEP_SPAN}, "
        f"tail bound {tail:+.3e} beyond: " + ("; ".join(failures) or "X >= L at every even N")
    )
    print(f"  X at N = 1e5: {x.values.size} entries, min lower-bound margin {x.margin.min():+.3e}")
    print(
        f"  Xt: {xt.values.size} entries, min upper-bound margin "
        f"{xt.margin[fin].min():+.3e} on the {fin.sum()}-entry tail"
    )

l_grid = np.unique(np.geomspace(2, 1e6, 25).astype(np.int64)).astype(float)
worst = max(
    float(np.max(y_closed_recursion_residual(l_grid, eps)))
    for eps in np.geomspace(1e-6, 0.5, 13)
)
print(f"\nclosed form vs its recursion, worst relative residual: {worst:.3e}")
print(f"closed form at eps=0, l=1: {bf.y_closed_form(1, 0.0)} (= 1/3 exactly)")

m = np.unique(np.geomspace(3, 1e6, 40).astype(np.int64))
worst = max(
    bf.accessori_identity_check(eps, delta, m)
    for eps in (0.0, 0.01, 0.1)
    for delta in (0.0, 1.0, 1.3, 1.99)
)
print(f"product identity, worst relative residual: {worst:.3e}")
