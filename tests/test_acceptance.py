"""Acceptance battery: one test per exit criterion, each printing a
pass/fail line with the measured margin.

Grid conventions used below:
- the equivalence grid is N in {2, 4, 16, 128, 1024, 16384} crossed with
  epsilon in {0.5, 0.1, 0.01, 0.001} at phi = 1;
- "regime points" are the grid points satisfying 1/N <= epsilon^nu (the
  remaining regime conditions contain epsilon-only smallness constraints
  that no N can repair at these epsilon values, so gating on them would
  leave nothing to test);
- the sequence-bound points use N = 10^7, which satisfies every
  N-dependent part of the gamma condition at the documented constants.

Timed criteria include the first call of each kernel.
"""

import math
import time

import numpy as np
import pytest

from bogoflow import ModelParams, cli, verify

GRID_N = (2, 4, 16, 128, 1024, 16384)
GRID_EPS = (0.5, 0.1, 0.01, 0.001)


def _report(criterion, passed, detail):
    print(f"[criterion {criterion}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, detail


@pytest.fixture(scope="module")
def grid_records():
    """The equivalence grid's comparison records, built once for criteria
    1, 2, 3, 4 and 9, and the seconds the build took."""
    start = time.perf_counter()
    records = [verify.compare_point(ModelParams(n_particles=n, epsilon=eps)) for n in GRID_N for eps in GRID_EPS]
    return records, time.perf_counter() - start


def test_criterion_01_fixed_point_oracle_equivalence(grid_records):
    assert verify.ENERGY_TOL == 1e-10
    records, build_s = grid_records
    start = time.perf_counter()
    result = verify.check_flow_oracle(records)
    elapsed = build_s + time.perf_counter() - start
    _report(1, result.passed and elapsed < 5.0, f"{result.details}; runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_continued_fraction_identity(grid_records):
    assert verify.CF_POINTS == 20 and verify.CF_TOL == 1e-12
    result = verify.check_cf_equivalence(grid_records[0])
    _report(2, result.passed, result.details)


def test_criterion_03_ground_state_overlap(grid_records):
    assert verify.OVERLAP_TOL == 1e-9 and verify.RESIDUAL_FACTOR == 1e-8
    result = verify.check_overlap(grid_records[0])
    _report(3, result.passed, result.details)


def test_criterion_04_zstar_upper_bound(grid_records):
    result = verify.check_zstar_upper_bound(grid_records[0])
    _report(4, result.passed, result.details)


def test_criterion_05_convergence_to_closed_form():
    assert verify.EBOG_SLOPE_RANGE == (-1.5, -0.4)
    assert verify.EBOG_EPS == 0.01
    start = time.perf_counter()
    result = verify.check_ebog_convergence(n_values=(10**3, 10**4, 10**5, 10**6))
    elapsed = time.perf_counter() - start
    _report(5, result.passed and elapsed < 30.0, f"{result.details}; runtime {elapsed:.2f}s (< 30s)")


def test_criterion_06_sequence_bounds():
    # N = 10^7: even, N^(1-gamma) even at gamma = 1/3, and every
    # N-dependent inequality of the gamma condition holds at the
    # documented C_GAMMA = 10, K_GAMMA = 0.05
    outcomes = []
    for eps in (0.04, 0.01):
        params = ModelParams(n_particles=10**7, epsilon=eps)
        outcomes.append(verify.check_x_bounds(params))
        outcomes.append(verify.check_xtilde_bounds(params))
    passed = all(r.passed for r in outcomes)
    detail = "; ".join(f"{r.name}: margin {r.margin:.3e}" for r in outcomes)
    _report(6, passed, detail)


def test_criterion_07_closed_form_solution():
    l_grid = np.unique(np.geomspace(2, 1e6, 30).astype(np.int64)).astype(float)
    assert verify.Y_RESIDUAL_TOL == 1e-12
    np.testing.assert_array_equal(verify.Y_RESIDUAL_EPS, np.geomspace(1e-6, 0.5, 13))
    result = verify.check_y_closed_residual(l_grid)
    # eps = 0 branch: l/(2l+1) to one ulp
    ulp_ok = True
    from bogoflow import y_closed_form

    for l in (1, 2, 7, 100, 10**4, 10**6):
        expect = l / (2 * l + 1)
        if abs(y_closed_form(l, 0.0) - expect) > math.ulp(expect):
            ulp_ok = False
    _report(7, result.passed and ulp_ok, f"{result.details}; eps=0 branch 1-ulp: {ulp_ok}")


def test_criterion_08_product_identity():
    m_grid = np.unique(np.geomspace(3, 1e6, 50).astype(np.int64))
    assert verify.ACCESSORI_TOL == 1e-13
    assert verify.ACCESSORI_EPS == (0.0, 0.01, 0.1)
    assert verify.ACCESSORI_DELTAS == (0.0, 1.0, 1.3, 1.99)
    result = verify.check_accessori(m_values=m_grid)
    _report(8, result.passed, result.details)


def test_criterion_09_sector_gap(grid_records):
    result = verify.check_gap_bound(grid_records[0])
    _report(9, result.passed, result.details)


def test_criterion_10_truncation_decay():
    assert verify.TRUNCATION_N_CAP == 10**5 and verify.R2_FLOOR == 0.95
    assert verify.TRUNCATION_EPS == (0.04, 0.01) and verify.TRUNCATION_BETAS == (0.3, 0.5, 0.7)
    result = verify.check_truncation_decay()
    _report(10, result.passed, result.details)


def test_criterion_11_sweep_determinism(tmp_path):
    args = ["--mode", "sweep", "--n", "16,128,1024", "--epsilon", "0.1,0.01"]
    out1, out2, out3 = (tmp_path / name for name in ("a", "b", "c"))
    assert cli.main(args + ["--workers", "1", "--out", str(out1)]) == 0
    assert cli.main(args + ["--workers", "8", "--out", str(out2)]) == 0
    assert cli.main(args + ["--workers", "1", "--out", str(out3)]) == 0
    body1 = (out1 / "results.csv").read_bytes()
    body2 = (out2 / "results.csv").read_bytes()
    body3 = (out3 / "results.csv").read_bytes()
    passed = body1 == body2 == body3
    _report(11, passed, "sweep CSV bodies byte-identical across runs and worker counts")
