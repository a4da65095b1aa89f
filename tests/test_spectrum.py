import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bogoflow import (
    ModelParams,
    bogoliubov_energy,
    build_sector_hamiltonian,
    energy_error_diagnostic,
    g_check,
    gap_bound_check,
    lowest_eigenpair,
    solve_fixed_point,
)
from bogoflow.spectrum import GAP_COEF, UPPER_BOUND_COEF, _flow_side


def test_solve_n2_analytic():
    # 2x2 sector: ground energy eps - sqrt(eps^2 + 1/2) at phi = 1
    result = solve_fixed_point(ModelParams(n_particles=2, epsilon=0.01))
    assert result.z_star == pytest.approx(-0.6971774883294858, abs=1e-12)


def test_solve_matches_oracle_midsize():
    result = solve_fixed_point(
        ModelParams(n_particles=1024, epsilon=0.01), compare_oracle=True
    )
    assert result.oracle_delta <= 1e-10


def test_solve_requires_interaction():
    with pytest.raises(ValueError):
        solve_fixed_point(ModelParams(n_particles=4, epsilon=0.1, phi=0.0))


def test_root_inside_window_and_bracket():
    result = solve_fixed_point(ModelParams(n_particles=256, epsilon=0.05))
    lo, hi = result.bracket
    assert lo <= result.z_star <= hi
    assert abs(result.f_at_z_star) <= 1e-9


def test_upper_bound_on_regime_grid():
    for n, eps in ((1024, 0.01), (16384, 0.01), (128, 0.1), (4096, 0.5)):
        params = ModelParams(n_particles=n, epsilon=eps)
        result = solve_fixed_point(params)
        cap = bogoliubov_energy(params) + UPPER_BOUND_COEF * math.sqrt(
            eps
        ) * math.sqrt(eps * (eps + 2.0))
        assert result.z_star < cap
        assert result.upper_bound_check


def test_extended_bracket_outside_regime():
    # window top below the root: only reachable outside the regime
    result = solve_fixed_point(
        ModelParams(n_particles=2, epsilon=0.001), compare_oracle=True
    )
    assert result.extended_bracket
    assert result.oracle_delta <= 1e-10


def test_single_crossing_property():
    params = ModelParams(n_particles=128, epsilon=0.05)
    result = solve_fixed_point(params)
    rng = np.random.default_rng(3)
    zs = rng.uniform(result.window.z_min, result.z_star + 0.3, 100)
    for z in zs:
        if abs(z - result.z_star) < 1e-10:
            continue
        assert _flow_side(params, float(z)) == (1 if z < result.z_star else -1)


def test_zstar_decreasing_in_phi_at_fixed_kinetic():
    # attractive pairing: more interaction lowers the ground energy
    k2 = 0.01
    stars = []
    for phi in (0.5, 1.0, 2.0, 4.0):
        params = ModelParams(n_particles=128, epsilon=k2 / phi, phi=phi)
        stars.append(solve_fixed_point(params).z_star)
    assert all(a > b for a, b in zip(stars, stars[1:]))


def test_gap_bound_report():
    params = ModelParams(n_particles=128, epsilon=0.01, delta0=1.0)
    report = gap_bound_check(params)
    assert report.sector_ok and report.combined_ok
    assert report.gap_floor == pytest.approx(
        GAP_COEF * 0.1 * math.sqrt(0.01 * 2.01), rel=1e-12
    )
    # a huge delta0 leaves only the sector term in the combined floor
    big = gap_bound_check(ModelParams(n_particles=128, epsilon=0.01, delta0=1e12))
    assert big.combined_floor == big.gap_floor


def test_gap_n2_analytic():
    report = gap_bound_check(ModelParams(n_particles=2, epsilon=0.01))
    assert report.sector_gap == pytest.approx(2.0 * math.sqrt(0.5001), abs=1e-11)


def test_error_budget_trend():
    errs = []
    for n in (10**3, 10**4, 10**5):
        params = ModelParams(n_particles=n, epsilon=0.01)
        result = solve_fixed_point(params)
        errs.append(abs(result.z_star - bogoliubov_energy(params)))
    assert errs[0] > errs[1] > errs[2]


def test_error_budget_dominant_term():
    # once the geometric term has died off (large N at eps = 0.01,
    # beta = 2/3) the algebraic truncation term dominates the budget
    params = ModelParams(n_particles=10**6, epsilon=0.01)
    budget = energy_error_diagnostic(params)
    assert budget.term_truncation > budget.term_geometric
    assert budget.term_truncation > budget.term_inverse_n


def test_error_budget_in_regime():
    params = ModelParams(n_particles=10**6, epsilon=0.01)
    budget = energy_error_diagnostic(params)
    assert budget.regime_ok
    assert budget.in_budget


def test_error_budget_regime_violation_reported():
    budget = energy_error_diagnostic(ModelParams(n_particles=2, epsilon=0.01))
    assert not budget.regime_ok
    assert not budget.in_budget


def test_isospectrality_at_certified_point():
    # |z* - lambda0| at machine level whenever the flow is valid there
    for n, eps in ((16, 0.5), (512, 0.05)):
        params = ModelParams(n_particles=n, epsilon=eps)
        result = solve_fixed_point(params)
        lam0 = lowest_eigenpair(build_sector_hamiltonian(params)).value
        assert abs(result.z_star - lam0) <= 1e-10


def test_flow_matches_oracle_at_one_million():
    # flow root and expansion against the exact eigenpair at N = 1e6, where
    # the expansion stops adaptively, at the tolerances of the small grid
    from bogoflow import expand_ground_state

    params = ModelParams(n_particles=10**6, epsilon=0.01)
    pair = lowest_eigenpair(build_sector_hamiltonian(params))
    z_star = solve_fixed_point(params).z_star
    assert abs(z_star - pair.value) <= 1e-10
    psi = expand_ground_state(params, z_star).normalized()
    assert abs(psi @ pair.vector[: psi.size]) >= 1.0 - 1e-9


def test_random_parameter_points_end_to_end():
    # seeded random (N, eps, phi, delta0) sweep off the standard grids:
    # flow root, oracle eigenvalue, and eigenvector must all agree
    from bogoflow import expand_ground_state

    rng = np.random.default_rng(2024)
    for _ in range(12):
        n = 2 * int(rng.integers(1, 700))
        eps = float(10.0 ** rng.uniform(-3, 0))
        phi = float(10.0 ** rng.uniform(-1, 1))
        delta0 = float(10.0 ** rng.uniform(-1, 1))
        params = ModelParams(n_particles=n, epsilon=eps, phi=phi, delta0=delta0)
        result = solve_fixed_point(params, compare_oracle=True)
        assert result.oracle_delta <= 1e-10 * max(1.0, phi), (n, eps, phi)
        vec = expand_ground_state(params, result.z_star, compare_oracle=True)
        assert vec.overlap_oracle >= 1.0 - 1e-9, (n, eps, phi)


def test_flow_slope_matches_central_difference():
    # also from a start level above 0, where f belongs to the truncated flow
    for n, eps, start in ((16, 0.5, 0), (1024, 0.01, 0), (1024, 0.01, 900)):
        params = ModelParams(n_particles=n, epsilon=eps)
        z = solve_fixed_point(params).z_star - 0.05
        h = 1e-5
        slope = g_check(params, z, start).f_slope
        f_right, f_left = (g_check(params, z + s, start).f_value for s in (h, -h))
        assert slope <= -1.0
        assert slope == pytest.approx((f_right - f_left) / (2 * h), rel=1e-8)


def test_flow_slope_is_minus_squared_norm_of_expansion():
    # f'(z) = -(1 + sum_k psi_k^2) with psi_0 = 1, at any valid z
    from bogoflow import expand_ground_state

    for n, eps in ((2, 0.01), (512, 0.05), (4096, 0.01)):
        params = ModelParams(n_particles=n, epsilon=eps)
        z = solve_fixed_point(params).z_star - 0.01
        vec = expand_ground_state(params, z)
        assert not vec.shifted_evaluation
        slope = g_check(params, z).f_slope
        assert slope == pytest.approx(-float(np.sum(vec.coeffs**2)), rel=1e-12)


def test_newton_solve_flow_evaluations_and_accuracy(monkeypatch):
    # bracket probes plus Newton/bisection steps, including the extended
    # bracket at N = 2, eps = 0.001; the root checked against LAPACK
    from bogoflow import spectrum

    calls = []

    def counting_g_check(*args, **kwargs):
        calls.append(args[1])
        return g_check(*args, **kwargs)

    monkeypatch.setattr(spectrum, "g_check", counting_g_check)
    for n in (2, 4, 1024, 16384, 200000):
        for eps in (0.001, 0.01, 0.5):
            params = ModelParams(n_particles=n, epsilon=eps)
            tri = build_sector_hamiltonian(params)
            lam0 = eigh_tridiagonal(
                tri.diag, tri.offdiag, eigvals_only=True, select="i", select_range=(0, 0), tol=1e-15
            )[0]
            calls.clear()
            result = solve_fixed_point(params)
            assert len(calls) <= 8, (n, eps, len(calls))
            assert result.iterations <= len(calls) - 2
            assert abs(result.f_at_z_star) <= 1e-12
            assert abs(result.z_star - lam0) <= 1e-10, (n, eps)
            if (n, eps) == (2, 0.001):
                assert result.extended_bracket


def test_solve_identical_with_and_without_precomputed_coefficients(monkeypatch):
    # the root search computes level_coefficients once and passes it to
    # every flow evaluation; with None each g_check computes its own
    from bogoflow import spectrum

    points = [
        ModelParams(n_particles=n, epsilon=eps)
        for n, eps in ((2, 0.001), (1024, 0.01), (16384, 0.5), (200000, 0.0079))
    ]
    shared = [repr(solve_fixed_point(p)) for p in points]
    monkeypatch.setattr(spectrum, "level_coefficients", lambda params: None)
    assert [repr(solve_fixed_point(p)) for p in points] == shared
