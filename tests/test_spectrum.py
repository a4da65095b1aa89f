import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bogoflow import (
    ModelParams,
    bogoliubov_energy,
    build_sector_hamiltonian,
    energy_cap,
    energy_error_diagnostic,
    g_check,
    gap_floor,
    low_spectrum,
    lowest_eigenpair,
    solve_fixed_point,
)
from bogoflow.model import check_assumptions
from bogoflow.spectrum import GAP_COEF, TOL_ROOT, UPPER_BOUND_COEF, BracketError, flow_side


def _lapack_lambda0(params):
    tri = build_sector_hamiltonian(params)
    return eigh_tridiagonal(
        tri.diag, tri.offdiag, eigvals_only=True, select="i", select_range=(0, 0), tol=1e-15
    )[0]


def _counted_solve(monkeypatch, params):
    # the solve and the (z, start_level) of each of its flow passes
    from bogoflow import spectrum

    calls = []

    def counting_g_check(params, z, start_level=0):
        calls.append((z, start_level))
        return g_check(params, z, start_level)

    monkeypatch.setattr(spectrum, "g_check", counting_g_check)
    result = solve_fixed_point(params)
    monkeypatch.undo()
    return result, calls


def test_solve_n2_analytic():
    # 2x2 sector: ground energy eps - sqrt(eps^2 + 1/2) at phi = 1
    result = solve_fixed_point(ModelParams(n_particles=2, epsilon=0.01))
    assert result.z_star == pytest.approx(-0.6971774883294858, abs=1e-12)


def _distance_to_lambda0(params, z_star):
    return abs(z_star - lowest_eigenpair(build_sector_hamiltonian(params)).value)


def test_solve_matches_oracle_midsize():
    params = ModelParams(n_particles=1024, epsilon=0.01)
    assert _distance_to_lambda0(params, solve_fixed_point(params).z_star) <= 1e-10


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
        assert energy_cap(params) == cap
        assert result.upper_bound_check


def test_extended_bracket_outside_regime():
    # window top below the root: only reachable outside the regime
    for n in (2, 4):
        params = ModelParams(n_particles=n, epsilon=0.001)
        result = solve_fixed_point(params)
        assert result.extended_bracket, n
        assert _distance_to_lambda0(params, result.z_star) <= 1e-10, n


def test_root_above_window_top_in_regime_raises(monkeypatch):
    # a window top below the closed-form energy lies below the root too
    from dataclasses import replace

    from bogoflow import spectrum

    params = ModelParams(n_particles=1024, epsilon=0.01)
    assert check_assumptions(params).solver_regime_ok
    eps, window = params.epsilon, spectrum.spectral_window(params)
    top = bogoliubov_energy(params) - 0.5 * params.phi * math.sqrt(eps * (eps + 2.0))
    monkeypatch.setattr(spectrum, "spectral_window", lambda p: replace(window, z_max=top))
    with pytest.raises(BracketError, match="inside the spectral window"):
        solve_fixed_point(params)


def test_single_crossing_property():
    params = ModelParams(n_particles=128, epsilon=0.05)
    result = solve_fixed_point(params)
    rng = np.random.default_rng(3)
    zs = rng.uniform(result.window.z_min, result.z_star + 0.3, 100)
    for z in zs:
        if abs(z - result.z_star) < 1e-10:
            continue
        assert flow_side(params, float(z)) == (1 if z < result.z_star else -1)


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
    lam = low_spectrum(build_sector_hamiltonian(params), 2)
    assert lam[1] - lam[0] >= gap_floor(params)
    assert gap_floor(params) == pytest.approx(
        GAP_COEF * 0.1 * math.sqrt(0.01 * 2.01), rel=1e-12
    )


def test_gap_n2_analytic():
    lam = low_spectrum(build_sector_hamiltonian(ModelParams(n_particles=2, epsilon=0.01)), 2)
    assert lam[1] - lam[0] == pytest.approx(2.0 * math.sqrt(0.5001), abs=1e-11)


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
        pair = lowest_eigenpair(build_sector_hamiltonian(params))
        result = solve_fixed_point(params)
        assert abs(result.z_star - pair.value) <= 1e-10 * max(1.0, phi), (n, eps, phi)
        psi = expand_ground_state(params, result.z_star).normalized()
        v0 = pair.vector
        assert abs(psi @ v0[: psi.size]) >= 1.0 - 1e-9, (n, eps, phi)


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
    # f'(z) = -(1 + sum_k psi_k^2) with psi_0 = 1, at any valid z: the
    # slope and the vector read one chain, summed in index order
    from bogoflow import expand_ground_state

    for n, eps in ((2, 0.01), (512, 0.05), (4096, 0.01)):
        params = ModelParams(n_particles=n, epsilon=eps)
        for offset in (0.0, 1e-9, 0.01):
            z = solve_fixed_point(params).z_star - offset
            vec = expand_ground_state(params, z)
            assert g_check(params, z).f_slope == -np.cumsum(vec.coeffs**2)[-1], (n, offset)


def test_newton_solve_flow_evaluations_and_accuracy(monkeypatch):
    # every flow pass, bracket probes included, from the start at the
    # closed-form energy; the extended bracket at N = 2, eps = 0.001; the
    # root checked against LAPACK
    for n in (2, 4, 1024, 16384, 200000):
        for eps in (0.001, 0.01, 0.5):
            params = ModelParams(n_particles=n, epsilon=eps)
            lam0 = _lapack_lambda0(params)
            result, calls = _counted_solve(monkeypatch, params)
            zs = [z for z, _ in calls]
            full = [z for z, start in calls if start == 0]
            assert len(calls) <= 8, (n, eps, len(calls))
            assert result.evaluations == len(calls)
            assert result.full_evaluations == len(full)
            assert result.iterations <= len(calls) - 1
            assert abs(result.f_at_z_star) <= 1e-12
            assert abs(result.z_star - lam0) <= 1e-10, (n, eps)
            if (n, eps) == (2, 0.001):
                assert result.extended_bracket
            if n >= 10**4:
                if result.assumptions.solver_regime_ok:
                    # one O(N) pass certifies what the truncated passes found
                    assert len(full) == 1, (n, eps, calls)
                    assert len(calls) - len(full) <= 4, (n, eps, calls)
                    assert result.window.z_min not in zs, (n, eps)
                else:
                    assert len(calls) == len(full) <= 4, (n, eps, calls)
            lo, hi = result.bracket
            evaluated = set(full)
            if lo in evaluated:
                assert flow_side(params, lo) == 1, (n, eps)
            if hi in evaluated:
                assert flow_side(params, hi) == -1, (n, eps)


@pytest.mark.parametrize("n, max_passes", ((2 * 10**5, 8), (10**6, 10)))
def test_search_stops_at_the_noise_floor_of_f(n, max_passes):
    # eps = 1e-6 (root above the window top): f' is about -190 at N = 2e5
    # and the rounding noise of f can lie above TOL_ROOT * phi, so |f| <= tol
    # may be out of reach; a rejected Newton step no longer than tol ends
    # the search instead of bisecting the bracket down to that width
    # (without that rule N = 1e6 takes 38 passes)
    params = ModelParams(n_particles=n, epsilon=1e-6)
    result = solve_fixed_point(params)
    assert result.extended_bracket
    assert result.evaluations <= max_passes
    assert abs(result.z_star - _lapack_lambda0(params)) <= 1e-10


def test_search_continues_from_a_probed_end_closer_to_the_root():
    # N = 2, eps = 0.05: the first Newton step leaves the window, whose top
    # lies 6e-4 above the root; Newton goes on from the top instead of
    # bisecting down from the closed-form energy 0.07 below the root
    params = ModelParams(n_particles=2, epsilon=0.05)
    result = solve_fixed_point(params)
    assert result.window.z_max - result.z_star < 1e-3
    assert result.evaluations <= 4
    assert abs(result.z_star - _lapack_lambda0(params)) <= 1e-10


@pytest.mark.parametrize("eps", [1e-6, 1e-4, 2.0, 5.0, 50.0])
@pytest.mark.parametrize("n", [2, 4, 6, 1024, 200000])
def test_edge_parameters_match_lapack(n, eps):
    # very small and large eps, smallest N; at N = 2e5, eps = 1e-6 the
    # root lies above the window top and the search is mostly bisection
    params = ModelParams(n_particles=n, epsilon=eps)
    result = solve_fixed_point(params)
    assert abs(result.z_star - _lapack_lambda0(params)) <= 1e-10


TWO_STAGE_GRID = [
    (n, eps) for n in (1024, 16384, 2 * 10**5, 10**6) for eps in (1e-4, 1e-3, 0.01, 0.05, 0.5)
] + [(10**4, 0.005), (4 * 10**4, 0.05), (4 * 10**5, 0.005)]  # the benchmark workloads' range


def test_two_stage_root_agrees_with_the_full_flow_search(monkeypatch):
    # (a) the full-only search, with stage 1 turned off by a span >= N,
    # finds the same root within TOL_ROOT * phi; (b) the last pass is the
    # full flow at z*, and f_at_z_star is its f
    from bogoflow import spectrum

    staged = {point: _counted_solve(monkeypatch, ModelParams(*point)) for point in TWO_STAGE_GRID}
    monkeypatch.setattr(spectrum, "truncation_span", lambda params: params.n_particles)
    tol = TOL_ROOT
    for (n, eps), (result, calls) in staged.items():
        params = ModelParams(n_particles=n, epsilon=eps)
        full_only = solve_fixed_point(params)
        assert full_only.full_evaluations == full_only.evaluations
        assert abs(result.z_star - full_only.z_star) <= tol, (n, eps)
        assert calls[-1] == (result.z_star, 0), (n, eps)
        assert result.f_at_z_star == g_check(params, result.z_star).f_value
        if result.assumptions.solver_regime_ok:
            assert result.full_evaluations == 1, (n, eps)
            assert result.evaluations > 1, (n, eps)  # stage 1 ran


def test_steering_span_follows_epsilon():
    from bogoflow.flow import truncation_span

    spans = [truncation_span(ModelParams(4, eps)) for eps in (0.05, 0.01, 0.005, 1e-3, 1e-4)]
    assert spans == [184, 388, 540, 1184, 3704]


@pytest.mark.parametrize(
    "n, eps, falls_back", [(1024, 0.01, True), (16384, 0.5, False), (2 * 10**5, 0.005, True)]
)
def test_a_poor_steering_flow_changes_only_the_cost(monkeypatch, n, eps, falls_back):
    # (c) a span of 4 levels: at two points stage 1 finds no sign change
    # in the window and stage 2 is the full-only search from min(E, top),
    # pass for pass; at the third it steers far from z* and stage 2 goes
    # on from there.  The full-flow stage certifies the root either way.
    from bogoflow import spectrum

    params = ModelParams(n_particles=n, epsilon=eps)
    monkeypatch.setattr(spectrum, "truncation_span", lambda params: params.n_particles)
    full_only = solve_fixed_point(params)
    monkeypatch.setattr(spectrum, "truncation_span", lambda params: 4)
    result, calls = _counted_solve(monkeypatch, params)
    assert any(start == n - 4 for _, start in calls)
    assert abs(result.z_star - _lapack_lambda0(params)) <= 1e-10
    assert abs(result.f_at_z_star) <= TOL_ROOT
    if falls_back:
        assert result.z_star == full_only.z_star
        assert result.full_evaluations == full_only.evaluations


@pytest.mark.parametrize("n, eps", [(2 * 10**5, 1e-6), (128, 0.01)])
def test_no_steering_outside_the_regime_or_below_the_span(monkeypatch, n, eps):
    # (d) N = 2e5, eps = 1e-6 lies outside the proven regime, and at
    # N = 128, eps = 0.01 the span 388 exceeds N: today's search, pass
    # for pass
    params = ModelParams(n_particles=n, epsilon=eps)
    result, calls = _counted_solve(monkeypatch, params)
    assert all(start == 0 for _, start in calls)
    assert result.full_evaluations == result.evaluations == len(calls)


def test_steering_that_ends_invalid_falls_back_to_the_closed_form_start(monkeypatch):
    # a steering flow valid only at its start point: stage 1 bisects
    # against invalid points and ends on one, so stage 2 starts at
    # min(E, window top), exactly as the full-only search does
    from bogoflow import spectrum

    params = ModelParams(n_particles=2 * 10**5, epsilon=0.01)
    monkeypatch.setattr(spectrum, "truncation_span", lambda params: params.n_particles)
    full_only = solve_fixed_point(params)
    monkeypatch.undo()
    z0 = min(bogoliubov_energy(params), full_only.window.z_max)
    real_flow_point = spectrum._flow_point

    def steering_valid_only_at_start(params, z, start_level=0):
        if start_level > 0 and z != z0:
            return None
        return real_flow_point(params, z, start_level)

    monkeypatch.setattr(spectrum, "_flow_point", steering_valid_only_at_start)
    result, calls = _counted_solve(monkeypatch, params)
    assert calls[0] == (z0, params.n_particles - 388)
    assert [z for z, start in calls if start == 0][0] == z0
    assert result.z_star == full_only.z_star
    assert result.full_evaluations == full_only.evaluations < result.evaluations


@pytest.mark.parametrize("n, eps", [(1024, 0.01), (16384, 0.5)])
@pytest.mark.parametrize("k", [10, 20, 100, 500])
def test_root_is_exactly_homogeneous_in_phi(n, eps, k):
    # every flow quantity scales with phi, and a power of two scales
    # without rounding, so z* must follow bit for bit
    scale = 2.0**-k
    z_one = solve_fixed_point(ModelParams(n_particles=n, epsilon=eps)).z_star
    assert solve_fixed_point(ModelParams(n_particles=n, epsilon=eps, phi=scale)).z_star == scale * z_one
