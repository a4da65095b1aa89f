import numpy as np
import pytest

from bogoflow import (
    ModelParams,
    bogoliubov_energy,
    build_sector_hamiltonian,
    eigen_residual,
    expand_ground_state,
    gamma_truncation_experiment,
    kz_truncation_bounds,
    lowest_eigenpair,
    solve_fixed_point,
    tail_series,
)


def test_first_component_is_one():
    params = ModelParams(n_particles=32, epsilon=0.05)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star)
    assert vec.coeffs[0] == 1.0


def test_overlap_with_oracle_vector():
    params = ModelParams(n_particles=128, epsilon=0.01)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star, compare_oracle=True)
    assert vec.overlap_oracle >= 1.0 - 1e-9


def test_componentwise_match_with_alternating_signs():
    params = ModelParams(n_particles=64, epsilon=0.05)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star)
    pair = lowest_eigenpair(build_sector_hamiltonian(params))
    psi = vec.normalized()
    np.testing.assert_allclose(psi, pair.vector, atol=1e-11)
    signs = np.sign(psi[np.abs(psi) > 1e-300])
    assert np.all(signs == [(-1.0) ** k for k in range(signs.size)])


def test_no_interaction_leaves_condensate_only():
    # with a negligible coupling at fixed kinetic energy the amplitudes
    # beyond the condensate entry are essentially zero
    k2 = 0.01
    phi = 1e-10
    params = ModelParams(n_particles=32, epsilon=k2 / phi, phi=phi)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star)
    assert np.all(np.abs(vec.coeffs[1:]) <= 1e-8)


def test_eigen_residual_small():
    params = ModelParams(n_particles=512, epsilon=0.05)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star)
    tri = build_sector_hamiltonian(params)
    res = eigen_residual(tri, vec.coeffs, result.z_star)
    assert res <= 1e-8 * tri.norm_inf()


def test_adaptive_stop_beyond_full_sector_limit():
    # above the full-sector limit the expansion stops once coefficients
    # fall below the floor, and the analytic tail bound covers the rest
    params = ModelParams(n_particles=2 * 10**5, epsilon=0.01)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star, compare_oracle=True)
    assert vec.coeffs.size < 10**4  # stopped long before N/2 pairs
    assert 0.0 <= vec.tail_bound < 1e-12
    assert vec.overlap_oracle >= 1.0 - 1e-9


def test_truncated_vector_tail_bound_dominates():
    params = ModelParams(n_particles=256, epsilon=0.01)
    result = solve_fixed_point(params)
    full = expand_ground_state(params, result.z_star)
    cut = expand_ground_state(params, result.z_star, k_max=20)
    omitted = np.linalg.norm(full.coeffs[21:])
    assert cut.tail_bound >= omitted
    assert cut.tail_bound < 1.0  # and it is not vacuous


def test_tail_series_ratio_below_one_eventually():
    params = ModelParams(n_particles=10**4, epsilon=0.01)
    series = tail_series(params, 200)
    assert series.threshold_index > 0
    j0 = series.threshold_index
    assert np.all(series.ratios[series.j >= max(j0, 3)] < 1.0)


def test_tail_series_grows_as_eps_shrinks():
    params_a = ModelParams(n_particles=10**4, epsilon=0.01)
    params_b = ModelParams(n_particles=10**4, epsilon=0.001)
    sum_a = tail_series(params_a, 400).c.sum()
    sum_b = tail_series(params_b, 400).c.sum()
    assert np.isfinite(sum_a) and np.isfinite(sum_b)
    assert sum_b > sum_a


def test_tail_series_dominates_measured_decay():
    # the measured coefficient decay sits below the series ratio
    params = ModelParams(n_particles=128, epsilon=0.01)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star)
    series = tail_series(params, 64)
    psi = np.abs(vec.coeffs)
    for j in range(3, 65):
        measured = psi[j] / psi[j - 1]
        allowed = series.c[j - 2] / series.c[j - 3]
        assert measured <= allowed * (1.0 + 1e-6)


def test_kz_bounds_contract():
    params = ModelParams(n_particles=2000, epsilon=0.04)
    bounds = kz_truncation_bounds(params, r=2, i=600, h=4)
    assert np.all(bounds.Z < 1.0)
    assert bounds.remainder < bounds.leading
    # per-factor envelope 1/(1 + c sqrt(eps)) for a measurable c > 0
    factors = bounds.K / (1.0 - bounds.Z) ** 2
    assert np.all(factors <= 1.0 / (1.0 + 0.5 * np.sqrt(0.04)))


def test_kz_remainder_vanishes_with_depth():
    params = ModelParams(n_particles=2000, epsilon=0.04)
    remainders = [
        kz_truncation_bounds(params, r=2, i=600, h=h).remainder for h in (2, 8, 32)
    ]
    assert remainders[0] > remainders[1] > remainders[2]
    assert remainders[2] < 1e-40


def test_kz_validates_arguments():
    params = ModelParams(n_particles=100, epsilon=0.04)
    with pytest.raises(ValueError):
        kz_truncation_bounds(params, r=3, i=10, h=4)
    with pytest.raises(ValueError):
        kz_truncation_bounds(params, r=2, i=10, h=1)
    with pytest.raises(ValueError):
        kz_truncation_bounds(params, r=10, i=10, h=4)


def test_truncation_experiment_slope_negative():
    params = ModelParams(n_particles=10**4, epsilon=0.04)
    z = bogoliubov_energy(params)
    report = gamma_truncation_experiment(params, np.linspace(0.45, 0.75, 9), z)
    assert report.slope < 0.0
    assert report.r_squared >= 0.95
    assert report.fitted_c > 0.0


def test_truncation_fitted_c_consistent_scale():
    # fitted contraction constant within a factor 10 of the slope model
    params = ModelParams(n_particles=10**4, epsilon=0.04)
    z = bogoliubov_energy(params)
    report = gamma_truncation_experiment(params, np.linspace(0.45, 0.75, 9), z)
    assert 0.1 <= report.fitted_c <= 10.0


def test_vector_csv_export(tmp_path):
    params = ModelParams(n_particles=16, epsilon=0.1)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star)
    pair = lowest_eigenpair(build_sector_hamiltonian(params))
    path = tmp_path / "vec.csv"
    vec.to_csv(path, oracle_vector=pair.vector)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,psi_k,oracle_v_k,abs_diff"
    assert len(lines) == 1 + vec.coeffs.size


def _expand_by_loop(params, z, k_max=None):
    # the element loop the vectorized expansion replaced, kept as reference
    from bogoflow.flow import g_check
    from bogoflow.groundstate import COEFF_FLOOR, FULL_SECTOR_LIMIT

    n = params.n_particles
    if k_max is None:
        k_max = n // 2
    g = g_check(params, z).g_values
    tri = build_sector_hamiltonian(params)
    d, t = tri.diag, tri.offdiag
    coeffs = np.zeros(k_max + 1)
    coeffs[0] = 1.0
    norm_sq = 1.0
    last = 0
    for k in range(1, k_max + 1):
        psi = -g[(n - 2 * k) // 2] * t[k - 1] / (d[k] - z) * coeffs[k - 1]
        coeffs[k] = psi
        norm_sq += psi * psi
        last = k
        if n > FULL_SECTOR_LIMIT and abs(psi) < COEFF_FLOOR * np.sqrt(norm_sq):
            break
    return coeffs[: last + 1]


@pytest.mark.parametrize(
    "n, eps, k_max",
    [
        pytest.param(1024, 0.01, None, id="1024"),
        pytest.param(1024, 0.01, 100, id="1024-kmax100"),
        pytest.param(2 * 10**5, 0.01, None, id="200000"),
        # stop index 2752, past the first EXPAND_BLOCK, and a k_max below it
        pytest.param(2 * 10**5, 1e-4, None, id="200000-eps1e-4"),
        pytest.param(2 * 10**5, 1e-4, 2500, id="200000-eps1e-4-kmax2500"),
    ],
)
def test_vectorized_expansion_matches_loop_bitwise(n, eps, k_max):
    # cumprod/cumsum accumulate in order, and beyond FULL_SECTOR_LIMIT the
    # blocks carry the running product and norm, so coefficients and the
    # adaptive stop index are unchanged to the bit
    params = ModelParams(n_particles=n, epsilon=eps)
    z = solve_fixed_point(params).z_star
    vec = expand_ground_state(params, z, k_max=k_max)
    assert not vec.shifted_evaluation
    np.testing.assert_array_equal(vec.coeffs, _expand_by_loop(params, z, k_max))
