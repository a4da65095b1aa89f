import numpy as np
import pytest

from bogoflow import (
    FlowDomainError,
    ModelParams,
    bogoliubov_energy,
    build_sector_hamiltonian,
    eigen_residual,
    expand_ground_state,
    gamma_truncation_experiment,
    lowest_eigenpair,
    solve_fixed_point,
    tail_series,
)


def _oracle_overlap(params, vec):
    # |<psi, v0>| with the oracle's ground vector, as verify.check_overlap takes it
    psi = vec.normalized()
    return float(abs(psi @ lowest_eigenpair(build_sector_hamiltonian(params)).vector[: psi.size]))


def test_first_component_is_one():
    params = ModelParams(n_particles=32, epsilon=0.05)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star)
    assert vec.coeffs[0] == 1.0


def test_overlap_with_oracle_vector():
    params = ModelParams(n_particles=128, epsilon=0.01)
    result = solve_fixed_point(params)
    vec = expand_ground_state(params, result.z_star)
    assert _oracle_overlap(params, vec) >= 1.0 - 1e-9


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
    vec = expand_ground_state(params, result.z_star)
    assert vec.flow_span < params.n_particles  # from the top of the flow only
    assert vec.coeffs.size < 10**4  # stopped long before N/2 pairs
    assert 0.0 <= vec.tail_bound < 1e-12
    assert _oracle_overlap(params, vec) >= 1.0 - 1e-9


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


@pytest.mark.parametrize("eps, j_max", [(0.5, 3), (0.01, 400), (1e-6, 50), (1e-6, 3000)])
def test_tail_series_threshold_is_where_the_last_run_below_one_starts(eps, j_max):
    # the definition, scanned from every index: the smallest j from which
    # every ratio c_j / c_{j-1} is below 1, or -1 where the last one is not
    series = tail_series(ModelParams(n_particles=10**4, epsilon=eps), j_max)
    factors = np.concatenate([series.c[:1], series.ratios[1:]])
    below = factors < 1.0
    expected = next((int(series.j[i]) for i in range(below.size) if below[i:].all()), -1)
    assert series.threshold_index == expected


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


def _expand_by_loop(params, z, k_max=None):
    # the element loop the vectorized chain replaced, kept as reference: at
    # level N - 2k (index j), d_k - z is diag[j] - z and t_{k-1} the root of
    # the numerator one level up, t_0^2 above the top level
    from bogoflow.flow import COEFF_FLOOR, _coefficients_at, _final_coupling, g_check

    n = params.n_particles
    if k_max is None:
        k_max = n // 2
    g = g_check(params, z).g_values
    num, diag = _coefficients_at(params, 0)
    t = np.sqrt(np.append(num[1:], _final_coupling(params)))
    coeffs = np.zeros(k_max + 1)
    coeffs[0] = 1.0
    norm_sq = 1.0
    last = 0
    for k in range(1, k_max + 1):
        j = (n - 2 * k) // 2
        psi = -g[j] * t[j] / (diag[j] - z) * coeffs[k - 1]
        coeffs[k] = psi
        norm_sq += psi * psi
        last = k
        if abs(psi) < COEFF_FLOOR * np.sqrt(norm_sq):
            break
    return coeffs[: last + 1]


@pytest.mark.parametrize(
    "n, eps, k_max",
    [
        pytest.param(1024, 0.01, None, id="1024"),
        pytest.param(1024, 0.01, 100, id="1024-kmax100"),
        pytest.param(2 * 10**5, 0.01, None, id="200000"),
        # stop index 2752, past the first CHAIN_BLOCK, and a k_max below it
        pytest.param(2 * 10**5, 1e-4, None, id="200000-eps1e-4"),
        pytest.param(2 * 10**5, 1e-4, 2500, id="200000-eps1e-4-kmax2500"),
    ],
)
def test_vectorized_expansion_matches_loop_bitwise(n, eps, k_max):
    # cumprod/cumsum accumulate in order, and the blocks carry the running
    # product and norm, so coefficients and the adaptive stop index are
    # unchanged to the bit
    params = ModelParams(n_particles=n, epsilon=eps)
    z = solve_fixed_point(params).z_star
    vec = expand_ground_state(params, z, k_max=k_max)
    np.testing.assert_array_equal(vec.coeffs, _expand_by_loop(params, z, k_max))


def _full_pass_expansion(monkeypatch, params, z, **kwargs):
    # the reference: the same expansion from the full pass, which the
    # enclosure reads once its first restart span reaches N
    from bogoflow import flow

    with monkeypatch.context() as m:
        m.setattr(flow, "_first_span", lambda params, count: params.n_particles)
        return expand_ground_state(params, z, **kwargs)


@pytest.mark.parametrize("eps", [0.5, 0.05, 0.01, 0.005, 1e-3, 1e-4])
@pytest.mark.parametrize("n", [100002, 2 * 10**5, 4 * 10**5, 10**6])
def test_truncated_expansion_matches_full_pass_bitwise(monkeypatch, n, eps):
    # the two restarts at level N - S agree on every level the expansion
    # reads, so coefficients and tail bound equal the full pass's to the bit
    params = ModelParams(n_particles=n, epsilon=eps)
    z = solve_fixed_point(params).z_star
    vec = expand_ground_state(params, z)
    ref = _full_pass_expansion(monkeypatch, params, z)
    assert vec.flow_span < n and ref.flow_span == n
    np.testing.assert_array_equal(vec.coeffs, ref.coeffs)
    assert vec.tail_bound == ref.tail_bound


def test_truncated_expansion_k_max_cuts(monkeypatch):
    params = ModelParams(n_particles=2 * 10**5, epsilon=1e-4)
    z = solve_fixed_point(params).z_star
    for k_max in (0, 1, 10, 2047, 2048, 2500, 10**5):
        vec = expand_ground_state(params, z, k_max=k_max)
        ref = _full_pass_expansion(monkeypatch, params, z, k_max=k_max)
        assert vec.flow_span < params.n_particles
        np.testing.assert_array_equal(vec.coeffs, ref.coeffs)
        assert vec.tail_bound == ref.tail_bound


def test_full_pass_where_enclosure_does_not_apply():
    # eps*N < 1, a first restart span S >= N, and z >= 0 take the full pass
    from bogoflow import flow

    assert flow._first_span(ModelParams(n_particles=4000, epsilon=0.01), flow.CHAIN_BLOCK) >= 4000
    for n, eps, z in [
        (2 * 10**5, 1e-6, None),
        (4000, 0.01, None),
        (2 * 10**5, 0.5, 0.0),  # the flow is valid at z = 0 here
    ]:
        params = ModelParams(n_particles=n, epsilon=eps)
        if z is None:
            z = solve_fixed_point(params).z_star
        assert expand_ground_state(params, z).flow_span == n
    # where the full pass is invalid at z there is no vector
    with pytest.raises(FlowDomainError, match="z=0.0"):
        expand_ground_state(ModelParams(n_particles=2 * 10**5, epsilon=0.01), 0.0)


@pytest.mark.parametrize("eps", [0.05, 0.01, 1e-4])
@pytest.mark.parametrize("n", [3 * 10**12, 10**13, 2**52])
def test_enclosure_and_expansion_apply_past_two_trillion(n, eps):
    # at z <= 0 every resolvent is positive, so nothing N-scaled stops the
    # two restarts; the full pass here would need terabytes
    from bogoflow import flow

    params = ModelParams(n_particles=n, epsilon=eps)
    z = bogoliubov_energy(params)
    assert flow.enclosure(params, z, 1)[1] < n
    assert expand_ground_state(params, z).flow_span < n


def test_forced_short_span_doubles_to_same_vector(monkeypatch):
    # a 4-level first span holds too few levels; flow doubles the span
    # until the restarts agree bit for bit on the top CHAIN_BLOCK levels
    # the expansion asks for, and the vector is the one of the full pass
    from bogoflow import flow

    params = ModelParams(n_particles=3 * 10**5, epsilon=0.05)
    z = solve_fixed_point(params).z_star
    for k_max in (20, None):
        ref = _full_pass_expansion(monkeypatch, params, z, k_max=k_max)
        with monkeypatch.context() as m:
            m.setattr(flow, "_first_span", lambda params, count: 4)
            vec = expand_ground_state(params, z, k_max=k_max)
        assert 4 < vec.flow_span < params.n_particles
        np.testing.assert_array_equal(vec.coeffs, ref.coeffs)
        assert vec.tail_bound == ref.tail_bound


def _span_sizes(monkeypatch):
    # the level count of every flow span run, in call order; a full pass
    # from level 0 runs N/2 levels, every restart fewer
    from bogoflow import flow

    sizes = []
    span = flow._flow_span

    def counted(z, coefficients, pivot):
        sizes.append(coefficients[0].size)
        return span(z, coefficients, pivot)

    monkeypatch.setattr(flow, "_flow_span", counted)
    return sizes


def test_solve_and_expand_run_one_full_flow_pass(monkeypatch):
    sizes = _span_sizes(monkeypatch)
    params = ModelParams(n_particles=3 * 10**5, epsilon=0.01)
    vec = expand_ground_state(params, solve_fixed_point(params).z_star)
    assert vec.flow_span < params.n_particles
    assert sizes.count(params.n_particles // 2) == 1


@pytest.mark.parametrize("eps", [0.005, 0.01, 0.05])
@pytest.mark.parametrize("n", [10**4, 2 * 10**4, 4 * 10**4])
def test_solve_and_expand_read_the_top_of_the_flow_at_small_n(monkeypatch, n, eps):
    # at the certify workload's sizes too the expansion reads the enclosure:
    # the one level-0 pass is the solve's own, and the vector is the full pass's
    params = ModelParams(n_particles=n, epsilon=eps)
    with monkeypatch.context() as m:
        sizes = _span_sizes(m)
        z = solve_fixed_point(params).z_star
        vec = expand_ground_state(params, z)
    ref = _full_pass_expansion(monkeypatch, params, z)
    assert sizes.count(n // 2) == 1
    assert vec.flow_span < n and ref.flow_span == n
    np.testing.assert_array_equal(vec.coeffs, ref.coeffs)
    assert vec.tail_bound == ref.tail_bound


_LEMMA_GRID = [
    (n, eps)
    for n in (1024, 2 * 10**5, 10**6)
    for eps in (1e-4, 1e-3, 0.01, 0.1, 1.0, 10.0, 50.0)
    if eps * n >= 1.0
]


@pytest.mark.parametrize("n, eps", _LEMMA_GRID)
def test_w_at_most_quarter_where_pair_occupation_exceeds_two_over_eps(n, eps):
    # the lemma behind the expansion's enclosure: for eps*N >= 1 and
    # z <= 0, W_i(z) <= 1/4 on every level with m = N - i >= 2/eps
    from bogoflow.flow import g_check

    params = ModelParams(n_particles=n, epsilon=eps)
    for z in (0.0, solve_fixed_point(params).z_star):
        table = g_check(params, z)
        deep = n - table.levels >= 2.0 / eps  # none at N = 1024, eps = 1e-3
        assert table.w_products[deep].max(initial=0.0) <= 0.25


def test_expansion_at_n_1e12_holds_only_the_top_of_the_flow():
    # the coefficient buffer grows block by block, and the flow is read
    # from two short restarts: N/2 floats would be 4 TB here
    import tracemalloc

    params = ModelParams(n_particles=10**12, epsilon=0.01)
    tracemalloc.start()
    try:
        vec = expand_ground_state(params, bogoliubov_energy(params))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert vec.flow_span < 10**4
    assert 0.0 <= vec.tail_bound < 1e-12
    assert peak < 5e6
