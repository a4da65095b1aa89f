import math

import numpy as np
import pytest

from bogoflow import (
    FlowDomainError,
    ModelParams,
    bogoliubov_energy,
    build_sector_hamiltonian,
    f_of_z,
    g_check,
    g_truncated,
    lowest_eigenpair,
    schur_complement,
    w_product,
    y_star_sequence,
)


def test_w_product_decays_far_below_spectrum():
    p = ModelParams(n_particles=64, epsilon=0.1)
    vals = [w_product(p, 10, z) for z in (-1e2, -1e4, -1e6)]
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 1e-10


def test_w_product_matches_matrix_elements():
    # level i maps to pair index k = (N - i)/2:
    # W_i(z) = t_k^2 / ((d_k - z)(d_{k+1} - z))
    p = ModelParams(n_particles=4, epsilon=0.01)
    tri = build_sector_hamiltonian(p)
    z = bogoliubov_energy(p)
    d, t = tri.diag, tri.offdiag
    w = w_product(p, 2, z)  # i=2 -> k=1
    expect = t[1] ** 2 / ((d[1] - z) * (d[2] - z))
    assert w == pytest.approx(expect, rel=1e-13)


def test_w_product_matrix_identity_on_z_grid():
    p = ModelParams(n_particles=64, epsilon=0.05)
    tri = build_sector_hamiltonian(p)
    d, t = tri.diag, tri.offdiag
    for z in np.linspace(-3.0, -0.7, 7):
        for i in (2, 10, 32, 62):
            k = (64 - i) // 2
            expect = t[k] ** 2 / ((d[k] - z) * (d[k + 1] - z))
            assert w_product(p, i, float(z)) == pytest.approx(expect, rel=1e-13)


def test_final_prefactor_equals_first_coupling():
    # (1 - 1/N) phi^2 / (phi(2 eps + 2 - 4/N) - z) == t_0^2 / (d_1 - z)
    p = ModelParams(n_particles=32, epsilon=0.07, phi=1.3)
    tri = build_sector_hamiltonian(p)
    for z in np.linspace(-5.0, -0.5, 9):
        lhs = (1 - 1 / 32) * 1.3**2 / (1.3 * (2 * 0.07 + 2 - 4 / 32) - z)
        rhs = tri.offdiag[0] ** 2 / (tri.diag[1] - z)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_w_product_level_validation():
    p = ModelParams(n_particles=8, epsilon=0.1)
    with pytest.raises(ValueError):
        w_product(p, 3, -1.0)
    with pytest.raises(ValueError):
        w_product(p, 0, -1.0)
    with pytest.raises(ValueError):
        w_product(p, 8, -1.0)


def test_pole_floor_raises():
    # z sitting exactly on a shell resolvent pole trips the guard
    p = ModelParams(n_particles=16, epsilon=0.1)
    tri = build_sector_hamiltonian(p)
    with pytest.raises(FlowDomainError):
        g_check(p, float(tri.diag[1]))


@pytest.mark.parametrize("n", (4, 1024, 2 * 10**5))
def test_w_products_match_two_resolvent_formula_bitwise(n):
    # W_i with both resolvents written out at level i; the code takes the
    # second one from level i-2 and the z-free parts from level_coefficients
    from bogoflow.flow import _w_product_arrays, level_coefficients

    params = ModelParams(n_particles=n, epsilon=0.01)
    phi, k2 = params.phi, params.kinetic
    z_star = bogoliubov_energy(params)
    for start in sorted({0, (n // 4) * 2, n - 2}):
        i = start + 2.0 * np.arange((n - start) // 2)
        m = n - i
        num = (i - 1.0) * i / (float(n) * float(n)) * phi * phi * (0.5 * m + 1.0) ** 2
        coefficients = level_coefficients(params, start)
        for z in (z_star, z_star - 1.0):
            den1 = (i * phi / n + k2) * m - z
            den2 = ((i - 2.0) * phi / n + k2) * (m + 2.0) - z
            expected = np.zeros(i.size)
            expected[1:] = num[1:] / (den1[1:] * den2[1:])
            for given in (None, coefficients):
                w, w_num, w_den1 = _w_product_arrays(params, z, start, given)
                np.testing.assert_array_equal(w, expected)
                np.testing.assert_array_equal(w_num, num)
                np.testing.assert_array_equal(w_den1, den1)
        if i.size > 1:
            # a pole at the start level enters only as a second resolvent
            for pole in (coefficients[1][0], coefficients[1][-1]):
                with pytest.raises(FlowDomainError):
                    _w_product_arrays(params, float(pole), start, coefficients)


def test_g_check_start_level_validation():
    p = ModelParams(n_particles=16, epsilon=0.1)
    with pytest.raises(ValueError):
        g_check(p, -1.0, start_level=3)
    with pytest.raises(ValueError):
        g_check(p, -1.0, start_level=16)


def test_g_check_start_value_and_no_interaction():
    p = ModelParams(n_particles=16, epsilon=0.1)
    table = g_check(p, -2.0)
    assert table.g_values[0] == 1.0
    # vanishing interaction: every factor is a geometric series of zero
    p0 = ModelParams(n_particles=16, epsilon=0.1, phi=0.0)
    table0 = g_check(p0, -2.0)
    np.testing.assert_array_equal(table0.g_values, np.ones(8))
    assert table0.valid


def test_g_check_certified_subspectral_point():
    p = ModelParams(n_particles=4, epsilon=0.01)
    lam0 = lowest_eigenpair(build_sector_hamiltonian(p)).value
    table = g_check(p, lam0 - 0.01)
    assert table.valid
    assert np.all(table.g_values >= 1.0)
    assert np.all(table.g_values <= 2.0)


def test_g_values_at_least_one_when_valid():
    for eps in (0.5, 0.01):
        p = ModelParams(n_particles=256, epsilon=eps)
        lam0 = lowest_eigenpair(build_sector_hamiltonian(p)).value
        table = g_check(p, lam0 - 1e-6)
        assert table.valid
        assert np.all(table.g_values >= 1.0)


def test_g_check_invalid_above_spectrum():
    # far above the ground energy some shell's series must diverge
    p = ModelParams(n_particles=64, epsilon=0.1)
    table = g_check(p, 5.0)
    assert not table.valid
    assert table.invalid_level >= 2


def test_f_of_z_asymptotic_dominance():
    p = ModelParams(n_particles=128, epsilon=0.1)
    z = -1e3
    f = f_of_z(p, z)
    assert f > 0.0
    assert abs(f - (-z)) <= 2.0 / abs(z)


def test_f_of_z_vanishes_at_oracle_ground_energy():
    p = ModelParams(n_particles=128, epsilon=0.01)
    lam0 = lowest_eigenpair(build_sector_hamiltonian(p)).value
    assert abs(f_of_z(p, lam0)) <= 1e-10


def test_f_slope_at_most_minus_one():
    p = ModelParams(n_particles=128, epsilon=0.01)
    win_lo = bogoliubov_energy(p) - 3.0
    win_hi = bogoliubov_energy(p) - 1e-3
    h = 1e-6
    for z in np.linspace(win_lo, win_hi, 12):
        slope = (f_of_z(p, z + h) - f_of_z(p, z)) / h
        assert slope <= -1.0 + 1e-9


def test_f_raises_when_invalid():
    p = ModelParams(n_particles=64, epsilon=0.1)
    with pytest.raises(FlowDomainError):
        f_of_z(p, 5.0)


def test_continued_fraction_equivalence_direct():
    # the central identity: f equals the matrix Schur complement
    for n, eps in ((16, 0.5), (128, 0.01), (1024, 0.001), (10**5, 0.01)):
        p = ModelParams(n_particles=n, epsilon=eps)
        tri = build_sector_hamiltonian(p)
        lam0 = lowest_eigenpair(tri).value
        for dz in np.geomspace(0.01, 2.0, 8):
            z = lam0 - dz
            f_flow = f_of_z(p, z)
            f_direct = schur_complement(tri, z)
            assert abs(f_flow - f_direct) <= 1e-12 * abs(f_direct)


def test_w_products_below_shell_estimate():
    # every coupling product at the window edge sits below the shell
    # estimate 1/(4(1 + a - 2 b/(N-i+1) - (1-c)/(N-i+1)^2))
    from bogoflow.verify import check_w_bound

    for n, eps in ((1024, 0.01), (4096, 0.04)):
        assert check_w_bound(ModelParams(n_particles=n, epsilon=eps)).passed


def test_g_dominates_reciprocal_minorant_chain():
    from bogoflow.verify import check_g_lower_bound_link

    res = check_g_lower_bound_link(ModelParams(n_particles=10**6, epsilon=0.01))
    assert res.passed


def test_g_monotone_in_z_per_level():
    p = ModelParams(n_particles=128, epsilon=0.05)
    lam0 = lowest_eigenpair(build_sector_hamiltonian(p)).value
    zs = lam0 - np.geomspace(1e-3, 2.0, 6)[::-1]
    prev = None
    for z in zs:
        g = g_check(p, float(z)).g_values
        if prev is not None:
            assert np.all(g - prev >= -1e-12)
        prev = g


def test_g_truncated_equals_full_at_beta_zero_limit():
    # beta below float resolution realizes the beta -> 0+ limit: the
    # restart level is 0 and the full recursion is reproduced exactly
    p = ModelParams(n_particles=64, epsilon=0.04)
    z = bogoliubov_energy(p)
    full = g_check(p, z).g_values[-1]
    assert g_truncated(p, z, 1e-18) == full


def test_g_truncated_geometric_suppression():
    p = ModelParams(n_particles=10**4, epsilon=0.04)
    z = bogoliubov_energy(p)
    full = g_check(p, z).g_values[-1]
    assert abs(full - g_truncated(p, z, 0.5)) <= 1e-8
    # a 10-level window leaves a visible deviation
    assert abs(full - g_truncated(p, z, 0.75)) > 1e-4


def test_g_truncated_rejects_tiny_window():
    p = ModelParams(n_particles=10**4, epsilon=0.04)
    with pytest.raises(ValueError):
        g_truncated(p, bogoliubov_energy(p), 0.9)  # span 2.5 < 4


def test_y_star_initial_value_and_range():
    p = ModelParams(n_particles=10**4, epsilon=0.01)
    seq = y_star_sequence(p, 0.5)
    assert seq.values[0] == 1.0
    assert seq.two_l[0] == 102  # floor(N^{1/2}) = 100, start at 102
    assert seq.two_l[-1] == 2
    assert seq.positive


def test_y_star_exact_chain_at_eps_zero():
    # with vanishing coefficients and the closed-form start value the
    # chain reproduces l/(2l+1) exactly (the eps -> 0 closed form)
    span = 40
    dfac = np.empty(span // 2 + 1)
    y = np.empty_like(dfac)
    two_l = np.arange(span + 2, 0, -2, dtype=float)
    l0 = two_l[0] / 2.0
    y[0] = l0 / (2.0 * l0 + 1.0)
    dfac[0] = 1.0
    upper = two_l[:-1]
    dfac[1:] = 1.0 - 1.0 / (upper * upper)
    for j in range(1, y.size):
        y[j] = 1.0 - 1.0 / (4.0 * dfac[j] * y[j - 1])
    expect = (two_l / 2.0) / (two_l + 1.0)
    np.testing.assert_allclose(y, expect, rtol=1e-13)


def test_y_star_terminal_tracks_reciprocal_flow():
    # terminal entry approximates 1/G at the closed-form energy with
    # error O(1/(sqrt(eps) N^beta)); constant frozen from measurement
    p = ModelParams(n_particles=10**6, epsilon=0.01)
    z = bogoliubov_energy(p)
    seq = y_star_sequence(p, 2.0 / 3.0)
    g_full = g_check(p, z).g_values[-1]
    scale = (10**6) ** (-2.0 / 3.0) / math.sqrt(0.01)
    assert abs(seq.values[-1] - 1.0 / g_full) <= 2e-2 * scale


def test_flow_table_csv_roundtrip(tmp_path):
    p = ModelParams(n_particles=8, epsilon=0.1)
    table = g_check(p, -2.0)
    path = tmp_path / "flow.csv"
    table.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "i,w_product,g_value"
    assert len(lines) == 1 + table.g_values.size
