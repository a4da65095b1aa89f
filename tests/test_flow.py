import math

import numpy as np
import pytest

from bogoflow import (
    FlowDomainError,
    ModelParams,
    bogoliubov_energy,
    build_sector_hamiltonian,
    expand_ground_state,
    f_of_z,
    g_check,
    g_truncated,
    lowest_eigenpair,
    schur_complement,
    solve_fixed_point,
    y_star_sequence,
)


def test_w_product_decays_far_below_spectrum():
    p = ModelParams(n_particles=64, epsilon=0.1)
    vals = [g_check(p, z).w_products[5] for z in (-1e2, -1e4, -1e6)]  # level 10
    assert vals[0] > vals[1] > vals[2] > 0.0
    assert vals[2] < 1e-10


def test_w_product_matches_matrix_elements():
    # level i maps to pair index k = (N - i)/2:
    # W_i(z) = t_k^2 / ((d_k - z)(d_{k+1} - z))
    p = ModelParams(n_particles=4, epsilon=0.01)
    tri = build_sector_hamiltonian(p)
    z = bogoliubov_energy(p)
    d, t = tri.diag, tri.offdiag
    w = g_check(p, z).w_products[1]  # i=2 -> k=1
    expect = t[1] ** 2 / ((d[1] - z) * (d[2] - z))
    assert w == pytest.approx(expect, rel=1e-13)


def test_w_product_matrix_identity_on_z_grid():
    p = ModelParams(n_particles=64, epsilon=0.05)
    tri = build_sector_hamiltonian(p)
    d, t = tri.diag, tri.offdiag
    for z in np.linspace(-3.0, -0.7, 7):
        w = g_check(p, float(z)).w_products
        for i in (2, 10, 32, 62):
            k = (64 - i) // 2
            expect = t[k] ** 2 / ((d[k] - z) * (d[k + 1] - z))
            assert w[i // 2] == pytest.approx(expect, rel=1e-13)


def test_final_prefactor_equals_first_coupling():
    # (1 - 1/N) phi^2 / (phi(2 eps + 2 - 4/N) - z) == t_0^2 / (d_1 - z)
    p = ModelParams(n_particles=32, epsilon=0.07, phi=1.3)
    tri = build_sector_hamiltonian(p)
    for z in np.linspace(-5.0, -0.5, 9):
        lhs = (1 - 1 / 32) * 1.3**2 / (1.3 * (2 * 0.07 + 2 - 4 / 32) - z)
        rhs = tri.offdiag[0] ** 2 / (tri.diag[1] - z)
        assert lhs == pytest.approx(rhs, rel=1e-14)


def test_a_resolvent_pole_marks_the_flow_invalid():
    # z on a shell resolvent pole fails the validity rule instead of
    # raising: the first level in pass order (i = N - 2k) whose d_k - z is
    # <= 0 is invalid, here level 0 (d_8 = 1.6 < z = d_1 = 1.95), and at
    # z = d_8 the pole itself sits at level 0
    p = ModelParams(n_particles=16, epsilon=0.1)
    tri = build_sector_hamiltonian(p)
    for k in (1, 8):
        z = float(tri.diag[k])
        table = g_check(p, z)
        first_pole = 16 - 2 * int(np.flatnonzero(tri.diag - z <= 0.0)[-1])
        assert not table.valid and table.invalid_level == first_pole == 0
        with pytest.raises(FlowDomainError):
            f_of_z(p, z)


@pytest.mark.parametrize("n", (4, 1024, 2 * 10**5))
def test_w_products_match_two_resolvent_formula_bitwise(n):
    # W_i with both resolvents written out at level i; the code takes the
    # second one from level i-2 and the z-free parts from _coefficients_at
    from bogoflow.flow import _coefficients_at, _w_product_arrays

    params = ModelParams(n_particles=n, epsilon=0.01)
    phi, k2 = params.phi, params.kinetic
    z_star = bogoliubov_energy(params)
    for start in sorted({0, (n // 4) * 2, n - 2}):
        i = start + 2.0 * np.arange((n - start) // 2)
        m = n - i
        num = (i - 1.0) * i / (float(n) * float(n)) * phi * phi * (0.5 * m + 1.0) ** 2
        coefficients = _coefficients_at(params, start)
        for z in (z_star, z_star - 1.0):
            den1 = (i * phi / n + k2) * m - z
            den2 = ((i - 2.0) * phi / n + k2) * (m + 2.0) - z
            expected = np.zeros(i.size)
            expected[1:] = num[1:] / (den1[1:] * den2[1:])
            w, w_num, w_den1 = _w_product_arrays(z, coefficients)
            np.testing.assert_array_equal(w, expected)
            np.testing.assert_array_equal(w_num, num)
            np.testing.assert_array_equal(w_den1, den1)
        if i.size > 1:
            # a pole at the start level enters only as a second resolvent
            for pole in (coefficients[1][0], coefficients[1][-1]):
                assert not g_check(params, float(pole), start).valid


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


def test_g_check_invalid_above_every_resolvent():
    # both resolvents of every W are negative, so W > 0 and each series
    # sum holds; the resolvent test alone fails the flow, from level 0
    p = ModelParams(n_particles=64, epsilon=0.1)
    assert float(build_sector_hamiltonian(p).diag.max()) < 50.0
    table = g_check(p, 50.0)
    assert not table.valid and table.invalid_level == 0


@pytest.mark.parametrize(
    "phi, z",
    [(1.0, math.nan), (1.0, 1.0 * (2 * 0.1 + 2 - 4 / 64)), (0.0, 0.0)],
    ids=["nan", "final-resolvent-pole", "phi0-every-resolvent-zero"],
)
def test_g_check_invalid_without_raising(phi, z):
    # a NaN z fails the resolvent test at level 0; at the level N-2 pole
    # f's own denominator is zero, and at phi = 0, z = 0 every W is 0/0
    p = ModelParams(n_particles=64, epsilon=0.1, phi=phi)
    table = g_check(p, z)
    assert not table.valid and math.isnan(table.f_value) and math.isnan(table.f_slope)
    with pytest.raises(FlowDomainError):
        f_of_z(p, z)


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


@pytest.mark.parametrize("n", (2, 128, 4096))
def test_f_of_z_is_the_f_value_of_g_check(n):
    # f_of_z skips the amplitude chain of g_check's slope; f is the same
    # float, and an invalid flow names the same level
    p = ModelParams(n_particles=n, epsilon=0.01)
    for z in bogoliubov_energy(p) - np.geomspace(1e-3, 3.0, 9):
        assert f_of_z(p, z) == g_check(p, z).f_value
    z = float(build_sector_hamiltonian(p).diag[1])
    with pytest.raises(FlowDomainError, match=f"at level {g_check(p, z).invalid_level}$"):
        f_of_z(p, z)


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


def _link_window_top(p):
    # the z at which the check reads G
    from bogoflow.model import window_delta

    eps = p.epsilon
    return bogoliubov_energy(p) + (window_delta(eps) - 1.0) * p.phi * math.sqrt(eps * (eps + 2.0))


def _link_row_from_full_table(p):
    # the check's row built from one full g_check table
    from bogoflow import sequences, verify

    table = g_check(p, _link_window_top(p))
    seq = sequences.xtilde_sequence(p)
    recip = 1.0 / seq.values
    worst = float(
        (table.g_values[seq.levels // 2] - recip + sequences.BOUND_SLACK * (1.0 + np.abs(recip))).min()
    )
    return verify.PropertyResult(
        name="g_lower_bound_link",
        passed=bool(np.all(seq.values > 0.0)) and worst >= 0.0 and table.valid,
        margin=worst,
        details=f"min G - 1/xtilde = {worst:.3e} on {seq.values.size} levels",
    ).as_dict()


def test_streamed_lower_bound_link_matches_full_table():
    # the check keeps G on the minorant chain's levels only, from the
    # enclosure; its row equals the one built from a full g_check
    from bogoflow import verify

    p = ModelParams(n_particles=2 * 10**5, epsilon=0.01)
    expected = _link_row_from_full_table(p)
    assert expected["passed"]
    assert verify.check_g_lower_bound_link(p).as_dict() == expected


def _full_pass_link_row(monkeypatch, params):
    # the reference: the check on the full flow pass, which the enclosure
    # reads once its first restart span reaches N
    from bogoflow import flow, verify

    with monkeypatch.context() as m:
        m.setattr(flow, "_first_span", lambda params, count: params.n_particles)
        return verify.check_g_lower_bound_link(params).as_dict()


def _no_full_pass(*args):
    raise AssertionError("the check ran an O(N) flow pass")


@pytest.mark.parametrize("eps", [0.04, 0.01])
@pytest.mark.parametrize("n", [2 * 10**5, 10**6, 10**7])
def test_lower_bound_link_reads_the_enclosure(monkeypatch, n, eps):
    # the two restarts agree bit for bit on every level of the minorant
    # chain, which pins the full pass there: the row equals the full
    # pass's, and no O(N) pass runs
    from bogoflow import flow, verify

    p = ModelParams(n_particles=n, epsilon=eps)
    expected = _full_pass_link_row(monkeypatch, p)
    monkeypatch.setattr(flow, "g_check", _no_full_pass)
    assert verify.check_g_lower_bound_link(p).as_dict() == expected


def _restart_spans(monkeypatch):
    # the span N - R of every flow span run from a level R, twice its
    # level count, in call order; a restart pair appends its span twice
    from bogoflow import flow

    spans = []
    span = flow._flow_span

    def recorded(z, coefficients, pivot):
        spans.append(2 * coefficients[0].size)
        return span(z, coefficients, pivot)

    monkeypatch.setattr(flow, "_flow_span", recorded)
    return spans


def test_lower_bound_link_short_span_doubles_to_same_row(monkeypatch):
    # a 4-level first span covers none of the chain's 1709 levels; flow
    # doubles the span until the restarts agree on all of them
    from bogoflow import flow, verify

    p = ModelParams(n_particles=2 * 10**5, epsilon=0.01)
    expected = _full_pass_link_row(monkeypatch, p)
    spans = _restart_spans(monkeypatch)
    monkeypatch.setattr(flow, "_first_span", lambda params, count: 4)
    monkeypatch.setattr(flow, "g_check", _no_full_pass)
    assert verify.check_g_lower_bound_link(p).as_dict() == expected
    assert spans[::2] == spans[1::2] == [4 << j for j in range(len(spans) // 2)]
    assert 2 * 1709 < spans[-1] < p.n_particles


@pytest.mark.parametrize("eps", [0.5, 0.01, 1e-4])
@pytest.mark.parametrize("n", [2 * 10**5, 10**6])
def test_enclosure_is_the_top_of_the_full_pass(n, eps):
    # g holds at least count levels, and equals the full pass's top
    # g.size levels bit for bit
    from bogoflow import flow

    params = ModelParams(n_particles=n, epsilon=eps)
    z = solve_fixed_point(params).z_star
    full = g_check(params, z).g_values
    for count in (1, flow.CHAIN_BLOCK, 5000):
        g, span = flow.enclosure(params, z, count)
        assert count <= g.size <= span // 2 < n // 2
        np.testing.assert_array_equal(g, full[-g.size :])


@pytest.mark.parametrize("eps", [0.005, 0.05])
@pytest.mark.parametrize("n", [2 * 10**5, 4 * 10**5])
def test_expansion_runs_one_restart_pair(monkeypatch, n, eps):
    # on the root benchmark's grid the expansion's one enclosure call
    # accepts its first span: one restart pair, no doubling
    from bogoflow import flow

    params = ModelParams(n_particles=n, epsilon=eps)
    z = solve_fixed_point(params).z_star
    spans = _restart_spans(monkeypatch)
    vec = expand_ground_state(params, z)
    assert spans == [vec.flow_span] * 2
    assert vec.flow_span == flow._first_span(params, flow.CHAIN_BLOCK)


@pytest.mark.parametrize("eps", [0.04, 0.01])
def test_lower_bound_link_runs_one_restart_pair_at_ten_million(monkeypatch, eps):
    # the verify battery's N = 1e7 points: one enclosure call, whose first
    # span covers the whole minorant chain
    from bogoflow import flow, sequences, verify

    p = ModelParams(n_particles=10**7, epsilon=eps)
    count = sequences.xtilde_sequence(p).values.size
    spans = _restart_spans(monkeypatch)
    monkeypatch.setattr(flow, "g_check", _no_full_pass)
    assert verify.check_g_lower_bound_link(p).passed
    assert spans == [flow._first_span(p, count)] * 2


@pytest.mark.parametrize(
    "n, eps",
    [
        pytest.param(2 * 10**5, 1e-6, id="eps-N-below-1"),
        pytest.param(2 * 10**5, 0.5, id="z-positive"),  # the window top z = +0.409
    ],
)
def test_lower_bound_link_streams_where_the_enclosure_does_not_apply(monkeypatch, n, eps):
    # the restarts do not apply: the enclosure reads one full g_check pass
    from bogoflow import flow, verify

    p = ModelParams(n_particles=n, epsilon=eps)
    z = _link_window_top(p)
    assert eps * n < 1.0 or z >= 0.0
    expected = _link_row_from_full_table(p)
    passes = []
    full = flow.g_check
    monkeypatch.setattr(flow, "g_check", lambda *args: passes.append(args[1:]) or full(*args))
    assert verify.check_g_lower_bound_link(p).as_dict() == expected
    assert passes == [(z,)]


@pytest.mark.parametrize(
    "n, eps, z",
    [
        pytest.param(2 * 10**5, 1e-6, None, id="eps-N-below-1"),
        pytest.param(4000, 0.01, None, id="span-reaches-N"),
        pytest.param(2 * 10**5, 0.5, 0.0, id="z-zero"),  # the flow is valid at z = 0 here
    ],
)
def test_enclosure_reads_the_full_pass_where_the_restarts_do_not_apply(n, eps, z):
    from bogoflow import flow

    params = ModelParams(n_particles=n, epsilon=eps)
    if z is None:
        z = solve_fixed_point(params).z_star
    g, span = flow.enclosure(params, z, flow.CHAIN_BLOCK)
    assert span == n
    np.testing.assert_array_equal(g, g_check(params, z).g_values)


def test_enclosure_raises_where_the_full_pass_is_invalid():
    from bogoflow import flow

    with pytest.raises(FlowDomainError, match="z=0.0"):
        flow.enclosure(ModelParams(n_particles=2 * 10**5, epsilon=0.01), 0.0, 1)


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
    assert seq.levels[0] == 102  # floor(N^{1/2}) = 100, start at 102
    assert seq.levels[-1] == 2
    assert seq.first_nonpositive < 0


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
