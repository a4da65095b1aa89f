import math

import numpy as np
import pytest

from bogoflow import (
    ModelParams,
    bogoliubov_energy,
    check_assumptions,
    coefficient_set,
    solve_fixed_point,
    spectral_window,
)
from bogoflow.model import b_coefficient, c_coefficient, window_delta


def test_params_reject_odd_n():
    with pytest.raises(ValueError, match="even"):
        ModelParams(n_particles=3, epsilon=0.1)


def test_params_reject_n_beyond_exact_level_arithmetic():
    ModelParams(n_particles=2**52, epsilon=0.1)
    with pytest.raises(ValueError, match=r"at most 2\*\*52: level arithmetic i - 2, m \+ 2"):
        ModelParams(n_particles=2**52 + 2, epsilon=0.1)


def test_params_reject_bad_values():
    with pytest.raises(ValueError):
        ModelParams(n_particles=0, epsilon=0.1)
    with pytest.raises(ValueError):
        ModelParams(n_particles=4, epsilon=-0.1)
    with pytest.raises(ValueError):
        ModelParams(n_particles=4, epsilon=0.1, phi=-1.0)
    with pytest.raises(ValueError):
        ModelParams(n_particles=4, epsilon=0.1, delta0=0.0)


@pytest.mark.parametrize(
    "n, eps, phi, reason",
    [
        (1024, 1e300, 1e6, r"N \* phi \* \(1 \+ epsilon\) must be finite"),
        (1024, 0.01, 1e160, r"\(phi \* N\)\^2 must be finite"),
        (1024, 0.01, 1e-160, r"phi\^2 must be at least 2.2250738585072014e-308"),
        (1024, 0.01, 1e-200, r"phi\^2 must be at least 2.2250738585072014e-308"),
    ],
)
def test_params_reject_arithmetic_that_leaves_binary64(n, eps, phi, reason):
    # each of these overflowed or underflowed inside the solve: NaN arrays,
    # a failed bracket, or an oracle lambda0 450x off without an error
    with pytest.raises(ValueError, match=reason):
        ModelParams(n_particles=n, epsilon=eps, phi=phi)


@pytest.mark.parametrize(
    "n, eps, phi", [(4, 4e307, 1.0), (65536, 1e300, 1.0), (1024, 0.01, 1e150), (1024, 0.01, 2.0**-500)]
)
def test_params_at_the_edges_of_binary64_still_solve(n, eps, phi):
    # a RuntimeWarning fails the suite, so these solve with none
    params = ModelParams(n_particles=n, epsilon=eps, phi=phi)
    assert math.isfinite(solve_fixed_point(params).z_star)


def test_bogoliubov_energy_limit_case():
    # epsilon -> 0 gives exactly -phi; realized with a tiny epsilon
    p = ModelParams(n_particles=4, epsilon=1e-300, phi=1.0)
    assert bogoliubov_energy(p) == -1.0


def test_bogoliubov_energy_frozen_values():
    # high-precision evaluations of -(eps + 1 - sqrt(eps^2 + 2 eps))
    p = ModelParams(n_particles=4, epsilon=0.01)
    assert bogoliubov_energy(p) == pytest.approx(-0.8682255312124217, rel=1e-15)
    p = ModelParams(n_particles=4, epsilon=100.0)
    assert bogoliubov_energy(p) == pytest.approx(-0.004950616379220466, rel=1e-15)


def test_bogoliubov_energy_asymptotes():
    # small-eps expansion -1 + sqrt(2 eps) + O(eps)
    e = bogoliubov_energy(ModelParams(n_particles=4, epsilon=0.01))
    assert abs(e - (-1.0 + math.sqrt(0.02))) < 0.011
    # large-eps asymptote -1/(2 eps)
    e = bogoliubov_energy(ModelParams(n_particles=4, epsilon=100.0))
    assert abs(e - (-1.0 / 200.0)) < 1e-4


def test_bogoliubov_energy_monotone_in_epsilon():
    grid = np.geomspace(1e-4, 10.0, 60)
    vals = [bogoliubov_energy(ModelParams(n_particles=4, epsilon=float(e))) for e in grid]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_coefficient_set_vanishes_with_interaction():
    # all coefficients vanish in the eps -> 0 limit, where the window
    # delta 1 + sqrt(eps) rounds to 1
    assert b_coefficient(0.0, 1.0) == 0.0
    assert c_coefficient(0.0, 1.0) == 0.0
    assert window_delta(1e-300) == 1.0
    coefs = coefficient_set(ModelParams(n_particles=10**9, epsilon=1e-300))
    assert coefs.a_prime <= 1e-299
    assert coefs.b_delta <= 1e-149
    assert coefs.c_delta == 0.0


def test_coefficient_set_characteristic_cut():
    assert b_coefficient(0.3, 1.99) > 0.0 and c_coefficient(0.3, 1.99) > 0.0
    # the delta window closes at 2 regardless of epsilon
    assert b_coefficient(0.3, 2.0) == 0.0
    assert c_coefficient(0.3, 2.0) == 0.0


def test_coefficient_set_frozen_point():
    coefs = coefficient_set(ModelParams(n_particles=1024, epsilon=0.01))
    assert coefs.a_prime == pytest.approx(0.0201, rel=1e-15)
    assert b_coefficient(0.01, 1.0) == pytest.approx(0.14319221347545403, rel=1e-14)
    assert c_coefficient(0.01, 1.0) == 0.0
    # b and c of the set sit at the window delta 1 + sqrt(eps)
    assert coefs.b_delta == b_coefficient(0.01, window_delta(0.01))
    assert coefs.c_delta == c_coefficient(0.01, window_delta(0.01))


def test_coefficient_identities():
    for eps in np.geomspace(1e-8, 1.0, 25):
        a = eps * eps + 2.0 * eps
        assert (1.0 + a) == pytest.approx((1.0 + eps) ** 2, rel=1e-15)
        assert math.sqrt(1.0 + a) == pytest.approx(1.0 + eps, rel=1e-15)


def test_coefficient_signs():
    for delta in (0.0, 0.5, 1.0, 1.5, 1.99):
        b, c = b_coefficient(0.04, delta), c_coefficient(0.04, delta)
        assert b >= 0.0
        if delta < 1.0:
            assert c < 0.0 or delta == 0.0 and c <= 0.0
        elif delta > 1.0:
            assert c > 0.0


def test_check_assumptions_nu_condition():
    good = check_assumptions(ModelParams(n_particles=10**6, epsilon=0.01))
    assert good.nu_ok  # 1e-6 <= 1e-3
    bad = check_assumptions(ModelParams(n_particles=100, epsilon=0.001))
    assert not bad.nu_ok  # 0.01 > 3.16e-5


def test_check_assumptions_at_an_epsilon_whose_power_overflows():
    # eps**1.5 overflows a float above eps ~ 1e205: the right side reads
    # inf there and stays the power wherever that is finite
    report = check_assumptions(ModelParams(n_particles=4, epsilon=1e300))
    assert report.nu_ok
    assert report.details["nu"] == (0.25, math.inf, True)
    finite = check_assumptions(ModelParams(n_particles=4, epsilon=1e200))
    assert finite.details["nu"][1] == 1e200**1.5


def test_spectral_window_frozen_value():
    p = ModelParams(n_particles=1024, epsilon=0.01)
    win = spectral_window(p)
    assert win.z_max == pytest.approx(-0.8540480843336639, rel=1e-14)
    assert win.z_min == pytest.approx(bogoliubov_energy(p) - 10.0, rel=1e-14)


def test_spectral_window_top_at_the_fixed_delta():
    # delta = 1 + sqrt(eps) at every point; the top lies above E by
    # (delta - 1) * phi * sqrt(eps^2 + 2 eps)
    for eps in (1e-6, 0.01, 0.5, 50.0):
        p = ModelParams(n_particles=1024, epsilon=eps, phi=2.0)
        delta = window_delta(eps)
        assert delta == 1.0 + math.sqrt(eps)
        top = bogoliubov_energy(p) + (delta - 1.0) * p.phi * math.sqrt(eps * (eps + 2.0))
        assert spectral_window(p).z_max == top > bogoliubov_energy(p)
