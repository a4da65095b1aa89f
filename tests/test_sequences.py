import math

import numpy as np
import pytest

from bogoflow import (
    ModelParams,
    accessori_identity_check,
    x_sequence,
    xtilde_sequence,
    y_closed_form,
    y_star_sequence,
)
from bogoflow import sequences, verify
from bogoflow.sequences import rational_fixed_point, y_closed_recursion_residual


def test_x_starts_at_one_and_stays_in_unit_interval():
    p = ModelParams(n_particles=10**4, epsilon=0.01)
    seq = x_sequence(p)
    assert seq.values[0] == 1.0
    assert seq.first_nonpositive < 0
    assert np.all(seq.values > 0.0)
    assert np.all(seq.values <= 1.0)


def test_x_lower_bound_holds():
    for eps in (0.04, 0.01):
        seq = x_sequence(ModelParams(n_particles=10**5, epsilon=eps))
        assert seq.holds()


@pytest.mark.parametrize("eps", (0.04, 0.01))
def test_x_row_is_the_same_at_every_n(eps):
    # the step check reads eps alone, so one row covers every even N
    rows = [verify.check_x_bounds(ModelParams(n_particles=n, epsilon=eps)).as_dict() for n in (10**3, 10**7, 2**52)]
    assert rows[0]["passed"] and rows[0]["margin"] > 0.0
    assert rows == rows[:1] * 3


@pytest.mark.parametrize("eps", (0.04, 0.01))
def test_x_row_fails_once_l_is_raised_past_the_chains_fixed_point(eps, monkeypatch):
    # long chains settle at the fixed point y* of x = 1 - 1/(4(1+a)x), and
    # L tends to L_inf below it.  Raised by more than y* - L_inf, L is false
    # on long chains and the row must fail; raised by half as much, L still
    # holds and so does the row
    p = ModelParams(n_particles=10**5, epsilon=eps)
    a, _, _, sqrt_eta_a, _ = sequences.majorant_coefficients(p)
    gap = rational_fixed_point(a) - 0.5 * (1.0 + sqrt_eta_a)
    lower = sequences.majorant_lower_bound
    for fraction, holds in ((0.5, True), (1.5, False)):
        monkeypatch.setattr(sequences, "majorant_lower_bound", lambda *args: lower(*args) + fraction * gap)
        assert verify.check_x_bounds(p).passed is holds
        assert x_sequence(p).holds() is holds


def test_x_row_fails_on_a_nan_coefficient(monkeypatch):
    # a NaN coefficient makes every step margin NaN; the row keeps the NaN
    # as its margin instead of reading as a healthy bound
    p = ModelParams(n_particles=10**4, epsilon=0.04)
    coefs = sequences.majorant_coefficients(p)
    monkeypatch.setattr(sequences, "majorant_coefficients", lambda params: (math.nan, *coefs[1:]))
    result = verify.check_x_bounds(p)
    assert not result.passed and math.isnan(result.margin)


@pytest.mark.parametrize("eps", (1e-3, 3e-3, 0.01, 0.04, 0.1))
def test_the_chain_holds_wherever_the_step_check_passes(eps):
    assert verify.check_x_bounds(ModelParams(n_particles=2, epsilon=eps)).passed
    for n in (10**4, 10**6):
        seq = x_sequence(ModelParams(n_particles=n, epsilon=eps))
        assert seq.holds() and seq.first_nonpositive < 0


UNREACHED = {1e-4: "tail slack < 0", 0.3: "L(2) = -4.080e-01 <= 0", 0.5: "a step slack < 0"}


@pytest.mark.parametrize("eps", UNREACHED)
def test_the_step_check_is_sufficient_not_necessary(eps):
    # outside the check's reach the row fails and names why, while the
    # computed chains still lie above L
    row = verify.check_x_bounds(ModelParams(n_particles=2, epsilon=eps))
    assert not row.passed and row.margin < 0.0 and UNREACHED[eps] in row.details
    for n in (10**4, 10**6):
        seq = x_sequence(ModelParams(n_particles=n, epsilon=eps))
        assert seq.holds() and seq.first_nonpositive < 0


def test_x_exact_chain_at_eps_zero():
    # with vanishing coefficients and start value (1 - 1/N)/2 the chain
    # is exactly (1 - 1/(N - 2j))/2
    n = 1000
    levels = np.arange(0, n, 2, dtype=float)
    prev = n - levels[1:] + 1.0
    dfac = np.concatenate(([1.0], 1.0 - 1.0 / (prev * prev)))
    x = np.empty(levels.size)
    x[0] = 0.5 * (1.0 - 1.0 / n)
    for j in range(1, x.size):
        x[j] = 1.0 - 1.0 / (4.0 * dfac[j] * x[j - 1])
    expect = 0.5 * (1.0 - 1.0 / (n - levels))
    np.testing.assert_allclose(x, expect, rtol=1e-12)


def test_xtilde_initial_and_positive():
    p = ModelParams(n_particles=10**6, epsilon=0.01)
    seq = xtilde_sequence(p)
    assert seq.values[0] == 1.0
    assert seq.first_nonpositive < 0
    assert np.all(seq.values > 0.0)


def test_xtilde_upper_bound_holds_in_tail():
    for eps in (0.04, 0.01):
        seq = xtilde_sequence(ModelParams(n_particles=10**7, epsilon=eps))
        assert seq.holds()
        assert np.isfinite(seq.bound).sum() > 0


def test_xtilde_reduces_to_cut_coefficients_at_large_delta():
    # delta >= 2 removes b and c; the chain approaches the fixed point
    # of y = 1 - 1/(4 (1 + a_gamma) y)
    p = ModelParams(n_particles=10**6, epsilon=0.04)
    from bogoflow.model import b_coefficient, c_coefficient, coefficient_set

    assert b_coefficient(0.04, 2.0) == c_coefficient(0.04, 2.0) == 0.0
    # emulate the cut by building the chain directly with b = c = 0
    coefs = coefficient_set(p)
    a_g = coefs.a_gamma
    span = int((10**6) ** (2.0 / 3.0))
    span -= span % 2
    y = 1.0
    for _ in range(span // 2 - 1):
        y = 1.0 - 1.0 / (4.0 * (1.0 + a_g) * y)
    fp = rational_fixed_point(a_g)
    assert y == pytest.approx(fp, abs=1e-12)


def test_rational_fixed_point_solves_equation():
    for a in np.geomspace(1e-6, 1.0, 20):
        y = rational_fixed_point(float(a))
        assert y == pytest.approx(1.0 - 1.0 / (4.0 * (1.0 + a) * y), abs=5e-16)


def test_chain_contracts_geometrically():
    # successive distances to the fixed point shrink by 1/(1 + c sqrt(a))
    a = 2 * 0.01 + 0.01**2
    fp = rational_fixed_point(a)
    y = 1.0
    dists = []
    for _ in range(200):
        y = 1.0 - 1.0 / (4.0 * (1.0 + a) * y)
        dists.append(abs(y - fp))
    dists = np.array(dists)
    ratios = dists[1:40] / dists[:39]
    assert np.all(ratios < 1.0)
    c = (1.0 / ratios.max() - 1.0) / math.sqrt(0.01)
    assert c > 0.5  # measurable contraction rate


def test_y_closed_form_eps_zero_is_rational():
    for l in (1, 2, 5, 100, 10**6):
        val = y_closed_form(l, 0.0)
        expect = l / (2 * l + 1)
        assert abs(val - expect) <= math.ulp(expect)
    assert y_closed_form(1, 0.0) == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_y_closed_form_limit_value():
    # l -> infinity limit (1 + sqrt(a')/(1+eps))/2 at eps = 0.01
    val = y_closed_form(1e12, 0.01)
    assert val == pytest.approx(0.57018538058791, rel=1e-12)


def test_y_closed_solves_recursion_everywhere():
    l_grid = np.unique(np.geomspace(2, 1e6, 30).astype(np.int64)).astype(float)
    for eps in np.geomspace(1e-6, 0.5, 13):
        res = y_closed_recursion_residual(l_grid, float(eps))
        assert np.max(res) <= 1e-12


def test_accessori_identity_exact():
    m = np.unique(np.geomspace(3, 1e6, 50).astype(np.int64))
    for eps in (0.0, 0.01, 0.1):
        for delta in (0.0, 1.0, 1.3, 1.99):
            assert accessori_identity_check(eps, delta, m) <= 1e-13


def test_accessori_identity_eps_zero_both_sides():
    # at eps = 0 both sides reduce to 1 - 1/m^2, one rounding apart
    m = np.array([3.0, 10.0, 1e6])
    assert accessori_identity_check(0.0, 1.0, m) <= 2.3e-16


def test_accessori_cut_branch():
    # delta >= 2: product with the slope term removed, b = 0 on the right
    m = np.unique(np.geomspace(3, 1e5, 25).astype(np.int64))
    for eps in (0.0, 0.01, 0.1):
        assert accessori_identity_check(eps, 2.0, m) <= 1e-13


def test_accessori_rejects_small_m():
    with pytest.raises(ValueError):
        accessori_identity_check(0.01, 1.0, np.array([2.0]))


def _inline_ystar_rows(seq, eps):
    # the rows the sequences mode wrote with its own loop before y* was a
    # SequenceWithBound: the closed form per entry, as scalars
    lines = ["index,value,bound,margin"]
    for two_l, val in zip(seq.levels, seq.values):
        closed = y_closed_form(two_l / 2.0, eps)
        lines.append(f"{int(two_l)},{float(val)!r},{float(closed)!r},{float(val - closed)!r}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", (64, 4096, 10**5, 10**6))
@pytest.mark.parametrize("eps", (0.5, 0.04, 0.01, 1e-4))
def test_y_star_csv_equals_the_inline_rows(tmp_path, n, eps):
    seq = y_star_sequence(ModelParams(n_particles=n, epsilon=eps), 2.0 / 3.0)
    path = tmp_path / "ystar.csv"
    seq.to_csv(path)
    assert path.read_text() == _inline_ystar_rows(seq, eps)


def test_sequence_csv_export(tmp_path):
    p = ModelParams(n_particles=64, epsilon=0.04)
    seq = x_sequence(p)
    path = tmp_path / "x.csv"
    seq.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "index,value,bound,margin"
    assert len(lines) == 1 + seq.values.size
