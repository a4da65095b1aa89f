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
from bogoflow.sequences import (
    StreamedSequenceSummary,
    rational_fixed_point,
    x_sequence_blocks,
    y_closed_recursion_residual,
)


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


def test_streaming_terminal_matches_materialized():
    from bogoflow.sequences import x_sequence_terminal

    p = ModelParams(n_particles=10**4, epsilon=0.04)
    seq = x_sequence(p)
    summary = x_sequence_terminal(p)
    assert summary.terminal == seq.values[-1]
    assert summary.min_margin == pytest.approx(float(seq.margin.min()), rel=1e-12)
    assert summary.first_nonpositive == seq.first_nonpositive


@pytest.mark.parametrize("b", (0.3565, 100.0))
def test_streaming_blocks_match_one_pass(b, monkeypatch):
    # a chain of 5000 steps in blocks of 700: each block resumes the pivot
    # chain from the carried value, so the terminal value, the offset of
    # first_bad (step 3813 at b = 100) and the running margin, past a
    # failure too, equal those of the default blocking bit for bit.
    args = (10**4, 0.0804, b, 0.0172, 0.2698, 0.4472)
    whole = StreamedSequenceSummary.of(x_sequence_blocks(*args))
    monkeypatch.setattr(sequences, "STREAM_BLOCK", 700)
    blocked = StreamedSequenceSummary.of(x_sequence_blocks(*args))
    assert blocked == whole
    assert whole.first_nonpositive == (3813 if b == 100.0 else -1)


@pytest.mark.parametrize("block_length", (700, sequences.STREAM_BLOCK))
def test_streamed_blocks_equal_one_pass_bitwise(block_length, monkeypatch):
    p = ModelParams(n_particles=2 * 10**5 + 2, epsilon=0.04)
    seq = x_sequence(p)
    monkeypatch.setattr(sequences, "STREAM_BLOCK", block_length)
    coefs = sequences.majorant_coefficients(p)
    blocks = list(x_sequence_blocks(p.n_particles, *coefs))
    for field in ("levels", "values", "bound"):
        got = np.concatenate([getattr(block, field) for block in blocks])
        np.testing.assert_array_equal(got, getattr(seq, field))


def test_streamed_summary_keeps_nan(monkeypatch):
    # a NaN coefficient makes every entry NaN; the summary's minima keep
    # the NaN, as the minimum of the one-pass arrays would, instead of
    # reading as a healthy chain
    nan = math.nan
    blocks = x_sequence_blocks(10**4, nan, 0.3565, 0.0172, 0.2698, 0.4472)
    summary = StreamedSequenceSummary.of(blocks)
    assert math.isnan(summary.min_margin) and math.isnan(summary.min_slack)
    assert not summary.holds

    p = ModelParams(n_particles=10**4, epsilon=0.04)
    coefs = sequences.majorant_coefficients(p)
    monkeypatch.setattr(sequences, "majorant_coefficients", lambda params: (nan, *coefs[1:]))
    result = verify.check_x_bounds(p)
    assert not result.passed and math.isnan(result.margin)


@pytest.mark.parametrize("eps", (0.04, 0.01))
def test_streamed_x_check_matches_materialized(eps, monkeypatch):
    # the streamed check applies the one-pass rule entry by entry, and a
    # block resumes the chain from its carried value, so the default
    # blocks (seven at this N) and blocks of 700 give the one-pass row bit
    # for bit
    p = ModelParams(n_particles=2 * 10**5, epsilon=eps)
    seq = x_sequence(p)
    tol = sequences.BOUND_SLACK * (1.0 + np.abs(seq.values))
    expected = verify.PropertyResult(
        name="x_lower_bound",
        passed=seq.holds() and seq.first_nonpositive < 0,
        margin=float((seq.margin + tol).min()),
        details=f"min margin {float(seq.margin.min()):.3e} over {seq.values.size} entries",
    )
    assert verify.check_x_bounds(p).as_dict() == expected.as_dict()
    monkeypatch.setattr(sequences, "STREAM_BLOCK", 700)
    assert verify.check_x_bounds(p).as_dict() == expected.as_dict()


def test_streaming_handles_very_large_n():
    # bounded memory: a chain far beyond what arrays could hold comfortably.
    # The head transient contracts to the fixed point and the final dip
    # only sees the small tail denominators, so the terminal value is
    # N-independent: compare against a small-N reference.
    from bogoflow.sequences import x_sequence_terminal

    reference = x_sequence_terminal(ModelParams(n_particles=10**4, epsilon=0.04))
    summary = x_sequence_terminal(ModelParams(n_particles=2 * 10**8, epsilon=0.04))
    assert summary.first_nonpositive < 0
    assert summary.min_margin > 0.0
    assert summary.terminal == pytest.approx(reference.terminal, rel=1e-13)


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
