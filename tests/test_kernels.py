"""The dpttrf pivot chains must reproduce the element loops they replace,
also past failures, and a chain resumed from its last pivot must equal
one pass bit for bit.
"""

import numpy as np
import pytest

from bogoflow import _kernels


# The kernels must reproduce the element loop: the same first_bad, and
# every entry within rounding of it.
SCAN_LENGTHS = (2, 3, 127, 128, 129, 4097, 100003)
REL_TOL = 1e-14


def _assert_close(got, ref):
    np.testing.assert_array_equal(got == 0.0, ref == 0.0)
    nz = ref != 0.0
    assert np.max(np.abs(got[nz] - ref[nz]) / np.abs(ref[nz]), initial=0.0) <= REL_TOL


def _flow_inputs(n, rng):
    return np.concatenate(([0.0], rng.uniform(0.0, 0.24, n - 1)))


def _chain_inputs(n, rng):
    return 1.0 + rng.uniform(0.01, 0.3, n)


def _compare(kernel, loop, coef, start=1.0):
    got, ref = np.empty(coef.size), np.empty(coef.size)
    got[0] = ref[0] = start
    bad = kernel(coef, got)
    assert bad == loop(coef, ref)
    _assert_close(got, ref)
    return got, bad


def _flow_table(w, g):
    # the kernel fills the pivots 1/G; inverted they are the table that
    # the element loop fills in g
    d = np.empty_like(g)
    d[0] = 1.0 / g[0]
    bad = _kernels.flow_recursion(w, d)
    np.divide(1.0, d[1:], out=g[1:])
    return bad


def _flow_resumed(w, g, h):
    # the flow chain in two calls, the second started from the first's
    # last pivot
    d = np.empty_like(g)
    d[0] = 1.0 / g[0]
    _kernels.flow_recursion(w[:h], d[:h])
    _kernels.flow_recursion(w[h - 1 :], d[h - 1 :])
    np.divide(1.0, d[1:], out=g[1:])


def _chain_resumed(dfac, x, h):
    # x is its own pivot: the second call starts from x[h - 1]
    _kernels.rational_chain(dfac[:h], x[:h])
    _kernels.rational_chain(dfac[h - 1 :], x[h - 1 :])


@pytest.fixture(params=["by_length", "forced"])
def scan_mode(request):
    # "forced" also resumes every chain at its midpoint from the last
    # pivot of the first half, which must not change a bit
    return request.param


@pytest.mark.parametrize("n", SCAN_LENGTHS)
def test_scan_matches_loop(n, scan_mode):
    rng = np.random.default_rng(n)
    for kernel, loop, resumed, coef in (
        (_flow_table, _kernels._flow_loop, _flow_resumed, _flow_inputs(n, rng)),
        (_kernels.rational_chain, _kernels._chain_loop, _chain_resumed, _chain_inputs(n, rng)),
    ):
        got, bad = _compare(kernel, loop, coef)
        assert bad == -1
        if scan_mode == "forced":
            again = np.empty_like(got)
            again[0] = 1.0
            resumed(coef, again, max(n // 2, 1))
            np.testing.assert_array_equal(again, got)


# (n, first bad index): a middle entry at both lengths, and one near the end
@pytest.mark.parametrize("n, j", ((4097, 2055), (100003, 50008), (100003, 99990)))
def test_scan_first_bad(n, j):
    rng = np.random.default_rng(1)
    w = _flow_inputs(n, rng)
    w[j] = 3.0  # q >= 1
    w[j + 1 :] *= -1.0  # later failures must not move first_bad
    assert _compare(_flow_table, _kernels._flow_loop, w)[1] == j
    w = _flow_inputs(n, rng)
    w[j] = -0.1  # q < 0
    assert _compare(_flow_table, _kernels._flow_loop, w)[1] == j
    dfac = _chain_inputs(n, rng)
    dfac[j] = 0.1  # 4 * dfac * x < 1, so x <= 0
    assert _compare(_kernels.rational_chain, _kernels._chain_loop, dfac)[1] == j


@pytest.mark.parametrize("n, positions", ((4097, range(2000, 2100)), (100003, (50008, 99990))))
def test_scan_exact_zero_denominator(n, positions):
    rng = np.random.default_rng(2)
    for j in positions:
        w = _flow_inputs(n, rng)
        w[j - 1], w[j] = 0.0, 1.0  # g[j-1] = 1 exactly, then q = 1
        assert _compare(_flow_table, _kernels._flow_loop, w)[1] == j
        dfac = _chain_inputs(n, rng)
        dfac[j] = 0.0  # 4 * dfac * x = 0
        assert _compare(_kernels.rational_chain, _kernels._chain_loop, dfac)[1] == j


def test_negative_coefficient():
    # a negative c_j has no real off-diagonal sqrt(c_j): the element loop
    # computes that entry.  For the chain (dfac < 0) that is no failure.
    rng = np.random.default_rng(3)
    dfac = _chain_inputs(4097, rng)
    dfac[[1, 700, 701, 4096]] = -0.3
    got, bad = _compare(_kernels.rational_chain, _kernels._chain_loop, dfac)
    assert bad == -1 and got.min() > 0.0
    w = _flow_inputs(4097, rng)
    w[[5, 6, 3000]] = -0.05
    assert _compare(_flow_table, _kernels._flow_loop, w)[1] == 5


@pytest.mark.parametrize("j", (1, 2, 1000, 4096))
def test_a_nan_coefficient_fails_its_index(j):
    # a NaN passes w < 0 and a pivot <= 0 alike, so both kernels test
    # that the condition holds: a NaN w gives a NaN q and pivot, failed
    rng = np.random.default_rng(5)
    w = _flow_inputs(4097, rng)
    w[j] = np.nan
    got, ref = np.ones(w.size), np.ones(w.size)
    assert _flow_table(w, got) == _kernels._flow_loop(w, ref) == j
    np.testing.assert_array_equal(np.isnan(got), np.isnan(ref))


def test_exact_zero_pivot():
    # a pivot of exactly 0: dpttrf stops there, the element loop takes
    # the next entry with its guarded denominator
    rng = np.random.default_rng(4)
    for j in (1, 2, 1000, 4096):
        dfac = _chain_inputs(4097, rng)
        dfac[j - 1] = np.inf  # x[j-1] = 1 exactly (x[0] = 1 is preset)
        dfac[j] = 0.25  # x[j] = 1 - 1/(4 * 0.25 * 1) = 0
        got, bad = _compare(_kernels.rational_chain, _kernels._chain_loop, dfac)
        assert bad == j and got[j] == 0.0
        if j + 1 < got.size:
            assert got[j + 1] == 1.0 - 1.0 / _kernels._TINY
        w = _flow_inputs(4097, rng)
        w[j - 1], w[j] = 0.0, 1.0  # pivot 1 - 1/1 = 0: G = 1/(-_TINY)
        got, bad = _compare(_flow_table, _kernels._flow_loop, w)
        assert bad == j and got[j] == -1.0 / _kernels._TINY


def test_resume_after_failure():
    # past a failure dpttrf resumes, so the entries after the element
    # loop's step equal a fresh chain started there, bit for bit
    rng = np.random.default_rng(5)
    n, j = 4097, 1500
    dfac = _chain_inputs(n, rng)
    dfac[j] = 0.1  # x[j] < 0
    dfac[j + 900] = 0.1  # a second failure
    got, bad = _compare(_kernels.rational_chain, _kernels._chain_loop, dfac)
    assert bad == j and got[j] < 0.0 and got[j + 900] < 0.0
    fresh = got[j + 1 :].copy()
    _kernels.rational_chain(dfac[j + 1 :], fresh)
    np.testing.assert_array_equal(fresh, got[j + 1 :])

    w = _flow_inputs(n, rng)
    w[j] = 3.0  # pivot < 0
    g, bad = _compare(_flow_table, _kernels._flow_loop, w)
    assert bad == j and g[j] < 0.0
    d = np.empty(n)
    d[0] = 1.0
    _kernels.flow_recursion(w, d)  # the same chain's pivots
    fresh = d[j + 1 :].copy()
    _kernels.flow_recursion(w[j + 1 :], fresh)
    np.testing.assert_array_equal(1.0 / fresh[1:], g[j + 2 :])


def test_pivot_buffer_must_be_contiguous_float64():
    # dpttrf writes the pivots back only into a C-contiguous float64
    # array; any other buffer is refused instead of left unfilled
    rng = np.random.default_rng(6)
    dfac = _chain_inputs(257, rng)
    for x in (np.ones(2 * 257)[::2], np.ones(257, dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            _kernels.rational_chain(dfac, x)
    w = _flow_inputs(257, rng)
    for d in (np.ones(2 * 257)[::2], np.ones(257, dtype=np.float32)):
        with pytest.raises(ValueError, match="C-contiguous float64"):
            _kernels.flow_recursion(w, d)


def test_flow_pivots_alone_invert_to_the_table():
    # the kernel leaves the pivots in the caller's buffer, a contiguous
    # slice here, and nothing outside it; inverted in place they are the
    # element loop's table
    rng = np.random.default_rng(7)
    w = _flow_inputs(4097, rng)
    ref = np.ones(w.size)
    assert _kernels._flow_loop(w, ref) == -1
    buffer = np.full(w.size + 2, 7.0)
    d = buffer[1:-1]
    d[0] = 1.0
    assert _kernels.flow_recursion(w, d) == -1
    assert buffer[0] == buffer[-1] == 7.0
    np.divide(1.0, d, out=d)
    _assert_close(d, ref)
