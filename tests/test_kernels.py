"""The lockstep scan must reproduce the element loop it replaces on long
chains.
"""

import numpy as np
import pytest

from bogoflow import _kernels


# The scan must reproduce the element loop: the same first_bad, and every
# entry within rounding of the row start values.  n = 100003 leaves a
# 67-entry tail after the scanned rows, so the tail path is covered too.
SCAN_LENGTHS = (
    2,
    3,
    _kernels.SCAN_MIN_LENGTH - 1,
    _kernels.SCAN_MIN_LENGTH,
    _kernels.SCAN_MIN_LENGTH + 1,
    4097,
    100003,
)
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
    return bad


@pytest.fixture(params=["by_length", "forced"])
def scan_mode(request, monkeypatch):
    # "forced" runs the lockstep scan even on the shortest inputs
    if request.param == "forced":
        monkeypatch.setattr(_kernels, "SCAN_MIN_LENGTH", 2)


@pytest.mark.parametrize("n", SCAN_LENGTHS)
def test_scan_matches_loop(n, scan_mode):
    rng = np.random.default_rng(n)
    assert _compare(_kernels.flow_recursion, _kernels._flow_loop, _flow_inputs(n, rng)) == -1
    assert _compare(_kernels.rational_chain, _kernels._chain_loop, _chain_inputs(n, rng)) == -1


# (n, first bad index): a middle row at both lengths, and the tail at
# n = 100003, whose rows are 79 steps wide and leave the last 67 entries
@pytest.mark.parametrize("n, j", ((4097, 2055), (100003, 50008), (100003, 99990)))
def test_scan_first_bad(n, j):
    rng = np.random.default_rng(1)
    w = _flow_inputs(n, rng)
    w[j] = 3.0  # q >= 1
    w[j + 1 :] *= -1.0  # later failures must not move first_bad
    assert _compare(_kernels.flow_recursion, _kernels._flow_loop, w) == j
    w = _flow_inputs(n, rng)
    w[j] = -0.1  # q < 0
    assert _compare(_kernels.flow_recursion, _kernels._flow_loop, w) == j
    dfac = _chain_inputs(n, rng)
    dfac[j] = 0.1  # 4 * dfac * x < 1, so x <= 0
    assert _compare(_kernels.rational_chain, _kernels._chain_loop, dfac) == j


@pytest.mark.parametrize("n, positions", ((4097, range(2000, 2100)), (100003, (50008, 99990))))
def test_scan_exact_zero_denominator(n, positions):
    # at n = 4097 every position over several rows, so a zero also falls
    # on the last step of a row, where the row composite has a pole
    rng = np.random.default_rng(2)
    for j in positions:
        w = _flow_inputs(n, rng)
        w[j - 1], w[j] = 0.0, 1.0  # g[j-1] = 1 exactly, then q = 1
        assert _compare(_kernels.flow_recursion, _kernels._flow_loop, w) == j
        dfac = _chain_inputs(n, rng)
        dfac[j] = 0.0  # 4 * dfac * x = 0
        assert _compare(_kernels.rational_chain, _kernels._chain_loop, dfac) == j
