"""The pure-Python kernel fallbacks must be bit-identical to the JIT
versions: load the module a second time with numba blocked and compare.
The lockstep scan must reproduce the element loop it replaces on long
chains.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from bogoflow import _kernels as kern_jit

KERNEL_PATH = Path(kern_jit.__file__)


def _load_fallback():
    sys.modules["numba"] = None  # force ImportError inside the module
    try:
        spec = importlib.util.spec_from_file_location("kern_fallback", KERNEL_PATH)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        del sys.modules["numba"]
    assert not module.HAVE_NUMBA
    return module


def test_fallback_matches_jit_bitwise():
    kern_py = _load_fallback()
    rng = np.random.default_rng(0)
    d = np.sort(rng.uniform(0.0, 5.0, 200))
    e2 = rng.uniform(0.0, 1.0, 199)
    w = np.concatenate(([0.0], rng.uniform(0.0, 0.24, 99)))

    for z in (-3.0, -0.5, 1.7):
        assert kern_py.sturm_count(d, e2, z) == kern_jit.sturm_count(d, e2, z)
        assert kern_py.schur_eta(d, e2, z) == kern_jit.schur_eta(d, e2, z)

    g1, g2 = np.ones(w.size), np.ones(w.size)
    assert kern_py.flow_recursion(w, g1) == kern_jit.flow_recursion(w, g2)
    np.testing.assert_array_equal(g1, g2)

    dfac = 1.0 + rng.uniform(0.01, 0.3, 50)
    x1, x2 = np.ones(50), np.ones(50)
    assert kern_py.rational_chain(dfac, x1) == kern_jit.rational_chain(dfac, x2)
    np.testing.assert_array_equal(x1, x2)

    args = (1000, 0.0804, 0.3565, 0.0172, 0.2698, 0.4472)
    assert kern_py.x_chain_streaming(*args) == kern_jit.x_chain_streaming(*args)


def test_bisect_eigenvalue_agrees():
    kern_py = _load_fallback()
    d = np.array([0.0, 1.0, 2.5, 4.0])
    e2 = np.array([0.3, 0.2, 0.5])
    got_py = kern_py.bisect_eigenvalue(d, e2, -5.0, 10.0, 1, 1e-12)
    got_jit = kern_jit.bisect_eigenvalue(d, e2, -5.0, 10.0, 1, 1e-12)
    assert got_py == got_jit


# The scan must reproduce the element loop: the same first_bad, and every
# entry within rounding of the row start values.  n = 100003 leaves a
# 67-entry tail after the scanned rows, so the tail path is covered too.
SCAN_LENGTHS = (
    2,
    3,
    kern_jit.SCAN_MIN_LENGTH - 1,
    kern_jit.SCAN_MIN_LENGTH,
    kern_jit.SCAN_MIN_LENGTH + 1,
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
        monkeypatch.setattr(kern_jit, "SCAN_MIN_LENGTH", 2)


@pytest.mark.parametrize("n", SCAN_LENGTHS)
def test_scan_matches_loop(n, scan_mode):
    rng = np.random.default_rng(n)
    assert _compare(kern_jit.flow_recursion, kern_jit._flow_loop, _flow_inputs(n, rng)) == -1
    assert _compare(kern_jit.rational_chain, kern_jit._chain_loop, _chain_inputs(n, rng)) == -1


# (n, first bad index): a middle row at both lengths, and the tail at
# n = 100003, whose rows are 79 steps wide and leave the last 67 entries
@pytest.mark.parametrize("n, j", ((4097, 2055), (100003, 50008), (100003, 99990)))
def test_scan_first_bad(n, j):
    rng = np.random.default_rng(1)
    w = _flow_inputs(n, rng)
    w[j] = 3.0  # q >= 1
    w[j + 1 :] *= -1.0  # later failures must not move first_bad
    assert _compare(kern_jit.flow_recursion, kern_jit._flow_loop, w) == j
    w = _flow_inputs(n, rng)
    w[j] = -0.1  # q < 0
    assert _compare(kern_jit.flow_recursion, kern_jit._flow_loop, w) == j
    dfac = _chain_inputs(n, rng)
    dfac[j] = 0.1  # 4 * dfac * x < 1, so x <= 0
    assert _compare(kern_jit.rational_chain, kern_jit._chain_loop, dfac) == j


@pytest.mark.parametrize("n, positions", ((4097, range(2000, 2100)), (100003, (50008, 99990))))
def test_scan_exact_zero_denominator(n, positions):
    # at n = 4097 every position over several rows, so a zero also falls
    # on the last step of a row, where the row composite has a pole
    rng = np.random.default_rng(2)
    for j in positions:
        w = _flow_inputs(n, rng)
        w[j - 1], w[j] = 0.0, 1.0  # g[j-1] = 1 exactly, then q = 1
        assert _compare(kern_jit.flow_recursion, kern_jit._flow_loop, w) == j
        dfac = _chain_inputs(n, rng)
        dfac[j] = 0.0  # 4 * dfac * x = 0
        assert _compare(kern_jit.rational_chain, kern_jit._chain_loop, dfac) == j


@pytest.mark.parametrize("b", (0.3565, 100.0))
def test_streaming_blocks_match_one_pass(b, monkeypatch):
    # a chain of 5000 steps in blocks of 700: carried values, the offset
    # of first_bad (step 3813 at b = 100) and the running margin must not
    # depend on the blocking.  Past a failure the margin runs through
    # near-poles and carries no meaning, so it is compared only without one.
    args = (10**4, 0.0804, b, 0.0172, 0.2698, 0.4472)
    whole = kern_jit.x_chain_streaming(*args)
    monkeypatch.setattr(kern_jit, "STREAM_BLOCK", 700)
    blocked = kern_jit.x_chain_streaming(*args)
    assert blocked[0] == pytest.approx(whole[0], rel=REL_TOL)
    assert blocked[2] == whole[2]
    if whole[2] < 0:
        assert blocked[1] == pytest.approx(whole[1], rel=1e-12)
