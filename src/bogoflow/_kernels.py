"""Hot scalar recursions over 1-D float64 arrays, in LAPACK and Python.

flow_recursion and rational_chain are the Moebius chains of the flow and
of the comparison sequences.  Both are the pivot recurrence
y_j = 1 - c_j / y_{j-1} of the LDL^T factorization of a unit-diagonal
tridiagonal matrix with off-diagonal sqrt(c), which _pivots runs through
LAPACK dpttrf.  The entries dpttrf cannot compute take each caller's
element formula: flow_recursion's step, and _chain_loop for
rational_chain.  The element loops _flow_loop and _chain_loop are the
tests' reference.  No kernel knows the model: callers pass the
coefficients.
"""

import math

import numpy as np

# No kernel is JIT-compiled; the benchmark harness reads this name into
# its run metadata.
HAVE_NUMBA = False

_TINY = 1e-300  # replaces an exact zero pivot/denominator
_dpttrf = None  # LAPACK dpttrf, bound by the first _pivots call


def _pivots(c, y, step):
    """Fill y[j] = 1 - c[j]/y[j-1] for j >= 1 in place; y[0] is preset.

    dpttrf factors the tridiagonal matrix with unit diagonal and
    off-diagonal e_j = sqrt(c_j); its pivots are y, each entry computed
    as 1 - (e_j / y_{j-1}) * e_j.  It needs c_j >= 0 finite and stops
    after a pivot <= 0.  One dpttrf call takes the chain up to its first
    c_j that is negative or NaN, and stops earlier at its first pivot
    <= 0, which an infinite c_j makes -inf.  One loop finishes the rest
    from that pivot on: by dpttrf's own formula where it applies, and by
    step(j), the caller's element formula for entry j from entry j-1, at
    every c_j that is negative or not finite and after every pivot <= 0
    or NaN.  Each entry depends only on c_j and y_{j-1}, so a chain
    continued from its last pivot equals one pass bit for bit.  Returns
    True if the dpttrf call took every entry and every pivot is positive.
    y must be C-contiguous float64: dpttrf writes the pivots back in
    place only into such an array, and would fill a private copy of any
    other.
    """
    global _dpttrf
    if y.dtype != np.float64 or not y.flags.c_contiguous:
        raise ValueError("the pivot chain needs a C-contiguous float64 array")
    if _dpttrf is None:
        # bound here, not at import: scipy.linalg loaded before the oracle loads it
        # made a fresh `import bogoflow` 20-30 ms slower (garbage-collector work)
        from scipy.linalg import lapack

        _dpttrf = lapack.dpttrf
    n = y.shape[0]
    # y[:k] is dpttrf's: k - 1 is the first index with c < 0 or NaN, or k = n
    k = n if c[1:].min(initial=0.0) >= 0.0 else 1 + int(np.argmin(c[1:] >= 0.0))
    y[1:k] = 1.0
    info = _dpttrf(y[:k], np.sqrt(c[1:k]), overwrite_d=1, overwrite_e=1)[2] if k > 1 else 0
    if info == 0 and k == n:
        return True
    start = max(info - 1, 1) if info else k  # y[info - 1] is the first pivot <= 0
    # entries past a failure stay pivots, which a Sylvester count reads; an
    # infinite c_j (a resolvent pole) gives inf * 0 there: silenced, no bit moves
    with np.errstate(over="ignore", invalid="ignore"):
        tail = c[start:]
        for j, cj, ok in zip(range(start, n), tail.tolist(), ((tail >= 0.0) & (tail < np.inf)).tolist()):
            p = float(y[j - 1]) if ok else 0.0
            if p > 0.0:
                e = math.sqrt(cj)
                y[j] = 1.0 - e / p * e
            else:
                step(j)
    return False


def _flow_loop(w, g):
    first_bad = -1
    for j in range(1, w.shape[0]):
        q = w[j] * g[j - 1]
        if not 0.0 <= q < 1.0:  # a NaN fails too
            if first_bad < 0:
                first_bad = j
        den = 1.0 - q
        if den == 0.0:
            den = -_TINY
        g[j] = 1.0 / den
    return first_bad


def flow_recursion(w, d):
    """Fill the pivots d[j] = 1 - w[j]/d[j-1] for j >= 1; d[0] is preset.

    d, C-contiguous float64, holds the pivots 1/G of the flow
    G_j = 1/(1 - w[j]*G_{j-1}) (_flow_loop), run through _pivots with
    c = w; a caller inverts it in place once it has read the last pivot.
    A pass continued from the last pivot of the pass before equals one
    pass bit for bit.  Returns the first index where the condition
    0 <= w*G < 1 fails (w < 0, or a pivot <= 0 or NaN), or -1 if it holds
    everywhere.  Past a failure the values stay the continued LDL^T pivots
    (a zero pivot becomes -_TINY): times their levels' resolvents, and with
    f(z), their signs count the eigenvalues below z (Sylvester inertia).
    """

    def step(j):
        # the formula of _flow_loop on the pivots
        d[j] = 1.0 - w[j] * (1.0 / (d[j - 1] or -_TINY))

    if _pivots(w, d, step):
        return -1
    d[d == 0.0] = -_TINY
    bad = ~(d[1:] > 0.0) | (w[1:] < 0.0)
    return 1 + int(np.argmax(bad)) if bad.any() else -1


def _chain_loop(dfac, x):
    first_bad = -1
    for j in range(1, x.shape[0]):
        den = 4.0 * dfac[j] * x[j - 1]
        if den == 0.0:
            den = _TINY
        x[j] = 1.0 - 1.0 / den
        if x[j] <= 0.0 and first_bad < 0:
            first_bad = j
    return first_bad


def rational_chain(dfac, x):
    """Fill x[j] = 1 - 1/(4*dfac[j]*x[j-1]) for j >= 1; x[0] preset.

    Shared by every auxiliary comparison sequence (they differ only in
    the denominator factors dfac and the iteration direction, which the
    caller encodes by ordering dfac).  x, C-contiguous float64, is itself
    the pivot sequence of _pivots with c = 1/(4*dfac); _chain_loop
    computes the entries it hands back.  Returns the first index with a
    nonpositive value, or -1.
    """
    with np.errstate(divide="ignore"):
        c = 0.25 / dfac
    if _pivots(c, x, lambda j: _chain_loop(dfac[j - 1 : j + 1], x[j - 1 : j + 1])):
        return -1
    bad = x[1:] <= 0.0
    return 1 + int(np.argmax(bad)) if bad.any() else -1


def warmup():
    """Run every kernel once on tiny inputs."""
    flow_recursion(np.array([0.0, 0.1]), np.ones(2))
    x = np.ones(3)
    rational_chain(np.ones(3), x)
