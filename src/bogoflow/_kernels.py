"""Hot scalar recursions over 1-D float64 arrays, in LAPACK and Python.

flow_recursion and rational_chain are the Moebius chains of the flow and
of the comparison sequences.  Both are the pivot recurrence
y_j = 1 - c_j / y_{j-1} of the LDL^T factorization of a unit-diagonal
tridiagonal matrix with off-diagonal sqrt(c), which _pivots runs through
LAPACK dpttrf; the element loops _flow_loop and _chain_loop are the
reference and compute the entries dpttrf cannot.  schur_eta is the
nested fraction of the oracle's tridiagonal matrix, the matrix side of
the continued-fraction identity.  No kernel knows the model: callers
pass the coefficients.
"""

import numpy as np

# No kernel is JIT-compiled; the benchmark harness reads this name into
# its run metadata.
HAVE_NUMBA = False

_TINY = 1e-300  # replaces an exact zero pivot/denominator


def _pivots(c, y, step, e=None):
    """Fill y[j] = 1 - c[j]/y[j-1] for j >= 1 in place; y[0] is preset.

    dpttrf factors the tridiagonal matrix with unit diagonal and
    off-diagonal e_j = sqrt(c_j); its pivots are y, each entry computed
    as 1 - (e_j / y_{j-1}) * e_j.  It needs c_j >= 0 finite and stops
    after a pivot <= 0.  step(j) computes entry j from entry j-1 by the
    caller's element formula there: at every c_j that is negative or not
    finite, and after every pivot <= 0; dpttrf then resumes.  Each entry
    depends only on c_j and y_{j-1}, so a chain continued from its last
    pivot equals one pass bit for bit.  Returns True if one dpttrf call
    took every entry and every pivot is positive.  y must be C-contiguous
    float64: dpttrf writes the pivots back in place only into such an
    array, and would fill a private copy of any other.  e, a C-contiguous
    float64 array of len(y) - 1 entries, receives the off-diagonal in
    place of a fresh array.
    """
    if y.dtype != np.float64 or not y.flags.c_contiguous:
        raise ValueError("the pivot chain needs a C-contiguous float64 array")
    # imported here, not at the top: loading scipy.linalg this early in
    # the package import, before the oracle does, made a fresh
    # `import bogoflow` 20-30 ms slower (extra garbage-collector work)
    from scipy.linalg.lapack import dpttrf

    n = y.shape[0]
    y[1:] = 1.0
    if n < 2:
        return True
    j = 0  # y[j] is final
    if c[1:].min() >= 0.0:
        info = dpttrf(y, np.sqrt(c[1:], out=e), overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            return True
        # every entry before the first pivot <= 0 is final
        j = max(info - 2, 0)
        y[j + 1 :] = 1.0
    # entries past a failure carry no meaning, and an infinite c_j (a flow
    # resolvent pole) gives inf * 0 there; silencing that changes no bit
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.sqrt(c[1:], out=e)  # anew where dpttrf overwrote it
        for k in (np.flatnonzero(~(e[j:] < np.inf)) + j + 1).tolist() + [n]:
            while j < k - 1:  # entries j+1 .. k-1 by dpttrf
                info = dpttrf(y[j:k], e[j : k - 1], overwrite_d=1, overwrite_e=1)[2]
                if not 0 < info < k - j:
                    j = k - 1
                else:  # y[j + info - 1] <= 0 and nothing after it computed
                    j += info
                    step(j)
            if k < n:
                step(k)
                j = k
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
    everywhere.  Values past a failure are still produced (a zero pivot
    is the guarded denominator -_TINY) so callers can inspect the table,
    but they carry no meaning.
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


def rational_chain(dfac, x, c=None, e=None):
    """Fill x[j] = 1 - 1/(4*dfac[j]*x[j-1]) for j >= 1; x[0] preset.

    Shared by every auxiliary comparison sequence (they differ only in
    the denominator factors dfac and the iteration direction, which the
    caller encodes by ordering dfac).  x, C-contiguous float64, is itself
    the pivot sequence of _pivots with c = 1/(4*dfac); _chain_loop
    computes the entries it hands back.  Returns the first index with a
    nonpositive value, or -1.  c (dfac's shape) and e (one entry less),
    C-contiguous float64 arrays, receive c and the dpttrf off-diagonal in
    place of fresh arrays.
    """
    with np.errstate(divide="ignore"):
        c = np.divide(0.25, dfac, out=c)
    if _pivots(c, x, lambda j: _chain_loop(dfac[j - 1 : j + 1], x[j - 1 : j + 1]), e):
        return -1
    bad = x[1:] <= 0.0
    return 1 + int(np.argmax(bad)) if bad.any() else -1


def schur_eta(d, e2, z):
    """Schur complement of (T - z) onto the first entry, evaluated directly.

    T is the symmetric tridiagonal matrix with diagonal d and squared
    off-diagonal e2.  The nested fraction is evaluated bottom-up:
    x_{m-1} = d[m-1] - z,  x_k = d[k] - z - e2[k]/x_{k+1}, and the result
    is d[0] - z - e2[0]/x_1.
    """
    m = d.shape[0]
    if m == 1:
        return d[0] - z
    x = d[m - 1] - z
    for k in range(m - 2, 0, -1):
        if x == 0.0:
            x = _TINY
        x = d[k] - z - e2[k] / x
    if x == 0.0:
        x = _TINY
    return d[0] - z - e2[0] / x


def warmup():
    """Run every kernel once on tiny inputs."""
    d = np.array([0.0, 1.0, 2.0])
    e2 = np.array([0.1, 0.1])
    flow_recursion(np.array([0.0, 0.1]), np.ones(2))
    schur_eta(d, e2, -1.0)
    x = np.ones(3)
    rational_chain(np.ones(3), x)
