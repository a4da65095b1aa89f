"""Hot scalar recursions over 1-D float64 arrays, in numpy and Python.

flow_recursion and rational_chain are the Moebius chains of the flow and
of the comparison sequences; from SCAN_MIN_LENGTH entries on they run a
chunked lockstep scan (_lockstep_scan) that computes every entry by the
formula of the element loop.  schur_eta is the nested fraction of the
oracle's tridiagonal matrix, the matrix side of the continued-fraction
identity.  No kernel knows the model: callers pass the coefficients.
"""

import math

import numpy as np

# No kernel is JIT-compiled; the benchmark harness reads this name into
# its run metadata.
HAVE_NUMBA = False

_TINY = 1e-300  # replaces an exact zero pivot/denominator

# Chains shorter than this run the element loop: below it the scan's
# fixed numpy-call cost exceeds the loop's per-element work (loop vs scan,
# flow chain: 0.07 vs 0.06 ms at 96 entries, 0.09 vs 0.07 ms at 128, on a
# 2-vCPU Xeon VM with numpy 2.4).
SCAN_MIN_LENGTH = 128
# rescale the lockstep composites every this many maps; one map grows
# them by at most a factor 1 + |coefficient|
_RENORM_EVERY = 8


def _flow_loop(w, g):
    first_bad = -1
    for j in range(1, w.shape[0]):
        q = w[j] * g[j - 1]
        if q >= 1.0 or q < 0.0:
            if first_bad < 0:
                first_bad = j
        den = 1.0 - q
        if den == 0.0:
            den = -_TINY
        g[j] = 1.0 / den
    return first_bad


def _flow_maps(w, u, v):
    # g -> 1/(1 - w g) on homogeneous coordinates g = u/v: [[0, 1], [-w, 1]]
    return v, v - w * u


def _flow_column(w, prev, out):
    q = w * prev
    lo, hi = np.fmin.reduce(q), np.fmax.reduce(q)
    bad = (q < 0.0) | (q >= 1.0) if lo < 0.0 or hi >= 1.0 else None
    den = np.subtract(1.0, q, out=q)
    if hi >= 1.0:
        den[den == 0.0] = -_TINY
    np.divide(1.0, den, out=out)
    return bad


def flow_recursion(w, g):
    """Fill g[j] = 1/(1 - w[j]*g[j-1]) for j >= 1; g[0] is the start value.

    Returns the first index where the geometric-series condition
    0 <= w*g < 1 fails, or -1 if it holds everywhere.  Values past a
    failure are still produced (with a guarded denominator) so callers
    can inspect the table, but they carry no meaning.
    """
    return _lockstep_scan(w, g, _flow_loop, _flow_maps, _flow_column)


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


def _chain_maps(dfac, u, v):
    # x -> 1 - 1/(4 d x) on homogeneous coordinates: [[4d, -1], [4d, 0]]
    t = 4.0 * dfac * u
    return t - v, t


def _chain_column(dfac, prev, out):
    den = 4.0 * dfac * prev
    if not den.all():
        den[den == 0.0] = _TINY
    np.divide(1.0, den, out=out)
    np.subtract(1.0, out, out=out)
    return out <= 0.0 if np.fmin.reduce(out) <= 0.0 else None


def rational_chain(dfac, x):
    """Fill x[j] = 1 - 1/(4*dfac[j]*x[j-1]) for j >= 1; x[0] preset.

    Shared by every auxiliary comparison sequence (they differ only in
    the denominator factors dfac and the iteration direction, which the
    caller encodes by ordering dfac).  Returns the first index with a
    nonpositive value, or -1.
    """
    return _lockstep_scan(dfac, x, _chain_loop, _chain_maps, _chain_column)


def _lockstep_scan(coef, out, loop, maps, column):
    """Run the Moebius chain out[j] = M(coef[j])(out[j-1]) in place.

    loop is the element loop over (coef, out) and returns the first bad
    index; it handles short arrays outright.  Longer ones are cut into
    rows of about sqrt(n)/4 consecutive steps, plus a tail shorter than
    a row.  That width measured fastest: a row costs one scalar step in
    pass 2, a column a few numpy calls in passes 1 and 3.  The rows'
    coefficients are copied once into column-major order, (width x rows),
    so that every column the passes read is contiguous; pass 3 writes
    into a column-major buffer that is copied back into out before the
    tail.  Three passes:

    1. compose each row's maps in lockstep across rows, as the images
       under maps(coef, u, v) of the two homogeneous basis vectors,
       rescaled every _RENORM_EVERY columns (a Moebius map does not
       change when its matrix is scaled);
    2. walk the row composites to get each row's start value; a row
       whose composite gives no finite value (an exact pole, or an
       overflow past a failure) is walked with loop instead;
    3. rerun the exact recursion in lockstep from those starts with
       column(coef, prev, out), which writes one column and returns the
       rows whose step failed (None if none did).

    The tail runs through loop from the last row's end.  Every entry is
    computed by the formula of loop; only the row start values carry
    the rounding of pass 2.  Kogge & Stone 1973; Blelloch 1990.
    """
    n = out.shape[0]
    if n < SCAN_MIN_LENGTH:
        return loop(coef, out)
    width = max(1, math.isqrt(n) // 4)
    rows = (n - 1) // width
    end = 1 + rows * width
    cols = np.ascontiguousarray(coef[1:end].reshape(rows, width).T)
    with np.errstate(all="ignore"):
        a, b = np.ones(rows), np.zeros(rows)
        c, d = np.zeros(rows), np.ones(rows)
        for col, cc in enumerate(cols):
            a, b = maps(cc, a, b)
            c, d = maps(cc, c, d)
            if col % _RENORM_EVERY == _RENORM_EVERY - 1:
                s = 1.0 / (np.abs(a) + np.abs(b) + np.abs(c) + np.abs(d))
                a *= s
                b *= s
                c *= s
                d *= s

        starts = np.empty(rows)
        x = float(out[0])
        for r, (ar, br, cr, dr) in enumerate(zip(a.tolist(), b.tolist(), c.tolist(), d.tolist())):
            starts[r] = x
            den = br * x + dr
            nxt = (ar * x + cr) / den if den != 0.0 else math.inf
            if not math.isfinite(nxt):
                seg = slice(r * width, (r + 1) * width + 1)
                out[r * width] = x
                loop(coef[seg], out[seg])
                nxt = float(out[(r + 1) * width])
            x = nxt

        first_row, first_col = rows, 0
        prev = starts
        done = np.empty_like(cols)
        for col, (cc, oc) in enumerate(zip(cols, done)):
            bad = column(cc, prev, oc)
            if bad is not None:
                r = int(np.argmax(bad))
                if r < first_row:
                    first_row, first_col = r, col
            prev = oc
    out[1:end].reshape(rows, width)[...] = done.T
    tail_bad = loop(coef[end - 1 :], out[end - 1 :])
    if first_row < rows:
        return 1 + first_row * width + first_col
    return end - 1 + tail_bad if tail_bad >= 0 else -1


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
    w = np.array([0.0, 0.1])
    g = np.ones(2)
    flow_recursion(w, g)
    schur_eta(d, e2, -1.0)
    x = np.ones(3)
    rational_chain(np.ones(3), x)
