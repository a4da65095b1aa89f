"""Exact reference for the three-modes Hamiltonian on the symmetric pair sector.

The sector is spanned by occupation states |k> with k particles in each
of the two opposite-momentum modes and N-2k in the condensate mode,
k = 0..N/2.  On this basis the Hamiltonian is a real symmetric
tridiagonal matrix:

    d_k = 2k * (eps*phi + phi*(N-2k)/N)
    t_k = (phi/N) * sqrt((N-2k)(N-2k-1)) * (k+1)      (couples k and k+1)

Both formulas follow from the ladder-operator action of the pair
creation/annihilation terms; tests/test_oracle.py re-derives them by
brute force on the full three-mode occupation basis for small N.

The low eigenpairs come from LAPACK through scipy's eigh_tridiagonal:
stebz bisects on Sturm counts for the eigenvalues (Barth, Martin and
Wilkinson 1967) and stein runs inverse iteration for the vectors, to the
tolerance ORACLE_TOL * s, both on the block scaled by a power of two
(_stebz).  s is the one scale of every oracle tolerance: |t_0| =
phi * sqrt(1 - 1/N) from 1 on, and below 1 the power of two at or above
|t_0| (1 at phi = 1), so lambda_0 scales bit for bit under phi -> 2^-k phi.
Like the Feshbach-Schur map of the paper, they solve only the leading
block T[:K, :K] of the low pair occupations;
K doubles from 256 while 4K <= size, and K = size is the full solve.  A
block is accepted when its certificate closes.  Its Ritz values bound
lambda_j from above (Cauchy interlacing).  If rows K+1.. of T - x,
x = theta_{m-1}, are strictly diagonally dominant and q = d_K - x - t_K > 0,
every bottom-up pivot of the tail is at least t_{k-1}, so the tail is
positive definite and folds onto row K-1 as at most t_{K-1}^2/q; Sylvester
inertia then bounds lambda_j from below by the eigenvalues mu_j of the block
with that entry lowered by t_{K-1}^2/q.  The block is used when the
zero-padded vector's residual |t_{K-1} v_{K-1}| is below
ORACLE_TOL * (s + |theta_0|), tested first, and theta_j - mu_j <= w, with
w = ORACLE_TOL * s; for j >= 1 the width is no narrower than the
2 ulp |theta_j| to which stebz bisects theta_j.  Inertia decides that
without solving the lowered block: one LDL^T factorization (LAPACK dpttrf)
for j = 0, and one Sturm count (LAPACK dstebz, which does not bisect on
an interval as wide as its tolerance) for each j >= 1.
lowest_eigenpair keeps its certified pair on the matrix object, so a
matrix is solved once however often it is asked; build_sector_hamiltonian
makes its arrays read-only to keep that pair valid.
schur_complement folds T - z onto the first entry, the last pivot of
one more LDL^T factorization (dpttrf, bottom row first), and
eigen_residual measures a vector against T.  No part of this module
looks at the flow; it is the independent reference.
"""

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import eigh_tridiagonal
from scipy.linalg.lapack import dpttrf, dstebz

from .model import ModelParams


@dataclass(frozen=True)
class TridiagonalHamiltonian:
    diag: np.ndarray
    offdiag: np.ndarray
    # lowest_eigenpair's certified pair, kept for later calls on this object;
    # a matrix with other elements is another object and is solved again
    _lowest: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.diag.ndim != 1 or self.offdiag.ndim != 1:
            raise ValueError("diag and offdiag must be 1-D")
        if self.offdiag.shape[0] != self.diag.shape[0] - 1:
            raise ValueError("offdiag must have length len(diag) - 1")

    @property
    def size(self) -> int:
        return int(self.diag.shape[0])

    def norm_inf(self) -> float:
        """Maximum absolute row sum."""
        d, e = np.abs(self.diag), np.abs(self.offdiag)
        row = d.copy()
        row[:-1] += e
        row[1:] += e
        return float(row.max()) if row.size else 0.0

    def matvec(self, v: np.ndarray) -> np.ndarray:
        out = self.diag * v
        if self.offdiag.size:
            out[:-1] += self.offdiag * v[1:]
            out[1:] += self.offdiag * v[:-1]
        return out


def sector_elements(params: ModelParams, k_lo: int, k_hi: int):
    """The block of rows k_lo..k_hi-1: (d_k for k_lo <= k < k_hi,
    t_k for k_lo <= k < k_hi - 1)."""
    n = params.n_particles
    phi = params.phi
    k = np.arange(k_lo, k_hi, dtype=np.float64)
    free = n - 2.0 * k
    diag = 2.0 * k * (params.kinetic + phi * free / n)
    kk = k[:-1]
    offdiag = (phi / n) * np.sqrt((n - 2.0 * kk) * (n - 2.0 * kk - 1.0)) * (kk + 1.0)
    return diag, offdiag


def build_sector_hamiltonian(params: ModelParams) -> TridiagonalHamiltonian:
    """The whole sector matrix, with read-only arrays."""
    diag, offdiag = sector_elements(params, 0, params.n_particles // 2 + 1)
    diag.flags.writeable = offdiag.flags.writeable = False
    return TridiagonalHamiltonian(diag=diag, offdiag=offdiag)


@dataclass(frozen=True)
class EigenPair:
    value: float
    vector: np.ndarray
    residual: float
    block_size: int  # K of the leading block solved; tri.size on the full path
    enclosure: float  # certified width w of the block's lower bound; 0.0 on the full path


class ConvergenceError(RuntimeError):
    pass


# Bisection tolerance passed to stebz, and the widest certified enclosure
# [mu_j, theta_j] a leading block may leave, both at phi = 1 (_scale
# carries them to any phi); it gives errors in lambda_0 of at most 4e-15 up
# to N = 1e6.  A norm-relative one (1e-13 * norm_inf) leaves 3e-10 at
# N = 4e4 and 4e-9 at N = 1e6, above the 1e-10 agreement the flow is
# checked to; the stebz default leaves 1.3e-11.
ORACLE_TOL = 1e-14


def _scale(offdiag) -> float:
    """The one scale s of the oracle's tolerances: |t_0| from 1 on, and below
    1 the power of two at or above |t_0|.  A leading block shares t_0."""
    t0 = float(np.abs(offdiag[:1]).sum())
    mantissa, exponent = math.frexp(t0)
    return t0 if t0 >= 1.0 else math.ldexp(1.0, exponent - (mantissa == 0.5))


def _stebz(diag, offdiag, m: int, vectors: bool):
    """The m lowest eigenvalues (and vectors) of the block by stebz and
    stein to the tolerance ORACLE_TOL * _scale, solved on the block scaled
    by 2^-e, e the binary exponent of its largest |entry|, with the
    tolerance scaled alike.  The scaling is exact, and the eigenvalues
    equal unscaled stebz's bit for bit at every point checked; stein's
    vector can move by an ulp, since stein mixes in absolute constants
    such as machine epsilon.  Unscaled, stein's vector was NaN where d
    reaches 1e150."""
    e = math.frexp(max(float(np.abs(diag).max()), float(np.abs(offdiag).max(initial=0.0))))[1]
    out = eigh_tridiagonal(
        np.ldexp(diag, -e), np.ldexp(offdiag, -e), eigvals_only=not vectors, select="i",
        select_range=(0, m - 1), tol=math.ldexp(ORACLE_TOL * _scale(offdiag), -e), lapack_driver="stebz",
    )
    return (np.ldexp(out[0], e), out[1]) if vectors else np.ldexp(out, e)


def _lowered_bounds_hold(lowered, e, theta, width) -> bool:
    """mu_j > theta_j - w_j for every j, mu_j the eigenvalues of the lowered
    block, by Sylvester inertia: positive pivots of lowered - (theta_0 - w)
    for j = 0, and for j >= 1 at most j eigenvalues at or below
    theta_j - w_j in LAPACK's Sturm count (dstebz on one interval, with its
    width as tolerance, so it does not bisect).  stebz leaves theta_j within
    2 ulp |theta_j| (LAPACK's RELFAC), so w_j = max(w, that): a count any
    nearer theta_j would test where that bisection stopped, not the tail."""
    if dpttrf(lowered - (theta[0] - width), e, overwrite_d=1)[2] != 0:
        return False
    floor = -2.0 * (1.0 + np.abs(lowered).max() + 2.0 * np.abs(e).max())  # below every Gershgorin disc
    for j in range(1, theta.size):
        top = theta[j] - max(width, 2.0 * np.finfo(float).eps * abs(theta[j]))
        count, *_, info = dstebz(lowered, e, 1, floor, top, 0, 0, top - floor, "E")
        if info != 0 or count > j:
            return False
    return True


def _leading_block(tri: TridiagonalHamiltonian, m: int, vectors: bool):
    """(the m lowest Ritz values of the smallest certified leading block
    T[:K, :K], its first Ritz vector or None, K); K = tri.size is the
    plain full solve."""
    d, e, n = tri.diag, tri.offdiag, tri.size
    k = max(256, m)
    if 4 * k <= n:
        t = np.abs(e)
        slack = d[1:] - t  # slack[j] = d - |t_j| - |t_{j+1}| on row j + 1, t_{n-1} := 0
        slack[:-1] -= t[1:]
        scale = _scale(e)
        width = ORACLE_TOL * scale
    while 4 * k <= n:
        out = _stebz(d[:k], e[: k - 1], m, vectors)
        theta, v = out if vectors else (out, None)
        q = d[k] - theta[-1] - t[k]
        padding_ok = v is None or abs(t[k - 1] * v[-1, 0]) <= ORACLE_TOL * (scale + abs(theta[0]))
        if padding_ok and q > 0.0 and slack[k:].min() > theta[-1]:
            lowered = d[:k].copy()
            lowered[-1] -= t[k - 1] ** 2 / q
            if _lowered_bounds_hold(lowered, e[: k - 1], theta, width):
                return theta, None if v is None else v[:, 0], k
        k *= 2
    out = _stebz(d, e, m, vectors)
    return (out[0], out[1][:, 0], n) if vectors else (out, None, n)


def lowest_eigenpair(tri: TridiagonalHamiltonian) -> EigenPair:
    """Smallest eigenvalue and eigenvector, from the smallest certified
    leading block.

    The vector is unit norm with its first nonzero component positive;
    a residual that is not at most 1e-10 * norm_inf (a NaN included)
    raises ConvergenceError.  Both are taken on rows 0..K, every row
    where T v can be nonzero (v is zero below row K), which makes the
    norm no larger than the whole matrix's.
    The first call's pair is kept on tri and returned by every later call;
    its vector is read-only.
    """
    if tri._lowest:
        return tri._lowest["pair"]
    vals, v, k = _leading_block(tri, 1, True)
    lam = float(vals[0])
    nz = np.nonzero(v)[0]
    if nz.size and v[nz[0]] < 0.0:
        v = -v
    v = np.concatenate([v, np.zeros(tri.size - k)])
    rows = min(k + 1, tri.size)
    head = TridiagonalHamiltonian(diag=tri.diag[:rows], offdiag=tri.offdiag[: rows - 1])
    residual = float(np.linalg.norm(head.matvec(v[:rows]) - lam * v[:rows]))
    if not residual <= 1e-10 * (head.norm_inf() or 1.0):
        raise ConvergenceError(f"eigenpair residual {residual:.3e} is not within 1e-10*norm")
    enclosure = ORACLE_TOL * _scale(tri.offdiag) if k < tri.size else 0.0
    v.flags.writeable = False
    pair = EigenPair(value=lam, vector=v, residual=residual, block_size=k, enclosure=enclosure)
    tri._lowest["pair"] = pair
    return pair


def low_spectrum(tri: TridiagonalHamiltonian, m: int) -> np.ndarray:
    """The m smallest eigenvalues, ascending; the first is exactly
    lowest_eigenpair(tri).value."""
    if not 1 <= m <= tri.size:
        raise ValueError("m out of range")
    vals = _leading_block(tri, m, False)[0]
    vals[0] = lowest_eigenpair(tri).value
    return vals


def schur_complement(tri: TridiagonalHamiltonian, z: float) -> float:
    """(T - z) folded onto the first basis entry,
    d0 - z - t0^2/(d1 - z - t1^2/(...)): the last pivot of the LDL^T
    factorization of T - z taken from the bottom row up (one dpttrf call
    on the reversed matrix).  Raises ValueError where T - z without its
    first row is not positive definite: a pivot there <= 0 or NaN.
    """
    if tri.size == 1:  # dpttrf takes no empty off-diagonal
        return float(tri.diag[0] - z)
    pivots, _, info = dpttrf(tri.diag[::-1] - z, tri.offdiag[::-1])
    if 0 < info < tri.size or not pivots[-2] > 0.0:
        raise ValueError(f"T - z without its first row is not positive definite at z={z!r}")
    return float(pivots[-1])


def eigen_residual(tri: TridiagonalHamiltonian, psi: np.ndarray, z: float) -> float:
    """|| H psi - z psi || / || psi || with psi zero-padded to the sector."""
    v = np.zeros(tri.size)
    v[: psi.size] = psi
    return float(np.linalg.norm(tri.matvec(v) - z * v) / np.linalg.norm(v))
