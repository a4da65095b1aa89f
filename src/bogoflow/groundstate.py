"""Ground-state vector from the flow, its tail control, and the
truncation-bound machinery.

The eliminated shells are reconstructed one pair at a time: with the
level <-> pair-index dictionary i = N - 2k,

    psi_0 = 1,
    psi_{k} = - G_{N-2k}(z) * t_{k-1} / (d_k - z) * psi_{k-1},

where d, t are the sector matrix elements and G the flow factors.  The
signs alternate, matching the sign structure forced by the positive
couplings.  Everything else here bounds what truncating that product
chain throws away.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import FlowDomainError, g_check, g_truncated
from .model import FlowConfig, ModelParams, b_coefficient, c_coefficient, coefficient_set
from .oracle import TridiagonalHamiltonian, build_sector_hamiltonian

# stop extending the vector once coefficients fall below this relative size
COEFF_FLOOR = 1e-18
# full-sector expansion cap; beyond it the tail is bounded analytically
FULL_SECTOR_LIMIT = 10**5
# block length of the adaptive expansion beyond FULL_SECTOR_LIMIT
EXPAND_BLOCK = 2048


@dataclass(frozen=True)
class GroundStateVector:
    coeffs: np.ndarray  # psi_k, k = 0..k_max; psi_0 = 1 before normalization
    z_star: float
    tail_bound: float
    shifted_evaluation: bool
    overlap_oracle: Optional[float] = None

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> np.ndarray:
        v = self.coeffs / self.norm
        nz = np.nonzero(v)[0]
        if nz.size and v[nz[0]] < 0.0:
            v = -v
        return v

    def to_csv(self, path, oracle_vector=None) -> None:
        """Columns k, psi_k, oracle_v_k, abs_diff (oracle columns blank
        when no reference vector is supplied)."""
        v = self.normalized()
        lines = ["k,psi_k,oracle_v_k,abs_diff"]
        for k, val in enumerate(v):
            if oracle_vector is not None and k < len(oracle_vector):
                ref = float(oracle_vector[k])
                lines.append(f"{k},{val!r},{ref!r},{abs(val - ref)!r}")
            else:
                lines.append(f"{k},{val!r},,")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def expand_ground_state(
    params: ModelParams,
    z_star: float,
    k_max: Optional[int] = None,
    cfg: Optional[FlowConfig] = None,
    compare_oracle: bool = False,
) -> GroundStateVector:
    """Sector amplitudes of the eigenvector at the fixed point z_star.

    The flow is evaluated at z_star itself; the shared denominators are
    finite there because each eliminated block sits strictly above the
    ground energy.  If the pole guard trips anyway, the evaluation falls
    back to z_star - 10*tol_root*phi, which changes the coefficients by
    O(tol) only.
    """
    cfg = cfg or FlowConfig()
    n = params.n_particles
    half = n // 2
    if k_max is None:
        k_max = half
    if not 0 <= k_max <= half:
        raise ValueError("k_max out of range")

    z_eval = z_star
    shifted = False
    try:
        table = g_check(params, z_eval)
        if not table.valid:
            raise FlowDomainError("flow invalid at z_star")
    except FlowDomainError:
        z_eval = z_star - 10.0 * cfg.tol_root * params.phi
        shifted = True
        table = g_check(params, z_eval)

    tri = build_sector_hamiltonian(params)
    d, t = tri.diag, tri.offdiag
    g = table.g_values  # index j <-> level 2j

    # psi_k = ratio_k * psi_{k-1} with G at level N - 2k, i.e. g[half - k];
    # cumprod and cumsum accumulate in index order, so every psi_k and the
    # stop index equal those of the term-by-term recursion to the bit
    coeffs = np.empty(k_max + 1)
    coeffs[0] = 1.0
    coeffs[1:] = -g[::-1][:k_max] * t[:k_max] / (d[1 : k_max + 1] - z_eval)
    last = k_max
    if n <= FULL_SECTOR_LIMIT:
        np.cumprod(coeffs, out=coeffs)
    else:
        # adaptive stop at the first psi_k below COEFF_FLOOR * |psi_0..k|,
        # block by block with the running product and norm carried over
        # (a product or sum commutes, so the carry changes no bit); the
        # products past the stop, mostly subnormal, are never formed
        prod, norm_sq = 1.0, 1.0
        for start in range(1, k_max + 1, EXPAND_BLOCK):
            block = coeffs[start : start + EXPAND_BLOCK]
            block[0] *= prod
            np.cumprod(block, out=block)
            sq = block * block
            sq[0] += norm_sq
            np.cumsum(sq, out=sq)
            small = np.abs(block) < COEFF_FLOOR * np.sqrt(sq)
            if small.any():
                last = start + int(np.argmax(small))
                break
            prod, norm_sq = float(block[-1]), float(sq[-1])
    coeffs = coeffs[: last + 1]

    tail_bound = 0.0
    if last < half:
        tail_bound = _tail_norm_bound(params, cfg, abs(coeffs[-1]), last)

    overlap = None
    if compare_oracle:
        from .oracle import lowest_eigenpair

        pair = lowest_eigenpair(tri)
        v = coeffs / np.linalg.norm(coeffs)
        overlap = float(abs(v @ pair.vector[: v.size]))
    return GroundStateVector(
        coeffs=coeffs,
        z_star=z_star,
        tail_bound=tail_bound,
        shifted_evaluation=shifted,
        overlap_oracle=overlap,
    )


def eigen_residual(tri: TridiagonalHamiltonian, psi: np.ndarray, z: float) -> float:
    """|| H psi - z psi || / || psi || with psi zero-padded to the sector."""
    v = np.zeros(tri.size)
    v[: psi.size] = psi
    return float(np.linalg.norm(tri.matvec(v) - z * v) / np.linalg.norm(v))


@dataclass(frozen=True)
class TailSeries:
    c: np.ndarray  # c_j for j = 2..j_max
    ratios: np.ndarray  # c_j / c_{j-1}, NaN at j = 2
    j: np.ndarray
    threshold_index: int  # smallest j with ratio < 1 from there on


def tail_series(
    params: ModelParams, j_max: int, cfg: Optional[FlowConfig] = None
) -> TailSeries:
    """Majorant series for the omitted part of the coefficient chain.

    c_j is the product over l = 2..j of
    1 / ((1 + sqrt(eta*a) - (b/sqrt(eta*a))/(2l - xi))
         * sqrt(1 + a - 2b/(2l-1) - (1-c)/(2l-1)^2)),
    with a = 2eps + eps^2 and b, c at delta = 1 + sqrt(eps).  The ratio
    c_j/c_{j-1} drops below 1 from some eps-dependent index on, making
    the series convergent (ever more slowly as eps -> 0).
    """
    cfg = cfg or FlowConfig()
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    eps = params.epsilon
    coefs = coefficient_set(params, cfg)
    a = coefs.a_bound
    delta = 1.0 + math.sqrt(eps)
    b = b_coefficient(eps, delta)
    c = c_coefficient(eps, delta)
    sqrt_eta_a = math.sqrt(coefs.eta * a)

    j = np.arange(2, j_max + 1, dtype=np.float64)
    odd = 2.0 * j - 1.0
    factors = 1.0 / (
        (1.0 + sqrt_eta_a - (b / sqrt_eta_a) / (2.0 * j - coefs.xi))
        * np.sqrt(1.0 + a - 2.0 * b / odd - (1.0 - c) / (odd * odd))
    )
    cvals = np.cumprod(factors)
    ratios = np.empty_like(cvals)
    ratios[0] = np.nan
    ratios[1:] = factors[1:]

    threshold = -1
    below = factors < 1.0
    for idx in range(below.size):
        if below[idx:].all():
            threshold = int(j[idx])
            break
    return TailSeries(c=cvals, ratios=ratios, j=j.astype(np.int64), threshold_index=threshold)


def _tail_norm_bound(params, cfg, last_coeff, last_index) -> float:
    """Geometric bound on the norm omitted beyond pair index last_index."""
    series = tail_series(params, max(last_index + 2, 3), cfg)
    r = float(series.ratios[-1])
    if not (0.0 < r < 1.0):
        return math.inf
    return last_coeff * r / (1.0 - r)


@dataclass(frozen=True)
class TruncationBounds:
    f_levels: np.ndarray  # even levels r+2..i carrying the K factors
    K: np.ndarray
    Z: np.ndarray  # Z_f for f = r..i-2
    leading: float  # prod K_f / (1 - Z_{f-2})^2
    remainder: float  # Z_r^h * leading
    h: int


def kz_truncation_bounds(
    params: ModelParams,
    r: int,
    i: int,
    h: int,
    cfg: Optional[FlowConfig] = None,
) -> TruncationBounds:
    """Leading/remainder norm bounds for re-expanding the flow between
    levels r and i to interaction depth h.

    K_f = 1/(4*(1 + a - 2b/(N-f+1) - (1-c)/(N-f+1)^2)),
    Z_f = K_f * 2/(1 + sqrt(eta*a) - (b/sqrt(eta*a))/(N-f+2 - xi)).
    The bounds are uniform in z over the admissible window.
    """
    cfg = cfg or FlowConfig()
    n, eps = params.n_particles, params.epsilon
    if h < 2:
        raise ValueError("h must be >= 2")
    if r % 2 or i % 2 or not 2 <= r <= i - 2 or i > n - 2:
        raise ValueError("need even 2 <= r <= i-2 <= N-4")
    coefs = coefficient_set(params, cfg)
    a = coefs.a_bound
    delta = 1.0 + math.sqrt(eps)
    b = b_coefficient(eps, delta)
    c = c_coefficient(eps, delta)
    sqrt_eta_a = math.sqrt(coefs.eta * a)

    def k_of(f):
        m = n - f + 1.0
        return 1.0 / (4.0 * (1.0 + a - 2.0 * b / m - (1.0 - c) / (m * m)))

    def z_of(f):
        return k_of(f) * 2.0 / (1.0 + sqrt_eta_a - (b / sqrt_eta_a) / (n - f + 2.0 - coefs.xi))

    f_levels = np.arange(r + 2, i + 1, 2, dtype=np.int64)
    kvals = np.array([k_of(float(f)) for f in f_levels])
    zvals = np.array([z_of(float(f)) for f in np.arange(r, i - 1, 2)])
    leading = float(np.prod(kvals / (1.0 - zvals) ** 2))
    remainder = float(z_of(float(r)) ** h * leading)
    return TruncationBounds(
        f_levels=f_levels, K=kvals, Z=zvals, leading=leading, remainder=remainder, h=h
    )


@dataclass(frozen=True)
class TruncationDecayReport:
    x: np.ndarray  # N^(1-beta) values actually used
    log_diff: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    fitted_c: float
    points_used: int


def fit_truncation_decay(x, diffs, floor: float = 1e-13) -> TruncationDecayReport:
    """Least-squares line through log|difference| vs truncation span.

    Points where the difference has hit the rounding floor (or vanished
    exactly) carry no decay information and are dropped before fitting.
    fitted_c is left NaN; it needs the eps scale, which the caller has.
    """
    x = np.asarray(x, dtype=np.float64)
    diffs = np.asarray(diffs, dtype=np.float64)
    keep = np.isfinite(diffs) & (diffs > floor)
    x, diffs = x[keep], diffs[keep]
    if x.size < 3:
        raise ValueError("not enough usable decay points to fit")
    y = np.log(diffs)
    slope, intercept = np.polyfit(x, y, 1)
    pred = slope * x + intercept
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return TruncationDecayReport(
        x=x,
        log_diff=y,
        slope=float(slope),
        intercept=float(intercept),
        r_squared=r2,
        fitted_c=math.nan,
        points_used=int(x.size),
    )


def gamma_truncation_experiment(
    params: ModelParams, beta_grid, z: float
) -> TruncationDecayReport:
    """Measure log|G - G_truncated| against the truncation span N^(1-beta)
    over a beta grid at fixed parameters, and fit the decay line.

    fitted_c solves slope = -log(1 + c*sqrt(eps)) for c.
    """
    full = g_check(params, z).g_values[-1]
    xs, diffs = [], []
    for beta in np.asarray(beta_grid, dtype=np.float64):
        span = int(params.n_particles ** (1.0 - beta))
        if span < 4:
            continue
        xs.append(span - span % 2)
        diffs.append(abs(full - g_truncated(params, z, float(beta))))
    report = fit_truncation_decay(np.array(xs), np.array(diffs))
    c = math.expm1(-report.slope) / math.sqrt(params.epsilon)
    return TruncationDecayReport(
        x=report.x,
        log_diff=report.log_diff,
        slope=report.slope,
        intercept=report.intercept,
        r_squared=report.r_squared,
        fitted_c=c,
        points_used=report.points_used,
    )
