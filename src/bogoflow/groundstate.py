"""Ground-state vector from the flow, its tail control, and the
truncation-decay experiment.

The eliminated shells are reconstructed one pair at a time: with the
level <-> pair-index dictionary i = N - 2k,

    psi_0 = 1,
    psi_{k} = - G_{N-2k}(z) * t_{k-1} / (d_k - z) * psi_{k-1},

where d, t are the sector matrix elements and G the flow factors.  The
signs alternate, matching the sign structure forced by the positive
couplings.

The expansion stops once the amplitudes fall below COEFF_FLOOR of the
norm so far, after at most a few thousand pairs, so it reads G only on
the top levels, and it takes them from flow.enclosure: the top of the
full pass, read from two restarts of the flow at level N - S that
bracket it where they apply, and from the full pass elsewhere.  It asks
for the top EXPAND_BLOCK levels and for twice as many while the
expansion needs a level beyond those it got; a z where the full pass is
invalid has no vector (enclosure raises FlowDomainError).

The tail series bounds what truncating the product chain throws away.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import flow
from .flow import g_check, g_truncated
from .model import ModelParams, chain_denominator, majorant_coefficients, majorant_lower_bound, power_span
from .oracle import TridiagonalHamiltonian, sector_elements

# stop extending the vector once coefficients fall below this relative size
COEFF_FLOOR = 1e-18
# block length of the adaptive expansion
EXPAND_BLOCK = 2048
# rounding floor of |G - G_T|: differences at or below it carry no decay
DECAY_FLOOR = 1e-13


@dataclass(frozen=True)
class GroundStateVector:
    coeffs: np.ndarray  # psi_k, k = 0..k_max; psi_0 = 1 before normalization
    z_star: float
    tail_bound: float
    flow_span: int  # N - level the flow read started from: S if truncated, N if full

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coeffs))

    def normalized(self) -> np.ndarray:
        v = self.coeffs / self.norm
        nz = np.nonzero(v)[0]
        if nz.size and v[nz[0]] < 0.0:
            v = -v
        return v


def expand_ground_state(
    params: ModelParams, z_star: float, k_max: Optional[int] = None
) -> GroundStateVector:
    """Sector amplitudes of the eigenvector at the fixed point z_star.

    The flow is evaluated at z_star itself; the shared denominators are
    finite there because each eliminated block sits strictly above the
    ground energy.  G comes from flow.enclosure, which raises
    FlowDomainError where the full pass is invalid at z_star.
    """
    n = params.n_particles
    half = n // 2
    if k_max is None:
        k_max = half
    if not 0 <= k_max <= half:
        raise ValueError("k_max out of range")

    count = EXPAND_BLOCK
    while True:  # the full pass (span N) holds every level the expansion reads
        g, span = flow.enclosure(params, z_star, count)
        coeffs = _adaptive_coefficients(params, z_star, g[::-1], k_max)
        if coeffs is not None:
            break
        count *= 2
    last = coeffs.size - 1

    tail_bound = 0.0
    if last < half:
        tail_bound = _tail_norm_bound(params, abs(coeffs[-1]), last)

    return GroundStateVector(
        coeffs=coeffs,
        z_star=z_star,
        tail_bound=tail_bound,
        flow_span=span,
    )


def _ratios(params, z, g_rev, k_lo, k_hi):
    # psi_k / psi_{k-1} for k_lo <= k < k_hi; g_rev[k - 1] is G at level N - 2k
    d, t = sector_elements(params, k_lo - 1, k_hi)
    return -g_rev[k_lo - 1 : k_hi - 1] * t / (d[1:] - z)


def _adaptive_coefficients(params, z, g_rev, k_max):
    """psi_0..psi_last with the adaptive stop at the first psi_k below
    COEFF_FLOOR * |psi_0..k|, or None if a block needs G beyond g_rev.

    Block by block with the running product and norm carried over (a
    product or sum commutes, so the carry changes no bit, and cumprod
    and cumsum accumulate in index order, so every psi_k and the stop
    index equal those of the term-by-term recursion); the matrix
    elements and products past the stop, most of the products
    subnormal, are never formed.
    """
    blocks = [np.ones(1)]
    prod, norm_sq = 1.0, 1.0
    for start in range(1, k_max + 1, EXPAND_BLOCK):
        stop = min(start + EXPAND_BLOCK, k_max + 1)
        if stop - 1 > g_rev.size:
            return None
        block = _ratios(params, z, g_rev, start, stop)
        block[0] *= prod
        np.cumprod(block, out=block)
        sq = block * block
        sq[0] += norm_sq
        np.cumsum(sq, out=sq)
        small = np.abs(block) < COEFF_FLOOR * np.sqrt(sq)
        if small.any():
            blocks.append(block[: int(np.argmax(small)) + 1])
            break
        blocks.append(block)
        prod, norm_sq = float(block[-1]), float(sq[-1])
    return np.concatenate(blocks)


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


def tail_series(params: ModelParams, j_max: int) -> TailSeries:
    """Majorant series for the omitted part of the coefficient chain.

    c_j is the product over l = 2..j of 1 / (2 L(2l) * sqrt(D(2l-1))),
    with L = model.majorant_lower_bound and D = model.chain_denominator
    on the family of model.majorant_coefficients.  The ratio
    c_j/c_{j-1} drops below 1 from some eps-dependent index on, making
    the series convergent (ever more slowly as eps -> 0).
    """
    if j_max < 2:
        raise ValueError("j_max must be >= 2")
    a, b, c, sqrt_eta_a, xi = majorant_coefficients(params)

    j = np.arange(2, j_max + 1, dtype=np.float64)
    factors = 1.0 / (
        2.0 * majorant_lower_bound(2.0 * j, b, sqrt_eta_a, xi)
        * np.sqrt(chain_denominator(2.0 * j - 1.0, a, b, c))
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


def _tail_norm_bound(params, last_coeff, last_index) -> float:
    """Geometric bound on the norm omitted beyond pair index last_index,
    from the ratio c_J / c_{J-1} of tail_series at J = max(last_index + 2,
    3), computed alone; inf where that ratio is not in (0, 1) or the
    series does not exist (epsilon >= 1)."""
    if not params.epsilon < 1.0:
        return math.inf
    a, b, c, sqrt_eta_a, xi = majorant_coefficients(params)
    j = float(max(last_index + 2, 3))
    lower = majorant_lower_bound(2.0 * j, b, sqrt_eta_a, xi)
    r = float(1.0 / (2.0 * lower * np.sqrt(chain_denominator(2.0 * j - 1.0, a, b, c))))
    if not (0.0 < r < 1.0):
        return math.inf
    return last_coeff * r / (1.0 - r)


@dataclass(frozen=True)
class TruncationDecayReport:
    x: np.ndarray  # N^(1-beta) values actually used
    log_diff: np.ndarray
    slope: float
    intercept: float
    r_squared: float
    fitted_c: float
    points_used: int


def fit_truncation_decay(x, diffs) -> TruncationDecayReport:
    """Least-squares line through log|difference| vs truncation span.

    Points where the difference has hit DECAY_FLOOR (or vanished exactly)
    carry no decay information and are dropped before fitting.
    fitted_c is left NaN; it needs the eps scale, which the caller has.
    """
    x = np.asarray(x, dtype=np.float64)
    diffs = np.asarray(diffs, dtype=np.float64)
    keep = np.isfinite(diffs) & (diffs > DECAY_FLOOR)
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
    """Measure log|G - G_truncated| against the restart span
    model.power_span(N, 1 - beta) over a beta grid at fixed parameters,
    and fit the decay line; betas whose span is below 4 are skipped.

    fitted_c solves slope = -log(1 + c*sqrt(eps)) for c.
    """
    full = g_check(params, z).g_values[-1]
    xs, diffs = [], []
    for beta in np.asarray(beta_grid, dtype=np.float64):
        try:
            xs.append(power_span(params.n_particles, 1.0 - beta))
        except ValueError:
            continue
        diffs.append(abs(full - g_truncated(params, z, float(beta))))
    report = fit_truncation_decay(np.array(xs), np.array(diffs))
    return replace(report, fitted_c=math.expm1(-report.slope) / math.sqrt(params.epsilon))
