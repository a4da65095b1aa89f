"""Ground-state vector from the flow, its tail control, and the
truncation-decay experiment.

The vector holds the amplitudes psi_0..psi_last of the eliminated shells
that flow.amplitudes builds at the fixed point (psi_0 = 1).  Where the
chain stops short of the sector, the tail series bounds the norm it
leaves out.
"""

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from . import flow
from .flow import g_check, g_truncated
from .model import ModelParams, chain_denominator, majorant_coefficients, majorant_lower_bound, power_span

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

    The chain of flow.amplitudes runs at z_star itself, where each
    eliminated block sits strictly above the ground energy; it raises
    FlowDomainError where the full pass is invalid at z_star.
    """
    half = params.n_particles // 2
    if k_max is None:
        k_max = half
    if not 0 <= k_max <= half:
        raise ValueError("k_max out of range")

    coeffs, span = flow.amplitudes(params, z_star, k_max)
    last = coeffs.size - 1
    tail_bound = _tail_norm_bound(params, abs(coeffs[-1]), last) if last < half else 0.0
    return GroundStateVector(coeffs=coeffs, z_star=z_star, tail_bound=tail_bound, flow_span=span)


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
    j = np.arange(2, j_max + 1, dtype=np.float64)
    factors = _tail_factor(majorant_coefficients(params), j)
    cvals = np.cumprod(factors)
    ratios = np.empty_like(cvals)
    ratios[0] = np.nan
    ratios[1:] = factors[1:]

    # the first j after the last factor that is not < 1 (NaN included)
    above = np.flatnonzero(~(factors < 1.0))
    start = above[-1] + 1 if above.size else 0
    threshold = int(j[start]) if start < j.size else -1
    return TailSeries(c=cvals, ratios=ratios, j=j.astype(np.int64), threshold_index=threshold)


def _tail_factor(coefficients, j):
    """c_j / c_{j-1} = 1 / (2 L(2j) * sqrt(D(2j-1))) on the family of
    model.majorant_coefficients, for a scalar or an array j."""
    a, b, c, sqrt_eta_a, xi = coefficients
    lower = majorant_lower_bound(2.0 * j, b, sqrt_eta_a, xi)
    return 1.0 / (2.0 * lower * np.sqrt(chain_denominator(2.0 * j - 1.0, a, b, c)))


def _tail_norm_bound(params, last_coeff, last_index) -> float:
    """Geometric bound on the norm omitted beyond pair index last_index,
    from the ratio c_J / c_{J-1} of tail_series at J = max(last_index + 2,
    3), computed alone; inf where that ratio is not in (0, 1) or the
    series does not exist (epsilon >= 1)."""
    if not params.epsilon < 1.0:
        return math.inf
    r = float(_tail_factor(majorant_coefficients(params), float(max(last_index + 2, 3))))
    if not (0.0 < r < 1.0):
        return math.inf
    return last_coeff * r / (1.0 - r)


@dataclass(frozen=True)
class TruncationDecayReport:
    slope: float
    r_squared: float
    fitted_c: float


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
    return TruncationDecayReport(slope=float(slope), r_squared=r2, fitted_c=math.nan)


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
