"""Ground-state energy from the fixed-point equation, gap accounting,
and the error budget against the closed-form approximation.

The fixed-point function f is continuous and strictly decreasing (slope
<= -1) on the admissible window, and concave wherever the flow is valid,
so a safeguarded Newton iteration inside a sign-change bracket converges
to the unique root; one flow pass gives f and its exact slope.  At
spectral parameters where the geometric-series condition of the flow
fails, the root necessarily lies below, which lets the search treat
"invalid" as "to the right of the root" without ever leaving certified
territory.  The search stops once |f(z)| <= tol_root * phi, which the
slope bound turns into |z - z*| <= tol_root * phi.
"""

import math
from dataclasses import dataclass
from typing import Optional, Tuple

from .flow import FlowDomainError, g_check, level_coefficients
from .model import (
    AssumptionReport,
    FlowConfig,
    ModelParams,
    SpectralWindow,
    bogoliubov_energy,
    check_assumptions,
    spectral_window,
)
from .oracle import build_sector_hamiltonian, low_spectrum, lowest_eigenpair

# coefficient of sqrt(eps)*phi*sqrt(eps^2+2eps) in the root's upper bound
UPPER_BOUND_COEF = (2.0 * math.sqrt(2.0) + 3.0) / 6.0
# coefficient of the same scale in the sector-gap floor
GAP_COEF = (3.0 - 2.0 * math.sqrt(2.0)) / 6.0

# decay constant of the truncation error (1/(1+c*sqrt(eps)))^(N^(1-beta)),
# conservative lower end of the range measured by the truncation-decay
# experiment (1.0 at eps=0.01 to 1.4 at eps=0.04).  Diagnostic use only.
FITTED_DECAY_C = 1.0
# multiplier absorbing the unspecified constants of the three budget terms
BUDGET_FACTOR = 10.0


class BracketError(RuntimeError):
    """No sign change of f in the search bracket."""


@dataclass(frozen=True)
class GroundEnergyResult:
    z_star: float
    iterations: int  # Newton and bisection steps after the bracket probes
    window: SpectralWindow
    bracket: Tuple[float, float]
    upper_bound_check: bool
    f_at_z_star: float
    assumptions: AssumptionReport
    extended_bracket: bool
    oracle_delta: Optional[float] = None


def _flow_side(params, z):
    """+1 if f(z) > 0 (left of the root), -1 otherwise.

    An invalid flow table means z is above the ground energy, i.e. on
    the -1 side: the geometric-series condition holds at every level for
    all z below the smallest eigenvalue.
    """
    return 1 if _f_or_right(_flow_point(params, z)) > 0.0 else -1


def _flow_point(params, z, coefficients=None):
    """(f(z), f'(z)), or None where the flow is invalid or trips the
    pole guard (z is then right of the root).  coefficients is
    level_coefficients(params), computed by g_check when not given."""
    try:
        table = g_check(params, z, coefficients=coefficients)
    except FlowDomainError:
        return None
    return (table.f_value, table.f_slope) if table.valid else None


def _f_or_right(point) -> float:
    # an invalid point counts as right of the root, where f < 0
    return point[0] if point is not None else -math.inf


def solve_fixed_point(
    params: ModelParams,
    cfg: Optional[FlowConfig] = None,
    compare_oracle: bool = False,
) -> GroundEnergyResult:
    """Locate the unique root of the fixed-point function.

    The bracket is the spectral window; if the window top is below the
    root (possible outside the proven regime) the bracket becomes
    [window top, 0], and 0 always lies above the ground energy for
    phi > 0.  Inside it runs a safeguarded Newton iteration on the exact
    slope (rtsafe, Numerical Recipes 9.4).  It starts from the bracket
    top when the flow is valid there and |f| is no larger than at the
    bottom, which is the case at every in-regime point: f is concave
    where the flow is valid, so Newton steps from the right of the root
    stay right of it and converge monotonically.  Otherwise it starts
    from the bottom and overshoots to the right once.  A step from an
    invalid point, a Newton step that leaves the bracket, and one longer
    than half the step before it bisect instead.  The search stops once
    |f(z)| <= tol_root * phi; since f' <= -1 that certifies
    |z - z*| <= tol_root * phi.  result.iterations counts the Newton and
    bisection steps after the bracket probes.
    """
    cfg = cfg or FlowConfig()
    if params.phi <= 0.0:
        raise ValueError("solver requires phi > 0")
    report = check_assumptions(params, cfg)
    window = spectral_window(params, cfg)
    phi = params.phi
    coefficients = level_coefficients(params)

    lo = window.z_min
    for _ in range(64):
        at_lo = _flow_point(params, lo, coefficients)
        if _f_or_right(at_lo) > 0.0:
            break
        lo -= 10.0 * phi
    else:
        raise BracketError("could not find a lower bracket with f > 0")

    hi = window.z_max
    extended = False
    at_hi = _flow_point(params, hi, coefficients)
    if _f_or_right(at_hi) > 0.0:
        # window closes below the root; only meaningful outside the regime
        if report.solver_regime_ok:
            raise BracketError("no sign change inside the spectral window")
        lo, at_lo = hi, at_hi
        hi = 0.0
        extended = True
        at_hi = _flow_point(params, hi, coefficients)
        if _f_or_right(at_hi) > 0.0:
            raise BracketError("no sign change in the extended bracket")

    tol = cfg.tol_root * phi
    if at_hi is not None and abs(at_hi[0]) <= abs(at_lo[0]):
        z, point = hi, at_hi
    else:
        z, point = lo, at_lo
    iterations = 0
    last_step = math.inf
    while True:
        f = _f_or_right(point)
        if f > 0.0:
            lo = z
        else:
            hi = z
        if abs(f) <= tol:
            break
        z_new = z - f / point[1] if point is not None else math.nan
        if not (lo < z_new < hi and abs(z_new - z) < 0.5 * last_step):
            z_new = 0.5 * (lo + hi)
            if hi - lo <= tol or not lo < z_new < hi:
                break  # bracket exhausted: z, one of its ends, is within tol
        last_step = abs(z_new - z)
        z = z_new
        point = _flow_point(params, z, coefficients)
        iterations += 1
    z_star = z

    eps = params.epsilon
    cap = bogoliubov_energy(params) + UPPER_BOUND_COEF * math.sqrt(eps) * phi * math.sqrt(
        eps * (eps + 2.0)
    )
    oracle_delta = None
    if compare_oracle:
        pair = lowest_eigenpair(build_sector_hamiltonian(params))
        oracle_delta = abs(z_star - pair.value)
    return GroundEnergyResult(
        z_star=z_star,
        iterations=iterations,
        window=window,
        bracket=(lo, hi),
        upper_bound_check=z_star < cap,
        f_at_z_star=point[0] if point is not None else math.nan,
        assumptions=report,
        extended_bracket=extended,
        oracle_delta=oracle_delta,
    )


@dataclass(frozen=True)
class GapReport:
    sector_gap: float
    delta0: float
    gap_floor: float
    combined_floor: float
    sector_ok: bool
    combined_ok: bool


def gap_bound_check(params: ModelParams) -> GapReport:
    """Sector gap lambda_1 - lambda_0 against its analytic floor.

    Modes outside the interacting triple cost at least delta0, which
    enters only through the min with delta0/2; the sector-internal floor
    is GAP_COEF * sqrt(eps) * phi * sqrt(eps^2 + 2eps).
    """
    eps, phi = params.epsilon, params.phi
    tri = build_sector_hamiltonian(params)
    lam = low_spectrum(tri, 2) if tri.size >= 2 else None
    sector_gap = float(lam[1] - lam[0]) if lam is not None else math.inf
    gap_floor = GAP_COEF * math.sqrt(eps) * phi * math.sqrt(eps * (eps + 2.0))
    combined_floor = min(0.5 * params.delta0, gap_floor)
    return GapReport(
        sector_gap=sector_gap,
        delta0=params.delta0,
        gap_floor=gap_floor,
        combined_floor=combined_floor,
        sector_ok=sector_gap >= gap_floor,
        combined_ok=min(sector_gap, params.delta0) >= combined_floor,
    )


@dataclass(frozen=True)
class ErrorBudget:
    """Structural terms of |z* - E| with fitted constants; diagnostic only."""

    term_truncation: float  # 1/(eps * N^beta)
    term_geometric: float  # eps^-1/2 * (1/(1+c*sqrt(eps)))^(N^(1-beta))
    term_inverse_n: float  # 1/N
    measured: float
    fitted_c: float
    budget: float
    in_budget: bool
    regime_ok: bool


def energy_error_diagnostic(
    params: ModelParams,
    cfg: Optional[FlowConfig] = None,
    result: Optional[GroundEnergyResult] = None,
    fitted_c: float = FITTED_DECAY_C,
) -> ErrorBudget:
    """Compare the measured |z* - E| with the three-term budget.

    The budget needs 1/N^beta small against eps and 1/N^(1-beta) small
    against sqrt(eps) (realized as a factor-10 separation); otherwise the
    report flags the regime as violated and claims nothing.
    """
    cfg = cfg or FlowConfig()
    eps, n, phi = params.epsilon, params.n_particles, params.phi
    beta = cfg.beta
    regime_ok = (1.0 / n**beta <= 0.1 * eps) and (
        1.0 / n ** (1.0 - beta) <= 0.1 * math.sqrt(eps)
    )
    if result is None:
        result = solve_fixed_point(params, cfg)
    measured = abs(result.z_star - bogoliubov_energy(params))

    t1 = phi / (eps * n**beta)
    t2 = phi / math.sqrt(eps) * (1.0 / (1.0 + fitted_c * math.sqrt(eps))) ** (
        n ** (1.0 - beta)
    )
    t3 = phi / n
    budget = BUDGET_FACTOR * (t1 + t2 + t3)
    return ErrorBudget(
        term_truncation=t1,
        term_geometric=t2,
        term_inverse_n=t3,
        measured=measured,
        fitted_c=fitted_c,
        budget=budget,
        in_budget=(measured <= budget) if regime_ok else False,
        regime_ok=regime_ok,
    )
