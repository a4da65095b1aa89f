"""Ground-state energy from the fixed-point equation, the paper's bounds
on it and on the sector gap, and the error budget against the
closed-form approximation.  Nothing here calls the exact oracle:
verify.compare_point runs both routes for the callers that compare.

The fixed-point function f is continuous and strictly decreasing (slope
<= -1) on the admissible window, and concave wherever the flow is valid,
so a safeguarded Newton iteration converges to the unique root; one
flow pass gives f and its exact slope.  The iteration starts at the
closed-form Bogoliubov energy, which the root approaches as N grows, and
measures the ends of its sign-change bracket only when a safeguard
needs them.  Inside the proven regime it first steers on the flow
restarted s levels below the top (O(s) passes, s set by eps); one full
O(N) pass from there certifies the root.  At spectral parameters where
the geometric-series condition of the flow fails, the root necessarily
lies below, which lets the search treat "invalid" as "to the right of
the root" without ever leaving certified territory.  The search stops
once |f(z)| <= TOL_ROOT * phi, which the slope bound turns into
|z - z*| <= TOL_ROOT * phi, or once the safeguard rejects a Newton step
no longer than that: f is then at its rounding floor, which can lie
above TOL_ROOT * phi.
"""

import math
from dataclasses import dataclass
from typing import Tuple

from .flow import FITTED_DECAY_C, g_check, truncation_span
from .model import (
    BETA,
    AssumptionReport,
    ModelParams,
    SpectralWindow,
    bogoliubov_energy,
    check_assumptions,
    spectral_window,
)

# coefficient of sqrt(eps)*phi*sqrt(eps^2+2eps) in the root's upper bound
UPPER_BOUND_COEF = (2.0 * math.sqrt(2.0) + 3.0) / 6.0
# coefficient of the same scale in the sector-gap floor
GAP_COEF = (3.0 - 2.0 * math.sqrt(2.0)) / 6.0

# multiplier absorbing the unspecified constants of the three budget terms
BUDGET_FACTOR = 10.0
# the root search's stop: |f(z)| <= TOL_ROOT * phi certifies |z - z*| <= TOL_ROOT * phi
TOL_ROOT = 1e-12


class BracketError(RuntimeError):
    """No sign change of f in the search bracket."""


@dataclass(frozen=True)
class GroundEnergyResult:
    z_star: float
    iterations: int  # Newton and bisection steps after each stage's first evaluation
    evaluations: int  # flow passes, bracket probes included
    full_evaluations: int  # the O(N) passes among them
    window: SpectralWindow
    bracket: Tuple[float, float]
    upper_bound_check: bool
    f_at_z_star: float
    assumptions: AssumptionReport
    extended_bracket: bool


def flow_side(params, z):
    """+1 if f(z) > 0 (left of the root), -1 otherwise.

    An invalid flow table means z is above the ground energy, i.e. on
    the -1 side: the geometric-series condition holds at every level for
    all z below the smallest eigenvalue.
    """
    return 1 if _f_or_right(_flow_point(params, z)) > 0.0 else -1


def _flow_point(params, z, start_level=0):
    """(f(z), f'(z)) of the flow from start_level, or None where it is
    invalid (z is then right of the root)."""
    table = g_check(params, z, start_level)
    return (table.f_value, table.f_slope) if table.valid else None


def _f_or_right(point) -> float:
    # an invalid point counts as right of the root, where f < 0
    return point[0] if point is not None else -math.inf


def solve_fixed_point(params: ModelParams) -> GroundEnergyResult:
    """Locate the unique root of the fixed-point function.

    Safeguarded Newton on the exact slope (rtsafe, Numerical Recipes
    9.4), started at min(E, window top) with E the closed-form
    Bogoliubov energy.  z* - E is positive and O(1/N) wherever it has
    been measured, so the start lies just left of the root; f is concave
    where the flow is valid, so the first step lands just right of the
    root and the next ones converge monotonically from there, in 2-4
    flow passes at in-regime points.

    Inside the proven regime, and if N > s = flow.truncation_span(params),
    the loop runs twice.  Stage 1 steers on the flow restarted with value
    1 at level N - s: O(s) passes, whose root the deeper shells move by
    about (1 + FITTED_DECAY_C*sqrt(eps))^-s <= 1e-16.  Stage 2 certifies
    on the full flow from stage 1's last iterate (from min(E, window top)
    if stage 1 raised BracketError or ended invalid); in the regime its
    first pass meets the stop rule.  All fields but the counts come from
    stage 2, so stage 1 changes the cost of a solve, never its answer.

    result.bracket = (lo, hi): f > 0 was measured at lo, and f <= 0 or
    an invalid flow at hi; every iterate moves the end on its side.  An
    end not yet measured is the window end, z_min or z_max, and it is
    measured only when the safeguard rejects a Newton step: a step from
    an invalid point, one that leaves the bracket, or one longer than
    half the step before it.  The search then goes on from the measured
    end if |f| is smaller there, and bisects if the step is still
    rejected.  The bottom probe steps down from z_min by 10*phi until
    f > 0.  f > 0 at the window top puts the root above it: inside the
    proven regime that is a BracketError, outside it the top end moves
    to 0 (extended_bracket), which lies above the ground energy for
    phi > 0 and is measured on the same terms.

    A stage stops once |f(z)| <= TOL_ROOT * phi; since f' <= -1 that
    certifies |z - z*| <= TOL_ROOT * phi.  Where the rounding noise of f
    exceeds that (large |f'|, as at N = 2e5, eps = 1e-6), it stops at a
    rejected Newton step no longer than TOL_ROOT * phi instead of
    bisecting the bracket down to that width.  result.iterations counts
    the Newton and bisection steps after each stage's first evaluation,
    result.evaluations every flow pass, bracket probes included, and
    result.full_evaluations the O(N) passes among them.
    result.upper_bound_check is z* < energy_cap(params).
    """
    if params.phi <= 0.0:
        raise ValueError("solver requires phi > 0")
    report = check_assumptions(params)
    window = spectral_window(params)
    phi = params.phi
    tol = TOL_ROOT * phi
    # the current stage's flow start and bracket (set by search), and counts
    start_level = lo = hi = lo_known = hi_known = extended = None
    evaluations = full_evaluations = iterations = 0

    def measure(z):
        # one flow pass; moves the bracket end on the side of the root it finds
        nonlocal lo, hi, lo_known, hi_known, extended, evaluations, full_evaluations
        evaluations += 1
        full_evaluations += start_level == 0
        point = _flow_point(params, z, start_level)
        if _f_or_right(point) <= 0.0:
            hi, hi_known = z, True
        elif z < hi:
            lo, lo_known = z, True
        # f > 0 at the top end itself: the root lies above it
        elif extended:
            raise BracketError("no sign change in the extended bracket")
        elif report.solver_regime_ok:
            raise BracketError("no sign change inside the spectral window")
        else:
            # window closes below the root; only meaningful outside the regime
            lo, lo_known = z, True
            hi, extended = 0.0, True
        return point

    def search(z, level):
        # one stage on the flow from level, started at z; returns the
        # last iterate and its (f, f'), or None where the flow is invalid
        nonlocal start_level, lo, hi, lo_known, hi_known, extended, iterations
        start_level = level
        lo, hi = window.z_min, window.z_max
        lo_known = hi_known = extended = False
        point = measure(z)
        last_step = math.inf
        while True:
            f = _f_or_right(point)
            if abs(f) <= tol:
                break
            z_new = z - f / point[1] if point is not None else math.nan
            admissible = lo < z_new < hi and abs(z_new - z) < 0.5 * last_step
            if not admissible and not (lo_known and hi_known):
                # measure a bracket end the safeguard needs; the search goes
                # on from that end when f is smaller there
                if lo_known:
                    z_end, at_end = hi, measure(hi)
                else:
                    for _ in range(64):
                        z_end, at_end = lo, measure(lo)
                        if lo_known:
                            break
                        lo -= 10.0 * phi
                    else:
                        raise BracketError("could not find a lower bracket with f > 0")
                if abs(_f_or_right(at_end)) < abs(f):
                    z, point = z_end, at_end
                continue
            if not admissible:
                if abs(z_new - z) <= tol:
                    break  # a rejected step within tol: f is at its rounding floor
                z_new = 0.5 * (lo + hi)
                if hi - lo <= tol or not lo < z_new < hi:
                    break  # bracket exhausted: z, one of its ends, is within tol
            last_step = abs(z_new - z)
            z = z_new
            point = measure(z)
            iterations += 1
        return z, point

    e_bog = bogoliubov_energy(params)
    z = min(e_bog, window.z_max)
    restart = params.n_particles - truncation_span(params)
    if report.solver_regime_ok and restart > 0:
        try:
            z_steered, steered = search(z, restart)
        except BracketError:  # stage 2 then starts from min(E, window top)
            steered = None
        z = z_steered if steered is not None else z
    z_star, point = search(z, 0)
    return GroundEnergyResult(
        z_star=z_star,
        iterations=iterations,
        evaluations=evaluations,
        full_evaluations=full_evaluations,
        window=window,
        bracket=(lo, hi),
        upper_bound_check=z_star < energy_cap(params),
        f_at_z_star=point[0] if point is not None else math.nan,
        assumptions=report,
        extended_bracket=extended,
    )


def energy_cap(params: ModelParams) -> float:
    """The paper's upper bound on the ground energy z*."""
    eps, phi = params.epsilon, params.phi
    return bogoliubov_energy(params) + UPPER_BOUND_COEF * math.sqrt(eps) * phi * math.sqrt(eps * (eps + 2.0))


def gap_floor(params: ModelParams) -> float:
    """The paper's floor on the sector gap lambda_1 - lambda_0 (delta0 left out)."""
    eps, phi = params.epsilon, params.phi
    return GAP_COEF * math.sqrt(eps) * phi * math.sqrt(eps * (eps + 2.0))


@dataclass(frozen=True)
class ErrorBudget:
    """Structural terms of |z* - E| with fitted constants; diagnostic only."""

    term_truncation: float  # 1/(eps * N^BETA)
    term_geometric: float  # eps^-1/2 * (1/(1+c*sqrt(eps)))^(N^(1-BETA))
    term_inverse_n: float  # 1/N
    measured: float
    budget: float
    in_budget: bool
    regime_ok: bool


def energy_error_diagnostic(params: ModelParams) -> ErrorBudget:
    """Compare the measured |z* - E| with the three-term budget.

    The budget needs 1/N^BETA small against eps and 1/N^(1-BETA) small
    against sqrt(eps) (realized as a factor-10 separation); otherwise the
    report flags the regime as violated and claims nothing.
    """
    eps, n, phi = params.epsilon, params.n_particles, params.phi
    regime_ok = (1.0 / n**BETA <= 0.1 * eps) and (
        1.0 / n ** (1.0 - BETA) <= 0.1 * math.sqrt(eps)
    )
    measured = abs(solve_fixed_point(params).z_star - bogoliubov_energy(params))

    t1 = phi / (eps * n**BETA)
    t2 = phi / math.sqrt(eps) * (1.0 / (1.0 + FITTED_DECAY_C * math.sqrt(eps))) ** (
        n ** (1.0 - BETA)
    )
    t3 = phi / n
    budget = BUDGET_FACTOR * (t1 + t2 + t3)
    return ErrorBudget(
        term_truncation=t1,
        term_geometric=t2,
        term_inverse_n=t3,
        measured=measured,
        budget=budget,
        in_budget=(measured <= budget) if regime_ok else False,
        regime_ok=regime_ok,
    )
