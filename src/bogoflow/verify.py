"""Property suites: every analytic identity, bound, and equivalence the
package claims, runnable as one machine-readable report.

Each check returns a PropertyResult with the measured margin (positive
means the property holds with room to spare).  run_all drives the whole
battery on a default grid; the CLI verify mode and the acceptance tests
call the same functions with their own grids.  compare_point runs both
routes once at a point: the cf row and the four oracle rows reduce a
grid of its records, and a CLI solve or sweep point formats one.
"""

import math
import time
from dataclasses import dataclass, field
from functools import partial
from typing import List, Optional, Sequence

import numpy as np

from . import flow, groundstate, oracle, sequences, spectrum
from .model import (
    ModelParams,
    b_coefficient,
    bogoliubov_energy,
    c_coefficient,
    chain_denominator,
    power_span,
    spectral_window,
)

DEFAULT_GRID_N = (2, 4, 16, 128, 1024)
DEFAULT_GRID_EPS = (0.5, 0.1, 0.01)

# The checks' fixed settings, one name per gate.  The equivalence
# tolerances never move: 1e-10 on energies, 1 - 1e-9 on overlaps, 1e-12
# on the continued-fraction identity.
CF_TOL = 1e-12  # relative, flow f(z) against the matrix Schur complement
CF_POINTS = 20  # sub-spectral z per grid point
ENERGY_TOL = 1e-10  # |z* - lambda0|
OVERLAP_TOL = 1e-9  # overlap >= 1 - OVERLAP_TOL
RESIDUAL_FACTOR = 1e-8  # eigen-residual of the expanded vector / norm_inf
MONOTONICITY_POINTS = 8
LEVEL_TOL = 1e-12  # least increment of G between neighbouring z
Y_RESIDUAL_TOL = 1e-12  # closed form in its own recursion, relative
Y_RESIDUAL_EPS = np.geomspace(1e-6, 0.5, 13)  # epsilon grid of that residual
ACCESSORI_TOL = 1e-13  # product identity, relative
ACCESSORI_EPS = (0.0, 0.01, 0.1)  # the identity's (epsilon, delta) grid
ACCESSORI_DELTAS = (0.0, 1.0, 1.3, 1.99)
EBOG_EPS = 0.01  # epsilon of the convergence check
EBOG_SLOPE_RANGE = (-1.5, -0.4)  # log-log slope of |z* - E_bog| against N
TRUNCATION_N_CAP = 10**5  # largest N of the truncation-decay fits
TRUNCATION_EPS = (0.04, 0.01)  # one fit per (epsilon, beta)
TRUNCATION_BETAS = (0.3, 0.5, 0.7)
R2_FLOOR = 0.95  # least R^2 of those fits
UNIQUENESS_PROBES = 100
UNIQUENESS_SEED = 7


@dataclass
class PropertyResult:
    name: str
    passed: bool
    margin: float  # smallest slack observed; negative quantifies a failure
    details: str = ""
    # run_all's timing of the check; not part of the row
    wall_ms: float = field(default=0.0, compare=False)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": bool(self.passed),
            "margin": float(self.margin) if math.isfinite(self.margin) else None,  # strict JSON
            "details": self.details,
        }


def _subspectral_grid(lam0: float, phi: float, count: int) -> np.ndarray:
    """count points strictly below lam0, offsets log-spaced in [0.01, 3]*phi."""
    offsets = np.geomspace(0.01, 3.0, count) * phi
    return lam0 - offsets


def check_cf_equivalence(records: Sequence["PointComparison"], perturb_tk: float = 0.0) -> PropertyResult:
    """Flow fixed-point function against the directly evaluated matrix
    Schur complement of each record, at sub-spectral z.  perturb_tk != 0
    multiplies one coupling of a copy by (1 + perturb_tk): a negative control.
    """
    worst, where = 0.0, ""
    for rec in records:
        params, tri, lam0 = rec.params, rec.tri, rec.lambda0
        if perturb_tk:
            # perturb a shallow coupling: deep ones are geometrically
            # suppressed in the folded function and would go unseen
            off = tri.offdiag.copy()
            off[min(1, len(off) - 1)] *= 1.0 + perturb_tk
            tri = oracle.TridiagonalHamiltonian(diag=tri.diag, offdiag=off)
            lam0 = oracle.lowest_eigenpair(tri).value
        for z in _subspectral_grid(lam0, params.phi, CF_POINTS):
            f_flow = flow.f_of_z(params, z)
            f_direct = oracle.schur_complement(tri, z)
            rel = abs(f_flow - f_direct) / abs(f_direct)
            if rel > worst:
                worst, where = rel, f"n={params.n_particles} eps={params.epsilon} z={z:.6g}"
    return PropertyResult(
        name="cf_equivalence",
        passed=worst <= CF_TOL,
        margin=CF_TOL - worst,
        details=f"worst rel diff {worst:.3e} at {where}; tol {CF_TOL:g}",
    )


def check_flow_monotonicity(params: ModelParams) -> PropertyResult:
    """G nondecreasing in z at every level, and f slope <= -1."""
    lam0 = oracle.lowest_eigenpair(oracle.build_sector_hamiltonian(params)).value
    zs = _subspectral_grid(lam0, params.phi, MONOTONICITY_POINTS)
    zs.sort()
    worst = math.inf
    f_slope_worst = -math.inf
    prev_table = None
    for z in zs:
        table = flow.g_check(params, z)
        if prev_table is not None:
            dg = table.g_values - prev_table.g_values
            worst = min(worst, float(dg.min()))
            slope = (table.f_value - prev_table.f_value) / (z - prev_table.z)
            f_slope_worst = max(f_slope_worst, slope)
        prev_table = table
    ok = worst >= -LEVEL_TOL and f_slope_worst <= -1.0 + 1e-9
    return PropertyResult(
        name="flow_monotonicity",
        passed=ok,
        margin=min(worst + LEVEL_TOL, -1.0 - f_slope_worst + 1e-9),
        details=f"min level increment {worst:.3e}, max f slope {f_slope_worst:.6f}",
    )


def check_w_bound(params: ModelParams) -> PropertyResult:
    """Each coupling product at the window edge for slope delta stays below
    1/(4 D(N-i+1)), D = model.chain_denominator with b, c at delta, for
    delta = 1, 1 + sqrt(eps)/2 and 1 + sqrt(eps)."""
    eps, phi, n = params.epsilon, params.phi, params.n_particles
    root = math.sqrt(eps)
    deltas = (1.0, 1.0 + 0.5 * root, 1.0 + root)
    e_bog = bogoliubov_energy(params)
    s = math.sqrt(eps * (eps + 2.0))
    a = 2.0 * eps + eps * eps
    worst = math.inf
    for delta in deltas:
        z = e_bog + (delta - 1.0) * phi * s
        b = b_coefficient(eps, delta)
        c = c_coefficient(eps, delta)
        table = flow.g_check(params, z)
        levels = table.levels[1:]
        w = table.w_products[1:]  # dimensionless: phi^2 over (energy)^2
        m = n - levels + 1.0
        cap = 1.0 / (4.0 * chain_denominator(m, a, b, c))
        slack = cap - w
        tol = sequences.bound_tolerance(w)
        worst = min(worst, float((slack + tol).min()))
    return PropertyResult(
        name="w_bound",
        passed=worst >= 0.0,
        margin=worst,
        details=f"min slack {worst:.3e} over deltas {deltas}",
    )


def check_g_lower_bound_link(params: ModelParams) -> PropertyResult:
    """Flow factors dominate the reciprocal minorant chain on the tail:
    G_i >= 1/xtilde_i for levels from N - N^(1-GAMMA) on, at the window
    top.

    G on the chain's levels comes from flow.enclosure: the full pass's
    values, read from two restarts that agree bit for bit on every one
    of those levels where they apply, and from the full pass elsewhere
    (FlowDomainError where that pass is invalid).
    """
    z = spectral_window(params).z_max
    seq = sequences.xtilde_sequence(params)
    count = seq.values.size  # the chain covers the top count levels
    g_on_levels = flow.enclosure(params, z, count)[0][-count:]
    with np.errstate(divide="ignore"):
        recip = 1.0 / seq.values
    ok_mask = seq.values > 0.0
    slack = g_on_levels[ok_mask] - recip[ok_mask]
    tol = sequences.bound_tolerance(recip[ok_mask])
    worst = float((slack + tol).min())
    return PropertyResult(
        name="g_lower_bound_link",
        passed=bool(np.all(ok_mask)) and worst >= 0.0,
        margin=worst,
        details=f"min G - 1/xtilde = {worst:.3e} on {int(ok_mask.sum())} levels",
    )


def check_x_bounds(params: ModelParams) -> PropertyResult:
    """The majorant chain stays above its lower bound at every even N, by
    sequences.majorant_step; the row reads params.epsilon alone."""
    margin, slack, level, tail, failures = sequences.majorant_step(params)
    return PropertyResult(
        name="x_lower_bound",
        passed=not failures,
        margin=margin,
        details=f"min step slack {slack:.3e} at m = {level}, tail bound {tail:.3e} beyond m = {sequences.STEP_SPAN}: "
        + ("; ".join(failures) or "X >= L at every even N"),
    )


def check_xtilde_bounds(params: ModelParams) -> PropertyResult:
    seq = sequences.xtilde_sequence(params)
    finite = np.isfinite(seq.bound)
    margin = seq.margin[finite]
    tol = sequences.bound_tolerance(seq.values[finite])
    worst = float((margin + tol).min()) if margin.size else math.inf
    return PropertyResult(
        name="xtilde_upper_bound",
        passed=seq.holds() and seq.first_nonpositive < 0,
        margin=worst,
        details=f"min tail margin {float(margin.min()):.3e} on {margin.size} entries",
    )


def check_y_closed_residual(l_values: Optional[np.ndarray] = None) -> PropertyResult:
    if l_values is None:
        l_values = np.unique(np.geomspace(2, 1e6, 25).astype(np.int64)).astype(float)
    worst = 0.0
    for eps in Y_RESIDUAL_EPS:
        res = sequences.y_closed_recursion_residual(l_values, float(eps))
        worst = max(worst, float(np.max(res)))
    return PropertyResult(
        name="y_closed_residual",
        passed=worst <= Y_RESIDUAL_TOL,
        margin=Y_RESIDUAL_TOL - worst,
        details=f"max recursion residual {worst:.3e}; tol {Y_RESIDUAL_TOL:g}",
    )


def check_accessori(m_values: Optional[np.ndarray] = None) -> PropertyResult:
    if m_values is None:
        m_values = np.unique(np.geomspace(3, 1e6, 40).astype(np.int64))
    worst = 0.0
    for eps in ACCESSORI_EPS:
        for delta in ACCESSORI_DELTAS:
            worst = max(worst, sequences.accessori_identity_check(eps, delta, m_values))
    return PropertyResult(
        name="accessori_identity",
        passed=worst <= ACCESSORI_TOL,
        margin=ACCESSORI_TOL - worst,
        details=f"max relative residual {worst:.3e}; tol {ACCESSORI_TOL:g}",
    )


def check_coefficient_identities() -> PropertyResult:
    """(1 + eps)^2 = 1 + a' and sqrt(1 + a') = 1 + eps, at rounding level;
    the rational fixed point solves its equation to 1 ulp."""
    worst = 0.0
    for eps in np.geomspace(1e-8, 1.0, 30):
        a = eps * eps + 2.0 * eps
        worst = max(worst, abs((1.0 + a) - (1.0 + eps) ** 2) / (1.0 + a))
        worst = max(worst, abs(math.sqrt(1.0 + a) - (1.0 + eps)) / (1.0 + eps))
        y = sequences.rational_fixed_point(a)
        worst = max(worst, abs(y - (1.0 - 1.0 / (4.0 * (1.0 + a) * y))))
    tol = 1e-15
    return PropertyResult(
        name="coefficient_identities",
        passed=worst <= tol,
        margin=tol - worst,
        details=f"max identity residual {worst:.3e}",
    )


@dataclass(frozen=True)
class PointComparison:
    """Both routes at one point: the flow's root and expansion against the
    oracle's lowest pair and gap."""

    params: ModelParams
    result: spectrum.GroundEnergyResult
    lambda0: float
    block_size: int  # the oracle's K, EigenPair.block_size
    enclosure: float  # its certified width, EigenPair.enclosure
    gap: float  # lambda_1 - lambda_0
    overlap: float  # |<psi, v0>|, psi the normalized expansion at z*
    tri: oracle.TridiagonalHamiltonian = field(repr=False)
    vector: groundstate.GroundStateVector = field(repr=False)  # the expansion at z*

    @property
    def oracle_delta(self) -> float:
        return abs(self.result.z_star - self.lambda0)

    def relative_residual(self) -> float:
        """The expansion's eigen-residual over norm_inf: O(N), so computed
        only where check_overlap reads it."""
        return oracle.eigen_residual(self.tri, self.vector.coeffs, self.result.z_star) / self.tri.norm_inf()


def compare_point(params: ModelParams) -> PointComparison:
    """The flow and the oracle, each run once at params: the one place
    that runs both routes side by side."""
    result = spectrum.solve_fixed_point(params)
    tri = oracle.build_sector_hamiltonian(params)
    pair = oracle.lowest_eigenpair(tri)
    lam = oracle.low_spectrum(tri, 2)  # N >= 2: the sector has at least 2 rows
    vec = groundstate.expand_ground_state(params, result.z_star)
    psi = vec.normalized()
    # the kept pair, read again: perfbench/test_smoke.py pins 3 + 1 oracle calls per point
    overlap = float(abs(psi @ oracle.lowest_eigenpair(tri).vector[: psi.size]))
    gap = float(lam[1] - lam[0])
    return PointComparison(params, result, pair.value, pair.block_size, pair.enclosure, gap, overlap, tri, vec)


def check_flow_oracle(records: Sequence[PointComparison]) -> PropertyResult:
    worst, where = 0.0, ""
    for rec in records:
        if rec.oracle_delta > worst:
            worst, where = rec.oracle_delta, f"n={rec.params.n_particles} eps={rec.params.epsilon}"
    return PropertyResult(
        name="flow_oracle_equivalence",
        passed=worst <= ENERGY_TOL,
        margin=ENERGY_TOL - worst,
        details=f"worst |z* - lambda0| = {worst:.3e} at {where}; tol {ENERGY_TOL:g}",
    )


def check_zstar_upper_bound(records: Sequence[PointComparison]) -> PropertyResult:
    """Root below its analytic cap at every point passing the 1/N <= eps^NU
    regime gate; points failing the gate are reported but not judged."""
    regime = [rec for rec in records if rec.result.assumptions.nu_ok]
    margins = [spectrum.energy_cap(rec.params) - rec.result.z_star for rec in regime]
    violations = sum(not rec.result.upper_bound_check for rec in regime)
    worst = min(margins, default=math.inf)
    return PropertyResult(
        name="zstar_upper_bound",
        passed=not violations,
        margin=worst,
        details=f"{len(regime)} regime points, {violations} violations; min cap margin {worst:.3e}",
    )


def check_gap_bound(records: Sequence[PointComparison]) -> PropertyResult:
    """Oracle gap lambda_1 - lambda_0 >= spectrum.gap_floor at each 1/N <= eps^NU point."""
    regime = [rec for rec in records if rec.result.assumptions.nu_ok]
    margins = [rec.gap - spectrum.gap_floor(rec.params) for rec in regime]
    violations = sum(margin < 0.0 for margin in margins)
    worst = min(margins, default=math.inf)
    return PropertyResult(
        name="sector_gap_bound",
        passed=not violations,
        margin=worst,
        details=f"{len(regime)} regime points, {violations} violations; min gap margin {worst:.3e}",
    )


def check_overlap(records: Sequence[PointComparison]) -> PropertyResult:
    worst_overlap = min([1.0, *(rec.overlap for rec in records)])
    worst_residual = max([0.0, *(rec.relative_residual() for rec in records)])
    ok = worst_overlap >= 1.0 - OVERLAP_TOL and worst_residual <= RESIDUAL_FACTOR
    return PropertyResult(
        name="ground_state_overlap",
        passed=ok,
        margin=min(worst_overlap - (1.0 - OVERLAP_TOL), RESIDUAL_FACTOR - worst_residual),
        details=f"min overlap {worst_overlap:.12f}, max residual/norm_inf {worst_residual:.3e}",
    )


def check_ebog_convergence(
    n_values: Sequence[int] = (10**3, 10**4, 10**5, 10**6),
) -> PropertyResult:
    errs = []
    for n in n_values:
        params = ModelParams(n_particles=n, epsilon=EBOG_EPS)
        result = spectrum.solve_fixed_point(params)
        errs.append(abs(result.z_star - bogoliubov_energy(params)))
    errs = np.array(errs)
    decreasing = bool(np.all(np.diff(errs) < 0.0))
    slope = float(np.polyfit(np.log(np.array(n_values, float)), np.log(errs), 1)[0])
    low, high = EBOG_SLOPE_RANGE
    ok = decreasing and low <= slope <= high
    return PropertyResult(
        name="ebog_convergence",
        passed=ok,
        margin=min(slope - low, high - slope),
        details=f"errors {['%.3e' % e for e in errs]}, log-log slope {slope:.3f}",
    )


def check_truncation_decay() -> PropertyResult:
    """Per (eps, beta): fit log|G - G_T| against N^(1-beta) over an N grid
    chosen so the difference stays above the rounding floor."""
    worst_r2 = 1.0
    worst_slope = -math.inf
    details = []
    for eps in TRUNCATION_EPS:
        for beta in TRUNCATION_BETAS:
            # spans ~[8, 60] keep the decay measurable in float64
            spans = np.unique((np.geomspace(8, 60, 7) // 2 * 2).astype(np.int64))
            xs, diffs = [], []
            for span in spans:
                # the smallest even N that g_truncated restarts from span, searched
                # upward from an even N below span^(1/(1-beta)), which restarts lower
                n = int(span ** (1.0 / (1.0 - beta))) // 2 * 2 - 2
                while power_span(n, 1.0 - beta) < span:
                    n += 2
                if n > TRUNCATION_N_CAP:
                    continue
                params = ModelParams(n_particles=n, epsilon=eps)
                z = bogoliubov_energy(params)
                full = flow.enclosure(params, z, 1)[0][-1]
                trunc = flow.g_truncated(params, z, beta)
                xs.append(span)
                diffs.append(abs(full - trunc))
            report = groundstate.fit_truncation_decay(np.array(xs), np.array(diffs))
            worst_r2 = min(worst_r2, report.r_squared)
            worst_slope = max(worst_slope, report.slope)
            details.append(
                f"eps={eps} beta={beta}: slope={report.slope:.4f} R2={report.r_squared:.4f}"
            )
    ok = worst_slope < 0.0 and worst_r2 >= R2_FLOOR
    return PropertyResult(
        name="truncation_decay",
        passed=ok,
        margin=min(-worst_slope, worst_r2 - R2_FLOOR),
        details="; ".join(details),
    )


def check_fixed_point_uniqueness(params: ModelParams) -> PropertyResult:
    """sign(f(z)) == sign(z* - z) at random window points below the root
    region: a single crossing."""
    result = spectrum.solve_fixed_point(params)
    rng = np.random.default_rng(UNIQUENESS_SEED)
    lo = result.window.z_min
    hi = min(result.window.z_max, result.z_star + 0.49 * params.delta0)
    bad = 0
    for z in rng.uniform(lo, hi, UNIQUENESS_PROBES):
        side = spectrum.flow_side(params, float(z))
        expect = 1 if z < result.z_star else -1
        if abs(z - result.z_star) < 10 * spectrum.TOL_ROOT * params.phi:
            continue
        if side != expect:
            bad += 1
    return PropertyResult(
        name="fixed_point_uniqueness",
        passed=bad == 0,
        margin=float(-bad),
        details=f"{bad} sign mismatches out of {UNIQUENESS_PROBES} probes",
    )


@dataclass
class VerifyConfig:
    n_values: Sequence[int] = DEFAULT_GRID_N
    eps_values: Sequence[float] = DEFAULT_GRID_EPS
    phi: float = 1.0
    only: Optional[str] = None
    perturb_tk: float = 0.0


def run_all(config: Optional[VerifyConfig] = None) -> List[PropertyResult]:
    """The battery's rows, or those of the one suite config.only names, in
    battery order, each with its wall time."""
    config = config or VerifyConfig()
    # N = 10^7 satisfies every N-dependent part of the gamma condition at
    # the documented constants for both default epsilon values
    seq_points = [ModelParams(n_particles=10**7, epsilon=eps) for eps in (0.04, 0.01)]
    mono_point = ModelParams(n_particles=256, epsilon=0.01, phi=config.phi)
    # the grid's records, built once per battery: no row's wall time
    # includes the build
    records = []
    if config.only in (None, "cf", "spectrum", "groundstate"):
        records = [compare_point(ModelParams(n, eps, config.phi)) for n in config.n_values for eps in config.eps_values]

    suites = {
        "cf": [partial(check_cf_equivalence, records, perturb_tk=config.perturb_tk)],
        "flow": [
            partial(check_flow_monotonicity, mono_point),
            partial(check_w_bound, ModelParams(n_particles=1024, epsilon=0.01, phi=config.phi)),
            partial(check_g_lower_bound_link, seq_points[0]),
            partial(check_fixed_point_uniqueness, mono_point),
        ],
        "sequences": [
            *(partial(check_x_bounds, p) for p in seq_points),
            *(partial(check_xtilde_bounds, p) for p in seq_points),
            check_y_closed_residual,
            check_accessori,
            check_coefficient_identities,
        ],
        "spectrum": [
            partial(check_flow_oracle, records),
            partial(check_zstar_upper_bound, records),
            partial(check_gap_bound, records),
            partial(check_ebog_convergence, n_values=(10**3, 10**4, 10**5)),
        ],
        "groundstate": [partial(check_overlap, records), check_truncation_decay],
    }
    if config.only is not None and config.only not in suites:
        raise ValueError(f"only must name one suite of {', '.join(suites)}, got {config.only!r}")
    checks = [check for name, suite in suites.items() if config.only in (None, name) for check in suite]
    results = []
    for check in checks:
        t0 = time.perf_counter()
        results.append(check())
        results[-1].wall_ms = 1000.0 * (time.perf_counter() - t0)
    return results
