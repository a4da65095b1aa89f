"""Model parameters, closed-form energies, and regime checks.

Conventions used throughout the package:

- N particles occupy three interacting modes: a condensate mode and a
  pair of opposite-momentum modes.  N is even by construction.
- phi > 0 is the interaction strength (energy units); epsilon = k^2/phi
  is the ratio of the pair modes' kinetic energy to phi.  The kinetic
  energy k^2 is never stored, always recomputed as epsilon*phi.
- delta0 is the smallest kinetic energy of any mode outside the
  interacting triple; it only enters gap accounting and window caps.
- The default normalization is phi = 1, so energies read in units of phi.

`phi = 0` is tolerated as the degenerate no-interaction configuration
(used by cross-checks); the solver itself requires phi > 0.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ModelParams:
    """Physical parameters; immutable and safe to share across threads."""

    n_particles: int
    epsilon: float
    phi: float = 1.0
    delta0: float = 1.0

    def __post_init__(self):
        n = self.n_particles
        if not isinstance(n, (int,)) or isinstance(n, bool):
            raise ValueError("n_particles must be an integer")
        if n < 2:
            raise ValueError("n_particles must be >= 2")
        if n % 2 != 0:
            raise ValueError("n must be even")
        if n > 2**52:
            reason = "level arithmetic i - 2, m + 2 is exact only below 2**53"
            raise ValueError(f"n_particles must be at most 2**52: {reason}")
        if not (self.epsilon > 0.0) or not math.isfinite(self.epsilon):
            raise ValueError("epsilon must be positive and finite")
        if self.phi < 0.0 or not math.isfinite(self.phi):
            raise ValueError("phi must be nonnegative and finite")
        # the arithmetic of both routes must stay inside binary64
        phi_n = self.phi * n
        if not math.isfinite(phi_n * (1.0 + self.epsilon)):
            raise ValueError("N * phi * (1 + epsilon) must be finite: the largest diagonal entry overflows")
        if not math.isfinite(phi_n * phi_n):
            raise ValueError("(phi * N)^2 must be finite: the flow's numerators and t_k^2 overflow")
        if 0.0 < self.phi and self.phi * self.phi < sys.float_info.min:
            raise ValueError(f"phi^2 must be at least {sys.float_info.min!r} where phi > 0: it underflows")
        if not (self.delta0 > 0.0):
            raise ValueError("delta0 must be positive")

    @property
    def kinetic(self) -> float:
        """Pair-mode kinetic energy k^2 = epsilon * phi."""
        return self.epsilon * self.phi


# The "sufficiently small/large" constants of the regime conditions and
# the minorant chain: documented choices, not ground truth
THETA = 0.1
C_GAMMA = 10.0
K_GAMMA = 0.05
# exponents of the regime conditions: (i) 1/N <= eps^NU, (ii) N^MU, (iii)
# N^GAMMA; BETA sets the span N^(1-BETA) of the sequences comparison chain
NU = 1.5
MU = 2.0 / 3.0
GAMMA = 1.0 / 3.0
BETA = 2.0 / 3.0
# exponent of the xi = eps**THETA_EXPONENT correction in the sequence bounds
THETA_EXPONENT = min(2.0 * (NU - 11.0 / 8.0), 0.25)


def window_delta(epsilon: float) -> float:
    """Slope delta = 1 + sqrt(eps) of the spectral window's top, at which
    coefficient_set evaluates b and c."""
    return 1.0 + math.sqrt(epsilon)


def power_span(n: int, exponent: float) -> int:
    """Truncation span N^exponent, rounded down to even; ValueError below 4."""
    span = int(n**exponent + 1e-9)  # nudge floor against pow slop
    if span < 4:
        raise ValueError(f"N^{exponent:.4g} must be at least 4, got {n**exponent:.4g} at N = {n}")
    return span - span % 2


def bogoliubov_energy(params: ModelParams) -> float:
    """Closed-form pair-mode ground-energy approximation.

    Dimensionless form: E/phi = -(epsilon + 1 - sqrt(epsilon^2+2*epsilon)).
    Evaluated as -phi / (1 + epsilon + sqrt(epsilon^2 + 2*epsilon)), which
    is the same quantity without the cancellation at large epsilon
    ((1+eps)^2 - (eps^2+2eps) = 1 identically).
    """
    eps = params.epsilon
    return -params.phi / (1.0 + eps + math.sqrt(eps * (eps + 2.0)))


def inverse_n_coefficient(params: ModelParams) -> float:
    """phi * c1(eps), the 1/N term of the ground energy: z* ~ E + c1*phi/N.

    With q = sqrt(eps^2 + 2eps), S = 1/(2q(1+eps+q)) and P = 1/(2q),
    c1 = P(8S+1) - 4S - 8S^2, the first order of the 1/N expansion
    (Dusuel and Vidal, Phys. Rev. B 71, 224420, 2005).  Evaluated as
    8S*(S(eps+q)) + P - 4S, which uses P - S = S(eps+q) and so neither
    cancels at large eps nor forms S^2, which overflows at small eps.
    """
    eps = params.epsilon
    q = math.sqrt(eps * (eps + 2.0))
    s = 1.0 / (2.0 * q * (1.0 + eps + q))
    p = 1.0 / (2.0 * q)
    return params.phi * (8.0 * s * (s * (eps + q)) + p - 4.0 * s)


def b_coefficient(epsilon: float, delta: float) -> float:
    """Window-slope coefficient (1+eps)*delta*sqrt(eps^2+2eps), cut at delta >= 2."""
    if not 0.0 <= delta < 2.0:
        return 0.0
    return (1.0 + epsilon) * delta * math.sqrt(epsilon * (epsilon + 2.0))


def c_coefficient(epsilon: float, delta: float) -> float:
    """Quadratic window coefficient -(1-delta^2)*(eps^2+2eps), cut at delta >= 2."""
    if not 0.0 <= delta < 2.0:
        return 0.0
    return -(1.0 - delta * delta) * epsilon * (epsilon + 2.0)


def chain_denominator(m, a: float, b: float, c: float):
    """D(m) = 1 + a - 2b/m - (1-c)/m^2, the factor every comparison chain
    step and the W cap 1/(4 D) divide by.  Accepts scalars or arrays in m.
    """
    d = np.subtract(1.0 + a, np.divide(2.0 * b, m))
    return np.subtract(d, np.divide(1.0 - c, np.multiply(m, m)))


def majorant_lower_bound(m, b: float, sqrt_eta_a: float, xi: float):
    """L(m) = (1 + sqrt(eta*a) - (b/sqrt(eta*a))/(m - xi)) / 2, the lower
    bound of the majorant chain at N - level = m.  Accepts scalars or
    arrays in m."""
    q = np.divide(b / sqrt_eta_a, np.subtract(m, xi))
    return np.multiply(0.5, np.subtract(1.0 + sqrt_eta_a, q))


@dataclass(frozen=True)
class CoefficientSet:
    """Coefficient family entering every estimate and comparison sequence."""

    a_prime: float
    a_gamma: float
    b_delta: float
    c_delta: float
    eta: float
    xi: float


def coefficient_set(params: ModelParams) -> CoefficientSet:
    eps = params.epsilon
    n = params.n_particles
    delta = window_delta(eps)
    a_gamma = 2.0 * eps + C_GAMMA * (eps / n**GAMMA + 1.0 / n + eps * eps)
    return CoefficientSet(
        a_prime=eps * eps + 2.0 * eps,
        a_gamma=a_gamma,
        b_delta=b_coefficient(eps, delta),
        c_delta=c_coefficient(eps, delta),
        eta=1.0 - math.sqrt(eps),
        xi=eps**THETA_EXPONENT,
    )


def majorant_coefficients(params: ModelParams):
    """(a, b, c, sqrt(eta*a), xi) of coefficient_set: the family of the
    majorant chain, its lower bound and the tail series.  The family
    needs eta = 1 - sqrt(eps) > 0, so eps < 1."""
    eps = params.epsilon
    if not eps < 1.0:
        raise ValueError(f"the majorant coefficients need epsilon < 1, got {eps!r}")
    coefs = coefficient_set(params)
    a = coefs.a_prime
    return a, coefs.b_delta, coefs.c_delta, math.sqrt(coefs.eta * a), coefs.xi


@dataclass(frozen=True)
class AssumptionReport:
    """Pass/fail per regime condition.  Failures never abort computation;
    they tag downstream results as outside the proven regime.
    """

    nu_ok: bool
    mu_ok: bool
    gamma_ok: bool
    details: dict

    @property
    def solver_regime_ok(self) -> bool:
        """Conditions needed by the flow and the last elimination step."""
        return self.nu_ok and self.mu_ok


def check_assumptions(params: ModelParams) -> AssumptionReport:
    """Evaluate the three regime conditions.

    (i)   1/N <= epsilon**NU, whose right side is inf where the power
          overflows (eps above about 1e205)
    (ii)  phi*N^MU / (delta0*N*(N - N^MU)) < 1/2  and  N^-MU <= eps^((1+THETA)/2)
    (iii) eps^2 + eps/N^GAMMA + 1/N <= K_GAMMA*eps^1.5  and
          N^-(1-GAMMA) <= K_GAMMA*eps
    """
    eps, n, phi = params.epsilon, params.n_particles, params.phi
    details = {}

    try:
        rhs = eps**NU
    except OverflowError:
        rhs = math.inf
    lhs = 1.0 / n
    nu_ok = lhs <= rhs
    details["nu"] = (lhs, rhs, nu_ok)

    n_mu = n**MU
    gap_ok = n > n_mu and phi * n_mu / (params.delta0 * n * (n - n_mu)) < 0.5
    occ_ok = 1.0 / n_mu <= eps ** ((1.0 + THETA) / 2.0)
    mu_ok = gap_ok and occ_ok
    details["mu_gap"] = (
        phi * n_mu / (params.delta0 * n * (n - n_mu)) if n > n_mu else math.inf,
        0.5,
        gap_ok,
    )
    details["mu_occupation"] = (1.0 / n_mu, eps ** ((1.0 + THETA) / 2.0), occ_ok)

    g_lhs = eps * eps + eps / n**GAMMA + 1.0 / n
    g_rhs = K_GAMMA * eps * math.sqrt(eps)
    s_lhs = 1.0 / n ** (1.0 - GAMMA)
    s_rhs = K_GAMMA * eps
    gamma_ok = g_lhs <= g_rhs and s_lhs <= s_rhs
    details["gamma_smallness"] = (g_lhs, g_rhs, g_lhs <= g_rhs)
    details["gamma_size"] = (s_lhs, s_rhs, s_lhs <= s_rhs)

    return AssumptionReport(
        nu_ok=nu_ok,
        mu_ok=mu_ok,
        gamma_ok=gamma_ok,
        details=details,
    )


@dataclass(frozen=True)
class SpectralWindow:
    """Admissible interval of the spectral parameter for the flow."""

    z_min: float
    z_max: float


def spectral_window(params: ModelParams) -> SpectralWindow:
    """Window [z_min, z_max] on which the flow is evaluated.

    z_max = E + (delta-1)*phi*sqrt(eps^2+2eps) with E the closed-form
    ground-energy approximation and delta = window_delta(eps).  z_min is E - 10*phi, far enough below
    the spectrum that the fixed-point function is positive.
    """
    eps = params.epsilon
    e_bog = bogoliubov_energy(params)
    delta = window_delta(eps)
    z_max = e_bog + (delta - 1.0) * params.phi * math.sqrt(eps * (eps + 2.0))
    return SpectralWindow(z_min=e_bog - 10.0 * params.phi, z_max=z_max)
