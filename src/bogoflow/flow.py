"""Scalar shell-elimination flow for the three-modes Hamiltonian.

The flow walks the even levels i = 0, 2, ..., N-2, where level i holds
i condensate particles and (N-i)/2 particles in each pair mode.  Each
step eliminates one shell and produces the geometric-series factor

    G_i(z) = 1 / (1 - W_i(z) * G_{i-2}(z)),      G_0(z) = 1,

where W_i(z) is the scalar product of the downward and upward coupling
elements divided by the two shell resolvents:

    W_i(z) = (i-1)*i/N^2 * phi^2 * (m/2 + 1)^2
             / ([ (i*phi/N + k^2)*m - z ] * [ ((i-2)*phi/N + k^2)*(m+2) - z ])

with m = N - i the pair-mode occupation at level i.  The second
resolvent of W_i is the first resolvent of level i-2 (i-2 and m+2 are
exact in floating point), so one array of resolvents serves both.  Only
the resolvents depend on z: the numerators and the diagonal entries
(level_coefficients) are computed once by a caller that evaluates the
flow at several z, as the root search does.  The series sum is valid
while q = W*G stays in [0, 1); the table records the first level where
that fails instead of raising.

The one-dimensional remainder after the last elimination,

    f(z) = -z - (1 - 1/N) * phi^2 / (phi*(2*eps + 2 - 4/N) - z) * G_{N-2}(z),

is, identically in z, the Schur complement of the sector tridiagonal
matrix onto the condensate entry; its unique root in the window is the
ground-state energy.  Its slope comes from the same factors: with the
amplitudes psi_k that groundstate.expand_ground_state builds (psi_0 = 1),

    f'(z) = -(1 + sum_{k>=1} psi_k(z)^2),

the derivative of the Schur complement, hence f' <= -1.

The level <-> pair-index dictionary is pinned here once: level i
corresponds to pair count k = (N - i)/2, so W_i(z) equals
t_{k}^2 / ((d_k - z)(d_{k+1} - z)) in terms of the sector matrix
elements.  That identity is asserted by the equivalence tests, never
used in the computation.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .model import ModelParams

# Denominators of W below this multiple of phi*N indicate z outside the
# admissible window; positivity is only guaranteed inside it.
POLE_FLOOR = 1e-12
# block length and cutoff of the amplitude sum behind the slope of f
SLOPE_BLOCK = 2048
SLOPE_NEGLIGIBLE = 1e-250


class FlowDomainError(ValueError):
    """z too close to a resolvent pole for the flow to be meaningful."""


@dataclass(frozen=True)
class FlowTable:
    """Flow factors at a fixed spectral parameter.

    g_values[j] is G at level start_level + 2j; w_products[j] the scalar
    coupling product entering that level (0.0 at the start level, which
    has none).  valid means every geometric-series condition held;
    otherwise invalid_level is the first offending level.  f_slope is
    the slope of f_value in z where the table is valid, NaN otherwise
    (from a start level above 0 both belong to the truncated flow).
    """

    z: float
    start_level: int
    g_values: np.ndarray
    w_products: np.ndarray
    f_value: float
    valid: bool
    invalid_level: int
    f_slope: float = math.nan

    @property
    def levels(self) -> np.ndarray:
        return self.start_level + 2 * np.arange(self.g_values.shape[0])

    def to_csv(self, path) -> None:
        lines = ["i,w_product,g_value"]
        for i, w, g in zip(self.levels, self.w_products, self.g_values):
            lines.append(f"{int(i)},{float(w)!r},{float(g)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def level_coefficients(params: ModelParams, start_level: int = 0):
    """The z-independent parts of W at levels start_level..N-2.

    Returns (num, diag): the coupling numerator t_k^2 and the diagonal
    entry d_k of each level, so that d_k - z is its first resolvent.
    """
    n = params.n_particles
    phi, k2 = params.phi, params.kinetic
    i = start_level + 2.0 * np.arange((n - start_level) // 2)
    m = n - i
    num = (i - 1.0) * i / (float(n) * float(n)) * phi * phi * (0.5 * m + 1.0) ** 2
    diag = (i * phi / n + k2) * m
    return num, diag


def _w_product_arrays(params: ModelParams, z: float, start_level: int, coefficients=None):
    """Coupling products for levels start_level..N-2; index 0 is 0.0.

    coefficients is level_coefficients(params, start_level), computed
    here when not given.  Also returns the numerator t_k^2 and first
    resolvent d_k - z of each level, which the slope of f reuses.  The
    second resolvent of level i is the first of level i-2: i-2 and
    m+2 are exact, so both are the same float.
    """
    if coefficients is None:
        coefficients = level_coefficients(params, start_level)
    num, diag = coefficients
    den1 = diag - z
    w = np.zeros(den1.shape[0])
    if w.shape[0] > 1:
        floor = POLE_FLOOR * max(params.phi, params.kinetic, 1e-300) * params.n_particles
        # below the spectrum every resolvent is positive, and the signed
        # minimum decides alone; |den1| is taken only when it does not
        if not np.fmin.reduce(den1) > floor and np.min(np.abs(den1)) <= floor:
            raise FlowDomainError(
                f"resolvent denominator below pole floor at z={z!r}"
            )
        np.multiply(den1[1:], den1[:-1], out=w[1:])
        np.divide(num[1:], w[1:], out=w[1:])
    return w, num, den1


def w_product(params: ModelParams, i: int, z: float) -> float:
    """Scalar coupling product at a single even level i, 2 <= i <= N-2."""
    n = params.n_particles
    if i % 2 != 0 or not 2 <= i <= n - 2:
        raise ValueError("level must be even with 2 <= i <= N-2")
    w = _w_product_arrays(params, z, i - 2)[0]
    return float(w[1])


def g_check(
    params: ModelParams, z: float, start_level: int = 0, coefficients=None
) -> FlowTable:
    """Run the flow upward from start_level (value 1 there) to level N-2.

    coefficients, if given, is level_coefficients(params, start_level);
    a caller evaluating the flow at several z computes it once.
    """
    n = params.n_particles
    if start_level % 2 != 0 or not 0 <= start_level <= n - 2:
        raise ValueError("start_level must be even with 0 <= start_level <= N-2")
    w, num, den1 = _w_product_arrays(params, z, start_level, coefficients)
    g = np.empty_like(w)
    g[0] = 1.0
    first_bad = int(_kernels.flow_recursion(w, g))
    valid = first_bad < 0
    f_value = _f_from_g(params, z, float(g[-1]))
    return FlowTable(
        z=float(z),
        start_level=start_level,
        g_values=g,
        w_products=w,
        f_value=f_value,
        valid=valid,
        invalid_level=-1 if valid else start_level + 2 * first_bad,
        f_slope=_f_slope(g, num, den1, _final_coupling(params)) if valid else math.nan,
    )


def _final_coupling(params: ModelParams) -> float:
    """t_0^2, the coupling of the condensate entry to the first shell."""
    n, phi = params.n_particles, params.phi
    return (1.0 - 1.0 / n) * phi * phi


def _f_from_g(params: ModelParams, z: float, g_last: float) -> float:
    n, phi, eps = params.n_particles, params.phi, params.epsilon
    den = phi * (2.0 * eps + 2.0 - 4.0 / n) - z
    if den == 0.0:
        raise FlowDomainError("final resolvent pole at this z")
    return -z - _final_coupling(params) / den * g_last


def _f_slope(g, num, den1, t0_sq: float) -> float:
    """f'(z) = -(1 + sum psi_k^2) from one flow pass.

    psi_k / psi_{k-1} = -G t_{k-1} / (d_k - z) at level i = N - 2k
    (index j = i/2): its square is g[j]^2 num[j+1] / den1[j]^2, with
    num at level N being t_0^2.  The running product psi_k^2 is taken
    block by block.  Once it falls below SLOPE_NEGLIGIBLE with no later
    ratio above 1, the rest of the sum is below SLOPE_NEGLIGIBLE * N,
    far under the rounding of the total (>= 1), and the sum stops: past
    that point the products are subnormal, and slow to multiply.
    """
    ratio_sq = g * g
    ratio_sq[:-1] *= num[1:]
    ratio_sq[-1] *= t0_sq
    ratio_sq /= den1
    ratio_sq /= den1
    ratio_sq = ratio_sq[::-1]
    total, carry = 1.0, 1.0
    for start in range(0, ratio_sq.size, SLOPE_BLOCK):
        rest = start + SLOPE_BLOCK
        psi_sq = ratio_sq[start:rest].copy()
        psi_sq[0] *= carry
        np.cumprod(psi_sq, out=psi_sq)
        total += float(psi_sq.sum())
        carry = float(psi_sq[-1])
        if carry < SLOPE_NEGLIGIBLE and not (ratio_sq[rest:] > 1.0).any():
            break
    return -total


def f_of_z(params: ModelParams, z: float) -> float:
    """Fixed-point function; requires the flow to be valid at z."""
    table = g_check(params, z)
    if not table.valid:
        raise FlowDomainError(
            f"geometric-series condition failed at level {table.invalid_level}"
        )
    return table.f_value


def g_truncated(params: ModelParams, z: float, beta: float) -> float:
    """Level-(N-2) flow value restarted from level N - floor(N^(1-beta)).

    The restart level is rounded down to even and the restart value is 1;
    with beta -> 0 the restart level is 0 and the full flow is recovered.
    """
    n = params.n_particles
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    span = int(n ** (1.0 - beta) + 1e-9)  # nudge floor against pow slop
    if span < 4:
        raise ValueError("N^(1-beta) must be at least 4")
    span -= span % 2
    start = max(n - span, 0)
    table = g_check(params, z, start_level=start)
    return float(table.g_values[-1])
