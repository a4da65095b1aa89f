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
flow at several z, as the root search does.  One rule decides where the
flow holds: a level is valid while its resolvent d - z is > 0 and its
pivot 1/G = 1 - W*G is > 0 (the series sum with q = W*G in [0, 1)).
The table records the first level where that fails, a NaN failing too,
and nothing raises.  For z < 0 every resolvent is a nonnegative d minus
a negative z, so only z >= 0 (or NaN) needs the resolvent test.  A
resolvent d_k - z <= 0 puts z at or above d_k, which is at least the
lowest eigenvalue of the matrix without its condensate row and so above
the ground energy: right of the root, as every invalid z is.

The recursion runs on the pivots 1/G, which are those of the LDL^T
factorization of the sector matrix minus z, through LAPACK dpttrf
(_kernels.flow_recursion, which fills the pivots only); a span reads
its last pivot and then inverts the pivots in place.  g_check runs the
pass in one span;
flow_blocks yields the same pass in blocks of FLOW_BLOCK levels, each
continued from the last pivot of the block before, so a caller that
keeps only part of the levels needs O(FLOW_BLOCK) memory.

A caller that reads G on the top levels only (the ground-state
expansion, and the verify check against the minorant chain) asks
enclosure for them instead of running a pass.  enclosure restarts the
flow twice at level R = N - S.  For z < 0 and eps*N >= 1, every level
with m = N - i >= 2/eps has

    W_i(z) <= W_i(0) = 1/4 * i/(i+eps*N) * (i-1)/(i-2+eps*N) * (1+2/m)
                     <= (1+2/m) / (4*(1+eps)) <= 1/4,

so with S >= 2/eps the full flow has G(R) in [1, 2].  Each step
G -> 1/(1 - W*G) is increasing in G, in floating point too (each
operation of the pivot step rounds monotonically), so the restarts with
G = 1 and G = 2 at R bracket the full pass at every level above R, and
if the upper one is valid so is the full pass.  Where the two agree bit
for bit, the full pass equals them.  One rule sizes S for every caller:
it starts at 2*count + max(truncation_span, 2/eps + 2) levels for a
caller that needs the top count levels, and doubles until the restarts
agree bit for bit on at least those.

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

# levels per block of the flow pass (flow_blocks), which bounds its memory;
# a block's arrays then stay in a core's L2 cache
FLOW_BLOCK = 1 << 14
# block length and cutoff of the amplitude sum behind the slope of f
SLOPE_BLOCK = 2048
SLOPE_NEGLIGIBLE = 1e-250
# decay constant of the truncation error (1/(1+c*sqrt(eps)))^(N^(1-beta)),
# conservative lower end of the range measured by the truncation-decay
# experiment (1.0 at eps=0.01 to 1.4 at eps=0.04).  It sizes the error
# budget and the truncation span, but never certifies a result.
FITTED_DECAY_C = 1.0


class FlowDomainError(ValueError):
    """A number was asked of the flow at a z where it is invalid."""


@dataclass(frozen=True)
class FlowTable:
    """Flow factors at a fixed spectral parameter.

    g_values[j] is G at level start_level + 2j; w_products[j] the scalar
    coupling product entering that level (0.0 at the start level, which
    has none).  valid means every level passed the validity rule;
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


def level_coefficients(params: ModelParams, start_level: int = 0):
    """The z-independent parts of W at levels start_level..N-2.

    Returns (num, diag): the coupling numerator t_k^2 and the diagonal
    entry d_k of each level, so that d_k - z is its first resolvent.
    """
    n = params.n_particles
    return _coefficients_at(params, start_level + 2.0 * np.arange((n - start_level) // 2))


def _coefficients_at(params: ModelParams, i: np.ndarray):
    # level_coefficients at the even levels i, exact integers in float64
    n = params.n_particles
    phi, k2 = params.phi, params.kinetic
    m = n - i
    num = (i - 1.0) * i / (float(n) * float(n)) * phi * phi * (0.5 * m + 1.0) ** 2
    diag = (i * phi / n + k2) * m
    return num, diag


def _w_product_arrays(z: float, coefficients):
    """Coupling products for the consecutive levels whose level
    coefficients are given; index 0 is 0.0.

    Also returns the numerator t_k^2 and first resolvent d_k - z of each
    level, which the slope of f reuses.  The second resolvent of level i
    is the first of level i-2: i-2 and m+2 are exact, so both are the
    same float.  An overflowed resolvent product gives W = 0, its limit;
    a zero resolvent gives W = inf (NaN at phi = 0) on a level that fails
    the validity rule anyway.
    """
    num, diag = coefficients
    den1 = diag - z
    w = np.zeros(den1.shape[0])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.multiply(den1[1:], den1[:-1], out=w[1:])
        np.divide(num[1:], w[1:], out=w[1:])
    return w, num, den1


def _flow_span(params, z, start_level, first, stop, coefficients, pivot):
    """Entries first..stop-1 of the pass from start_level by one kernel
    call, entry first preset to the pivot 1/G given.  Returns w, g, num,
    den1, the last pivot and the pass index of the first level that fails
    the validity rule (module docstring), or -1; coefficients as in
    g_check."""
    if coefficients is None:
        coefficients = _coefficients_at(params, start_level + 2.0 * np.arange(first, stop))
    else:
        coefficients = (coefficients[0][first:stop], coefficients[1][first:stop])
    w, num, den1 = _w_product_arrays(z, coefficients)
    g = np.empty_like(w)  # the pivots 1/G, inverted in place once the last is read
    g[0] = pivot
    bad = int(_kernels.flow_recursion(w, g))
    if not z < 0.0:  # the resolvent test: for z < 0 every d - z is positive
        poles = np.flatnonzero(~(den1[: bad if bad >= 0 else None] > 0.0))
        bad = int(poles[0]) if poles.size else bad
    last = float(g[-1])
    np.divide(1.0, g, out=g)
    return w, g, num, den1, last, first + bad if bad >= 0 else -1


def flow_blocks(params: ModelParams, z: float):
    """The pass of g_check from level 0 in consecutive blocks of
    FLOW_BLOCK levels, each continued from the last pivot 1/G of the
    block before, so the blocks equal the one pass bit for bit; memory
    is O(FLOW_BLOCK).

    Yields (start, g_values, first_bad): entry j of a block is pass
    index start + j, and first_bad the pass index of the block's first
    failed level, or -1.
    """
    count = params.n_particles // 2  # levels 0 .. N-2
    pivot = 1.0  # 1/G at level 0
    for lo in range(0, count, FLOW_BLOCK):
        first = max(lo - 1, 0)  # the level a block continues from
        stop = min(lo + FLOW_BLOCK, count)
        _, g, _, _, pivot, bad = _flow_span(params, z, 0, first, stop, None, pivot)
        yield lo, g[lo - first :], bad


def truncation_span(params: ModelParams) -> int:
    """Levels s of a flow restarted below the top: the smallest even s
    with (1 + FITTED_DECAY_C * sqrt(eps))^-s <= 1e-16, about how far the
    deeper shells then move its top."""
    s = math.ceil(math.log(1e16) / math.log1p(FITTED_DECAY_C * math.sqrt(params.epsilon)))
    return s + s % 2


def _first_span(params: ModelParams, count: int) -> int:
    """First restart span S of enclosure for count top levels: 2*count
    plus the truncation span or the lemma's 2/eps + 2 levels, whichever
    is larger; even."""
    s = 2 * count + max(truncation_span(params), math.ceil(2.0 / params.epsilon) + 2)
    return s + s % 2


def enclosure(params: ModelParams, z: float, count: int):
    """G on at least the top count levels without a full pass, as (g, S).

    g holds G at levels N - 2*g.size, ..., N - 2 (level order): the
    longest top run on which the restarts with G = 1 and G = 2 at level
    N - S agree bit for bit, which pins the full pass there (module
    docstring).  S starts at _first_span(params, count) and doubles until
    that run holds count levels.  None where the full pass must run
    instead: z >= 0 (or NaN), eps*N < 1, S >= N, or a restart invalid.
    """
    n = params.n_particles
    if not (z < 0.0 and params.epsilon * n >= 1.0):
        return None
    span = _first_span(params, count)
    while span < n:
        restart = n - span
        coefficients = level_coefficients(params, restart)
        _, low, _, _, _, low_bad = _flow_span(params, z, restart, 0, span // 2, coefficients, 1.0)
        _, high, _, _, _, high_bad = _flow_span(params, z, restart, 0, span // 2, coefficients, 0.5)
        if low_bad >= 0 or high_bad >= 0:
            return None
        apart = np.flatnonzero(low != high)
        g = low[apart[-1] + 1 :] if apart.size else low
        if g.size >= count:
            return g, span
        span *= 2
    return None


def g_check(
    params: ModelParams, z: float, start_level: int = 0, coefficients=None
) -> FlowTable:
    """Run the flow upward from start_level (value 1 there) to level N-2.

    One span over the whole pass; flow_blocks streams the same pass.
    coefficients, if given, is level_coefficients(params, start_level);
    a caller evaluating the flow at several z computes it once.
    """
    n = params.n_particles
    if start_level % 2 != 0 or not 0 <= start_level <= n - 2:
        raise ValueError("start_level must be even with 0 <= start_level <= N-2")
    count = (n - start_level) // 2
    w, g, num, den1, _, first_bad = _flow_span(params, z, start_level, 0, count, coefficients, 1.0)
    valid = first_bad < 0
    return FlowTable(
        z=float(z),
        start_level=start_level,
        g_values=g,
        w_products=w,
        f_value=_f_from_g(params, z, float(g[-1])),
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
    # den is the level N-2 resolvent: at its pole the table is invalid
    return -z - _final_coupling(params) / den * g_last if den else math.nan


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
