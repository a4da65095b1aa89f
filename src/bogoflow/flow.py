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
the resolvents depend on z: the passes at a point slice the numerators
and diagonal entries of its top PASS_BLOCK + 1 levels from one table
(_coefficients_at).  The validity rule: a level is valid while its
resolvent d - z is > 0 and its pivot 1/G = 1 - W*G is > 0 (the series
sum with q = W*G in [0, 1)); a pass records the first level where that
fails, a NaN failing too, and nothing raises.  For z < 0 every resolvent
is a nonnegative d minus a negative z, so only z >= 0 (or NaN) needs the
resolvent test.  A resolvent d_k - z <= 0 puts z at or above d_k, at
least the lowest eigenvalue of the matrix without its condensate row, so
above the ground energy: right of the root, as every invalid z is.

The recursion runs on the pivots 1/G, which are those of the LDL^T
factorization of the sector matrix minus z, through LAPACK dpttrf
(_kernels.flow_recursion, which fills the pivots only), block after
block, each inverting its pivots once the next block has read the last.

A caller that reads G on the top levels only (amplitudes, behind the
ground-state expansion, the verify check against the minorant chain, and
the truncation-decay fits, which read the top G of the full pass) asks
enclosure for them; it is the one reader of the top of the flow,
and decides between two restarts and the full pass.  enclosure restarts
the flow twice at level R = N - S.  For z < 0 and eps*N >= 1, every
level with m = N - i >= 2/eps has

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
agree bit for bit on at least those.  Where the restarts do not apply
(z >= 0 or NaN, eps*N < 1, S >= N, or a restart invalid) enclosure
reads the full pass instead, and raises FlowDomainError where that pass
is invalid.

The one-dimensional remainder after the last elimination,

    f(z) = -z - (1 - 1/N) * phi^2 / (phi*(2*eps + 2 - 4/N) - z) * G_{N-2}(z),

is, identically in z, the Schur complement of the sector tridiagonal
matrix onto the condensate entry; its unique root in the window is the
ground-state energy.

The eliminated shells are reconstructed from the same factors, one pair
at a time, in the amplitudes of the ground-state expansion:

    psi_0 = 1,    psi_k = -G_{N-2k}(z) * t_{k-1} / (d_k - z) * psi_{k-1},

with t_{k-1}^2 the coupling numerator one level up (t_0^2 above level
N-2).  The signs alternate, as the positive couplings force.  One chain
(_amplitude_chain) builds them, block by block from the top, and stops
at the first psi_k below COEFF_FLOOR of the norm so far.  The slope of
f reads its norm,

    f'(z) = -(1 + sum_{k>=1} psi_k(z)^2),

the derivative of the Schur complement, hence f' <= -1; amplitudes
hands the chain to the expansion, reading G from enclosure.

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
from .model import ModelParams, power_span

# the amplitude chain stops at the first psi_k below this fraction of the norm so far
COEFF_FLOOR = 1e-18
# block length of the amplitude chain, and the top levels amplitudes first asks for
CHAIN_BLOCK = 2048
# levels per block of a flow pass: 128 KB per float64 array, which stays in cache
PASS_BLOCK = 16384
_table = (None, 0, None, None)  # _coefficients_at's (params, lowest level, num, diag)
# decay constant c of the truncation error (1/(1+c*sqrt(eps)))^(N^(1-beta)).
# The battery's truncation-decay fits read c = expm1(-slope)/sqrt(eps) of
# 0.91-1.02 at eps=0.01 and 1.22-1.39 at eps=0.04 (beta 0.7 down to 0.3),
# so 1.0 is no lower bound (see truncation_span).  It sizes the
# truncation span, but never certifies a result.
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
    the slope of f_value in z, minus the norm of the amplitude chain on
    the table's levels, where the table is valid, NaN otherwise (from a
    start level above 0 both belong to the truncated flow).
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


def _coefficients_at(params: ModelParams, lo: int, hi: int):
    """(num, diag) of _build_coefficients at lo <= i < hi: from level
    N - 2*(PASS_BLOCK + 1) up, bit-equal slices (each entry depends on its
    level alone) of one read-only table of levels _table[1] <= i < N for
    the params object last served, by identity (phi = -0.0 equals 0.0 but
    gives zeros of the other sign), rebuilt down to lo where lo is lower."""
    global _table
    if lo < params.n_particles - 2 * (PASS_BLOCK + 1):
        return _build_coefficients(params, lo, hi)
    owner, low, num, diag = _table
    if owner is not params or lo < low:
        num, diag = _build_coefficients(params, lo, params.n_particles)
        num.flags.writeable = diag.flags.writeable = False
        _table, low = (params, lo, num, diag), lo
    return num[(lo - low) // 2 : (hi - low) // 2], diag[(lo - low) // 2 : (hi - low) // 2]


def _build_coefficients(params: ModelParams, lo: int, hi: int):
    """The z-independent parts of W at the even levels lo <= i < hi, as
    (num, diag): the coupling numerator t_k^2 and the diagonal entry d_k
    of each level, so that d_k - z is its first resolvent."""
    n = params.n_particles
    i = np.arange(lo, hi, 2.0)  # exact integers in float64
    phi, k2 = params.phi, params.kinetic
    m = n - i
    # num = (i-1)*i/N^2*phi*phi*(m/2+1)^2, diag = (i*phi/N + k^2)*m, left to right, in place
    num, diag, sq = i - 1.0, i * phi, 0.5 * m + 1.0
    num *= i
    num /= float(n) * float(n)
    num *= phi
    num *= phi
    sq *= sq
    num *= sq
    diag /= n
    diag += k2
    diag *= m
    return num, diag


def _w_product_arrays(z: float, coefficients, w):
    """Coupling products for the consecutive levels whose coefficients
    (_coefficients_at) are given, written into w[1:]; w[0], the first
    level's, needs the level below it and is left as it is.

    Returns w with the numerator t_k^2 and first resolvent d_k - z of each
    level, which the amplitude chain reuses.  The second resolvent of
    level i is the first of level i-2: i-2 and m+2 are exact, so both
    are the same float.  An overflowed resolvent product gives W = 0, its limit;
    a zero resolvent gives W = inf (NaN at phi = 0) on a level that fails
    the validity rule anyway.
    """
    num, diag = coefficients
    den1 = diag - z
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        np.multiply(den1[1:], den1[:-1], out=w[1:])
        np.divide(num[1:], w[1:], out=w[1:])
    return w, num, den1


def _flow_pass(params: ModelParams, z: float, start_level: int, pivot: float):
    """The pass from start_level to level N-2, its first pivot 1/G preset
    to the pivot given.  Returns W and G at every level, t^2 and d - z on
    the top block's levels (the last num.size), and the pass index of the
    first level that fails the validity rule (module docstring), or -1.

    It runs PASS_BLOCK levels at a time, the remainder block at the
    bottom; each block continues from the resolvent and pivot of the
    level below it, so the pass equals one span bit for bit
    (_kernels.flow_recursion), and no temporary holds more than a block."""
    size = (params.n_particles - start_level) // 2
    w, g = np.empty(size), np.empty(size)  # g holds pivots until the next block reads them
    w[0], g[0], bad = 0.0, pivot, -1
    for hi in range(size % PASS_BLOCK or PASS_BLOCK, size + 1, PASS_BLOCK):
        lo = max(hi - PASS_BLOCK, 0)
        first = max(lo - 1, 0)  # the level the block continues from
        coefficients = _coefficients_at(params, start_level + 2 * first, start_level + 2 * hi)
        wb, num, den1 = _w_product_arrays(z, coefficients, w[first:hi])
        b = int(_kernels.flow_recursion(wb, g[first:hi]))  # index in the block, or -1
        if bad < 0 and not z < 0.0:  # the resolvent test: for z < 0 every d - z is positive
            poles = np.flatnonzero(~(den1[lo - first : b if b >= 0 else None] > 0.0))
            b = int(poles[0]) + lo - first if poles.size else b
        bad = first + b if bad < 0 <= b else bad
        np.divide(1.0, g[first : hi - 1], out=g[first : hi - 1])
    g[-1] = 1.0 / g[-1]
    return w, g, num[lo - first :], den1[lo - first :], bad


def truncation_span(params: ModelParams) -> int:
    """Levels s of a flow restarted below the top: the smallest even s
    with (1 + FITTED_DECAY_C * sqrt(eps))^-s <= 1e-16.  The deeper shells
    move its top by about (1 + c*sqrt(eps))^-s at the measured c, which
    can lie below FITTED_DECAY_C: c = 0.91 at eps = 0.01 leaves about
    2.1e-15 over the 388 levels there.  The root search only steers on
    the restarted flow and certifies on the full one, and enclosure
    checks its restarts' agreement itself."""
    s = math.ceil(math.log(1e16) / math.log1p(FITTED_DECAY_C * math.sqrt(params.epsilon)))
    return s + s % 2


def _first_span(params: ModelParams, count: int) -> int:
    """First restart span S of enclosure for count top levels: 2*count
    plus the truncation span or the lemma's 2/eps + 2 levels, whichever
    is larger; even."""
    s = 2 * count + max(truncation_span(params), math.ceil(2.0 / params.epsilon) + 2)
    return s + s % 2


def enclosure(params: ModelParams, z: float, count: int):
    """G on at least the top count levels of the full pass, as (g, S).

    g holds G at levels N - 2*g.size, ..., N - 2 (level order).  Where
    the restarts apply, g is the longest top run on which the restarts
    with G = 1 and G = 2 at level N - S agree bit for bit, which pins the
    full pass there (module docstring); S starts at
    _first_span(params, count) and doubles until that run holds count
    levels.  Elsewhere (z >= 0 or NaN, eps*N < 1, S >= N, or a restart
    invalid) g is G at every level of the full pass and S = N.  Raises
    FlowDomainError where that pass is invalid at z.
    """
    n = params.n_particles
    span = _first_span(params, count) if z < 0.0 and params.epsilon * n >= 1.0 else n
    while span < n:
        _, low, _, _, low_bad = _flow_pass(params, z, n - span, 1.0)
        _, high, _, _, high_bad = _flow_pass(params, z, n - span, 0.5)
        if low_bad >= 0 or high_bad >= 0:
            break
        apart = np.flatnonzero(low != high)
        g = low[apart[-1] + 1 :] if apart.size else low
        if g.size >= count:
            return g, span
        span *= 2
    _, g, _, _, bad = _flow_pass(params, z, 0, 1.0)  # the full pass, without g_check's slope
    if bad >= 0:
        raise FlowDomainError(f"flow invalid at z={z!r} from level {2 * bad}")
    return g, n


def g_check(params: ModelParams, z: float, start_level: int = 0) -> FlowTable:
    """Run the flow upward from start_level (value 1 there) to level N-2
    in one pass."""
    n = params.n_particles
    if start_level % 2 != 0 or not 0 <= start_level <= n - 2:
        raise ValueError("start_level must be even with 0 <= start_level <= N-2")
    w, g, num, den1, first_bad = _flow_pass(params, z, start_level, 1.0)
    valid = first_bad < 0
    norm_sq = math.nan
    if valid:  # f' = -(1 + sum psi_k^2) over the table's levels
        chain = _amplitude_chain(g[-num.size :], num, den1, _final_coupling(params), g.size)
        if chain is None:  # the chain runs below the top block: read every level
            num, diag = _coefficients_at(params, start_level, n)
            chain = _amplitude_chain(g, num, diag - z, _final_coupling(params), g.size)
        norm_sq = chain[1]
    return FlowTable(
        z=float(z),
        start_level=start_level,
        g_values=g,
        w_products=w,
        f_value=_f_from_g(params, z, float(g[-1])),
        valid=valid,
        invalid_level=-1 if valid else start_level + 2 * first_bad,
        f_slope=-norm_sq,
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


def _amplitude_chain(g, num, den1, t0_sq: float, k_max: int):
    """(blocks, 1 + sum psi_k^2) of the chain on the top levels given, or
    None if a block needs a level below them; the blocks hold
    psi_1..psi_last in order (psi_0 = 1).

    g, num and den1 hold G, t^2 and d - z, level N - 2 last, so level
    N - 2k sits at index g.size - k.  The ratio psi_k / psi_{k-1} is
    -G t_{k-1} / (d_k - z) (module docstring), formed block by block
    with the running product and norm carried over: a product or sum
    commutes, and the accumulations run in index order, so every
    psi_k, the norm and the stop equal those of the term-by-term
    recursion.  The chain stops at the first psi_k below COEFF_FLOOR of
    the norm so far, or at k_max; no ratio past that block is formed,
    most of those products being subnormal.
    """
    top = g.size
    blocks = []
    prod, norm_sq = 1.0, 1.0
    for start in range(1, k_max + 1, CHAIN_BLOCK):
        stop = min(start + CHAIN_BLOCK, k_max + 1)
        if stop - 1 > top:
            return None
        lo, hi = top - stop + 1, top - start + 1  # indices of levels N - 2(stop-1) .. N - 2start
        block = -g[lo:hi]
        block[:-1] *= np.sqrt(num[lo + 1 : hi])
        block[-1] *= math.sqrt(num[hi] if hi < top else t0_sq)
        block /= den1[lo:hi]
        block = block[::-1]
        block[0] *= prod
        np.multiply.accumulate(block, out=block)
        sq = block * block
        sq[0] += norm_sq
        np.add.accumulate(sq, out=sq)
        small = np.abs(block) < COEFF_FLOOR * np.sqrt(sq)
        last = int(small.argmax())
        if small[last]:
            blocks.append(block[: last + 1])
            return blocks, float(sq[last])
        blocks.append(block)
        prod, norm_sq = float(block[-1]), float(sq[-1])
    return blocks, norm_sq


def amplitudes(params: ModelParams, z: float, k_max: int):
    """psi_0..psi_last of the amplitude chain at z, up to k_max, and the
    span S of the flow read, as (psi, S).

    The chain reads the top CHAIN_BLOCK levels first, and twice as many
    while it needs a level below those; G comes from enclosure, asked
    again only when its run holds too few levels, and S = N where it
    read the full pass.  Raises FlowDomainError where the full pass is
    invalid at z.
    """
    count = CHAIN_BLOCK
    g, span = enclosure(params, z, count)
    while True:  # the full pass (span N) holds every level the chain reads
        top = g[-count:]  # coefficients only for the levels the chain may read
        num, diag = _coefficients_at(params, params.n_particles - 2 * top.size, params.n_particles)
        chain = _amplitude_chain(top, num, diag - z, _final_coupling(params), k_max)
        if chain is not None:
            return np.concatenate([np.ones(1), *chain[0]]), span
        count *= 2
        if count > g.size:
            g, span = enclosure(params, z, count)


def f_of_z(params: ModelParams, z: float) -> float:
    """Fixed-point function; requires the flow to be valid at z.  The
    f_value of g_check, without the amplitude chain of its slope."""
    _, g, _, _, bad = _flow_pass(params, z, 0, 1.0)
    if bad >= 0:
        raise FlowDomainError(f"geometric-series condition failed at level {2 * bad}")
    return _f_from_g(params, z, float(g[-1]))


def g_truncated(params: ModelParams, z: float, beta: float) -> float:
    """Level-(N-2) flow value restarted from level N - model.power_span(N, 1 - beta).

    The restart value is 1; with beta -> 0 the restart level is 0 and the
    full flow is recovered.
    """
    n = params.n_particles
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    start = max(n - power_span(n, 1.0 - beta), 0)
    return float(_flow_pass(params, z, start, 1.0)[1][-1])  # g_check's G, without its slope
