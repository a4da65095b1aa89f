"""Auxiliary real sequences, their analytic bound companions, and the
closed-form solution of the comparison recursion.

All sequences are rational chains x -> 1 - 1/(4*D*x) differing only in
the denominator factors D and the direction of the index; the shared
kernel lives in _kernels.rational_chain.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .model import (
    FlowConfig,
    ModelParams,
    b_coefficient,
    c_coefficient,
    coefficient_set,
)

# absolute slack absorbing rounding when checking strict analytic
# inequalities: bound comparisons use BOUND_SLACK * (1 + |value|)
BOUND_SLACK = 1e-14


@dataclass(frozen=True)
class SequenceWithBound:
    """A chain over even levels together with its analytic companion bound.

    bound[j] is NaN where the bound is not asserted.  margin is
    values - bound for lower bounds and bound - values for upper bounds,
    so a nonnegative margin (up to slack) means the bound holds.
    """

    levels: np.ndarray
    values: np.ndarray
    bound: np.ndarray
    bound_is_lower: bool
    first_nonpositive: int

    @property
    def margin(self) -> np.ndarray:
        if self.bound_is_lower:
            return self.values - self.bound
        return self.bound - self.values

    def holds(self, slack: float = BOUND_SLACK) -> bool:
        m = self.margin
        finite = np.isfinite(self.bound)
        tol = slack * (1.0 + np.abs(self.values))
        return bool(np.all(m[finite] >= -tol[finite]))

    def to_csv(self, path) -> None:
        lines = ["index,value,bound,margin"]
        for i, v, b, m in zip(self.levels, self.values, self.bound, self.margin):
            lines.append(f"{int(i)},{float(v)!r},{float(b)!r},{float(m)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def x_sequence(params: ModelParams, cfg: Optional[FlowConfig] = None) -> SequenceWithBound:
    """Forward majorant chain X over even levels 0..N-2, X_0 = 1.

    Step to level 2j+2 divides by 4*(1 + a - 2b/(N-2j-1) - (1-c)/(N-2j-1)^2)
    with a = 2eps + eps^2 and b, c evaluated at delta = 1 + sqrt(eps).
    Companion lower bound:
    X_{2j} >= (1 + sqrt(eta*a) - (b/sqrt(eta*a))/(N - 2j - xi)) / 2.
    """
    cfg = cfg or FlowConfig()
    n, eps = params.n_particles, params.epsilon
    coefs = coefficient_set(params, cfg)
    a = coefs.a_bound
    delta = 1.0 + math.sqrt(eps)
    b = b_coefficient(eps, delta)
    c = c_coefficient(eps, delta)

    levels = np.arange(0, n, 2, dtype=np.float64)  # 0, 2, ..., N-2
    dfac = np.empty_like(levels)
    dfac[0] = 1.0
    prev = n - levels[1:] + 1.0  # N - 2j - 1 for the step leaving level 2j
    dfac[1:] = 1.0 + a - 2.0 * b / prev - (1.0 - c) / (prev * prev)

    x = np.empty_like(levels)
    x[0] = 1.0
    first_bad = int(_kernels.rational_chain(dfac, x))

    sqrt_eta_a = math.sqrt(coefs.eta * a)
    lower = 0.5 * (1.0 + sqrt_eta_a - (b / sqrt_eta_a) / (n - levels - coefs.xi))
    return SequenceWithBound(
        levels=levels.astype(np.int64),
        values=x,
        bound=lower,
        bound_is_lower=True,
        first_nonpositive=first_bad,
    )


@dataclass(frozen=True)
class StreamedSequenceSummary:
    """Terminal value and worst bound margin of a chain, bounded memory."""

    terminal: float
    min_margin: float
    first_nonpositive: int


def x_sequence_terminal(
    params: ModelParams, cfg: Optional[FlowConfig] = None
) -> StreamedSequenceSummary:
    """Streaming form of x_sequence for sweeps at very large N: returns
    only the terminal entry and the minimum lower-bound margin instead
    of materializing O(N) arrays; memory is O(_kernels.STREAM_BLOCK).
    Identical arithmetic to x_sequence while the chain fits one block.
    """
    cfg = cfg or FlowConfig()
    n, eps = params.n_particles, params.epsilon
    coefs = coefficient_set(params, cfg)
    a = coefs.a_bound
    delta = 1.0 + math.sqrt(eps)
    b = b_coefficient(eps, delta)
    c = c_coefficient(eps, delta)
    terminal, min_margin, first_bad = _kernels.x_chain_streaming(
        n, a, b, c, math.sqrt(coefs.eta * a), coefs.xi
    )
    return StreamedSequenceSummary(
        terminal=float(terminal),
        min_margin=float(min_margin),
        first_nonpositive=int(first_bad),
    )


def xtilde_sequence(
    params: ModelParams, cfg: Optional[FlowConfig] = None
) -> SequenceWithBound:
    """Minorant chain over even levels N - N^(1-gamma) .. N-2, started at 1.

    Step to level 2j+2 divides by 4*(1 + a_g - 2b/(N-2j) - (1-c)/(N-2j)^2)
    where a_g carries the c_gamma-inflated corrections and b, c use the
    configured delta (default 1 + sqrt(eps)).  The companion upper bound
    (1 + sqrt(a_g) - 1/(N - 2j + 1 - b)) / 2 is asserted on the tail
    2 <= N - 2j <= N^(1-gamma)/2 and NaN elsewhere.
    """
    cfg = cfg or FlowConfig()
    n, eps = params.n_particles, params.epsilon
    coefs = coefficient_set(params, cfg)
    delta = cfg.resolved_delta(eps)
    b = b_coefficient(eps, delta)
    c = c_coefficient(eps, delta)
    a_g = coefs.a_gamma

    span = int(n ** (1.0 - cfg.gamma) + 1e-9)  # nudge floor against pow slop
    span -= span % 2
    if span < 4:
        raise ValueError("N^(1-gamma) must be at least 4")
    start = n - span
    levels = np.arange(start, n, 2, dtype=np.float64)
    rem_prev = n - (levels[1:] - 2.0)  # N - 2j at the previous level
    dfac = np.empty_like(levels)
    dfac[0] = 1.0
    dfac[1:] = 1.0 + a_g - 2.0 * b / rem_prev - (1.0 - c) / (rem_prev * rem_prev)

    xt = np.empty_like(levels)
    xt[0] = 1.0
    first_bad = int(_kernels.rational_chain(dfac, xt))

    rem = n - levels
    upper = 0.5 * (1.0 + math.sqrt(a_g) - 1.0 / (rem + 1.0 - b))
    upper[rem > span // 2] = np.nan  # bound asserted on the tail range only
    return SequenceWithBound(
        levels=levels.astype(np.int64),
        values=xt,
        bound=upper,
        bound_is_lower=False,
        first_nonpositive=first_bad,
    )


@dataclass(frozen=True)
class YStarSequence:
    """Downward comparison sequence matched to the truncated flow.

    values[j] is the entry at pair index two_l[j]; two_l descends from
    floor(N^(1-beta))+2 to 2.  positive is False past the first
    nonpositive entry (a regime violation, reported not raised).
    """

    two_l: np.ndarray
    values: np.ndarray
    positive: bool
    first_nonpositive: int


def y_star_sequence(params: ModelParams, beta: float) -> YStarSequence:
    """Recursion Y_{2l-2} = 1 - 1/(4*(1 + a' - 2b/(2l) - (1-c)/(4l^2))*Y_{2l})
    started at 1, with a' = eps^2 + 2eps and b, c evaluated at delta = 1.
    """
    n, eps = params.n_particles, params.epsilon
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    span = int(n ** (1.0 - beta) + 1e-9)  # nudge floor against pow slop
    if span < 4:
        raise ValueError("N^(1-beta) must be at least 4")
    span -= span % 2

    a_prime = eps * eps + 2.0 * eps
    b1 = (1.0 + eps) * math.sqrt(a_prime)
    # c at delta = 1 vanishes identically
    two_l = np.arange(span + 2, 0, -2, dtype=np.float64)  # span+2 down to 2
    # step j (from two_l[j-1] to two_l[j]) uses the upper index two_l[j-1]
    upper = two_l[:-1]
    dfac = np.empty_like(two_l)
    dfac[0] = 1.0
    dfac[1:] = 1.0 + a_prime - 2.0 * b1 / upper - 1.0 / (upper * upper)
    y = np.empty_like(two_l)
    y[0] = 1.0
    first_bad = int(_kernels.rational_chain(dfac, y))
    return YStarSequence(
        two_l=two_l.astype(np.int64),
        values=y,
        positive=first_bad < 0,
        first_nonpositive=first_bad,
    )


def y_closed_form(l, epsilon: float):
    """Closed-form solution of the delta = 1 comparison recursion.

    y_{2l} = (1 + sqrt(a')/sqrt(1+a') - 1/((2l+1)(1+a') - sqrt(a')sqrt(1+a')))/2
    with a' = eps^2 + 2eps; note sqrt(1+a') = 1 + eps exactly.  At eps = 0
    this reduces to l/(2l+1).  Accepts scalars or arrays in l.
    """
    l = np.asarray(l, dtype=np.float64)
    a = epsilon * epsilon + 2.0 * epsilon
    sa = math.sqrt(a)
    s1a = math.sqrt(1.0 + a)
    val = 0.5 * (1.0 + sa / s1a - 1.0 / ((2.0 * l + 1.0) * (1.0 + a) - sa * s1a))
    return float(val) if val.ndim == 0 else val


def y_closed_recursion_residual(l, epsilon: float):
    """Relative residual of the closed form in its defining recursion.

    Substitutes y_{2l} and y_{2l-2} from y_closed_form into
    y_{2l-2} = 1 - 1/(4*(1 + a' - 2b/(2l) - 1/(4l^2))*y_{2l}) with
    b = (1+eps)*sqrt(a'); exact algebraically, so the residual is pure
    rounding.  Accepts scalars or arrays with l >= 2.
    """
    l = np.asarray(l, dtype=np.float64)
    a = epsilon * epsilon + 2.0 * epsilon
    b1 = (1.0 + epsilon) * math.sqrt(a)
    y_hi = y_closed_form(l, epsilon)
    y_lo = y_closed_form(l - 1.0, epsilon)
    dfac = 1.0 + a - b1 / l - 1.0 / (4.0 * l * l)
    rhs = 1.0 - 1.0 / (4.0 * dfac * y_hi)
    res = np.abs(rhs - y_lo) / np.abs(y_lo)
    return float(res) if res.ndim == 0 else res


def rational_fixed_point(a: float) -> float:
    """Fixed point (1 + sqrt(a/(1+a)))/2 of y = 1 - 1/(4*(1+a)*y)."""
    return 0.5 + 0.5 * math.sqrt(a / (1.0 + a))


def accessori_identity_check(epsilon: float, delta: float, m_values) -> float:
    """Max relative residual of the two-factor product identity.

    For delta < 2 and s = sqrt(eps^2 + 2eps):

      (1+eps - (eps+1+delta*s)/m) * (1+eps + (eps+1-delta*s)/m)
        = 1 + a - 2b/m - (1-c)/m^2

    with a = 2eps + eps^2, b = (1+eps)*delta*s, c = -(1-delta^2)*s^2;
    exact once the 1/N correction inside the second factor is dropped.
    At delta >= 2 the delta*s terms are cut and the right side carries
    1 - c = (1+eps)^2, keeping the identity exact on that branch too.
    """
    m = np.asarray(m_values, dtype=np.float64)
    if np.any(m < 3):
        raise ValueError("m must be >= 3")
    eps = epsilon
    s = math.sqrt(eps * (eps + 2.0))
    a = 2.0 * eps + eps * eps
    if 0.0 <= delta < 2.0:
        ds = delta * s
        b = (1.0 + eps) * ds
        one_minus_c = 1.0 + (1.0 - delta * delta) * s * s
    else:
        ds = 0.0
        b = 0.0
        one_minus_c = (1.0 + eps) ** 2
    lhs = (1.0 + eps - (eps + 1.0 + ds) / m) * (1.0 + eps + (eps + 1.0 - ds) / m)
    rhs = 1.0 + a - 2.0 * b / m - one_minus_c / (m * m)
    return float(np.max(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1.0)))


@dataclass(frozen=True)
class BoundSequences:
    """Bundle of every auxiliary sequence at one parameter point."""

    x: SequenceWithBound
    xtilde: SequenceWithBound
    y_closed: np.ndarray
    y_closed_l: np.ndarray


def bound_sequences(
    params: ModelParams,
    cfg: Optional[FlowConfig] = None,
    l_grid=None,
) -> BoundSequences:
    cfg = cfg or FlowConfig()
    if l_grid is None:
        l_grid = np.unique(np.geomspace(1, 1e4, 25).astype(np.int64))
    l_grid = np.asarray(l_grid)
    return BoundSequences(
        x=x_sequence(params, cfg),
        xtilde=xtilde_sequence(params, cfg),
        y_closed=y_closed_form(l_grid.astype(np.float64), params.epsilon),
        y_closed_l=l_grid,
    )
