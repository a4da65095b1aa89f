"""Auxiliary real sequences, their analytic bound companions, and the
closed-form solution of the comparison recursion.

All sequences are rational chains x -> 1 - 1/(4*D*x) differing only in
the denominator factors D and the direction of the index; the shared
kernel lives in _kernels.rational_chain.
"""

import math
from dataclasses import dataclass
import numpy as np

from . import _kernels
from .model import (
    GAMMA,
    ModelParams,
    chain_denominator,
    coefficient_set,
    majorant_coefficients,
    majorant_lower_bound,
    power_span,
)

# slack absorbing rounding when checking strict analytic inequalities;
# bound_tolerance scales it by 1 + |value|
BOUND_SLACK = 1e-14
# majorant_step checks the even m <= STEP_SPAN one by one; its tail test passes from eps = 1e-3 on
STEP_SPAN = 1 << 16


def bound_tolerance(scale):
    """BOUND_SLACK * (1 + |scale|), the rounding slack every bound check
    grants an entry of that scale: a bound holds where margin >= -tol."""
    return BOUND_SLACK * (1.0 + np.abs(scale))


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

    def holds(self) -> bool:
        """margin >= -bound_tolerance(values) at every entry with a finite
        bound; entries whose bound is NaN (not asserted) do not count."""
        finite = np.isfinite(self.bound)
        return bool(np.all(self.margin[finite] >= -bound_tolerance(self.values[finite])))

    def to_csv(self, path) -> None:
        lines = ["index,value,bound,margin"]
        for i, v, b, m in zip(self.levels, self.values, self.bound, self.margin):
            lines.append(f"{int(i)},{float(v)!r},{float(b)!r},{float(m)!r}")
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")


def x_sequence(params: ModelParams) -> SequenceWithBound:
    """Forward majorant chain X over even levels 0..N-2, X_0 = 1.

    Step to level 2j+2 divides by 4*D(N-2j-1), D = model.chain_denominator
    with a = 2eps + eps^2 and b, c evaluated at delta = 1 + sqrt(eps).
    Companion lower bound: X_{2j} >= model.majorant_lower_bound(N - 2j),
    which majorant_step proves at every even N; this is its reference.
    """
    n = params.n_particles
    a, b, c, sqrt_eta_a, xi = majorant_coefficients(params)

    levels = np.arange(0, n, 2, dtype=np.float64)  # 0, 2, ..., N-2
    dfac = np.empty_like(levels)
    dfac[0] = 1.0
    # N - 2j - 1 for the step leaving level 2j
    dfac[1:] = chain_denominator(n - levels[1:] + 1.0, a, b, c)

    x = np.empty_like(levels)
    x[0] = 1.0
    first_bad = int(_kernels.rational_chain(dfac, x))
    return SequenceWithBound(
        levels=levels.astype(np.int64),
        values=x,
        bound=majorant_lower_bound(n - levels, b, sqrt_eta_a, xi),
        bound_is_lower=True,
        first_nonpositive=first_bad,
    )


def majorant_step(params: ModelParams):
    """(margin, min_slack, worst_level, tail, failures) of the induction step
    that proves the bound X >= L of x_sequence at every even N; D and
    L = model.majorant_lower_bound read eps alone.

    With m = N - level, X steps x(m) = F_m(x(m + 2)) = 1 - 1/(4 D(m+1) x(m + 2))
    from x(N) = 1 >= L(N), and F_m rises in x where D(m+1) > 0 and x > 0.
    So x >= L > 0 on every chain if L rises (b >= 0, m > xi) from L(2) > 0
    to L_inf <= 1, and D(m+1) > 0 and margin(m) = F_m(L(m + 2)) - L(m) >= 0
    at every even m >= 2.  min_slack is the least margin(m) plus
    bound_tolerance(L(m)) over the even m <= M = STEP_SPAN, at worst_level.
    Beyond M, if b(M+1) + 1 - c >= 0, D(m+1) and L(m + 2) rise in m, so each
    margin exceeds tail = F_M(L(M + 2)) - L_inf, whose slack adds
    bound_tolerance(L_inf).  margin is the least of L(2) and the two slacks,
    and failures names each premise that fails: none where X >= L holds.
    """
    a, b, c, sqrt_eta_a, xi = majorant_coefficients(params)
    m = np.arange(2.0, STEP_SPAN + 3.0, 2.0)  # 2 .. M + 2
    bound = majorant_lower_bound(m, b, sqrt_eta_a, xi)
    denom = chain_denominator(m[:-1] + 1.0, a, b, c)  # D(m + 1), m = 2 .. M
    step = 1.0 - 1.0 / (4.0 * denom * bound[1:])  # F_m(L(m + 2))
    slack = step - bound[:-1] + bound_tolerance(bound[:-1])
    worst = int(np.argmin(slack))
    limit = majorant_lower_bound(math.inf, b, sqrt_eta_a, xi)  # L_inf
    tail = float(step[-1] - limit)
    tail_slack = tail + bound_tolerance(limit)
    premises = {
        f"L(2) = {bound[0]:.3e} <= 0": bound[0] > 0.0,
        "L does not rise to L_inf <= 1": b >= 0.0 and xi < 2.0 and limit <= 1.0,
        "D(m+1) <= 0 at some m <= M": np.all(denom > 0.0),
        "b(M+1) + 1 - c < 0": b * (STEP_SPAN + 1.0) + 1.0 - c >= 0.0,
        "a step slack < 0": slack[worst] >= 0.0,
        "tail slack < 0": tail_slack >= 0.0,
    }
    failures = tuple(reason for reason, holds in premises.items() if not holds)
    margin = float(np.min([bound[0], slack[worst], tail_slack]))
    return margin, float(slack[worst]), int(m[worst]), tail, failures


def xtilde_sequence(params: ModelParams) -> SequenceWithBound:
    """Minorant chain over even levels N - s .. N-2, s = model.power_span(N,
    1 - GAMMA), started at 1.

    Step to level 2j+2 divides by 4*D(N-2j), D = model.chain_denominator
    with a = a_g, which carries the C_GAMMA-inflated corrections, and b, c
    at delta = 1 + sqrt(eps).  The companion upper bound
    (1 + sqrt(a_g) - 1/(N - 2j + 1 - b)) / 2 is asserted on the tail
    2 <= N - 2j <= s/2 and NaN elsewhere.
    """
    n = params.n_particles
    coefs = coefficient_set(params)
    a_g, b = coefs.a_gamma, coefs.b_delta

    span = power_span(n, 1.0 - GAMMA)
    start = n - span
    levels = np.arange(start, n, 2, dtype=np.float64)
    rem_prev = n - (levels[1:] - 2.0)  # N - 2j at the previous level
    dfac = np.empty_like(levels)
    dfac[0] = 1.0
    dfac[1:] = chain_denominator(rem_prev, a_g, b, coefs.c_delta)

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


def y_star_sequence(params: ModelParams, beta: float) -> SequenceWithBound:
    """Downward comparison chain matched to the truncated flow: the
    recursion Y_{2l-2} = 1 - 1/(4*(1 + a' - 2b/(2l) - (1-c)/(4l^2))*Y_{2l})
    started at 1, with a' = eps^2 + 2eps and b, c evaluated at delta = 1.

    levels are the pair indices 2l, descending from
    model.power_span(N, 1 - beta) + 2 to 2; the companion lower bound is
    y_closed_form(l, eps).  A nonpositive entry is a regime violation,
    reported not raised.
    """
    n, eps = params.n_particles, params.epsilon
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    span = power_span(n, 1.0 - beta)

    a_prime = eps * eps + 2.0 * eps
    b1 = (1.0 + eps) * math.sqrt(a_prime)
    # c at delta = 1 vanishes identically
    two_l = np.arange(span + 2, 0, -2, dtype=np.float64)  # span+2 down to 2
    # step j (from two_l[j-1] to two_l[j]) uses the upper index two_l[j-1]
    upper = two_l[:-1]
    dfac = np.empty_like(two_l)
    dfac[0] = 1.0
    dfac[1:] = chain_denominator(upper, a_prime, b1, 0.0)
    y = np.empty_like(two_l)
    y[0] = 1.0
    first_bad = int(_kernels.rational_chain(dfac, y))
    return SequenceWithBound(
        levels=two_l.astype(np.int64),
        values=y,
        bound=y_closed_form(two_l / 2.0, eps),
        bound_is_lower=True,
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
    dfac = chain_denominator(2.0 * l, a, b1, 0.0)  # factors of 2 scale exactly
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
