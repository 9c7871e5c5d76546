"""The two-user closed-form solvers as scalar branch ladders on Python
floats: an independent reference for ``macwiretap.optimizer._solve``, the
package's one form of the case logic.

Tests compare the public solvers and the sweep with it value for value and
message for message.  The rate kernels and the input parsing are the
package's own, and the capacity expression is the sum-rate kernel at the
jamming allocation (the difference of its two rates where the kernel's gap
rounds to -1, of their scaled logarithms where a sum overflows); the
relabelling, the case logic, the sum-rate threshold and the jamming root
are written here.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from macwiretap.channel import NONNEGATIVE, _as_numbers
from macwiretap.errors import ValidationError
from macwiretap.optimizer import (
    CASE_BOTH_TRANSMIT,
    CASE_JAM_AT_MAX,
    CASE_JAM_AT_ROOT,
    CASE_NO_JAM,
    CASE_NONE,
    CASE_ONE_TRANSMITS,
    PowerAllocation,
    _jam_kernel,
    _sum_kernel,
)
from macwiretap.rates import _BITS, _g_arr


def _sorted_two(gains, pmax):
    """Two-user gains and power limits, parsed and ordered by gain (ties
    keep the given order), and whether the order was swapped."""
    h = _as_numbers(gains, "gains", 2, NONNEGATIVE)
    m = _as_numbers(pmax, "pmax", 2, NONNEGATIVE)
    if h[0] <= h[1]:
        return h, m, False
    return (h[1], h[0]), (m[1], m[0]), True


def _restore(pair: tuple[float, float], swapped: bool) -> tuple[float, float]:
    return (pair[1], pair[0]) if swapped else pair


def _threshold(h1, m1):
    """Both users transmit when h1 < 1 and h2 lies below this threshold."""
    return (1.0 + h1 * m1) / (1.0 + m1)


def _jam_root(h1, h2, m1, sign: float = 1.0):
    """(discriminant, root) of the jamming-power stationarity parabola at
    full transmit power m1, elementwise and unchecked.  The root is
    (-h2(1-h1) + sign*sqrt(disc)) / (h2(h2-h1)): the larger one for the
    default sign when h2 > h1, and inf or NaN where the division leaves the
    float range or the discriminant is negative or overflows (see
    ``_read_jam_root``)."""
    with np.errstate(all="ignore"):
        disc = h1 * h2 * (h2 - 1.0) * ((h2 - 1.0) + (h2 - h1) * m1)
        return disc, (-h2 * (1.0 - h1) + sign * np.sqrt(disc)) / (h2 * (h2 - h1))


def _allocation(kernel, p_sorted, case: str, h, m, swapped: bool, **extra) -> PowerAllocation:
    """The allocation in the caller's order, its objective clamped at zero;
    a non-finite objective is rejected."""
    rate = float(kernel(p_sorted[0], p_sorted[1], h[0], h[1]))
    if not math.isfinite(rate):
        raise ValidationError(
            f"gains {_restore(h, swapped)} with pmax {_restore(m, swapped)} too large: "
            "the secrecy rate overflows the float range"
        )
    return PowerAllocation(
        p=_restore(p_sorted, swapped), case_label=case, achieved_rate=max(0.0, rate), **extra
    )


def _sum_allocation(h, m, swapped: bool) -> PowerAllocation:
    (h1, h2), (m1, m2) = h, m
    if h1 < 1.0:
        if h2 < _threshold(h1, m1):
            p_sorted, case = (m1, m2), CASE_BOTH_TRANSMIT
        else:
            p_sorted, case = (m1, 0.0), CASE_ONE_TRANSMITS
    else:
        p_sorted, case = (0.0, 0.0), CASE_NONE
    return _allocation(_sum_kernel, p_sorted, case, h, m, swapped)


def optimal_powers_sum(gains: Sequence[float], pmax: Sequence[float]) -> PowerAllocation:
    """Closed-form secrecy sum-rate maximizing powers for two users.

    With gains ordered h1 <= h2 and m = pmax: both users transmit at full
    power when h1 < 1 and h2 is below the threshold (1 + h1*m1)/(1 + m1);
    only the better user transmits when h1 < 1 and h2 is at or above it;
    nobody transmits otherwise.
    """
    return _sum_allocation(*_sorted_two(gains, pmax))


def _read_jam_root(h1: float, h2: float, m1: float) -> float:
    """The larger jamming root where the solver reads it (h2 > 1, h2 > h1).
    Where the discriminant overflows, the root is sqrt(h1 (1 - 1/h2) q / d)
    - (1-h1)/d with d = h2 - h1 and q = (h2-1)/d + m1, the square root taken
    on the mantissas of h1, q and d and scaled by their binary exponents."""
    disc, root = _jam_root(h1, h2, m1)
    if math.isfinite(disc):
        return float(root)
    d = h2 - h1
    (f1, e1), (fq, eq), (fd, ed) = math.frexp(h1), math.frexp((h2 - 1.0) / d + m1), math.frexp(d)
    e = e1 + eq - ed
    return math.ldexp(math.sqrt(f1 * (1.0 - 1.0 / h2) * fq / fd * (1 + e % 2)), e // 2) - (1.0 - h1) / d


def optimal_powers_jam(gains: Sequence[float], pmax: Sequence[float]) -> PowerAllocation:
    """Closed-form cooperative-jamming allocation for two users.

    With gains ordered h1 <= h2, user 1 transmits and user 2 jams.  The four
    cases: full transmit power with no jamming when h1 <= 1 and h2 lies
    between the sum-rate threshold and 1; jamming power clamped to
    [0, pmax2] around the stationarity root when h1 <= 1 and h2 > 1; jamming
    at min(root, pmax2) when h1 >= 1 and (h1-1)/(h2-h1) < pmax2; silence
    otherwise.  Below the sum-rate threshold both users should transmit, so
    the sum-rate solver's answer is returned.  Equal gains make jamming
    ineffective: the sum-rate answer (gains < 1) or silence (gains >= 1).
    """
    h, m, swapped = _sorted_two(gains, pmax)
    (h1, h2), (m1, m2) = h, m
    if h1 == h2 >= 1.0:
        p_sorted, case = (0.0, 0.0), CASE_NO_JAM
    elif h1 == h2 or (h2 <= 1.0 and h2 < _threshold(h1, m1)):
        return _sum_allocation(h, m, swapped)
    elif h2 <= 1.0:
        p_sorted, case = (m1, 0.0), CASE_NO_JAM
    elif h1 <= 1.0:
        # h2 > 1 and h1 >= 0, so the discriminant is nonnegative
        p2 = max(0.0, min(_read_jam_root(h1, h2, m1), m2))
        p_sorted = (m1, p2)
        case = CASE_NO_JAM if p2 == 0.0 else CASE_JAM_AT_MAX if p2 == m2 else CASE_JAM_AT_ROOT
    elif (h1 - 1.0) / (h2 - h1) < m2:
        p2 = min(_read_jam_root(h1, h2, m1), m2)
        p_sorted = (m1, p2)
        case = CASE_JAM_AT_MAX if p2 == m2 else CASE_JAM_AT_ROOT
    else:
        p_sorted, case = (0.0, 0.0), CASE_NONE
    # a gap that rounds to -1 or below has no finite logarithm: there the
    # capacity expression is the difference of its two rates; where a sum
    # overflows, that of the logarithms of both sums over twice the larger
    # power; and it is left out where that is not finite either
    (p1, p2), (h1, h2) = p_sorted, h
    with np.errstate(all="ignore"):
        capacity = float(_sum_kernel(p1, p2, h1, h2))
        if not math.isfinite(capacity):
            capacity = float(_g_arr(p1 + p2) - _g_arr(h1 * p1 + h2 * p2))
        if not math.isfinite(capacity):
            q1, q2, q0 = np.divide((p1, p2, 1.0), max(p1, p2)) * 0.5
            capacity = float((np.log(q0 + (q1 + q2)) - np.log(q0 + (h1 * q1 + h2 * q2))) * _BITS)
    return _allocation(
        _jam_kernel, p_sorted, case, h, m, swapped,
        capacity_expr_rate=capacity if math.isfinite(capacity) else None,
    )
