"""Two-user secrecy sum-rate power optimization and cooperative jamming.

Closed-form optimal allocations for (a) both users transmitting secret
messages and (b) the weaker-secrecy user jamming the eavesdropper with
Gaussian noise, plus an exhaustive grid-search oracle used to verify the
closed forms independently.

The solvers and the oracle take the users in the caller's order and return
their powers in it.  Who transmits is decided in two places only, ``_solve``
and ``grid_oracle``: the user with the smaller eavesdropper gain (the
"better" user, the first one on a tie) transmits as user 1, and user 2 is
noise to both receivers when it jams.  The case logic of both allocations
lives in ``_solve``, which works elementwise on arrays (the scenario sweep)
and on 0-d values (the two public solvers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import NONNEGATIVE, WHOLE, _as_number, _as_numbers
from .errors import ValidationError
from .rates import _g_arr

CASE_BOTH_TRANSMIT = "BOTH_TRANSMIT"
CASE_ONE_TRANSMITS = "ONE_TRANSMITS"
CASE_NONE = "NONE"
CASE_JAM_AT_ROOT = "JAM_AT_ROOT"
CASE_JAM_AT_MAX = "JAM_AT_MAX"
CASE_NO_JAM = "NO_JAM"

OBJECTIVE_SUM = "SUM"
OBJECTIVE_JAM = "JAM"

MIN_ORACLE_RESOLUTION = 11
# cells per block of the oracle's grid: each float64 temporary of a kernel
# pass then takes at most 64 KiB, below glibc's 128 KiB mmap threshold, so
# the blocks reuse heap memory instead of faulting in fresh pages, and the
# oracle's memory no longer grows with its resolution
_ORACLE_BLOCK = 8192


@dataclass(frozen=True)
class PowerAllocation:
    """A two-user power allocation with its case label and achieved rate.

    ``achieved_rate`` is the relevant objective at ``p``, clamped at zero for
    reporting (a negative objective means silence is optimal and the
    allocation is all-zero anyway).  For jamming results the objective is
    evaluated with the lower-gain user transmitting.  ``capacity_expr_rate``
    is an alternative closed-form capacity expression evaluated at the
    allocation, reported on jamming results as a diagnostic: it can disagree
    with the maximized objective when the jammer is active, and the gap is
    surfaced rather than hidden.
    """

    p: tuple[float, float]
    case_label: str
    achieved_rate: float
    capacity_expr_rate: float | None = None

    def to_dict(self) -> dict:
        out = {
            "p": self.p,
            "case": self.case_label,
            "achieved_rate": self.achieved_rate,
        }
        if self.capacity_expr_rate is not None:
            out["capacity_expr_rate"] = self.capacity_expr_rate
        return out


def _sum_kernel(p1, p2, h1: float, h2: float):
    return _g_arr(p1 + p2) - _g_arr(h1 * p1 + h2 * p2)


def _jam_kernel(p1, p2, h1: float, h2: float):
    return _g_arr(p1 / (1.0 + p2)) - _g_arr(h1 * p1 / (1.0 + h2 * p2))


def _threshold(h1, m1):
    """Both users transmit when h1 < 1 and h2 lies below this threshold."""
    return (1.0 + h1 * m1) / (1.0 + m1)


def _jam_root(h1, h2, m1):
    """(discriminant, larger root) of the jamming-power stationarity
    parabola at full transmit power m1, elementwise and unchecked; call it
    under ``np.errstate(all="ignore")``.  The root is
    (-h2(1-h1) + sqrt(disc)) / (h2(h2-h1)), the larger one when h2 > h1 (the
    only root ``_solve`` reads), and inf or NaN where the division leaves
    the float range or the discriminant is negative or overflows."""
    disc = h1 * h2 * (h2 - 1.0) * ((h2 - 1.0) + (h2 - h1) * m1)
    return disc, (-h2 * (1.0 - h1) + np.sqrt(disc)) / (h2 * (h2 - h1))


def _too_large(h, m, what: str, m_name: str = "pmax") -> ValidationError:
    return ValidationError(
        f"gains {h} with {m_name} {m} too large: {what} overflows the float range"
    )


# case labels in the order of the codes that ``_solve`` returns
CASE_LABELS = (
    CASE_BOTH_TRANSMIT, CASE_ONE_TRANSMITS, CASE_NONE,
    CASE_JAM_AT_ROOT, CASE_JAM_AT_MAX, CASE_NO_JAM,
)
_CODE = {label: code for code, label in enumerate(CASE_LABELS)}


def _pick(cond, a, b):
    """``np.where``, except that a 0-d result comes back as a numpy scalar,
    whose arithmetic costs a fraction of a 0-d array's."""
    return np.where(cond, a, b)[()]


def _solve(h_a, h_b, m_a, m_b):
    """Both closed-form allocations of standardized two-user channels,
    elementwise over arrays that broadcast together or on 0-d values; call
    it under ``np.errstate(all="ignore")``.

    Returns ((P1, P2, rate, case code) of the sum-rate allocation,
    (P1, P2, rate, case code) of the jamming allocation, roots_ok), powers
    in the given user order, rates unclamped, codes indexing
    ``CASE_LABELS``.  ``roots_ok`` is false where the jamming allocation
    reads a root whose discriminant is not finite.
    """
    swapped = h_a > h_b
    h1, h2 = _pick(swapped, h_b, h_a), _pick(swapped, h_a, h_b)
    m1, m2 = _pick(swapped, m_b, m_a), _pick(swapped, m_a, m_b)

    # sum rate: both users transmit at full power when h1 < 1 and h2 lies
    # below the threshold, only user 1 when h1 < 1 otherwise, nobody else
    below = h1 < 1.0
    under = h2 < _threshold(h1, m1)
    both = below & under
    s1 = _pick(below, m1, 0.0)
    s2 = _pick(both, m2, 0.0)
    sum_case = _pick(both, _CODE[CASE_BOTH_TRANSMIT],
                     _pick(below, _CODE[CASE_ONE_TRANSMITS], _CODE[CASE_NONE]))
    sum_rate = _sum_kernel(s1, s2, h1, h2)

    # jamming: equal gains below one and distinct gains below the sum-rate
    # threshold defer to the sum-rate answer; equal gains at or above one
    # stay silent.  With distinct gains user 1 transmits at full power when
    # h1 <= 1, and user 2 then jams at the root clamped to [0, m2] when
    # h2 > 1; when 1 < h1 both act only if jamming is worthwhile, user 2 at
    # min(root, m2).  Wherever the root is read, h2 > 1 and h1 >= 0, so the
    # discriminant is never negative
    distinct = h1 != h2
    weak = h2 <= 1.0
    defer = _pick(distinct, weak & under, below)
    lo = distinct & (h1 <= 1.0)
    strong = distinct & (h1 > 1.0)
    root_lo = lo & (h2 > 1.0)
    root_hi = strong & ((h1 - 1.0) / (h2 - h1) < m2)
    disc, root = _jam_root(h1, h2, m1)
    capped = _pick(m2 < root, m2, root)  # min(root, m2), ties to root
    jams = root_hi | (root_lo & (capped > 0.0))
    j2 = _pick(jams, capped, 0.0)
    j1 = _pick(lo | root_hi, m1, 0.0)
    jam_case = _pick(
        jams,
        _pick(j2 == m2, _CODE[CASE_JAM_AT_MAX], _CODE[CASE_JAM_AT_ROOT]),
        _pick(strong, _CODE[CASE_NONE], _CODE[CASE_NO_JAM]),
    )
    jam_rate = _jam_kernel(j1, j2, h1, h2)

    p1 = _pick(defer, s1, j1)
    p2 = _pick(defer, s2, j2)
    return (
        (_pick(swapped, s2, s1), _pick(swapped, s1, s2), sum_rate, sum_case),
        (_pick(swapped, p2, p1), _pick(swapped, p1, p2),
         _pick(defer, sum_rate, jam_rate), _pick(defer, sum_case, jam_case)),
        ~(root_lo | root_hi) | np.isfinite(disc),
    )


def _objective(kernel, powers, gains) -> float:
    """``kernel`` at checked powers and gains; a rate that is not finite is
    rejected, as the solvers reject it."""
    p = _as_numbers(powers, "powers", 2, NONNEGATIVE)
    h = _as_numbers(gains, "gains", 2, NONNEGATIVE)
    with np.errstate(all="ignore"):
        rate = float(kernel(*p, *h))
    if not math.isfinite(rate):
        raise _too_large(h, p, "the secrecy rate", "powers")
    return rate


def sum_objective(powers: Sequence[float], gains: Sequence[float]) -> float:
    """Secrecy sum rate g(P1+P2) - g(h1*P1 + h2*P2); may be negative."""
    return _objective(_sum_kernel, powers, gains)


def jam_objective(powers: Sequence[float], gains: Sequence[float]) -> float:
    """Single-user secrecy rate when user 2 jams: user 2's power is noise to
    both receivers.  May be negative."""
    return _objective(_jam_kernel, powers, gains)


def _capacity_expr(p1: float, p2: float, h1: float, h2: float) -> float | None:
    arg = ((1.0 - h1) * p1 + (1.0 - h2) * p2) / (1.0 + h1 * p1 + h2 * p2)
    if arg <= -1.0:
        return None
    return 0.5 * math.log2(1.0 + arg)


def _allocations(gains, pmax, objectives: Sequence[str]) -> list[PowerAllocation]:
    """One 0-d ``_solve`` of a two-user channel, as the allocation of each
    of ``objectives`` (OBJECTIVE_SUM, OBJECTIVE_JAM) in turn: the powers in
    the caller's order and the objective clamped at zero.  An allocation
    whose jamming root or objective leaves the float range is rejected."""
    h = _as_numbers(gains, "gains", 2, NONNEGATIVE)
    m = _as_numbers(pmax, "pmax", 2, NONNEGATIVE)
    with np.errstate(all="ignore"):
        nojam, jam, roots_ok = _solve(*h, *m)
    out = []
    for objective in objectives:
        extra = {}
        if objective == OBJECTIVE_SUM:
            p1, p2, rate, code = nojam
        else:
            if not roots_ok:
                raise _too_large(h, m, "the jamming-root discriminant")
            p1, p2, rate, code = jam
            # a request that deferred to the sum-rate answer returns it as is
            if code not in (_CODE[CASE_BOTH_TRANSMIT], _CODE[CASE_ONE_TRANSMITS]):
                extra["capacity_expr_rate"] = _capacity_expr(float(p1), float(p2), *h)
        rate = float(rate)
        if not math.isfinite(rate):
            raise _too_large(h, m, "the secrecy rate")
        out.append(PowerAllocation(
            p=(float(p1), float(p2)), case_label=CASE_LABELS[code],
            achieved_rate=max(0.0, rate), **extra,
        ))
    return out


def optimal_powers_sum(gains: Sequence[float], pmax: Sequence[float]) -> PowerAllocation:
    """Closed-form secrecy sum-rate maximizing powers for two users.

    With gains ordered h1 <= h2 and m = pmax: both users transmit at full
    power when h1 < 1 and h2 is below the threshold (1 + h1*m1)/(1 + m1);
    only the better user transmits when h1 < 1 and h2 is at or above it;
    nobody transmits otherwise.
    """
    return _allocations(gains, pmax, (OBJECTIVE_SUM,))[0]


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
    return _allocations(gains, pmax, (OBJECTIVE_JAM,))[0]


def tdma_optimal_alpha(powers: Sequence[float]) -> tuple[float, ...]:
    """Time shares proportional to powers; optimal for the single-user
    time-sharing scheme and summing to one."""
    p = _as_numbers(powers, "powers", rule=NONNEGATIVE)
    total = sum(p)
    if total <= 0.0:
        raise ValidationError("time shares undefined for all-zero powers")
    if not math.isfinite(total):
        raise ValidationError(f"powers {p} too large: their sum overflows the float range")
    return tuple(v / total for v in p)


def _oracle_label(objective: str, p1: float, p2: float, m2: float) -> str:
    if p1 == 0.0 and p2 == 0.0:
        return CASE_NONE
    if objective == OBJECTIVE_SUM:
        return CASE_BOTH_TRANSMIT if (p1 > 0.0 and p2 > 0.0) else CASE_ONE_TRANSMITS
    if p2 == 0.0:
        return CASE_NO_JAM
    return CASE_JAM_AT_MAX if p2 == m2 else CASE_JAM_AT_ROOT


def grid_oracle(
    objective: str,
    gains: Sequence[float],
    pmax: Sequence[float],
    resolution: int = 201,
) -> PowerAllocation:
    """Exhaustive grid search over the power box, independent of the closed
    forms it verifies.

    The user with the smaller gain (the first one on a tie) is user 1, the
    transmitter of the jamming objective, as in the closed forms; the powers
    come back in the caller's order.  Evaluates the chosen objective on a
    uniform resolution x resolution grid over [0, pmax1] x [0, pmax2], then
    runs one local refinement pass: the window one coarse step each side of
    the incumbent is re-gridded with ``resolution`` points per axis (a step
    100x finer at the default, which keeps the value error of interior
    optima below 1e-7 on the instance scales used here).  Each grid is
    evaluated in blocks of whole rows, at most ``_ORACLE_BLOCK`` cells each,
    so the oracle's memory does not grow with ``resolution``.  Ties break
    toward the smaller lexicographic pair (P1, P2), as in one pass over the
    whole grid.
    """
    obj = str(objective).upper()
    if obj not in (OBJECTIVE_SUM, OBJECTIVE_JAM):
        raise ValidationError(f"objective must be SUM or JAM, got {objective!r}")
    h = _as_numbers(gains, "gains", 2, NONNEGATIVE)
    m = _as_numbers(pmax, "pmax", 2, NONNEGATIVE)
    resolution = _as_number(resolution, "resolution", WHOLE)
    if resolution < MIN_ORACLE_RESOLUTION:
        raise ValidationError(f"resolution must be an integer >= {MIN_ORACLE_RESOLUTION}")
    order = slice(None, None, -1 if h[0] > h[1] else 1)
    (h1, h2), (m1, m2) = h[order], m[order]
    kernel = _sum_kernel if obj == OBJECTIVE_SUM else _jam_kernel

    def best_on(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
        # whole rows at a time; a later block wins only on a strictly larger
        # value, so ties break toward the first cell in row-major order
        rows = max(1, _ORACLE_BLOCK // ys.size)
        best = (-math.inf, 0.0, 0.0)
        with np.errstate(all="ignore"):
            for start in range(0, xs.size, rows):
                values = kernel(xs[start:start + rows, None], ys[None, :], h1, h2)
                if not np.isfinite(values).all():
                    raise _too_large(h, m, "the oracle objective")
                i, j = divmod(int(np.argmax(values)), ys.size)
                if values[i, j] > best[0]:
                    best = float(values[i, j]), float(xs[start + i]), float(ys[j])
        return best

    xs = np.linspace(0.0, m1, resolution)
    ys = np.linspace(0.0, m2, resolution)
    val, p1, p2 = best_on(xs, ys)

    step1 = m1 / (resolution - 1)
    step2 = m2 / (resolution - 1)
    fine_x = np.linspace(max(0.0, p1 - step1), min(m1, p1 + step1), resolution)
    fine_y = np.linspace(max(0.0, p2 - step2), min(m2, p2 + step2), resolution)
    fval, fp1, fp2 = best_on(fine_x, fine_y)
    if fval > val:
        val, p1, p2 = fval, fp1, fp2

    return PowerAllocation(
        p=(p1, p2)[order],
        case_label=_oracle_label(obj, p1, p2, m2),
        achieved_rate=max(0.0, val),
    )
