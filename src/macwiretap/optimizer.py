"""Two-user secrecy sum-rate power optimization and cooperative jamming.

Closed-form optimal allocations for (a) both users transmitting secret
messages and (b) the weaker-secrecy user jamming the eavesdropper with
Gaussian noise, plus an exhaustive grid-search oracle used to verify the
closed forms independently.

Both closed-form solvers accept gains in any order; they relabel internally
so the first user is the one with the smaller eavesdropper gain (the "better"
user) and restore the caller's order on output.  The jamming objective itself
is direction-sensitive: user 1 transmits, user 2 is noise to both receivers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

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
            "p": list(self.p),
            "case": self.case_label,
            "achieved_rate": self.achieved_rate,
        }
        if self.capacity_expr_rate is not None:
            out["capacity_expr_rate"] = self.capacity_expr_rate
        return out


@dataclass(frozen=True)
class JamAuxiliaries:
    """Diagnostics of the jamming-power stationarity analysis.

    The derivative of the jamming objective in the jammer's power changes
    sign at the roots of an upright parabola; ``discriminant`` decides
    whether real roots exist and ``root_p`` / ``root_p_bar`` are the larger
    and smaller root (``None`` when the discriminant is negative).  ``rho``
    and ``phi2`` are the two monotone ratios of the problem evaluated at
    full transmit power and jamming power ``max(root_p, 0)`` (zero when no
    real roots exist).
    """

    rho: float
    phi2: float
    discriminant: float
    root_p: float | None
    root_p_bar: float | None

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "phi2": self.phi2,
            "discriminant": self.discriminant,
            "root_p": self.root_p,
            "root_p_bar": self.root_p_bar,
        }


def _check_pair(values: Sequence[float], name: str) -> tuple[float, float]:
    try:
        pair = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a pair of numbers: {exc}") from exc
    if len(pair) != 2:
        raise ValidationError(f"{name} must have exactly two entries, got {len(pair)}")
    if any(not math.isfinite(v) or v < 0.0 for v in pair):
        raise ValidationError(f"{name} entries must be finite and nonnegative, got {pair}")
    return pair


def rho(powers: Sequence[float], gains: Sequence[float]) -> float:
    """Ratio (1 + h1*P1 + h2*P2) / (1 + P1 + P2); the sum-rate objective is
    -0.5*log2 of it, so maximizing the rate minimizes this ratio."""
    p1, p2 = _check_pair(powers, "powers")
    h1, h2 = _check_pair(gains, "gains")
    return (1.0 + h1 * p1 + h2 * p2) / (1.0 + p1 + p2)


def phi(p: float, h_j: float) -> float:
    """Jamming-advantage ratio (1 + h_j*p) / (1 + p); jamming with power p
    helps only when this exceeds one, i.e. when h_j > 1 and p > 0."""
    if not (math.isfinite(p) and p >= 0.0):
        raise ValidationError(f"jamming power must be finite and nonnegative, got {p!r}")
    if not (math.isfinite(h_j) and h_j >= 0.0):
        raise ValidationError(f"gain must be finite and nonnegative, got {h_j!r}")
    return (1.0 + h_j * p) / (1.0 + p)


def _sum_kernel(p1, p2, h1: float, h2: float):
    return _g_arr(p1 + p2) - _g_arr(h1 * p1 + h2 * p2)


def _jam_kernel(p1, p2, h1: float, h2: float):
    return _g_arr(p1 / (1.0 + p2)) - _g_arr(h1 * p1 / (1.0 + h2 * p2))


def sum_objective(powers: Sequence[float], gains: Sequence[float]) -> float:
    """Secrecy sum rate g(P1+P2) - g(h1*P1 + h2*P2); may be negative."""
    p1, p2 = _check_pair(powers, "powers")
    h1, h2 = _check_pair(gains, "gains")
    return float(_sum_kernel(p1, p2, h1, h2))


def jam_objective(powers: Sequence[float], gains: Sequence[float]) -> float:
    """Single-user secrecy rate when user 2 jams: user 2's power is noise to
    both receivers.  May be negative."""
    p1, p2 = _check_pair(powers, "powers")
    h1, h2 = _check_pair(gains, "gains")
    return float(_jam_kernel(p1, p2, h1, h2))


def _sorted_two(gains, pmax):
    h = _check_pair(gains, "gains")
    m = _check_pair(pmax, "pmax")
    if h[0] <= h[1]:
        return h, m, False
    return (h[1], h[0]), (m[1], m[0]), True


def _restore(pair: tuple[float, float], swapped: bool) -> tuple[float, float]:
    return (pair[1], pair[0]) if swapped else pair


def optimal_powers_sum(gains: Sequence[float], pmax: Sequence[float]) -> PowerAllocation:
    """Closed-form secrecy sum-rate maximizing powers for two users.

    With gains ordered h1 <= h2 and m = pmax: both users transmit at full
    power when h1 < 1 and h2 is below the threshold (1 + h1*m1)/(1 + m1);
    only the better user transmits when h1 < 1 and h2 is at or above it;
    nobody transmits otherwise.
    """
    (h1, h2), (m1, m2), swapped = _sorted_two(gains, pmax)
    if h1 < 1.0:
        threshold = (1.0 + h1 * m1) / (1.0 + m1)
        if h2 < threshold:
            p_sorted = (m1, m2)
            case = CASE_BOTH_TRANSMIT
        else:
            p_sorted = (m1, 0.0)
            case = CASE_ONE_TRANSMITS
    else:
        p_sorted = (0.0, 0.0)
        case = CASE_NONE
    rate = max(0.0, float(_sum_kernel(p_sorted[0], p_sorted[1], h1, h2)))
    return PowerAllocation(p=_restore(p_sorted, swapped), case_label=case, achieved_rate=rate)


def jam_roots(gains: Sequence[float], pmax1: float) -> JamAuxiliaries:
    """Roots of the jamming-power stationarity parabola for given gains and
    full transmit power of user 1.  Requires distinct gains (equal gains make
    jamming irrelevant and are handled by the caller)."""
    h1, h2 = _check_pair(gains, "gains")
    if not (math.isfinite(pmax1) and pmax1 >= 0.0):
        raise ValidationError(f"pmax1 must be finite and nonnegative, got {pmax1!r}")
    if h2 == h1:
        raise ValidationError("root formulas require distinct gains (h2 != h1)")
    if h2 == 0.0:
        raise ValidationError("root formulas require a nonzero jammer gain h2")
    disc = h1 * h2 * (h2 - 1.0) * ((h2 - 1.0) + (h2 - h1) * pmax1)
    if disc < 0.0:
        root_p = root_p_bar = None
        p2_eval = 0.0
    else:
        den = h2 * (h2 - h1)
        sq = math.sqrt(disc)
        root_p = (-h2 * (1.0 - h1) + sq) / den
        root_p_bar = (-h2 * (1.0 - h1) - sq) / den
        if root_p < root_p_bar:
            root_p, root_p_bar = root_p_bar, root_p
        p2_eval = max(root_p, 0.0)
    return JamAuxiliaries(
        rho=rho((pmax1, p2_eval), (h1, h2)),
        phi2=phi(p2_eval, h2),
        discriminant=disc,
        root_p=root_p,
        root_p_bar=root_p_bar,
    )


def _capacity_expr(p1: float, p2: float, h1: float, h2: float) -> float | None:
    arg = ((1.0 - h1) * p1 + (1.0 - h2) * p2) / (1.0 + h1 * p1 + h2 * p2)
    if arg <= -1.0:
        return None
    return 0.5 * math.log2(1.0 + arg)


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
    (h1, h2), (m1, m2), swapped = _sorted_two(gains, pmax)
    if h1 == h2:
        if h1 >= 1.0:
            return PowerAllocation(
                p=(0.0, 0.0),
                case_label=CASE_NO_JAM,
                achieved_rate=0.0,
                capacity_expr_rate=_capacity_expr(0.0, 0.0, h1, h2),
            )
        return optimal_powers_sum(gains, pmax)
    if h2 <= 1.0:
        threshold = (1.0 + h1 * m1) / (1.0 + m1)
        if h2 < threshold:
            return optimal_powers_sum(gains, pmax)
        p_sorted = (m1, 0.0)
        case = CASE_NO_JAM
    elif h1 <= 1.0:
        aux = jam_roots((h1, h2), m1)
        p2 = max(0.0, min(aux.root_p, m2)) if aux.root_p is not None else 0.0
        p_sorted = (m1, p2)
        if p2 == 0.0:
            case = CASE_NO_JAM
        elif p2 == m2:
            case = CASE_JAM_AT_MAX
        else:
            case = CASE_JAM_AT_ROOT
    else:
        if (h1 - 1.0) / (h2 - h1) < m2:
            aux = jam_roots((h1, h2), m1)
            p2 = min(aux.root_p, m2)
            p_sorted = (m1, p2)
            case = CASE_JAM_AT_MAX if p2 == m2 else CASE_JAM_AT_ROOT
        else:
            p_sorted = (0.0, 0.0)
            case = CASE_NONE
    rate = max(0.0, float(_jam_kernel(p_sorted[0], p_sorted[1], h1, h2)))
    return PowerAllocation(
        p=_restore(p_sorted, swapped),
        case_label=case,
        achieved_rate=rate,
        capacity_expr_rate=_capacity_expr(p_sorted[0], p_sorted[1], h1, h2),
    )


def tdma_optimal_alpha(powers: Sequence[float]) -> tuple[float, ...]:
    """Time shares proportional to powers; optimal for the single-user
    time-sharing scheme and summing to one."""
    try:
        p = tuple(float(v) for v in powers)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"powers must be a sequence of numbers: {exc}") from exc
    if any(not math.isfinite(v) or v < 0.0 for v in p):
        raise ValidationError(f"powers must be finite and nonnegative, got {p}")
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
    refine_points: int | None = None,
) -> PowerAllocation:
    """Exhaustive grid search over the power box, independent of the closed
    forms it verifies.

    Evaluates the chosen objective on a uniform resolution x resolution grid
    over [0, pmax1] x [0, pmax2], then runs one local refinement pass: the
    window one coarse step each side of the incumbent is re-gridded with
    ``refine_points`` points per axis (defaults to ``resolution``, i.e. a
    step 100x finer, which keeps the value error of interior optima below
    1e-7 on the instance scales used here).  Ties break toward the smaller
    lexicographic power pair.  No relabeling is applied: for the jamming
    objective the caller decides who jams by the argument order.
    """
    obj = str(objective).upper()
    if obj not in (OBJECTIVE_SUM, OBJECTIVE_JAM):
        raise ValidationError(f"objective must be SUM or JAM, got {objective!r}")
    h1, h2 = _check_pair(gains, "gains")
    m1, m2 = _check_pair(pmax, "pmax")
    if not isinstance(resolution, int) or resolution < MIN_ORACLE_RESOLUTION:
        raise ValidationError(f"resolution must be an integer >= {MIN_ORACLE_RESOLUTION}")
    if refine_points is None:
        refine_points = resolution
    elif not isinstance(refine_points, int) or refine_points < 2:
        raise ValidationError("refine_points must be an integer >= 2")
    kernel = _sum_kernel if obj == OBJECTIVE_SUM else _jam_kernel

    def best_on(xs: np.ndarray, ys: np.ndarray) -> tuple[float, float, float]:
        values = kernel(xs[:, None], ys[None, :], h1, h2)
        flat = int(np.argmax(values))
        i, j = divmod(flat, ys.size)
        return float(values[i, j]), float(xs[i]), float(ys[j])

    xs = np.linspace(0.0, m1, resolution)
    ys = np.linspace(0.0, m2, resolution)
    val, p1, p2 = best_on(xs, ys)

    step1 = m1 / (resolution - 1)
    step2 = m2 / (resolution - 1)
    fine_x = np.linspace(max(0.0, p1 - step1), min(m1, p1 + step1), refine_points)
    fine_y = np.linspace(max(0.0, p2 - step2), min(m2, p2 + step2), refine_points)
    fval, fp1, fp2 = best_on(fine_x, fine_y)
    if fval > val:
        val, p1, p2 = fval, fp1, fp2

    return PowerAllocation(
        p=(p1, p2),
        case_label=_oracle_label(obj, p1, p2, m2),
        achieved_rate=max(0.0, val),
    )
