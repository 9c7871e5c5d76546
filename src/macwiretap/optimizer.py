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
from .rates import _BITS, _g_arr, _pick, _row_blocks

CASE_BOTH_TRANSMIT = "BOTH_TRANSMIT"
CASE_ONE_TRANSMITS = "ONE_TRANSMITS"
CASE_NONE = "NONE"
CASE_JAM_AT_ROOT = "JAM_AT_ROOT"
CASE_JAM_AT_MAX = "JAM_AT_MAX"
CASE_NO_JAM = "NO_JAM"

OBJECTIVE_SUM = "SUM"
OBJECTIVE_JAM = "JAM"

MIN_ORACLE_RESOLUTION = 11
# the oracle's screen keeps the gaps within this relative tolerance (or this
# floor, near 0) of the largest, far above the few ulps by which the kernels
# round apart from it; a block with more than this share of candidates is flat
_GAP_TOL, _GAP_FLOOR, _GAP_SHARE = 1e-12, 2.0**-1000, 1 / 16
_EDGE_PAD, _EDGE_FLOOR = 2.0**-46, 2.0**-1060  # of a block's edge-line bound (``grid_oracle``)


@dataclass(frozen=True)
class PowerAllocation:
    """A two-user power allocation with its case label and achieved rate.

    ``achieved_rate`` is the relevant objective at ``p``, clamped at zero for
    reporting (a negative objective means silence is optimal and the
    allocation is all-zero anyway).  For jamming results the objective is
    evaluated with the lower-gain user transmitting.  ``capacity_expr_rate``
    is the sum rate (``_sum_kernel``) at a jamming allocation, unclamped, as
    a diagnostic: it counts the jammer's power as a message, so it disagrees
    with the maximized objective when the jammer is active, and the gap is
    surfaced rather than hidden.  Where the kernel's SNR gap rounds to -1 or
    below (a huge jammer gain) it is g(p1 + p2) - g(h1 p1 + h2 p2) as a
    difference, and where a sum overflows the difference of the logarithms
    of both sums over twice the larger power; None where that is not finite.
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
    """g(p1 + p2) - g(h1 p1 + h2 p2) as g of its SNR gap, the same bits in either
    user order; + 0 * den gives NaN where den overflows (the gap would read 0), not -0.0."""
    den = 1.0 + (h1 * p1 + h2 * p2)
    return _g_arr(((1.0 - h1) * p1 + (1.0 - h2) * p2) / den) + 0.0 * den


def _jam_kernel(p1, p2, h1: float, h2: float):
    """g(p1 / (1 + p2)) - g(h1 p1 / u), u = 1 + h2 p2, as g of its SNR gap, as in
    ``_sum_kernel``, whose bits it gives at p2 = 0; den stays finite where h1 p1 does not."""
    u = 1.0 + h2 * p2
    den = 1.0 + h1 * (p1 / u)
    return _g_arr(p1 / (1.0 + p2) * (((1.0 - h1) + (h2 - h1) * p2) / u) / den) + 0.0 * den


def _threshold(h1, m1):
    """Both users transmit when h1 < 1 and h2 lies below this threshold."""
    return (1.0 + h1 * m1) / (1.0 + m1)


def _jam_root(h1, h2, m1):
    """The larger root of the jamming-power stationarity parabola at full
    transmit power m1, elementwise and unchecked; call it under
    ``np.errstate(all="ignore")``.  The root is
    (-h2(1-h1) + sqrt(disc)) / (h2(h2-h1)) with
    disc = h1 h2 (h2-1) ((h2-1) + (h2-h1) m1), the larger one when h2 > h1
    (the only root ``_solve`` reads), and inf or NaN where the division
    leaves the float range or disc is negative.  Where disc is not finite,
    and only there, the root is ``_jam_root_scaled``'s."""
    disc = h1 * h2 * (h2 - 1.0) * ((h2 - 1.0) + (h2 - h1) * m1)
    root = (-h2 * (1.0 - h1) + np.sqrt(disc)) / (h2 * (h2 - h1))
    finite = np.isfinite(disc)
    if getattr(finite, "ndim", 0) == 0:
        return root if finite else _jam_root_scaled(h1, h2, m1)
    if not finite.all():
        big = ~finite
        root[big] = _jam_root_scaled(*(v[big] for v in np.broadcast_arrays(h1, h2, m1)))
    return root


def _jam_root_scaled(h1, h2, m1):
    """``_jam_root`` with h2 (h2-h1)^2 divided out under the square root:
    with d = h2 - h1, sqrt(disc) / (h2 d) = sqrt(h1 (1 - 1/h2) q / d) and
    q = (h2-1)/d + m1.  Wherever the root is read (h2 > 1 and h2 > h1,
    finite), q and (1-h1)/d are finite: h1/d and (h2-1)/d are at most about
    2^53, since d is at least the float spacing at h1 when h1 > 1, and at
    least h2 - 1 otherwise.  The binary exponents of h1, q and d are taken
    out (frexp) and put back after the square root (ldexp), so no product
    leaves the float range, and the root is finite where disc overflows."""
    d = h2 - h1
    (f1, e1), (fq, eq), (fd, ed) = np.frexp(h1), np.frexp((h2 - 1.0) / d + m1), np.frexp(d)
    e = e1 + eq - ed
    odd = e & 1
    s = np.ldexp(np.sqrt(f1 * (1.0 - 1.0 / h2) * fq / fd * (1 + odd)), (e - odd) // 2)
    return s - (1.0 - h1) / d


# case labels in the order of the codes that ``_solve`` returns
CASE_LABELS = (
    CASE_BOTH_TRANSMIT, CASE_ONE_TRANSMITS, CASE_NONE,
    CASE_JAM_AT_ROOT, CASE_JAM_AT_MAX, CASE_NO_JAM,
)
_CODE = {label: code for code, label in enumerate(CASE_LABELS)}


def _solve(h_a, h_b, m_a, m_b):
    """Both closed-form allocations of standardized two-user channels,
    elementwise over arrays that broadcast together or on numpy scalars
    (not Python floats, on which equal gains raise ZeroDivisionError); call
    it under ``np.errstate(all="ignore")``.

    Returns ((P1, P2, rate, case code) of the sum-rate allocation,
    (P1, P2, rate, case code) of the jamming allocation), powers in the
    given user order, rates unclamped, codes indexing ``CASE_LABELS``.
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
    # discriminant is never negative, and the root is finite
    distinct = h1 != h2
    weak = h2 <= 1.0
    defer = _pick(distinct, weak & under, below)
    lo = distinct & (h1 <= 1.0)
    strong = distinct & (h1 > 1.0)
    root_lo = lo & (h2 > 1.0)
    root_hi = strong & ((h1 - 1.0) / (h2 - h1) < m2)
    root = _jam_root(h1, h2, m1)
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
    )


def _allocations(gains, pmax, objectives: Sequence[str]) -> list[PowerAllocation]:
    """One 0-d ``_solve`` of a two-user channel, as the allocation of each
    of ``objectives`` (OBJECTIVE_SUM, OBJECTIVE_JAM) in turn: the powers in
    the caller's order and the objective clamped at zero.  An allocation
    whose objective leaves the float range is rejected.
    ``_solve`` gets numpy scalars (see ``_pick``); the refusals print the
    parsed floats, which numpy 2 would print as ``np.float64(...)``."""
    h = _as_numbers(gains, "gains", 2, NONNEGATIVE)
    m = _as_numbers(pmax, "pmax", 2, NONNEGATIVE)
    with np.errstate(all="ignore"):
        nojam, jam = _solve(*map(np.float64, h + m))
        capacity = float(_sum_kernel(jam[0], jam[1], *h))
        if not math.isfinite(capacity):  # its gap rounded to -1 or below
            capacity = float(_g_arr(jam[0] + jam[1]) - _g_arr(h[0] * jam[0] + h[1] * jam[1]))
        if not math.isfinite(capacity):  # a sum overflows: both over twice the larger power
            q1, q2, q0 = np.divide((jam[0], jam[1], 1.0), max(jam[0], jam[1])) * 0.5
            capacity = float((np.log(q0 + (q1 + q2)) - np.log(q0 + (h[0] * q1 + h[1] * q2))) * _BITS)
    out = []
    for objective in objectives:
        extra = {}
        if objective == OBJECTIVE_SUM:
            p1, p2, rate, code = nojam
        else:
            p1, p2, rate, code = jam
            # a request that deferred to the sum-rate answer returns it as is
            if code not in (_CODE[CASE_BOTH_TRANSMIT], _CODE[CASE_ONE_TRANSMITS]) and math.isfinite(capacity):
                extra["capacity_expr_rate"] = capacity
        rate = float(rate)
        if not math.isfinite(rate):
            raise ValidationError(f"gains {h} with pmax {m} too large: "
                                  "the secrecy rate overflows the float range")
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


def _cut(gap):  # the least SNR gap whose rate may match the rate at gap
    return gap - max(_GAP_TOL * abs(gap), _GAP_FLOOR)


def _screen_gaps(terms, rows, cols=slice(None)) -> np.ndarray:
    """The oracle's screen gaps outer(a, b) / add.outer(c, d) on rows x cols of its grid."""
    outer, (a, b), (c, d) = terms
    return outer.outer(a[rows], b[cols]) / np.add.outer(c[rows], d[cols])


def _edge_bounds(terms, blocks: list[slice]) -> tuple[np.ndarray, float]:
    """(a padded bound on each row block's largest screen gap, the ``_cut`` of
    the largest edge-line gap), in ``_row_blocks`` pieces (see ``grid_oracle``)."""
    outer, (a, b), (c, d) = terms
    if outer is np.add:  # each row's two end cells; the numerator may cancel
        rows, cols, starts = np.arange(a.size), [0, b.size - 1], [s.start for s in blocks]
        spread = (np.abs(a) + np.abs(b).max()) / c
    else:  # each block's first and last rows
        rows = np.array([r for s in blocks for r in (s.start, min(s.stop, a.size) - 1)])
        cols, starts, spread = slice(None), range(0, rows.size, 2), None
    high, edge = [], []
    for piece in _row_blocks(rows.size, b[cols].size):
        gap = _screen_gaps(terms, rows[piece], cols)
        scale = np.abs(gap) if spread is None else spread[rows[piece], None]
        high.append((gap + _EDGE_PAD * scale).max(axis=1))
        edge.append(gap.max())
    return np.maximum.reduceat(np.concatenate(high), starts) + _EDGE_FLOOR, _cut(np.max(edge))


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
    evaluated in blocks of whole rows (``rates._row_blocks``), so the
    oracle's memory does not grow with ``resolution``.  A cell whose
    objective is not finite (where a power sum overflows) is skipped; cell
    (0, 0) is always 0, so some cell is always kept.  Ties break toward the
    smaller lexicographic pair (P1, P2), as in one pass over the whole grid,
    whose bits the result keeps: each block is first screened on its SNR gap,
    three numpy operations on 1-D terms, and as g is monotone only the cells
    within ``_GAP_TOL`` of the largest gap are rescored with the kernel,
    about once per pass.  A pass is evaluated in whole blocks where a 1-D
    bound shows a screen term may overflow, from a flat block or one whose
    largest gap is not finite, and anew where the rescored best is not finite.

    A pass of several blocks screens only those whose padded bound reaches
    the band of the largest gap on their edge lines: the SUM gap is
    linear-fractional along a row, so it peaks at a row's end cells, and the
    JAM gap x w / (h1x + u) is monotone down a column, so a block peaks on its
    first or last row.  The pad covers the edge gaps' rounding: 2^-46 of the JAM
    gaps and, per SUM row, whose numerator can cancel, of (|(1-h1)x| + max
    |(1-h2)y|) / (1 + h1x); a floor covers underflow.
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

    def best_on(xs: np.ndarray, ys: np.ndarray, screened: bool = True) -> tuple[float, float, float]:
        # a later block wins only on a strictly larger value, so ties break
        # toward the first cell in row-major order
        n, best, kept, count = ys.size, (-math.inf, 0.0, 0.0), [], 0

        def take(values, cells) -> bool:
            # the first largest of values at flat grid cells, if it beats best
            nonlocal best
            k = int(np.argmax(values))  # the first NaN, if any
            if values[k] > best[0]:
                i, j = divmod(int(cells[k]), n)
                best = float(values[k]), float(xs[i]), float(ys[j])
            return math.isfinite(values[k])

        with np.errstate(all="ignore"):
            # gap = outer(top) / add.outer(bottom), bottom > 0 (if it overflows, gaps read 0)
            if obj == OBJECTIVE_SUM:
                terms = np.add, ((1.0 - h1) * xs, (1.0 - h2) * ys), (1.0 + h1 * xs, h2 * ys)
            else:
                w = ((1.0 - h1) + (h2 - h1) * ys) / (1.0 + ys)
                terms = np.multiply, (xs, w), (h1 * xs, 1.0 + h2 * ys)
            screened = screened and math.isfinite(terms[2][0].max() + terms[2][1].max())
            blocks = list(_row_blocks(xs.size, n))
            # a skipped block adds no candidate, so the size test may read an earlier gap
            skip = [False] * len(blocks)
            if screened and len(blocks) > 1:  # none skipped where a bound or the cut is NaN
                skip = np.less(*_edge_bounds(terms, blocks))
            for rows, skipped in zip(blocks, skip):
                if screened and not skipped:
                    gap = _screen_gaps(terms, rows).ravel()
                    # none kept where the largest gap is inf or NaN; a flat
                    # block is told by the count, before any index is built
                    keep = gap >= _cut(gap.max())
                    screened = 0 < np.count_nonzero(keep) <= gap.size * _GAP_SHARE
                    if screened:
                        cells = keep.nonzero()[0]
                        kept.append((rows.start * n + cells, gap[cells]))
                        count += cells.size
                # rescore the candidates before a whole block, after the last
                # block, and where they outgrow one block's share
                if kept and (not screened or rows.stop >= xs.size or count > gap.size * _GAP_SHARE):
                    cells, gaps = map(np.concatenate, zip(*kept))
                    kept, count = [], 0
                    cells = cells[gaps >= _cut(gaps.max())]
                    if not take(kernel(xs[cells // n], ys[cells % n], h1, h2), cells):
                        return best_on(xs, ys, False)
                if not screened:
                    values = kernel(xs[rows, None], ys[None, :], h1, h2).ravel()
                    finite = np.isfinite(values)
                    if not finite.all():
                        values[~finite] = -math.inf
                    take(values, range(rows.start * n, rows.stop * n))
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
