"""Achievable and outer-bound secrecy rate regions at fixed power, their
fractional-secrecy variants, two-user boundary computation, the degraded
secrecy sum capacity, and rate-splitting feasibility witnesses.

A region at fixed power is a list of half-space rows over the per-user
(secret, open) rate pairs: SECRECY rows bound subset sums of secret rates,
MAC rows bound subset sums of total rates.  Fractional-secrecy regions
(``delta_region``) reinterpret coordinates as per-user total rates with the
SECRECY right-hand sides scaled by 1/delta.  Two-user boundaries are convex
closures of unions of fixed-power regions over a power grid whose axes
shrink to full power where every bound grows with power (``_dominated``),
computed with a monotone-chain hull.
Randomization-rate witnesses come from per-user formulas (individual
scheme) and from a polymatroid greedy (collective scheme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add, sub
from typing import Any, Iterator, NamedTuple, Sequence

import numpy as np

from .channel import NONNEGATIVE, WHOLE, StandardChannel, _as_number, _as_numbers, check_degraded
from .errors import NonDegradedError, ValidationError
from .rates import _clamp0, _cw, _g_arr, _linspace, _overflow, _row_blocks, enumerate_subsets, g, subset_label

ROW_SECRECY = "SECRECY"
ROW_MAC = "MAC"

KIND_INDIVIDUAL = "INDIVIDUAL"
KIND_COLLECTIVE = "COLLECTIVE"
KIND_TDMA = "TDMA"
KIND_OUTER_INDIVIDUAL = "OUTER_INDIVIDUAL"
KIND_OUTER_COLLECTIVE = "OUTER_COLLECTIVE"
KIND_UNION_I_T = "UNION_I_T"

BOUNDARY_KINDS = (
    KIND_INDIVIDUAL,
    KIND_COLLECTIVE,
    KIND_TDMA,
    KIND_OUTER_INDIVIDUAL,
    KIND_OUTER_COLLECTIVE,
    KIND_UNION_I_T,
)

COORDS_SECRET_OPEN = "secret_open"
COORDS_TOTAL = "total"

ALPHA_SUM_TOL = 1e-12
POWER_FEAS_TOL = 1e-12
# slack of the split checks, and of the collective witness's MAC recheck
SPLIT_TOL = 1e-9
SPLIT_WITNESS_TOL = 1e-8

def _as_kind(kind: Any, kinds: tuple[str, ...] = BOUNDARY_KINDS) -> str:
    """A region kind in any case and with '-' for '_' ("outer-individual"
    is OUTER_INDIVIDUAL), refused unless it is one of ``kinds``."""
    out = str(kind).upper().replace("-", "_")
    if out not in kinds:
        raise ValidationError(f"kind must be one of {kinds}, got {kind!r}")
    return out


def _as_delta(delta: Any) -> float:
    """The secret fraction of a fractional-secrecy region, in (0, 1]."""
    out = _as_number(delta, "delta")
    if not 0.0 < out <= 1.0:
        raise ValidationError(f"delta must lie in (0, 1], got {delta!r}")
    return out


@dataclass(frozen=True)
class RateVector:
    """Per-user (secret, open) rate pairs in bits/use."""

    secret: tuple[float, ...]
    open: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "secret", _as_numbers(self.secret, "secret", rule=NONNEGATIVE))
        object.__setattr__(self, "open", _as_numbers(self.open, "open", rule=NONNEGATIVE))
        if len(self.secret) != len(self.open):
            raise ValidationError("secret and open rate vectors must have equal length")

    @property
    def num_users(self) -> int:
        return len(self.secret)


@dataclass(frozen=True)
class DeltaRateVector:
    """Per-user total rates of which at least a fraction ``delta`` is secret."""

    total: tuple[float, ...]
    delta: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "total", _as_numbers(self.total, "total", rule=NONNEGATIVE))
        object.__setattr__(self, "delta", _as_delta(self.delta))

    @property
    def num_users(self) -> int:
        return len(self.total)


@dataclass(frozen=True)
class ConstraintRow:
    """One half-space row: a subset-sum of rates bounded by ``rhs``."""

    subset: frozenset[int]
    kind: str
    rhs: float

    @property
    def label(self) -> str:
        return f"{self.kind}{subset_label(self.subset)}"

    def subset_mask(self) -> int:
        return sum(1 << (k - 1) for k in self.subset)


@dataclass(frozen=True)
class RateConstraintSet:
    """A region at fixed power: rows, region kind, and the secret fraction
    ``delta`` of a fractional-secrecy region (None for an ordinary one).

    The rows come in canonical order: the SECRECY rows, then the MAC rows,
    each by subset size and then lexicographically (``enumerate_subsets``
    order).  Only this module builds a set, from checked powers, so every
    ``rhs`` is finite and nonnegative."""

    kind: str
    num_users: int
    power: tuple[float, ...]
    rows: tuple[ConstraintRow, ...]
    delta: float | None = None
    alpha: tuple[float, ...] | None = None

    @property
    def coordinates(self) -> str:
        """Per-user total rates for a fractional-secrecy region, per-user
        (secret, open) rate pairs otherwise."""
        return COORDS_SECRET_OPEN if self.delta is None else COORDS_TOTAL

    def secrecy_rows(self) -> tuple[ConstraintRow, ...]:
        return tuple(r for r in self.rows if r.kind == ROW_SECRECY)

    def mac_rows(self) -> tuple[ConstraintRow, ...]:
        return tuple(r for r in self.rows if r.kind == ROW_MAC)

    def row(self, label: str) -> ConstraintRow:
        for r in self.rows:
            if r.label == label:
                return r
        raise KeyError(label)

    def to_json_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "kind": self.kind,
            "coordinates": self.coordinates,
            "num_users": self.num_users,
            "power": self.power,
            "rows": [
                {
                    "subset_mask": r.subset_mask(),
                    "kind": r.kind,
                    "rhs": r.rhs,
                    "label": r.label,
                }
                for r in self.rows
            ],
        }
        if self.delta is not None:
            out["delta"] = self.delta
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out


class MembershipResult(NamedTuple):
    ok: bool
    violated: str | None


class RateSplitResult(NamedTuple):
    feasible: bool
    extra: tuple[float, ...] | None
    binding: str | None


def _check_power(std: StandardChannel, powers: Sequence[float]) -> tuple[float, ...]:
    p = _as_numbers(powers, "powers", std.num_users, NONNEGATIVE)
    for k, (v, limit) in enumerate(zip(p, std.pmax), start=1):
        if v > limit + POWER_FEAS_TOL * max(1.0, limit):
            raise ValidationError(f"power {v} of user {k} exceeds limit {limit}")
    return p


def _eaves(kind: str, h: Sequence[float], p: Sequence[Any]) -> list[Any]:
    """Each user's eavesdropper term g(h_k p_k), which the INDIVIDUAL
    SECRECY rows of two or more users subtract; none for the other kinds."""
    if kind != KIND_INDIVIDUAL:
        return []
    return [_g_arr(h_k * p_k) for h_k, p_k in zip(h, p)]


def _subset_bound(kind: str, h: Sequence[float], p: Sequence[Any], eaves: Sequence[Any],
                  members: Sequence[int]) -> tuple[Any, Any]:
    """(SECRECY rhs or None, MAC rhs) of the subset with the given ascending
    members, as ``_subset_bounds`` defines them, from ``_eaves(kind, h, p)``;
    unchecked, and to be called under ``np.errstate(all="ignore")``.  A row
    with one eavesdropper term is g of its SNR gap, as in ``optimizer._sum_kernel``."""
    mac = _g_arr(reduce(add, (p[k - 1] for k in members)))
    if kind == KIND_INDIVIDUAL and len(members) > 1:
        return _clamp0(reduce(sub, (eaves[k - 1] for k in members), mac)), mac
    if len(members) != (1 if kind in (KIND_INDIVIDUAL, KIND_OUTER_INDIVIDUAL) else len(p)):
        return None, mac
    gap = reduce(add, ((1.0 - h[k - 1]) * p[k - 1] for k in members))
    return _clamp0(_g_arr(gap / (1.0 + reduce(add, (h[k - 1] * p[k - 1] for k in members))))), mac


def _subset_bounds(kind: str, h: Sequence[float], p: Sequence[Any]) -> list[tuple[Any, ...]]:
    """(S, SECRECY rhs or None, MAC rhs g(p(S))) of a fixed-power region of
    the given kind for every nonempty subset S, in ``enumerate_subsets`` order.
    INDIVIDUAL bounds every S by g(p(S)) minus each member's g(h_k p_k),
    OUTER_INDIVIDUAL only single users; the collective kinds bound the full
    set by g(p(S)) - g(sum of h_k p_k); all clamped at zero.  The powers are
    floats or arrays of broadcastable shapes, evaluated elementwise and
    unchecked: a term of one user has that user's shape, a joint term the
    broadcast shape, and a non-finite MAC value means a power sum overflowed."""
    with np.errstate(all="ignore"):
        eaves = _eaves(kind, h, p)
        return [(subset, *_subset_bound(kind, h, p, eaves, sorted(subset)))
                for subset in enumerate_subsets(len(p))[1:]]


def _require_finite(values: Any, what: str) -> None:
    if not np.isfinite(values).all():
        raise _overflow(what)


def _rows(bounds: Sequence[tuple[Any, ...]]) -> tuple[ConstraintRow, ...]:
    """The rows of (S, SECRECY rhs or None, MAC rhs) bounds in ``enumerate_subsets``
    order, in canonical order: the SECRECY rows, then the MAC rows."""
    secrecy = [ConstraintRow(s, ROW_SECRECY, float(rhs)) for s, rhs, _ in bounds if rhs is not None]
    return tuple(secrecy + [ConstraintRow(s, ROW_MAC, float(mac)) for s, _, mac in bounds])


def _region_at(std: StandardChannel, kind: str, powers: Sequence[float]) -> RateConstraintSet:
    """The fixed-power region of an INDIVIDUAL, COLLECTIVE or OUTER kind;
    an outer kind is refused for a non-degraded channel before the powers
    are checked."""
    if kind in (KIND_OUTER_INDIVIDUAL, KIND_OUTER_COLLECTIVE):
        _require_degraded(std, "outer bounds hold only for a degraded eavesdropper "
                          "(equal gains below 1)")
    p = _check_power(std, powers)
    bounds = _subset_bounds(kind, std.h, p)
    _require_finite([mac for _, _, mac in bounds], f"powers {p}")
    return RateConstraintSet(kind, std.num_users, p, _rows(bounds))


def individual_region_at(std: StandardChannel, powers: Sequence[float]) -> RateConstraintSet:
    """Region where each user's secrecy survives even if all other users'
    codewords are revealed: for every nonempty subset, the secret-rate sum is
    bounded by the subset's receiver rate minus the members' single-user
    eavesdropper rates (clamped at zero), plus the usual MAC rows."""
    return _region_at(std, KIND_INDIVIDUAL, powers)


def collective_region_at(std: StandardChannel, powers: Sequence[float]) -> RateConstraintSet:
    """Region where secrecy is trusted jointly across users: a single
    secret-sum row for the full set plus MAC rows for every subset."""
    return _region_at(std, KIND_COLLECTIVE, powers)


def _tdma_bound(h: Any, p: Any, a: Any) -> tuple[Any, Any]:
    """(secrecy, total) rate bounds of a user with gain h sending at power
    p/a for a share a of the time; elementwise over broadcastable arrays,
    unchecked, and to be called under ``np.errstate(all="ignore")``, like
    ``_subset_bound``.  ``_clamp0`` maps to zero what a zero share gives
    (0 * inf, or nan) and a secrecy bound whose SNR argument is not positive
    (a rate below zero, or nan).  ``p`` or ``a`` must be a numpy array: a
    zero share then divides to inf or nan, where Python floats would raise
    ZeroDivisionError."""
    secrecy = _clamp0(a * _g_arr((1.0 - h) * p / (a + h * p)))
    total = _clamp0(a * _g_arr(p / a))
    return secrecy, total


def tdma_region_at(
    std: StandardChannel, powers: Sequence[float], alpha: Sequence[float]
) -> RateConstraintSet:
    """Region achieved by time-sharing single-user transmissions: user k is
    active a fraction alpha_k of the time with boosted power p_k/alpha_k.
    A zero share forces both of that user's bounds to zero."""
    p = _check_power(std, powers)
    a = _as_numbers(alpha, "alpha", std.num_users, NONNEGATIVE)
    if any(v > 1.0 for v in a) or abs(sum(a) - 1.0) > ALPHA_SUM_TOL:
        raise ValidationError(f"alpha must lie in [0, 1] and sum to 1, got {a}")
    with np.errstate(all="ignore"):
        secrecy, total = _tdma_bound(np.array(std.h), np.array(p), np.array(a))
    _require_finite(total, f"powers {p} over time shares {a}")
    bounds = [(frozenset({k}), s, t) for k, s, t in zip(range(1, std.num_users + 1), secrecy, total)]
    return RateConstraintSet(KIND_TDMA, std.num_users, p, _rows(bounds), alpha=a)


def outer_region_at(
    std: StandardChannel,
    powers: Sequence[float],
    kind: str,
) -> RateConstraintSet:
    """Converse region at fixed power; valid only when the eavesdropper is
    degraded.  kind INDIVIDUAL bounds each user's secret rate by its
    single-user rate difference; kind COLLECTIVE bounds the secret-rate sum
    by the full-set rate difference.  Both keep all MAC rows."""
    kind = _as_kind(kind, (KIND_INDIVIDUAL, KIND_COLLECTIVE, KIND_OUTER_INDIVIDUAL, KIND_OUTER_COLLECTIVE))
    return _region_at(std, "OUTER_" + kind.removeprefix("OUTER_"), powers)


def _require_degraded(std: StandardChannel, what: str) -> None:
    report = check_degraded(std)
    if not report.is_degraded:
        raise NonDegradedError(
            f"{what}; got gains {std.h} with spread {report.max_gain_spread:.3g}"
        )


def delta_region(base: RateConstraintSet, delta: float) -> RateConstraintSet:
    """Fractional-secrecy variant of a fixed-power region: coordinates become
    per-user total rates, every SECRECY right-hand side is scaled by
    1/delta, MAC rows are unchanged, and the rows keep their order.
    delta = 0 is rejected: that limit is an ordinary MAC with no secrecy
    rows, so callers use the MAC rows directly; a delta so small that a
    scaled bound overflows is rejected too.
    """
    given, delta = delta, _as_delta(delta)
    if base.coordinates != COORDS_SECRET_OPEN:
        raise ValidationError("delta_region expects a base region over (secret, open) rates")
    rows = tuple(ConstraintRow(r.subset, ROW_SECRECY, r.rhs / delta) if r.kind == ROW_SECRECY else r
                 for r in base.rows)
    if any(math.isinf(r.rhs) for r in rows):
        raise ValidationError(f"delta {given!r} too small: a secrecy bound over it overflows the float range")
    return replace(base, rows=rows, delta=delta)


def membership(
    rates: RateVector | DeltaRateVector,
    region: RateConstraintSet,
    tol: float = 1e-9,
) -> MembershipResult:
    """Check all rows within ``tol``; on failure report the first violated
    row's label in the region's canonical row order.  A RateVector's MAC
    rows count its secret and open rates, a DeltaRateVector's rows its
    total rates."""
    if isinstance(rates, RateVector):
        coordinates, secret, opn = COORDS_SECRET_OPEN, rates.secret, rates.open
        mismatch = "this region is over total rates; pass a DeltaRateVector"
    elif isinstance(rates, DeltaRateVector):
        coordinates, secret, opn = COORDS_TOTAL, rates.total, None
        mismatch = "this region is over (secret, open) rates; pass a RateVector"
    else:
        raise ValidationError(f"unsupported rate vector type {type(rates).__name__}")
    if region.coordinates != coordinates:
        raise ValidationError(mismatch)
    if rates.num_users != region.num_users:
        raise ValidationError(f"rate vector has {rates.num_users} users, region has {region.num_users}")
    tol = _as_number(tol, "tol", NONNEGATIVE)
    for row in region.rows:
        total = sum(secret[k - 1] for k in row.subset)
        if opn is not None and row.kind == ROW_MAC:
            total += sum(opn[k - 1] for k in row.subset)
        if total > row.rhs + tol:
            return MembershipResult(False, row.label)
    return MembershipResult(True, None)


def sum_capacity_degraded(h: float, total_power: float) -> float:
    """Secrecy sum capacity of the degraded channel with common gain h < 1:
    g((1-h) * P / (1 + h * P)) where P is the total power."""
    h = _as_number(h, "h", NONNEGATIVE)
    if h >= 1.0:
        raise ValidationError(f"h must lie below 1 for a degraded channel, got {h!r}")
    total_power = _as_number(total_power, "total_power", NONNEGATIVE)
    return g((1.0 - h) * total_power / (1.0 + h * total_power))


# ---------------------------------------------------------------------------
# Two-user boundary computation


@dataclass(frozen=True)
class RegionBoundary2D:
    """Upper-right boundary of the convex closure of a union of fixed-power
    regions, as counterclockwise vertices from the rate-1 axis intercept to
    the rate-2 axis intercept.  The full region is the convex hull of these
    vertices together with the origin."""

    vertices: tuple[tuple[float, float], ...]
    generator_count: int

    def max_sum(self) -> float:
        return max(x + y for x, y in self.vertices)

    def contains(self, point: Sequence[float], tol: float = 1e-9) -> bool:
        x, y = _as_numbers(point, "point", 2)
        tol = _as_number(tol, "tol", NONNEGATIVE)
        if x < -tol or y < -tol:
            return False
        poly = [(0.0, 0.0)] + [v for v in self.vertices if v != (0.0, 0.0)]
        if len(poly) == 1:
            return abs(x) <= tol and abs(y) <= tol
        if len(poly) == 2:
            (ax, ay), (bx, by) = poly
            cross = (bx - ax) * (y - ay) - (by - ay) * (x - ax)
            along = (x - ax) * (bx - ax) + (y - ay) * (by - ay)
            seg2 = (bx - ax) ** 2 + (by - ay) ** 2
            return abs(cross) <= tol * max(1.0, math.sqrt(seg2)) and -tol <= along <= seg2 + tol
        for (ax, ay), (bx, by) in zip(poly, poly[1:] + poly[:1]):
            if (bx - ax) * (y - ay) - (by - ay) * (x - ax) < -tol:
                return False
        return True

    def to_csv_string(self) -> str:
        lines = ["R1,R2"]
        lines.extend(f"{x:.12g},{y:.12g}" for x, y in self.vertices)
        return "\n".join(lines) + "\n"


def _box_simplex_candidates(u1: np.ndarray, u2: np.ndarray, u12: np.ndarray) -> tuple[np.ndarray, ...]:
    """The hull candidates of one power-grid block, for the total-rate
    bounds u1 of shape (rows, 1), u2 of shape (1, cols) and u12 of the
    block's cells, of {x,y >= 0, x <= u1, y <= u2, x+y <= u12}.  The
    box-simplex vertices of a cell are (x_ax, 0), (0, y_ax), (x_ax, c1y) and
    (c2x, y_ax), with x_ax = min(u1, u12), y_ax = min(u2, u12),
    c1y = min(u2, u12 - x_ax) and c2x = min(u1, u12 - y_ax); the caller adds
    the axis maxima, which no other axis vertex can beat.  Returns
    (x_ax, c1y, c2x, y_ax) reduced to their row and column maxima:
    c1y > 0 only where u12 > u1, and there x_ax = u1 is constant along the
    row, while elsewhere c1y = 0 and x_ax = u12 <= u1.  So the row maxima
    (max x_ax, max c1y) are a corner of some cell of the row that every
    (x_ax, c1y) corner of the row lies below and left of, or on; the column
    maxima (max c2x, max y_ax) likewise.  min and max never round, so the
    staircase keeps its values.  An axis of length 1 is raveled rather than
    reduced."""
    x_ax, y_ax = np.minimum(u1, u12), np.minimum(u2, u12)
    c1y, c2x = np.subtract(u12, x_ax), np.subtract(u12, y_ax)
    np.minimum(u2, c1y, out=c1y)
    np.minimum(u1, c2x, out=c2x)
    rows, cols = x_ax.shape
    if cols > 1:
        x_ax, c1y = x_ax.max(axis=1), c1y.max(axis=1)
    if rows > 1:
        c2x, y_ax = c2x.max(axis=0), y_ax.max(axis=0)
    return x_ax.ravel(), c1y.ravel(), c2x.ravel(), y_ax.ravel()


def _fixed_power_bounds(
    std: StandardChannel, kind: str, delta: float, p1: np.ndarray, p2: np.ndarray
) -> Iterator[tuple[np.ndarray, ...]]:
    """The total-rate bounds (u1, u2, u12) of the fixed-power region on the
    power grid of the axes p1 (user 1's powers, along axis 0) and p2 (user
    2's, along axis 1), per block of whole rows (``_row_blocks``): the
    block's rows of u1 with shape (rows, 1), the whole row u2 with shape
    (1, p2.size), and u12 of the block's cells; broadcast, they are the
    bounds of each cell.  The single-user bounds and eavesdropper terms are
    computed once per axis, before the first block, and only the joint terms
    per cell, each under one ``np.errstate``.  A joint MAC bound that
    overflows is refused at the first block that holds one; a single-user
    one, g of one finite power, never overflows.  An overflow in s / delta is
    harmless: min(inf, mac) = mac."""
    p1, p2 = p1[:, None], p2[None, :]

    def bound(rows: slice, members: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
        s, mac = _subset_bound(kind, std.h, (p1[rows], p2), eaves and (eaves[0][rows], eaves[1]), members)
        return mac, mac if s is None else np.minimum(s / delta, mac)

    with np.errstate(all="ignore"):
        eaves = _eaves(kind, std.h, (p1, p2))
        u1, u2 = bound(slice(None), (1,))[1], bound(slice(None), (2,))[1]
    for rows in _row_blocks(p1.size, p2.size):
        with np.errstate(all="ignore"):
            mac, u12 = bound(rows, (1, 2))
        _require_finite(mac, f"pmax {std.pmax}")
        yield u1[rows], u2, u12


def _dominated(std: StandardChannel, kind: str, k: int) -> bool:
    """The one rule that leaves power cells unevaluated: whether every bound
    of ``kind`` is nondecreasing in user k's power (k = 0 or 1) at every
    power p_o of the other user o in [0, pmax_o], so that the cell at pmax_k
    holds its row.  MAC bounds and clamped single-user secrecy bounds grow
    with p_k (g(p) - g(h p) grows for h <= 1 and clamps to 0 for h >= 1).
    The joint secrecy bound's slope in p_k has the sign of (1 - h_k) + c p_o,
    c = h_o - h_k for COLLECTIVE and -h_k for INDIVIDUAL: affine in p_o, so
    least at p_o = 0 or pmax_o.  The outer kinds hold, as the converse the
    paper states for the degraded channel, whose gains count as equal."""
    h_k = std.h[k]
    c = std.h[1 - k] - h_k if kind == KIND_COLLECTIVE else -h_k
    return kind.startswith("OUTER_") or 1.0 - h_k + min(0.0, c * std.pmax[1 - k]) >= 0.0


def _tdma_bounds(std: StandardChannel, delta: float, alpha_res: int) -> tuple[np.ndarray, ...]:
    """Per time share of the alpha_res-point share grid, the total-rate
    bounds (u1, u2) of the time-division region, each user at full power by
    the rule of ``_dominated``: both of a share's bounds grow with the
    user's power.  The users take turns, so no joint row bounds u1 + u2, and
    (u1, u2) is the share's one point that the hull can reach.  Both users
    are evaluated in one (2, alpha_res) call, user 1 on the shares and user
    2 on one minus them, and an overflowing bound is refused before any
    candidate is built."""
    alphas = _linspace(0.0, 1.0, alpha_res)
    with np.errstate(all="ignore"):
        secrecy, total = _tdma_bound(np.array(std.h)[:, None], np.array(std.pmax)[:, None],
                                     np.stack([alphas, 1.0 - alphas]))
        u1, u2 = np.minimum(secrecy / delta, total)
    _require_finite(total, f"pmax {std.pmax}")
    return u1, u2


def _staircase(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Indices of the Pareto staircase of the first-quadrant points (x, y),
    in counterclockwise order: visiting the points by rate 1, then rate 2,
    both descending, the lowest and then the top point at the largest
    rate 1, each point whose rate 2 beats every one before it, and the
    leftmost point at the largest rate 2.  A point below and left of
    another, or on it, never beats the running maximum, so dropping it
    before the sort leaves the staircase's values as they are."""
    order = np.lexsort((y, x))[::-1]
    sx, sy = x[order], y[order]
    return order[np.concatenate([
        [np.count_nonzero(sx == sx[0]) - 1, 0],
        1 + np.flatnonzero(sy[1:] > np.maximum.accumulate(sy[:-1])),
        [np.flatnonzero(sy == sy.max())[-1]],
    ])]


def _upper_right_hull(x: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """Upper-right boundary of the convex hull of the first-quadrant points
    (x, y), from the lowest point at the largest rate 1 counterclockwise to
    the leftmost point at the largest rate 2.  Only the Pareto staircase
    (``_staircase``) can lie on it.  One monotone chain (Andrew 1979) over
    the staircase drops each point that does not turn left and each point
    equal to the chain's last, so the vertices are bitwise those of the
    chain over every point, the corners that ``_box_simplex_candidates``
    leaves out included."""
    stair = _staircase(x, y)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chain: list[tuple[float, float]] = []
    for p in zip(x[stair].tolist(), y[stair].tolist()):
        if chain and p == chain[-1]:
            continue
        while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0.0:
            chain.pop()
        chain.append(p)
    return chain


def _boundary_candidates(
    std: StandardChannel, kind: str, delta: float, power_res: int, alpha_res: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """Rate-1 and rate-2 columns of the hull candidates of a boundary kind
    that can be on its staircase, and the number of generators they stand
    for.  A user's power axis is its pmax alone where ``_dominated`` holds,
    and power_res points on [0, pmax] otherwise; an overflow in the axis's
    step product is harmless, since its last point is set to pmax exactly.
    The power grid comes in blocks of whole rows, each adding its row maxima
    (``_box_simplex_candidates``); the column maxima are joined across the
    blocks by np.maximum.  The share grid adds its points as they are
    (``_tdma_bounds``).  The cloud is the two axis maxima (max x_ax, 0) and
    (0, max y_ax), then at most rows + cols points of the power grid and
    alpha_res of the share grid, so no array grows with the grid's cells.
    Per cell c1y <= y_ax and c2x <= x_ax, so each axis maximum is the
    cloud's largest rate."""
    xs, ys = [np.zeros(2)], [np.zeros(2)]
    cells = 0
    if kind != KIND_TDMA:
        fixed = KIND_INDIVIDUAL if kind == KIND_UNION_I_T else kind
        with np.errstate(all="ignore"):
            axes = [np.array([pmax]) if _dominated(std, fixed, k) else _linspace(0.0, pmax, power_res)
                    for k, pmax in enumerate(std.pmax)]
        cols: list[np.ndarray] = []
        for bounds in _fixed_power_bounds(std, fixed, delta, *axes):
            x_ax, c1y, *col = _box_simplex_candidates(*bounds)
            xs.append(x_ax)
            ys.append(c1y)
            cols = [np.maximum(a, b, out=a) for a, b in zip(cols, col)] if cols else col
        xs.append(cols[0])
        ys.append(cols[1])
        cells = axes[0].size * axes[1].size
    if kind in (KIND_TDMA, KIND_UNION_I_T):
        u1, u2 = _tdma_bounds(std, delta, alpha_res)
        xs.append(u1)
        ys.append(u2)
        cells += alpha_res
    x, y = np.concatenate(xs), np.concatenate(ys)
    x[0], y[1] = x.max(), y.max()
    # every cell has four corners, and the origin closes the region
    return x, y, 1 + 4 * cells


def region_boundary_2d(
    std: StandardChannel,
    kind: str,
    delta: float = 1.0,
    power_grid_res: int = 101,
    alpha_grid_res: int = 101,
) -> RegionBoundary2D:
    """Convex closure of the union of fixed-power regions of the given kind
    over a uniform power grid, projected to per-user total rates at
    fractional secrecy ``delta``; UNION_I_T joins the individual and the
    time-division families.  ``power_grid_res`` sets the power axes that
    ``_dominated`` leaves, the share grid is at full power (``_tdma_bounds``).
    The hull runs over each row's and column's maxima
    (``_boundary_candidates``), and the vertices and ``generator_count`` are
    bitwise those of the hull over every corner of the evaluated grid, whose
    memory does not grow with it."""
    if std.num_users != 2:
        raise ValidationError("boundary computation supports exactly two users")
    kind = _as_kind(kind)
    delta = _as_delta(delta)
    power_grid_res = _as_number(power_grid_res, "power_grid_res", WHOLE)
    alpha_grid_res = _as_number(alpha_grid_res, "alpha_grid_res", WHOLE)
    if power_grid_res < 2 or alpha_grid_res < 2:
        raise ValidationError("grid resolutions must be at least 2")
    if kind in (KIND_OUTER_INDIVIDUAL, KIND_OUTER_COLLECTIVE):
        _require_degraded(std, "outer-bound boundaries require a degraded eavesdropper")
    x, y, generator_count = _boundary_candidates(std, kind, delta, power_grid_res, alpha_grid_res)
    return RegionBoundary2D(vertices=tuple(_upper_right_hull(x, y)), generator_count=generator_count)


# ---------------------------------------------------------------------------
# Rate splitting


def _subset_macs(std: StandardChannel, p: tuple[float, ...]) -> dict[frozenset[int], float]:
    # every kind has the same MAC rows; COLLECTIVE adds the fewest secrecy bounds
    macs = {subset: float(mac) for subset, _, mac in _subset_bounds(KIND_COLLECTIVE, std.h, p)}
    _require_finite(list(macs.values()), f"powers {p}")
    return macs


def rate_split_individual(
    std: StandardChannel,
    powers: Sequence[float],
    rates: RateVector,
) -> RateSplitResult:
    """Per-user randomization rates for the individual-constraint scheme.

    Users with a positive secret rate must fill their own single-user
    eavesdropper rate exactly with open plus randomization messages; users
    with zero secret rate send no randomization messages.  The MAC rows over
    all three message kinds are then checked."""
    p = _check_power(std, powers)
    if rates.num_users != std.num_users:
        raise ValidationError("rate vector length does not match the channel")
    extra = []
    for k in range(1, std.num_users + 1):
        if rates.secret[k - 1] > 0.0:
            x_k = _cw(p, std.h, {k}) - rates.open[k - 1]
            if x_k < -SPLIT_TOL:
                return RateSplitResult(False, None, f"RANDOMIZATION{{{k}}}")
            extra.append(max(x_k, 0.0))
        else:
            extra.append(0.0)
    for subset, mac in _subset_macs(std, p).items():
        used = sum(rates.secret[k - 1] + rates.open[k - 1] + extra[k - 1] for k in subset)
        if used > mac + SPLIT_TOL:
            return RateSplitResult(False, None, f"MAC{subset_label(subset)}")
    return RateSplitResult(True, tuple(extra), None)


def rate_split_collective(
    std: StandardChannel,
    powers: Sequence[float],
    rates: RateVector,
) -> RateSplitResult:
    """Randomization rates for the collective-constraint scheme.

    Finds nonnegative per-user randomization rates x whose total fills the
    full-set eavesdropper rate left over by the open messages while every
    MAC row over all three message kinds still holds, x(S) <= caps[S] with
    caps[S] = g(p(S)) - (secret + open)(S).  The caps are a concave function
    of a modular one minus a modular one, hence submodular, so over x >= 0
    the rows are equivalent to x(S) <= f(S) with f(A) = min of caps[T] over
    T containing A, a polymatroid rank function (Edmonds 1970; Fujishige,
    Submodular Functions and Optimization).  A witness therefore exists
    exactly when the total fits caps[{1..K}], and the greedy over users K,
    K-1, ..., 1 on min(f, total) yields the lexicographically smallest one.
    Returns that witness, or the label of a violated row when none exists."""
    p = _check_power(std, powers)
    if rates.num_users != std.num_users:
        raise ValidationError("rate vector length does not match the channel")
    num_users = std.num_users
    full = frozenset(range(1, num_users + 1))
    target = _cw(p, std.h, full) - sum(rates.open)
    if target < -SPLIT_TOL:
        return RateSplitResult(False, None, "RANDOMIZATION_TOTAL")
    target = max(target, 0.0)
    caps = {
        s: mac - sum(rates.secret[k - 1] + rates.open[k - 1] for k in s)
        for s, mac in _subset_macs(std, p).items()
    }
    for subset, cap in caps.items():
        if cap < -SPLIT_TOL:
            return RateSplitResult(False, None, f"MAC{subset_label(subset)}")
    caps = {s: max(c, 0.0) for s, c in caps.items()}
    if target > caps[full] + SPLIT_TOL:
        return RateSplitResult(False, None, f"MAC{subset_label(full)}")

    def rank(users: frozenset[int]) -> float:
        return min(target, min(c for s, c in caps.items() if users <= s))

    suffix_ranks = [rank(frozenset(range(j, num_users + 1))) for j in range(1, num_users + 1)]
    extra = [a - b for a, b in zip(suffix_ranks, suffix_ranks[1:])]
    extra.append(target - sum(extra))
    for s, cap in caps.items():
        if sum(extra[k - 1] for k in s) > cap + SPLIT_WITNESS_TOL:
            return RateSplitResult(False, None, f"MAC{subset_label(s)}")
    return RateSplitResult(True, tuple(extra), None)
