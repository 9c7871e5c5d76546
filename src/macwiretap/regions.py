"""Achievable and outer-bound secrecy rate regions at fixed power, their
fractional-secrecy variants, two-user boundary computation, the degraded
secrecy sum capacity, and rate-splitting feasibility witnesses.

A region at fixed power is a list of half-space rows over the per-user
(secret, open) rate pairs: SECRECY rows bound subset sums of secret rates,
MAC rows bound subset sums of total rates.  Fractional-secrecy regions
(``delta_region``) reinterpret coordinates as per-user total rates with the
SECRECY right-hand sides scaled by 1/delta.  Two-user boundaries are convex
closures of unions of fixed-power regions over a power grid (and a
time-share grid for the time-division kinds), computed with a monotone-chain
hull.  Randomization-rate witnesses come from per-user formulas
(individual scheme) and from a polymatroid greedy (collective scheme).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import reduce
from operator import add, sub
from typing import Any, NamedTuple, Sequence

import numpy as np

from .channel import NONNEGATIVE, WHOLE, StandardChannel, _as_number, _as_numbers, check_degraded
from .errors import NonDegradedError, ValidationError
from .rates import _clamp0, _g_arr, _overflow, enumerate_subsets, g, subset_label

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

    def __post_init__(self) -> None:
        if self.kind not in (ROW_SECRECY, ROW_MAC):
            raise ValidationError(f"row kind must be SECRECY or MAC, got {self.kind!r}")
        if not self.subset:
            raise ValidationError("constraint rows are over nonempty subsets")
        if not (math.isfinite(self.rhs) and self.rhs >= 0.0):
            raise ValidationError(f"row rhs must be finite and nonnegative, got {self.rhs!r}")

    @property
    def label(self) -> str:
        return f"{self.kind}{subset_label(self.subset)}"

    def subset_mask(self) -> int:
        return sum(1 << (k - 1) for k in self.subset)


def _row_sort_key(row: ConstraintRow):
    return (0 if row.kind == ROW_SECRECY else 1, len(row.subset), sorted(row.subset))


@dataclass(frozen=True)
class RateConstraintSet:
    """A region at fixed power: rows, region kind, and the secret fraction
    ``delta`` of a fractional-secrecy region (None for an ordinary one)."""

    kind: str
    num_users: int
    power: tuple[float, ...]
    rows: tuple[ConstraintRow, ...]
    delta: float | None = None
    alpha: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        for row in self.rows:
            if any(k > self.num_users for k in row.subset):
                raise ValidationError(f"row {row.label} references a user beyond K={self.num_users}")
        object.__setattr__(self, "rows", tuple(sorted(self.rows, key=_row_sort_key)))

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


def _subset_bounds(kind: str, h: Sequence[float], p: Sequence[Any]) -> list[tuple[Any, ...]]:
    """(S, SECRECY rhs or None, MAC rhs g(p(S))) of a fixed-power region of
    the given kind for every nonempty subset S, in ``enumerate_subsets`` order.
    INDIVIDUAL bounds every S by g(p(S)) minus each member's g(h_k p_k),
    OUTER_INDIVIDUAL only single users; the collective kinds bound the full
    set by g(p(S)) - g(sum of h_k p_k); all clamped at zero.  The powers are
    floats or arrays of broadcastable shapes, evaluated elementwise and
    unchecked: a term of one user has that user's shape, a joint term the
    broadcast shape, and a non-finite MAC value means a power sum overflowed."""
    individual = kind in (KIND_INDIVIDUAL, KIND_OUTER_INDIVIDUAL)
    out = []
    with np.errstate(all="ignore"):
        eaves = [_g_arr(h_k * p_k) for h_k, p_k in zip(h, p)] if individual else []
        for subset in enumerate_subsets(len(p))[1:]:
            members = sorted(subset)
            mac = _g_arr(reduce(add, (p[k - 1] for k in members)))
            secrecy = None
            if individual and (kind == KIND_INDIVIDUAL or len(members) == 1):
                secrecy = reduce(sub, (eaves[k - 1] for k in members), mac)
            elif not individual and len(members) == len(p):
                secrecy = mac - _g_arr(reduce(add, (h[k - 1] * p[k - 1] for k in members)))
            out.append((subset, None if secrecy is None else _clamp0(secrecy), mac))
    return out


def _require_finite(values: Any, what: str) -> None:
    if not np.isfinite(values).all():
        raise _overflow(what)


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
    rows = []
    for subset, secrecy, mac in bounds:
        if secrecy is not None:
            rows.append(ConstraintRow(subset, ROW_SECRECY, float(secrecy)))
        rows.append(ConstraintRow(subset, ROW_MAC, float(mac)))
    return RateConstraintSet(kind, std.num_users, p, tuple(rows))


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
    p/a for a share a of the time, zero for a zero share; elementwise over
    broadcastable arrays and unchecked, like ``_subset_bounds``.  ``p`` or
    ``a`` must be a numpy array: a zero share then divides to inf or nan,
    which the ``np.where`` discards, where Python floats would raise
    ZeroDivisionError."""
    with np.errstate(all="ignore"):
        arg = (1.0 - h) * p / (a + h * p)
        secrecy = np.where((a > 0.0) & (arg > 0.0), a * _g_arr(_clamp0(arg)), 0.0)
        total = np.where(a > 0.0, a * _g_arr(p / a), 0.0)
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
    secrecy, total = _tdma_bound(np.array(std.h), np.array(p), np.array(a))
    _require_finite(total, f"powers {p} over time shares {a}")
    rows = []
    for k in range(1, std.num_users + 1):
        rows.append(ConstraintRow(frozenset({k}), ROW_SECRECY, float(secrecy[k - 1])))
        rows.append(ConstraintRow(frozenset({k}), ROW_MAC, float(total[k - 1])))
    return RateConstraintSet(KIND_TDMA, std.num_users, p, tuple(rows), alpha=a)


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
    1/delta, MAC rows are unchanged.  delta = 0 is rejected: that limit is an
    ordinary MAC with no secrecy rows, so callers use the MAC rows directly.
    """
    delta = _as_delta(delta)
    if base.coordinates != COORDS_SECRET_OPEN:
        raise ValidationError("delta_region expects a base region over (secret, open) rates")
    rows = tuple(
        ConstraintRow(r.subset, r.kind, r.rhs / delta if r.kind == ROW_SECRECY else r.rhs)
        for r in base.rows
    )
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


def _box_simplex_candidates(u1: np.ndarray, u2: np.ndarray, u12: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rate-1 and rate-2 columns of the hull candidates of all cells, for
    the per-cell total-rate bounds u1, u2 and u12 (broadcastable; u12 may be
    +inf when no joint row exists) of {x,y >= 0, x <= u1, y <= u2,
    x+y <= u12}.  The box-simplex vertices of a cell are (x_ax, 0),
    (0, y_ax), (x_ax, c1y) and (c2x, y_ax), with x_ax = min(u1, u12),
    y_ax = min(u2, u12), c1y = min(u2, u12 - x_ax) and
    c2x = min(u1, u12 - y_ax).  Since c1y, c2x >= 0, an axis vertex is never
    above or right of its cell's corner at the same rate, so it can never
    raise the staircase's running maximum: of each axis family only the
    maximum, which may be an end of the staircase, is kept.  The origin,
    which closes the region, is left out for the same reason.  The columns
    hold the two axis maxima, then the (x_ax, c1y) and the (c2x, y_ax)
    corners of every cell in row-major order, each written once in place."""
    shape = np.broadcast_shapes(u1.shape, u2.shape, u12.shape)
    cells = math.prod(shape)
    x, y = np.empty(2 + 2 * cells), np.empty(2 + 2 * cells)
    x_ax, c2x = x[2:2 + cells].reshape(shape), x[2 + cells:].reshape(shape)
    c1y, y_ax = y[2:2 + cells].reshape(shape), y[2 + cells:].reshape(shape)
    np.minimum(u1, u12, out=x_ax)
    np.minimum(u2, u12, out=y_ax)
    np.minimum(u2, np.subtract(u12, x_ax, out=c1y), out=c1y)
    np.minimum(u1, np.subtract(u12, y_ax, out=c2x), out=c2x)
    x[:2] = x_ax.max(), 0.0
    y[:2] = 0.0, y_ax.max()
    return x, y


def _fixed_power_bounds(std: StandardChannel, kind: str, delta: float, res: int) -> tuple[np.ndarray, ...]:
    """The total-rate bounds (u1, u2, u12) of the fixed-power region on the
    res x res power grid, user 1's power along axis 0 and user 2's along
    axis 1.  The powers enter as a column and a row, so a single-user bound
    is computed once per axis, with shape (res, 1) or (1, res), and only the
    joint terms once per cell; broadcast, they are the bounds of each cell.
    An overflow in linspace's step product or in s / delta is harmless: the
    grid's last point is set to pmax exactly, and min(inf, mac) = mac."""
    with np.errstate(all="ignore"):
        p = [np.linspace(0.0, std.pmax[0], res)[:, None], np.linspace(0.0, std.pmax[1], res)[None, :]]
        bounds = _subset_bounds(kind, std.h, p)
        for _, _, mac in bounds:
            _require_finite(mac, f"pmax {std.pmax}")
        return tuple(mac if s is None else np.minimum(s / delta, mac) for _, s, mac in bounds)


def _tdma_bounds(std: StandardChannel, delta: float, power_res: int, alpha_res: int) -> tuple[np.ndarray, ...]:
    """Per time share of the alpha_res-point share grid, the total-rate
    bounds (u1, u2, u12 = +inf) of the time-division region."""
    bounds = []
    with np.errstate(all="ignore"):
        alphas = np.linspace(0.0, 1.0, alpha_res)
        for h, pmax, a in zip(std.h, std.pmax, (alphas, 1.0 - alphas)):
            secrecy, total = _tdma_bound(h, np.linspace(0.0, pmax, power_res)[None, :], a[:, None])
            _require_finite(total, f"pmax {std.pmax}")
            # the per-user bound grows with power, so per share only the
            # maximum over the power grid can generate a hull vertex.  It is
            # not always the pmax column, so the whole grid is kept: at large
            # powers (seen from pmax 1.17e13 up) rounding breaks the growth
            # by an ulp, and at h = 0.52193896907896 and pmax 4.54e283 for
            # both users, res 327, alpha res 21, 20 of 21 share maxima differ
            bounds.append(np.minimum(secrecy / delta, total).max(axis=1))
    return bounds[0], bounds[1], np.full_like(bounds[0], np.inf)


# rate-1 bins of the dominance filter in front of the hull's sort
_HULL_BINS = 1024


def _upper_right_hull(x: np.ndarray, y: np.ndarray) -> list[tuple[float, float]]:
    """Upper-right boundary of the convex hull of the first-quadrant points
    (x, y), from the lowest point at the largest rate 1 counterclockwise to
    the leftmost point at the largest rate 2.  Only the Pareto staircase can
    lie on it.  Visiting the points by rate 1, then rate 2, both descending,
    gives the staircase in counterclockwise order: the lowest and then the
    top point at the largest rate 1, each point whose rate 2 beats every one
    before it, and the leftmost point at the largest rate 2.  One monotone
    chain (Andrew 1979) over it drops each point that does not turn left and
    each point equal to the chain's last.

    Before the sort, one linear pass drops points that cannot beat the
    running maximum, by comparisons alone.  The bin index
    floor(x / xmax * bins) never decreases with x, so a point in a strictly
    higher bin has a strictly larger rate 1 and is visited earlier; a point
    with no larger rate 2 than some point in a higher bin therefore never
    beats the running maximum, and dropping it changes no running maximum.
    The column at the largest rate 1 is the top bin and is never dropped;
    the leftmost point at the largest rate 2 is put back.  The sort then
    sees the same staircase in the same order, so the chain's vertices are
    bitwise those of the unfiltered points.  A cloud on one axis is read
    directly: its staircase is its two ends on that axis.  Boundary
    candidates arrive with each axis family already cut to its maximum
    (``_box_simplex_candidates``), by the same argument."""
    xmax, ymax = x.max(), y.max()
    if xmax == 0.0:
        stair = [np.argmin(y), np.flatnonzero(y == ymax)[-1]]
    elif ymax == 0.0:
        stair = [np.argmax(x), np.argmin(x)]
    else:
        bins = x / xmax
        bins *= _HULL_BINS
        bins = bins.astype(np.intp)
        top = np.full(_HULL_BINS + 2, -np.inf)
        np.maximum.at(top, bins, y)
        # above[b]: the largest rate 2 in any bin higher than b
        above = np.maximum.accumulate(top[::-1])[-2::-1]
        keep = y > above[bins]
        at_ymax = np.flatnonzero(y == ymax)
        keep[at_ymax[np.argmin(x[at_ymax])]] = True
        kept = np.flatnonzero(keep)
        order = kept[np.lexsort((y[kept], x[kept]))[::-1]]
        sx, sy = x[order], y[order]
        stair = order[np.concatenate([
            [np.count_nonzero(sx == sx[0]) - 1, 0],
            1 + np.flatnonzero(sy[1:] > np.maximum.accumulate(sy[:-1])),
            [np.flatnonzero(sy == ymax)[-1]],
        ])]

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
    """Rate-1 and rate-2 columns of the hull candidates of a boundary kind,
    and the number of generators they stand for.  The per-cell bounds are
    freed on return, before the hull runs."""
    bounds = []
    if kind != KIND_TDMA:
        fixed_kind = KIND_INDIVIDUAL if kind == KIND_UNION_I_T else kind
        bounds.append(_fixed_power_bounds(std, fixed_kind, delta, power_res))
    if kind in (KIND_TDMA, KIND_UNION_I_T):
        bounds.append(_tdma_bounds(std, delta, power_res, alpha_res))
    families = [_box_simplex_candidates(*b) for b in bounds]
    x, y = families[0] if len(families) == 1 else map(np.concatenate, zip(*families))
    # every cell has four corners, and the origin closes the region
    return x, y, 1 + 4 * sum(np.broadcast(*b).size for b in bounds)


def region_boundary_2d(
    std: StandardChannel,
    kind: str,
    delta: float = 1.0,
    power_grid_res: int = 101,
    alpha_grid_res: int = 101,
) -> RegionBoundary2D:
    """Convex closure of the union of fixed-power regions of the given kind
    over a uniform power grid (and a time-share grid for the time-division
    kinds), projected to per-user total rates at fractional secrecy
    ``delta``.  Kind UNION_I_T closes the union of the individual-constraint
    and time-division families."""
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


def _eavesdropper_rate(std: StandardChannel, p: tuple[float, ...], subset) -> float:
    """``cw`` of checked powers, summed in the same order."""
    total = sum(std.h[k - 1] * p[k - 1] for k in subset)
    if not math.isfinite(total):
        raise _overflow(f"powers {p} with gains {std.h}")
    return g(total)


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
            x_k = _eavesdropper_rate(std, p, {k}) - rates.open[k - 1]
            if x_k < -1e-12:
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
    target = _eavesdropper_rate(std, p, full) - sum(rates.open)
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
