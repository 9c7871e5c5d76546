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
from dataclasses import dataclass
from functools import reduce
from operator import add, sub
from typing import Any, NamedTuple, Sequence

import numpy as np

from .channel import StandardChannel, check_degraded
from .errors import NonDegradedError, ValidationError
from .rates import _clamp0, _g_arr, cw, enumerate_subsets, g, subset_label

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


def _as_rate_tuple(values: Any, name: str) -> tuple[float, ...]:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of numbers: {exc}") from exc
    if any(not math.isfinite(v) or v < 0.0 for v in out):
        raise ValidationError(f"{name} entries must be finite and nonnegative, got {out}")
    return out


@dataclass(frozen=True)
class RateVector:
    """Per-user (secret, open) rate pairs in bits/use."""

    secret: tuple[float, ...]
    open: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "secret", _as_rate_tuple(self.secret, "secret"))
        object.__setattr__(self, "open", _as_rate_tuple(self.open, "open"))
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
        object.__setattr__(self, "total", _as_rate_tuple(self.total, "total"))
        if not (math.isfinite(self.delta) and 0.0 <= self.delta <= 1.0):
            raise ValidationError(f"delta must lie in [0, 1], got {self.delta!r}")

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

    def coefficients(self, num_users: int, coordinates: str) -> tuple[float, ...]:
        """Explicit coefficient vector: over (secret_1..K, open_1..K) for
        secret/open coordinates, over (total_1..K) for total coordinates."""
        if coordinates == COORDS_TOTAL:
            return tuple(1.0 if k in self.subset else 0.0 for k in range(1, num_users + 1))
        sec = tuple(1.0 if k in self.subset else 0.0 for k in range(1, num_users + 1))
        opn = sec if self.kind == ROW_MAC else tuple(0.0 for _ in range(num_users))
        return sec + opn


def _row_sort_key(row: ConstraintRow):
    return (0 if row.kind == ROW_SECRECY else 1, len(row.subset), sorted(row.subset))


@dataclass(frozen=True)
class RateConstraintSet:
    """A region at fixed power: rows, region kind, and coordinate system."""

    kind: str
    num_users: int
    power: tuple[float, ...]
    rows: tuple[ConstraintRow, ...]
    coordinates: str = COORDS_SECRET_OPEN
    delta: float | None = None
    alpha: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if self.coordinates not in (COORDS_SECRET_OPEN, COORDS_TOTAL):
            raise ValidationError(f"unknown coordinate system {self.coordinates!r}")
        for row in self.rows:
            if any(k > self.num_users for k in row.subset):
                raise ValidationError(f"row {row.label} references a user beyond K={self.num_users}")
        object.__setattr__(self, "rows", tuple(sorted(self.rows, key=_row_sort_key)))

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
            "power": list(self.power),
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
            out["alpha"] = list(self.alpha)
        return out


class MembershipResult(NamedTuple):
    ok: bool
    violated: str | None


class RateSplitResult(NamedTuple):
    feasible: bool
    extra: tuple[float, ...] | None
    binding: str | None


def _check_power(std: StandardChannel, powers: Sequence[float]) -> tuple[float, ...]:
    p = _as_rate_tuple(powers, "powers")
    if len(p) != std.num_users:
        raise ValidationError(f"powers must have length {std.num_users}, got {len(p)}")
    for k, (v, limit) in enumerate(zip(p, std.pmax), start=1):
        if v > limit + POWER_FEAS_TOL * max(1.0, limit):
            raise ValidationError(f"power {v} of user {k} exceeds limit {limit}")
    return p


def _subset_bounds(kind: str, h: Sequence[float], p: Sequence[Any]) -> list[tuple[Any, ...]]:
    """(S, SECRECY rhs or None, MAC rhs g(p(S))) of a fixed-power region of
    the given kind for every nonempty subset S, in ``enumerate_subsets`` order.
    INDIVIDUAL bounds every S by g(p(S)) minus each member's g(h_k p_k),
    OUTER_INDIVIDUAL only single users; the collective kinds bound the full
    set by g(p(S)) - g(sum of h_k p_k); all clamped at zero.  Each power is
    a float or an array of one common shape, evaluated elementwise and
    unchecked: a non-finite MAC value means a power sum overflowed."""
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
        raise ValidationError(f"{what} too large: a rate bound overflows the float range")


def _region_at(std: StandardChannel, kind: str, powers: Sequence[float]) -> RateConstraintSet:
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
    broadcastable arrays and unchecked, like ``_subset_bounds``."""
    with np.errstate(all="ignore"):
        den = a + h * p
        arg = np.where(den > 0.0, (1.0 - h) * p / np.where(den > 0.0, den, 1.0), 0.0)
        secrecy = np.where((a > 0.0) & (arg > 0.0), a * _g_arr(_clamp0(arg)), 0.0)
        total = np.where(a > 0.0, a * _g_arr(p / np.where(a > 0.0, a, 1.0)), 0.0)
    return secrecy, total


def tdma_region_at(
    std: StandardChannel, powers: Sequence[float], alpha: Sequence[float]
) -> RateConstraintSet:
    """Region achieved by time-sharing single-user transmissions: user k is
    active a fraction alpha_k of the time with boosted power p_k/alpha_k.
    A zero share forces both of that user's bounds to zero."""
    p = _check_power(std, powers)
    a = _as_rate_tuple(alpha, "alpha")
    if len(a) != std.num_users:
        raise ValidationError(f"alpha must have length {std.num_users}, got {len(a)}")
    if any(v > 1.0 for v in a) or abs(sum(a) - 1.0) > ALPHA_SUM_TOL:
        raise ValidationError(f"time shares must lie in [0,1] and sum to 1, got {a}")
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
    degraded_tol: float = 1e-9,
) -> RateConstraintSet:
    """Converse region at fixed power; valid only when the eavesdropper is
    degraded.  kind INDIVIDUAL bounds each user's secret rate by its
    single-user rate difference; kind COLLECTIVE bounds the secret-rate sum
    by the full-set rate difference.  Both keep all MAC rows."""
    kind = str(kind).upper().replace("-", "_").replace("OUTER_", "")
    if kind not in (KIND_INDIVIDUAL, KIND_COLLECTIVE):
        raise ValidationError(f"outer bound kind must be INDIVIDUAL or COLLECTIVE, got {kind!r}")
    _require_degraded(std, degraded_tol, "outer bounds hold only for a degraded "
                      "eavesdropper (equal gains below 1)")
    return _region_at(std, f"OUTER_{kind}", powers)


def _require_degraded(std: StandardChannel, tol: float, what: str) -> None:
    report = check_degraded(std, tol)
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
    if not (isinstance(delta, (int, float)) and math.isfinite(delta)):
        raise ValidationError(f"delta must be a finite number, got {delta!r}")
    if delta == 0.0:
        raise ValidationError(
            "delta = 0 has no secrecy constraint; use the MAC rows of the base region"
        )
    if not 0.0 < delta <= 1.0:
        raise ValidationError(f"delta must lie in (0, 1], got {delta}")
    if base.coordinates != COORDS_SECRET_OPEN:
        raise ValidationError("delta_region expects a base region over (secret, open) rates")
    rows = tuple(
        ConstraintRow(r.subset, r.kind, r.rhs / delta if r.kind == ROW_SECRECY else r.rhs)
        for r in base.rows
    )
    return RateConstraintSet(
        base.kind,
        base.num_users,
        base.power,
        rows,
        coordinates=COORDS_TOTAL,
        delta=float(delta),
        alpha=base.alpha,
    )


def membership(
    rates: RateVector | DeltaRateVector,
    region: RateConstraintSet,
    tol: float = 1e-9,
) -> MembershipResult:
    """Check all rows within ``tol``; on failure report the first violated
    row's label in the region's canonical row order."""
    if isinstance(rates, RateVector):
        if region.coordinates != COORDS_SECRET_OPEN:
            raise ValidationError("this region is over total rates; pass a DeltaRateVector")
        if rates.num_users != region.num_users:
            raise ValidationError(
                f"rate vector has {rates.num_users} users, region has {region.num_users}"
            )
        secret, opn = rates.secret, rates.open
        for row in region.rows:
            total = sum(secret[k - 1] for k in row.subset)
            if row.kind == ROW_MAC:
                total += sum(opn[k - 1] for k in row.subset)
            if total > row.rhs + tol:
                return MembershipResult(False, row.label)
        return MembershipResult(True, None)
    if isinstance(rates, DeltaRateVector):
        if region.coordinates != COORDS_TOTAL:
            raise ValidationError("this region is over (secret, open) rates; pass a RateVector")
        if rates.num_users != region.num_users:
            raise ValidationError(
                f"rate vector has {rates.num_users} users, region has {region.num_users}"
            )
        for row in region.rows:
            if sum(rates.total[k - 1] for k in row.subset) > row.rhs + tol:
                return MembershipResult(False, row.label)
        return MembershipResult(True, None)
    raise ValidationError(f"unsupported rate vector type {type(rates).__name__}")


def sum_capacity_degraded(h: float, total_power: float) -> float:
    """Secrecy sum capacity of the degraded channel with common gain h < 1:
    g((1-h) * P / (1 + h * P)) where P is the total power."""
    if not (math.isfinite(h) and 0.0 <= h < 1.0):
        raise ValidationError(f"degraded sum capacity requires 0 <= h < 1, got {h!r}")
    if not (math.isfinite(total_power) and total_power >= 0.0):
        raise ValidationError(f"total power must be finite and nonnegative, got {total_power!r}")
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

    def _polygon(self) -> list[tuple[float, float]]:
        poly = [(0.0, 0.0)] + [v for v in self.vertices if v != (0.0, 0.0)]
        return poly

    def contains(self, point: Sequence[float], tol: float = 1e-9) -> bool:
        x, y = float(point[0]), float(point[1])
        if x < -tol or y < -tol:
            return False
        poly = self._polygon()
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


def _box_simplex_candidates(u1: np.ndarray, u2: np.ndarray, u12: np.ndarray) -> np.ndarray:
    """Vertices of {x,y >= 0, x <= u1, y <= u2, x+y <= u12}, stacked for all
    cells.  u12 may be +inf when no joint row exists."""
    x_ax = np.minimum(u1, u12)
    y_ax = np.minimum(u2, u12)
    c1y = np.minimum(u2, u12 - x_ax)
    c2x = np.minimum(u1, u12 - y_ax)
    zeros = np.zeros_like(u1)
    xs = np.concatenate([x_ax, zeros, x_ax, c2x])
    ys = np.concatenate([zeros, y_ax, c1y, y_ax])
    return np.column_stack([xs, ys])


def _fixed_power_candidates(std: StandardChannel, kind: str, delta: float, res: int) -> np.ndarray:
    grid = np.meshgrid(
        np.linspace(0.0, std.pmax[0], res), np.linspace(0.0, std.pmax[1], res), indexing="ij"
    )
    bounds = _subset_bounds(kind, std.h, [p.ravel() for p in grid])
    _require_finite([mac for _, _, mac in bounds], f"pmax {std.pmax}")
    u1, u2, u12 = (mac if s is None else np.minimum(s / delta, mac) for _, s, mac in bounds)
    return _box_simplex_candidates(u1, u2, u12)


def _tdma_candidates(std: StandardChannel, delta: float, power_res: int, alpha_res: int) -> np.ndarray:
    alphas = np.linspace(0.0, 1.0, alpha_res)
    bounds = []
    for h, pmax, a in zip(std.h, std.pmax, (alphas, 1.0 - alphas)):
        secrecy, total = _tdma_bound(h, np.linspace(0.0, pmax, power_res)[None, :], a[:, None])
        _require_finite(total, f"pmax {std.pmax}")
        # the per-user bound grows with power, so per share only the maximum
        # over the power grid can generate a hull vertex
        bounds.append(np.minimum(secrecy / delta, total).max(axis=1))
    return _box_simplex_candidates(bounds[0], bounds[1], np.full_like(bounds[0], np.inf))


def _upper_right_hull(points: np.ndarray) -> list[tuple[float, float]]:
    """Monotone-chain hull of first-quadrant points; returns the boundary
    from the max-rate-1 vertex counterclockwise to the max-rate-2 vertex.
    Ties and duplicates resolve by lexicographic point order."""
    pts = np.unique(points, axis=0)
    if pts.shape[0] == 1:
        return [(float(pts[0, 0]), float(pts[0, 1]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[float, float]] = []
    for p in map(tuple, pts):
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[float, float]] = []
    for p in map(tuple, pts[::-1]):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]  # counterclockwise, starts at lexicographic min

    xmax = max(p[0] for p in hull)
    ymax = max(p[1] for p in hull)
    start = hull.index(min((p for p in hull if p[0] == xmax), key=lambda p: p[1]))
    end = hull.index(min((p for p in hull if p[1] == ymax), key=lambda p: p[0]))
    if start == end:
        return [hull[start]]
    if start < end:
        return hull[start : end + 1]
    return hull[start:] + hull[: end + 1]


def region_boundary_2d(
    std: StandardChannel,
    kind: str,
    delta: float = 1.0,
    power_grid_res: int = 101,
    alpha_grid_res: int = 101,
    degraded_tol: float = 1e-9,
) -> RegionBoundary2D:
    """Convex closure of the union of fixed-power regions of the given kind
    over a uniform power grid (and a time-share grid for the time-division
    kinds), projected to per-user total rates at fractional secrecy
    ``delta``.  Kind UNION_I_T closes the union of the individual-constraint
    and time-division families."""
    if std.num_users != 2:
        raise ValidationError("boundary computation supports exactly two users")
    kind = str(kind).upper().replace("-", "_")
    if kind not in BOUNDARY_KINDS:
        raise ValidationError(f"kind must be one of {BOUNDARY_KINDS}, got {kind!r}")
    if delta == 0.0 or not (math.isfinite(delta) and 0.0 < delta <= 1.0):
        raise ValidationError(f"delta must lie in (0, 1], got {delta!r}")
    if power_grid_res < 2 or alpha_grid_res < 2:
        raise ValidationError("grid resolutions must be at least 2")
    if kind in (KIND_OUTER_INDIVIDUAL, KIND_OUTER_COLLECTIVE):
        _require_degraded(
            std, degraded_tol, "outer-bound boundaries require a degraded eavesdropper"
        )
    if kind == KIND_TDMA:
        candidates = _tdma_candidates(std, delta, power_grid_res, alpha_grid_res)
    elif kind == KIND_UNION_I_T:
        candidates = np.vstack(
            [
                _fixed_power_candidates(std, KIND_INDIVIDUAL, delta, power_grid_res),
                _tdma_candidates(std, delta, power_grid_res, alpha_grid_res),
            ]
        )
    else:
        candidates = _fixed_power_candidates(std, kind, delta, power_grid_res)
    candidates = np.vstack([candidates, [[0.0, 0.0]]])
    vertices = _upper_right_hull(candidates)
    return RegionBoundary2D(
        vertices=tuple((float(x), float(y)) for x, y in vertices),
        generator_count=int(candidates.shape[0]),
    )


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
    tol: float = 1e-9,
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
            x_k = cw(p, std.h, {k}) - rates.open[k - 1]
            if x_k < -1e-12:
                return RateSplitResult(False, None, f"RANDOMIZATION{{{k}}}")
            extra.append(max(x_k, 0.0))
        else:
            extra.append(0.0)
    for subset, mac in _subset_macs(std, p).items():
        used = sum(rates.secret[k - 1] + rates.open[k - 1] + extra[k - 1] for k in subset)
        if used > mac + tol:
            return RateSplitResult(False, None, f"MAC{subset_label(subset)}")
    return RateSplitResult(True, tuple(extra), None)


def rate_split_collective(
    std: StandardChannel,
    powers: Sequence[float],
    rates: RateVector,
    tol: float = 1e-9,
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
    target = cw(p, std.h, full) - sum(rates.open)
    if target < -tol:
        return RateSplitResult(False, None, "RANDOMIZATION_TOTAL")
    target = max(target, 0.0)
    caps = {
        s: mac - sum(rates.secret[k - 1] + rates.open[k - 1] for k in s)
        for s, mac in _subset_macs(std, p).items()
    }
    for subset, cap in caps.items():
        if cap < -tol:
            return RateSplitResult(False, None, f"MAC{subset_label(subset)}")
    caps = {s: max(c, 0.0) for s, c in caps.items()}
    if target > caps[full] + tol:
        return RateSplitResult(False, None, f"MAC{subset_label(full)}")

    def rank(users: frozenset[int]) -> float:
        return min(target, min(c for s, c in caps.items() if users <= s))

    suffix_ranks = [rank(frozenset(range(j, num_users + 1))) for j in range(1, num_users + 1)]
    extra = [a - b for a, b in zip(suffix_ranks, suffix_ranks[1:])]
    extra.append(target - sum(extra))
    for s, cap in caps.items():
        if sum(extra[k - 1] for k in s) > cap + max(tol, 1e-8):
            return RateSplitResult(False, None, f"MAC{subset_label(s)}")
    return RateSplitResult(True, tuple(extra), None)
