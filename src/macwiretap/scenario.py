"""Mobile-eavesdropper sweep: move an eavesdropper over a position grid,
derive channel gains from a path-loss model, and compare the optimal secrecy
sum rate with and without cooperative jamming at every position.

Gains follow gain = max(distance, min_distance) ** (-pathloss_exponent);
receiver-side gains use each user's distance to the base station, tap-side
gains the distance to the eavesdropper position.  Powers in the per-cell
results are the jamming-solution allocation in standardized units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence, TextIO

import numpy as np

from .channel import RawChannelConfig, _as_floats, _as_number, _as_whole, standardize
from .errors import ValidationError
from .optimizer import (
    CASE_BOTH_TRANSMIT,
    CASE_JAM_AT_MAX,
    CASE_JAM_AT_ROOT,
    CASE_NO_JAM,
    CASE_NONE,
    CASE_ONE_TRANSMITS,
    _jam_kernel,
    _sum_kernel,
    optimal_powers_jam,
    optimal_powers_sum,
)
from .rates import _clamp0

ZERO_RATE_THRESHOLD = 1e-9

Point = tuple[float, float]


def _as_point(value: Any, name: str) -> Point:
    x, y = _as_floats(value, name, 2)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValidationError(f"{name} must be finite, got {value!r}")
    return (x, y)


@dataclass(frozen=True)
class ScenarioConfig:
    """Geometry, path-loss and radio parameters of one sweep.

    Exactly two users; all positions must lie inside the area rectangle
    [0, width] x [0, height].
    """

    grid: tuple[int, int]
    area: tuple[float, float]
    base_station: Point
    users: tuple[Point, Point]
    power_limits: tuple[float, float]
    noise_var_main: float
    noise_var_tap: float
    pathloss_exponent: float = 2.0
    min_distance: float = 1.0

    def __post_init__(self) -> None:
        grid = self.grid
        if not (
            isinstance(grid, Sequence)
            and len(grid) == 2
            and all(isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in grid)
        ):
            raise ValidationError(f"grid must be a pair of positive integers, got {self.grid!r}")
        width, height = _as_floats(self.area, "area", 2)
        if not (width > 0 and height > 0 and math.isfinite(width) and math.isfinite(height)):
            raise ValidationError(f"area must be positive and finite, got {self.area!r}")
        object.__setattr__(self, "area", (width, height))
        object.__setattr__(self, "base_station", _as_point(self.base_station, "base_station"))
        if isinstance(self.users, str) or not isinstance(self.users, Sequence):
            raise ValidationError(f"users must be a list of (x, y) pairs, got {self.users!r}")
        if len(self.users) != 2:
            raise ValidationError(f"exactly two users are supported, got {len(self.users)}")
        object.__setattr__(
            self, "users", tuple(_as_point(u, f"users[{i}]") for i, u in enumerate(self.users))
        )
        for name, pos in [("base_station", self.base_station)] + [
            (f"users[{i}]", u) for i, u in enumerate(self.users)
        ]:
            if not (0.0 <= pos[0] <= width and 0.0 <= pos[1] <= height):
                raise ValidationError(f"{name} position {pos} lies outside the area {self.area}")
        limits = _as_floats(self.power_limits, "power_limits", 2)
        if any(not math.isfinite(v) or v < 0 for v in limits):
            raise ValidationError(f"power_limits must be two nonnegative numbers, got {self.power_limits!r}")
        object.__setattr__(self, "power_limits", limits)
        for name in ("noise_var_main", "noise_var_tap"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValidationError(f"{name} must be a finite positive number, got {v!r}")
        if not (math.isfinite(self.pathloss_exponent) and self.pathloss_exponent > 0):
            raise ValidationError(f"pathloss_exponent must be positive, got {self.pathloss_exponent!r}")
        if not (math.isfinite(self.min_distance) and self.min_distance > 0):
            raise ValidationError(f"min_distance must be positive, got {self.min_distance!r}")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        required = {
            "grid", "area", "base_station", "users",
            "power_limits", "noise_var_main", "noise_var_tap",
        }
        missing = required - set(data)
        if missing:
            raise ValidationError(f"missing scenario config keys: {sorted(missing)}")
        if isinstance(data["grid"], str):
            raise ValidationError(f"grid must be two integers, got {data['grid']!r}")
        try:
            grid = tuple(_as_whole(v) for v in data["grid"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"grid must be two integers: {exc}") from exc
        return cls(
            grid=grid,  # type: ignore[arg-type]
            area=data["area"],
            base_station=data["base_station"],
            users=data["users"],
            power_limits=data["power_limits"],
            noise_var_main=_as_number(data["noise_var_main"], "noise_var_main"),
            noise_var_tap=_as_number(data["noise_var_tap"], "noise_var_tap"),
            pathloss_exponent=_as_number(data.get("pathloss_exponent", 2.0), "pathloss_exponent"),
            min_distance=_as_number(data.get("min_distance", 1.0), "min_distance"),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "grid": list(self.grid),
            "area": list(self.area),
            "base_station": list(self.base_station),
            "users": [list(u) for u in self.users],
            "power_limits": list(self.power_limits),
            "noise_var_main": self.noise_var_main,
            "noise_var_tap": self.noise_var_tap,
            "pathloss_exponent": self.pathloss_exponent,
            "min_distance": self.min_distance,
        }


@dataclass(frozen=True)
class CellRecord:
    """Result at one eavesdropper position: jamming-solution powers
    (standardized units), sum rates with and without jamming, and the
    jamming solution's case label."""

    x: float
    y: float
    p1: float
    p2: float
    sumrate_jam: float
    sumrate_nojam: float
    case: str


# case labels in the order of the codes stored in ``ScenarioResult.case``
CASE_LABELS = (
    CASE_BOTH_TRANSMIT, CASE_ONE_TRANSMITS, CASE_NONE,
    CASE_JAM_AT_ROOT, CASE_JAM_AT_MAX, CASE_NO_JAM,
)
_CODE = {label: code for code, label in enumerate(CASE_LABELS)}
_JAMMING = (_CODE[CASE_JAM_AT_ROOT], _CODE[CASE_JAM_AT_MAX])


@dataclass(frozen=True, eq=False)
class ScenarioResult:
    """Per-cell results as columns, one entry per cell in row-major order
    (y outer, x inner); ``case`` holds indices into ``CASE_LABELS``."""

    config: ScenarioConfig
    x: np.ndarray
    y: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    sumrate_jam: np.ndarray
    sumrate_nojam: np.ndarray
    case: np.ndarray

    def __len__(self) -> int:
        return len(self.x)

    def _rows(self):
        return zip(
            self.x.tolist(), self.y.tolist(), self.p1.tolist(), self.p2.tolist(),
            self.sumrate_jam.tolist(), self.sumrate_nojam.tolist(),
            [CASE_LABELS[c] for c in self.case.tolist()],
        )

    @property
    def records(self) -> tuple[CellRecord, ...]:
        """The cells as ``CellRecord``s, built afresh on each access."""
        return tuple(CellRecord(*row) for row in self._rows())

    def zero_rate_counts(self, threshold: float = ZERO_RATE_THRESHOLD) -> tuple[int, int]:
        """(cells with zero rate despite jamming, cells with zero rate
        without jamming)."""
        jam = int(np.count_nonzero(self.sumrate_jam <= threshold))
        nojam = int(np.count_nonzero(self.sumrate_nojam <= threshold))
        return jam, nojam

    def jam_power_by_bs_distance(self, bins: int = 10) -> list[dict[str, float]]:
        """Mean jamming power over actively jamming cells, binned by
        eavesdropper distance to the base station; a soft diagnostic of the
        jam-harder-near-the-receiver trend, reported rather than asserted."""
        bx, by = self.config.base_station
        jamming = np.isin(self.case, _JAMMING)
        p2 = self.p2[jamming]
        # scalar math.hypot and the builtin sum on purpose: np.hypot can
        # differ in the last ulp and np.sum sums pairwise, either of which
        # can move a cell across a bin edge or change a mean's last digit
        dists = np.array([
            math.hypot(x - bx, y - by)
            for x, y in zip(self.x[jamming].tolist(), self.y[jamming].tolist())
        ])
        dmax = float(dists.max()) if dists.size else 0.0
        width = dmax / bins if dmax > 0 else 1.0
        out = []
        for b in range(bins):
            lo, hi = b * width, (b + 1) * width
            in_bin = (lo <= dists) & (dists < hi)
            if b == bins - 1:
                in_bin |= dists == dmax
            powers = p2[in_bin].tolist()
            if not powers:
                continue
            out.append(
                {
                    "distance_lo": lo,
                    "distance_hi": hi,
                    "mean_jam_power": sum(powers) / len(powers),
                    "cells": float(len(powers)),
                }
            )
        return out

    def to_csv(self, fp: TextIO) -> None:
        fp.write("x,y,P1,P2,sumrate_jam,sumrate_nojam,case\n")
        fp.writelines("%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s\n" % row for row in self._rows())


def _pathloss_gain(distance: float, exponent: float, min_distance: float) -> float:
    try:
        return max(distance, min_distance) ** (-exponent)
    except OverflowError as exc:
        raise ValidationError(
            f"path-loss gain max(distance, min_distance) ** -pathloss_exponent overflows: "
            f"distance {distance!r}, min_distance {min_distance!r}, pathloss_exponent {exponent!r}"
        ) from exc


def gains_at(config: ScenarioConfig, eaves_pos: Sequence[float]) -> RawChannelConfig:
    """Physical channel when the eavesdropper sits at the given position."""
    ex, ey = _as_point(eaves_pos, "eaves_pos")
    width, height = config.area
    if not (0.0 <= ex <= width and 0.0 <= ey <= height):
        raise ValidationError(f"eavesdropper position ({ex}, {ey}) lies outside the area {config.area}")
    bx, by = config.base_station
    gains_main = tuple(
        _pathloss_gain(math.hypot(ux - bx, uy - by), config.pathloss_exponent, config.min_distance)
        for ux, uy in config.users
    )
    gains_tap = tuple(
        _pathloss_gain(math.hypot(ux - ex, uy - ey), config.pathloss_exponent, config.min_distance)
        for ux, uy in config.users
    )
    return RawChannelConfig(
        num_users=2,
        gains_main=gains_main,
        gains_tap=gains_tap,
        noise_var_main=config.noise_var_main,
        noise_var_tap=config.noise_var_tap,
        power_limits=config.power_limits,
    )


def _cell(config: ScenarioConfig, x: float, y: float) -> CellRecord:
    try:
        std = standardize(gains_at(config, (x, y)))
        nojam = optimal_powers_sum(std.h, std.pmax)
        jam = optimal_powers_jam(std.h, std.pmax)
    except ValidationError as exc:
        raise ValidationError(f"cell ({x:g}, {y:g}): {exc}") from exc
    return CellRecord(
        x=x,
        y=y,
        p1=jam.p[0],
        p2=jam.p[1],
        sumrate_jam=jam.achieved_rate,
        sumrate_nojam=nojam.achieved_rate,
        case=jam.case_label,
    )


def _solve(h_a, h_b, m_a, m_b):
    """``optimal_powers_sum`` and ``optimal_powers_jam`` over arrays of
    standardized channels, branch for branch and operation for operation,
    so every value is bitwise the scalar one.

    Returns (P1, P2, unclamped jam rate, unclamped sum rate, case codes,
    roots_ok); ``roots_ok`` is false where the scalar ``jam_roots`` would
    evaluate a non-finite root and so raise.
    """
    swapped = h_a > h_b
    h1, h2 = np.where(swapped, h_b, h_a), np.where(swapped, h_a, h_b)
    m1, m2 = np.where(swapped, m_b, m_a), np.where(swapped, m_a, m_b)

    # optimal_powers_sum
    below = h1 < 1.0
    threshold = (1.0 + h1 * m1) / (1.0 + m1)
    both = below & (h2 < threshold)
    s1 = np.where(below, m1, 0.0)
    s2 = np.where(both, m2, 0.0)
    sum_case = np.where(both, _CODE[CASE_BOTH_TRANSMIT],
                        np.where(below, _CODE[CASE_ONE_TRANSMITS], _CODE[CASE_NONE]))
    sum_rate = _sum_kernel(s1, s2, h1, h2)

    # optimal_powers_jam: equal gains below one and distinct gains below the
    # sum-rate threshold defer to the sum-rate answer
    equal = h1 == h2
    defer = np.where(equal, below, (h2 <= 1.0) & (h2 < threshold))
    # the two branches that call jam_roots: h1 <= 1 < h2 jams at the root
    # clamped to [0, m2]; 1 < h1 < h2 jams at min(root, m2) when worthwhile
    root_lo = ~equal & (h2 > 1.0) & (h1 <= 1.0)
    root_hi = ~equal & (h1 > 1.0) & ((h1 - 1.0) / (h2 - h1) < m2)
    disc = h1 * h2 * (h2 - 1.0) * ((h2 - 1.0) + (h2 - h1) * m1)
    root = (-h2 * (1.0 - h1) + np.sqrt(disc)) / (h2 * (h2 - h1))
    real = ~(disc < 0.0)
    capped = np.where(m2 < root, m2, root)  # min(root, m2), ties to root
    j2 = np.where(root_lo, np.where(real & (capped > 0.0), capped, 0.0),
                  np.where(root_hi, capped, 0.0))
    j1 = np.where(root_lo | root_hi | (~equal & (h2 <= 1.0)), m1, 0.0)
    active = root_hi | (root_lo & (j2 != 0.0))
    jam_case = np.where(
        active,
        np.where(j2 == m2, _CODE[CASE_JAM_AT_MAX], _CODE[CASE_JAM_AT_ROOT]),
        np.where(~equal & (h1 > 1.0), _CODE[CASE_NONE], _CODE[CASE_NO_JAM]),
    )
    jam_rate = _jam_kernel(j1, j2, h1, h2)

    p1 = np.where(defer, s1, j1)
    p2 = np.where(defer, s2, j2)
    roots_ok = ~(root_lo | root_hi) | (root_lo & ~real) | np.isfinite(root)
    return (
        np.where(swapped, p2, p1),
        np.where(swapped, p1, p2),
        np.where(defer, sum_rate, jam_rate),
        sum_rate,
        np.where(defer, sum_case, jam_case),
        roots_ok,
    )


def sweep(config: ScenarioConfig) -> ScenarioResult:
    """Evaluate every grid cell (cell centers, row-major: y outer, x inner).

    The whole grid is solved in one array pass.  Any cell that the pass
    cannot vouch for (a value the scalar path would reject, or any
    non-finite result) is re-solved by the scalar ``_cell``, in row-major
    order, so a bad cell raises exactly the error the scalar path raises.
    """
    nx, ny = config.grid
    width, height = config.area
    xs = [(i + 0.5) * width / nx for i in range(nx)]
    ys = [(j + 0.5) * height / ny for j in range(ny)]
    x = np.tile(np.array(xs), ny)
    y = np.repeat(np.array(ys), nx)
    bx, by = config.base_station
    exponent, dmin = config.pathloss_exponent, config.min_distance
    try:
        gains_main = [
            _pathloss_gain(math.hypot(ux - bx, uy - by), exponent, dmin)
            for ux, uy in config.users
        ]
        gains_tap = [_gain_grid(config, user, xs, ys) for user in config.users]
    except ValidationError:
        # a gain out of float range: the scalar path raises at the first bad cell
        for cy in ys:
            for cx in xs:
                _cell(config, cx, cy)
        raise

    nvm, nvt = config.noise_var_main, config.noise_var_tap
    m_a, m_b = (g / nvm * limit for g, limit in zip(gains_main, config.power_limits))
    with np.errstate(all="ignore"):
        h_a, h_b = (tap * nvm / (g * nvt) for tap, g in zip(gains_tap, gains_main))
        p1, p2, jam, nojam, case, ok = _solve(h_a, h_b, m_a, m_b)
        # vouch only for cells on which the scalar path cannot raise or warn:
        # h and pmax finite (a zero gains_main makes h non-finite), every jam
        # root it evaluates finite, the cell inside the area, outputs finite
        for column in (h_a, h_b, m_a, m_b, p1, p2, jam, nojam):
            ok &= np.isfinite(column)
        ok &= (0.0 <= x) & (x <= width) & (0.0 <= y) & (y <= height)
        jam, nojam = _clamp0(jam), _clamp0(nojam)
    case = case.astype(np.int8)
    for i in np.flatnonzero(~ok).tolist():
        rec = _cell(config, float(x[i]), float(y[i]))
        p1[i], p2[i], jam[i], nojam[i] = rec.p1, rec.p2, rec.sumrate_jam, rec.sumrate_nojam
        case[i] = _CODE[rec.case]
    return ScenarioResult(config, x, y, p1, p2, jam, nojam, case)


def _gain_grid(config: ScenarioConfig, user: Point, xs: list[float], ys: list[float]) -> np.ndarray:
    """Tap gains of one user over the grid, row-major, each computed as
    ``gains_at`` computes it (scalar, so bitwise the same)."""
    ux, uy = user
    dxs = [ux - x for x in xs]
    return np.array([
        _pathloss_gain(math.hypot(dx, uy - y), config.pathloss_exponent, config.min_distance)
        for y in ys for dx in dxs
    ])
