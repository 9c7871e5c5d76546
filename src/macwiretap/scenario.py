"""Mobile-eavesdropper sweep: move an eavesdropper over a position grid,
derive channel gains from a path-loss model, and compare the optimal secrecy
sum rate with and without cooperative jamming at every position.

Gains follow gain = max(distance, min_distance) ** (-pathloss_exponent);
receiver-side gains use each user's distance to the base station, tap-side
gains the distance to the eavesdropper position.  Powers in the per-cell
records are the jamming-solution allocation in standardized units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Sequence, TextIO

from .channel import RawChannelConfig, standardize
from .errors import ValidationError
from .optimizer import optimal_powers_jam, optimal_powers_sum

ZERO_RATE_THRESHOLD = 1e-9

Point = tuple[float, float]


def _as_number(value: Any, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc


def _as_pair(value: Any, name: str) -> tuple[float, float]:
    if isinstance(value, str):
        raise ValidationError(f"{name} must be a pair of numbers, got {value!r}")
    try:
        x, y = (float(v) for v in value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a pair of numbers, got {value!r}") from exc
    return (x, y)


def _as_point(value: Any, name: str) -> Point:
    x, y = _as_pair(value, name)
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
            and all(isinstance(n, int) and n >= 1 for n in grid)
        ):
            raise ValidationError(f"grid must be a pair of positive integers, got {self.grid!r}")
        width, height = _as_pair(self.area, "area")
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
        limits = _as_pair(self.power_limits, "power_limits")
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
            grid = tuple(int(v) for v in data["grid"])
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


@dataclass(frozen=True)
class ScenarioResult:
    config: ScenarioConfig
    records: tuple[CellRecord, ...]

    def zero_rate_counts(self, threshold: float = ZERO_RATE_THRESHOLD) -> tuple[int, int]:
        """(cells with zero rate despite jamming, cells with zero rate
        without jamming)."""
        jam = sum(1 for r in self.records if r.sumrate_jam <= threshold)
        nojam = sum(1 for r in self.records if r.sumrate_nojam <= threshold)
        return jam, nojam

    def jam_power_by_bs_distance(self, bins: int = 10) -> list[dict[str, float]]:
        """Mean jamming power over actively jamming cells, binned by
        eavesdropper distance to the base station; a soft diagnostic of the
        jam-harder-near-the-receiver trend, reported rather than asserted."""
        bx, by = self.config.base_station
        jamming = [r for r in self.records if r.case in ("JAM_AT_ROOT", "JAM_AT_MAX")]
        dists = [math.hypot(r.x - bx, r.y - by) for r in jamming]
        dmax = max(dists) if dists else 0.0
        width = dmax / bins if dmax > 0 else 1.0
        out = []
        for b in range(bins):
            lo, hi = b * width, (b + 1) * width
            cells = [
                r for r, d in zip(jamming, dists)
                if lo <= d < hi or (b == bins - 1 and d == dmax)
            ]
            if not cells:
                continue
            out.append(
                {
                    "distance_lo": lo,
                    "distance_hi": hi,
                    "mean_jam_power": sum(c.p2 for c in cells) / len(cells),
                    "cells": float(len(cells)),
                }
            )
        return out

    def to_csv(self, fp: TextIO) -> None:
        fp.write("x,y,P1,P2,sumrate_jam,sumrate_nojam,case\n")
        for r in self.records:
            fp.write(
                f"{r.x:.12g},{r.y:.12g},{r.p1:.12g},{r.p2:.12g},"
                f"{r.sumrate_jam:.12g},{r.sumrate_nojam:.12g},{r.case}\n"
            )


def _pathloss_gain(distance: float, exponent: float, min_distance: float) -> float:
    return max(distance, min_distance) ** (-exponent)


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


def sweep(config: ScenarioConfig) -> ScenarioResult:
    """Evaluate every grid cell (cell centers, row-major: y outer, x inner)."""
    nx, ny = config.grid
    width, height = config.area
    xs = [(i + 0.5) * width / nx for i in range(nx)]
    ys = [(j + 0.5) * height / ny for j in range(ny)]
    records = tuple(_cell(config, x, y) for y in ys for x in xs)
    return ScenarioResult(config=config, records=records)
