"""Mobile-eavesdropper sweep: move an eavesdropper over a position grid,
derive channel gains from a path-loss model, and compare the optimal secrecy
sum rate with and without cooperative jamming at every position.

Gains follow gain = max(distance, min_distance) ** (-pathloss_exponent);
receiver-side gains use each user's distance to the base station, tap-side
gains the distance to the eavesdropper position: two scalar constants, and
numpy ``hypot``/``power`` on the sweep's grid and on ``gains_at``'s 0-d
values alike.  Every link no longer than min_distance, on either side, gets
the same libm ``min_distance ** -pathloss_exponent``.  Powers in the
per-cell results are the jamming-solution allocation in standardized units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Sequence, TextIO

import numpy as np

from .channel import (
    NONNEGATIVE,
    POSITIVE,
    WHOLE,
    RawChannelConfig,
    _as_number,
    _as_numbers,
    _config_fields,
    _standard_form,
    standardize,
)
from .errors import ValidationError
from .optimizer import (
    CASE_JAM_AT_MAX,
    CASE_JAM_AT_ROOT,
    CASE_LABELS,
    OBJECTIVE_JAM,
    OBJECTIVE_SUM,
    _CODE,
    _allocations,
    _solve,
)
from .rates import _clamp0

ZERO_RATE_THRESHOLD = 1e-9

Point = tuple[float, float]


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
        grid = _as_numbers(self.grid, "grid", 2, WHOLE)
        width, height = _as_numbers(self.area, "area", 2, POSITIVE)
        # the last cell centre is (n - 0.5) * side / n
        if not all(math.isfinite((n - 0.5) * side) for n, side in zip(grid, (width, height))):
            raise ValidationError(
                f"area {(width, height)} with grid {grid} too large: "
                "the cell centres overflow the float range"
            )
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "area", (width, height))
        object.__setattr__(self, "base_station", _as_numbers(self.base_station, "base_station", 2))
        if isinstance(self.users, str) or not isinstance(self.users, Sequence):
            raise ValidationError(f"users must be a list of (x, y) pairs, got {self.users!r}")
        if len(self.users) != 2:
            raise ValidationError(f"exactly two users are supported, got {len(self.users)}")
        object.__setattr__(
            self, "users", tuple(_as_numbers(u, f"users[{i}]", 2) for i, u in enumerate(self.users))
        )
        for name, pos in [("base_station", self.base_station)] + [
            (f"users[{i}]", u) for i, u in enumerate(self.users)
        ]:
            if not (0.0 <= pos[0] <= width and 0.0 <= pos[1] <= height):
                raise ValidationError(f"{name} position {pos} lies outside the area {self.area}")
        limits = _as_numbers(self.power_limits, "power_limits", 2, NONNEGATIVE)
        object.__setattr__(self, "power_limits", limits)
        for name in ("noise_var_main", "noise_var_tap", "pathloss_exponent", "min_distance"):
            object.__setattr__(self, name, _as_number(getattr(self, name), name, POSITIVE))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScenarioConfig":
        return cls(**_config_fields(cls, data, "scenario"))

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


_JAMMING = (_CODE[CASE_JAM_AT_ROOT], _CODE[CASE_JAM_AT_MAX])

_CSV_HEADER = "x,y,P1,P2,sumrate_jam,sumrate_nojam,case\n"
# the last field of each CSV row, indexed by case code
_CASE_LINE_ENDS = np.array([label + "\n" for label in CASE_LABELS], dtype=object)


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

    def zero_rate_counts(self) -> tuple[int, int]:
        """(cells with zero rate despite jamming, cells with zero rate
        without jamming): sum rates at most ``ZERO_RATE_THRESHOLD``."""
        jam = int(np.count_nonzero(self.sumrate_jam <= ZERO_RATE_THRESHOLD))
        nojam = int(np.count_nonzero(self.sumrate_nojam <= ZERO_RATE_THRESHOLD))
        return jam, nojam

    def jam_power_by_bs_distance(self, bins: int = 10) -> list[dict[str, float]]:
        """Mean jamming power over actively jamming cells, binned by
        eavesdropper distance to the base station; a soft diagnostic of the
        jam-harder-near-the-receiver trend, reported rather than asserted."""
        bins = _as_number(bins, "bins", WHOLE)
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
        """One ``%.12g`` row per cell.  Each distinct value of x, y, P1 and
        P2 is formatted once, and sumrate_jam reuses the sumrate_nojam text
        wherever the two are bitwise equal."""
        nojam = _formatted(self.sumrate_nojam)
        jam = nojam.copy()
        jam_bits, nojam_bits = self.sumrate_jam.view(np.int64), self.sumrate_nojam.view(np.int64)
        differ = np.flatnonzero(jam_bits != nojam_bits)
        jam[differ] = _formatted(self.sumrate_jam[differ])
        columns = (
            *map(_formatted_distinct, (self.x, self.y, self.p1, self.p2)),
            jam.tolist(), nojam.tolist(), _CASE_LINE_ENDS[self.case].tolist(),
        )
        fp.write(_CSV_HEADER)
        # row by row: one joined string would raise the peak RSS by its size
        fp.writelines(map(",".join, zip(*columns)))


def _formatted(column: np.ndarray) -> np.ndarray:
    """``"%.12g" % v`` for every entry, as an object array."""
    return np.array(list(map("%.12g".__mod__, column.tolist())), dtype=object)


def _formatted_distinct(column: np.ndarray) -> list[str]:
    """``_formatted``, formatting each distinct bit pattern once (so -0.0
    and 0.0 keep their own text)."""
    bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
    return _formatted(bits.view(np.float64))[inverse].tolist()


def _tap_gains(config: ScenarioConfig, user: Point, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Path-loss gains of one user at the points ``x``, ``y``; inf where one
    overflows.  The sweep passes the whole grid and ``gains_at`` 0-d arrays:
    the same ufunc loops, so the same bits.  A link no longer than
    min_distance gets ``_scalar_gain``'s clamped value, the receiver gain's
    bits, where numpy's ``power`` could round it an ulp apart."""
    ux, uy = user
    with np.errstate(over="ignore"):
        distance = np.hypot(ux - x, uy - y)
        return np.where(
            distance <= config.min_distance, _scalar_gain(config, 0.0),
            np.power(np.maximum(distance, config.min_distance), -config.pathloss_exponent),
        )


def _scalar_gain(config: ScenarioConfig, distance: float) -> float:
    """Path-loss gain of a link of the given length with libm's ``pow``; inf
    where it overflows."""
    try:
        return max(distance, config.min_distance) ** -config.pathloss_exponent
    except OverflowError:
        return math.inf


def _receiver_gain(config: ScenarioConfig, user: Point) -> float:
    """Path-loss gain of one user at the base station, a scalar constant of
    the config."""
    (ux, uy), (bx, by) = user, config.base_station
    return _scalar_gain(config, math.hypot(ux - bx, uy - by))


def gains_at(config: ScenarioConfig, eaves_pos: Sequence[float]) -> RawChannelConfig:
    """Physical channel when the eavesdropper sits at the given position."""
    ex, ey = _as_numbers(eaves_pos, "eaves_pos", 2)
    width, height = config.area
    if not (0.0 <= ex <= width and 0.0 <= ey <= height):
        raise ValidationError(f"eavesdropper position ({ex}, {ey}) lies outside the area {config.area}")
    gains_main = tuple(_receiver_gain(config, user) for user in config.users)
    gains_tap = tuple(_tap_gains(config, u, np.array(ex), np.array(ey)).item() for u in config.users)
    gains = gains_main + gains_tap
    faults = [(k, "overflows") for k, gain in enumerate(gains) if not math.isfinite(gain)]
    # a tap gain may vanish, a receiver gain may not
    faults += [(k, "underflows to zero") for k, gain in enumerate(gains_main) if gain == 0.0]
    if faults:
        k, fault = faults[0]
        ends = (config.base_station,) * 2 + ((ex, ey),) * 2  # the far end of each gain's link
        (ux, uy), (px, py) = config.users[k % 2], ends[k]
        raise ValidationError(
            f"path-loss gain max(distance, min_distance) ** -pathloss_exponent {fault}: "
            f"distance {math.hypot(ux - px, uy - py)!r}, min_distance {config.min_distance!r}, "
            f"pathloss_exponent {config.pathloss_exponent!r}"
        )
    return RawChannelConfig(
        num_users=2,
        gains_main=gains_main,
        gains_tap=gains_tap,
        noise_var_main=config.noise_var_main,
        noise_var_tap=config.noise_var_tap,
        power_limits=config.power_limits,
    )


def _cell(config: ScenarioConfig, x: float, y: float) -> None:
    """Solve the cell at (x, y) through ``gains_at``; raise its error, if
    any, prefixed with the cell."""
    try:
        std = standardize(gains_at(config, (x, y)))
        _allocations(std.h, std.pmax, (OBJECTIVE_SUM, OBJECTIVE_JAM))
    except ValidationError as exc:
        raise ValidationError(f"cell ({x:g}, {y:g}): {exc}") from exc


def sweep(config: ScenarioConfig) -> ScenarioResult:
    """Evaluate every grid cell (cell centers, row-major: y outer, x inner).

    The tap gains and the solve run in one array pass each, ``_tap_gains``
    and ``optimizer._solve``, the code that the per-cell ``_cell`` runs on
    0-d values through ``gains_at``.  At the first cell the pass cannot vouch
    for (an overflowing gain, a value the solvers reject, or any non-finite
    result), ``_cell`` raises that cell's error.
    """
    nx, ny = config.grid
    width, height = config.area
    x = np.tile((np.arange(nx) + 0.5) * width / nx, ny)
    y = np.repeat((np.arange(ny) + 0.5) * height / ny, nx)
    gains_main = [_receiver_gain(config, user) for user in config.users]
    gains_tap = [_tap_gains(config, user, x, y) for user in config.users]
    with np.errstate(all="ignore"):
        (h_a, m_a), (h_b, m_b) = (
            _standard_form(*gains_limit, config.noise_var_main, config.noise_var_tap)
            for gains_limit in zip(gains_main, gains_tap, config.power_limits)
        )
        (_, _, nojam, _), (p1, p2, jam, case) = _solve(h_a, h_b, m_a, m_b)
        # vouch only for cells on which ``_cell`` cannot raise or warn:
        # h and pmax finite (a zero or overflowing gain makes one of them
        # non-finite) and outputs finite.  The config keeps every cell centre
        # inside the area
        ok = np.isfinite(p1)
        for column in (p2, jam, nojam, h_a, h_b, m_a, m_b):
            ok &= np.isfinite(column)
        jam, nojam = _clamp0(jam), _clamp0(nojam)
    if not ok.all():
        # ``_cell`` runs the same solve on the same values, so it raises
        i = int(np.argmin(ok))
        cx, cy = float(x[i]), float(y[i])
        _cell(config, cx, cy)
        raise RuntimeError(f"cell ({cx:g}, {cy:g}): the array solve rejected a cell that _cell accepts")
    return ScenarioResult(config, x, y, p1, p2, jam, nojam, case.astype(np.int8))

