"""Physical channel model, standard-form transformation, degradedness test.

The physical model has per-user gains to the intended receiver and to the
eavesdropper tap, plus the two noise variances.  The equivalent standard form
rescales everything so both noises have unit variance and the receiver-side
gains are one, leaving only the eavesdropper gains ``h_k`` and the power
limits ``pmax_k``.  Rate quantities are invariant under the transformation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from .errors import ValidationError

DEGRADED_TOL_DEFAULT = 1e-9


def _as_number(value: Any, name: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a number, got {value!r}") from exc


def _as_whole(value: Any) -> int:
    """An int, or an integral float such as 24.0; not a bool."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"{value!r} is not a whole number")
    return int(value)


def _as_floats(values: Any, name: str, length: int) -> tuple[float, ...]:
    """Exactly ``length`` numbers; a string is not read as a sequence of digits."""
    if isinstance(values, str):
        raise ValidationError(f"{name} must be a sequence of numbers, got {values!r}")
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{name} must be a sequence of numbers: {exc}") from exc
    if len(out) != length:
        raise ValidationError(f"{name} must have length {length}, got {len(out)}")
    return out


def _as_float_tuple(values: Any, name: str, length: int) -> tuple[float, ...]:
    out = _as_floats(values, name, length)
    if any(not math.isfinite(v) for v in out):
        raise ValidationError(f"{name} must contain only finite values, got {out}")
    return out


@dataclass(frozen=True)
class RawChannelConfig:
    """Physical channel: gains, noise variances and raw average-power limits.

    ``gains_main`` must be strictly positive (a zero receiver gain means the
    user is disconnected and is rejected); ``gains_tap`` may be zero
    (eavesdropper hears nothing from that user).
    """

    num_users: int
    gains_main: tuple[float, ...]
    gains_tap: tuple[float, ...]
    noise_var_main: float
    noise_var_tap: float
    power_limits: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.num_users, int) or self.num_users < 1:
            raise ValidationError(f"num_users must be a positive integer, got {self.num_users!r}")
        k = self.num_users
        object.__setattr__(self, "gains_main", _as_float_tuple(self.gains_main, "gains_main", k))
        object.__setattr__(self, "gains_tap", _as_float_tuple(self.gains_tap, "gains_tap", k))
        object.__setattr__(self, "power_limits", _as_float_tuple(self.power_limits, "power_limits", k))
        if any(v <= 0.0 for v in self.gains_main):
            raise ValidationError(f"gains_main must be strictly positive, got {self.gains_main}")
        if any(v < 0.0 for v in self.gains_tap):
            raise ValidationError(f"gains_tap must be nonnegative, got {self.gains_tap}")
        if any(v < 0.0 for v in self.power_limits):
            raise ValidationError(f"power_limits must be nonnegative, got {self.power_limits}")
        for name in ("noise_var_main", "noise_var_tap"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0.0):
                raise ValidationError(f"{name} must be a finite positive number, got {v!r}")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RawChannelConfig":
        """Build from a JSON-style dict with keys num_users, gains_main,
        gains_tap, noise_var_main, noise_var_tap, power_limits."""
        required = {
            "num_users", "gains_main", "gains_tap",
            "noise_var_main", "noise_var_tap", "power_limits",
        }
        missing = required - set(data)
        if missing:
            raise ValidationError(f"missing channel config keys: {sorted(missing)}")
        try:
            num_users = _as_whole(data["num_users"])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"num_users must be an integer: {exc}") from exc
        return cls(
            num_users=num_users,
            gains_main=data["gains_main"],
            gains_tap=data["gains_tap"],
            noise_var_main=_as_number(data["noise_var_main"], "noise_var_main"),
            noise_var_tap=_as_number(data["noise_var_tap"], "noise_var_tap"),
            power_limits=data["power_limits"],
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "num_users": self.num_users,
            "gains_main": list(self.gains_main),
            "gains_tap": list(self.gains_tap),
            "noise_var_main": self.noise_var_main,
            "noise_var_tap": self.noise_var_tap,
            "power_limits": list(self.power_limits),
        }


@dataclass(frozen=True)
class StandardChannel:
    """Standard form: unit noises, unit receiver gains; only the eavesdropper
    gains ``h`` and the standardized power limits ``pmax`` remain."""

    num_users: int
    h: tuple[float, ...]
    pmax: tuple[float, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.num_users, int) or self.num_users < 1:
            raise ValidationError(f"num_users must be a positive integer, got {self.num_users!r}")
        k = self.num_users
        object.__setattr__(self, "h", _as_float_tuple(self.h, "h", k))
        object.__setattr__(self, "pmax", _as_float_tuple(self.pmax, "pmax", k))
        if any(v < 0.0 for v in self.h):
            raise ValidationError(f"standardized gains must be nonnegative, got {self.h}")
        if any(v < 0.0 for v in self.pmax):
            raise ValidationError(f"standardized power limits must be nonnegative, got {self.pmax}")

    def to_dict(self) -> dict[str, Any]:
        return {"num_users": self.num_users, "h": list(self.h), "pmax": list(self.pmax)}


@dataclass(frozen=True)
class DegradednessReport:
    """Outcome of the equal-gains-below-one test.

    ``common_h`` is the mean gain when degraded and ``None`` otherwise; the
    spread is always reported so callers can distinguish "gains equal but
    >= 1" (not degraded, spread ~ 0) from "gains unequal".
    """

    is_degraded: bool
    common_h: float | None
    max_gain_spread: float

    def to_dict(self) -> dict[str, Any]:
        return {
            "is_degraded": self.is_degraded,
            "common_h": self.common_h,
            "max_gain_spread": self.max_gain_spread,
        }


def standardize(raw: RawChannelConfig) -> StandardChannel:
    """Transform a physical channel into its equivalent standard form.

    h_k    = gains_tap_k * noise_var_main / (gains_main_k * noise_var_tap)
    pmax_k = gains_main_k / noise_var_main * power_limits_k
    """
    try:
        h = tuple(
            raw.gains_tap[k] * raw.noise_var_main / (raw.gains_main[k] * raw.noise_var_tap)
            for k in range(raw.num_users)
        )
    except ZeroDivisionError as exc:
        raise ValidationError(f"gains_main {raw.gains_main} times noise_var_tap "
                              f"{raw.noise_var_tap} underflows to zero, so h is undefined") from exc
    pmax = tuple(
        raw.gains_main[k] / raw.noise_var_main * raw.power_limits[k]
        for k in range(raw.num_users)
    )
    return StandardChannel(num_users=raw.num_users, h=h, pmax=pmax)


def check_degraded(std: StandardChannel, tol: float = DEGRADED_TOL_DEFAULT) -> DegradednessReport:
    """Test whether the eavesdropper sees a degraded copy of the receiver's
    signal: all standardized gains equal (within ``tol``) and below one."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"tol must be a positive number, got {tol!r}")
    spread = max(std.h) - min(std.h)
    mean_h = sum(std.h) / std.num_users
    degraded = spread <= tol and mean_h < 1.0
    return DegradednessReport(
        is_degraded=degraded,
        common_h=mean_h if degraded else None,
        max_gain_spread=spread,
    )
