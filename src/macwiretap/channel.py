"""Physical channel model, standard-form transformation, degradedness test.

The physical model has per-user gains to the intended receiver and to the
eavesdropper tap, plus the two noise variances.  The equivalent standard form
rescales everything so both noises have unit variance and the receiver-side
gains are one, leaving only the eavesdropper gains ``h_k`` and the power
limits ``pmax_k``.  Rate quantities are invariant under the transformation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import MISSING, dataclass, fields
from typing import Any, NamedTuple

import numpy as np

from .errors import ValidationError

DEGRADED_TOL_DEFAULT = 1e-9
# float() reads these, but no caller may give a number as one ("1.0", True)
_NOT_NUMBERS = frozenset((str, bytes, bool, np.str_, np.bytes_, np.bool_))
_MAX = sys.float_info.max


class _Rule(NamedTuple):
    """What an outside number must be: at least ``lowest``, at most the
    largest finite float, and integral if ``whole``.  ``one`` and ``many``
    are the words of the refusal."""

    one: str
    many: str
    lowest: float
    whole: bool = False

    def admits(self, v: float) -> bool:
        return self.lowest <= v <= _MAX and (not self.whole or v.is_integer())


FINITE = _Rule("a finite number", "finite numbers", -_MAX)
NONNEGATIVE = _Rule("a finite nonnegative number", "finite nonnegative numbers", 0.0)
POSITIVE = _Rule("a finite positive number", "finite positive numbers", math.ulp(0.0))
# an int or an integral float such as 24.0, returned as an int
WHOLE = _Rule("a positive integer", "positive integers", 1.0, whole=True)


def _as_number(value: Any, name: str, rule: _Rule = FINITE) -> float:
    """An outside number as a float (an int under ``WHOLE``) that meets
    ``rule``; a str, bytes or bool is refused even though float() reads it."""
    what = "a number"
    if type(value) not in _NOT_NUMBERS:
        try:
            v = float(value)
        except OverflowError:  # an int past the float range
            v = math.inf
        except (TypeError, ValueError):
            v = None
        if v is not None:
            if rule.admits(v):
                return int(v) if rule.whole else v
            what = rule.one
    raise ValidationError(f"{name} must be {what}, got {value!r}")


def _as_numbers(values: Any, name: str, length: int | None = None, rule: _Rule = FINITE) -> tuple[float, ...]:
    """Outside numbers, exactly ``length`` of them if given, as a tuple of
    floats (ints under ``WHOLE``) that each meet ``rule``; a string is not
    read as a sequence of digits, and no entry may be a str, bytes or bool."""
    what = "a sequence of numbers"
    if type(values) not in _NOT_NUMBERS:
        try:
            items = tuple(values)
            out = tuple(map(float, items))
        except OverflowError:  # an int past the float range
            out, what = None, rule.many
        except (TypeError, ValueError):
            out = None
        if out is not None and _NOT_NUMBERS.isdisjoint(map(type, items)):
            if length is not None and len(out) != length:
                what = f"{length} numbers"
            elif not all(map(rule.admits, out)):
                what = rule.many
            else:
                return tuple(map(int, out)) if rule.whole else out
    raise ValidationError(f"{name} must be {what}, got {values!r}")


def _config_fields(cls: type, data: dict[str, Any], what: str) -> dict[str, Any]:
    """``data`` as the keyword arguments of the config dataclass ``cls``:
    every field without a default must be a key, and every key a field."""
    names = {f.name: f.default is MISSING for f in fields(cls)}
    missing = {name for name, required in names.items() if required} - set(data)
    if missing:
        raise ValidationError(f"missing {what} config keys: {sorted(missing)}")
    unknown = set(data) - set(names)
    if unknown:
        raise ValidationError(f"unknown {what} config keys: {sorted(unknown, key=str)}")
    return data


def _standard_form(gain_main, gain_tap, power_limit, noise_var_main, noise_var_tap):
    """(h, pmax) of one user, elementwise on floats or arrays:
    h = gain_tap * noise_var_main / (gain_main * noise_var_tap) and
    pmax = gain_main / noise_var_main * power_limit."""
    return (gain_tap * noise_var_main / (gain_main * noise_var_tap),
            gain_main / noise_var_main * power_limit)


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
        k = _as_number(self.num_users, "num_users", WHOLE)
        object.__setattr__(self, "num_users", k)
        for name, rule in (("gains_main", POSITIVE), ("gains_tap", NONNEGATIVE),
                           ("power_limits", NONNEGATIVE)):
            object.__setattr__(self, name, _as_numbers(getattr(self, name), name, k, rule))
        for name in ("noise_var_main", "noise_var_tap"):
            object.__setattr__(self, name, _as_number(getattr(self, name), name, POSITIVE))

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RawChannelConfig":
        """Build from a JSON-style dict with keys num_users, gains_main,
        gains_tap, noise_var_main, noise_var_tap, power_limits."""
        return cls(**_config_fields(cls, data, "channel"))

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class StandardChannel:
    """Standard form: unit noises, unit receiver gains; only the eavesdropper
    gains ``h`` and the standardized power limits ``pmax`` remain."""

    num_users: int
    h: tuple[float, ...]
    pmax: tuple[float, ...]

    def __post_init__(self) -> None:
        k = _as_number(self.num_users, "num_users", WHOLE)
        object.__setattr__(self, "num_users", k)
        object.__setattr__(self, "h", _as_numbers(self.h, "h", k, NONNEGATIVE))
        object.__setattr__(self, "pmax", _as_numbers(self.pmax, "pmax", k, NONNEGATIVE))

    def to_dict(self) -> dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


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
        return {f.name: getattr(self, f.name) for f in fields(self)}


def standardize(raw: RawChannelConfig) -> StandardChannel:
    """Transform a physical channel into its equivalent standard form.

    h_k    = gains_tap_k * noise_var_main / (gains_main_k * noise_var_tap)
    pmax_k = gains_main_k / noise_var_main * power_limits_k
    """
    try:
        h, pmax = zip(*(
            _standard_form(*gains_limit, raw.noise_var_main, raw.noise_var_tap)
            for gains_limit in zip(raw.gains_main, raw.gains_tap, raw.power_limits)
        ))
    except ZeroDivisionError as exc:
        raise ValidationError(f"gains_main {raw.gains_main} times noise_var_tap "
                              f"{raw.noise_var_tap} underflows to zero, so h is undefined") from exc
    if not all(map(math.isfinite, h)):
        raise ValidationError(f"gains_tap {raw.gains_tap} times noise_var_main {raw.noise_var_main} "
                              f"over gains_main {raw.gains_main} times noise_var_tap "
                              f"{raw.noise_var_tap} overflows the float range, so h is undefined")
    if not all(map(math.isfinite, pmax)):
        raise ValidationError(f"gains_main {raw.gains_main} over noise_var_main {raw.noise_var_main} "
                              f"times power_limits {raw.power_limits} overflows the float range, "
                              "so pmax is undefined")
    return StandardChannel(num_users=raw.num_users, h=h, pmax=pmax)


def check_degraded(std: StandardChannel, tol: float = DEGRADED_TOL_DEFAULT) -> DegradednessReport:
    """Test whether the eavesdropper sees a degraded copy of the receiver's
    signal: all standardized gains equal (within ``tol``) and below one."""
    tol = _as_number(tol, "tol", POSITIVE)
    spread = max(std.h) - min(std.h)
    mean_h = sum(std.h) / std.num_users
    degraded = spread <= tol and mean_h < 1.0
    return DegradednessReport(
        is_degraded=degraded,
        common_h=mean_h if degraded else None,
        max_gain_spread=spread,
    )
