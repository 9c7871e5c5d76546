"""Elementary rate functions used by every region and bound.

All rates are in bits per channel use (log base 2 throughout; multiply by
``math.log(2)`` to convert to nats).  Users are indexed 1..K.  A user subset
is any iterable of 1-based indices; a power vector is any sequence of
nonnegative floats in standardized units.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from .errors import ValidationError

# Every quantity here is a rate in bits/use; this is the factor to nats.
LOG2_TO_NATS = math.log(2.0)

# 2**K subsets are materialized; beyond this the constraint sets explode.
MAX_SUBSET_USERS = 20

UserSubset = frozenset[int]
PowerVector = Sequence[float]


def g(x: float) -> float:
    """Gaussian channel rate 0.5*log2(1+x) for an SNR-like argument x >= 0."""
    if not (isinstance(x, (int, float)) and math.isfinite(x)):
        raise ValidationError(f"g() requires a finite number, got {x!r}")
    if x < 0:
        raise ValidationError(f"g() requires a nonnegative argument, got {x}")
    return 0.5 * math.log2(1.0 + x)


def _g_arr(x: np.ndarray) -> np.ndarray:
    """``g`` elementwise over an array of arguments, unchecked: for the
    grid kernels, whose arguments are nonnegative by construction."""
    return 0.5 * np.log2(1.0 + x)


def _clamp0(x):
    """``pos_part`` elementwise, unchecked: 0.0 unless x > 0, so NaN maps to 0."""
    return np.where(x > 0.0, x, 0.0)


def pos_part(x: float) -> float:
    """max(x, 0)."""
    if not math.isfinite(x):
        raise ValidationError(f"pos_part() requires a finite number, got {x!r}")
    return x if x > 0.0 else 0.0


def _check_subset(subset: Iterable[int], num_users: int) -> frozenset[int]:
    members = frozenset(subset)
    for k in members:
        if not (isinstance(k, int) and 1 <= k <= num_users):
            raise ValidationError(
                f"subset member {k!r} outside valid user range 1..{num_users}"
            )
    return members


def cm(powers: PowerVector, subset: Iterable[int]) -> float:
    """Receiver-side rate of a user subset: g of the subset power sum."""
    members = _check_subset(subset, len(powers))
    return g(sum(powers[k - 1] for k in members))


def cw(powers: PowerVector, gains: Sequence[float], subset: Iterable[int]) -> float:
    """Eavesdropper-side rate of a subset: g of the gain-weighted power sum."""
    members = _check_subset(subset, len(powers))
    return g(sum(gains[k - 1] * powers[k - 1] for k in members))


def cw_tilde(powers: PowerVector, gains: Sequence[float], subset: Iterable[int]) -> float:
    """Eavesdropper-side rate of a subset treating the complement as noise.

    Equals ``cw`` when the subset is the full user set.
    """
    members = _check_subset(subset, len(powers))
    num = sum(gains[k - 1] * powers[k - 1] for k in members)
    den = 1.0 + sum(
        gains[k - 1] * powers[k - 1]
        for k in range(1, len(powers) + 1)
        if k not in members
    )
    return g(num / den)


def enumerate_subsets(num_users: int) -> list[frozenset[int]]:
    """All 2**K subsets of {1..K}, ordered by size then lexicographically.

    The fixed order makes constraint-set serializations reproducible
    byte-for-byte.
    """
    if not isinstance(num_users, int) or num_users < 1:
        raise ValidationError(f"num_users must be a positive integer, got {num_users!r}")
    if num_users > MAX_SUBSET_USERS:
        raise ValidationError(
            f"subset enumeration guarded at K <= {MAX_SUBSET_USERS}, got {num_users}"
        )
    subsets = [
        frozenset(k + 1 for k in range(num_users) if mask >> k & 1)
        for mask in range(2**num_users)
    ]
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    return subsets


def subset_label(subset: Iterable[int]) -> str:
    """Canonical display form of a subset, e.g. ``{1,2}``."""
    return "{" + ",".join(str(k) for k in sorted(subset)) + "}"
