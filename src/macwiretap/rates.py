"""Elementary rate functions used by every region and bound.

All rates are in bits per channel use (log base 2 throughout; multiply by
``math.log(2)`` to convert to nats).  Users are indexed 1..K.  A user subset
is any iterable of 1-based indices; a power vector is any sequence of
nonnegative floats in standardized units.

Each rate term is written once.  The region kernels and the solvers use the
unchecked array forms ``_g_arr`` and ``_clamp0``; ``g`` and ``cw`` are the
checked scalar forms of the public API.  The scalar references that tests
compare the kernels with live in ``tests/reference_rates.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from itertools import combinations

import numpy as np

from .channel import NONNEGATIVE, WHOLE, _as_number, _as_numbers
from .errors import ValidationError

# 2**K subsets are materialized; beyond this the constraint sets explode.
MAX_SUBSET_USERS = 20

UserSubset = frozenset[int]
PowerVector = Sequence[float]


def g(x: float) -> float:
    """Gaussian channel rate 0.5*log2(1+x) for an SNR-like argument x >= 0."""
    return 0.5 * math.log2(1.0 + _as_number(x, "x", NONNEGATIVE))


def _g_arr(x: np.ndarray) -> np.ndarray:
    """``g`` elementwise over an array of arguments, unchecked: for the
    grid kernels, whose arguments are nonnegative by construction."""
    return 0.5 * np.log2(1.0 + x)


def _clamp0(x):
    """max(x, 0) elementwise, unchecked: 0.0 unless x > 0, so NaN maps to 0."""
    return np.where(x > 0.0, x, 0.0)


def _overflow(what: str) -> ValidationError:
    return ValidationError(f"{what} too large: a rate bound overflows the float range")


def _check_subset(subset: Iterable[int], num_users: int) -> frozenset[int]:
    members = frozenset(subset)
    for k in members:
        if not (isinstance(k, int) and 1 <= k <= num_users):
            raise ValidationError(
                f"subset member {k!r} outside valid user range 1..{num_users}"
            )
    return members


def cw(powers: PowerVector, gains: Sequence[float], subset: Iterable[int]) -> float:
    """Eavesdropper-side rate of a subset: g of the gain-weighted power sum."""
    p = _as_numbers(powers, "powers", rule=NONNEGATIVE)
    h = _as_numbers(gains, "gains", len(p), NONNEGATIVE)
    members = _check_subset(subset, len(p))
    total = sum(h[k - 1] * p[k - 1] for k in members)
    if not math.isfinite(total):
        raise _overflow(f"powers {p} with gains {h}")
    return g(total)


def enumerate_subsets(num_users: int) -> list[frozenset[int]]:
    """All 2**K subsets of {1..K}, ordered by size then lexicographically.

    The fixed order makes constraint-set serializations reproducible
    byte-for-byte.
    """
    num_users = _as_number(num_users, "num_users", WHOLE)
    if num_users > MAX_SUBSET_USERS:
        raise ValidationError(
            f"subset enumeration guarded at K <= {MAX_SUBSET_USERS}, got {num_users}"
        )
    users = range(1, num_users + 1)
    return [frozenset(s) for size in range(num_users + 1) for s in combinations(users, size)]


def subset_label(subset: Iterable[int]) -> str:
    """Canonical display form of a subset, e.g. ``{1,2}``."""
    return "{" + ",".join(str(k) for k in sorted(subset)) + "}"
