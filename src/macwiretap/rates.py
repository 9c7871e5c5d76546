"""Elementary rate functions used by every region and bound.

All rates are in bits per channel use (log base 2 throughout; multiply by
``math.log(2)`` to convert to nats).  Users are indexed 1..K.  A user subset
is any iterable of 1-based indices; a power vector is any sequence of
nonnegative floats in standardized units.

One formula gives every rate: g(x) = log1p(x) * _BITS, libm's log1p in the
checked ``g`` and ``cw``, numpy's in the kernels' ``_g_arr`` (which takes one
value too).  A secrecy rate g(a) - g(b) with one eavesdropper term is g of
its SNR gap (a - b)/(1 + b), built from the channel, within a few ulps: the
sum and jamming rates, the collective and single-user rows, time division and
the degraded sum capacity.  An INDIVIDUAL row of several users stays a
difference, off by up to 3 ulps of g(p(S)).  Tests: ``tests/reference_rates.py``.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator, Sequence
from itertools import combinations

import numpy as np

from .channel import NONNEGATIVE, WHOLE, _as_number, _as_numbers
from .errors import ValidationError

# 2**K subsets are materialized; beyond this the constraint sets explode.
MAX_SUBSET_USERS = 20
# cells per block of a grid evaluated in blocks of whole rows (the oracle's
# grids and a boundary's power grid; the time-share grid is one 1-D call).  A
# float64 temporary of a block takes at most 64 KiB, below glibc's initial
# mmap threshold of 128 KiB, so the blocks reuse heap memory instead of
# faulting in fresh pages, and a boundary block keeps only its row and
# column maxima, so memory does not grow with the grid
_GRID_BLOCK = 8192
_BITS = 0.5 / math.log(2.0)


def g(x: float) -> float:
    """Gaussian channel rate 0.5*log2(1+x) for an SNR-like argument x >= 0."""
    return math.log1p(_as_number(x, "x", NONNEGATIVE)) * _BITS


def _g_arr(x: np.ndarray) -> np.ndarray:
    """``g`` elementwise over an array of arguments, unchecked: for the
    kernels, whose arguments are SNRs or SNR gaps (x > -1) by construction."""
    return np.log1p(x) * _BITS


def _pick(cond, a, b):
    """``np.where(cond, a, b)`` for an array, numpy scalar or bool ``cond``,
    but a 0-d ``cond`` picks ``a`` or ``b`` as given, with no 0-d array
    (``np.ndim`` alone costs more).  So a caller that divides by picks
    passes numpy scalars: they give inf or NaN under ``np.errstate`` where
    Python floats raise ZeroDivisionError."""
    if getattr(cond, "ndim", 0) == 0:
        return a if cond else b
    return np.where(cond, a, b)


def _clamp0(x):
    """max(x, 0) elementwise, unchecked: 0.0 unless x > 0, so NaN maps to 0;
    a branch in Python on one value (``_pick``), with the array form's bits."""
    return _pick(x > 0.0, x, 0.0)


def _row_blocks(rows: int, cols: int) -> Iterator[slice]:
    """The row slices of a rows x cols grid in blocks of whole rows, at most
    ``_GRID_BLOCK`` cells each, or one row where a row alone holds more."""
    step = max(1, _GRID_BLOCK // cols)
    return (slice(start, start + step) for start in range(0, rows, step))


def _linspace(start: float, stop: float, n: int) -> np.ndarray:
    """``np.linspace(start, stop, n)``, bit for bit for n >= 2, in fewer numpy calls."""
    step = (stop - start) / (n - 1)  # numpy divides first where this rounds to 0
    y = np.arange(n) * step if step != 0.0 else np.arange(n) / (n - 1) * (stop - start)
    y += start
    y[-1] = stop
    return y


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


def cw(powers: Sequence[float], gains: Sequence[float], subset: Iterable[int]) -> float:
    """Eavesdropper-side rate of a subset: g of the gain-weighted power sum."""
    p = _as_numbers(powers, "powers", rule=NONNEGATIVE)
    h = _as_numbers(gains, "gains", len(p), NONNEGATIVE)
    return _cw(p, h, _check_subset(subset, len(p)))


def _cw(p: tuple[float, ...], h: tuple[float, ...], subset: Iterable[int]) -> float:
    """``cw`` of checked powers, gains and subset, unchecked."""
    total = sum(h[k - 1] * p[k - 1] for k in subset)
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
