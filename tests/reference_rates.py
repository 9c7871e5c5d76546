"""Scalar rate terms on Python floats: an independent reference for the
array kernels of ``macwiretap.regions``, which tests compare with it row
for row.  The receiver-side rate and the positive part are written here;
``g`` and the eavesdropper-side rate ``cw`` are the package's public forms.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

from macwiretap.rates import g


def cm(powers: Sequence[float], subset: Iterable[int]) -> float:
    """Receiver-side rate of a user subset: g of the subset power sum."""
    return g(sum(powers[k - 1] for k in subset))


def pos_part(x: float) -> float:
    """max(x, 0)."""
    return x if x > 0.0 else 0.0
