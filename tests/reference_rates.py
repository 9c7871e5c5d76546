"""Scalar rate terms on Python floats: an independent reference for the
array kernels of ``macwiretap.regions`` and of the two-user solvers and
oracle of ``macwiretap.optimizer``, which tests compare with it.  The
receiver-side rate, the positive part and the two power-allocation
objectives are written here; ``g`` (libm's ``log2``) and the
eavesdropper-side rate ``cw`` are the package's public forms.
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


def sum_rate(powers: Sequence[float], gains: Sequence[float]) -> float:
    """Secrecy sum rate g(P1 + P2) - g(h1*P1 + h2*P2); may be negative."""
    (p1, p2), (h1, h2) = powers, gains
    return g(p1 + p2) - g(h1 * p1 + h2 * p2)


def jam_rate(powers: Sequence[float], gains: Sequence[float]) -> float:
    """Secrecy rate of user 1 while user 2 jams, its power noise to both
    receivers: g(P1/(1 + P2)) - g(h1*P1/(1 + h2*P2)); may be negative."""
    (p1, p2), (h1, h2) = powers, gains
    return g(p1 / (1.0 + p2)) - g(h1 * p1 / (1.0 + h2 * p2))
