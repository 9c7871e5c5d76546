"""Rate terms outside the package, which tests compare its kernels with.

Scalar terms on Python floats: an independent reference for the array
kernels of ``macwiretap.regions`` and of the two-user solvers and oracle of
``macwiretap.optimizer``.  The receiver-side rate, the positive part and the
two power-allocation objectives are written here; ``g`` (libm's ``log1p``)
and the eavesdropper-side rate ``cw`` are the package's public forms.

Exact terms in ``decimal`` (50 digits) on the exact rationals of float
inputs: the reference of the accuracy tests, which hold the package's
printed rates to a few ulps.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from decimal import Decimal, localcontext
from fractions import Fraction

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


# digits of the exact references below
DIGITS = 50


def snr_gap(main: Fraction, eaves: Fraction) -> Fraction:
    """The SNR gap x of two exact SNRs, g(main) - g(eaves) = g(x): the
    rational (main - eaves) / (1 + eaves), with no rounding."""
    return (main - eaves) / (1 + eaves)


def exact_rate(snr: Fraction) -> Decimal:
    """0.5*log2(1 + snr) of an exact rational snr > -1, to ``DIGITS``
    significant digits: the alternating series of ln(1 + x) below 1e-5,
    where 1 + x would round away digits of x, and ``Decimal.ln`` above."""
    with localcontext() as ctx:
        ctx.prec = DIGITS + 10
        x = Decimal(snr.numerator) / Decimal(snr.denominator)
        if abs(x) < Decimal("1e-5"):
            log1p, term, k = Decimal(0), x, 1
            while abs(term) > abs(x) * Decimal(10) ** -(DIGITS + 5):
                log1p += term / k
                term *= -x
                k += 1
        else:
            log1p = (1 + x).ln()
        return +(log1p / (2 * Decimal(2).ln()))


def ulps(value: float, reference: Decimal) -> float:
    """Distance of a float from an exact reference, in ulps of the float
    nearest the reference."""
    return float(abs(Decimal(value) - reference) / Decimal(math.ulp(float(reference))))
