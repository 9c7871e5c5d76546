"""The printed rates against a 50-digit reference (``reference_rates``).

Every secrecy rate with one eavesdropper term is g of its SNR gap, and
``g`` is libm's or numpy's ``log1p``, so a positive rate lies within a few
ulps of its exact value, also where the eavesdropper's gain is within
1e-10 of the receiver's and a difference of two rates would lose most of
its digits.  The draws are seeded, with half of the gains log-uniform on
[1e-3, 1e3] and half within 1e-10..1e-1 of 1, above or below it.
"""

import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from reference_rates import exact_rate, snr_gap, ulps

from macwiretap.channel import StandardChannel
from macwiretap.optimizer import (
    CASE_BOTH_TRANSMIT, CASE_ONE_TRANSMITS, _jam_kernel, _sum_kernel,
    optimal_powers_jam, optimal_powers_sum,
)
from macwiretap.regions import (
    collective_region_at, individual_region_at, outer_region_at, sum_capacity_degraded,
    tdma_region_at,
)

RNG_SEED = 20_070_119
# ulps from the reference of a rate whose SNR gap has a numerator of terms
# of one sign; the jamming gap takes about twice the roundings of the others
# (measured: up to 3.8 ulps elsewhere, 5.2 for jamming, on 40,000 draws)
MAX_ULPS = 4
MAX_JAM_ULPS = 6


def _loguniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _gain(rng):
    if rng.random() < 0.5:
        return _loguniform(rng, 1e-3, 1e3)
    return 1.0 + rng.choice((-1.0, 1.0)) * _loguniform(rng, 1e-10, 1e-1)


def _draws(n, users=2):
    """Seeded (gains, pmax) of ``users`` users; pmax log-uniform on
    [1e-3, 1e5]."""
    rng = random.Random(RNG_SEED + users)
    for _ in range(n):
        yield [_gain(rng) for _ in range(users)], [_loguniform(rng, 1e-3, 1e5) for _ in range(users)]


def _exact(values):
    return [Fraction(v) for v in values]


def _assert_close(value, reference, what, terms=(1,), bound=MAX_ULPS):
    """A positive ``value`` within ``bound`` ulps of the exact ``reference``,
    times the cancellation kappa = sum |t| / |sum t| of the ``terms`` of its
    SNR gap's numerator: kappa is 1 where they share a sign, and where they
    cancel no formula on the rounded products can do better."""
    if value > 0.0:
        kappa = sum(abs(t) for t in terms) / abs(sum(terms))
        assert ulps(value, reference) <= bound * kappa, what


def _assert_sum_rate(value, p, h, what):
    p, h = _exact(p), _exact(h)
    terms = [(1 - hk) * pk for hk, pk in zip(h, p)]
    _assert_close(value, exact_rate(snr_gap(sum(p), sum(hk * pk for hk, pk in zip(h, p)))), what, terms)


def test_solver_rates_lie_within_a_few_ulps_of_the_reference():
    for h, m in _draws(1500):
        what = (h, m)
        alloc = optimal_powers_sum(h, m)
        _assert_sum_rate(alloc.achieved_rate, alloc.p, h, what)
        alloc = optimal_powers_jam(h, m)
        if alloc.case_label in (CASE_BOTH_TRANSMIT, CASE_ONE_TRANSMITS):
            _assert_sum_rate(alloc.achieved_rate, alloc.p, h, what)
        else:  # the user with the smaller gain transmits
            order = sorted(range(2), key=lambda k: h[k])
            (p1, p2), (h1, h2) = _exact(alloc.p[k] for k in order), _exact(h[k] for k in order)
            reference = exact_rate(snr_gap(p1 / (1 + p2), h1 * p1 / (1 + h2 * p2)))
            _assert_close(alloc.achieved_rate, reference, what, (1 - h1, (h2 - h1) * p2), MAX_JAM_ULPS)
        if alloc.capacity_expr_rate is not None:
            _assert_sum_rate(alloc.capacity_expr_rate, alloc.p, h, what)


@pytest.mark.parametrize("users", [1, 2, 3])
def test_region_rows_lie_within_a_few_ulps_of_the_reference(users):
    rng = random.Random(RNG_SEED - users)
    for h, m in _draws(300, users):
        p = [v * rng.random() for v in m]
        shares = [rng.random() for _ in range(users)]
        alpha = [v / sum(shares) for v in shares]
        what = (h, m, p, alpha)
        std = StandardChannel(users, tuple(h), tuple(m))
        full = "SECRECY{" + ",".join(map(str, range(1, users + 1))) + "}"
        collective = collective_region_at(std, p)
        _assert_sum_rate(collective.row(full).rhs, p, h, what)
        for row in collective.mac_rows():
            _assert_close(row.rhs, exact_rate(sum(Fraction(p[k - 1]) for k in row.subset)), what)
        individual = individual_region_at(std, p)
        tdma = tdma_region_at(std, p, alpha)
        for k, (hk, pk, ak) in enumerate(zip(_exact(h), _exact(p), _exact(alpha)), start=1):
            _assert_close(individual.row(f"SECRECY{{{k}}}").rhs, exact_rate(snr_gap(pk, hk * pk)), what)
            # a share a of the time at power p/a: a * g((1-h) p / (a + h p))
            _assert_close(tdma.row(f"SECRECY{{{k}}}").rhs,
                          Decimal(alpha[k - 1]) * exact_rate(snr_gap(pk / ak, hk * pk / ak)), what)
        if h[0] < 1.0:  # the outer bounds of the degraded channel with every gain h[0]
            degraded = StandardChannel(users, (h[0],) * users, tuple(m))
            _assert_sum_rate(outer_region_at(degraded, p, "collective").row(full).rhs, p, degraded.h, what)
            outer = outer_region_at(degraded, p, "individual")
            for k, pk in enumerate(_exact(p), start=1):
                hk = Fraction(h[0])
                _assert_close(outer.row(f"SECRECY{{{k}}}").rhs, exact_rate(snr_gap(pk, hk * pk)), what)


def test_degraded_sum_capacity_lies_within_a_few_ulps_of_the_reference():
    for h, m in _draws(1000, 1):
        if h[0] < 1.0:
            total = Fraction(m[0])
            _assert_close(sum_capacity_degraded(h[0], m[0]),
                          exact_rate(snr_gap(total, Fraction(h[0]) * total)), (h, m))


def test_the_jamming_rate_without_jamming_is_the_sum_rate_bit_for_bit():
    # at p2 = 0 the two kernels hold the same gap, so a jamming allocation
    # that does not jam never reads below the sum-rate one
    rng = np.random.default_rng(RNG_SEED)
    h1, h2 = (np.concatenate([10.0 ** rng.uniform(-3.0, 3.0, 5000), 1.0 + rng.uniform(-0.1, 0.1, 5000),
                              [0.0, 1.0, 2.0]]) for _ in range(2))
    p1 = np.concatenate([10.0 ** rng.uniform(-3.0, 5.0, 10_000), [0.0, 1.0, 5e-324]])
    with np.errstate(all="ignore"):
        jam, plain = _jam_kernel(p1, 0.0, h1, h2), _sum_kernel(p1, 0.0, h1, h2)
    assert jam.tobytes() == plain.tobytes()
