import functools
import math
import random
import tracemalloc
from collections import Counter
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
import reference_solver
from conftest import jam_derivative_numerator, jam_mode_value, random_instances
from hypothesis import given
from hypothesis import strategies as st
from reference_rates import exact_rate, jam_rate, sum_rate

from macwiretap import optimizer, rates
from macwiretap.errors import ValidationError
from macwiretap.optimizer import (
    PowerAllocation,
    _jam_root,
    _solve,
    grid_oracle,
    optimal_powers_jam,
    optimal_powers_sum,
    tdma_optimal_alpha,
)
from macwiretap.regions import RateVector

RNG_SEED = 20240917


def g_rate(x):
    return 0.5 * math.log2(1.0 + x)


def test_sum_objective_examples():
    assert sum_rate((0.0, 0.0), (0.5, 0.5)) == 0.0
    expected = math.log2(5.0 / 3.0) / 2.0
    assert sum_rate((2.0, 2.0), (0.5, 0.5)) == pytest.approx(expected, abs=1e-12)
    assert sum_rate((1.0, 1.0), (2.0, 2.0)) == pytest.approx(-expected, abs=1e-12)


def test_jam_objective_examples():
    # jammer silent: collapses to the single-user difference
    h = (0.5, 2.0)
    single = sum_rate((4.0, 0.0), h)
    assert jam_rate((4.0, 0.0), h) == pytest.approx(single, abs=1e-15)
    assert jam_rate((10.0, 1.0), h) == pytest.approx(math.log2(2.25) / 2.0, abs=1e-12)
    assert jam_rate((0.0, 5.0), h) == 0.0


def test_optimal_powers_sum_cases():
    both = optimal_powers_sum((0.25, 0.3), (10.0, 10.0))
    assert both.p == (10.0, 10.0) and both.case_label == "BOTH_TRANSMIT"

    one = optimal_powers_sum((0.25, 0.5), (10.0, 10.0))
    assert one.p == (10.0, 0.0) and one.case_label == "ONE_TRANSMITS"

    none = optimal_powers_sum((1.2, 1.5), (10.0, 10.0))
    assert none.p == (0.0, 0.0) and none.case_label == "NONE"
    assert none.achieved_rate == 0.0


def test_optimal_powers_sum_threshold_value():
    # threshold (1 + h1*m1)/(1 + m1) = 3.5/11 for h1=0.25, m1=10
    assert 0.3 < 3.5 / 11.0 < 0.31819
    just_below = optimal_powers_sum((0.25, 3.5 / 11.0 - 1e-9), (10.0, 10.0))
    just_at = optimal_powers_sum((0.25, 3.5 / 11.0), (10.0, 10.0))
    assert just_below.case_label == "BOTH_TRANSMIT"
    assert just_at.case_label == "ONE_TRANSMITS"


def test_optimal_powers_sum_relabeling():
    fwd = optimal_powers_sum((0.25, 0.5), (10.0, 7.0))
    rev = optimal_powers_sum((0.5, 0.25), (7.0, 10.0))
    assert rev.p == (fwd.p[1], fwd.p[0])
    assert rev.achieved_rate == pytest.approx(fwd.achieved_rate, abs=1e-15)
    assert rev.case_label == fwd.case_label


def test_optimal_powers_sum_rate_recomputable():
    alloc = optimal_powers_sum((0.25, 0.3), (10.0, 10.0))
    assert alloc.achieved_rate == pytest.approx(
        max(0.0, sum_rate(alloc.p, (0.25, 0.3))), abs=1e-12
    )


def _jam_roots(h, pmax1):
    """(discriminant, larger root, smaller root) of the jamming-power
    stationarity parabola: the larger from the solver's own ``_jam_root``,
    the discriminant and the smaller from the reference."""
    disc, root_bar = reference_solver._jam_root(*h, pmax1, sign=-1.0)
    return disc, _jam_root(*h, pmax1), root_bar


def test_jam_roots_pinned():
    disc, root, root_bar = _jam_roots((0.5, 2.0), 10.0)
    assert disc == pytest.approx(16.0, abs=1e-12)
    assert root == pytest.approx(1.0, abs=1e-12)
    assert root_bar == pytest.approx(-5.0 / 3.0, abs=1e-12)


def test_jam_roots_no_real_roots():
    # h2 < 1 with large transmit power drives the discriminant negative:
    # D = h1*h2*(h2-1)*[(h2-1)+(h2-h1)*P1] = 0.1*(-0.5)*(2.5) < 0 at P1=10
    with np.errstate(all="ignore"):
        disc, root = reference_solver._jam_root(0.2, 0.5, 10.0)[0], _jam_root(0.2, 0.5, 10.0)
    assert disc < 0.0 and math.isnan(root)
    # with no real root the solver does not jam
    alloc = optimal_powers_jam((0.2, 0.5), (10.0, 10.0))
    assert alloc.p == (10.0, 0.0) and alloc.case_label == "NO_JAM"


def test_jam_roots_negative_roots():
    # h2 < 1 with small transmit power keeps D >= 0 but both roots negative
    disc, root, root_bar = _jam_roots((0.2, 0.5), 0.1)
    assert disc > 0.0
    assert root < 0.0 and root_bar < root


@pytest.mark.parametrize("h,pmax1", [((0.5, 2.0), 10.0), ((1.3, 2.2), 4.0), ((0.8, 1.6), 0.5)])
def test_jam_roots_satisfy_stationarity(h, pmax1):
    disc, *roots = _jam_roots(h, pmax1)
    assert disc >= 0.0
    for root in roots:
        if root > -1.0 / h[1] + 1e-9:  # derivative form defined there
            residual = jam_derivative_numerator(pmax1, root, h[0], h[1])
            assert abs(residual) < 1e-9


def test_optimal_powers_jam_pinned():
    alloc = optimal_powers_jam((0.5, 2.0), (10.0, 10.0))
    assert alloc.p == pytest.approx((10.0, 1.0), abs=1e-12)
    assert alloc.case_label == "JAM_AT_ROOT"
    assert alloc.achieved_rate == pytest.approx(math.log2(2.25) / 2.0, abs=1e-9)
    # alternative capacity expression is surfaced, not silently merged
    assert alloc.capacity_expr_rate == pytest.approx(math.log2(1.5) / 2.0, abs=1e-12)
    assert abs(alloc.capacity_expr_rate - alloc.achieved_rate) > 0.2


def test_optimal_powers_jam_no_jam_case():
    alloc = optimal_powers_jam((0.5, 0.8), (10.0, 10.0))
    assert alloc.p == (10.0, 0.0)
    assert alloc.case_label == "NO_JAM"
    assert alloc.achieved_rate == pytest.approx(
        jam_rate((10.0, 0.0), (0.5, 0.8)), abs=1e-15
    )


def test_optimal_powers_jam_silent_case():
    # (h1-1)/(h2-h1) = 1 >= pmax2 = 0.5
    alloc = optimal_powers_jam((2.0, 3.0), (10.0, 0.5))
    assert alloc.p == (0.0, 0.0)
    assert alloc.case_label == "NONE"
    assert alloc.achieved_rate == 0.0


def test_optimal_powers_jam_bad_user_enables_good_one():
    # h1 > 1 alone cannot achieve secrecy, but a strong jammer can
    alloc = optimal_powers_jam((2.0, 3.0), (10.0, 10.0))
    assert alloc.p[0] == 10.0 and alloc.p[1] > 1.0
    assert alloc.achieved_rate > 0.0
    baseline = optimal_powers_sum((2.0, 3.0), (10.0, 10.0))
    assert baseline.achieved_rate == 0.0


def test_optimal_powers_jam_equal_gains():
    silent = optimal_powers_jam((1.5, 1.5), (10.0, 10.0))
    assert silent.p == (0.0, 0.0) and silent.case_label == "NO_JAM"
    transmit = optimal_powers_jam((0.5, 0.5), (10.0, 10.0))
    assert transmit.case_label == "BOTH_TRANSMIT"
    assert transmit.p == (10.0, 10.0)


def test_optimal_powers_jam_defers_below_threshold():
    # h2 below the sum-rate threshold: both users should transmit
    alloc = optimal_powers_jam((0.25, 0.3), (10.0, 10.0))
    assert alloc.case_label == "BOTH_TRANSMIT"
    assert alloc.p == (10.0, 10.0)
    assert alloc.achieved_rate == optimal_powers_sum((0.25, 0.3), (10.0, 10.0)).achieved_rate


def test_optimal_powers_jam_relabeling():
    fwd = optimal_powers_jam((0.5, 2.0), (10.0, 10.0))
    rev = optimal_powers_jam((2.0, 0.5), (10.0, 10.0))
    assert rev.p == (fwd.p[1], fwd.p[0])
    assert rev.achieved_rate == fwd.achieved_rate
    assert rev.case_label == fwd.case_label


def test_optimal_powers_jam_edge_gains():
    # deaf eavesdropper on user 1: jamming cannot help a channel that is
    # already perfectly secret, so the root is negative and clamped away
    alloc = optimal_powers_jam((0.0, 2.0), (5.0, 5.0))
    assert alloc.p == (5.0, 0.0) and alloc.case_label == "NO_JAM"
    assert alloc.achieved_rate == pytest.approx(g_rate(5.0), abs=1e-12)

    # h1 exactly 1: overlapping case conditions must agree
    boundary = optimal_powers_jam((1.0, 2.0), (5.0, 5.0))
    assert boundary.p[0] == 5.0 and boundary.p[1] > 0.0

    # jammer with no power budget cannot rescue a leaky transmitter
    broke = optimal_powers_jam((2.0, 3.0), (10.0, 0.0))
    assert broke.p == (0.0, 0.0) and broke.case_label == "NONE"


FLOAT_MAX = 1.7976931348623157e308


def test_jam_roots_outside_the_float_range_leave_a_finite_allocation():
    cases = [
        # h2 * (h2 - h1) underflows to zero: the roots divide by it
        ((9.201269777422218e-91, 5.02599592e-315), 0.0),
        # a subnormal h2 * (h2 - h1) sends a root out of the float range
        ((0.008115576931043955, 2.90799594927e-313), FLOAT_MAX),
    ]
    for gains, pmax1 in cases:
        with np.errstate(all="ignore"):
            disc, root = reference_solver._jam_root(*gains, pmax1)[0], _jam_root(*gains, pmax1)
        assert math.isfinite(disc) and not math.isfinite(root)
        for pmax in ((pmax1, 1.0), (pmax1, FLOAT_MAX)):
            alloc = optimal_powers_jam(gains, pmax)
            assert all(0.0 <= p <= m for p, m in zip(alloc.p, pmax))
            assert math.isfinite(alloc.achieved_rate)
            if alloc.case_label == "BOTH_TRANSMIT":
                expected = sum_rate(alloc.p, gains)
            else:
                # the user with the larger gain jams
                order = sorted(range(2), key=lambda k: gains[k])
                expected = jam_rate([alloc.p[k] for k in order], [gains[k] for k in order])
            assert alloc.achieved_rate == pytest.approx(max(0.0, expected), rel=1e-12)


def _overflowing_root_draws(rng: random.Random, n: int):
    """Seeded (h1, h2, m1) at which the jamming root is read (h2 > 1, h2 > h1)
    and its discriminant overflows: h2 log-uniform on [1, 1e300]; h1 zero,
    log-uniform on [1e-300, 1], uniform below 1 or below h2, 1, or within
    1e-15..1e-1 of h2 relatively; m1 zero, log-uniform on [1e-3, 1e5] or on
    [1e-300, 1e308]."""
    def loguniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    draws = []
    while len(draws) < n:
        h2 = loguniform(0.0, 300.0)
        h1 = rng.choice([0.0, loguniform(-300.0, 0.0), rng.uniform(0.0, 1.0), rng.uniform(0.0, h2), 1.0,
                         h2 * (1.0 - loguniform(-15.0, -1.0))])
        m1 = rng.choice([0.0, loguniform(-3.0, 5.0), loguniform(-300.0, 308.0)])
        with np.errstate(all="ignore"):
            disc = reference_solver._jam_root(h1, h2, m1)[0]
        if h2 > 1.0 and h2 > h1 and not math.isfinite(disc):
            draws.append((h1, h2, m1))
    return draws


def test_jam_root_where_the_discriminant_overflows_matches_the_exact_root():
    # the exact root sqrt(h1 (h2-1) ((h2-1) + d m1) / h2) / d - (1-h1)/d,
    # d = h2 - h1, in 80-digit decimals on the floats' exact values.  Its two
    # terms may cancel, so the error is measured against their magnitudes:
    # at most 2 ulps of it, and the same bits on arrays as on numpy scalars
    draws = _overflowing_root_draws(random.Random(RNG_SEED), 2000)
    with np.errstate(all="ignore"):
        whole = _jam_root(*(np.array(column) for column in zip(*draws)))
    with localcontext() as ctx:
        ctx.prec = 80
        for i, (h1, h2, m1) in enumerate(draws):
            with np.errstate(all="ignore"):
                got = _jam_root(*map(np.float64, (h1, h2, m1)))
            assert np.float64(got).tobytes() == whole[i].tobytes(), (h1, h2, m1)
            H1, H2, M1 = map(Decimal, (h1, h2, m1))
            d = H2 - H1
            s, t = (H1 * (H2 - 1) * ((H2 - 1) + d * M1) / H2).sqrt() / d, (1 - H1) / d
            assert math.isfinite(got), (h1, h2, m1)
            assert abs(Decimal(float(got)) - (s - t)) <= Decimal(2.0**-51) * (s + abs(t)), (h1, h2, m1)


def test_solvers_reject_an_overflowing_secrecy_rate():
    # at the both-transmit allocation, the SNR gap P1 + P2 overflows; at
    # gains 0.99 its denominator 1 + 0.99 (P1 + P2) does, where the gap
    # would read 0
    for gains, pmax in (((0.0, 0.0), (FLOAT_MAX, FLOAT_MAX)), ((0.99, 0.99), (1e308, 1e308))):
        for solver in (optimal_powers_sum, optimal_powers_jam):
            with pytest.raises(ValidationError, match="the secrecy rate overflows"):
                solver(gains, pmax)
    # h1 * P1 overflows, but the jamming rate's SNR gap does not: its true
    # value, 0.1557057645206..., is answered.  Its capacity expression's sum
    # h1 P1 + h2 P2 overflows too, so that is the difference of the
    # logarithms of both sums over twice the larger power, not zero: within
    # 2 ulps of its two rates' magnitudes of the 50-digit value on the
    # floats' exact values, -0.0927605102755652... bits
    gains = (1.4112098634870498, 1.1372276019244711)
    alloc = optimal_powers_jam(gains, (1.6577117771685576e78, FLOAT_MAX))
    assert f"{alloc.achieved_rate:.12g}" == "0.155705764521"
    main, eaves = (exact_rate(sum(Fraction(h) * Fraction(p) for h, p in zip(terms, alloc.p)))
                   for terms in ((1.0, 1.0), gains))
    assert f"{main - eaves:.15g}" == "-0.0927605102755652"
    error = abs(Decimal(alloc.capacity_expr_rate) - (main - eaves))
    assert error <= 2 * Decimal(math.ulp(float(main + eaves)))


def _capacity_gap_draws(rng: random.Random, n: int):
    """Seeded jamming channels at whose allocation the sum-rate kernel's SNR
    gap rounds to -1 or below, so its logarithm is not finite: the jammer's
    gain is huge next to the transmitter's.  Gains log-uniform up to 1e300
    or a factor up to 1e20 apart, pmax log-uniform on [1e-3, 1e5] or up to
    1e308, in either user order."""
    def loguniform(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    draws = [((1e154, 1e150), (1e150, 5.0984213802232885))]
    while len(draws) < n:
        h1 = rng.choice([loguniform(-3.0, 0.0), rng.uniform(0.0, 1.0), loguniform(0.0, 300.0)])
        h = (h1, rng.choice([loguniform(0.0, 300.0), h1 * loguniform(0.0, 20.0)]))
        m = tuple(rng.choice([loguniform(-3.0, 5.0), loguniform(-300.0, 308.0)]) for _ in range(2))
        if rng.random() < 0.5:
            h = h[::-1]
        try:
            alloc = optimal_powers_jam(h, m)
        except ValidationError:  # an overflowing gain or secrecy rate
            continue
        with np.errstate(all="ignore"):
            if alloc.case_label.startswith("JAM") and not math.isfinite(optimizer._sum_kernel(*alloc.p, *h)):
                draws.append((h, m))
    return draws


def test_capacity_expression_where_its_gap_rounds_to_minus_1_matches_the_exact_value():
    # there it is g(p1 + p2) - g(h1 p1 + h2 p2), a difference of two rates,
    # and where h1 p1 + h2 p2 overflows the difference of the logarithms of
    # both sums over twice the larger power: within 2 ulps of the two rates'
    # magnitudes of its value in 80-digit decimals on the floats' exact
    # values (-251.829137692737... bits on the first draw), on every draw
    draws = _capacity_gap_draws(random.Random(RNG_SEED), 400)
    overflowing = 0
    with localcontext() as ctx:
        ctx.prec = 80
        bits = 2 * Decimal(2).ln()
        for h, m in draws:
            alloc = optimal_powers_jam(h, m)
            (p1, p2), (h1, h2) = alloc.p, h
            overflowing += not math.isfinite(h1 * p1 + h2 * p2)
            P1, P2, H1, H2 = map(Decimal, (p1, p2, h1, h2))
            main, eaves = (1 + P1 + P2).ln() / bits, (1 + H1 * P1 + H2 * P2).ln() / bits
            error = abs(Decimal(alloc.capacity_expr_rate) - (main - eaves))
            assert error <= 2 * Decimal(math.ulp(float(main + eaves))), (h, m)
    assert f"{optimal_powers_jam(*draws[0]).capacity_expr_rate:.15g}" == "-251.829137692737"
    assert 0 < overflowing < len(draws) // 10


def _solver_draws(rng: random.Random, n: int):
    """Seeded (gains, pmax) pairs: gains log-uniform on [1e-3, 1e3] and pmax
    on [1e-3, 1e5], with a tenth each of equal gains, a gain of exactly
    one, h2 exactly at the sum-rate threshold, and float extremes; half of
    them in swapped user order."""
    def loguniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    extremes = (0.0, -0.0, 5e-324, 1e-310, 1e-160, 1e150, 1e154, 1e200, FLOAT_MAX)
    for k in range(n):
        h = [loguniform(1e-3, 1e3), loguniform(1e-3, 1e3)]
        m = [loguniform(1e-3, 1e5), loguniform(1e-3, 1e5)]
        kind = k % 10
        if kind == 0:
            h[1] = h[0]
        elif kind == 1:
            h[rng.randrange(2)] = 1.0
        elif kind == 2:
            h[0] = loguniform(1e-3, 1.0)
            h[1] = reference_solver._threshold(h[0], m[0])
        elif kind == 3:
            h = [rng.choice(extremes + (h[0],)), rng.choice(extremes + (h[1],))]
            m = [rng.choice(extremes + (m[0],)), rng.choice(extremes + (m[1],))]
        if rng.random() < 0.5:
            h.reverse()
            m.reverse()
        yield tuple(h), tuple(m)


def _outcome(solver, gains, pmax) -> str:
    # repr keeps -0.0 apart from 0.0
    try:
        return repr(solver(gains, pmax))
    except Exception as exc:  # the type and the message are compared
        return f"{type(exc).__name__}: {exc}"


def test_solvers_match_the_scalar_reference_on_a_seeded_corpus():
    outcomes = Counter()
    for gains, pmax in _solver_draws(random.Random(RNG_SEED), 20_000):
        for solver, reference in (
            (optimal_powers_sum, reference_solver.optimal_powers_sum),
            (optimal_powers_jam, reference_solver.optimal_powers_jam),
        ):
            got = _outcome(solver, gains, pmax)
            assert got == _outcome(reference, gains, pmax), (solver.__name__, gains, pmax)
            outcomes[got.split("case_label='")[1].split("'")[0] if "case_label" in got
                     else got.split(" too large: ")[-1]] += 1
        # a jamming answer that read the root where its discriminant overflows
        (h1, m1), (h2, _) = sorted(zip(gains, pmax), key=lambda hm: hm[0])
        with np.errstate(all="ignore"):
            scaled = h1 != h2 and h2 > 1.0 and not math.isfinite(reference_solver._jam_root(h1, h2, m1)[0])
        outcomes["scaled root"] += scaled and "case_label" in got
    # every case, the scaled root and the overflow message are drawn
    assert set(k for k, n in outcomes.items() if n) >= {
        "BOTH_TRANSMIT", "ONE_TRANSMITS", "NONE", "JAM_AT_ROOT", "JAM_AT_MAX", "NO_JAM",
        "the secrecy rate overflows the float range", "scaled root",
    }, outcomes


def _solve_bits(solved, i=None):
    """The outputs of ``_solve`` (element ``i`` of an array call): float
    bits and case codes."""
    (s1, s2, srate, scode), (j1, j2, jrate, jcode) = solved
    at = (lambda v: v) if i is None else (lambda v: v[i])
    return ([np.float64(at(v)).tobytes() for v in (s1, s2, srate, j1, j2, jrate)],
            [int(at(v)) for v in (scode, jcode)])


def test_the_0d_solve_gives_the_bits_of_the_array_solve():
    # on numpy scalars ``_solve`` picks with Python branches, on arrays with
    # np.where, and each reads the scaled jamming root only where the
    # discriminant overflows: the same bits and codes, draw for draw
    ulp_below, ulp_above = math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)
    edge_gains = [(0.5, 0.5), (2.0, 2.0), (1.0, 1.0), (0.0, 0.0), (0.0, 2.0),
                  (ulp_below, 1.0), (1.0, ulp_above), (ulp_below, ulp_above), (ulp_above, 3.0)]
    edge_pmax = [(1.0, 1.0), (0.0, 0.0), (0.0, 1.0), (FLOAT_MAX, FLOAT_MAX), (1.0, FLOAT_MAX)]
    rows = list(_solver_draws(random.Random(RNG_SEED), 20_000))
    rows += [(h[::s], m[::s]) for h in edge_gains for m in edge_pmax for s in (1, -1)]
    h_a, h_b, m_a, m_b = (np.array(column) for column in zip(*(h + m for h, m in rows)))
    with np.errstate(all="ignore"):
        whole = _solve(h_a, h_b, m_a, m_b)
        for i in range(len(rows)):
            one = _solve(h_a[i], h_b[i], m_a[i], m_b[i])
            assert _solve_bits(one) == _solve_bits(whole, i), rows[i]


@pytest.mark.parametrize("gains, nojam, jam", [
    ((0.5, 0.5), PowerAllocation((1.0, 1.0), "BOTH_TRANSMIT", 0.2924812503605781),
     PowerAllocation((1.0, 1.0), "BOTH_TRANSMIT", 0.2924812503605781)),
    ((2.0, 2.0), PowerAllocation((0.0, 0.0), "NONE", 0.0),
     PowerAllocation((0.0, 0.0), "NO_JAM", 0.0, 0.0)),
    ((0.0, 0.0), PowerAllocation((1.0, 1.0), "BOTH_TRANSMIT", 0.7924812503605781),
     PowerAllocation((1.0, 1.0), "BOTH_TRANSMIT", 0.7924812503605781)),
])
def test_equal_gains_solve_on_numpy_scalars(gains, nojam, jam):
    # the 0-d solve divides by h2 - h1, which equal gains make zero: on
    # numpy scalars that is inf or NaN under errstate, on Python floats a
    # ZeroDivisionError
    assert repr(optimal_powers_sum(gains, (1.0, 1.0))) == repr(nojam)
    assert repr(optimal_powers_jam(gains, (1.0, 1.0))) == repr(jam)


def test_tdma_optimal_alpha():
    assert tdma_optimal_alpha((1.0, 3.0)) == pytest.approx((0.25, 0.75), abs=1e-15)
    assert tdma_optimal_alpha((2.0, 2.0)) == (0.5, 0.5)
    assert tdma_optimal_alpha((5.0, 0.0)) == (1.0, 0.0)
    with pytest.raises(ValidationError):
        tdma_optimal_alpha((0.0, 0.0))


def test_a_string_is_not_a_sequence_of_numbers():
    # each call once read "12" as the digits (1, 2)
    calls = [
        (lambda: RateVector(secret="12", open="00"), "secret"),
        (lambda: tdma_optimal_alpha("12"), "powers"),
    ]
    for call, name in calls:
        with pytest.raises(ValidationError, match=f"^{name} must be a sequence of numbers, got '12'$"):
            call()


def _tdma_degraded_sum(h, powers, alpha1):
    total = 0.0
    for a, p in zip((alpha1, 1.0 - alpha1), powers):
        if a > 0.0 and p > 0.0:
            arg = (1.0 - h) * p / (a + h * p)
            if arg > 0.0:
                total += a * 0.5 * math.log2(1.0 + arg)
    return total


def test_tdma_optimal_alpha_beats_grid():
    h, powers = 0.5, (1.0, 3.0)
    best = _tdma_degraded_sum(h, powers, tdma_optimal_alpha(powers)[0])
    grid = np.linspace(0.0, 1.0, 1001)
    values = [_tdma_degraded_sum(h, powers, a) for a in grid]
    assert best >= max(values) - 1e-9


def test_grid_oracle_degenerate():
    alloc = grid_oracle("SUM", (0.5, 0.5), (0.0, 0.0))
    assert alloc.p == (0.0, 0.0) and alloc.achieved_rate == 0.0
    assert alloc.case_label == "NONE"


def test_grid_oracle_rejects():
    with pytest.raises(ValidationError):
        grid_oracle("SUM", (0.5, 0.5), (1.0, 1.0), resolution=5)
    with pytest.raises(ValidationError):
        grid_oracle("NEITHER", (0.5, 0.5), (1.0, 1.0))


def test_grid_oracle_sum_hits_corner():
    alloc = grid_oracle("SUM", (0.25, 0.3), (10.0, 10.0))
    assert alloc.p == (10.0, 10.0)
    assert alloc.achieved_rate == pytest.approx(
        sum_rate((10.0, 10.0), (0.25, 0.3)), abs=1e-15
    )


def test_grid_oracle_jam_pinned():
    alloc = grid_oracle("JAM", (0.5, 2.0), (10.0, 10.0))
    assert abs(alloc.p[1] - 1.0) < 0.05
    assert alloc.achieved_rate == pytest.approx(math.log2(2.25) / 2.0, abs=1e-4)


def _whole_grid_oracle(objective, gains, pmax, resolution):
    """``grid_oracle`` with one argmax over each whole grid, as it was before
    the grid went in row blocks: ((p, achieved_rate, case_label), whether a
    grid held a cell that is not finite, which is skipped)."""
    h, m = tuple(map(float, gains)), tuple(map(float, pmax))
    order = slice(None, None, -1 if h[0] > h[1] else 1)
    (h1, h2), (m1, m2) = h[order], m[order]
    kernel = optimizer._sum_kernel if objective == "SUM" else optimizer._jam_kernel
    masked = False

    def best_on(xs, ys):
        nonlocal masked
        with np.errstate(all="ignore"):
            values = kernel(xs[:, None], ys[None, :], h1, h2)
        finite = np.isfinite(values)
        masked |= not finite.all()
        values[~finite] = -math.inf
        i, j = divmod(int(np.argmax(values)), ys.size)
        return float(values[i, j]), float(xs[i]), float(ys[j])

    val, p1, p2 = best_on(np.linspace(0.0, m1, resolution), np.linspace(0.0, m2, resolution))
    step1, step2 = m1 / (resolution - 1), m2 / (resolution - 1)
    fine = best_on(
        np.linspace(max(0.0, p1 - step1), min(m1, p1 + step1), resolution),
        np.linspace(max(0.0, p2 - step2), min(m2, p2 + step2), resolution),
    )
    if fine[0] > val:
        val, p1, p2 = fine
    label = optimizer._oracle_label(objective, p1, p2, m2)
    return ((p1, p2)[order], max(0.0, val), label), masked


def _oracle_draws(n):
    """Seeded oracle inputs: both objectives, resolutions 11 to 333, gains
    uniform on [0, 3] or log-uniform on [1e-3, 1e3], pmax log-uniform on
    [1e-3, 1e5], with equal gains, a zero pmax and overflowing powers."""
    rng = random.Random(RNG_SEED + 18)

    def loguniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for k in range(n):
        if k % 2:
            h = [rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)]
        else:
            h = [loguniform(1e-3, 1e3), loguniform(1e-3, 1e3)]
        m = [loguniform(1e-3, 1e5), loguniform(1e-3, 1e5)]
        if k % 7 == 0:
            h[1] = h[0]
        if k % 11 == 0:
            m[k % 2] = 0.0
        if k % 13 == 0:
            m = [FLOAT_MAX, 1e308]
        yield ("SUM", "JAM")[k % 2], tuple(h), tuple(m), (11, 12, 41, 101, 201, 333)[k % 6]


def _bits(p, rate, label):
    return p[0].hex(), p[1].hex(), rate.hex(), label


@functools.cache
def _oracle_cases():
    return [(draw, _whole_grid_oracle(*draw)) for draw in _oracle_draws(300)]


@pytest.mark.parametrize("block", ["1", "res-1", "res+1", "default", "1e9"])
def test_grid_oracle_blocks_match_the_whole_grid_bit_for_bit(monkeypatch, block):
    masked = 0
    for draw, (expected, skipped) in _oracle_cases():
        res = draw[3]
        # one row per block, the default's partial last block, one block
        size = {"1": 1, "res-1": res - 1, "res+1": res + 1,
                "default": rates._GRID_BLOCK, "1e9": 10**9}[block]
        monkeypatch.setattr(rates, "_GRID_BLOCK", size)
        alloc = grid_oracle(*draw)
        assert _bits(alloc.p, alloc.achieved_rate, alloc.case_label) == _bits(*expected), draw
        masked += skipped
    # the overflowing draws skip some cells, and the rest skip none
    assert 0 < masked < len(_oracle_cases())


# a draw of _oracle_draws whose screen bottom overflows: h1 pmax1 leaves the
# float range, which rounds the screen's gaps on the last row to 0; without
# the 1-D bound check that hides the winner, and the oracle returns another p1
_OVERFLOWING_BOTTOM = ("JAM", (1.0461581414924466, 1.3471712255084358), (FLOAT_MAX, 1e308), 12)


def _screen_draws(n):
    """Seeded oracle inputs at the default resolution where the screen is
    hardest to trust: plateaus (gain * pmax >= 1e12, the gap flat to a few
    ulps), gains of exactly 1 and equal gains (zero rows and ties),
    subnormal, zero and float-maximum pmax, gains within 1e-10 to 1e-1 of 1,
    the benchmark's range and wide scales; gains in either order, and the
    overflowing draw above, pinned."""
    rng = random.Random(RNG_SEED + 29)

    def loguniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    yield _OVERFLOWING_BOTTOM
    yield _OVERFLOWING_BOTTOM[:3] + (201,)
    for k in range(n - 2):
        kind = k % 8
        if kind == 0:  # plateau
            h = [loguniform(1e-3, 1e3), loguniform(1e-3, 1e3)]
            m = [loguniform(1e12, 1e200) / g for g in h]
        elif kind == 1:  # plateau at equal gains
            h = [rng.uniform(0.0, 3.0)] * 2
            m = [loguniform(1e12, 1e200) / h[0], loguniform(1e-3, 1e200)]
        elif kind == 2:  # a gain of exactly 1
            h = [1.0, rng.choice([1.0, rng.uniform(0.0, 3.0)])]
            m = [loguniform(1e-3, 1e15), loguniform(1e-3, 1e15)]
        elif kind == 3:  # equal gains
            h = [rng.uniform(0.0, 3.0)] * 2
            m = [loguniform(1e-3, 1e5), loguniform(1e-3, 1e5)]
        elif kind == 4:  # subnormal, zero and float-maximum pmax
            h = [rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)]
            m = [rng.choice([5e-324, loguniform(5e-324, 2.2e-308), 0.0, FLOAT_MAX,
                             loguniform(1e-3, 1e5)]) for _ in h]
        elif kind == 5:  # gains close to 1
            h = [1.0 + rng.choice((-1, 1)) * loguniform(1e-10, 1e-1) for _ in range(2)]
            m = [loguniform(1e-3, 1e15), loguniform(1e-3, 1e15)]
        elif kind == 6:  # the benchmark's range
            h = [rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0)]
            m = [rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0)]
        else:  # wide scales
            h = [loguniform(1e-150, 1e150), loguniform(1e-150, 1e150)]
            m = [loguniform(1e-150, 1e150), loguniform(1e-150, 1e150)]
        if rng.random() < 0.5:
            h, m = h[::-1], m[::-1]
        yield rng.choice(("SUM", "JAM")), tuple(h), tuple(m), 201


@functools.cache
def _screen_cases():
    return [(draw, _whole_grid_oracle(*draw)[0]) for draw in _screen_draws(1000)]


@pytest.mark.parametrize("block", ["default", "1"])
def test_grid_oracle_screen_matches_the_whole_grid_bit_for_bit(monkeypatch, block):
    if block == "1":
        monkeypatch.setattr(rates, "_GRID_BLOCK", 1)
    for draw, expected in _screen_cases():
        alloc = grid_oracle(*draw)
        assert _bits(alloc.p, alloc.achieved_rate, alloc.case_label) == _bits(*expected), draw


def _bound_draws(n):
    """``_screen_draws`` at resolutions 11, 41, 201 and 333 in turn, every
    third one replaced by a SUM draw whose SNR gap's numerator
    (1 - h1) p1 + (1 - h2) p2 cancels: gains on both sides of 1 and pmax
    where the two terms nearly match at the far corner."""
    rng = random.Random(RNG_SEED + 33)

    def loguniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    for k, draw in enumerate(_screen_draws(n)):
        res = (11, 41, 201, 333)[k % 4]
        if k % 3 == 2:
            h = [rng.uniform(0.0, 1.0), rng.uniform(1.0, 3.0)]
            m1 = loguniform(1e-3, 1e15)
            near = 1.0 + rng.choice((-1, 1)) * loguniform(1e-15, 1e-1)
            m = [m1, m1 * (1.0 - h[0]) / (h[1] - 1.0) * near]
            if rng.random() < 0.5:
                h, m = h[::-1], m[::-1]
            draw = ("SUM", tuple(h), tuple(m))
        yield draw[:3] + (res,)


def _cancelling_windows(n):
    """Screen terms of SUM grids in both user orders, a narrow window in p2
    (a relative width of 1e-15 to 1e-9) around the point where the SNR gap's
    numerator cancels on the last row: edge gaps near 0, far below the
    numerator's terms, whose rounding the SUM pad is scaled to."""
    rng = random.Random(RNG_SEED + 34)
    for _ in range(n):
        h = [rng.uniform(0.0, 1.0), rng.uniform(1.0, 3.0)]
        xs = np.linspace(0.0, 10.0 ** rng.uniform(-3, 15), rng.choice((11, 41, 201, 333)))
        y0 = xs[-1] * (1.0 - h[0]) / (h[1] - 1.0)
        grid = [xs, np.linspace(y0, y0 * (1.0 + 10.0 ** rng.uniform(-15, -9)), xs.size)]
        if rng.random() < 0.5:
            h, grid = h[::-1], grid[::-1]
        (h1, h2), (xs, ys) = h, grid
        yield np.add, ((1.0 - h1) * xs, (1.0 - h2) * ys), (1.0 + h1 * xs, h2 * ys)


def test_grid_oracle_block_bound_lies_above_every_screen_gap_of_its_block(monkeypatch):
    # on both passes' grids of each draw, in the oracle's blocks and in
    # blocks of three rows: no screen gap of a block exceeds its padded
    # edge-line bound, a block holding a gap that is not finite is never
    # skipped, and each cell whose gap reaches the band of the grid's
    # largest gap lies in a block that is screened
    grids, gaps_of = {}, optimizer._screen_gaps

    def spy(terms, rows, cols=slice(None)):
        grids[id(terms)] = terms  # each screened grid, once
        return gaps_of(terms, rows, cols)

    monkeypatch.setattr(optimizer, "_screen_gaps", spy)
    for draw in _bound_draws(400):
        grid_oracle(*draw)
    monkeypatch.undo()
    checked = list(grids.values()) + list(_cancelling_windows(200))
    skipped = 0
    for terms in checked:
        rows, cols = terms[1][0].size, terms[1][1].size
        with np.errstate(all="ignore"):
            gaps = gaps_of(terms, slice(None))
            band = gaps >= optimizer._cut(gaps.max())
            for blocks in (list(rates._row_blocks(rows, cols)),
                           [slice(start, start + 3) for start in range(0, rows, 3)]):
                bounds, low = optimizer._edge_bounds(terms, blocks)
                skip = bounds < low
                for block, bound, skip_it in zip(blocks, bounds, skip):
                    assert not (gaps[block] > bound).any(), (terms[0], rows, block)
                    assert not skip_it or (np.isfinite(gaps[block]).all() and not band[block].any())
                skipped += int(skip.sum())
    assert skipped > len(checked)


def test_grid_oracle_screens_one_row_block_of_six_at_the_benchmark_range(monkeypatch):
    # h in [0, 3], pmax in [0.05, 20] at resolution 201, the range of the
    # benchmark's --verify calls: each pass screens the one block of six
    # that holds the largest edge gap, and no other
    screened, gaps_of = [], optimizer._screen_gaps

    def spy(terms, rows, cols=slice(None)):
        if isinstance(rows, slice):  # a whole block, not an edge line
            screened.append(rows)
        return gaps_of(terms, rows, cols)

    monkeypatch.setattr(optimizer, "_screen_gaps", spy)
    assert len(list(rates._row_blocks(201, 201))) == 6
    rng = random.Random(RNG_SEED + 35)
    for k in range(200):
        h = (rng.uniform(0.0, 3.0), rng.uniform(0.0, 3.0))
        m = (rng.uniform(0.05, 20.0), rng.uniform(0.05, 20.0))
        screened.clear()
        grid_oracle(("SUM", "JAM")[k % 2], h, m)
        assert len(screened) == 2, (h, m)


def test_grid_oracle_tie_across_blocks_keeps_the_first_cell(monkeypatch):
    # the maximum repeats at rows 3 and 150 of the coarse 201-point grid;
    # blocks of five whole rows put them in blocks 0 and 30.  Gains of 1
    # make every SNR gap 0, so the screen finds each grid flat and its
    # blocks are evaluated whole, where the fake kernel alone steers
    xs = np.linspace(0.0, 10.0, 201)
    ys = np.linspace(0.0, 10.0, 201)
    blocks = []

    def tied(p1, p2, h1, h2):
        blocks.append(p1.shape[0] * p2.shape[1])
        return np.where((p2 == ys[7]) & ((p1 == xs[3]) | (p1 == xs[150])), 1.0, 0.0)

    monkeypatch.setattr(optimizer, "_sum_kernel", tied)
    monkeypatch.setattr(rates, "_GRID_BLOCK", 5 * 201 + 200)
    alloc = grid_oracle("SUM", (1.0, 1.0), (10.0, 10.0))
    assert alloc.p == (xs[3], ys[7]) and alloc.achieved_rate == 1.0
    # 40 blocks of five rows, then the one row left, in each of the two passes
    assert blocks == 2 * ([5 * 201] * 40 + [201])


def test_grid_oracle_screened_tie_across_blocks_keeps_the_first_cell(monkeypatch):
    # at h1 pmax1 ~ 5e14 the gap on column 0 rounds to the same few values, so
    # the largest rate repeats in rows 180 to 200, which blocks of five whole
    # rows put in blocks 36 to 40; the screen keeps them all as candidates
    h, m = (0.25, 1.5), (2161681935320287.0, 1e6)
    xs, ys = np.linspace(0.0, m[0], 201), np.linspace(0.0, m[1], 201)
    values = optimizer._sum_kernel(xs[:, None], ys[None, :], *h)
    rows = np.flatnonzero((values == values.max()).any(axis=1))
    monkeypatch.setattr(rates, "_GRID_BLOCK", 5 * 201 + 200)
    blocks = list(rates._row_blocks(201, 201))
    assert blocks[-1] == slice(200, 205) and all(b.stop - b.start == 5 for b in blocks)
    assert rows[0] == 180 and rows[-1] == 200 and rows.size > 2
    ndims, kernel = [], optimizer._sum_kernel

    def spy(p1, p2, h1, h2):
        ndims.append(np.ndim(p1))
        return kernel(p1, p2, h1, h2)

    monkeypatch.setattr(optimizer, "_sum_kernel", spy)
    alloc = grid_oracle("SUM", h, m)
    # only candidates were rescored, never a whole block, and the first
    # tied row wins, as in one pass over the whole grid
    assert set(ndims) == {1}
    assert alloc.p == (xs[180], 0.0) and alloc.achieved_rate == values.max()
    assert _bits(alloc.p, alloc.achieved_rate, alloc.case_label) == _bits(*_whole_grid_oracle("SUM", h, m, 201)[0])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_grid_oracle_skips_an_overflow_in_the_last_block(monkeypatch, bad):
    # the objective grows toward the last row, which is not finite
    ndims = []

    def late(p1, p2, h1, h2):
        ndims.append(np.ndim(p1))
        return np.where(p1 == 10.0, bad, p1 + p2)

    monkeypatch.setattr(optimizer, "_jam_kernel", late)
    # the bad row, the grid's last, lies past the first block
    assert rates._GRID_BLOCK // 201 < 200
    alloc = grid_oracle("JAM", (0.5, 2.0), (10.0, 10.0))
    # the screen's largest gap lies on the last row, so each pass rescores
    # candidates there once; they are not finite, and the pass is evaluated
    # again in whole blocks
    blocks = len(list(rates._row_blocks(201, 201)))
    assert ndims == 2 * ([1] + [2] * blocks)
    # the coarse pass keeps the row before it, (9.95, 10); the fine pass
    # re-grids [9.9, 10] x [9.95, 10] and again skips its last row
    p1 = np.linspace(9.9, 10.0, 201)[199]
    assert alloc.p == (p1, 10.0) and alloc.achieved_rate == p1 + 10.0
    assert alloc.case_label == "JAM_AT_MAX"


def test_grid_oracle_memory_does_not_grow_with_resolution():
    # one whole 2001 x 2001 grid would hold ~120 MiB of float64 temporaries;
    # the second draw is a plateau, its gap flat to a few ulps over most of
    # the grid, where the screen finds its blocks flat
    for draw, label in ((("JAM", (0.7, 1.9), (12.0, 7.0)), "JAM_AT_ROOT"),
                        (("SUM", (0.17, 0.6), (5e266, 1.3e40)), "ONE_TRANSMITS")):
        tracemalloc.start()
        try:
            alloc = grid_oracle(*draw, 2001)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, (draw, peak)
        assert alloc.case_label == label


def test_oracle_agreement_sample():
    # light version of the acceptance protocol
    rng = np.random.default_rng(RNG_SEED)
    for h, pmax in random_instances(rng, 60):
        closed = optimal_powers_sum(h, pmax)
        oracle = grid_oracle("SUM", h, pmax, resolution=201)
        assert abs(closed.achieved_rate - oracle.achieved_rate) <= 1e-6, (h, pmax)
        jam_value, _ = jam_mode_value(h, pmax)
        oracle = grid_oracle("JAM", h, pmax, resolution=201)
        assert abs(jam_value - oracle.achieved_rate) <= 1e-6, (h, pmax)


def test_case_boundary_continuity():
    rng = np.random.default_rng(RNG_SEED + 1)
    for _ in range(10):
        h1 = float(rng.uniform(0.0, 1.0))
        m1 = float(rng.uniform(0.05, 20.0))
        m2 = float(rng.uniform(0.05, 20.0))
        h2 = (1.0 + h1 * m1) / (1.0 + m1)
        at_full = sum_rate((m1, m2), (h1, h2))
        one_only = sum_rate((m1, 0.0), (h1, h2))
        assert abs(at_full - one_only) <= 1e-9


def test_jamming_never_hurts():
    rng = np.random.default_rng(RNG_SEED + 2)
    for h, pmax in random_instances(rng, 200):
        jam = optimal_powers_jam(h, pmax)
        nojam = optimal_powers_sum(h, pmax)
        assert jam.achieved_rate >= nojam.achieved_rate - 1e-9, (h, pmax)


def test_jammer_power_implies_advantage_ratio():
    # gains from random_instances are ascending, so user 2 is the jammer
    rng = np.random.default_rng(RNG_SEED + 3)
    hits = 0
    for h, pmax in random_instances(rng, 200):
        alloc = optimal_powers_jam(h, pmax)
        if alloc.case_label in ("JAM_AT_ROOT", "JAM_AT_MAX"):
            assert alloc.p[1] > 0.0
            # the jamming-advantage ratio (1 + h2*P2) / (1 + P2) exceeds one
            assert (1.0 + h[1] * alloc.p[1]) / (1.0 + alloc.p[1]) > 1.0
            hits += 1
    assert hits >= 20


gain = st.floats(min_value=0.0, max_value=3.0, allow_nan=False)
power_cap = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(h1=gain, h2=gain, m1=power_cap, m2=power_cap, t1=unit, t2=unit)
def test_sum_solution_dominates_feasible_points(h1, h2, m1, m2, t1, t2):
    h, pmax = (h1, h2), (m1, m2)
    best = optimal_powers_sum(h, pmax)
    candidate = sum_rate((t1 * m1, t2 * m2), h)
    assert max(0.0, best.achieved_rate) >= candidate - 1e-12


@given(h1=gain, h2=gain, m1=power_cap, m2=power_cap, t1=unit, t2=unit)
def test_jam_solution_dominates_feasible_points(h1, h2, m1, m2, t1, t2):
    h = tuple(sorted((h1, h2)))
    pmax = (m1, m2)
    value, _ = jam_mode_value(h, pmax)
    candidate = jam_rate((t1 * m1, t2 * m2), h)
    assert value >= candidate - 1e-12


@given(h1=gain, h2=gain, m1=power_cap, m2=power_cap)
def test_relabeling_round_trip(h1, h2, m1, m2):
    fwd = optimal_powers_sum((h1, h2), (m1, m2))
    rev = optimal_powers_sum((h2, h1), (m2, m1))
    assert rev.p == (fwd.p[1], fwd.p[0])
    assert rev.achieved_rate == fwd.achieved_rate


def test_interior_root_is_stationary():
    rng = np.random.default_rng(RNG_SEED + 4)
    checked = 0
    for h, pmax in random_instances(rng, 400):
        alloc = optimal_powers_jam(h, pmax)
        p2 = alloc.p[1]
        if alloc.case_label == "JAM_AT_ROOT" and 1e-5 < p2 < pmax[1] - 1e-5:
            step = 1e-6
            up = jam_rate((alloc.p[0], p2 + step), h)
            down = jam_rate((alloc.p[0], p2 - step), h)
            assert abs(up - down) / (2.0 * step) < 1e-4, (h, pmax)
            checked += 1
    assert checked >= 20
