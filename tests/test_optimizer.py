import functools
import math
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest
import reference_solver
from conftest import jam_derivative_numerator, jam_mode_value, random_instances
from hypothesis import given
from hypothesis import strategies as st

from macwiretap import optimizer
from macwiretap.errors import ValidationError
from macwiretap.optimizer import (
    _jam_root,
    grid_oracle,
    jam_objective,
    optimal_powers_jam,
    optimal_powers_sum,
    sum_objective,
    tdma_optimal_alpha,
)
from macwiretap.regions import RateVector

RNG_SEED = 20240917


def g_rate(x):
    return 0.5 * math.log2(1.0 + x)


def test_sum_objective_examples():
    assert sum_objective((0.0, 0.0), (0.5, 0.5)) == 0.0
    expected = math.log2(5.0 / 3.0) / 2.0
    assert sum_objective((2.0, 2.0), (0.5, 0.5)) == pytest.approx(expected, abs=1e-12)
    assert sum_objective((1.0, 1.0), (2.0, 2.0)) == pytest.approx(-expected, abs=1e-12)


def test_jam_objective_examples():
    # jammer silent: collapses to the single-user difference
    h = (0.5, 2.0)
    single = sum_objective((4.0, 0.0), h)
    assert jam_objective((4.0, 0.0), h) == pytest.approx(single, abs=1e-15)
    assert jam_objective((10.0, 1.0), h) == pytest.approx(math.log2(2.25) / 2.0, abs=1e-12)
    assert jam_objective((0.0, 5.0), h) == 0.0


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
        max(0.0, sum_objective(alloc.p, (0.25, 0.3))), abs=1e-12
    )


def _jam_roots(h, pmax1):
    """(discriminant, larger root, smaller root) of the jamming-power
    stationarity parabola: the larger from the solver's own ``_jam_root``,
    the smaller from the reference."""
    disc, root = _jam_root(*h, pmax1)
    return disc, root, reference_solver._jam_root(*h, pmax1, sign=-1.0)[1]


def test_jam_roots_pinned():
    disc, root, root_bar = _jam_roots((0.5, 2.0), 10.0)
    assert disc == pytest.approx(16.0, abs=1e-12)
    assert root == pytest.approx(1.0, abs=1e-12)
    assert root_bar == pytest.approx(-5.0 / 3.0, abs=1e-12)


def test_jam_roots_no_real_roots():
    # h2 < 1 with large transmit power drives the discriminant negative:
    # D = h1*h2*(h2-1)*[(h2-1)+(h2-h1)*P1] = 0.1*(-0.5)*(2.5) < 0 at P1=10
    with np.errstate(all="ignore"):
        disc, root = _jam_root(0.2, 0.5, 10.0)
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
        jam_objective((10.0, 0.0), (0.5, 0.8)), abs=1e-15
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
            disc, root = _jam_root(*gains, pmax1)
        assert math.isfinite(disc) and not math.isfinite(root)
        for pmax in ((pmax1, 1.0), (pmax1, FLOAT_MAX)):
            alloc = optimal_powers_jam(gains, pmax)
            assert all(0.0 <= p <= m for p, m in zip(alloc.p, pmax))
            assert math.isfinite(alloc.achieved_rate)
            if alloc.case_label == "BOTH_TRANSMIT":
                expected = sum_objective(alloc.p, gains)
            else:
                # the user with the larger gain jams
                order = sorted(range(2), key=lambda k: gains[k])
                expected = jam_objective([alloc.p[k] for k in order], [gains[k] for k in order])
            assert alloc.achieved_rate == pytest.approx(max(0.0, expected), rel=1e-12)


def test_solvers_reject_an_overflowing_secrecy_rate():
    # g(P1 + P2) overflows at the both-transmit allocation
    for solver in (optimal_powers_sum, optimal_powers_jam):
        with pytest.raises(ValidationError, match="the secrecy rate overflows"):
            solver((0.0, 0.0), (FLOAT_MAX, FLOAT_MAX))
    # h1 * P1 overflows inside the jamming objective, whose true value is
    # finite and positive; clamping its -inf to zero would hide that
    with pytest.raises(ValidationError, match=r"^gains \(1\.41.*, 1\.13.*\) with pmax"):
        optimal_powers_jam((1.4112098634870498, 1.1372276019244711),
                           (1.6577117771685576e78, FLOAT_MAX))


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
    # every case and both overflow messages are drawn
    assert set(outcomes) >= {
        "BOTH_TRANSMIT", "ONE_TRANSMITS", "NONE", "JAM_AT_ROOT", "JAM_AT_MAX", "NO_JAM",
        "the secrecy rate overflows the float range",
        "the jamming-root discriminant overflows the float range",
    }, outcomes


def test_tdma_optimal_alpha():
    assert tdma_optimal_alpha((1.0, 3.0)) == pytest.approx((0.25, 0.75), abs=1e-15)
    assert tdma_optimal_alpha((2.0, 2.0)) == (0.5, 0.5)
    assert tdma_optimal_alpha((5.0, 0.0)) == (1.0, 0.0)
    with pytest.raises(ValidationError):
        tdma_optimal_alpha((0.0, 0.0))


def test_a_string_is_not_a_sequence_of_numbers():
    # each call once read "12" as the digits (1, 2)
    calls = [
        (lambda: sum_objective("12", (0.5, 0.5)), "powers"),
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
        sum_objective((10.0, 10.0), (0.25, 0.3)), abs=1e-15
    )


def test_grid_oracle_jam_pinned():
    alloc = grid_oracle("JAM", (0.5, 2.0), (10.0, 10.0))
    assert abs(alloc.p[1] - 1.0) < 0.05
    assert alloc.achieved_rate == pytest.approx(math.log2(2.25) / 2.0, abs=1e-4)


def _whole_grid_oracle(objective, gains, pmax, resolution):
    """``grid_oracle`` with one argmax over each whole grid, as it was before
    the grid went in row blocks: (p, achieved_rate, case_label), or the
    refusal text."""
    h, m = tuple(map(float, gains)), tuple(map(float, pmax))
    order = slice(None, None, -1 if h[0] > h[1] else 1)
    (h1, h2), (m1, m2) = h[order], m[order]
    kernel = optimizer._sum_kernel if objective == "SUM" else optimizer._jam_kernel

    def best_on(xs, ys):
        with np.errstate(all="ignore"):
            values = kernel(xs[:, None], ys[None, :], h1, h2)
        if not np.isfinite(values).all():
            raise optimizer._too_large(h, m, "the oracle objective")
        i, j = divmod(int(np.argmax(values)), ys.size)
        return float(values[i, j]), float(xs[i]), float(ys[j])

    try:
        val, p1, p2 = best_on(np.linspace(0.0, m1, resolution), np.linspace(0.0, m2, resolution))
        step1, step2 = m1 / (resolution - 1), m2 / (resolution - 1)
        fine = best_on(
            np.linspace(max(0.0, p1 - step1), min(m1, p1 + step1), resolution),
            np.linspace(max(0.0, p2 - step2), min(m2, p2 + step2), resolution),
        )
    except ValidationError as err:
        return str(err)
    if fine[0] > val:
        val, p1, p2 = fine
    label = optimizer._oracle_label(objective, p1, p2, m2)
    return (p1, p2)[order], max(0.0, val), label


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
    refusals = 0
    for draw, expected in _oracle_cases():
        res = draw[3]
        # one row per block, the default's partial last block, one block
        size = {"1": 1, "res-1": res - 1, "res+1": res + 1,
                "default": optimizer._ORACLE_BLOCK, "1e9": 10**9}[block]
        monkeypatch.setattr(optimizer, "_ORACLE_BLOCK", size)
        if isinstance(expected, str):
            refusals += 1
            with pytest.raises(ValidationError) as err:
                grid_oracle(*draw)
            assert str(err.value) == expected, draw
            continue
        alloc = grid_oracle(*draw)
        assert _bits(alloc.p, alloc.achieved_rate, alloc.case_label) == _bits(*expected), draw
    assert 0 < refusals < len(_oracle_cases())


def test_grid_oracle_tie_across_blocks_keeps_the_first_cell(monkeypatch):
    # the maximum repeats at rows 3 and 150 of the coarse 201-point grid;
    # blocks of five whole rows put them in blocks 0 and 30
    xs = np.linspace(0.0, 10.0, 201)
    ys = np.linspace(0.0, 10.0, 201)
    blocks = []

    def tied(p1, p2, h1, h2):
        blocks.append(p1.shape[0] * p2.shape[1])
        return np.where((p2 == ys[7]) & ((p1 == xs[3]) | (p1 == xs[150])), 1.0, 0.0)

    monkeypatch.setattr(optimizer, "_sum_kernel", tied)
    monkeypatch.setattr(optimizer, "_ORACLE_BLOCK", 5 * 201 + 200)
    alloc = grid_oracle("SUM", (0.25, 0.3), (10.0, 10.0))
    assert alloc.p == (xs[3], ys[7]) and alloc.achieved_rate == 1.0
    # 40 blocks of five rows, then the one row left, in each of the two passes
    assert blocks == 2 * ([5 * 201] * 40 + [201])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_grid_oracle_refuses_an_overflow_in_the_last_block(monkeypatch, bad):
    def late(p1, p2, h1, h2):
        return np.where((p1 == 10.0) & (p2 >= 0.0), bad, 0.0)

    monkeypatch.setattr(optimizer, "_jam_kernel", late)
    with pytest.raises(ValidationError) as err:
        grid_oracle("JAM", (0.5, 2.0), (10.0, 10.0))
    assert str(err.value) == (
        "gains (0.5, 2.0) with pmax (10.0, 10.0) too large: "
        "the oracle objective overflows the float range"
    )


def test_grid_oracle_memory_does_not_grow_with_resolution():
    # one whole 2001 x 2001 grid would hold ~120 MiB of float64 temporaries
    tracemalloc.start()
    try:
        alloc = grid_oracle("JAM", (0.7, 1.9), (12.0, 7.0), 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20, peak
    assert alloc.case_label == "JAM_AT_ROOT"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("objective, powers, gains", [
    (sum_objective, (1e308, 1e308), (0.5, 0.5)),  # inf
    (jam_objective, (1e308, 0.0), (10.0, 0.0)),  # -inf
    (sum_objective, (1e308, 1e308), (2.0, 2.0)),  # inf - inf
])
def test_objectives_refuse_a_rate_that_is_not_finite(objective, powers, gains):
    with pytest.raises(ValidationError) as err:
        objective(powers, gains)
    assert str(err.value) == (
        f"gains {gains} with powers {powers} too large: "
        "the secrecy rate overflows the float range"
    )


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
        at_full = sum_objective((m1, m2), (h1, h2))
        one_only = sum_objective((m1, 0.0), (h1, h2))
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
    candidate = sum_objective((t1 * m1, t2 * m2), h)
    assert max(0.0, best.achieved_rate) >= candidate - 1e-12


@given(h1=gain, h2=gain, m1=power_cap, m2=power_cap, t1=unit, t2=unit)
def test_jam_solution_dominates_feasible_points(h1, h2, m1, m2, t1, t2):
    h = tuple(sorted((h1, h2)))
    pmax = (m1, m2)
    value, _ = jam_mode_value(h, pmax)
    candidate = jam_objective((t1 * m1, t2 * m2), h)
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
            up = jam_objective((alloc.p[0], p2 + step), h)
            down = jam_objective((alloc.p[0], p2 - step), h)
            assert abs(up - down) / (2.0 * step) < 1e-4, (h, pmax)
            checked += 1
    assert checked >= 20
