"""Acceptance suite: one test per shipped guarantee, each recording a
pass/fail line with its measured margin.  The lines are echoed in the
terminal summary of any pytest run (see conftest)."""

import json
import math
import time
from collections import Counter
from pathlib import Path

import conftest
import numpy as np
import pytest
from conftest import jam_mode_value, random_instances
from reference_rates import sum_rate

from macwiretap.channel import StandardChannel
from macwiretap.optimizer import grid_oracle, optimal_powers_jam, optimal_powers_sum
from macwiretap.rates import g
from macwiretap.regions import (
    DeltaRateVector,
    RateVector,
    collective_region_at,
    delta_region,
    individual_region_at,
    membership,
    outer_region_at,
    rate_split_collective,
    region_boundary_2d,
    sum_capacity_degraded,
    tdma_region_at,
)
from macwiretap.scenario import ScenarioConfig, sweep

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "example_scenario.json"
SEED = 424242


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"criterion {criterion:2d} {'PASS' if ok else 'FAIL'} - {detail}"
    conftest.ACCEPTANCE_LINES.append(line)
    print(line)
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_01_degraded_sum_capacity_equality():
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        h = float(rng.uniform(0.0, 1.0))
        p = tuple(rng.uniform(1e-6, 20.0, 2))
        std = StandardChannel(2, (h, h), p)
        achievable = collective_region_at(std, p).row("SECRECY{1,2}").rhs
        outer = outer_region_at(std, p, "COLLECTIVE").row("SECRECY{1,2}").rhs
        closed = sum_capacity_degraded(h, sum(p))
        worst = max(worst, abs(achievable - outer), abs(achievable - closed))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"achievable = outer = closed form, worst gap {worst:.2e} (tol 1e-12), {elapsed:.2f}s",
    )


def test_criterion_02_tdma_share_optimality():
    rng = np.random.default_rng(SEED + 1)
    t0 = time.perf_counter()
    worst_eq = 0.0
    worst_grid = 0.0
    alphas = np.linspace(0.0, 1.0, 1001)
    for _ in range(100):
        h = float(rng.uniform(0.0, 1.0))
        p = tuple(rng.uniform(1e-3, 20.0, 2))
        std = StandardChannel(2, (h, h), p)
        star = (p[0] / sum(p), p[1] / sum(p))
        at_star = sum(r.rhs for r in tdma_region_at(std, p, star).secrecy_rows())
        closed = sum_capacity_degraded(h, sum(p))
        worst_eq = max(worst_eq, abs(at_star - closed))
        with np.errstate(divide="ignore", invalid="ignore"):
            a1, a2 = alphas, 1.0 - alphas
            t1 = np.where(a1 > 0, a1 * 0.5 * np.log2(1.0 + (1 - h) * p[0] / (a1 + h * p[0])), 0.0)
            t2 = np.where(a2 > 0, a2 * 0.5 * np.log2(1.0 + (1 - h) * p[1] / (a2 + h * p[1])), 0.0)
        worst_grid = max(worst_grid, float(np.max(t1 + t2)) - at_star)
    elapsed = time.perf_counter() - t0
    report(
        2,
        worst_eq <= 1e-9 and worst_grid <= 1e-9 and elapsed < 1.0,
        f"share-rule equality gap {worst_eq:.2e}, best grid excess {worst_grid:.2e} "
        f"(tol 1e-9), {elapsed:.2f}s",
    )


def _sum_instances(rng):
    generic = random_instances(rng, 400, h_lo=0.0, h_hi=3.0, p_lo=0.05, p_hi=20.0)
    low = random_instances(rng, 100, h_lo=0.0, h_hi=0.6, p_lo=0.05, p_hi=1.5)
    return generic + low


def test_criterion_03_sum_rate_oracle_agreement():
    rng = np.random.default_rng(SEED + 2)
    t0 = time.perf_counter()
    worst = 0.0
    counts = Counter()
    instances = _sum_instances(rng)
    for h, pmax in instances:
        closed = optimal_powers_sum(h, pmax)
        counts[closed.case_label] += 1
        oracle = grid_oracle("SUM", h, pmax, resolution=201)
        worst = max(worst, abs(closed.achieved_rate - oracle.achieved_rate))
    elapsed = time.perf_counter() - t0
    coverage_ok = all(counts[c] >= 50 for c in ("BOTH_TRANSMIT", "ONE_TRANSMITS", "NONE"))
    report(
        3,
        len(instances) >= 500 and worst <= 1e-6 and coverage_ok and elapsed < 60.0,
        f"{len(instances)} instances, worst oracle gap {worst:.2e} (tol 1e-6), "
        f"cases {dict(counts)}, {elapsed:.1f}s",
    )


def _jam_instances(rng):
    out = random_instances(rng, 250, h_lo=0.0, h_hi=3.0, p_lo=0.05, p_hi=20.0)
    out += random_instances(rng, 100, h_lo=0.0, h_hi=0.6, p_lo=0.05, p_hi=1.5)
    for _ in range(100):  # strong eavesdropper on user 2, weak jammer budget
        h = (float(rng.uniform(0.0, 1.0)), float(rng.uniform(1.2, 3.0)))
        m = (float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.01, 0.35)))
        out.append((h, m))
    for _ in range(100):  # both users leaky, jammer short on power
        h1 = float(rng.uniform(1.05, 2.0))
        h = (h1, h1 + float(rng.uniform(0.3, 1.0)))
        m = (float(rng.uniform(0.05, 20.0)), float(rng.uniform(0.01, 0.3)))
        out.append((h, m))
    return out


def test_criterion_04_jamming_oracle_agreement():
    rng = np.random.default_rng(SEED + 3)
    t0 = time.perf_counter()
    worst = 0.0
    counts = Counter()
    instances = _jam_instances(rng)
    for h, pmax in instances:
        value, alloc = jam_mode_value(h, pmax)
        counts[alloc.case_label] += 1
        oracle = grid_oracle("JAM", h, pmax, resolution=201)
        worst = max(worst, abs(value - oracle.achieved_rate))
    # pinned instance
    pinned = optimal_powers_jam((0.5, 2.0), (10.0, 10.0))
    pin_ok = (
        pinned.p == (10.0, 1.0)
        and abs(pinned.achieved_rate - math.log2(2.25) / 2.0) <= 1e-9
    )
    elapsed = time.perf_counter() - t0
    labels = ("BOTH_TRANSMIT", "NO_JAM", "JAM_AT_ROOT", "JAM_AT_MAX", "NONE")
    coverage_ok = all(counts[c] >= 50 for c in labels)
    report(
        4,
        len(instances) >= 500 and worst <= 1e-6 and pin_ok and coverage_ok and elapsed < 60.0,
        f"{len(instances)} instances, worst oracle gap {worst:.2e} (tol 1e-6), pinned "
        f"(10,1)@{pinned.achieved_rate:.9f}, cases {dict(counts)}, {elapsed:.1f}s",
    )


def test_criterion_05_case_boundary_continuity():
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(50):
        h1 = float(rng.uniform(0.0, 1.0))
        m1 = float(rng.uniform(0.05, 20.0))
        m2 = float(rng.uniform(0.05, 20.0))
        h2 = (1.0 + h1 * m1) / (1.0 + m1)
        gap = abs(sum_rate((m1, m2), (h1, h2)) - sum_rate((m1, 0.0), (h1, h2)))
        worst = max(worst, gap)
    report(5, worst <= 1e-9, f"threshold-case objective gap {worst:.2e} (tol 1e-9)")


def _ray_limit(region, secret_dir, open_dir=None):
    """Largest multiple of the direction still inside the region."""
    best = math.inf
    for row in region.rows:
        coeff = sum(secret_dir[k - 1] for k in row.subset)
        if open_dir is not None and row.kind == "MAC":
            coeff += sum(open_dir[k - 1] for k in row.subset)
        if coeff > 0.0:
            best = min(best, row.rhs / coeff)
    return best


def test_criterion_06_region_inclusions():
    rng = np.random.default_rng(SEED + 5)
    counterexamples = 0
    checks = 0
    for _ in range(200):
        h = tuple(rng.uniform(0.0, 3.0, 2))
        pmax = tuple(rng.uniform(0.1, 20.0, 2))
        std = StandardChannel(2, h, pmax)
        p = tuple(rng.uniform(0.0, 1.0, 2) * np.asarray(pmax))
        inner = individual_region_at(std, p)
        outer = collective_region_at(std, p)
        # rays scaled to the inner region's boundary keep most samples inside
        sd = tuple(rng.uniform(0.0, 1.0, 2))
        od = tuple(rng.uniform(0.0, 1.0, 2))
        t = float(rng.uniform(0.0, 1.2)) * _ray_limit(inner, sd, od)
        rates = RateVector(tuple(t * v for v in sd), tuple(t * v for v in od))
        if membership(rates, inner, tol=1e-12).ok:
            checks += 1
            if not membership(rates, outer, tol=1e-9).ok:
                counterexamples += 1
        d_lo, d_hi = sorted(rng.uniform(0.05, 1.0, 2))
        lo, hi = delta_region(outer, d_lo), delta_region(outer, d_hi)
        td = tuple(rng.uniform(0.0, 1.0, 2))
        t = float(rng.uniform(0.0, 1.2)) * _ray_limit(hi, td)
        point = DeltaRateVector(tuple(t * v for v in td), d_hi)
        if membership(point, hi, tol=1e-12).ok:
            checks += 1
            if not membership(point, lo, tol=1e-9).ok:
                counterexamples += 1
    report(
        6,
        counterexamples == 0 and checks > 200,
        f"{checks} memberships checked, {counterexamples} inclusion counterexamples",
    )


def test_criterion_07_limit_behavior():
    near_zero_gap = abs(sum_capacity_degraded(1e-6, 10.0) - g(10.0))
    limit = 1.0  # -(1/(2*0.5)) * log2(0.5)
    last = -1.0
    monotone = True
    bounded = True
    rhs_final = 0.0
    for total in np.logspace(0, 6, 10):
        std = StandardChannel(2, (0.5, 0.5), (total / 2, total / 2))
        rhs = delta_region(collective_region_at(std, std.pmax), 0.5).row("SECRECY{1,2}").rhs
        monotone &= rhs >= last - 1e-12
        bounded &= rhs <= limit + 1e-12
        last = rhs
        rhs_final = rhs
    report(
        7,
        near_zero_gap <= 1e-4 and monotone and bounded,
        f"vanishing-gain gap {near_zero_gap:.2e} (tol 1e-4); fractional-secrecy row "
        f"monotone={monotone}, final {rhs_final:.6f} <= bound {limit}",
    )


def test_criterion_08_rate_split_witnesses():
    rng = np.random.default_rng(SEED + 6)
    worst_residual = 0.0
    rejected = 0
    for _ in range(100):
        h = tuple(rng.uniform(0.0, 0.95, 2))
        pmax = tuple(rng.uniform(0.05, 20.0, 2))
        std = StandardChannel(2, h, pmax)
        region = collective_region_at(std, pmax)
        s_total = region.row("SECRECY{1,2}").rhs
        cap1, cap2 = region.row("MAC{1}").rhs, region.row("MAC{2}").rhs
        beta = float(rng.uniform(max(0.0, 1.0 - cap2 / s_total), min(1.0, cap1 / s_total)))
        secret = (beta * s_total, (1.0 - beta) * s_total)
        result = rate_split_collective(std, pmax, RateVector(secret, (0.0, 0.0)))
        assert result.feasible, (h, pmax, beta)
        # re-substitute the witness into every constraint it must satisfy
        worst_residual = max(worst_residual, abs(sum(secret) - s_total))
        cw_full = g(h[0] * pmax[0] + h[1] * pmax[1])
        worst_residual = max(worst_residual, abs(sum(result.extra) - cw_full))
        for members, cap in (((1,), cap1), ((2,), cap2), ((1, 2), region.row("MAC{1,2}").rhs)):
            used = sum(secret[k - 1] + result.extra[k - 1] for k in members)
            worst_residual = max(worst_residual, used - cap)
        beyond = tuple(v * (1.0 + 1e-3) for v in secret)
        if not rate_split_collective(std, pmax, RateVector(beyond, (0.0, 0.0))).feasible:
            rejected += 1
    report(
        8,
        worst_residual <= 1e-12 and rejected == 100,
        f"worst witness residual {worst_residual:.2e} (tol 1e-12), "
        f"{rejected}/100 beyond-boundary points rejected",
    )


def test_criterion_09_scenario_qualitative_claims():
    t0 = time.perf_counter()
    with open(EXAMPLE_CONFIG, "r", encoding="utf-8") as fp:
        config = ScenarioConfig.from_dict(json.load(fp))
    result = sweep(config)
    elapsed = time.perf_counter() - t0
    dominance_violations = sum(
        1 for jam, nojam in zip(result.sumrate_jam.tolist(), result.sumrate_nojam.tolist())
        if jam < nojam - 1e-9
    )
    zero_jam, zero_nojam = result.zero_rate_counts()
    report(
        9,
        dominance_violations == 0 and zero_jam <= zero_nojam and elapsed < 30.0,
        f"{len(result)} cells, {dominance_violations} dominance violations, "
        f"zero-rate cells {zero_jam} (jam) <= {zero_nojam} (no jam), {elapsed:.1f}s",
    )


def test_criterion_10_hull_resolution_stability():
    std = StandardChannel(2, (0.5, 0.5), (2.0, 2.0))
    coarse = region_boundary_2d(std, "COLLECTIVE", power_grid_res=101).max_sum()
    fine = region_boundary_2d(std, "COLLECTIVE", power_grid_res=202).max_sum()
    change = abs(fine - coarse)
    report(10, change <= 1e-4, f"max-sum vertex moved {change:.2e} on doubling (tol 1e-4)")
