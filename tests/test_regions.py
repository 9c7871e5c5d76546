import functools
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_rates import cm, pos_part

from macwiretap import rates
from macwiretap.channel import StandardChannel
from macwiretap.errors import NonDegradedError, ValidationError
from macwiretap.rates import cw, enumerate_subsets, g, subset_label
from macwiretap.regions import (
    DeltaRateVector,
    RateVector,
    BOUNDARY_KINDS,
    SPLIT_TOL,
    _boundary_candidates,
    _box_simplex_candidates,
    _dominated,
    _fixed_power_bounds,
    _subset_bounds,
    _tdma_bound,
    _tdma_bounds,
    _upper_right_hull,
    collective_region_at,
    delta_region,
    individual_region_at,
    membership,
    outer_region_at,
    rate_split_collective,
    rate_split_individual,
    region_boundary_2d,
    sum_capacity_degraded,
    tdma_region_at,
)

RNG_SEED = 8711

STD_HALF = StandardChannel(2, (0.5, 0.5), (2.0, 2.0))

# independent arithmetic for the recurring instance h=(0.5,0.5), P=(2,2)
S1_IND = math.log2(3.0) / 2.0 - 0.5          # g(2) - g(1)
S12_IND = math.log2(5.0) / 2.0 - 1.0         # g(4) - 2 g(1)
S_COL = math.log2(5.0 / 3.0) / 2.0           # g(4) - g(2)
MAC_1 = math.log2(3.0) / 2.0                 # g(2)
MAC_12 = math.log2(5.0) / 2.0                # g(4)


def test_individual_region_rows():
    region = individual_region_at(STD_HALF, (2.0, 2.0))
    assert region.row("SECRECY{1}").rhs == pytest.approx(S1_IND, abs=1e-12)
    assert region.row("SECRECY{2}").rhs == pytest.approx(S1_IND, abs=1e-12)
    assert region.row("SECRECY{1,2}").rhs == pytest.approx(S12_IND, abs=1e-12)
    assert region.row("MAC{1}").rhs == pytest.approx(MAC_1, abs=1e-12)
    assert region.row("MAC{1,2}").rhs == pytest.approx(MAC_12, abs=1e-12)
    assert len(region.rows) == 6  # 2 * (2^2 - 1)
    with pytest.raises(KeyError):
        region.row("SECRECY{3}")


def test_individual_region_clamps_bad_channel():
    region = individual_region_at(StandardChannel(2, (2.0, 2.0), (1.0, 1.0)), (1.0, 1.0))
    assert all(row.rhs == 0.0 for row in region.secrecy_rows())


def test_collective_region_rows():
    region = collective_region_at(STD_HALF, (2.0, 2.0))
    assert len(region.secrecy_rows()) == 1
    assert region.row("SECRECY{1,2}").rhs == pytest.approx(S_COL, abs=1e-12)
    assert region.row("MAC{2}").rhs == pytest.approx(MAC_1, abs=1e-12)

    flat = collective_region_at(StandardChannel(2, (1.0, 1.0), (9.0, 9.0)), (3.0, 7.0))
    assert flat.row("SECRECY{1,2}").rhs == 0.0

    deaf = collective_region_at(StandardChannel(2, (0.0, 0.0), (1.0, 3.0)), (1.0, 3.0))
    assert deaf.row("SECRECY{1,2}").rhs == pytest.approx(g(4.0), abs=1e-12)


def test_region_rejects_infeasible_power():
    with pytest.raises(ValidationError):
        individual_region_at(STD_HALF, (2.0, 2.5))
    with pytest.raises(ValidationError):
        collective_region_at(STD_HALF, (-0.1, 1.0))


def test_tdma_region_rows():
    region = tdma_region_at(STD_HALF, (2.0, 2.0), (0.5, 0.5))
    expected = 0.25 * math.log2(5.0 / 3.0)  # half of g(2/3)
    for label in ("SECRECY{1}", "SECRECY{2}"):
        assert region.row(label).rhs == pytest.approx(expected, abs=1e-12)
    assert region.row("MAC{1}").rhs == pytest.approx(0.5 * g(4.0), abs=1e-12)


def test_tdma_single_user_collapse():
    region = tdma_region_at(STD_HALF, (2.0, 2.0), (1.0, 0.0))
    assert region.row("SECRECY{2}").rhs == 0.0
    assert region.row("MAC{2}").rhs == 0.0
    expected = g((1.0 - 0.5) * 2.0 / (1.0 + 0.5 * 2.0))
    assert region.row("SECRECY{1}").rhs == pytest.approx(expected, abs=1e-12)


def test_tdma_clamps_bad_gains():
    region = tdma_region_at(
        StandardChannel(2, (2.0, 2.0), (5.0, 5.0)), (5.0, 5.0), (0.3, 0.7)
    )
    assert all(row.rhs == 0.0 for row in region.secrecy_rows())
    assert all(row.rhs > 0.0 for row in region.mac_rows())


def test_tdma_rejects_bad_shares():
    with pytest.raises(ValidationError):
        tdma_region_at(STD_HALF, (2.0, 2.0), (0.6, 0.6))
    with pytest.raises(ValidationError):
        tdma_region_at(STD_HALF, (2.0, 2.0), (1.2, -0.2))


def test_outer_collective_matches_achievable_when_degraded():
    outer = outer_region_at(STD_HALF, (2.0, 2.0), "COLLECTIVE")
    inner = collective_region_at(STD_HALF, (2.0, 2.0))
    assert outer.row("SECRECY{1,2}").rhs == inner.row("SECRECY{1,2}").rhs
    assert outer.row("SECRECY{1,2}").rhs == pytest.approx(S_COL, abs=1e-12)


def test_outer_individual_rows():
    outer = outer_region_at(STD_HALF, (2.0, 2.0), "INDIVIDUAL")
    assert outer.row("SECRECY{1}").rhs == pytest.approx(S1_IND, abs=1e-12)
    # no joint secrecy row in the individual outer bound
    assert len(outer.secrecy_rows()) == 2
    assert len(outer.mac_rows()) == 3


def test_outer_rejects_non_degraded():
    with pytest.raises(NonDegradedError):
        outer_region_at(StandardChannel(2, (0.5, 2.0), (2.0, 2.0)), (1.0, 1.0), "COLLECTIVE")
    with pytest.raises(NonDegradedError):
        outer_region_at(StandardChannel(2, (1.2, 1.2), (2.0, 2.0)), (1.0, 1.0), "INDIVIDUAL")


def test_delta_region_scaling():
    base = collective_region_at(STD_HALF, (2.0, 2.0))
    scaled = delta_region(base, 0.5)
    assert scaled.row("SECRECY{1,2}").rhs == pytest.approx(2.0 * S_COL, abs=1e-12)
    assert scaled.row("MAC{1,2}").rhs == pytest.approx(MAC_12, abs=1e-12)
    assert scaled.coordinates == "total"
    assert scaled.delta == 0.5

    identity = delta_region(base, 1.0)
    assert [r.rhs for r in identity.rows] == [r.rhs for r in base.rows]


def test_delta_region_small_delta_mac_dominates():
    base = collective_region_at(STD_HALF, (2.0, 2.0))
    scaled = delta_region(base, 0.01)
    assert scaled.row("SECRECY{1,2}").rhs > scaled.row("MAC{1,2}").rhs


def test_delta_region_rejections():
    base = collective_region_at(STD_HALF, (2.0, 2.0))
    with pytest.raises(ValidationError):
        delta_region(base, 0.0)
    with pytest.raises(ValidationError):
        delta_region(base, 1.5)
    with pytest.raises(ValidationError):
        delta_region(delta_region(base, 0.5), 0.5)
    # a secrecy bound over a subnormal delta overflows: the refusal names
    # delta, not the row it would have made
    with pytest.raises(ValidationError, match=r"^delta 1e-310 too small"):
        delta_region(base, 1e-310)


def test_membership_basics():
    region = collective_region_at(STD_HALF, (2.0, 2.0))
    ok, violated = membership(RateVector((0.0, 0.0), (0.0, 0.0)), region, tol=1e-9)
    assert ok and violated is None

    ok, violated = membership(RateVector((0.369, 0.0), (0.0, 0.0)), region, tol=1e-6)
    assert not ok and violated == "SECRECY{1,2}"

    inner = individual_region_at(STD_HALF, (2.0, 2.0))
    ok, violated = membership(RateVector((0.16, 0.0), (0.0, 0.0)), inner, tol=1e-6)
    assert ok

    # a NaN tol once made every row's comparison false, so every point a member
    with pytest.raises(ValidationError, match="^tol must be a finite nonnegative number"):
        membership(RateVector((100.0, 100.0), (0.0, 0.0)), region, tol=math.nan)


def test_membership_coordinate_guards():
    region = collective_region_at(STD_HALF, (2.0, 2.0))
    with pytest.raises(ValidationError):
        membership(DeltaRateVector((0.1, 0.1), 0.5), region)
    with pytest.raises(ValidationError):
        membership(RateVector((0.1,), (0.0,)), region)
    scaled = delta_region(region, 0.5)
    with pytest.raises(ValidationError):
        membership(RateVector((0.1, 0.1), (0.0, 0.0)), scaled)
    with pytest.raises(ValidationError, match="^unsupported rate vector type tuple$"):
        membership((0.1, 0.1), region)


def _first_violated(point, region, tol):
    """Reference membership: the label of the first row whose subset sum of
    the point's rates (total rates, or secret rates plus open rates on MAC
    rows) exceeds its rhs by more than tol, or None."""
    def used(row):
        if isinstance(point, DeltaRateVector):
            return sum(point.total[k - 1] for k in row.subset)
        return sum(point.secret[k - 1] + (point.open[k - 1] if row.kind == "MAC" else 0.0) for k in row.subset)

    return next((r.label for r in region.rows if used(r) > r.rhs + tol), None)


def test_individual_membership_implies_collective():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(100):
        h = tuple(rng.uniform(0.0, 3.0, 2))
        pmax = tuple(rng.uniform(0.1, 10.0, 2))
        std = StandardChannel(2, h, pmax)
        p = tuple(rng.uniform(0.0, 1.0, 2) * np.asarray(pmax))
        inner = individual_region_at(std, p)
        outer = collective_region_at(std, p)
        scale = max(r.rhs for r in inner.mac_rows())
        rates = RateVector(
            tuple(rng.uniform(0.0, scale, 2)), tuple(rng.uniform(0.0, scale, 2))
        )
        if membership(rates, inner, tol=1e-12).ok:
            assert membership(rates, outer, tol=1e-9).ok
        # both vector types agree with the reference sum, row for row, on a
        # box around the region's smallest positive bound, so both outcomes occur
        delta = rng.uniform(0.1, 1.0)
        for region in (inner, outer, delta_region(inner, delta), delta_region(outer, delta)):
            side = 2.0 * min((r.rhs for r in region.rows if r.rhs > 0.0), default=0.0)
            if region.delta is None:
                point = RateVector(tuple(rng.uniform(0.0, side, 2)), tuple(rng.uniform(0.0, side, 2)))
            else:
                point = DeltaRateVector(tuple(rng.uniform(0.0, side, 2)), delta)
            violated = _first_violated(point, region, 1e-9)
            assert membership(point, region, tol=1e-9) == (violated is None, violated)


def test_delta_monotonicity():
    rng = np.random.default_rng(RNG_SEED + 1)
    base = collective_region_at(STD_HALF, (2.0, 2.0))
    lo = delta_region(base, 0.4)
    hi = delta_region(base, 0.8)
    for _ in range(200):
        point = DeltaRateVector(tuple(rng.uniform(0.0, 1.3, 2)), 0.8)
        if membership(point, hi, tol=1e-12).ok:
            assert membership(point, lo, tol=1e-9).ok


def test_sum_capacity_degraded_values():
    assert sum_capacity_degraded(0.5, 4.0) == pytest.approx(S_COL, abs=1e-12)
    assert sum_capacity_degraded(0.0, 3.0) == pytest.approx(1.0, abs=1e-15)
    assert sum_capacity_degraded(0.5, 0.0) == 0.0
    with pytest.raises(ValidationError):
        sum_capacity_degraded(1.0, 2.0)


def test_sum_capacity_matches_collective_rhs():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(50):
        h = float(rng.uniform(0.0, 1.0))
        p = tuple(rng.uniform(0.05, 20.0, 2))
        std = StandardChannel(2, (h, h), p)
        rhs = collective_region_at(std, p).row("SECRECY{1,2}").rhs
        assert rhs == pytest.approx(sum_capacity_degraded(h, sum(p)), abs=1e-12)


def test_tdma_optimal_share_achieves_sum_capacity():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(50):
        h = float(rng.uniform(0.0, 1.0))
        p = tuple(rng.uniform(0.05, 20.0, 2))
        std = StandardChannel(2, (h, h), p)
        alpha = (p[0] / sum(p), p[1] / sum(p))
        region = tdma_region_at(std, p, alpha)
        total = sum(r.rhs for r in region.secrecy_rows())
        assert total == pytest.approx(sum_capacity_degraded(h, sum(p)), abs=1e-9)


def test_boundary_collective_max_sum():
    boundary = region_boundary_2d(STD_HALF, "COLLECTIVE", delta=1.0, power_grid_res=50)
    assert boundary.max_sum() == pytest.approx(S_COL, abs=1e-6)


def test_boundary_zero_power_degenerates_to_origin():
    std = StandardChannel(2, (0.5, 0.5), (0.0, 0.0))
    boundary = region_boundary_2d(std, "COLLECTIVE")
    assert boundary.vertices == ((0.0, 0.0),)
    assert boundary.contains((0.0, 0.0)) and boundary.contains((1e-10, -1e-10))
    assert not boundary.contains((1e-3, 0.0)) and not boundary.contains((0.0, 1e-3))


def test_boundary_vertices_ccw_and_convex():
    boundary = region_boundary_2d(STD_HALF, "INDIVIDUAL", power_grid_res=41)
    poly = [(0.0, 0.0)] + list(boundary.vertices)
    n = len(poly)
    for i in range(n):
        ox, oy = poly[i]
        ax, ay = poly[(i + 1) % n]
        bx, by = poly[(i + 2) % n]
        cross = (ax - ox) * (by - oy) - (ay - oy) * (bx - ox)
        assert cross >= -1e-12


@pytest.mark.parametrize(
    "kind", ["INDIVIDUAL", "COLLECTIVE", "TDMA", "UNION_I_T", "OUTER_INDIVIDUAL", "OUTER_COLLECTIVE"]
)
def test_boundary_grows_with_resolution(kind):
    coarse = region_boundary_2d(STD_HALF, kind, power_grid_res=21, alpha_grid_res=21)
    fine = region_boundary_2d(STD_HALF, kind, power_grid_res=41, alpha_grid_res=41)
    for vertex in coarse.vertices:
        assert fine.contains(vertex, tol=1e-9), (kind, vertex)


def _linspace_axes(std, res):
    """The res-point power axes from 0 to pmax; an overflow in linspace's
    step product is harmless, since the last point is pmax exactly."""
    with np.errstate(all="ignore"):
        return [np.linspace(0.0, pmax, res) for pmax in std.pmax]


def _grid_bounds(std, kind, delta, axes):
    """(u1, u2, u12) of ``_fixed_power_bounds`` over the whole grid of the
    two power axes: its row blocks joined."""
    blocks = list(_fixed_power_bounds(std, kind, delta, *axes))
    return (np.concatenate([b[0] for b in blocks]), blocks[0][1],
            np.concatenate([b[2] for b in blocks]))


def _all_corners(bounds):
    """Every cell's four box-simplex corners, unfiltered, as (4 * cells, 2)
    rows: the (x_ax, 0) block, then (0, y_ax), (x_ax, c1y) and (c2x, y_ax).
    The bounds are broadcast to one value per cell, in row-major order."""
    u1, u2, u12 = (b.ravel() for b in np.broadcast_arrays(*bounds))
    x_ax, y_ax = np.minimum(u1, u12), np.minimum(u2, u12)
    c1y, c2x = np.minimum(u2, u12 - x_ax), np.minimum(u1, u12 - y_ax)
    zeros = np.zeros_like(x_ax)
    return np.column_stack([np.concatenate([x_ax, zeros, x_ax, c2x]),
                            np.concatenate([zeros, y_ax, c1y, y_ax])])


def test_boundary_contains_generators():
    candidates = _all_corners(_grid_bounds(STD_HALF, "COLLECTIVE", 1.0, _linspace_axes(STD_HALF, 21)))
    boundary = region_boundary_2d(STD_HALF, "COLLECTIVE", power_grid_res=21)
    for point in candidates:
        assert boundary.contains(point, tol=1e-9)


def test_boundary_union_contains_both_families():
    tdma = region_boundary_2d(STD_HALF, "TDMA", power_grid_res=31, alpha_grid_res=31)
    indiv = region_boundary_2d(STD_HALF, "INDIVIDUAL", power_grid_res=31, alpha_grid_res=31)
    union = region_boundary_2d(STD_HALF, "UNION_I_T", power_grid_res=31, alpha_grid_res=31)
    for vertex in tdma.vertices + indiv.vertices:
        assert union.contains(vertex, tol=1e-9)


def test_boundary_contains_refuses_a_point_or_tol_that_is_no_number():
    # every comparison with NaN is false, so a NaN point once passed each
    # edge test and was reported inside
    boundary = region_boundary_2d(STD_HALF, "INDIVIDUAL", power_grid_res=11)
    for point in [(math.nan, 0.0), (math.nan, math.nan), (1e9, math.nan), (math.inf, 0.0),
                  (0.0, -math.inf), ("1", 0.0), (True, 0.0), "1", (0.0,)]:
        with pytest.raises(ValidationError, match="^point must be "):
            boundary.contains(point)
    for tol in (math.nan, math.inf, -1e-9, "1", True):
        with pytest.raises(ValidationError, match="^tol must be "):
            boundary.contains((0.0, 0.0), tol=tol)


def test_boundary_contains_on_a_segment_and_outside_a_polygon():
    # user 2's gain above one leaves it no secret rate: the boundary runs
    # from one vertex on the rate-1 axis to the origin, and the region is
    # the segment between them
    segment = region_boundary_2d(StandardChannel(2, (0.5, 2.0), (2.0, 2.0)), "INDIVIDUAL", power_grid_res=11)
    (x, _), = segment.vertices[:1]
    assert segment.vertices == ((x, 0.0), (0.0, 0.0)) and x == pytest.approx(S1_IND)
    for point in [(0.0, 0.0), (x / 2, 0.0), (x, 0.0), (x + 1e-10, 1e-10)]:
        assert segment.contains(point), point
    for point in [(x + 1e-3, 0.0), (x / 2, 1e-3), (-1e-3, 0.0), (0.0, -1e-3)]:
        assert not segment.contains(point), point
    polygon = region_boundary_2d(STD_HALF, "INDIVIDUAL", power_grid_res=11)
    assert polygon.contains((0.1, 0.1))
    for point in [(-1e-3, 0.1), (0.1, -1e-3), (S1_IND, S1_IND), (1.0, 0.0)]:
        assert not polygon.contains(point), point


def test_boundary_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        region_boundary_2d(StandardChannel(3, (0.5,) * 3, (1.0,) * 3), "COLLECTIVE")
    with pytest.raises(ValidationError):
        region_boundary_2d(STD_HALF, "COLLECTIVE", delta=0.0)
    with pytest.raises(ValidationError):
        region_boundary_2d(STD_HALF, "NOT_A_KIND")
    with pytest.raises(NonDegradedError):
        region_boundary_2d(StandardChannel(2, (0.5, 2.0), (1.0, 1.0)), "OUTER_COLLECTIVE")
    for res in ((1, 101), (101, 1)):
        with pytest.raises(ValidationError, match="^grid resolutions must be at least 2$"):
            region_boundary_2d(STD_HALF, "TDMA", 1.0, *res)


def test_delta_collective_rhs_monotone_and_bounded():
    # fractional secrecy 1/2 at common gain 1/2: the secrecy row grows with
    # power but never beyond 1 bit
    limit = 1.0
    last = -1.0
    for total in np.logspace(-1, 6, 10):
        std = StandardChannel(2, (0.5, 0.5), (total / 2, total / 2))
        region = delta_region(collective_region_at(std, std.pmax), 0.5)
        rhs = region.row("SECRECY{1,2}").rhs
        assert rhs >= last - 1e-12
        assert rhs <= limit + 1e-12
        last = rhs


def test_serialization_is_deterministic():
    a = collective_region_at(STD_HALF, (2.0, 2.0)).to_json_dict()
    b = collective_region_at(STD_HALF, (2.0, 2.0)).to_json_dict()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert [r["label"] for r in a["rows"]] == [
        "SECRECY{1,2}", "MAC{1}", "MAC{2}", "MAC{1,2}",
    ]
    assert a["rows"][0]["subset_mask"] == 0b11


def test_boundary_csv_format():
    boundary = region_boundary_2d(STD_HALF, "COLLECTIVE", power_grid_res=21)
    text = boundary.to_csv_string()
    lines = text.strip().split("\n")
    assert lines[0] == "R1,R2"
    assert len(lines) == len(boundary.vertices) + 1


REGION_AT = {
    "INDIVIDUAL": individual_region_at,
    "COLLECTIVE": collective_region_at,
    "OUTER_INDIVIDUAL": lambda std, p: outer_region_at(std, p, "INDIVIDUAL"),
    "OUTER_COLLECTIVE": lambda std, p: outer_region_at(std, p, "COLLECTIVE"),
}


def _scalar_rows(kind, std, p, alpha):
    """Every row's right-hand side by label, composed from the scalar rate
    functions alone."""
    if kind == "TDMA":
        rows = {}
        for k, (h, pk, a) in enumerate(zip(std.h, p, alpha), start=1):
            rows[f"SECRECY{{{k}}}"] = a * g(pos_part((1.0 - h) * pk / (a + h * pk))) if a else 0.0
            rows[f"MAC{{{k}}}"] = a * g(pk / a) if a else 0.0
        return rows
    full = frozenset(range(1, std.num_users + 1))
    rows = {}
    for subset in enumerate_subsets(std.num_users)[1:]:
        label = subset_label(subset)
        rows["MAC" + label] = cm(p, subset)
        if kind == "INDIVIDUAL" or (kind == "OUTER_INDIVIDUAL" and len(subset) == 1):
            eaves = sum(cw(p, std.h, {k}) for k in subset)
            rows["SECRECY" + label] = pos_part(cm(p, subset) - eaves)
        elif kind in ("COLLECTIVE", "OUTER_COLLECTIVE") and subset == full:
            rows["SECRECY" + label] = pos_part(cm(p, full) - cw(p, std.h, full))
    return rows


def _canonical_row_order(row):
    # SECRECY rows first, then by subset size, then lexicographically
    return (0 if row.kind == "SECRECY" else 1, len(row.subset), sorted(row.subset))


def test_region_rows_match_the_scalar_rate_functions():
    # every fixed-power kind, K = 1..6, with and without delta_region: the
    # rows are in canonical order, finite and nonnegative, and each equals
    # its scalar composition
    rng = np.random.default_rng(RNG_SEED)
    for num_users in range(1, 7):
        for trial in range(30):
            degraded = trial % 2 == 0
            if degraded:
                h = (float(rng.uniform(0.0, 1.0)),) * num_users
            else:
                h = tuple(rng.uniform(0.0, 2.0, num_users).tolist())
            pmax = tuple(rng.uniform(0.0, 20.0, num_users).tolist())
            p = tuple((rng.uniform(0.0, 1.0, num_users) * pmax).tolist())
            shares = rng.dirichlet(np.ones(num_users))
            if trial % 5 == 0 and num_users > 1:
                shares[0] = 0.0
            alpha = tuple((shares / shares.sum()).tolist())
            std = StandardChannel(num_users, h, pmax)
            regions = {"TDMA": tdma_region_at(std, p, alpha)}
            for kind, region_at in REGION_AT.items():
                if degraded or not kind.startswith("OUTER"):
                    regions[kind] = region_at(std, p)
            delta = float(rng.uniform(0.05, 1.0))
            for kind, region in regions.items():
                expected = _scalar_rows(kind, std, p, alpha)
                for scale, rows in ((1.0, region.rows), (delta, delta_region(region, delta).rows)):
                    assert rows == tuple(sorted(rows, key=_canonical_row_order)), kind
                    assert all(math.isfinite(row.rhs) and row.rhs >= 0.0 for row in rows), kind
                    got = {row.label: row.rhs for row in rows}
                    assert got.keys() == expected.keys(), kind
                    for label, rhs in expected.items():
                        want = rhs / scale if label.startswith("SECRECY") else rhs
                        assert abs(got[label] - want) <= 1e-12, (kind, label, h, p)


@pytest.mark.parametrize("kind", list(REGION_AT))
def test_fixed_power_candidates_are_the_corners_of_each_region(kind):
    # the boundary's candidates at grid power p are the vertices of the box
    # and simplex that the fixed-power region at p cuts out in total rates
    std = StandardChannel(2, (0.4, 0.4) if kind.startswith("OUTER") else (0.3, 0.8), (3.0, 5.0))
    res = 11
    axes = _linspace_axes(std, res)
    rng = np.random.default_rng(RNG_SEED)
    cells = [0, res * res - 1] + rng.choice(res * res, 12, replace=False).tolist()
    for delta in (1.0, 0.4):
        candidates = _all_corners(_grid_bounds(std, kind, delta, axes))
        for cell in cells:
            i, j = divmod(cell, res)
            p = (float(axes[0][i]), float(axes[1][j]))
            caps = {}
            for row in delta_region(REGION_AT[kind](std, p), delta).rows:
                caps[row.subset] = min(caps.get(row.subset, math.inf), row.rhs)
            u1, u2, u12 = caps[frozenset({1})], caps[frozenset({2})], caps[frozenset({1, 2})]
            x, y = min(u1, u12), min(u2, u12)
            corners = [(x, 0.0), (0.0, y), (x, min(u2, u12 - x)), (min(u1, u12 - y), y)]
            got = candidates[[cell + block * res * res for block in range(4)]]
            np.testing.assert_allclose(got, corners, rtol=0.0, atol=1e-12)


def test_boundary_vertices_match_the_reference_lists():
    # vertex lists computed by the earlier implementation, which wrote the
    # array bounds apart from the scalar ones
    cases = json.loads((Path(__file__).parent / "golden_vertices.json").read_text())
    for case in cases:
        std = StandardChannel(2, case["h"], case["pmax"])
        got = region_boundary_2d(std, case["kind"], power_grid_res=case["res"]).vertices
        assert len(got) == len(case["vertices"]), case["kind"]
        np.testing.assert_allclose(got, case["vertices"], rtol=0.0, atol=1e-12)


def _two_chain_hull(points):
    # the lower and upper monotone chains over every distinct point, as the
    # hull ran before the Pareto staircase: an independent reference, up to
    # the rounding of turns that its other cross products judge differently
    pts = np.unique(points, axis=0)
    if pts.shape[0] == 1:
        return [(float(pts[0, 0]), float(pts[0, 1]))]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in map(tuple, pts):
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0.0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in map(tuple, pts[::-1]):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0.0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    xmax = max(p[0] for p in hull)
    ymax = max(p[1] for p in hull)
    start = hull.index(min((p for p in hull if p[0] == xmax), key=lambda p: p[1]))
    end = hull.index(min((p for p in hull if p[1] == ymax), key=lambda p: p[0]))
    if start == end:
        return [hull[start]]
    if start < end:
        return hull[start : end + 1]
    return hull[start:] + hull[: end + 1]


def _unfiltered_hull(points):
    # the staircase chain over every point, as it ran before the bin filter:
    # the reference the filtered hull must reproduce bit for bit
    order = np.lexsort((points[:, 1], points[:, 0]))[::-1]
    x, y = points[order, 0], points[order, 1]
    stair = np.concatenate([
        [np.count_nonzero(x == x[0]) - 1, 0],
        1 + np.flatnonzero(y[1:] > np.maximum.accumulate(y[:-1])),
        [np.flatnonzero(y == y.max())[-1]],
    ])

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    chain = []
    for p in map(tuple, points[order[stair]].tolist()):
        if chain and p == chain[-1]:
            continue
        while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0.0:
            chain.pop()
        chain.append(p)
    return chain


def _hull_clouds(rng):
    """Point clouds with the ties and degeneracies a hull can trip on; like
    the boundary candidates, each but the lone point holds the origin."""
    x, y = rng.uniform(0.1, 2.0, 2)
    n = int(rng.integers(1, 40))
    t = rng.uniform(0.0, 1.0, n)
    zeros = np.zeros(n)
    arc = rng.uniform(0.0, np.pi / 2, n)
    frontier = np.column_stack([np.cos(arc), np.sin(arc)]) * (1.0 + rng.choice([0.0, 1e-16], (n, 1)))
    steps = rng.integers(0, 4, n) / 3.0
    edges = x * rng.integers(0, 1025, 4 * n) / 1024
    line = np.sort(rng.uniform(0.0, 1.0, 20 * n)) * x
    clouds = {
        "duplicates": rng.integers(0, 4, (n, 2)) / 3.0,
        "ties_at_the_maxima": np.vstack([np.column_stack([np.full(n, x), t * y]),
                                         np.column_stack([t * x, np.full(n, y)]),
                                         rng.uniform(0.0, 1.0, (n, 2)) * [x, y]]),
        "collinear_runs": np.vstack([np.column_stack([t * x, zeros]),
                                     np.column_stack([zeros, t * y]),
                                     np.column_stack([t * x, (1.0 - t) * y])]),
        "all_zero": np.zeros((n, 2)),
        # axis intercepts one ulp apart, and a corner a hair above the axis
        "near_ulp_ties": np.vstack([[[0.0, y], [0.0, np.nextafter(y, 3.0)], [x, 0.0],
                                     [x, 5.6e-17], [np.nextafter(x, 0.0), 1e-300]],
                                    rng.uniform(0.0, 1.0, (n, 2)) * [x, y]]),
        "near_ulp_frontier": np.vstack([frontier, frontier * rng.uniform(0.0, 1.0, (n, 1))]),
        "rate_1_axis": np.column_stack([steps * x, zeros]),
        "rate_2_axis": np.column_stack([zeros, steps * y]),
        # one point holds both maxima, possibly twice
        "both_maxima": np.vstack([rng.uniform(0.0, 1.0, (n, 2)) * [x, y], [[x, y]] * int(rng.integers(1, 3))]),
        "duplicate_column": np.vstack([rng.uniform(0.0, 1.0, (n, 2)) * [x, y], np.column_stack(
            [np.full(n + 1, x), rng.integers(0, 3, n + 1) / 2.0 * y])]),
        # rate 1 on the edges x = xmax * k / 1024 of a 1024-bin filter, rate 2 tied
        "bin_edges": np.vstack([[[x, 0.0]], np.column_stack([edges, rng.integers(0, 5, 4 * n) / 4.0 * y])]),
        # a largest rate 1 of the smallest subnormal, and of a larger one.  At
        # 5e-324 rate 2 is integral: a product of 5e-324 with a fraction
        # underflows, and the two-chain reference, which forms other
        # products than the staircase chain, then rounds some turns apart
        "smallest_subnormal": np.column_stack([rng.integers(0, 2, n) * 5e-324, rng.integers(0, 5, n) * 1.0]),
        "subnormal": np.column_stack([np.append(t, 1.0) * 1e-310, np.append(steps, 0.5) * y]),
        # one rate near the float maximum, the other small enough that no
        # cross product of the chain overflows
        "near_float_max_rate_1": np.vstack([[[1.7e308, 0.0]], np.column_stack([t * 1.7e308, steps * 0.5])]),
        "near_float_max_rate_2": np.vstack([[[0.0, 1.6e308]], np.column_stack([steps * 0.5, t * 1.6e308])]),
        # the equal-gain outer-collective shape: a dense frontier x + y ~ c
        "near_line": np.column_stack([line, x - line]),
    }
    clouds = {name: np.vstack([pts, [[0.0, 0.0]]]) for name, pts in clouds.items()}
    return {**clouds, "lone_point": np.array([[x, y]])}


def _evaluated_cells(std, kind, res):
    """The power cells a boundary evaluates: a user's axis is pmax alone
    where ``_dominated`` holds, res points otherwise; none for TDMA."""
    if kind == "TDMA":
        return 0
    fixed = "INDIVIDUAL" if kind == "UNION_I_T" else kind
    return math.prod(a.size for a in _evaluated_axes(std, fixed, res))


def _full_grid_corners(std, kind, delta, res, alpha_res):
    """All candidates of a boundary, unfiltered, over the full res x res
    power grid and the share grid, whose cells have no joint row
    (u12 = +inf), with the origin."""
    bounds = []
    if kind != "TDMA":
        fixed = "INDIVIDUAL" if kind == "UNION_I_T" else kind
        bounds.append(_grid_bounds(std, fixed, delta, _linspace_axes(std, res)))
    if kind in ("TDMA", "UNION_I_T"):
        bounds.append((*_tdma_bounds(std, delta, alpha_res), np.inf))
    return np.vstack([_all_corners(b) for b in bounds] + [[[0.0, 0.0]]])


def _boundary_cases(rng):
    """Per kind, a seeded boundary, all candidates of its full power grid,
    unfiltered, and the generators it evaluates."""
    out = {}
    for kind in BOUNDARY_KINDS:
        if kind.startswith("OUTER"):
            h = (float(rng.uniform(0.0, 1.0)),) * 2
        else:
            h = tuple(float(v) for v in rng.choice([0.0, 1.0, rng.uniform(0, 1), rng.uniform(1, 3)], 2))
        std = StandardChannel(2, h, tuple(float(v) for v in 10.0 ** rng.uniform(-1.0, 1.5, 2)))
        delta = float(rng.choice([1.0, rng.uniform(0.1, 1.0)]))
        res, alpha_res = (int(v) for v in rng.integers(2, 24, 2))
        boundary = region_boundary_2d(std, kind, delta, res, alpha_res)
        tdma = alpha_res if kind in ("TDMA", "UNION_I_T") else 0
        generators = 1 + 4 * (_evaluated_cells(std, kind, res) + tdma)
        out[kind] = boundary, _full_grid_corners(std, kind, delta, res, alpha_res), generators
    return out


def _hex(vertices):
    return [(float(x).hex(), float(y).hex()) for x, y in vertices]


def test_pareto_prefiltered_hull_matches_the_unfiltered_chain():
    # the collapsed power axes, the collapsed axis families and the row and
    # column maxima only drop points that cannot reach the staircase, so
    # every vertex is bitwise that of the full grid
    rng = np.random.default_rng(RNG_SEED)
    for trial in range(60):
        clouds = _hull_clouds(rng)
        cases = _boundary_cases(rng)
        pairs = [(name, _upper_right_hull(points[:, 0], points[:, 1]), points)
                 for name, points in clouds.items()]
        pairs += [(kind, boundary.vertices, corners) for kind, (boundary, corners, _) in cases.items()]
        for name, got, points in pairs:
            assert _hex(got) == _hex(_unfiltered_hull(points)), (trial, name)
            want = _two_chain_hull(points)
            assert len(got) == len(want), (trial, name)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12, err_msg=f"{trial} {name}")
        for kind, (boundary, _, generators) in cases.items():
            assert boundary.generator_count == generators, (trial, kind)


def test_candidates_are_the_row_and_column_maxima():
    # a 3 x 3 power-grid block, u1 along the rows and u2 along the columns.
    # Row 2 has u12 <= u1 in every cell, so its c1y are all 0 and its
    # candidate is (max x_ax, 0) = (max u12, 0), not (u1, 0); column 2 has
    # u12 <= u2 in every cell likewise
    u1, u2 = np.array([[1.0], [2.0], [4.0]]), np.array([[0.5, 2.0, 5.0]])
    u12 = np.array([[1.5, 2.5, 3.5], [2.0, 3.0, 1.0], [3.0, 3.5, 2.0]])
    # x_ax [[1, 1, 1], [2, 2, 1], [3, 3.5, 2]], c1y [[.5, 1.5, 2.5], [0, 1, 0], [0, 0, 0]]
    # y_ax [[.5, 2, 3.5], [.5, 2, 1], [.5, 2, 2]], c2x [[1, .5, 0], [1.5, 1, 0], [2.5, 1.5, 0]]
    x_ax, c1y, c2x, y_ax = _box_simplex_candidates(u1, u2, u12)
    assert (x_ax.tolist(), c1y.tolist()) == ([1.0, 2.0, 3.5], [2.5, 1.0, 0.0])
    assert (c2x.tolist(), y_ax.tolist()) == ([2.5, 1.5, 0.0], [0.5, 2.0, 3.5])
    # one row: its row maximum, and every column as it is
    x_ax, c1y, c2x, y_ax = _box_simplex_candidates(u1[:1], u2, u12[:1])
    assert (x_ax.tolist(), c1y.tolist()) == ([1.0], [2.5])
    assert (c2x.tolist(), y_ax.tolist()) == ([1.0, 0.5, 0.0], [0.5, 2.0, 3.5])


def _full_grid_bounds(std, kind, delta, axes):
    """The bounds of _fixed_power_bounds with every term evaluated per cell,
    on the raveled meshgrid of the two power axes, or None when a MAC bound
    overflows."""
    with np.errstate(all="ignore"):
        grid = np.meshgrid(*axes, indexing="ij")
        bounds = _subset_bounds(kind, std.h, [p.ravel() for p in grid])
        if not all(np.isfinite(mac).all() for _, _, mac in bounds):
            return None
        return [mac if s is None else np.minimum(s / delta, mac) for _, s, mac in bounds]


def _hex_cells(values):
    return list(map(float.hex, np.ravel(values).tolist()))


def test_per_axis_bounds_match_the_full_grid_bitwise():
    # a single-user term is evaluated once per axis and broadcast; each cell
    # still sees the same operations on the same inputs
    rng = np.random.default_rng(RNG_SEED)
    for trial in range(120):
        kind = list(REGION_AT)[trial % len(REGION_AT)]
        h = tuple(float(v) for v in rng.choice([0.0, 1.0, rng.uniform(0, 1), rng.uniform(1, 3)], 2))
        pmax = tuple(float(rng.choice([0.0, 10.0 ** rng.uniform(-3, 3), 10.0 ** rng.uniform(-320, 308)]))
                     for _ in range(2))
        delta = float(rng.choice([1.0, rng.uniform(0.01, 1.0)]))
        res = int(rng.integers(2, 102))
        std = StandardChannel(2, h, pmax)
        axes = _linspace_axes(std, res)
        want = _full_grid_bounds(std, kind, delta, axes)
        if want is None:
            with pytest.raises(ValidationError, match="pmax .* overflows"):
                _grid_bounds(std, kind, delta, axes)
            continue
        got = np.broadcast_arrays(*_grid_bounds(std, kind, delta, axes))
        for name, got_u, want_u in zip(("u1", "u2", "u12"), got, want):
            assert got_u.shape == (res, res)
            assert _hex_cells(got_u) == _hex_cells(want_u), (trial, kind, h, pmax, delta, res, name)


def _tdma_draws():
    """The input of the ulp case below, then seeded inputs with pmax below
    1e9: gains 0, 1, within 1e-15 of 1, below and above 1; delta down to
    1e-6; power res 2 to 400 and alpha res 2 to 201."""
    h, pmax = 0.52193896907896, 4.5438663135699214e283
    rng = np.random.default_rng(RNG_SEED + 22)
    draws = [((h, h), (pmax, pmax), 1.0, 327, 21)]
    for _ in range(150):
        gains = [0.0, 1.0, 1.0 + rng.uniform(-1e-15, 1e-15), rng.uniform(0.0, 1.0), rng.uniform(1.0, 3.0)]
        draws.append((tuple(float(v) for v in rng.choice(gains, 2)),
                       tuple(float(v) for v in 10.0 ** rng.uniform(-3.0, 9.0, 2)),
                       float(rng.choice([1.0, rng.uniform(0.01, 1.0), 10.0 ** rng.uniform(-6.0, 0.0)])),
                       int(rng.integers(2, 401)), int(rng.integers(2, 202))))
    return draws


def test_tdma_share_bounds_are_the_bounds_at_full_power():
    # both bounds of a share grow with power, so a share's bounds at pmax
    # are its maxima over any power grid up to rounding.  Below pmax 1e9 the
    # whole grid's maxima are the pmax column bit for bit; at h =
    # 0.52193896907896 and pmax 4.54e283, rounding puts 15 of 21 maxima over
    # a 327-point grid an ulp above it
    for trial, (h, pmax, delta, res, alpha_res) in enumerate(_tdma_draws()):
        got = _tdma_bounds(StandardChannel(2, h, pmax), delta, alpha_res)
        alphas = np.linspace(0.0, 1.0, alpha_res)
        assert len(got) == 2  # the users take turns: no joint row
        with np.errstate(all="ignore"):
            for k, shares in enumerate((alphas, 1.0 - alphas)):
                secrecy, total = _tdma_bound(h[k], pmax[k], shares)
                assert _hex_cells(got[k]) == _hex_cells(np.minimum(secrecy / delta, total)), trial
                secrecy, total = _tdma_bound(h[k], np.linspace(0.0, pmax[k], res)[None, :], shares[:, None])
                grid_max = np.minimum(secrecy / delta, total).max(axis=1)
                if trial == 0:
                    assert np.count_nonzero(grid_max != got[k]) == 15
                    np.testing.assert_allclose(got[k], grid_max, rtol=1e-15, atol=0.0)
                else:
                    assert _hex_cells(got[k]) == _hex_cells(grid_max), (trial, k)


@pytest.mark.parametrize("kind", BOUNDARY_KINDS)
def test_generator_count_counts_every_corner_and_the_origin(kind):
    # at equal gains 1/2 every collective and outer bound grows with each
    # user's power, so those kinds evaluate the one cell at pmax; the
    # individual joint bound's slope in p_k has the sign of 1/2 - p_o / 2,
    # negative up to pmax 2, so individual kinds keep the res x res grid
    for res, alpha_res in ((2, 2), (2, 7), (11, 3), (31, 101)):
        boundary = region_boundary_2d(STD_HALF, kind, power_grid_res=res, alpha_grid_res=alpha_res)
        fixed = {"TDMA": 0, "INDIVIDUAL": 4 * res * res, "UNION_I_T": 4 * res * res}.get(kind, 4)
        tdma = 4 * alpha_res if kind in ("TDMA", "UNION_I_T") else 0
        assert boundary.generator_count == fixed + tdma + 1, (res, alpha_res)


def _power_grid_draws(kind, pmax_exp):
    """Seeded inputs of a boundary kind with a power grid: gains uniform on
    [0, 1] or [1, 3], log-uniform on [1e-3, 10], or 0 or 1, one pair in ten
    equal (equal and uniform on [0, 1] or 0 for the outer kinds); pmax
    log-uniform on [1e-3, 10**pmax_exp]; delta 1 or uniform on [0.05, 1];
    power res log-uniform on 2 to 301 and alpha res 2 to 30."""
    rng = np.random.default_rng([RNG_SEED, BOUNDARY_KINDS.index(kind), pmax_exp])
    draws = []
    for _ in range(40):
        if kind.startswith("OUTER"):
            h = (float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),) * 2
        else:
            gains = [rng.uniform(0.0, 1.0, 2), rng.uniform(1.0, 3.0, 2), 10.0 ** rng.uniform(-3.0, 1.0, 2),
                     rng.integers(0, 2, 2)]
            h = tuple(float(gains[i][j]) for j, i in enumerate(rng.integers(0, 4, 2)))
            h = (h[0], h[0]) if rng.uniform() < 0.1 else h
        pmax = tuple(float(v) for v in 10.0 ** rng.uniform(-3.0, pmax_exp, 2))
        delta = float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))
        res = int(np.rint(np.exp(rng.uniform(math.log(2), math.log(301)))))
        draws.append((StandardChannel(2, h, pmax), delta, res, int(rng.integers(2, 31))))
    return draws


@pytest.mark.parametrize("kind", ["INDIVIDUAL", "COLLECTIVE", "OUTER_INDIVIDUAL", "OUTER_COLLECTIVE", "UNION_I_T"])
def test_a_dominated_power_axis_is_its_pmax_alone(kind):
    # a user's axis collapses to pmax only where every bound grows with its
    # power (_dominated), so with pmax up to 1e5 the vertices are bitwise the
    # chain over every corner of the full res x res grid.  With pmax up to
    # 1e9 rounding may break a bound's growth; the boundary still holds every
    # corner within 1e-12 of its scale, and by convexity it is enough to
    # check the full grid's own vertices, of which every corner and the
    # origin are convex combinations.  Where both axes collapse, as for the
    # outer kinds, res changes nothing
    for pmax_exp in (5, 9):
        for std, delta, res, alpha_res in _power_grid_draws(kind, pmax_exp):
            draw = (kind, std, delta, res, alpha_res)
            boundary = region_boundary_2d(std, kind, delta, res, alpha_res)
            if _evaluated_cells(std, kind, res) == 1:
                for other in (2, 2001):
                    got = region_boundary_2d(std, kind, delta, other, alpha_res)
                    assert _hex(got.vertices) == _hex(boundary.vertices), (draw, other)
            want = _unfiltered_hull(_full_grid_corners(std, kind, delta, res, alpha_res))
            if pmax_exp == 5:
                assert _hex(boundary.vertices) == _hex(want), draw
            tol = 1e-12 * max(map(max, boundary.vertices))
            for vertex in want:
                assert boundary.contains(vertex, tol=tol), (draw, vertex)


@pytest.mark.parametrize("res", [2, 101, 2001])
def test_equal_gain_collective_is_outer_collective(res):
    # at equal gains below 1 every collective bound grows with each user's
    # power, so the collective boundary is the one cell at pmax, the
    # outer-collective one
    rng = np.random.default_rng(RNG_SEED + res)
    for _ in range(20):
        std = StandardChannel(2, (float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),) * 2,
                              tuple(float(v) for v in 10.0 ** rng.uniform(-3.0, 5.0, 2)))
        delta = float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))
        got = region_boundary_2d(std, "COLLECTIVE", delta, res)
        want = region_boundary_2d(std, "OUTER_COLLECTIVE", delta, res)
        assert _hex(got.vertices) == _hex(want.vertices), (std, delta)
        assert got.generator_count == want.generator_count == 5, (std, delta)


def _blocked_draws():
    """Seeded boundary inputs: every kind, each with delta 1 and a delta
    below 1; gains 0, 1 or uniform on [0, 1.5] (equal and below 1 for the
    outer kinds); pmax log-uniform on [1e-3, 1e5]; power res 2 to 60, every
    fifth draw 91 to 130 (more cells than one default block where no axis
    collapses), and alpha res 2 to 30."""
    rng = np.random.default_rng(RNG_SEED + 21)
    draws = []
    for trial in range(10):
        for kind in BOUNDARY_KINDS:
            for delta in (1.0, float(rng.uniform(0.05, 1.0))):
                if kind.startswith("OUTER"):
                    h = (float(rng.choice([0.0, rng.uniform(0.0, 1.0)])),) * 2
                else:
                    h = tuple(float(v) for v in rng.choice([0.0, 1.0, rng.uniform(0.0, 1.5)], 2))
                pmax = tuple(float(v) for v in 10.0 ** rng.uniform(-3.0, 5.0, 2))
                res = int(rng.integers(91, 131) if len(draws) % 5 == 0 else rng.integers(2, 61))
                draws.append((StandardChannel(2, h, pmax), kind, delta, res, int(rng.integers(2, 31))))
    return draws


@functools.cache
def _one_block_boundaries():
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rates, "_GRID_BLOCK", 10**9)
        return [(draw, region_boundary_2d(*draw)) for draw in _blocked_draws()]


_DEFAULT_BLOCK = rates._GRID_BLOCK
# block budgets, in cells, as functions of the power res
_BLOCK_BUDGETS = {"1": lambda res: 1, "1 row": lambda res: res, "res-1": lambda res: res - 1,
                  "res+1": lambda res: res + 1, "res-1 rows": lambda res: res * (res - 1),
                  "default": lambda res: _DEFAULT_BLOCK, "1e9": lambda res: 10**9}


@pytest.mark.parametrize("budget", list(_BLOCK_BUDGETS))
def test_boundary_blocks_match_one_block_bit_for_bit(monkeypatch, budget):
    # one row per block, each block's column maxima joined with the last
    # one's, a partial last block, the default's blocks, and one block
    for draw, want in _one_block_boundaries():
        monkeypatch.setattr(rates, "_GRID_BLOCK", _BLOCK_BUDGETS[budget](draw[3]))
        got = region_boundary_2d(*draw)
        assert _hex(got.vertices) == _hex(want.vertices), draw
        assert got.generator_count == want.generator_count, draw


@pytest.mark.parametrize("kind", ["INDIVIDUAL", "COLLECTIVE", "UNION_I_T"])
def test_blocked_draws_split_every_power_grid_kind(monkeypatch, kind):
    # a collapsed power axis (_dominated) may leave a draw one row, which no
    # budget splits; at every budget below the default, each kind with a
    # power grid keeps a draw whose evaluated grid spans several blocks, so
    # the test above joins blocks of that kind
    blocks = []

    def counted(*args):
        out = list(_fixed_power_bounds(*args))
        blocks.append(len(out))
        return out

    monkeypatch.setattr("macwiretap.regions._fixed_power_bounds", counted)
    draws = [draw for draw in _blocked_draws() if draw[1] == kind]
    for budget in ("1", "1 row", "res-1", "res+1", "res-1 rows"):
        split = 0
        for draw in draws:
            monkeypatch.setattr(rates, "_GRID_BLOCK", _BLOCK_BUDGETS[budget](draw[3]))
            blocks.clear()
            region_boundary_2d(*draw)
            split += blocks[0] > 1
        assert split >= 1, budget


def _cut_draws():
    """Seeded boundary inputs, 16 of every kind.  Each gain is uniform on
    [0, 1] or on [1, 3], exactly 1, or within 1e-12..1e-3 of 1, and one pair
    in four is equal (equal and below 1 for the outer kinds); each pmax is 0
    one time in ten, else log-uniform on [1e-3, 1e5], or on [1e-3, 1e150] in
    one draw of four; delta 1 or uniform on [0.05, 1]; power res log-uniform
    on 2 to 301 and alpha res 2 to 301."""
    rng = np.random.default_rng(RNG_SEED + 30)
    draws = []
    for kind in BOUNDARY_KINDS:
        for _ in range(16):
            near_1 = 1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-12.0, -3.0)
            gains = [rng.uniform(0.0, 1.0), rng.uniform(1.0, 3.0), 1.0, near_1]
            h = tuple(float(rng.choice(gains)) for _ in range(2))
            if kind.startswith("OUTER"):
                h = (float(rng.uniform(0.0, 1.0)),) * 2
            elif rng.uniform() < 0.25:
                h = (h[0], h[0])
            top = 150.0 if rng.uniform() < 0.25 else 5.0
            pmax = tuple(float(rng.choice([0.0, 10.0 ** rng.uniform(-3.0, top)], p=[0.1, 0.9])) for _ in range(2))
            delta = float(rng.choice([1.0, rng.uniform(0.05, 1.0)]))
            res = int(np.rint(np.exp(rng.uniform(np.log(2.0), np.log(301.0)))))
            draws.append((StandardChannel(2, h, pmax), kind, delta, res, int(rng.integers(2, 302))))
    return draws


def _evaluated_axes(std, kind, res):
    """The power axes a boundary evaluates: pmax alone where ``_dominated``
    holds, res points on [0, pmax] otherwise."""
    with np.errstate(all="ignore"):
        return [np.array([pmax]) if _dominated(std, kind, k) else np.linspace(0.0, pmax, res)
                for k, pmax in enumerate(std.pmax)]


@pytest.mark.parametrize("kind", BOUNDARY_KINDS)
def test_row_and_column_maxima_give_the_hull_of_every_corner(kind):
    # each boundary is bitwise the staircase chain over all four corners of
    # every evaluated cell, each bound computed per cell, and the share grid
    for std, _, delta, res, alpha_res in (draw for draw in _cut_draws() if draw[1] == kind):
        draw = (std, kind, delta, res, alpha_res)
        bounds, cells = [], 0
        if kind != "TDMA":
            fixed = "INDIVIDUAL" if kind == "UNION_I_T" else kind
            axes = _evaluated_axes(std, fixed, res)
            bounds.append(_full_grid_bounds(std, fixed, delta, axes))
            cells += axes[0].size * axes[1].size
        if kind in ("TDMA", "UNION_I_T"):
            bounds.append((*_tdma_bounds(std, delta, alpha_res), np.inf))  # no joint row
            cells += alpha_res
        assert all(b is not None for b in bounds), draw
        want = _unfiltered_hull(np.vstack([_all_corners(b) for b in bounds] + [[[0.0, 0.0]]]))
        got = region_boundary_2d(*draw)
        assert _hex(got.vertices) == _hex(want), draw
        assert got.generator_count == 1 + 4 * cells, draw


@pytest.mark.parametrize("kind", BOUNDARY_KINDS)
def test_the_cloud_holds_one_point_per_row_column_and_share(kind):
    # the two axis maxima, each evaluated row's and column's maxima, and
    # each time share's one point (u1, u2), the corner of its cell that the
    # other three lie below and left of, or on: 2 + alpha_res points for
    # TDMA, 2 + rows + cols + alpha_res for UNION_I_T
    for std, _, delta, res, alpha_res in (draw for draw in _cut_draws() if draw[1] == kind):
        rows = cols = shares = 0
        if kind != "TDMA":
            fixed = "INDIVIDUAL" if kind == "UNION_I_T" else kind
            rows, cols = (a.size for a in _evaluated_axes(std, fixed, res))
        if kind in ("TDMA", "UNION_I_T"):
            shares = alpha_res
        x, y, _ = _boundary_candidates(std, kind, delta, res, alpha_res)
        assert x.size == y.size == 2 + rows + cols + shares, (std, kind, delta, res, alpha_res)


def test_cut_draws_reach_every_evaluated_grid_shape():
    # the evaluated power grids of the draws above are 1 x 1, 1 x n, n x 1
    # and n x n, so rows and columns are each reduced and left whole
    shapes = set()
    for std, kind, _, res, _ in _cut_draws():
        if kind != "TDMA":
            fixed = "INDIVIDUAL" if kind == "UNION_I_T" else kind
            shapes.add(tuple(min(a.size, 2) for a in _evaluated_axes(std, fixed, res)))
    assert shapes == {(1, 1), (1, 2), (2, 1), (2, 2)}


@pytest.mark.parametrize("rows", [1, 3, None])
@pytest.mark.parametrize("kind, pmax", [("INDIVIDUAL", 1.7e308), ("TDMA", 1e308)])
def test_boundary_refuses_an_overflow_at_its_first_bad_block(monkeypatch, kind, pmax, rows):
    # INDIVIDUAL: the power sum overflows from some row of its 101 x 101
    # power grid on; TDMA: pmax over the smallest positive share, so user 1
    # is refused before user 2 is evaluated
    if rows is not None:
        monkeypatch.setattr(rates, "_GRID_BLOCK", 101 * rows)
    step = rates._GRID_BLOCK // 101
    with np.errstate(all="ignore"):
        first_bad = int(np.flatnonzero(np.isinf(np.linspace(0.0, pmax, 101) + pmax))[0])
    # blocks of the fixed-power grid whose candidates were built, and users
    # whose time-division bounds were evaluated
    calls = []
    for name, f in (("_box_simplex_candidates", _box_simplex_candidates), ("_tdma_bound", _tdma_bound)):
        def counted(*args, _f=f, _name=name):
            calls.append(_name)
            return _f(*args)
        monkeypatch.setattr(f"macwiretap.regions.{name}", counted)
    with pytest.raises(ValidationError) as err:
        region_boundary_2d(StandardChannel(2, (0.5, 0.5), (pmax, pmax)), kind, 1.0, 101, 101)
    assert str(err.value) == f"pmax ({pmax!r}, {pmax!r}) too large: a rate bound overflows the float range"
    if kind == "TDMA":
        assert calls == ["_tdma_bound"]
    else:
        assert calls == ["_box_simplex_candidates"] * (first_bad // step)


@pytest.mark.parametrize("kind", ["INDIVIDUAL", "UNION_I_T", "TDMA"])
def test_boundary_memory_does_not_grow_with_resolution(kind):
    # whole 2001 x 2001 grids held 252 (INDIVIDUAL), 275 (UNION_I_T) and
    # 214 MiB (TDMA at alpha res 2001) of float64 temporaries
    tracemalloc.start()
    try:
        boundary = region_boundary_2d(StandardChannel(2, (0.3, 0.7), (12.0, 5.0)), kind, 0.8, 2001, 2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak
    fixed = 0 if kind == "TDMA" else 4 * 2001 * 2001
    assert boundary.generator_count == 1 + fixed + (0 if kind == "INDIVIDUAL" else 4 * 2001)


@given(
    h=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    p=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
    delta=st.floats(0.01, 1.0),
)
def test_delta_scaling_property(h, p, delta):
    std = StandardChannel(2, h, p)
    base = individual_region_at(std, p)
    scaled = delta_region(base, delta)
    for row, scaled_row in zip(base.rows, scaled.rows):
        if row.kind == "SECRECY":
            assert scaled_row.rhs == row.rhs / delta
        else:
            assert scaled_row.rhs == row.rhs


@given(
    h=st.tuples(st.floats(0.0, 3.0), st.floats(0.0, 3.0)),
    p=st.tuples(st.floats(0.0, 20.0), st.floats(0.0, 20.0)),
)
def test_origin_always_member(h, p):
    std = StandardChannel(2, h, p)
    region = collective_region_at(std, p)
    assert membership(RateVector((0.0, 0.0), (0.0, 0.0)), region, tol=0.0).ok


# ---------------------------------------------------------------------------
# rate splitting


def test_rate_split_collective_boundary_witness():
    rhs = collective_region_at(STD_HALF, (2.0, 2.0)).row("SECRECY{1,2}").rhs
    result = rate_split_collective(STD_HALF, (2.0, 2.0), RateVector((rhs, 0.0), (0.0, 0.0)))
    assert result.feasible
    assert sum(result.extra) == pytest.approx(g(2.0), abs=1e-12)
    # lexicographically smallest witness puts nothing on user 1 here
    assert result.extra[0] == 0.0


def test_rate_split_collective_infeasible_beyond_boundary():
    rhs = collective_region_at(STD_HALF, (2.0, 2.0)).row("SECRECY{1,2}").rhs
    result = rate_split_collective(
        STD_HALF, (2.0, 2.0), RateVector((rhs + 1e-3, 0.0), (0.0, 0.0))
    )
    assert not result.feasible
    assert result.binding == "MAC{1,2}"


def test_rate_split_collective_zero_power():
    std = StandardChannel(2, (0.5, 0.5), (0.0, 0.0))
    result = rate_split_collective(std, (0.0, 0.0), RateVector((0.0, 0.0), (0.0, 0.0)))
    assert result.feasible and result.extra == (0.0, 0.0)


def test_rate_split_individual_examples():
    result = rate_split_individual(STD_HALF, (2.0, 2.0), RateVector((0.16, 0.0), (0.0, 0.0)))
    assert result.feasible
    assert result.extra == pytest.approx((0.5, 0.0), abs=1e-12)

    result = rate_split_individual(STD_HALF, (2.0, 2.0), RateVector((0.0, 0.1), (0.2, 0.0)))
    assert result.feasible
    assert result.extra[0] == 0.0  # zero secret rate forces zero randomization

    result = rate_split_individual(STD_HALF, (2.0, 2.0), RateVector((0.3, 0.3), (0.0, 0.0)))
    assert not result.feasible

    # user 1's eavesdropper rate at power 2 is g(1) = 1/2: an open rate above
    # it is refused past the split tolerance and kept within it
    result = rate_split_individual(STD_HALF, (2.0, 2.0), RateVector((0.1, 0.0), (0.5 + 2 * SPLIT_TOL, 0.0)))
    assert result == (False, None, "RANDOMIZATION{1}")
    result = rate_split_individual(STD_HALF, (2.0, 2.0), RateVector((0.1, 0.0), (0.5 + SPLIT_TOL / 2, 0.0)))
    assert result == (True, (0.0, 0.0), None)


def test_rate_split_witness_resubstitution():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(30):
        h = tuple(rng.uniform(0.0, 0.95, 2))
        pmax = tuple(rng.uniform(0.05, 20.0, 2))
        std = StandardChannel(2, h, pmax)
        region = collective_region_at(std, pmax)
        s_total = region.row("SECRECY{1,2}").rhs
        cap1 = region.row("MAC{1}").rhs
        cap2 = region.row("MAC{2}").rhs
        beta_lo = max(0.0, 1.0 - cap2 / s_total) if s_total > 0 else 0.0
        beta_hi = min(1.0, cap1 / s_total) if s_total > 0 else 1.0
        beta = float(rng.uniform(beta_lo, beta_hi))
        rates = RateVector((beta * s_total, (1.0 - beta) * s_total), (0.0, 0.0))
        result = rate_split_collective(std, pmax, rates)
        assert result.feasible, (h, pmax, beta)
        cw_full = g(h[0] * pmax[0] + h[1] * pmax[1])
        assert sum(rates.open) + sum(result.extra) == pytest.approx(cw_full, abs=1e-12)
        for label, cap in (("MAC{1}", cap1), ("MAC{2}", cap2), ("MAC{1,2}", region.row("MAC{1,2}").rhs)):
            members = [int(c) for c in label[4:-1].split(",")]
            used = sum(
                rates.secret[k - 1] + rates.open[k - 1] + result.extra[k - 1]
                for k in members
            )
            assert used <= cap + 1e-12


def test_three_user_constraint_sets():
    std = StandardChannel(3, (0.3, 0.5, 0.7), (4.0, 4.0, 4.0))
    region = individual_region_at(std, (4.0, 2.0, 1.0))
    assert len(region.rows) == 14  # 2 * (2^3 - 1)
    # joint secrecy row by direct arithmetic on the definition
    expected = g(7.0) - g(0.3 * 4.0) - g(0.5 * 2.0) - g(0.7 * 1.0)
    assert region.row("SECRECY{1,2,3}").rhs == pytest.approx(expected, abs=1e-12)

    collective = collective_region_at(std, (4.0, 2.0, 1.0))
    assert len(collective.secrecy_rows()) == 1
    assert len(collective.mac_rows()) == 7
    rates = RateVector((0.0, 0.0, 0.0), (0.1, 0.1, 0.1))
    assert membership(rates, collective, tol=1e-9).ok


def test_rate_split_three_users_lp_path():
    std = StandardChannel(3, (0.4, 0.4, 0.4), (2.0, 2.0, 2.0))
    region = collective_region_at(std, (2.0, 2.0, 2.0))
    s_total = region.row("SECRECY{1,2,3}").rhs
    rates = RateVector((s_total / 3,) * 3, (0.0,) * 3)
    result = rate_split_collective(std, (2.0, 2.0, 2.0), rates)
    assert result.feasible
    assert sum(result.extra) == pytest.approx(g(0.4 * 6.0), abs=1e-8)
    for x in result.extra:
        assert x >= -1e-12


def test_rate_split_infeasible_names_the_full_set_row():
    # cap{1} = g(2) - 0.78 is still nonnegative; the total target
    # g(2.4) = 0.883 exceeds cap{1,2,3} = g(6) - 0.78 = 0.621
    std = StandardChannel(3, (0.4, 0.4, 0.4), (2.0, 2.0, 2.0))
    rates = RateVector((0.782481250360578, 0.0, 0.0), (0.0,) * 3)
    result = rate_split_collective(std, (2.0, 2.0, 2.0), rates)
    assert not result.feasible
    assert result.binding == "MAC{1,2,3}"


def _lp_lex_min_split(caps, target):
    """Lexicographically smallest x >= 0 with x(N) = target and
    x(S) <= caps[S], by one linear program per coordinate; None when
    infeasible."""
    from scipy.optimize import linprog

    num_users = max(max(s) for s in caps)
    subsets = list(caps)
    a_ub = [[1.0 if k in s else 0.0 for k in range(1, num_users + 1)] for s in subsets]
    b_ub = [caps[s] for s in subsets]
    fixed: list[float] = []
    for j in range(num_users):
        a_eq = [[1.0] * num_users] + [
            [1.0 if k == i else 0.0 for k in range(num_users)] for i in range(len(fixed))
        ]
        res = linprog(
            c=[1.0 if k == j else 0.0 for k in range(num_users)],
            A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[target] + fixed,
            bounds=[(0.0, None)] * num_users, method="highs",
        )
        if res.status != 0:
            return None
        fixed.append(float(res.x[j]))
    return fixed


def test_rate_split_greedy_matches_lp_lex_min():
    rng = np.random.default_rng(RNG_SEED + 7)
    outcomes = {True: 0, False: 0}
    for num_users in range(2, 7):
        for _ in range(25):
            h = tuple(rng.uniform(0.0, 0.95, num_users))
            pmax = tuple(rng.uniform(0.05, 20.0, num_users))
            power = tuple(rng.uniform(0.2, 1.0) * m for m in pmax)
            std = StandardChannel(num_users, h, pmax)
            s_total = g(sum(power)) - g(sum(a * b for a, b in zip(h, power)))
            weights = rng.dirichlet(np.ones(num_users))
            secret = tuple(float(w) * s_total * rng.uniform(0.4, 1.6) for w in weights)
            opn = tuple(rng.uniform(0.0, 0.1) * rng.integers(0, 2) for _ in range(num_users))
            rates = RateVector(secret, opn)
            result = rate_split_collective(std, power, rates)
            outcomes[result.feasible] += 1

            # caps and target from the definition, independent of the module
            caps = {}
            for mask in range(1, 2**num_users):
                s = frozenset(k + 1 for k in range(num_users) if mask >> k & 1)
                caps[s] = g(sum(power[k - 1] for k in s)) - sum(
                    secret[k - 1] + opn[k - 1] for k in s
                )
            full = frozenset(range(1, num_users + 1))
            target = g(sum(a * b for a, b in zip(h, power))) - sum(opn)
            reference = _lp_lex_min_split(caps, target) if target >= 0.0 else None

            assert result.feasible == (reference is not None), (h, power, secret, opn)
            if result.feasible:
                assert result.extra == pytest.approx(reference, abs=1e-9)
            elif result.binding == "RANDOMIZATION_TOTAL":
                assert target < -1e-9
            else:
                # the named row is exceeded by every nonnegative split
                row = frozenset(int(k) for k in result.binding[4:-1].split(","))
                need = target if row == full else 0.0
                assert need > caps[row] + 1e-9, (result.binding, need, caps[row])
    assert outcomes[True] >= 20 and outcomes[False] >= 20, outcomes
