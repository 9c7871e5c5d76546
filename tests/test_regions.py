import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from macwiretap.channel import StandardChannel
from macwiretap.errors import NonDegradedError, ValidationError
from macwiretap.rates import cm, cw, enumerate_subsets, g, pos_part, subset_label
from macwiretap.regions import (
    DeltaRateVector,
    RateVector,
    _fixed_power_candidates,
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


def test_membership_basics():
    region = collective_region_at(STD_HALF, (2.0, 2.0))
    ok, violated = membership(RateVector((0.0, 0.0), (0.0, 0.0)), region, tol=1e-9)
    assert ok and violated is None

    ok, violated = membership(RateVector((0.369, 0.0), (0.0, 0.0)), region, tol=1e-6)
    assert not ok and violated == "SECRECY{1,2}"

    inner = individual_region_at(STD_HALF, (2.0, 2.0))
    ok, violated = membership(RateVector((0.16, 0.0), (0.0, 0.0)), inner, tol=1e-6)
    assert ok


def test_membership_coordinate_guards():
    region = collective_region_at(STD_HALF, (2.0, 2.0))
    with pytest.raises(ValidationError):
        membership(DeltaRateVector((0.1, 0.1), 0.5), region)
    with pytest.raises(ValidationError):
        membership(RateVector((0.1,), (0.0,)), region)
    scaled = delta_region(region, 0.5)
    with pytest.raises(ValidationError):
        membership(RateVector((0.1, 0.1), (0.0, 0.0)), scaled)


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


def test_boundary_contains_generators():
    candidates = _fixed_power_candidates(STD_HALF, "COLLECTIVE", 1.0, 21)
    boundary = region_boundary_2d(STD_HALF, "COLLECTIVE", power_grid_res=21)
    for point in candidates:
        assert boundary.contains(point, tol=1e-9)


def test_boundary_union_contains_both_families():
    tdma = region_boundary_2d(STD_HALF, "TDMA", power_grid_res=31, alpha_grid_res=31)
    indiv = region_boundary_2d(STD_HALF, "INDIVIDUAL", power_grid_res=31, alpha_grid_res=31)
    union = region_boundary_2d(STD_HALF, "UNION_I_T", power_grid_res=31, alpha_grid_res=31)
    for vertex in tdma.vertices + indiv.vertices:
        assert union.contains(vertex, tol=1e-9)


def test_boundary_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        region_boundary_2d(StandardChannel(3, (0.5,) * 3, (1.0,) * 3), "COLLECTIVE")
    with pytest.raises(ValidationError):
        region_boundary_2d(STD_HALF, "COLLECTIVE", delta=0.0)
    with pytest.raises(ValidationError):
        region_boundary_2d(STD_HALF, "NOT_A_KIND")
    with pytest.raises(NonDegradedError):
        region_boundary_2d(StandardChannel(2, (0.5, 2.0), (1.0, 1.0)), "OUTER_COLLECTIVE")


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


def test_row_coefficients():
    region = collective_region_at(STD_HALF, (2.0, 2.0))
    secrecy = region.row("SECRECY{1,2}")
    assert secrecy.coefficients(2, "secret_open") == (1.0, 1.0, 0.0, 0.0)
    mac1 = region.row("MAC{1}")
    assert mac1.coefficients(2, "secret_open") == (1.0, 0.0, 1.0, 0.0)
    assert mac1.coefficients(2, "total") == (1.0, 0.0)


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


def test_region_rows_match_the_scalar_rate_functions():
    rng = np.random.default_rng(RNG_SEED)
    for num_users in (1, 2, 3, 4):
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
    axes = np.linspace(0.0, std.pmax[0], res), np.linspace(0.0, std.pmax[1], res)
    rng = np.random.default_rng(RNG_SEED)
    cells = [0, res * res - 1] + rng.choice(res * res, 12, replace=False).tolist()
    for delta in (1.0, 0.4):
        candidates = _fixed_power_candidates(std, kind, delta, res)
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
