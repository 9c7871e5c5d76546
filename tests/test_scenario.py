import dataclasses
import hashlib
import io
import json
import math
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import macwiretap.scenario as scenario
import reference_solver
from macwiretap.channel import standardize
from macwiretap.errors import ValidationError
from macwiretap.rates import g
from macwiretap.scenario import ScenarioConfig, gains_at, sweep

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "example_scenario.json"

# sha256 of the example config's CSV: standardize, then the tests-side
# scalar solvers in reference_solver.py at every cell (see scalar_csv)
EXAMPLE_CSV_SHA256 = "614e6cec751106e974210b56e063641cff8ada8ea0c9cc59fda3dab4219106bc"


def small_config(**overrides):
    base = dict(
        grid=(4, 4),
        area=(100.0, 100.0),
        base_station=(50.0, 50.0),
        users=((20.0, 35.0), (25.0, 70.0)),
        power_limits=(6000.0, 6000.0),
        noise_var_main=1.0,
        noise_var_tap=1.0,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def test_config_validation():
    with pytest.raises(ValidationError):
        small_config(users=((20.0, 35.0),))
    with pytest.raises(ValidationError):
        small_config(base_station=(120.0, 50.0))
    with pytest.raises(ValidationError):
        small_config(pathloss_exponent=0.0)
    with pytest.raises(ValidationError):
        small_config(grid=(0, 4))
    with pytest.raises(ValidationError):
        small_config(min_distance=-1.0)
    with pytest.raises(ValidationError):
        small_config(grid=(4, 4, 4))
    with pytest.raises(ValidationError):
        small_config(area=(100.0, 100.0, 100.0))
    with pytest.raises(ValidationError):
        small_config(power_limits="ab")
    with pytest.raises(ValidationError):
        small_config(grid=(24.7, 3.2))
    with pytest.raises(ValidationError):
        small_config(grid=(True, 2))
    data = small_config().to_dict()
    for grid in ([24.7, 3.2], [True, 2]):
        with pytest.raises(ValidationError, match="grid"):
            ScenarioConfig.from_dict({**data, "grid": grid})
    assert ScenarioConfig.from_dict({**data, "grid": [24.0, 3]}).grid == (24, 3)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    side=st.one_of(
        st.sampled_from([5e-324, 2.2250738585072014e-308, 1.0, 1.7976931348623157e308]),
        st.floats(min_value=5e-324, max_value=1.7976931348623157e308),
    ),
    n=st.integers(1, 1000),
)
def test_accepted_cell_centres_lie_in_the_area(side, n):
    # the config rejects an area and grid whose last cell centre overflows;
    # every centre of an accepted one, (i + 0.5) * side / n as ``sweep``
    # computes it, lies in [0, side], so the sweep needs no in-area check
    try:
        small_config(area=(side, 1.0), grid=(n, 1), base_station=(0.0, 0.0),
                     users=((0.0, 0.0), (0.0, 0.0)))
    except ValidationError as exc:
        assert not math.isfinite((n - 0.5) * side)
        assert "area" in str(exc) and "grid" in str(exc)
        return
    assert all(0.0 <= (i + 0.5) * side / n <= side for i in range(n))


def test_config_json_round_trip():
    cfg = small_config()
    again = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg


def test_example_config_loads():
    with open(EXAMPLE_CONFIG, "r", encoding="utf-8") as fp:
        cfg = ScenarioConfig.from_dict(json.load(fp))
    assert cfg.grid == (100, 100)


def test_gains_at_clamps_at_min_distance():
    cfg = small_config(users=((50.0, 50.0), (25.0, 70.0)))
    raw = gains_at(cfg, (80.0, 80.0))
    assert raw.gains_main[0] == 1.0  # co-located with the base station


def test_gains_at_inverse_square():
    cfg = small_config(users=((50.0, 50.0), (25.0, 70.0)))
    raw = gains_at(cfg, (52.0, 50.0))  # distance 2 from user 1
    assert raw.gains_tap[0] == pytest.approx(0.25, abs=1e-15)


def test_gains_at_symmetric_geometry():
    # users mirrored about the base station, eavesdropper on the axis
    cfg = small_config(users=((40.0, 50.0), (60.0, 50.0)))
    raw = gains_at(cfg, (50.0, 80.0))
    std = standardize(raw)
    assert std.h[0] == pytest.approx(std.h[1], abs=1e-12)


def test_gains_at_rejects_outside_area():
    cfg = small_config()
    with pytest.raises(ValidationError):
        gains_at(cfg, (150.0, 50.0))


def test_sweep_single_cell():
    result = sweep(small_config(grid=(1, 1)))
    assert len(result) == 1
    assert result.x[0] == 50.0 and result.y[0] == 50.0


def test_sweep_row_major_order():
    result = sweep(small_config(grid=(3, 2)))
    coords = list(zip(result.x.tolist(), result.y.tolist()))
    # y varies slowest, x fastest
    assert coords == sorted(coords, key=lambda c: (c[1], c[0]))
    assert len(coords) == 6


def test_sweep_far_eavesdropper_approaches_open_mac():
    # eavesdropper far from both users: tap gains collapse and the sum rate
    # approaches the no-eavesdropper limit at full power
    cfg = small_config(
        grid=(1, 1),
        area=(4000.0, 4000.0),
        base_station=(50.0, 50.0),
        users=((20.0, 35.0), (25.0, 70.0)),
    )
    # the single cell sits at the far center (2000, 2000)
    result = sweep(cfg)
    std = standardize(gains_at(cfg, (2000.0, 2000.0)))
    open_mac = g(std.pmax[0] + std.pmax[1])
    assert result.sumrate_nojam[0] == pytest.approx(open_mac, rel=1e-2)
    assert result.sumrate_jam[0] == pytest.approx(open_mac, rel=1e-2)
    assert scenario.CASE_LABELS[result.case[0]] == "BOTH_TRANSMIT"


def test_sweep_eavesdropper_at_bs_kills_rate():
    cfg = small_config(users=((40.0, 50.0), (60.0, 50.0)), grid=(1, 1))
    # symmetric users, eavesdropper at the BS: standardized gains are 1
    raw = gains_at(cfg, (50.0, 50.0))
    std = standardize(raw)
    assert std.h[0] == pytest.approx(1.0, abs=1e-12)
    from macwiretap.optimizer import optimal_powers_sum

    assert optimal_powers_sum(std.h, std.pmax).achieved_rate == 0.0


def test_sweep_jamming_dominates():
    result = sweep(small_config(grid=(12, 12)))
    for jam, nojam in zip(result.sumrate_jam.tolist(), result.sumrate_nojam.tolist()):
        assert jam >= nojam - 1e-9


def test_sweep_zero_rate_counts():
    result = sweep(small_config(grid=(20, 20)))
    zero_jam, zero_nojam = result.zero_rate_counts()
    assert zero_jam <= zero_nojam


def test_csv_output_shape():
    result = sweep(small_config(grid=(3, 3)))
    buf = io.StringIO()
    result.to_csv(buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == "x,y,P1,P2,sumrate_jam,sumrate_nojam,case"
    assert len(lines) == 10
    first = lines[1].split(",")
    assert len(first) == 7
    float(first[0]); float(first[4])  # numeric columns parse


def test_jam_power_distance_profile_reports():
    result = sweep(small_config(grid=(10, 10)))
    profile = result.jam_power_by_bs_distance(bins=5)
    assert profile  # diagnostic is reported, not asserted on
    assert all(set(b) == {"distance_lo", "distance_hi", "mean_jam_power", "cells"} for b in profile)


def csv_text(result) -> str:
    buf = io.StringIO()
    result.to_csv(buf)
    return buf.getvalue()


def reference_cell(config: ScenarioConfig, x: float, y: float):
    """(sum-rate allocation, jamming allocation) of one cell from the
    tests-side scalar solvers."""
    std = standardize(gains_at(config, (x, y)))
    return (reference_solver.optimal_powers_sum(std.h, std.pmax),
            reference_solver.optimal_powers_jam(std.h, std.pmax))


def scalar_csv(config: ScenarioConfig) -> str:
    """The CSV built row by row from the tests-side scalar solvers."""
    nx, ny = config.grid
    width, height = config.area
    lines = ["x,y,P1,P2,sumrate_jam,sumrate_nojam,case\n"]
    for j in range(ny):
        for i in range(nx):
            x, y = (i + 0.5) * width / nx, (j + 0.5) * height / ny
            nojam, jam = reference_cell(config, x, y)
            lines.append(
                f"{x:.12g},{y:.12g},{jam.p[0]:.12g},{jam.p[1]:.12g},"
                f"{jam.achieved_rate:.12g},{nojam.achieved_rate:.12g},{jam.case_label}\n"
            )
    return "".join(lines)


def random_geometry(rng: random.Random) -> ScenarioConfig:
    def loguniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    def point():
        return (rng.uniform(0.0, 100.0), rng.uniform(0.0, 100.0))

    return ScenarioConfig(
        grid=(rng.randint(3, 14), rng.randint(3, 14)),
        area=(100.0, 100.0),
        base_station=point(),
        users=(point(), point()),
        power_limits=(loguniform(1.0, 1e4), loguniform(1.0, 1e4)),
        noise_var_main=1.0,
        noise_var_tap=loguniform(0.1, 10.0),
        pathloss_exponent=rng.uniform(2.0, 4.0),
    )


def test_example_csv_matches_golden_digest():
    with open(EXAMPLE_CONFIG, "r", encoding="utf-8") as fp:
        cfg = ScenarioConfig.from_dict(json.load(fp))
    text = csv_text(sweep(cfg))
    assert hashlib.sha256(text.encode()).hexdigest() == EXAMPLE_CSV_SHA256


def test_sweep_matches_scalar_cells_on_random_geometries():
    rng = random.Random(3)
    # users mirrored about the base station: the middle column (x = 50) has
    # equal gains, above one near the base station and below one away from it
    mirrored = [small_config(users=((40.0, 50.0), (60.0, 50.0)), grid=(5, n)) for n in (5, 9)]
    cases = Counter()
    for cfg in mirrored + [random_geometry(rng) for _ in range(40)]:
        text = csv_text(sweep(cfg))
        assert text == scalar_csv(cfg), cfg
        cases.update(line.rsplit(",", 1)[1] for line in text.splitlines()[1:])
    # every branch of the jamming solution is exercised
    assert {"BOTH_TRANSMIT", "NO_JAM", "JAM_AT_ROOT", "JAM_AT_MAX", "NONE"} <= set(cases)


@pytest.mark.parametrize("overrides, cell, reason", [
    # the receiver gains underflow, so every cell fails and the first names it
    (dict(grid=(6, 6), pathloss_exponent=300.0), (100.0 / 12, 100.0 / 12), "underflows to zero"),
    # the secrecy rate overflows at every cell but the centre
    (dict(grid=(3, 3), users=((49.5, 50.0), (50.5, 50.0)), pathloss_exponent=250.0,
          power_limits=(1.7976931348623157e308, 1.7976931348623157e308)),
     (100.0 / 6, 100.0 / 6), "the secrecy rate overflows"),
], ids=["gain-underflow", "secrecy-rate"])
def test_an_unvouched_cell_raises_its_own_error(overrides, cell, reason):
    # the sweep stops at the first cell it cannot vouch for, with the
    # message the scalar solvers give for that cell
    cfg = small_config(**overrides)
    with pytest.raises(ValidationError) as raised:
        sweep(cfg)
    with pytest.raises(ValidationError, match=reason) as expected:
        reference_cell(cfg, *cell)
    assert str(raised.value) == f"cell ({cell[0]:g}, {cell[1]:g}): {expected.value}"


def test_the_sweep_answers_where_a_jamming_root_discriminant_overflows():
    # the discriminant grows with the cube of a gain and overflows at cell
    # (25, 75), which jams at full power; every cell is the scalar reference's
    cfg = small_config(grid=(6, 6), pathloss_exponent=150.0, noise_var_tap=1e-10)
    std = standardize(gains_at(cfg, (25.0, 75.0)))
    (h1, m1), (h2, _) = sorted(zip(std.h, std.pmax))
    with np.errstate(all="ignore"):
        assert not math.isfinite(reference_solver._jam_root(h1, h2, m1)[0])
    text = csv_text(sweep(cfg))
    assert text == scalar_csv(cfg)
    assert "\n25,75," in text and text.split("\n25,75,")[1].split("\n")[0].endswith(",JAM_AT_MAX")


def test_sweep_never_patches_a_cell_the_solvers_accept(monkeypatch):
    # an unvouched cell is one ``_cell`` rejects; a poisoned ``ok`` mask on
    # good cells is an internal fault, reported at its first cell
    solve = scenario._solve

    def poisoned(*args):
        nojam, (p1, p2, jam, case) = solve(*args)
        p1[1::3], jam[1::3], case[1::3] = np.nan, np.nan, 0
        return nojam, (p1, p2, jam, case)

    monkeypatch.setattr(scenario, "_solve", poisoned)
    with pytest.raises(RuntimeError, match=r"^cell \(37\.5, 10\): the array solve rejected"):
        sweep(small_config(grid=(4, 5)))


def reference_jam_power_by_bs_distance(result, bins):
    """The per-cell diagnostic the column version replaces, over the
    columns' scalar values."""
    bx, by = result.config.base_station
    cells = zip(result.x.tolist(), result.y.tolist(), result.p2.tolist(), result.case.tolist())
    jamming = [(x, y, p2) for x, y, p2, case in cells
               if scenario.CASE_LABELS[case] in ("JAM_AT_ROOT", "JAM_AT_MAX")]
    dists = [math.hypot(x - bx, y - by) for x, y, _ in jamming]
    dmax = max(dists) if dists else 0.0
    width = dmax / bins if dmax > 0 else 1.0
    out = []
    for b in range(bins):
        lo, hi = b * width, (b + 1) * width
        cells = [r for r, d in zip(jamming, dists) if lo <= d < hi or (b == bins - 1 and d == dmax)]
        if cells:
            out.append({
                "distance_lo": lo,
                "distance_hi": hi,
                "mean_jam_power": sum(p2 for _, _, p2 in cells) / len(cells),
                "cells": float(len(cells)),
            })
    return out


def test_diagnostics_match_the_per_record_reference():
    rng = random.Random(11)
    for cfg in [small_config(grid=(12, 12))] + [random_geometry(rng) for _ in range(8)]:
        result = sweep(cfg)
        threshold = scenario.ZERO_RATE_THRESHOLD
        assert result.zero_rate_counts() == (
            sum(1 for v in result.sumrate_jam.tolist() if v <= threshold),
            sum(1 for v in result.sumrate_nojam.tolist() if v <= threshold),
        )
        for bins in (1, 3, 8, 10):
            assert result.jam_power_by_bs_distance(bins) == reference_jam_power_by_bs_distance(result, bins)


def rowwise_csv(result) -> str:
    """The CSV as one seven-field ``%`` format per row."""
    rows = zip(
        result.x.tolist(), result.y.tolist(), result.p1.tolist(), result.p2.tolist(),
        result.sumrate_jam.tolist(), result.sumrate_nojam.tolist(),
        [scenario.CASE_LABELS[c] for c in result.case.tolist()],
    )
    return "x,y,P1,P2,sumrate_jam,sumrate_nojam,case\n" + "".join(
        "%.12g,%.12g,%.12g,%.12g,%.12g,%.12g,%s\n" % row for row in rows
    )


def hand_built_result(nx, ny, rng):
    """A result whose columns hold the values the CSV writer shares across
    cells or must keep apart: signed zeros, subnormals, values near the top
    of the float range, jam rates that differ from the no-jam rate in only
    some cells, and every case label."""
    cfg = small_config(grid=(nx, ny))
    n = nx * ny
    xs = np.array([(i + 0.5) * 100.0 / nx for i in range(nx)])
    ys = np.array([(j + 0.5) * 100.0 / ny for j in range(ny)])
    specials = [0.0, -0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e300, -1e300,
                1.7976931348623157e308, np.nextafter(1e300, np.inf), 1 / 3, 6000.0]
    p1 = np.array([rng.choice(specials) for _ in range(n)])
    p2 = np.array([rng.choice(specials) for _ in range(n)])
    nojam = np.array([rng.choice(specials + [rng.uniform(0.0, 20.0)]) for _ in range(n)])
    jam = nojam.copy()
    for k in range(n):
        if rng.random() < 0.3:
            jam[k] = rng.choice(specials + [np.nextafter(nojam[k], 0.0)])
    case = np.array([rng.randrange(len(scenario.CASE_LABELS)) for _ in range(n)], dtype=np.int8)
    return scenario.ScenarioResult(
        cfg, np.tile(xs, ny), np.repeat(ys, nx), p1, p2, jam, nojam, case,
    )


def test_csv_matches_the_rowwise_format_on_hand_built_columns():
    rng = random.Random(5)
    labels = Counter()
    for nx, ny in [(1, 1), (1, 9), (9, 1), (1, 40), (40, 1), (13, 11)] * 3:
        result = hand_built_result(nx, ny, rng)
        text = csv_text(result)
        assert text == rowwise_csv(result), (nx, ny)
        labels.update(line.rsplit(",", 1)[1] for line in text.splitlines()[1:])
    assert set(labels) == set(scenario.CASE_LABELS)
    # -0.0 and 0.0 share one P1 column and keep their own text
    result = hand_built_result(3, 3, rng)
    result.p1[:] = [0.0, -0.0] * 4 + [0.0]
    result.sumrate_jam[:] = -0.0
    result.sumrate_nojam[:] = 0.0
    rows = csv_text(result).splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["0", "-0"] * 4 + ["0"]
    assert all(row.split(",")[4:6] == ["-0", "0"] for row in rows)


def gain_configs():
    """31 configs; min_distance up to the area size, so many cells are
    clamped to it, and users on cell centres (distance zero)."""
    rng = random.Random(13)
    configs = [random_geometry(rng) for _ in range(30)]
    configs = [dataclasses.replace(c, min_distance=rng.uniform(0.1, 120.0)) for c in configs]
    configs.append(small_config(grid=(4, 4), users=((12.5, 37.5), (87.5, 87.5)), min_distance=1e-3))
    return configs


def sweep_tap_gains(monkeypatch, cfg):
    """(x, y, [tap gains of each user]) as the sweep computes them."""
    seen = []

    def spy(*args):
        seen.append(tap_gains(*args))
        return seen[-1]

    tap_gains = scenario._tap_gains
    with monkeypatch.context() as patch:
        patch.setattr(scenario, "_tap_gains", spy)
        result = sweep(cfg)
    return result.x, result.y, seen


def test_sweep_tap_gains_are_bitwise_gains_at(monkeypatch):
    clamped = 0
    for cfg in gain_configs():
        x, y, gains = sweep_tap_gains(monkeypatch, cfg)
        assert len(gains) == 2
        expected = np.array([gains_at(cfg, c).gains_tap for c in zip(x.tolist(), y.tolist())])
        assert np.stack(gains, axis=1).tobytes() == expected.tobytes(), cfg
        clamped += int(np.count_nonzero(expected == cfg.min_distance ** -cfg.pathloss_exponent))
    assert clamped > 0


def test_tap_gains_agree_with_the_scalar_pathloss_formula(monkeypatch):
    # numpy's hypot and power may differ from math.hypot and pow in the last
    # ulps; both paths stay within 1e-14 relative of the scalar formula
    worst = 0.0
    for cfg in gain_configs():
        x, y, gains = sweep_tap_gains(monkeypatch, cfg)
        for k, (cx, cy) in enumerate(zip(x.tolist(), y.tolist())):
            tap = gains_at(cfg, (cx, cy)).gains_tap
            for u, (ux, uy) in enumerate(cfg.users):
                d = max(math.hypot(ux - cx, uy - cy), cfg.min_distance)
                reference = pow(d, -cfg.pathloss_exponent)
                for got in (float(gains[u][k]), tap[u]):
                    worst = max(worst, abs(got - reference) / reference)
    assert 0.0 < worst <= 1e-14


def test_tap_gain_overflow_is_inf_and_gains_at_names_it():
    # a user on the centre of cell (25, 25) with min_distance 1e-3: the tap
    # gain 1e-3 ** -300 leaves the float range before any other cell fails
    cfg = small_config(
        grid=(2, 2), base_station=(26.0, 25.0), users=((25.0, 25.0), (75.0, 75.0)),
        min_distance=1e-3, pathloss_exponent=300.0,
    )
    x, y = np.array([25.0, 75.0, 25.0, 75.0]), np.array([25.0, 25.0, 75.0, 75.0])
    gains = scenario._tap_gains(cfg, cfg.users[0], x, y)
    assert gains[0] == math.inf and np.isfinite(gains[1:]).all()
    message = ("path-loss gain max(distance, min_distance) ** -pathloss_exponent overflows: "
               "distance 0.0, min_distance 0.001, pathloss_exponent 300.0")
    with pytest.raises(ValidationError) as raised:
        gains_at(cfg, (25.0, 25.0))
    assert str(raised.value) == message
    with pytest.raises(ValidationError) as raised:
        sweep(cfg)
    assert str(raised.value) == "cell (25, 25): " + message


def count_cell_calls(monkeypatch):
    calls = []
    cell = scenario._cell

    def counting(*args):
        calls.append(args[1:])
        return cell(*args)

    monkeypatch.setattr(scenario, "_cell", counting)
    return calls


def test_a_gain_overflow_in_the_last_cell_costs_one_scalar_cell(monkeypatch):
    # the only overflowing gain sits at the last of 10,000 cells; the finite
    # mask finds it, and only that cell runs through ``_cell``
    cfg = small_config(grid=(100, 100), users=((20.0, 35.0), (99.5, 99.5)),
                       pathloss_exponent=4.0, min_distance=1e-100)
    calls = count_cell_calls(monkeypatch)
    with pytest.raises(ValidationError) as raised:
        sweep(cfg)
    assert calls == [(99.5, 99.5)]
    assert str(raised.value) == (
        "cell (99.5, 99.5): path-loss gain max(distance, min_distance) ** -pathloss_exponent "
        "overflows: distance 0.0, min_distance 1e-100, pathloss_exponent 4.0"
    )


def test_an_earlier_cell_fails_before_a_gain_overflow(monkeypatch):
    # the tap gain overflows at the last cell, a user's centre; h, a tap
    # gain times noise_var_main over the receiver gain times noise_var_tap,
    # overflows earlier, at (25, 41.6667)
    last = 5.5 * 100.0 / 6
    cfg = small_config(grid=(6, 6), users=((20.0, 35.0), (last, last)), pathloss_exponent=150.0,
                       noise_var_tap=1e-20, noise_var_main=1e200, min_distance=1e-3)
    assert scenario._tap_gains(cfg, cfg.users[1], np.array(last), np.array(last)) == math.inf
    calls = count_cell_calls(monkeypatch)
    with pytest.raises(ValidationError) as raised:
        sweep(cfg)
    cell = (25.0, 2.5 * 100.0 / 6)
    assert calls == [cell]
    with pytest.raises(ValidationError, match="overflows the float range, so h is undefined") as expected:
        reference_cell(cfg, *cell)
    assert str(raised.value) == f"cell ({cell[0]:g}, {cell[1]:g}): {expected.value}"


def test_a_clamped_tap_gain_is_bitwise_the_clamped_receiver_gain():
    # every link is shorter than min_distance, so each gain is
    # min_distance ** -4 and h = noise_var_main / noise_var_tap = 1 exactly;
    # numpy's power can round that gain an ulp below libm's **, which would
    # make h 0.9999999999999999 and every cell both-transmit
    cfg = small_config(
        grid=(5, 3), base_station=(92.287, 78.849), users=((77.117, 70.946), (98.941, 22.403)),
        power_limits=(0.0, 1.69e-234), pathloss_exponent=4.0, min_distance=7579786.075000084,
    )
    raw = gains_at(cfg, (10.0, 50.0))
    assert raw.gains_tap == raw.gains_main == (7579786.075000084 ** -4.0,) * 2
    assert standardize(raw).h == (1.0, 1.0)
    result = sweep(cfg)
    assert Counter(scenario.CASE_LABELS[c] for c in result.case.tolist()) == Counter({"NO_JAM": 15})
