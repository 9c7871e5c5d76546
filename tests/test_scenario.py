import io
import json
import math
from pathlib import Path

import pytest

from macwiretap.channel import standardize
from macwiretap.errors import ValidationError
from macwiretap.rates import g
from macwiretap.scenario import ScenarioConfig, gains_at, sweep

EXAMPLE_CONFIG = Path(__file__).resolve().parent.parent / "scripts" / "example_scenario.json"


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
    assert len(result.records) == 1
    rec = result.records[0]
    assert rec.x == 50.0 and rec.y == 50.0


def test_sweep_row_major_order():
    result = sweep(small_config(grid=(3, 2)))
    coords = [(r.x, r.y) for r in result.records]
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
    rec = result.records[0]
    std = standardize(gains_at(cfg, (2000.0, 2000.0)))
    open_mac = g(std.pmax[0] + std.pmax[1])
    assert rec.sumrate_nojam == pytest.approx(open_mac, rel=1e-2)
    assert rec.sumrate_jam == pytest.approx(open_mac, rel=1e-2)
    assert rec.case == "BOTH_TRANSMIT"


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
    for rec in result.records:
        assert rec.sumrate_jam >= rec.sumrate_nojam - 1e-9


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
