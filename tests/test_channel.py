import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_rates import cm

import macwiretap as mw
from macwiretap.channel import RawChannelConfig, StandardChannel, check_degraded, standardize
from macwiretap.errors import ValidationError
from macwiretap.rates import g

pos = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
nonneg = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


def make_raw(gm, gt, nm, nt, pl):
    return RawChannelConfig(
        num_users=len(gm),
        gains_main=gm,
        gains_tap=gt,
        noise_var_main=nm,
        noise_var_tap=nt,
        power_limits=pl,
    )


def test_standardize_identity():
    std = standardize(make_raw((1, 1), (1, 1), 1.0, 1.0, (5, 5)))
    assert std.h == (1.0, 1.0)
    assert std.pmax == (5.0, 5.0)


def test_standardize_single_user():
    std = standardize(make_raw((2,), (1,), 1.0, 1.0, (3,)))
    assert std.h == (0.5,)
    assert std.pmax == (6.0,)


def test_standardize_two_user_derived():
    # hand evaluation of h = gt*nm/(gm*nt) and pmax = gm/nm*pl
    std = standardize(make_raw((4, 1), (1, 1), 2.0, 1.0, (1, 1)))
    assert std.h == pytest.approx((0.5, 2.0), abs=1e-15)
    assert std.pmax == pytest.approx((2.0, 0.5), abs=1e-15)


def test_rejects_zero_main_gain():
    with pytest.raises(ValidationError):
        make_raw((0.0, 1.0), (1, 1), 1.0, 1.0, (1, 1))


def test_rejects_nonpositive_noise():
    with pytest.raises(ValidationError):
        make_raw((1, 1), (1, 1), 0.0, 1.0, (1, 1))
    with pytest.raises(ValidationError):
        make_raw((1, 1), (1, 1), 1.0, -2.0, (1, 1))


def test_rejects_negative_power_limit():
    with pytest.raises(ValidationError):
        make_raw((1, 1), (1, 1), 1.0, 1.0, (1, -1))


def test_rejects_length_mismatch():
    with pytest.raises(ValidationError):
        make_raw((1, 1, 1), (1, 1), 1.0, 1.0, (1, 1))


def test_check_degraded_cases():
    report = check_degraded(StandardChannel(2, (0.5, 0.5), (1, 1)))
    assert report.is_degraded and report.common_h == pytest.approx(0.5)
    assert report.max_gain_spread == 0.0

    report = check_degraded(StandardChannel(2, (0.5, 2.0), (1, 1)))
    assert not report.is_degraded and report.common_h is None
    assert report.max_gain_spread == pytest.approx(1.5)

    # equal but >= 1: not degraded, yet the spread still shows equality
    report = check_degraded(StandardChannel(2, (1.2, 1.2), (1, 1)))
    assert not report.is_degraded and report.common_h is None
    assert report.max_gain_spread == 0.0


def test_check_degraded_tolerance():
    report = check_degraded(StandardChannel(2, (0.5, 0.5 + 1e-12), (1, 1)), tol=1e-9)
    assert report.is_degraded
    with pytest.raises(ValidationError):
        check_degraded(StandardChannel(1, (0.5,), (1,)), tol=0.0)


def test_json_round_trip():
    raw = make_raw((4, 1), (1, 0.5), 2.0, 1.0, (1, 3))
    blob = json.dumps(raw.to_dict())
    again = RawChannelConfig.from_dict(json.loads(blob))
    assert again == raw


def test_from_dict_missing_key():
    with pytest.raises(ValidationError):
        RawChannelConfig.from_dict({"num_users": 2})


@pytest.mark.parametrize(
    "key, value",
    [
        ("gains_main", "12"),
        ("power_limits", "34"),
        ("gains_tap", 5),
        ("num_users", True),
        ("num_users", 2.7),
        ("noise_var_main", "x"),
        ("noise_var_tap", None),
    ],
)
def test_from_dict_rejects_loose_values(key, value):
    # a string is not a sequence of digits, a bool or a fraction is not a
    # user count, and a non-numeric noise variance names its field
    data = make_raw((4, 1), (1, 0.5), 2.0, 1.0, (1, 3)).to_dict()
    data[key] = value
    with pytest.raises(ValidationError, match=key):
        RawChannelConfig.from_dict(data)


@given(
    gm=st.tuples(pos, pos),
    gt=st.tuples(nonneg, nonneg),
    nm=pos,
    nt=pos,
    pl=st.tuples(nonneg, nonneg),
)
def test_rate_invariant_under_standardization(gm, gt, nm, nt, pl):
    # full-power receiver-side sum rate agrees between raw and standard form
    raw = make_raw(gm, gt, nm, nt, pl)
    std = standardize(raw)
    raw_rate = g(sum(gm[k] * pl[k] / nm for k in range(2)))
    assert cm(std.pmax, {1, 2}) == pytest.approx(raw_rate, abs=1e-12)


@given(
    gm=st.tuples(pos, pos),
    gt=st.tuples(nonneg, nonneg),
    nm=pos,
    nt=pos,
    pl=st.tuples(nonneg, nonneg),
    scale=st.floats(min_value=1e-2, max_value=1e2, allow_nan=False),
)
def test_scale_consistency(gm, gt, nm, nt, pl, scale):
    # scaling the receiver noise and all receiver gains together is a no-op
    std = standardize(make_raw(gm, gt, nm, nt, pl))
    scaled = standardize(
        make_raw(tuple(v * scale for v in gm), gt, nm * scale, nt, pl)
    )
    assert scaled.h == pytest.approx(std.h, rel=1e-12, abs=1e-15)
    assert scaled.pmax == pytest.approx(std.pmax, rel=1e-12, abs=1e-15)


_STD = StandardChannel(num_users=2, h=(0.5, 0.5), pmax=(2.0, 2.0))
_RAW = dict(num_users=2, gains_main=(4.0, 1.0), gains_tap=(1.0, 1.0), noise_var_main=2.0,
            noise_var_tap=1.0, power_limits=(1.0, 1.0))
_SCENARIO = dict(grid=(3, 3), area=(100.0, 100.0), base_station=(50.0, 50.0),
                 users=((20.0, 35.0), (25.0, 70.0)), power_limits=(1.0, 1.0),
                 noise_var_main=1.0, noise_var_tap=1.0)


def _entry(field, call, valid, negatives=False, length=True, zero=True):
    """An entry point that takes an outside number: the field it names,
    the call on one value of that field, a value it accepts, whether its
    rule admits -1, whether a sequence field has a fixed length, and
    whether its rule admits 0."""
    return field, call, valid, negatives, length, zero


ENTRIES = {
    "optimal_powers_sum": _entry("gains", lambda v: mw.optimal_powers_sum(v, (1.0, 1.0)), (0.5, 0.2)),
    "optimal_powers_sum-pmax": _entry("pmax", lambda v: mw.optimal_powers_sum((0.5, 0.2), v), (1.0, 1.0)),
    "optimal_powers_jam": _entry("pmax", lambda v: mw.optimal_powers_jam((0.5, 2.0), v), (1.0, 1.0)),
    "grid_oracle": _entry("gains", lambda v: mw.grid_oracle("SUM", v, (1.0, 1.0), 11), (0.5, 0.2)),
    "grid_oracle-pmax": _entry("pmax", lambda v: mw.grid_oracle("JAM", (0.5, 2.0), v, 11), (1.0, 1.0)),
    "grid_oracle-resolution": _entry(
        "resolution", lambda v: mw.grid_oracle("SUM", (0.5, 0.2), (1.0, 1.0), v), 11.0, zero=False),
    "optimal_powers_jam-gains": _entry("gains", lambda v: mw.optimal_powers_jam(v, (1.0, 1.0)), (0.5, 2.0)),
    "tdma_optimal_alpha": _entry("powers", mw.tdma_optimal_alpha, (1.0, 1.0), length=False),
    "RateVector": _entry("secret", lambda v: mw.RateVector(v, (0.0, 0.0)), (0.1, 0.1)),
    "DeltaRateVector-total": _entry("total", lambda v: mw.DeltaRateVector(v, 0.5), (0.1,), length=False),
    "DeltaRateVector-delta": _entry("delta", lambda v: mw.DeltaRateVector((0.1,), v), 0.5, zero=False),
    "individual_region_at": _entry("powers", lambda v: mw.individual_region_at(_STD, v), (1.0, 1.0)),
    "collective_region_at": _entry("powers", lambda v: mw.collective_region_at(_STD, v), (1.0, 1.0)),
    "outer_region_at": _entry("powers", lambda v: mw.outer_region_at(_STD, v, "INDIVIDUAL"), (1.0, 1.0)),
    "membership": _entry(
        "tol", lambda v: mw.membership(mw.RateVector((0.1, 0.1), (0.0, 0.0)),
                                       mw.individual_region_at(_STD, (1.0, 1.0)), v), 1e-9),
    "RegionBoundary2D.contains-point": _entry(
        "point", lambda v: mw.region_boundary_2d(_STD, "individual", 0.5, 5, 5).contains(v), (0.0, 0.0),
        negatives=True),
    "RegionBoundary2D.contains-tol": _entry(
        "tol", lambda v: mw.region_boundary_2d(_STD, "individual", 0.5, 5, 5).contains((0.0, 0.0), v), 1e-9),
    "tdma_region_at": _entry("alpha", lambda v: mw.tdma_region_at(_STD, (1.0, 1.0), v), (0.5, 0.5)),
    "delta_region": _entry(
        "delta", lambda v: mw.delta_region(mw.individual_region_at(_STD, (1.0, 1.0)), v), 0.5,
        zero=False),
    "region_boundary_2d": _entry(
        "delta", lambda v: mw.region_boundary_2d(_STD, "individual", v, 5, 5), 0.5, zero=False),
    "region_boundary_2d-power_grid_res": _entry(
        "power_grid_res", lambda v: mw.region_boundary_2d(_STD, "individual", 0.5, v, 5), 5, zero=False),
    "region_boundary_2d-alpha_grid_res": _entry(
        "alpha_grid_res", lambda v: mw.region_boundary_2d(_STD, "tdma", 0.5, 5, v), 5, zero=False),
    "sum_capacity_degraded-h": _entry("h", lambda v: mw.sum_capacity_degraded(v, 1.0), 0.5),
    "sum_capacity_degraded-total_power": _entry(
        "total_power", lambda v: mw.sum_capacity_degraded(0.5, v), 1.0),
    "check_degraded": _entry("tol", lambda v: check_degraded(_STD, v), 1e-9),
    "g": _entry("x", g, 1.0),
    "cw-powers": _entry("powers", lambda v: mw.cw(v, (0.5, 0.2), {1}), (1.0, 1.0), length=False),
    "cw-gains": _entry("gains", lambda v: mw.cw((1.0, 1.0), v, {1, 2}), (0.5, 0.2)),
    "RawChannelConfig-num_users": _entry(
        "num_users", lambda v: RawChannelConfig(**{**_RAW, "num_users": v}), 2),
    "RawChannelConfig-gains_main": _entry(
        "gains_main", lambda v: RawChannelConfig(**{**_RAW, "gains_main": v}), (4.0, 1.0)),
    "RawChannelConfig-noise_var_tap": _entry(
        "noise_var_tap", lambda v: RawChannelConfig(**{**_RAW, "noise_var_tap": v}), 1.0),
    "StandardChannel-h": _entry("h", lambda v: StandardChannel(2, v, (1.0, 1.0)), (0.5, 0.2)),
    "StandardChannel-num_users": _entry("num_users", lambda v: StandardChannel(v, (0.5,), (1.0,)), 1),
    "ScenarioConfig-grid": _entry("grid", lambda v: mw.ScenarioConfig(**{**_SCENARIO, "grid": v}), (3, 3)),
    "ScenarioConfig-area": _entry(
        "area", lambda v: mw.ScenarioConfig(**{**_SCENARIO, "area": v}), (100.0, 100.0)),
    # -1 puts the base station outside the area, a geometry fault, not a sign
    "ScenarioConfig-base_station": _entry(
        "base_station", lambda v: mw.ScenarioConfig(**{**_SCENARIO, "base_station": v}), (50.0, 50.0),
        negatives=True),
    "ScenarioConfig-power_limits": _entry(
        "power_limits", lambda v: mw.ScenarioConfig(**{**_SCENARIO, "power_limits": v}), (1.0, 1.0)),
    "ScenarioConfig-min_distance": _entry(
        "min_distance", lambda v: mw.ScenarioConfig(**{**_SCENARIO, "min_distance": v}), 1.0),
    "ScenarioResult.jam_power_by_bs_distance": _entry(
        "bins", lambda v: mw.sweep(mw.ScenarioConfig(**_SCENARIO)).jam_power_by_bs_distance(v), 10,
        zero=False),
    "gains_at": _entry(
        "eaves_pos", lambda v: mw.gains_at(mw.ScenarioConfig(**_SCENARIO), v), (10.0, 10.0),
        negatives=True),
}


def _outside_values():
    for name, (_, _, valid, negatives, length, zero) in ENTRIES.items():
        bad = {"str": "0.5", "bool": True, "numpy-str": np.str_("0.5"), "numpy-bool": np.True_,
               "nan": math.nan, "inf": math.inf, "-inf": -math.inf}
        if not negatives:
            bad["negative"] = -1
        if not zero:
            bad["zero"] = 0.0
        for label, value in bad.items():
            # a sequence field gets the value as its first entry
            yield pytest.param(name, (value,) + valid[1:] if isinstance(valid, tuple) else value,
                               id=f"{name}-{label}")
        if isinstance(valid, tuple) and length:
            yield pytest.param(name, valid + valid[:1], id=f"{name}-length")


@pytest.mark.parametrize("entry, value", _outside_values())
def test_every_entry_refuses_an_outside_value_naming_its_field(entry, value):
    # one rule for the library API and the configs: a string or a bool is
    # not a number, NaN and infinities are refused, and so is a sign or a
    # length that the field does not admit
    field, call, valid, *_ = ENTRIES[entry]
    call(valid)
    with pytest.raises(ValidationError) as raised:
        call(value)
    assert str(raised.value).startswith(f"{field} "), str(raised.value)


def test_parsed_numbers_come_back_as_floats():
    assert type(mw.DeltaRateVector([1.0], 1).delta) is float
    assert type(RawChannelConfig(**{**_RAW, "noise_var_main": 2}).noise_var_main) is float
    assert RawChannelConfig(**{**_RAW, "num_users": 2.0}).num_users == 2
    assert mw.ScenarioConfig(**{**_SCENARIO, "grid": (3.0, 3)}).grid == (3, 3)
    # an int past the float range is not a finite number
    with pytest.raises(ValidationError, match=r"^noise_var_tap must be a finite positive number"):
        RawChannelConfig(**{**_RAW, "noise_var_tap": 10**400})
