import json
import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from macwiretap.channel import RawChannelConfig, StandardChannel, check_degraded, standardize
from macwiretap.errors import ValidationError
from macwiretap.rates import cm, g

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
