import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from reference_rates import cm

from macwiretap.errors import ValidationError
from macwiretap.rates import _clamp0, cw, enumerate_subsets, g

finite_power = st.floats(min_value=0.0, max_value=50.0, allow_nan=False)
finite_gain = st.floats(min_value=0.0, max_value=5.0, allow_nan=False)


def test_g_anchor_points():
    assert g(0.0) == 0.0
    assert g(1.0) == 0.5
    assert g(3.0) == 1.0


def test_g_strictly_increasing():
    xs = [0.0, 0.1, 0.5, 1.0, 4.0, 100.0]
    vals = [g(x) for x in xs]
    assert all(a < b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("x", [math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 0.3])
def test_clamp0_on_one_value_gives_the_bits_of_the_array_form(x):
    # one value takes a Python branch, an array np.where
    expected = _clamp0(np.array([x, 1.0]))[0].tobytes()
    for one in (x, np.float64(x)):
        assert np.float64(_clamp0(one)).tobytes() == expected


@pytest.mark.parametrize("bad", [-1e-12, -3.0, float("inf"), float("nan")])
def test_g_rejects_bad_input(bad):
    with pytest.raises(ValidationError):
        g(bad)


def test_cm_examples():
    assert cm((1.0, 2.0), {1, 2}) == pytest.approx(1.0, abs=1e-15)
    assert cm((1.0, 2.0), frozenset()) == 0.0
    # independent arithmetic: half of log2(3)
    assert cm((2.0, 2.0), {1}) == pytest.approx(math.log2(3.0) / 2.0, abs=1e-15)


def test_cw_rejects_out_of_range_subset():
    with pytest.raises(ValidationError):
        cw((1.0, 2.0), (0.5, 0.5), {3})
    with pytest.raises(ValidationError):
        cw((1.0, 2.0), (0.5, 0.5), {0})


def test_cw_examples():
    assert cw((2.0, 4.0), (0.5, 0.5), {1, 2}) == pytest.approx(1.0, abs=1e-15)
    assert cw((5.0, 0.0), (0.0, 1.0), {1, 2}) == 0.0
    assert cw((2.0, 2.0), (0.5, 0.5), {1}) == pytest.approx(0.5, abs=1e-15)


def test_cw_refuses_an_overflowing_weighted_power_sum():
    # named as the region code names it, not as g's own argument x
    with pytest.raises(ValidationError) as err:
        cw((1e308, 1e308), (10, 10), {1, 2})
    assert str(err.value) == (
        "powers (1e+308, 1e+308) with gains (10.0, 10.0) too large: "
        "a rate bound overflows the float range"
    )


def test_enumerate_subsets_small():
    assert enumerate_subsets(1) == [frozenset(), frozenset({1})]
    assert enumerate_subsets(2) == [
        frozenset(),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    ]
    assert len(enumerate_subsets(3)) == 8


def test_enumerate_subsets_order_is_size_then_lex():
    for k in range(1, 13):
        subs = enumerate_subsets(k)
        keys = [(len(s), sorted(s)) for s in subs]
        assert keys == sorted(keys), k
        # each of the 2**K subsets of {1..K} exactly once
        assert len(subs) == len(set(subs)) == 2**k, k
        assert all(s <= frozenset(range(1, k + 1)) for s in subs), k


def test_enumerate_subsets_guard():
    with pytest.raises(ValidationError):
        enumerate_subsets(21)
    with pytest.raises(ValidationError):
        enumerate_subsets(0)


@given(
    p=st.tuples(finite_power, finite_power, finite_power),
    h=st.tuples(finite_gain, finite_gain, finite_gain),
    mask=st.integers(min_value=1, max_value=7),
)
def test_cw_superadditive_over_singletons(p, h, mask):
    # prod(1 + a_k) >= 1 + sum(a_k) makes splitting a subset into singletons
    # only loosen the eavesdropper bound
    subset = {k + 1 for k in range(3) if mask >> k & 1}
    assert sum(cw(p, h, {k}) for k in subset) >= cw(p, h, subset) - 1e-12


@given(
    p=st.tuples(finite_power, finite_power),
    h=st.tuples(finite_gain, finite_gain),
    bump=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False),
)
def test_monotone_in_member_power(p, h, bump):
    bigger = (p[0] + bump, p[1])
    assert cm(bigger, {1}) >= cm(p, {1})
    assert cm(bigger, {1, 2}) >= cm(p, {1, 2})
    assert cw(bigger, h, {1, 2}) >= cw(p, h, {1, 2})

