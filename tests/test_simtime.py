"""Unit tests for exact simulation time."""

import operator

import pytest
from hypothesis import given, strategies as st

from repro.kernel import SimTime, TimeError, ZERO_TIME, fs, ms, ns, ps, sec, us


class TestConstruction:
    def test_unit_helpers_scale_correctly(self):
        assert fs(1).femtoseconds == 1
        assert ps(1).femtoseconds == 10**3
        assert ns(1).femtoseconds == 10**6
        assert us(1).femtoseconds == 10**9
        assert ms(1).femtoseconds == 10**12
        assert sec(1).femtoseconds == 10**15

    def test_fractional_values_resolve_exactly(self):
        assert ns(2.5) == ps(2500)
        assert us(0.001) == ns(1)

    def test_fractional_femtosecond_rejected(self):
        with pytest.raises(TimeError):
            fs(0.5)

    def test_negative_time_rejected(self):
        with pytest.raises(TimeError):
            SimTime(-1)
        with pytest.raises(TimeError):
            ns(-5)

    def test_non_integer_constructor_rejected(self):
        with pytest.raises(TimeError):
            SimTime(1.5)  # type: ignore[arg-type]

    def test_from_value_unknown_unit(self):
        with pytest.raises(TimeError):
            SimTime.from_value(1, "lightyears")


class TestArithmetic:
    def test_addition(self):
        assert ns(5) + ps(500) == ps(5500)

    def test_subtraction(self):
        assert ns(10) - ns(4) == ns(6)

    def test_subtraction_underflow_raises(self):
        with pytest.raises(TimeError):
            ns(1) - ns(2)

    def test_integer_multiplication_both_sides(self):
        assert ns(3) * 4 == ns(12)
        assert 4 * ns(3) == ns(12)

    def test_floordiv_by_time_gives_count(self):
        assert ns(100) // ns(10) == 10
        assert ns(105) // ns(10) == 10

    def test_floordiv_by_int_gives_time(self):
        assert ns(100) // 4 == ns(25)

    def test_division_by_zero_time(self):
        with pytest.raises(ZeroDivisionError):
            ns(1) // ZERO_TIME


class TestComparison:
    def test_ordering(self):
        assert ns(1) < us(1) < ms(1) < sec(1)
        assert ns(5) <= ns(5)
        assert ns(6) > ns(5)
        assert ns(5) >= ns(5) and ns(6) >= ns(5)
        assert not ns(5) > ns(5) and not ns(6) <= ns(5)
        assert not ns(5) < ns(5) and not ns(5) >= ns(6)
        for compare in (operator.lt, operator.le, operator.gt, operator.ge):
            with pytest.raises(TypeError):
                compare(ns(1), 1)
            with pytest.raises(TypeError):
                compare(1, ns(1))

    def test_equality_and_hash(self):
        assert ns(1000) == us(1)
        assert hash(ns(1000)) == hash(us(1))
        assert ns(1) != ns(2)
        assert ns(1) != "1 ns"

    def test_bool_and_is_zero(self):
        assert not ZERO_TIME
        assert ZERO_TIME.is_zero
        assert ns(1)
        assert not ns(1).is_zero


class TestDisplay:
    def test_str_picks_largest_exact_unit(self):
        assert str(ns(10)) == "10 ns"
        assert str(us(1)) == "1 us"
        assert str(ps(1500)) == "1500 ps"
        assert str(ZERO_TIME) == "0 s"

    def test_to_unit_conversion(self):
        assert ns(10).to("ps") == 10_000.0
        assert us(1).to("ns") == 1000.0

    def test_to_unknown_unit(self):
        with pytest.raises(TimeError):
            ns(1).to("parsec")


@given(a=st.integers(0, 10**15), b=st.integers(0, 10**15))
def test_addition_commutes_and_is_exact(a, b):
    ta, tb = SimTime(a), SimTime(b)
    assert ta + tb == tb + ta
    assert (ta + tb).femtoseconds == a + b


@given(a=st.integers(0, 10**12), k=st.integers(1, 1000))
def test_mul_div_roundtrip(a, k):
    t = SimTime(a)
    assert (t * k) // k == t


@given(a=st.integers(0, 10**15), b=st.integers(1, 10**12))
def test_divmod_identity(a, b):
    ta, tb = SimTime(a), SimTime(b)
    quotient = ta // tb
    assert tb * quotient <= ta < tb * (quotient + 1)
