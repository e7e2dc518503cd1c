from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcomp import (
    INF,
    Interval,
    as_fraction,
    is_finite,
    parse_accuracy,
    parse_rational,
    rat,
)

nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(lambda n: n != 0)
fractions = st.fractions(min_value=-100, max_value=100, max_denominator=1000)
accuracies = st.one_of(
    st.just(INF),
    st.fractions(min_value=Fraction(1, 1000), max_value=100, max_denominator=1000),
)


def test_rat_reduces_to_canonical_form():
    assert rat(2, 4) == Fraction(1, 2)
    assert rat(0, 5) == Fraction(0, 1)
    assert rat(-3, -6) == Fraction(1, 2)
    assert rat(7) == Fraction(7, 1)


def test_rat_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rat(1, 0)


@given(a=nonzero_ints, b=nonzero_ints)
def test_rat_inverses(a, b):
    assert rat(a, b) + rat(-a, b) == 0
    assert rat(a, b) * rat(b, a) == 1


def test_as_fraction_refuses_floats():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_interval_rejects_crossed_endpoints():
    with pytest.raises(ValueError):
        Interval(1, 0)


def test_infinity_tops_the_order():
    assert Fraction(10**9) < INF
    assert INF > Fraction(10**9)
    assert not INF < INF
    assert INF <= INF
    assert not is_finite(INF)
    assert is_finite(Fraction(1))


@settings(max_examples=60)
@given(a=accuracies, b=accuracies, c=accuracies)
def test_accuracy_min_max_associative_commutative(a, b, c):
    assert min(a, b) == min(b, a)
    assert max(a, b) == max(b, a)
    assert min(min(a, b), c) == min(a, min(b, c))
    assert max(max(a, b), c) == max(a, max(b, c))


@settings(max_examples=60)
@given(a=accuracies, b=accuracies)
def test_accuracy_order_is_total(a, b):
    assert (a <= b) or (b <= a)


def test_parse_rational():
    assert parse_rational("-3/4") == Fraction(-3, 4)
    assert parse_rational("5") == Fraction(5)
    assert parse_rational("+2/6") == Fraction(1, 3)
    for bad in ("1.5", "1/-2", "1/0", "", "a/b", "1 / 2"):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_accuracy_dyadic_shorthand():
    assert parse_accuracy("2^-10") == Fraction(1, 1024)
    assert parse_accuracy("1/3") == Fraction(1, 3)
    for bad in ("0", "-1/2", "2^-"):
        with pytest.raises(ValueError):
            parse_accuracy(bad)


def test_parse_accuracy_bounds_the_dyadic_exponent():
    assert parse_accuracy("2^-65536") == Fraction(1, 1 << 65536)
    # rejected before any power of two is built
    for bad in ("2^-65537", "2^-10000000000"):
        with pytest.raises(ValueError, match="k <= 65536"):
            parse_accuracy(bad)


@given(q=fractions)
def test_format_parse_round_trip(q):
    assert parse_rational(str(q)) == q
