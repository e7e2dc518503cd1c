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


# --- contracts pinned across refactors ----------------------------------------

FINITE_ORDERED = [Fraction(10**9), Fraction(-3, 7), Fraction(0), 0, 5, -2, True, False]


@pytest.mark.parametrize("x", FINITE_ORDERED, ids=repr)
def test_infinity_against_finite_rationals_under_every_comparison(x):
    assert (INF < x, INF <= x, INF > x, INF >= x) == (False, False, True, True)
    assert (x < INF, x <= INF, x > INF, x >= INF) == (True, True, False, False)
    assert (INF == x, INF != x, x == INF, x != INF) == (False, True, False, True)


def test_infinity_against_itself_under_every_comparison():
    assert (INF < INF, INF <= INF, INF > INF, INF >= INF) == (False, True, False, True)
    assert (INF == INF, INF != INF) == (True, False)


@pytest.mark.parametrize("other", ["1", 1.0, None], ids=repr)
def test_infinity_refuses_to_be_ordered_against_non_rationals(other):
    for compare in (
        lambda: INF < other, lambda: INF <= other,
        lambda: INF > other, lambda: INF >= other,
        lambda: other < INF, lambda: other <= INF,
        lambda: other > INF, lambda: other >= INF,
    ):
        with pytest.raises(TypeError):
            compare()
    assert INF != other and not INF == other


def test_infinity_survives_copying_and_pickling_as_itself():
    import copy
    import pickle

    assert copy.copy(INF) is INF
    assert copy.deepcopy(INF) is INF
    assert pickle.loads(pickle.dumps(INF)) is INF
    table = {INF: "none", Fraction(1): "one"}
    assert table[INF] == "none"
    assert pickle.loads(pickle.dumps(table))[INF] == "none"


def _positivity_sites():
    """(message prefix, call) for every public accuracy check outside the CLI."""
    from realcomp import (
        Answer,
        ProbBranch,
        Query,
        Var,
        expr_to_machine,
        from_rational,
        identity,
        make_finite_rel,
        make_prob,
        member_semi,
        outcome_mass,
        refine,
    )

    zero = from_rational(0)
    rel = make_finite_rel([Var(0)])
    alg = make_prob([ProbBranch(expr_to_machine(Var(0), 1), 1)])
    # Fraction.__pos__ refuses anything but a Fraction: the int was coerced
    return [
        ("query tolerance", lambda v: Fraction.__pos__(Query.of((0, v)).components[0][1])),
        ("finite accuracy", lambda v: Fraction.__pos__(Answer(0, v).accuracy)),
        ("target accuracy", lambda v: refine(identity(), [zero], v, 5).accuracy),
        ("tolerance", lambda v: zero(v) + v),
        ("accuracy", lambda v: member_semi(rel, zero, zero, v, 0, 5) + v),
        ("accuracy", lambda v: outcome_mass(alg, zero, zero, v, 5).lower + v),
    ]


@pytest.mark.parametrize("site", range(6))
@pytest.mark.parametrize("value", [0, -3, Fraction(-1, 2)], ids=repr)
def test_every_positivity_check_keeps_its_message(site, value):
    what, call = _positivity_sites()[site]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{what} must be positive, got {value}"


@pytest.mark.parametrize("site", range(6))
def test_every_positivity_check_accepts_an_int(site):
    _, call = _positivity_sites()[site]
    assert call(2) >= 1
