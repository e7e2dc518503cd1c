import random
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcomp import (
    FAIL,
    DecidableNatRel,
    EquivalenceReport,
    dec_to_semi,
    enum_to_semi,
    equivalence_report,
    pair,
    relation_by_name,
    semi_to_enum,
    semi_to_enum_nonempty,
    unpair,
)
from realcomp import natrel
from realcomp.natrel import EnumerableNatRel, FueledProgram, SemiDecidableNatRel

naturals = st.integers(min_value=0, max_value=10**6)


def cantor(a, b):
    return (a + b) * (a + b + 1) // 2 + b


def test_pair_examples():
    assert pair(0, 0) == 0
    assert cantor(1, 2) == 8
    assert pair(1, 2) == 8


def test_unpair_by_search():
    # invert 8 by brute-force search over the formula
    inverse = next((a, b) for a in range(10) for b in range(10) if cantor(a, b) == 8)
    assert inverse == (1, 2)
    assert unpair(8) == (1, 2)


def test_pair_unpair_mutually_inverse():
    for n in range(10**5):
        assert pair(*unpair(n)) == n
    for a in range(0, 300, 7):
        for b in range(0, 300, 11):
            assert unpair(pair(a, b)) == (a, b)


@given(a=naturals, b=naturals)
def test_pairing_round_trip_property(a, b):
    assert unpair(pair(a, b)) == (a, b)


def test_fail_sentinel_never_collides_with_data():
    assert FAIL != 0
    assert FAIL != 1
    assert all(FAIL != n for n in range(100))
    assert repr(FAIL) == "FAIL"


# --- decidable -> semi-decidable ----------------------------------------------


def test_dec_to_semi_halts_exactly_on_the_relation():
    semi = dec_to_semi(relation_by_name("equality"))
    assert semi.program.run((3, 3), 0) == 1
    assert semi.program.run((3, 4), 10**6) is None
    divides = dec_to_semi(relation_by_name("divisibility"))
    assert 6 % 2 == 0  # brute-force divisibility check
    assert divides.program.run((2, 6), 5) == 1


def test_constructed_programs_are_fuel_monotone():
    rng = random.Random(13)
    semi = dec_to_semi(relation_by_name("divisibility"))
    search = enum_to_semi(semi_to_enum(semi))
    for program in (semi.program, search.program):
        for _ in range(40):
            x, y = rng.randrange(12), rng.randrange(12)
            low = program.run((x, y), 150)
            high = program.run((x, y), 600)
            if low is not None:
                assert high == low


# --- semi-decidable -> enumerable ----------------------------------------------


def test_semi_to_enum_lists_exactly_the_multiples():
    enum = semi_to_enum(dec_to_semi(relation_by_name("divisibility")))
    produced = {
        value
        for j in range(10**5)
        if (value := enum.enumerate(2, j)) is not FAIL
    }
    assert produced
    assert all(value % 2 == 0 for value in produced)


def test_semi_to_enum_of_the_empty_relation_always_fails():
    empty = dec_to_semi(DecidableNatRel(lambda x, y: 0, name="empty"))
    enum = semi_to_enum(empty)
    assert all(enum.enumerate(3, j) is FAIL for j in range(2000))


def test_semi_to_enum_fails_on_nonmembers_at_any_slot():
    enum = semi_to_enum(dec_to_semi(relation_by_name("divisibility")))
    assert enum.enumerate(2, pair(5, 10**6)) is FAIL
    assert enum.enumerate(2, pair(2, 0)) == 2


def test_semi_to_enum_nonempty_replaces_failures_with_the_default():
    divides = dec_to_semi(relation_by_name("divisibility"))
    enum = semi_to_enum_nonempty(divides, lambda x: 0)
    values = {enum.enumerate(3, j) for j in range(10**4)}
    assert FAIL not in values
    assert 0 in values
    assert all(v % 3 == 0 for v in values)

    equal = semi_to_enum_nonempty(dec_to_semi(relation_by_name("equality")), lambda x: x)
    assert {equal.enumerate(7, j) for j in range(10**4)} == {7}

    geq = semi_to_enum_nonempty(dec_to_semi(relation_by_name("geq")), lambda x: x)
    assert all(geq.enumerate(4, j) >= 4 for j in range(10**4))


def test_semi_to_enum_nonempty_calls_the_default_only_on_failing_slots():
    divides = dec_to_semi(relation_by_name("divisibility"))
    calls = []
    enum = semi_to_enum_nonempty(divides, lambda x: calls.append(x) or 0)
    assert enum.name == "divisibility-nonempty"
    plain = semi_to_enum(divides)
    for j in range(2000):
        expected = plain.enumerate(3, j)
        assert enum.enumerate(3, j) == (0 if expected is FAIL else expected)
    assert len(calls) == sum(plain.enumerate(3, j) is FAIL for j in range(2000)) > 0


def test_nonempty_default_contract_holds_for_the_samples_used():
    # the default function must land in the row; sampled against the
    # semi-decision, since the constructor itself never re-checks it
    cases = [
        ("divisibility", lambda x: 0),
        ("equality", lambda x: x),
        ("geq", lambda x: x),
    ]
    for name, default in cases:
        semi = dec_to_semi(relation_by_name(name))
        for x in range(25):
            assert semi.program.run((x, default(x)), 10) == 1


# --- enumerable -> semi-decidable -----------------------------------------------


def test_enum_to_semi_halts_immediately_on_an_identity_enumeration():
    search = enum_to_semi(EnumerableNatRel(lambda x, j: x, name="diag"))
    assert search.program.run((5, 5), 0) == 1


def test_enum_to_semi_round_trip_on_divisibility():
    search = enum_to_semi(semi_to_enum(dec_to_semi(relation_by_name("divisibility"))))
    assert search.program.run((2, 4), 10**6) == 1
    assert search.program.run((2, 5), 10**6) is None


def test_round_trip_never_accepts_a_rejected_pair():
    rng = random.Random(31)
    rel = relation_by_name("geq")
    search = enum_to_semi(semi_to_enum(dec_to_semi(rel)))
    for _ in range(60):
        x = rng.randrange(30)
        y = rng.randrange(30)
        if rel.char_fn(x, y) == 0:
            assert search.program.run((x, y), 5000) is None


# --- the equivalence report -------------------------------------------------------


def brute_force_report(rel, bound, fuel):
    """Independent oracle: run the composed search program on every pair.

    An accepted pair's least fuel is found by trying each fuel upward.
    """
    run = enum_to_semi(semi_to_enum(dec_to_semi(rel))).program.run
    agreements = false_accepts = missed = 0
    least_fuels = []
    for x in range(bound + 1):
        for y in range(bound + 1):
            expected = rel.char_fn(x, y) == 1
            accepted = run((x, y), fuel) == 1
            if expected == accepted:
                agreements += 1
            elif accepted:
                false_accepts += 1
            else:
                missed += 1
            if expected and accepted:
                least_fuels.append(
                    next(f for f in range(fuel + 1) if run((x, y), f) == 1)
                )
    return EquivalenceReport(
        relation=rel.name,
        bound=bound,
        fuel=fuel,
        total=(bound + 1) ** 2,
        agreements=agreements,
        false_accepts=false_accepts,
        missed_positives=missed,
        max_fuel_on_positives=max(least_fuels, default=None),
    )


@st.composite
def truth_tables(draw):
    """A relation given by a table on [0, bound]^2, related outside it.

    Each row of the table is empty, full, the diagonal's, or random.
    """
    bound = draw(st.integers(min_value=0, max_value=6))
    n = bound + 1
    rows = [
        draw(st.one_of(
            st.just([False] * n),
            st.just([True] * n),
            st.just([y == x for y in range(n)]),
            st.lists(st.booleans(), min_size=n, max_size=n),
        ))
        for x in range(n)
    ]

    def char(x, y):
        return int(rows[x][y]) if x <= bound and y <= bound else 1

    return DecidableNatRel(char, name="table"), bound


@settings(max_examples=300, deadline=None)
@given(table=truth_tables(), fuel=st.integers(min_value=0, max_value=44))
def test_equivalence_report_equals_brute_force_on_random_relations(table, fuel):
    rel, bound = table
    assert equivalence_report(rel, bound, fuel) == brute_force_report(rel, bound, fuel)


@pytest.mark.parametrize("name", ["divisibility", "equality", "geq"])
def test_equivalence_report_matches_direct_execution_at_small_scale(name):
    rel = relation_by_name(name)
    bound, fuel = 8, 2000
    report = equivalence_report(rel, bound, fuel)
    assert report.agreements == brute_force_report(rel, bound, fuel).agreements
    assert report.total == (bound + 1) ** 2


def test_equivalence_report_full_agreement_at_bound_40():
    for name in ("divisibility", "equality", "geq"):
        report = equivalence_report(relation_by_name(name), 40, 10**6)
        assert report.ok, report.summary()
        assert report.false_accepts == 0
        assert report.missed_positives == 0
        assert report.total == 41 * 41
        # every positive is accepted at the recorded fuel, re-run directly
        assert report.max_fuel_on_positives == 820  # pair(40, 0)
        # and no less: one fuel short, some related (x, 40) is still running
        rel = relation_by_name(name)
        search = enum_to_semi(semi_to_enum(dec_to_semi(rel)))
        assert any(
            search.program.run((x, 40), 819) is None
            for x in range(41)
            if rel.char_fn(x, 40) == 1
        )


def test_equivalence_report_runs_each_row_search_once():
    # re-running the search from slot 0 for every related pair makes
    # 362,973 characteristic-function calls here
    geq = relation_by_name("geq")
    calls = 0

    def counted(x, y):
        nonlocal calls
        calls += 1
        return geq.char_fn(x, y)

    report = equivalence_report(DecidableNatRel(counted, name="geq"), 40, 10**6)
    assert report.ok
    assert calls <= 40_000


def test_equivalence_report_positive_fuel_is_sufficient_directly():
    rel = relation_by_name("equality")
    report = equivalence_report(rel, 12, 10**4)
    search = enum_to_semi(semi_to_enum(dec_to_semi(rel)))
    for x in range(13):
        assert search.program.run((x, x), report.max_fuel_on_positives) == 1


def test_equivalence_report_detects_insufficient_fuel():
    # fuel 10 cannot encode the slot for y = 7 (pair(7, 0) = 28)
    report = equivalence_report(relation_by_name("equality"), 7, 10)
    assert not report.ok
    assert report.missed_positives > 0
    assert report.false_accepts == 0


def test_equivalence_report_counts_a_construction_that_accepts_unrelated_pairs(monkeypatch):
    # A faulty decide -> semi-decide step whose program halts on every
    # pair makes the enumeration produce each y in every row.  Only the
    # decisive-slot probe on negative pairs can see that: without it the
    # report reads 36/36 OK.
    def halts_everywhere(rel):
        always = FueledProgram(lambda args, fuel: 1, name=f"always({rel.name})")
        return SemiDecidableNatRel(always, name=rel.name)

    monkeypatch.setattr(natrel, "dec_to_semi", halts_everywhere)
    report = equivalence_report(relation_by_name("geq"), 5, 100)
    assert report == EquivalenceReport(
        relation="geq",
        bound=5,
        fuel=100,
        total=36,
        agreements=21,
        false_accepts=15,
        missed_positives=0,
        max_fuel_on_positives=15,  # pair(5, 0): every slot produces its y
    )
    assert not report.ok


def test_unknown_relation_name_is_rejected():
    with pytest.raises(ValueError, match="unknown relation"):
        relation_by_name("primality")


def test_unpair_uses_exact_integer_square_roots():
    # huge inputs stay exact
    n = 10**18 + 12345
    a, b = unpair(n)
    assert pair(a, b) == n
    assert isqrt((a + b) * (a + b + 1) * 4) >= 0


def _max_index_by_search(y, fuel):
    """Largest i with pair(y, i) <= fuel, by binary search; None if none."""
    if pair(y, 0) > fuel:
        return None
    lo, hi = 0, fuel  # pair(y, i) >= i
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if pair(y, mid) <= fuel:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_decisive_slot_matches_a_binary_search_over_pair():
    fuels = list(range(300)) + [10**6 - 1, 10**6, 10**12 + 7]
    for y in range(120):
        for fuel in fuels:
            assert natrel._max_index_within(y, fuel) == _max_index_by_search(y, fuel)
