import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import realcomp.relation as relation_module
from realcomp import (
    FAIL,
    Add,
    Answer,
    ChiPos,
    Const,
    IndexSet,
    IntervalMachine,
    Mul,
    NATURALS,
    NoConvergence,
    Query,
    RealEnumRel,
    RealOracle,
    Sub,
    Undefined,
    Var,
    WitnessEntry,
    WitnessList,
    apply,
    chi_pos,
    cluster_values,
    enumerate_witnesses,
    eval_expr,
    from_function,
    from_rational,
    make_finite_rel,
    make_tail_rel,
    member_semi,
    project,
    shift_machine,
    witness,
)

from helpers import rand_query, random_dag, soundness_violations

F = Fraction


def two_branch_rel():
    """The relation pairing x with x and with x + 1."""
    return make_tail_rel([Var(0)], Add(Var(0), Const(1)))


def all_fail_rel():
    return RealEnumRel(NATURALS, lambda i: None, name="void")


def brute_force_clusters(values, radius):
    """Independent clustering oracle: transitive closure of proximity."""
    values = list(values)
    parents = list(range(len(values)))

    def find(i):
        while parents[i] != i:
            i = parents[i]
        return i

    for i in range(len(values)):
        for j in range(i):
            if abs(values[i] - values[j]) <= radius:
                parents[find(i)] = find(j)
    return len({find(i) for i in range(len(values))})


def test_family_answers_match_the_branch_machines():
    rel = two_branch_rel()
    query = Query.of((F(0), F(1, 8)))
    assert rel.family(query, 0) == Answer(F(0), F(1, 8))
    assert rel.family(query, 5) == Answer(F(1), F(1, 8))


def test_identity_relation_every_index_echoes():
    rel = make_tail_rel([], Var(0))
    query = Query.of((F(2, 7), F(1, 16)))
    for i in (0, 1, 17):
        assert rel.family(query, i) == Answer(F(2, 7), F(1, 16))


def test_index_sets():
    assert NATURALS.contains(10**9)
    finite = IndexSet.finite(3)
    assert finite.contains(2) and not finite.contains(3)
    assert finite.clip(10) == 2
    with pytest.raises(ValueError):
        IndexSet.finite(0)


def test_witness_refines_single_branches():
    rel = two_branch_rel()
    zero = from_rational(0)
    w0 = witness(rel, zero, 0, F(1, 8), 500)
    assert isinstance(w0, WitnessEntry) and abs(w0.value) <= F(1, 8)
    w3 = witness(rel, zero, 3, F(1, 8), 500)
    assert isinstance(w3, WitnessEntry) and abs(w3.value - 1) <= F(1, 8)
    ident = make_tail_rel([], Var(0))
    for i in (0, 4):
        w = witness(ident, from_rational(F(1, 2)), i, F(1, 64), 500)
        assert abs(w.value - F(1, 2)) <= F(1, 64)


def test_witness_fail_and_no_convergence():
    finite = make_finite_rel([Var(0)])
    assert witness(finite, from_rational(0), 5, F(1, 8), 100) is FAIL
    rel = RealEnumRel(NATURALS, lambda i: chi_pos(), name="positivity")
    result = witness(rel, from_rational(-1), 0, F(1, 8), 50)
    assert isinstance(result, NoConvergence)


def test_enumerate_witnesses_collects_and_clusters():
    rel = two_branch_rel()
    accuracy = F(1, 1024)
    listing = enumerate_witnesses(rel, from_rational(F(1, 2)), accuracy, 3, 500)
    assert listing.skipped == ()
    values = [entry.value for entry in listing.entries]
    assert len(values) == 4
    assert abs(values[0] - F(1, 2)) <= accuracy
    for v in values[1:]:
        assert abs(v - F(3, 2)) <= accuracy
    clusters = cluster_values(values, 2 * accuracy)
    assert len(clusters) == 2
    assert brute_force_clusters(values, 2 * accuracy) == 2


def test_enumerate_witnesses_skips_everything_on_a_void_relation():
    listing = enumerate_witnesses(all_fail_rel(), from_rational(0), F(1, 8), 4, 100)
    assert listing.entries == ()
    assert listing.skipped == (0, 1, 2, 3, 4)


def test_enumeration_window_monotone():
    rel = two_branch_rel()
    small = enumerate_witnesses(rel, from_rational(F(1, 3)), F(1, 256), 2, 500)
    large = enumerate_witnesses(rel, from_rational(F(1, 3)), F(1, 256), 6, 500)
    assert large.entries[: len(small.entries)] == small.entries


def test_member_semi_finds_the_shifted_witness():
    rel = two_branch_rel()
    assert member_semi(rel, from_rational(0), from_rational(1), F(1, 1024), 10, 500) == 1
    ident = make_tail_rel([], Var(0))
    x = from_rational(F(3, 7))
    assert member_semi(ident, x, from_rational(F(3, 7)), F(1, 1024), 10, 500) == 0


def test_member_semi_exhausts_without_refuting():
    rel = two_branch_rel()
    result = member_semi(
        rel, from_rational(0), from_rational(F(1, 2)), F(1, 1024), 10, 500
    )
    assert result is None  # silence, not a refutation


def test_member_semi_certificates_survive_re_refinement():
    rel = two_branch_rel()
    accuracy = F(1, 1024)
    x = from_rational(F(2, 5))
    y = from_rational(F(7, 5))  # = 2/5 + 1
    index = member_semi(rel, x, y, accuracy, 10, 500)
    assert index is not None
    fine = accuracy / 16
    re_witness = witness(rel, x, index, fine, 2000)
    y_fine = y(fine)
    assert abs(re_witness.value - y_fine) <= accuracy


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bits=st.integers(0, 16),
       shift=st.sampled_from((0, F(1, 4), F(1, 2), 1, 2)), finite=st.booleans())
def test_member_semi_returns_only_indices_within_the_accuracy(seed, bits, shift, finite):
    """A returned index i has |f_i(x) - y| <= accuracy, exactly, over
    random relations whose heads include ones divergent at the exact x:
    chi-pos at an operand exactly 0 or below it."""
    rng = random.Random(seed)
    x, accuracy = F(rng.randint(-12, 12), rng.randint(1, 12)), F(1, 2**bits)
    branches = [random_dag(rng, 5) for _ in range(rng.randint(2, 6))]
    for _ in range(rng.randint(1, 2)):
        below = Sub(Var(0), Const(x + rng.choice((0, 1))))
        branches.insert(rng.randrange(len(branches)), Mul(ChiPos(below), branches[0]))
    rel = make_finite_rel(branches) if finite else make_tail_rel(branches[:-1], branches[-1])
    values = []
    for e in branches:
        try:
            values.append(eval_expr(e, [x]))
        except Undefined:
            pass
    y = rng.choice(values or [x]) + shift * accuracy
    i = member_semi(rel, from_rational(x), from_rational(y), accuracy, 10, 200)
    if i is not None:
        assert abs(eval_expr(branches[min(i, len(branches) - 1)], [x]) - y) <= accuracy


def test_from_function_project_round_trip():
    machine = shift_machine(1)
    rel = from_function(machine)
    rng = random.Random(41)
    for i in (0, 3, 7, 19):
        projected = project(rel, i)
        for _ in range(50):
            query = rand_query(rng, 1)
            assert apply(projected, query) == apply(machine, query)


def test_project_the_two_branch_relation():
    rel = two_branch_rel()
    rng = random.Random(43)
    head = project(rel, 0)
    tail = project(rel, 3)
    for _ in range(200):
        query = rand_query(rng, 1)
        q, tol = query.components[0]
        assert apply(head, query) == Answer(q, tol)
        assert apply(tail, query) == Answer(q + 1, tol)


def test_project_rejects_unused_indices():
    finite = make_finite_rel([Var(0), Add(Var(0), Const(1))])
    project(finite, 1)
    with pytest.raises(ValueError, match="not in use"):
        project(finite, 2)
    with pytest.raises(ValueError, match="not in use"):
        project(all_fail_rel(), 0)


def test_every_slice_of_catalog_relations_is_sound():
    rng = random.Random(47)
    rel = two_branch_rel()
    references = {0: Var(0), 1: Add(Var(0), Const(1)), 4: Add(Var(0), Const(1))}
    for i, expr in references.items():
        assert soundness_violations(project(rel, i), expr, rng, 200) == 0


def test_cluster_values_radius_semantics():
    values = [F(0), F(1, 100), F(1), F(101, 100), F(5)]
    clusters = cluster_values(values, F(1, 50))
    assert [len(c) for c in clusters] == [2, 2, 1]
    assert brute_force_clusters(values, F(1, 50)) == 3


def counted_refines(monkeypatch):
    """The machines relation.refine is called on, in order."""
    calls = []
    original = relation_module.refine

    def counted(machine, *args, **kwargs):
        calls.append(machine)
        return original(machine, *args, **kwargs)

    monkeypatch.setattr(relation_module, "refine", counted)
    return calls


def three_heads_and(tail):
    return make_tail_rel([Var(0), Add(Var(0), Const(1)), Mul(Const(2), Var(0))], tail)


def one_witness_per_index(rel, x, accuracy, max_index, fuel):
    results = [witness(rel, x, i, accuracy, fuel) for i in range(max_index + 1)]
    return WitnessList(
        tuple(r for r in results if isinstance(r, WitnessEntry)),
        tuple(i for i, r in enumerate(results) if not isinstance(r, WitnessEntry)),
    )


def test_enumerate_refines_each_distinct_machine_once(monkeypatch):
    calls = counted_refines(monkeypatch)
    x, accuracy = from_rational(F(1, 3)), F(1, 256)
    rel = three_heads_and(Add(Var(0), Const(3)))
    listing = enumerate_witnesses(rel, x, accuracy, 40, 500)
    assert len(calls) == 4
    assert listing.skipped == ()
    assert [entry.index for entry in listing.entries] == list(range(41))
    assert listing == one_witness_per_index(rel, x, accuracy, 40, 500)

    calls.clear()
    divergent = three_heads_and(ChiPos(Var(0)))
    listing = enumerate_witnesses(divergent, from_rational(-1), accuracy, 40, 50)
    assert len(calls) == 4
    assert listing.skipped == tuple(range(3, 41))
    assert listing == one_witness_per_index(divergent, from_rational(-1), accuracy, 40, 50)


def test_member_semi_reaches_the_first_tail_index_with_one_refine(monkeypatch):
    calls = counted_refines(monkeypatch)
    rel = three_heads_and(Add(Var(0), Const(3)))
    x, y = from_rational(F(1, 3)), from_rational(F(10, 3))
    assert member_semi(rel, x, y, F(1, 1024), 40, 500) == 3
    assert len(calls) == 4
    calls.clear()
    assert member_semi(rel, x, from_rational(100), F(1, 1024), 40, 500) is None
    assert len(calls) == 4


def test_a_functional_relation_is_refined_once(monkeypatch):
    calls = counted_refines(monkeypatch)
    rel = from_function(shift_machine(1))
    listing = enumerate_witnesses(rel, from_rational(F(1, 2)), F(1, 64), 10, 100)
    assert len(calls) == 1
    assert [(e.index, e.value) for e in listing.entries] == [(i, F(3, 2)) for i in range(11)]


def test_a_machine_need_not_be_hashable(monkeypatch):
    class Shift:
        __hash__ = None

        def __call__(self, query):
            return apply(shift_machine(1), query)

    calls = counted_refines(monkeypatch)
    rel = from_function(IntervalMachine(1, Shift(), "unhashable"))
    listing = enumerate_witnesses(rel, from_rational(F(1, 2)), F(1, 64), 10, 100)
    assert len(calls) == 1
    assert [(e.index, e.value) for e in listing.entries] == [(i, F(3, 2)) for i in range(11)]
    assert member_semi(rel, from_rational(F(1, 2)), from_rational(F(3, 2)), F(1, 64), 10, 100) == 0


def test_member_semi_checks_the_window_before_asking_y():
    asked = []

    def ask(tolerance):
        asked.append(tolerance)
        return F(0)

    with pytest.raises(ValueError, match="max_index"):
        member_semi(two_branch_rel(), from_rational(0), RealOracle(ask), F(1, 8), -1, 100)
    assert asked == []
