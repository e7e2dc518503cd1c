import gc
import random
import sys
import threading
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace
from decimal import Decimal
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcomp import (
    INF,
    Add,
    Answer,
    ChiPos,
    Const,
    Converged,
    Interval,
    IntervalMachine,
    Max,
    Min,
    Mul,
    Neg,
    NoConvergence,
    NoConvergenceError,
    Query,
    RealOracle,
    Sub,
    Undefined,
    Var,
    apply,
    apply_machine,
    chi_pos,
    compose,
    const_machine,
    domain_neighborhood,
    eval_expr,
    expr_arity,
    expr_to_machine,
    format_expr,
    from_rational,
    identity,
    parse_spec,
    refine,
    scale_machine,
    shift_machine,
)

from helpers import (
    MUL_HEAVY,
    count_roundings,
    operand_uses,
    rand_fraction,
    rand_positive,
    rand_query,
    random_dag,
    random_expr,
    reference_machine,
    soundness_violations,
    unfused_machine,
)
from realcomp import machine as machine_module
from realcomp import oracle as oracle_module
from realcomp.oracle import _OPERATORS, _postorder

F = Fraction


def test_from_rational_is_constant_in_the_tolerance():
    for value, tol in ((F(2, 3), F(1, 100)), (F(0), F(1)), (F(-5, 2), F(1, 2))):
        oracle = from_rational(value)
        assert oracle(tol) == value
        assert oracle(tol) == oracle(tol)


def test_oracle_rejects_nonpositive_tolerance():
    with pytest.raises(ValueError):
        from_rational(1)(F(0))


def test_add_constant_folds_to_the_exact_shift():
    machine = expr_to_machine(Add(Var(0), Const(1)), 1)
    rng = random.Random(2)
    for _ in range(100):
        query = rand_query(rng, 1)
        q, tol = query.components[0]
        assert apply(machine, query) == Answer(q + 1, tol)


def test_var_compiles_to_the_identity():
    machine = expr_to_machine(Var(0), 1)
    rng = random.Random(4)
    for _ in range(100):
        query = rand_query(rng, 1)
        assert apply(machine, query) == apply(identity(), query)


def test_scaling_folds_to_the_exact_doubling():
    machine = expr_to_machine(Mul(Const(2), Var(0)), 1)
    q = Query.of((F(1, 3), F(1, 8)))
    assert apply(machine, q) == Answer(F(2, 3), F(1, 4))


def band_machine():
    x, y = Var(0), Var(1)
    return expr_to_machine(ChiPos(Mul(Sub(Add(x, Const(1)), y), Sub(y, x))), 2)


def test_band_machine_semi_decides_the_open_band():
    machine = band_machine()
    inside = refine(machine, [from_rational(0), from_rational(F(1, 2))], F(1, 64), 1000)
    assert isinstance(inside, Converged)
    assert inside.value == 1
    for boundary in (F(1), F(0)):
        outcome = refine(machine, [from_rational(0), from_rational(boundary)], F(1, 64), 1000)
        assert outcome == NoConvergence(steps_taken=1000, all_infinite=True)


def test_expr_arity_and_unbound_variables():
    assert expr_arity(Add(Var(0), Var(2))) == 3
    # N is the arity the whole expression needs, not the first bad index
    for expr, arity, uses in ((Var(1), 1, 2), (Add(Var(2), Var(3)), 2, 4)):
        with pytest.raises(ValueError) as err:
            expr_to_machine(expr, arity)
        assert str(err.value) == (
            f"unbound variable: expression uses {uses} argument(s), "
            f"declared arity is {arity}")
    with pytest.raises(ValueError):
        expr_to_machine(Var(0), 0)


def test_eval_expr_chi_undefined_off_the_positives():
    assert eval_expr(ChiPos(Const(F(1, 5))), ()) == 1
    with pytest.raises(Undefined):
        eval_expr(ChiPos(Const(0)), ())


def test_eval_expr_refuses_too_few_values_by_the_arity():
    for expr, xs, uses in ((Add(Var(0), Var(3)), [F(1)], 4), (Var(0), [], 1)):
        with pytest.raises(ValueError) as err:
            eval_expr(expr, xs)
        assert str(err.value) == (
            f"unbound variable: expression uses {uses} argument(s), got {len(xs)} value(s)")
    assert eval_expr(Add(Var(0), Var(3)), [F(1), 0, 0, F(1, 2)]) == F(3, 2)


def test_apply_machine_behaves_like_the_function():
    oracle = apply_machine(chi_pos(), [from_rational(1)], fuel=100)
    assert oracle(F(1, 16)) == 1
    ident = apply_machine(identity(), [from_rational(F(1, 3))], fuel=100)
    for tol in (F(1), F(1, 7), F(1, 1024)):
        assert abs(ident(tol) - F(1, 3)) <= tol


def test_apply_machine_surfaces_divergence():
    oracle = apply_machine(chi_pos(), [from_rational(-1)], fuel=100)
    with pytest.raises(NoConvergenceError):
        oracle(F(1, 4))


def test_apply_machine_composes_into_new_oracles():
    # (x + 1) * 2 at x = 1/3, built oracle-over-oracle
    plus_one = apply_machine(expr_to_machine(Add(Var(0), Const(1)), 1),
                             [from_rational(F(1, 3))], fuel=200)
    doubled = apply_machine(expr_to_machine(Mul(Const(2), Var(0)), 1),
                            [plus_one], fuel=200)
    assert abs(doubled(F(1, 512)) - F(8, 3)) <= F(1, 512)


def test_compiled_machines_agree_with_exact_evaluation():
    rng = random.Random(99)
    defined = 0
    for _ in range(500):
        arity = rng.choice((1, 2))
        expr = random_expr(rng, 4, arity)
        machine = expr_to_machine(expr, arity)
        xs = [rand_fraction(rng, 8, 8) for _ in range(arity)]
        tol = rand_positive(rng)
        try:
            exact = eval_expr(expr, xs)
        except Undefined:  # chi-pos at a value <= 0: nothing to agree with
            continue
        defined += 1
        oracle = apply_machine(machine, [from_rational(x) for x in xs], fuel=400)
        assert abs(oracle(tol) - exact) <= tol
    assert defined >= 300


def _subterms(expr):
    yield expr
    for child in getattr(expr, "children", ()):
        yield from _subterms(child)


def test_compiled_random_expressions_are_sound():
    rng = random.Random(61)
    seen = set()
    for _ in range(200):
        arity = rng.choice((1, 2))
        expr = random_expr(rng, 3, arity)
        seen.update(type(node) for node in _subterms(expr))
        machine = expr_to_machine(expr, arity)
        assert soundness_violations(machine, expr, rng, 30) == 0
    assert seen >= set(_OPERATORS)


def test_plans_answer_exactly_like_the_catalog_tree():
    rng = random.Random(23)
    uncertified = set()
    for _ in range(150):
        arity = rng.choice((1, 2))
        expr = random_dag(rng, 8, arity)
        plan = expr_to_machine(expr, arity)
        tree = reference_machine(expr, arity)
        for _ in range(10):
            query = rand_query(rng, arity)
            answer = apply(plan, query)
            assert answer == apply(tree, query)
            if answer.accuracy is INF:
                uncertified.add(answer.value)
        assert soundness_violations(plan, expr, rng, 10) == 0
    # INF answers from a chi-pos at the root (1) and below it (0) both occur
    assert uncertified == {0, 1}


literals = st.fractions(-6, 6, max_denominator=6).map(Const)


@st.composite
def linear_dags(draw):
    """(DAG, arity): mostly add, sub, neg and scaling by literals, over
    variables, literals, operators of two literals (const steps), chi-pos
    and the odd product; operands come mostly from the last few nodes, so
    subterms are shared."""
    arity = draw(st.integers(1, 2))
    pool = [Var(i) for i in range(arity)]

    def pick():
        return pool[draw(st.integers(max(0, len(pool) - 4), len(pool) - 1))]

    for kind in draw(st.lists(st.sampled_from("++--nsscpm"), min_size=1, max_size=14)):
        if kind in "+-":
            op = Add if kind == "+" else Sub
            other = draw(literals) if draw(st.integers(0, 2)) == 0 else pick()
            pool.append(op(*draw(st.permutations([pick(), other]))))
        elif kind == "n":
            pool.append(Neg(pick()))
        elif kind == "s":
            pool.append(Mul(*draw(st.permutations([draw(literals), pick()]))))
        elif kind == "c":
            pool.append(draw(st.sampled_from((Add, Sub, Mul)))(draw(literals), draw(literals)))
        else:
            pool.append(ChiPos(pick()) if kind == "p" else Mul(pick(), pick()))
    return pool[-1], arity


@settings(max_examples=150, deadline=None)
@given(dag=linear_dags(), seed=st.integers(0, 2**32))
# x1 + x1 four times over, less twice x1, all by 1/3: a = 2/3 and r = 2
# share a numerator, but the region is no scale
@example(dag=(Mul(Const(F(1, 3)), Sub(Add(Add(Var(1), Var(1)), Add(Var(1), Var(1))),
                                       Add(Var(1), Var(1)))), 2), seed=0)
def test_fused_plans_answer_exactly_as_the_unfused_catalog_tree(dag, seed):
    """Exact rational sums do not depend on grouping, so wherever no step
    rounds, a plan answers as the tree of one catalog machine per
    operator: apply, refine and domain_neighborhood alike."""
    expr, arity = dag
    rng = random.Random(seed)
    plan, tree = expr_to_machine(expr, arity), unfused_machine(expr, arity)
    # INF below the root answers (0, INF); only a chi-pos root answers (1, INF)
    uncertified = (0, 1) if isinstance(expr, ChiPos) else (0,)
    with patch.object(machine_module, "_round_ball", wraps=machine_module._round_ball) as rounded:
        for _ in range(8):
            query = rand_query(rng, arity)
            before = rounded.call_count
            answer = apply(plan, query)
            if rounded.call_count == before:
                assert answer == apply(tree, query)
            if answer.accuracy is INF:
                assert answer.value in uncertified
        oracles = [from_rational(rand_fraction(rng)) for _ in range(arity)]
        target, fuel = F(1, 1 << rng.randint(0, 20)), rng.randint(1, 30)
        for run in (lambda m: refine(m, oracles, target, fuel),
                    lambda m: domain_neighborhood(m, oracles, fuel)):
            before = rounded.call_count
            outcome = run(plan)
            if rounded.call_count == before:
                assert run(tree) == outcome


def test_compiling_shared_linear_subterms_is_linear_in_the_dag(monkeypatch):
    # each x_k below is an operand twice, so it is a step of its own: a
    # region that took it in would copy it into each use
    plans = []
    compile_plan = oracle_module._plan_machine
    monkeypatch.setattr(oracle_module, "_plan_machine",
                        lambda steps, *rest: plans.append(steps) or compile_plan(steps, *rest))
    doubled = guarded = Var(0)
    for _ in range(60):
        doubled = Add(doubled, doubled)
    for _ in range(500):
        guarded = Add(guarded, ChiPos(guarded))
    x = F(1, 3)
    for expr, k, exact, fuel in ((doubled, 60, x * 2**60, 100), (guarded, 500, x + 500, 600)):
        machine = expr_to_machine(expr, 1)
        assert len(plans[-1]) <= 2 * k
        assert sum(len(operands) for _, operands in plans[-1]) <= 3 * k
        outcome = refine(machine, [from_rational(x)], F(1, 4), fuel)
        assert isinstance(outcome, Converged)
        assert abs(outcome.value - exact) <= outcome.accuracy


def test_a_linear_subterm_used_twice_is_cut_whichever_use_is_walked_first(monkeypatch):
    # s is an operand of the region s + 1 and of chi-pos(s): it is a step
    # of its own, whether the walk meets the region or chi-pos(s) first
    plans = []
    compile_plan = oracle_module._plan_machine
    monkeypatch.setattr(oracle_module, "_plan_machine",
                        lambda steps, *rest: plans.append(steps) or compile_plan(steps, *rest))
    s = Sub(Var(0), Var(1))
    for expr in (Mul(Add(s, Const(1)), ChiPos(s)), Mul(ChiPos(s), Add(s, Const(1)))):
        machine = expr_to_machine(expr, 2)
        rules = sorted(getattr(rule, "func", rule).__name__ for rule, _ in plans[-1])
        assert rules == ["_chi_pos_rule", "_mul_rule", "_shift_rule", "_sub_rule"]
        answer = apply(machine, Query(((F(3), F(1, 8)), (F(1), F(1, 8)))))
        assert (answer.value, answer.accuracy) == (3, F(17, 16))


def with_chi_pos(rng, expr):
    """expr, or expr under a chi-pos at the root or just below it."""
    return rng.choice((expr, ChiPos(expr), Add(ChiPos(expr), Var(0))))


def adapted(machine):
    """The same machine behind a Query -> Answer transition, as a
    hand-built one is: it runs through the construction-time adapter."""
    return IntervalMachine(machine.arity, machine.transition)


def test_refine_agrees_on_the_plan_the_adapter_and_the_catalog_tree(monkeypatch):
    rounded = count_roundings(monkeypatch)
    rng = random.Random(71)
    seen = Counter()
    for _ in range(150):
        arity = rng.choice((1, 2))
        expr = with_chi_pos(rng, random_dag(rng, 6, arity))
        plan = expr_to_machine(expr, arity)
        machines = (plan, adapted(plan), reference_machine(expr, arity))
        oracles = [from_rational(rand_fraction(rng)) for _ in range(arity)]
        # the same values, but not exact oracles: the plan runs every step
        looped = [RealOracle(o.ask) for o in oracles]
        if rng.random() < 0.5:
            target = F(1, 1 << rng.randint(0, 24))
        else:
            target = rand_positive(rng)
        fuel = rng.randint(1, 30)
        first, *others = [refine(m, oracles, target, fuel) for m in machines]
        assert others == [first, first]
        assert refine(plan, looped, target, fuel) == first
        seen[type(first).__name__, getattr(first, "all_infinite", None)] += 1
        first, *others = [domain_neighborhood(m, oracles, fuel) for m in machines]
        assert others == [first, first]
        assert domain_neighborhood(plan, looped, fuel) == first
        seen["boxes" if isinstance(first, list) else "no boxes"] += 1
    assert set(seen) == {("Converged", None), ("NoConvergence", True),
                         ("NoConvergence", False), "boxes", "no boxes"}
    # the tree rounds at the same nodes as the plan, so equality is exact
    assert rounded[0] >= 40


def test_exact_inputs_decide_divergence_as_the_loop_does():
    """At exact rational inputs a plan may settle divergence without
    running the loop; its refine and domain_neighborhood results must be
    those of the same plan fed non-exact oracles, of the adapter and of
    the catalog tree, also where a chi-pos operand is exactly 0."""
    rng = random.Random(73)
    seen = Counter()
    for _ in range(300):
        arity = rng.choice((1, 2))
        expr = random_dag(rng, 6, arity)
        xs = [rand_fraction(rng) for _ in range(arity)]
        if rng.random() < 0.3:
            try:  # move expr's value at xs to 0: the boundary of a chi-pos
                expr = Sub(expr, Const(eval_expr(expr, xs)))
            except Undefined:
                pass
        expr = with_chi_pos(rng, expr)
        plan = expr_to_machine(expr, arity)
        try:
            eval_expr(expr, xs)
            defined = True
        except Undefined:
            defined = False
        decided = plan._undefined(xs)
        assert not (decided and defined)
        step0 = apply(plan, Query(tuple((x, F(1)) for x in xs)))
        seen["decided"] += decided
        seen["INF at step 0, defined"] += step0.accuracy is INF and defined
        exact = [from_rational(x) for x in xs]
        looped = [RealOracle(lambda tol, x=x: x) for x in xs]
        runs = ((plan, exact), (plan, looped), (adapted(plan), exact),
                (reference_machine(expr, arity), exact))
        target, fuel = F(1, 1 << rng.randint(0, 24)), rng.randint(1, 40)
        first, *others = [refine(m, o, target, fuel) for m, o in runs]
        assert others == [first] * 3
        if decided:
            assert first == NoConvergence(fuel, True)
        first, *others = [domain_neighborhood(m, o, fuel) for m, o in runs]
        assert others == [first] * 3
    assert seen["decided"] >= 50 and seen["INF at step 0, defined"] >= 20


def counting_exact(value, asks):
    """from_rational(value) with its asks appended to `asks`; a second ask
    fails at once rather than after the whole fuel budget."""
    oracle = from_rational(value)

    def ask(tol):
        asks.append(tol)
        assert len(asks) <= 2, "an exact oracle was asked again"
        return oracle.ask(tol)

    return replace(oracle, ask=ask)


def test_divergence_at_exact_inputs_asks_no_oracle():
    # x - y <= 0 at every point below, the boundary x = y included
    band = ChiPos(Sub(Var(0), Var(1)))
    for x, y in ((F(1, 3), F(1, 2)), (F(2, 7), F(2, 7)), (F(-5), F(0))):
        for run in (lambda m, o: refine(m, o, F(1, 2**20), 10**6),
                    lambda m, o: domain_neighborhood(m, o, 10**6)):
            asks_x, asks_y = [], []
            oracles = [counting_exact(x, asks_x), counting_exact(y, asks_y)]
            assert run(expr_to_machine(band, 2), oracles) == NoConvergence(10**6, True)
            # exact values are read, not asked, and the exact test settles it
            assert asks_x == asks_y == []


def squared(e, k: int):
    """e squared k times over, as a DAG of k nodes."""
    for _ in range(k):
        e = Mul(e, e)
    return e


def test_the_exact_test_gives_up_past_the_cap_and_leaves_the_loop_its_outcome():
    # Exactly, the 60th logistic iterate at 1/3 has a numerator and a
    # denominator of the order of 2^60 bits, x squared 60 times at 1/2
    # such a denominator alone, and (x + 1) squared at 1 such a numerator
    # alone: the exact test gives up at the cap.  Under chi-pos(x), which
    # answers INF at the first steps, the loop decides what those give.
    cases = ((logistic_dag(60), F(1, 3), 2), (squared(Var(0), 60), F(1, 2), 1),
             (squared(Add(Var(0), Const(1)), 60), F(1), 1))
    for big, x, fuel in cases:
        alone = expr_to_machine(ChiPos(big), 1)
        plan = expr_to_machine(Add(ChiPos(Var(0)), ChiPos(big)), 1)
        assert alone._undefined([x]) is False
        assert plan._undefined([x]) is False
        for oracle in (from_rational(x), RealOracle(lambda tol: x)):
            assert refine(plan, [oracle], F(1, 2), fuel) == NoConvergence(fuel, True)
            assert domain_neighborhood(plan, [oracle], fuel) == NoConvergence(fuel, True)


def test_display_names_print_rationals_past_the_digit_limit():
    huge = F(1, 3**10000)
    digits = f"1/{Decimal(3**10000)}"
    assert from_rational(huge).name == digits
    assert const_machine(huge).name == f"const({digits})"
    assert shift_machine(huge).name == f"shift({digits})"
    assert scale_machine(-huge).name == f"scale(-{digits})"


def test_intervals_and_positivity_errors_print_rationals_past_the_digit_limit():
    def digits(x):
        return f"{Decimal(x.numerator)}/{Decimal(x.denominator)}"

    # a chi-pos boundary 2^-14400 below x: the certified box has a
    # denominator of 4335 digits
    x = F(1, 3)
    plan = expr_to_machine(ChiPos(Sub(Var(0), Const(x - F(1, 2**14400)))), 1)
    boxes = domain_neighborhood(plan, [from_rational(x)], 20000)
    box, = boxes
    assert box.lo > x - F(1, 2**14400) and len(str(Decimal(box.lo.denominator))) > 4300
    assert repr(boxes) == f"[[{digits(box.lo)}, {digits(box.hi)}]]"
    huge = F(1, 3**10000)
    with pytest.raises(ValueError) as empty:
        Interval(huge, -huge)
    assert str(empty.value) == f"empty interval: lo={digits(huge)} > hi=-{digits(huge)}"
    with pytest.raises(ValueError) as negative:
        refine(plan, [from_rational(x)], -huge, 1)
    assert str(negative.value) == f"target accuracy must be positive, got -{digits(huge)}"


def test_plans_that_round_are_sound_and_answer_like_the_catalog_tree(monkeypatch):
    rounded = count_roundings(monkeypatch)
    rng = random.Random(83)
    in_harness = 0
    for _ in range(200):
        arity = rng.choice((1, 2))
        expr = random_dag(rng, 16, arity, MUL_HEAVY)
        plan = expr_to_machine(expr, arity)
        tree = reference_machine(expr, arity)
        for _ in range(10):
            query = rand_query(rng, arity)
            assert apply(plan, query) == apply(tree, query)
        before = rounded[0]
        assert soundness_violations(plan, expr, rng, 20) == 0
        in_harness += rounded[0] - before
    assert in_harness >= 400 and rounded[0] - in_harness >= 400


def third_power_query(rng, arity):
    """A query whose approximations a/3^k, k <= 120, have denominators far
    past the rounding cap."""
    def approx():
        k = rng.randint(0, 120)
        return F(rng.randint(-4 * 3**k, 4 * 3**k), 3**k)

    return Query(tuple((approx(), rand_positive(rng)) for _ in range(arity)))


def test_plans_and_catalog_trees_agree_at_approximations_past_the_cap():
    # a tree's proj leaf passes the query value on unrounded, as a plan's
    # query slot holds it, so both round only the negation's result
    expr, query = Neg(Var(0)), Query.of((F(1, 3**100), F(1, 2)))
    expected = Answer(F(-1, 2**18), F(1, 2) + F(1, 2**18))
    assert apply(expr_to_machine(expr, 1), query) == expected
    assert apply(reference_machine(expr, 1), query) == expected
    rng = random.Random(89)
    for _ in range(150):
        arity = rng.choice((1, 2))
        expr = random_dag(rng, 16, arity, MUL_HEAVY)
        plan, tree = expr_to_machine(expr, arity), reference_machine(expr, arity)
        for _ in range(10):
            query = third_power_query(rng, arity)
            assert apply(plan, query) == apply(tree, query)


def test_rounding_only_ever_widens_a_plan_answer(monkeypatch):
    """Exactly, in Fractions: where a plan's answer is finite, the answer
    without rounding is finite too and its ball lies inside the rounded
    one.  Every interval rule is inclusion-isotone, so widening an operand
    can only widen the result; a rounding that lost part of its ball would
    show here, by a margin as small as one grid step."""
    rounded = count_roundings(monkeypatch)
    rng = random.Random(97)
    cases = []
    for _ in range(250):
        arity = rng.choice((1, 2))
        plan = expr_to_machine(random_dag(rng, 16, arity, MUL_HEAVY), arity)
        for _ in range(10):
            query = rand_query(rng, arity)
            cases.append((plan, query, apply(plan, query)))
    monkeypatch.setattr(machine_module, "_round_ball", lambda value, e: value)
    finite = 0
    for plan, query, answer in cases:
        if answer.accuracy is INF:
            continue
        finite += 1
        exact = apply(plan, query)
        assert exact.accuracy is not INF
        assert abs(exact.value - answer.value) + exact.accuracy <= answer.accuracy
    assert finite >= 1000 and rounded[0] >= 300


def jittered(x, k):
    """An oracle for the rational x whose answers move with the tolerance."""
    return RealOracle(lambda tol: x + tol * F((tol.denominator * k) % 17 - 8, 8))


def test_refining_at_two_targets_gives_answers_that_agree():
    # both balls hold the true value, so their centres are within
    # eps1 + eps2 of each other; they need not nest
    rng = random.Random(79)
    seen = Counter()
    for _ in range(400):
        arity = rng.choice((1, 2))
        expr = with_chi_pos(rng, random_dag(rng, 8, arity))
        machine = expr_to_machine(expr, arity)
        xs = [rand_fraction(rng) for _ in range(arity)]
        oracles = [jittered(x, rng.randrange(1, 17)) for x in xs]
        r1, r2 = [
            refine(machine, oracles, rng.choice((F(1, 1 << rng.randint(0, 24)),
                                                 rand_positive(rng))), 40)
            for _ in range(2)
        ]
        if not (isinstance(r1, Converged) and isinstance(r2, Converged)):
            continue
        assert abs(r2.value - r1.value) <= r1.accuracy + r2.accuracy
        value = eval_expr(expr, xs)
        assert abs(value - r1.value) <= r1.accuracy
        assert abs(value - r2.value) <= r2.accuracy
        seen["differ"] += r1.value != r2.value
        seen["not nested"] += abs(r2.value - r1.value) > abs(r1.accuracy - r2.accuracy)
    assert seen["differ"] > 40 and seen["not nested"] > 0


def test_compose_answers_like_apply_calls_composed_by_hand():
    rng = random.Random(73)
    infinite_inners = 0
    for _ in range(150):
        arity, width = rng.choice((1, 2)), rng.choice((1, 2))
        inners = [expr_to_machine(with_chi_pos(rng, random_dag(rng, 4, arity)), arity)
                  for _ in range(width)]
        outer = expr_to_machine(random_dag(rng, 4, width), width)
        inners = [rng.choice((m, adapted(m))) for m in inners]
        outer = rng.choice((outer, adapted(outer)))
        composite = compose(outer, inners)
        for _ in range(10):
            query = rand_query(rng, arity)
            answers = [apply(m, query) for m in inners]
            if any(a.accuracy is INF for a in answers):
                infinite_inners += 1
                expected = Answer(F(0), INF)
            else:
                fed = Query(tuple((a.value, a.accuracy) for a in answers))
                expected = apply(outer, fed)
            assert apply(composite, query) == expected
    assert infinite_inners > 0


def logistic_dag(k: int):
    """The k-th iterate of x -> 15/4 x (1 - x); each iterate is one shared object."""
    x = Var(0)
    for _ in range(k):
        x = Mul(Const(F(15, 4)), Mul(x, Sub(Const(1), x)))
    return x


def test_logistic_iterates_keep_their_steps_at_bounded_bit_size():
    # Exact, the answer at k = 12 has 233,471 accuracy bits; rounded to
    # the grid of the query, a few dozen, and no step count moves.
    x = F(1, 3)
    for k, steps in ((10, 53), (12, 56), (14, 60)):
        dag = logistic_dag(k)
        outcome = refine(expr_to_machine(dag, 1), [from_rational(x)], F(1, 2**32), 400)
        assert isinstance(outcome, Converged) and outcome.steps == steps
        assert outcome.value.denominator.bit_length() <= 128
        assert outcome.accuracy.denominator.bit_length() <= 128
        assert abs(eval_expr(dag, [x]) - outcome.value) <= outcome.accuracy


def test_the_60th_logistic_iterate_refines_past_its_coarse_steps():
    # At a coarse query the radius of the iterate squares at every level, so
    # its numerator would reach about 2^(2^60) bits; past 2^4096 the plan
    # answers INF instead, and only later steps are finite.
    x, dag = F(1, 3), logistic_dag(60)
    plan = expr_to_machine(dag, 1)
    assert refine(plan, [from_rational(x)], F(1, 2**20), 10) == NoConvergence(10, True)
    coarse = refine(plan, [from_rational(x)], F(1, 2**20), 400)
    fine = refine(plan, [from_rational(x)], F(1, 2**40), 400)
    assert isinstance(coarse, Converged) and coarse.steps == 136
    assert isinstance(fine, Converged) and fine.steps > coarse.steps
    assert abs(coarse.value - fine.value) <= coarse.accuracy + fine.accuracy
    box, = domain_neighborhood(plan, [from_rational(x)], 400)
    assert box.lo < x < box.hi
    # 0 is a fixed point, where chi-pos is undefined: decided at once
    undefined = expr_to_machine(ChiPos(dag), 1)
    assert refine(undefined, [from_rational(F(0))], F(1, 2**20), 400) == NoConvergence(400, True)


def test_the_radius_bound_is_on_the_ratio_not_the_numerator():
    neg = expr_to_machine(Neg(Var(0)), 1)
    below, above = F(2**5000, 3**3000), F(2**5000, 3)  # about 2^245 and 2^4998
    assert apply(neg, Query.of((F(1), below))) == Answer(F(-1), below)
    assert apply(neg, Query.of((F(1), above))) == Answer(F(0), INF)


class _Watched(int):
    """An int that records whether some `n > self` held: `n > watched`
    calls the subclass's reflected `__lt__` first."""

    def __lt__(self, other):
        below = int(self) < other
        self.passed = self.passed or below
        return below


# MUL_HEAVY without chi-pos, which answers INF at most coarse queries
# before any radius grows
_GROWING = tuple(op for op in MUL_HEAVY if op is not ChiPos)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32), nodes=st.integers(16, 32))
def test_a_radius_past_the_bound_answers_inf_and_nothing_else_moves(seed, nodes):
    """At coarse queries, where radii of products square: where no radius
    numerator passes machine._MAX_RADIUS the answer is the one without
    the bound, and elsewhere it is that one or (0, INF).  Both are sound:
    the first as every plan answer is, the second as INF certifies
    nothing."""
    rng = random.Random(seed)
    arity = rng.choice((1, 2))
    plan = expr_to_machine(random_dag(rng, nodes, arity, _GROWING), arity)
    for _ in range(4):
        query = Query(tuple((F(rng.randint(-256, 256), rng.randint(1, 8)),
                             F(2**rng.randint(0, 64), rng.randint(1, 3)))
                            for _ in range(arity)))
        watched = _Watched(machine_module._MAX_RADIUS)
        watched.passed = False
        with patch.object(machine_module, "_MAX_RADIUS", watched):
            answer = apply(plan, query)
        with patch.object(machine_module, "_MAX_RADIUS", float("inf")):
            unbounded = apply(plan, query)
        if not watched.passed:
            assert answer == unbounded
        elif answer != unbounded:
            assert answer == Answer(F(0), INF)
            assert unbounded.accuracy is INF or unbounded.accuracy > 2**4096


def test_compiling_is_linear_in_the_dag():
    # The 60th iterate's tree has about 2^60 nodes.  It is only compiled:
    # its value at a rational would have about 2^60 bits.
    assert expr_to_machine(logistic_dag(60), 1).arity == 1
    depth = 512  # the parser's nesting cap; x - (x - (... - x)) is 0
    chain = parse_spec("(sub (var 0) " * (depth - 1) + "(var 0)" + ")" * (depth - 1))
    machine = expr_to_machine(chain.expr, 1)
    outcome = refine(machine, [from_rational(F(1, 3))], F(1, 4), 20)
    assert outcome == Converged(F(0), F(1, 4), steps=12)


def test_repr_prints_a_shared_operator_once():
    # the 60th iterate's tree has about 2^60 nodes; each iterate prints once
    # in full and once as "..."
    sizes = []
    for k in (20, 40, 60):
        sizes.append(len(repr(logistic_dag(k))))
        assert sizes[-1] < 120 * k
    assert sizes[2] - sizes[1] == sizes[1] - sizes[0]
    shared = Neg(Var(0))
    assert repr(Add(shared, shared)) == "Add(left=Neg(operand=Var(index=0)), right=...)"


def test_equality_hash_and_repr_do_not_recurse():
    # 511 operators under the parser's nesting cap, deeper than the
    # recursion limit allows a recursive ==, hash or repr to go
    depth = 511
    for text, item in (
        ("(neg " * depth, "Neg(operand="),
        ("(sub (var 0) " * depth, "Sub(left=Var(index=0), right="),
    ):
        spec = text + "(var 0)" + ")" * depth
        e = parse_spec(spec).expr
        again = parse_spec(spec).expr
        assert e == again and not e != again
        assert hash(e) == hash(again)
        assert repr(e) == item * depth + "Var(index=0)" + ")" * depth
        # differs only at the bottom
        assert parse_spec(text + "(var 1)" + ")" * depth).expr != e
    assert repr(Add(Const(F(1, 2)), Neg(Var(1)))) == (
        "Add(left=Const(value=Fraction(1, 2)), right=Neg(operand=Var(index=1)))")


def test_arity_and_exact_evaluation_are_linear_in_the_dag():
    # 0 is a fixed point of the logistic map, so every value stays 0
    dag = logistic_dag(60)
    assert expr_arity(dag) == 1
    assert eval_expr(dag, [F(0)]) == 0
    shared = ChiPos(Var(0))
    assert eval_expr(Add(shared, shared), [F(1)]) == 2
    with pytest.raises(Undefined):
        eval_expr(Add(shared, shared), [F(-1)])


# (operator over the chain so far, value of the chain of n at x, its printed
# head): each chain below is DEEP operators over (var 0), far past the
# interpreter's recursion limit
_DEEP = 5000
_CHAINS = [
    (Neg, lambda x, n: (-1) ** n * x, "(neg "),
    (lambda e: Add(Var(0), e), lambda x, n: (n + 1) * x, "(add (var 0) "),
    (lambda e: Sub(Var(0), e), lambda x, n: x if n % 2 == 0 else 0, "(sub (var 0) "),
    (lambda e: Mul(Var(0), e), lambda x, n: x ** (n + 1), "(mul (var 0) "),
    (lambda e: Min(Var(0), e), lambda x, n: x, "(min (var 0) "),
    (lambda e: Max(Var(0), e), lambda x, n: x, "(max (var 0) "),
    (ChiPos, lambda x, n: 1 if n else x, "(chi-pos "),
]


@pytest.mark.parametrize("wrap, value, head", _CHAINS, ids=[c[2][1:-1] for c in _CHAINS])
def test_every_walk_takes_chains_deeper_than_the_recursion_limit(wrap, value, head):
    assert _DEEP > sys.getrecursionlimit()
    chain = Var(0)
    for _ in range(_DEEP):
        chain = wrap(chain)
    x = F(2, 3)
    exact = value(x, _DEEP)
    assert expr_arity(chain) == 1
    assert eval_expr(chain, [x]) == exact
    assert format_expr(chain) == head * _DEEP + "(var 0)" + ")" * _DEEP
    outcome = refine(expr_to_machine(chain, 1), [from_rational(x)], F(1, 2**20), 400)
    assert isinstance(outcome, Converged) and outcome.accuracy <= F(1, 2**20)
    assert abs(outcome.value - exact) <= outcome.accuracy


def test_every_walk_takes_a_deep_dag_with_a_shared_operand():
    # s = x * x is an operand of each of the 5000 levels; add and max alternate
    s, dag = Mul(Var(0), Var(0)), Var(0)
    for k in range(_DEEP):
        dag = Max(dag, s) if k % 2 else Add(dag, s)
    x = F(1, 3)
    exact = x + _DEEP // 2 * x * x
    assert expr_arity(dag) == 1
    assert eval_expr(dag, [x]) == exact
    heads = ("(max " if k % 2 else "(add " for k in reversed(range(_DEEP)))
    assert format_expr(dag) == "".join(heads) + "(var 0)" + " (mul (var 0) (var 0)))" * _DEEP
    outcome = refine(expr_to_machine(dag, 1), [from_rational(x)], F(1, 2**20), 400)
    assert isinstance(outcome, Converged) and outcome.accuracy <= F(1, 2**20)
    assert abs(outcome.value - exact) <= outcome.accuracy


@settings(max_examples=200)
@given(seed=st.integers(0, 2**32), nodes=st.integers(0, 40), arity=st.integers(1, 3))
def test_postorder_lists_each_subterm_once_after_its_operands(seed, nodes, arity):
    dag = random_dag(random.Random(seed), nodes, arity)
    subterms, shared = _postorder(dag)
    position = {id(e): i for i, e in enumerate(subterms)}
    uses = operand_uses(dag)  # by id, over every distinct operator's operands
    assert len(position) == len(subterms) and subterms[-1] is dag
    assert position.keys() == {id(dag), *uses}
    assert all(position[id(k)] < position[id(e)] for e in subterms for k in e.children)
    assert shared == {i for i, n in uses.items() if n > 1}


def test_structurally_equal_subterms_share_one_step():
    dag = logistic_dag(6)
    tree = parse_spec(format_expr(dag)).expr  # no shared objects left
    # 1 - x, mul and scale per iterate; the constants fold into them
    assert expr_to_machine(dag, 1).name == "plan(18 steps)"
    assert expr_to_machine(tree, 1).name == "plan(18 steps)"


# Step counts of random_dag(random.Random(seed), 40, 2) for seed = 0, 1, ...
_RANDOM_DAG_STEPS = [12, 21, 23, 10, 22, 10, 23, 29, 29, 30, 26, 18, 29, 14, 8, 7, 22, 6, 17, 3]


def test_random_dags_compile_to_pinned_step_counts():
    for seed, steps in enumerate(_RANDOM_DAG_STEPS):
        dag = random_dag(random.Random(seed), 40, 2)
        assert expr_to_machine(dag, 2).name == f"plan({steps} steps)"


def test_one_literal_folds_where_it_can_and_is_a_step_where_it_cannot():
    c, x = Const(F(3, 2)), Var(0)
    # const and min for min(c, x); then one affine step for c * x + min
    for expr in (Add(Mul(c, x), Min(c, x)), Add(Min(c, x), Mul(c, x))):
        machine = expr_to_machine(expr, 1)
        assert machine.name == "plan(3 steps)"
        outcome = refine(machine, [from_rational(1)], F(1, 2**10), 50)
        assert isinstance(outcome, Converged)
        assert abs(outcome.value - F(5, 2)) <= outcome.accuracy


def test_a_compiled_machine_does_not_keep_its_expression_alive():
    expr = ChiPos(logistic_dag(20))
    alive = weakref.ref(expr)
    machine = expr_to_machine(expr, 1)
    del expr
    gc.collect()
    assert alive() is None
    # it refines as before, and still decides divergence at the fixed point 0
    outcome = refine(machine, [from_rational(F(1, 3))], F(1, 2**10), 200)
    assert outcome == Converged(F(1), F(39648098002340295, 2**66), 50)
    assert machine._undefined([F(0)]) is True
    assert refine(machine, [from_rational(F(0))], F(1, 4), 10**6) == NoConvergence(10**6, True)


def test_walks_leave_no_cyclic_garbage():
    # each walk's memo is freed by reference counting when it returns
    dag = logistic_dag(12)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for walk in (lambda: expr_arity(dag), lambda: eval_expr(dag, [F(1, 3)]),
                     lambda: expr_to_machine(dag, 1)):
            walk()
            assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


# --- computed reals replay their schedule --------------------------------------------


def restarted(machine, oracles, fuel):
    """A computed real that refines from step 0 at each new tolerance, memoised
    per tolerance: what apply_machine answered before it replayed its steps."""
    memo = {}

    def ask(tol):
        if tol not in memo:
            memo[tol] = machine_module._required(refine(machine, list(oracles), tol, fuel)).value
        return memo[tol]

    return RealOracle(ask)


def outcome(oracle, tol):
    """oracle(tol), or what its NoConvergenceError says."""
    try:
        return oracle(tol)
    except NoConvergenceError as err:
        return "diverged", err.steps_taken, err.all_infinite


# dyadic tolerances, on the schedule, and others between them
TOLERANCES = st.one_of(st.integers(0, 40).map(lambda k: F(1, 1 << k)),
                       st.builds(F, st.integers(1, 10**6), st.integers(1, 10**9)))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32), fuel=st.integers(1, 40), data=st.data())
def test_a_computed_real_answers_as_a_fresh_refine_in_any_order_of_asks(seed, fuel, data):
    rng = random.Random(seed)
    arity = rng.choice((1, 2))
    machine = expr_to_machine(with_chi_pos(rng, random_dag(rng, 8, arity)), arity)
    xs = [rand_fraction(rng) for _ in range(arity)]
    args = [rng.choice((from_rational(x), jittered(x, rng.randrange(1, 17)))) for x in xs]
    # asks drawn from a few tolerances: finer, coarser and repeated ones
    pool = data.draw(st.lists(TOLERANCES, min_size=1, max_size=6))
    asks = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=16))
    real, restart = apply_machine(machine, args, fuel), restarted(machine, args, fuel)
    replayed = machine_module._Taped(args)
    for tol in asks:
        assert refine(machine, replayed, tol, fuel) == refine(machine, args, tol, fuel)
        assert outcome(real, tol) == outcome(restart, tol)
    assert len(replayed.tape) <= fuel
    # doubled tolerances: domain_neighborhood neither replays nor keeps steps
    steps = dict(replayed.tape)
    assert domain_neighborhood(machine, replayed, fuel) == domain_neighborhood(machine, args, fuel)
    assert replayed.tape == steps


@pytest.mark.parametrize("depth", [2, 3, 4])
@pytest.mark.parametrize("exact", [True, False])
def test_nested_computed_reals_answer_as_restarted_ones(depth, exact):
    step = expr_to_machine(Mul(Var(0), Sub(Const(1), Var(0))), 1)  # x (1 - x)
    x = F(1, 3)
    real = restart = from_rational(x) if exact else jittered(x, 5)
    for _ in range(depth):
        real, restart = apply_machine(step, [real], 200), restarted(step, [restart], 200)
        x *= 1 - x
    tols = [F(1, 1 << k) for k in range(41)] + [F(1, 3**k) for k in range(1, 26)]
    random.Random(depth).shuffle(tols)
    for tol in tols + tols[::3]:
        assert real(tol) == restart(tol)
        assert abs(real(tol) - x) <= tol


def test_a_divergent_computed_real_raises_the_same_error_on_every_ask():
    chi = expr_to_machine(ChiPos(Var(0)), 1)
    plus = expr_to_machine(Add(Var(0), Const(F(1, 7))), 1)
    zero = RealOracle(lambda tol: F(0))  # not exact: the loop spends its fuel
    third = jittered(F(1, 3), 3)
    for machine, args, fuel, want in (
            (chi, [zero], 30, ("diverged", 30, True)),
            # finite from step 2 on, at accuracy 2^-n: 2^-10 is out of reach
            (chi, [third], 5, ("diverged", 5, False)),
            # the inner real at 2^-5, asked at the outer's step 5, raises
            (plus, [apply_machine(chi, [third], 5)], 40, ("diverged", 5, False))):
        real, restart = apply_machine(machine, args, fuel), restarted(machine, args, fuel)
        for tol in (F(1, 1024), F(1, 2), F(1, 1024), F(1, 3**7), F(1, 1024)):
            assert outcome(real, tol) == outcome(restart, tol)
        assert outcome(real, F(1, 1024)) == want


def test_each_step_of_a_computed_real_runs_once():
    asks = Counter()

    def ask(tol):
        asks[tol] += 1
        return F(1, 3)

    real = apply_machine(expr_to_machine(Mul(Var(0), Sub(Const(1), Var(0))), 1),
                         [RealOracle(ask)], 200)
    for k in range(41):
        real(F(1, 1 << k))
    assert set(asks) == {F(1, 1 << n) for n in range(len(asks))}
    # restarting, the first tolerance would be asked once per new ask, 41 times
    assert set(asks.values()) == {1}


def test_each_step_of_a_computed_real_over_an_exact_argument_runs_once():
    # an exact argument is never asked, so only the plan's step calls show a
    # replay that was skipped: restarting, they would sum the steps of each ask
    x, compiled = F(1, 3), expr_to_machine(logistic_dag(3), 1)
    calls = []

    def counted(*values):
        calls.append(values)
        return compiled._step(*values)

    real = apply_machine(replace(compiled, _step=counted), [from_rational(x)], 1000)
    for k in (4, 20, 8, 40, 40, 2, 33):
        assert real(F(1, 1 << k)) == refine(compiled, [from_rational(x)], F(1, 1 << k), 1000).value
    assert len(calls) == refine(compiled, [from_rational(x)], F(1, 1 << 40), 1000).steps
    assert len(set(calls)) == len(calls)


def test_a_computed_real_keeps_at_most_fuel_small_steps(monkeypatch):
    # asked at tolerances past what the fuel reaches, the tape stops at fuel
    # steps, each the four ints of a value, as big as the values the memo holds
    fuel, seen = 300, []
    def spy(machine, oracles, target, fuel):
        seen.append(oracles)
        return refine(machine, oracles, target, fuel)

    monkeypatch.setattr(oracle_module, "refine", spy)
    step = expr_to_machine(Mul(Var(0), Sub(Const(1), Var(0))), 1)
    real = apply_machine(step, [jittered(F(1, 3), 5)], fuel)
    tracemalloc.start()
    try:
        for k in range(2 * fuel):
            outcome(real, F(1, 1 << k))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert all(args is seen[0] for args in seen)
    tape = seen[0].tape
    assert sorted(tape) == list(range(fuel))
    assert all(len(v) == 4 and {type(i) for i in v} == {int} for v in tape.values())
    # 639 bytes a step here with Python 3.11; 318 of them are the memo's
    assert peak < fuel * 1024


def test_threads_sharing_a_computed_real_get_fresh_refine_answers():
    # the steps of concurrent asks interleave; each lands under its own n
    step = expr_to_machine(Mul(Var(0), Sub(Const(1), Var(0))), 1)
    x = jittered(F(1, 3), 5)
    tols = [F(1, 1 << k) for k in range(60)]
    restart = restarted(step, [x], 200)
    want = [restart(tol) for tol in tols]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            real = apply_machine(step, [x], 200)
            got = [None] * 4
            def run(i):
                got[i] = [real(tol) for tol in tols]
            threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert got == [want] * 4
    finally:
        sys.setswitchinterval(interval)
