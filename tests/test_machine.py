import random
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realcomp import (
    INF,
    Answer,
    ChiPos,
    Const,
    Converged,
    Interval,
    IntervalMachine,
    ModulusMachine,
    Mul,
    NoConvergence,
    Query,
    RealOracle,
    Var,
    add_machine,
    apply,
    apply_machine,
    chi_pos,
    compose,
    const_machine,
    domain_neighborhood,
    expr_arity,
    expr_to_machine,
    from_rational,
    identity,
    is_finite,
    max_machine,
    min_machine,
    modulus_to_machine,
    mul_machine,
    neg_machine,
    proj,
    refine,
    scale_machine,
    shift_machine,
)
from realcomp.machine import (
    _add_rule,
    _affine_rule,
    _chi_pos_rule,
    _const_rule,
    _gcd,
    _max_rule,
    _min_rule,
    _mul_rule,
    _neg_rule,
    _round_ball,
    _scale_rule,
    _shift_rule,
    _sub_from_rule,
    _sub_rule,
    _value,
)

from helpers import (
    FRACTION_RULES,
    SOUNDNESS_CATALOG,
    rand_fraction,
    rand_positive,
    rand_query,
    soundness_violations,
)

F = Fraction


def chi_rule(q, tol):
    """The positivity rule, restated independently for trace oracles."""
    return (F(1), tol) if q - tol > 0 else (F(1), INF)


def trace_refinement(oracle_value, target, fuel):
    """Hand-trace of the canonical schedule against the positivity rule."""
    for n in range(fuel):
        tol = F(1, 2**n)
        value, accuracy = chi_rule(oracle_value, tol)
        if accuracy is not INF and accuracy <= target:
            return value, accuracy, n
    return None


# --- apply -----------------------------------------------------------------


def test_chi_pos_rule():
    chi = chi_pos()
    assert apply(chi, Query.of((F(1, 2), F(1, 4)))) == Answer(1, F(1, 4))
    assert apply(chi, Query.of((F(0), F(1)))) == Answer(1, INF)
    assert apply(chi, Query.of((F(3), F(1)))) == Answer(1, F(1))
    assert apply(chi, Query.of((F(1, 1000), F(1, 2000)))) == Answer(1, F(1, 2000))


def test_identity_echoes_its_component():
    assert apply(identity(), Query.of((F(1, 3), F(1, 8)))) == Answer(F(1, 3), F(1, 8))


def test_apply_rejects_arity_mismatch():
    with pytest.raises(ValueError, match="arity"):
        apply(chi_pos(), Query.of((F(1), F(1)), (F(2), F(1))))


def test_apply_is_deterministic():
    machine = compose(add_machine(), [identity(), shift_machine(3)])
    query = Query.of((F(5, 7), F(1, 9)))
    assert apply(machine, query) == apply(machine, query)


def test_query_validation():
    with pytest.raises(ValueError):
        Query(())
    with pytest.raises(ValueError):
        Query.of((F(1), F(0)))
    with pytest.raises(ValueError):
        Answer(F(1), F(0))


# --- arithmetic lifts --------------------------------------------------------


def test_add_machine_interval_sum():
    ans = apply(add_machine(), Query.of((F(1, 2), F(1, 8)), (F(1, 3), F(1, 8))))
    assert ans == Answer(F(5, 6), F(1, 4))


def test_mul_machine_matches_corner_oracle():
    q1, t1, q2, t2 = F(2), F(1, 2), F(3), F(1, 2)
    corners = [
        (q1 + s1 * t1) * (q2 + s2 * t2) for s1, s2 in product((-1, 1), repeat=2)
    ]
    corner_bound = max(abs(c - q1 * q2) for c in corners)
    assert corner_bound == F(11, 4)
    ans = apply(mul_machine(), Query.of((q1, t1), (q2, t2)))
    assert ans == Answer(F(6), F(11, 4))


def test_mul_bound_is_the_exact_corner_bound_on_samples():
    rng = random.Random(7)
    machine = mul_machine()
    for _ in range(300):
        query = rand_query(rng, 2)
        (q1, t1), (q2, t2) = query.components
        ans = apply(machine, query)
        corners = [
            (q1 + s1 * t1) * (q2 + s2 * t2)
            for s1, s2 in product((-1, 1), repeat=2)
        ]
        assert ans.accuracy == max(abs(c - q1 * q2) for c in corners)


def test_neg_machine():
    assert apply(neg_machine(), Query.of((F(1, 2), F(1, 4)))) == Answer(
        F(-1, 2), F(1, 4)
    )


def test_min_max_machines_bracket_the_exact_range():
    rng = random.Random(11)
    for machine, pick in ((min_machine(), min), (max_machine(), max)):
        for _ in range(200):
            query = rand_query(rng, 2)
            (q1, t1), (q2, t2) = query.components
            ans = apply(machine, query)
            lo = pick(q1 - t1, q2 - t2)
            hi = pick(q1 + t1, q2 + t2)
            assert ans.value - ans.accuracy == lo
            assert ans.value + ans.accuracy == hi


def test_const_machine_answers_finest_tolerance():
    machine = const_machine(F(7, 3), arity=2)
    ans = apply(machine, Query.of((F(0), F(1, 4)), (F(9), F(1, 8))))
    assert ans == Answer(F(7, 3), F(1, 8))


def test_shift_and_scale_are_exact():
    assert apply(shift_machine(F(1)), Query.of((F(1, 3), F(1, 8)))) == Answer(
        F(4, 3), F(1, 8)
    )
    assert apply(scale_machine(F(2)), Query.of((F(1, 3), F(1, 8)))) == Answer(
        F(2, 3), F(1, 4)
    )
    with pytest.raises(ValueError):
        scale_machine(0)


# --- composition -------------------------------------------------------------


def test_compose_with_identity_is_extensionally_chi():
    rng = random.Random(3)
    direct = chi_pos()
    composed = compose(chi_pos(), [identity()])
    for _ in range(200):
        query = rand_query(rng, 1)
        assert apply(direct, query) == apply(composed, query)


def test_compose_propagates_infinite_answers():
    inner = IntervalMachine(1, lambda q: Answer(F(1), INF), name="mute")
    machine = compose(shift_machine(1), [inner])
    assert apply(machine, Query.of((F(0), F(1)))) == Answer(F(0), INF)


def test_compose_rejects_mismatched_arities():
    with pytest.raises(ValueError):
        compose(add_machine(), [identity()])
    with pytest.raises(ValueError):
        compose(add_machine(), [identity(), proj(0, 2)])


# --- refinement ---------------------------------------------------------------


def test_refine_chi_pos_converges_per_hand_trace():
    value, accuracy, step = trace_refinement(F(1), F(1, 16), 100)
    assert (value, accuracy, step) == (F(1), F(1, 16), 4)
    outcome = refine(chi_pos(), [from_rational(1)], F(1, 16), 100)
    assert outcome == Converged(F(1), F(1, 16), steps=5)


def test_refine_chi_pos_diverges_below_zero():
    outcome = refine(chi_pos(), [from_rational(-1)], F(1, 16), 1000)
    assert outcome == NoConvergence(steps_taken=1000, all_infinite=True)


def test_refine_identity():
    outcome = refine(identity(), [from_rational(F(1, 3))], F(1, 8), 100)
    assert outcome == Converged(F(1, 3), F(1, 8), steps=4)


def test_refine_schedule_tolerances_strictly_decrease():
    seen = []

    def transition(query):
        seen.append(query.components[0][1])
        return Answer(F(0), INF)

    refine(IntervalMachine(1, transition), [from_rational(0)], F(1, 2), 20)
    assert seen == [F(1, 2**n) for n in range(20)]
    assert all(a > b for a, b in zip(seen, seen[1:]))


def test_refine_converged_accuracy_never_exceeds_target():
    rng = random.Random(23)
    for _ in range(50):
        x = rand_fraction(rng)
        target = rand_positive(rng)
        outcome = refine(shift_machine(5), [from_rational(x)], target, 200)
        assert isinstance(outcome, Converged)
        assert outcome.accuracy <= target
        assert abs(outcome.value - (x + 5)) <= outcome.accuracy


def test_refine_validates_inputs():
    with pytest.raises(ValueError):
        refine(identity(), [], F(1, 2), 10)
    with pytest.raises(ValueError):
        refine(identity(), [from_rational(0)], F(0), 10)
    with pytest.raises(ValueError):
        refine(identity(), [from_rational(0)], F(1, 2), 0)


def test_domain_neighborhood_validates_inputs_as_refine_does():
    zero = from_rational(0)
    cases = (
        ([], 10, "machine 'proj0' takes 1 argument(s), got 0 oracle(s)"),
        ([zero, zero], 10, "machine 'proj0' takes 1 argument(s), got 2 oracle(s)"),
        ([zero], 0, "fuel must be >= 1, got 0"),
        ([zero], -3, "fuel must be >= 1, got -3"),
    )
    for oracles, fuel, message in cases:
        for run in (lambda: refine(identity(), oracles, F(1, 2), fuel),
                    lambda: domain_neighborhood(identity(), oracles, fuel)):
            with pytest.raises(ValueError) as raised:
                run()
            assert str(raised.value) == message


def test_refine_and_domain_refuse_float_approximations():
    for oracle in (RealOracle(lambda tol: 0.5), lambda tol: 0.5):
        with pytest.raises(TypeError, match="exact rational"):
            refine(identity(), [oracle], F(1, 8), 10)
        with pytest.raises(TypeError, match="exact rational"):
            domain_neighborhood(identity(), [oracle], 10)
        with pytest.raises(TypeError, match="exact rational"):
            apply_machine(identity(), [oracle], 10)(F(1, 8))


def test_refine_and_domain_accept_int_approximations():
    oracle = RealOracle(lambda tol: 1)
    assert refine(identity(), [oracle], F(1, 8), 10) == Converged(F(1), F(1, 8), 4)
    assert domain_neighborhood(identity(), [oracle], 10) == [Interval(F(-1), F(3))]
    assert apply_machine(identity(), [oracle], 10)(F(1, 8)) == 1


def test_refine_keeps_validating_hand_built_answers():
    def zero_accuracy(query):
        return Answer(query.components[0][0], 0)

    with pytest.raises(ValueError, match="finite accuracy must be positive"):
        refine(IntervalMachine(1, zero_accuracy), [from_rational(0)], F(1, 2), 10)


# --- domain neighborhoods ------------------------------------------------------


def test_domain_neighborhood_chi_at_one_matches_trace():
    # doubled-tolerance trace: steps 0 and 1 answer INF, step 2 is finite
    assert chi_rule(F(1), F(2))[1] is INF
    assert chi_rule(F(1), F(1))[1] is INF
    assert is_finite(chi_rule(F(1), F(1, 2))[1])
    result = domain_neighborhood(chi_pos(), [from_rational(1)], 1000)
    assert result == [Interval(F(1, 2), F(3, 2))]


def test_domain_neighborhood_identity_at_five():
    result = domain_neighborhood(identity(), [from_rational(5)], 1000)
    assert result == [Interval(F(3), F(7))]


def test_domain_neighborhood_diverges_at_zero():
    result = domain_neighborhood(chi_pos(), [from_rational(0)], 1000)
    assert result == NoConvergence(steps_taken=1000, all_infinite=True)


def test_openness_witness_neighborhood_points_converge():
    fuel = 250
    neighborhoods = domain_neighborhood(chi_pos(), [from_rational(1)], fuel)
    rng = random.Random(5)
    box = neighborhoods[0]
    for _ in range(20):
        y = box.lo + box.width * F(rng.randint(0, 64), 64)
        outcome = refine(chi_pos(), [from_rational(y)], F(1, 1024), fuel * 4)
        assert isinstance(outcome, Converged)


# --- modulus-style machines -----------------------------------------------------


def gl_identity():
    return ModulusMachine(lambda eps: eps, lambda q, eps: q, name="gl-id")


def gl_doubling():
    return ModulusMachine(lambda eps: eps / 2, lambda q, eps: 2 * q, name="gl-2x")


def grid_search_oracle(modulus, tol, floor_exp):
    """Independent scan of the dyadic grid for the least sufficient accuracy."""
    qualifying = [
        F(1, 2**k) for k in range(floor_exp + 1) if modulus(F(1, 2**k)) >= tol
    ]
    return min(qualifying) if qualifying else None


def test_modulus_adapter_identity():
    assert grid_search_oracle(lambda e: e, F(1, 4), 20) == F(1, 4)
    machine = modulus_to_machine(gl_identity(), 20)
    assert apply(machine, Query.of((F(1, 3), F(1, 4)))) == Answer(F(1, 3), F(1, 4))


def test_modulus_adapter_doubling():
    assert grid_search_oracle(lambda e: e / 2, F(1, 4), 20) == F(1, 2)
    machine = modulus_to_machine(gl_doubling(), 20)
    assert apply(machine, Query.of((F(1), F(1, 4)))) == Answer(F(2), F(1, 2))


def test_modulus_adapter_exhausted_grid_answers_infinite():
    machine = modulus_to_machine(gl_identity(), 20)
    ans = apply(machine, Query.of((F(5), F(2))))
    assert ans.accuracy is INF


@settings(max_examples=200)
@given(floor_exp=st.integers(1, 12), data=st.data())
def test_modulus_adapter_answers_like_the_grid_search_on_any_modulus(floor_exp, data):
    # one drawn value per grid point, so the modulus is rarely monotone;
    # some points sit exactly at the tolerance
    tol = data.draw(st.fractions(min_value=F(1, 2**14), max_value=2))
    value = st.one_of(st.just(tol), st.fractions(min_value=0, max_value=2))
    table = data.draw(st.lists(value, min_size=floor_exp + 1, max_size=floor_exp + 1))

    def modulus(eps):
        return table[eps.denominator.bit_length() - 1]

    calls = []
    counted = ModulusMachine(lambda eps: calls.append(eps) or modulus(eps),
                             lambda q, eps: q + eps)
    q = F(1, 3)
    answer = apply(modulus_to_machine(counted, floor_exp), Query.of((q, tol)))
    best = grid_search_oracle(modulus, tol, floor_exp)
    if best is None:
        assert answer == Answer(q + 1, INF)
        assert len(calls) == floor_exp + 1
    else:
        assert answer == Answer(q + best, best)
        # the scan stops at the finest qualifying point
        assert len(calls) == floor_exp + 2 - best.denominator.bit_length()


def test_modulus_adapter_stops_at_the_first_qualifying_grid_point():
    calls = []
    mm = ModulusMachine(lambda eps: calls.append(eps) or eps, lambda q, eps: q)
    machine = modulus_to_machine(mm, 40)
    outcome = refine(machine, [from_rational(F(1, 3))], F(1, 2**10), 100)
    assert outcome == Converged(F(1, 3), F(1, 2**10), 11)
    # a scan of all 41 grid points per step made 11 * 41 = 451 calls
    assert len(calls) == 396


def test_adapted_machines_are_sound():
    rng = random.Random(17)
    for mm, reference in ((gl_identity(), Var(0)), (gl_doubling(), Mul(Const(2), Var(0)))):
        machine = modulus_to_machine(mm, 20)
        assert soundness_violations(machine, reference, rng, 400) == 0


# --- soundness sampling -----------------------------------------------------------


@pytest.mark.parametrize(
    "name,expr", SOUNDNESS_CATALOG, ids=[n for n, _ in SOUNDNESS_CATALOG]
)
def test_catalog_machines_are_sound_by_sampling(name, expr):
    rng = random.Random(sum(map(ord, name)))
    machine = expr_to_machine(expr, expr_arity(expr))
    assert soundness_violations(machine, expr, rng, 300) == 0


def test_chi_pos_passes_the_generic_soundness_harness():
    # finite answers only ever cover boxes inside (0, oo), where the
    # reference function is the constant 1; a finite answer anywhere else
    # would meet an undefined reference and count as a violation
    rng = random.Random(53)
    assert soundness_violations(chi_pos(), ChiPos(Var(0)), rng, 500) == 0


def test_chi_pos_finite_answers_certify_positivity():
    # a finite answer pins the whole query box inside (0, oo), where the
    # reference value is the constant 1
    rng = random.Random(29)
    chi = chi_pos()
    finite_seen = 0
    for _ in range(1000):
        query = rand_query(rng, 1)
        ans = apply(chi, query)
        if is_finite(ans.accuracy):
            finite_seen += 1
            q, tol = query.components[0]
            assert q - tol > 0
            assert ans.value == 1
    assert finite_seen > 0


# --- ball rounding -----------------------------------------------------------------

# an integer of 1 to 2000 bits
PARTS = st.integers(1, 2000).flatmap(lambda b: st.integers(1 << (b - 1), (1 << b) - 1))


@settings(max_examples=300, deadline=None)
@given(sign=st.sampled_from((-1, 0, 1)), qn=PARTS, qd=PARTS, tn=PARTS, td=PARTS,
       e=st.integers(1, 2100))
def test_rounding_a_ball_covers_it_with_a_dyadic_ball_in_lowest_terms(
        sign, qn, qd, tn, td, e):
    q, t = F(sign * qn, qd), F(tn, td)
    mn, md, rn, rd = _round_ball(_value(q, t), e)
    m, r = F(mn, md), F(rn, rd)
    assert m - r <= q - t and q + t <= m + r
    assert (mn, md, rn, rd) == _value(m, r) and r > 0
    for d in (md, rd):
        assert d & (d - 1) == 0 and d <= 1 << e
    # the plan runner rounds a value only where qd or td exceeds 2^(2e)
    assert max(md, rd) <= 1 << 2 * e


# --- the integer-pair kernel against the Fraction reference ------------------------

# (name, kernel rule, literal parameters, operands; None for 1 to 3)
KERNEL_RULES = [
    ("const", _const_rule, 1, None),
    ("shift", _shift_rule, 1, 1),
    ("sub-from", _sub_from_rule, 1, 1),
    ("scale", _scale_rule, 1, 1),
    ("neg", _neg_rule, 0, 1),
    ("add", _add_rule, 0, 2),
    ("sub", _sub_rule, 0, 2),
    ("mul", _mul_rule, 0, 2),
    ("min", _min_rule, 0, 2),
    ("max", _max_rule, 0, 2),
    ("chi-pos", _chi_pos_rule, 0, 1),
    ("affine", _affine_rule, 1, None),
]

# 1- to 2000-bit magnitudes, nonzero values of either sign, and all values
magnitudes = st.integers(0, 1999).flatmap(lambda b: st.integers(1 << b, (2 << b) - 1))
nonzero = st.one_of(magnitudes, magnitudes.map(lambda n: -n))
signed = st.one_of(st.just(0), nonzero)


def draw_rational(data, dens, numerators=signed):
    """A rational over one of the drawn denominators, so that operands
    often share a denominator; dens holds 1, so integers are common."""
    return F(data.draw(numerators), data.draw(st.sampled_from(dens)))


def draw_denominators(data):
    return [1] + data.draw(st.lists(magnitudes, min_size=1, max_size=3))


def draw_coefficient(data, dens):
    """An affine operand's (a, r) as the compiler forms them: r >= |a| and
    r > 0; a = 0 with r = 2 is the form of x - x."""
    a = draw_rational(data, dens)
    r = abs(a) + draw_rational(data, dens, st.one_of(st.just(0), magnitudes))
    return a, r or F(2)


def encode(param):
    """A literal parameter as the kernel takes it: an integer pair, or for
    affine coefficients one (an, ad, rn, rd) per operand."""
    if isinstance(param, list):
        return tuple((*a.as_integer_ratio(), *r.as_integer_ratio()) for a, r in param)
    return param.as_integer_ratio()


def check_kernel(name, rule, params, operands):
    """The kernel rule on int pairs gives exactly the reference result, in
    lowest terms with a positive denominator, and INF as td == 0."""
    got = rule(*map(encode, params),
               *[(*q.as_integer_ratio(), *t.as_integer_ratio()) for q, t in operands])
    want_q, want_t = FRACTION_RULES[name](*params, *operands)
    assert len(got) == 4 and all(type(v) is int for v in got)
    qn, qd, tn, td = got
    assert (qn, qd) == want_q.as_integer_ratio()
    assert gcd(qn, qd) == 1 and qd > 0
    if want_t is INF:
        assert td == 0
    else:
        assert (tn, td) == want_t.as_integer_ratio()
        assert gcd(tn, td) == 1 and td > 0
    return got


@pytest.mark.parametrize("name,rule,n_params,n_operands", KERNEL_RULES,
                         ids=[name for name, *_ in KERNEL_RULES])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_rules_match_the_fraction_reference(name, rule, n_params, n_operands, data):
    dens = draw_denominators(data)
    if n_operands is None:
        n_operands = data.draw(st.integers(1, 3))
    # a zero factor never reaches scale: the catalog refuses it, plans keep mul
    literals = nonzero if name == "scale" else signed
    params = [draw_rational(data, dens, literals) for _ in range(n_params)]
    if name == "affine":  # the constant, then a coefficient per operand
        params.append([draw_coefficient(data, dens) for _ in range(n_operands)])
    # at radius 0, where the exact test of a plan runs them, rules are exact
    radii = st.just(0) if data.draw(st.booleans()) else magnitudes
    operands = [(draw_rational(data, dens), draw_rational(data, dens, radii))
                for _ in range(n_operands)]
    check_kernel(name, rule, params, operands)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), side=st.sampled_from([-1, 0, 1]))
def test_chi_pos_kernel_below_at_and_above_the_boundary(data, side):
    # q - tol is below 0, exactly 0, or above 0; at tol = 0, INF just at q <= 0
    dens = draw_denominators(data)
    tol = draw_rational(data, dens, st.one_of(st.just(0), magnitudes))
    q = tol + side * draw_rational(data, dens, magnitudes)
    *_, td = check_kernel("chi-pos", _chi_pos_rule, [], [(q, tol)])
    assert (td != 0) == (side > 0)


# --- the gcd of big mul bounds -------------------------------------------------------

# m 2^z for m of 1 to 2000 bits (1 gives a power of two) and z up to 3000, or an
# odd number: operands below and above _mul_rule's 2048-bit threshold
two_adic = st.builds(lambda m, z: m << z, st.one_of(st.just(1), magnitudes), st.integers(0, 3000))
gcd_operand = st.one_of(two_adic, magnitudes.map(lambda m: m | 1))


@settings(max_examples=300, deadline=None)
@given(a=st.one_of(st.just(0), gcd_operand, gcd_operand.map(lambda m: -m)), b=gcd_operand,
       common=st.one_of(st.just(1), two_adic, magnitudes))
def test_the_binary_gcd_is_math_gcd(a, b, common):
    assert _gcd(a, b) == gcd(a, b)
    assert _gcd(a * common, b * common) == gcd(a * common, b * common)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mul_rule_at_thousands_of_bits_matches_the_fraction_formula(data):
    # at the query 2^-n, values have denominators of a small odd number times 2^n
    def operand():
        n = data.draw(st.integers(600, 12000))
        q = F(data.draw(nonzero) | 1, data.draw(st.integers(0, 50)) * 2 + 1 << n)
        t = F(data.draw(magnitudes) | 1, data.draw(st.sampled_from((1, 3, 5))) << n)
        return q, t

    (q1, t1), (q2, t2) = operands = [operand(), operand()]
    assert (q1.denominator * t1.denominator * q2.denominator * t2.denominator).bit_length() >= 2048
    check_kernel("mul", _mul_rule, [], operands)
