import math
import random
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from itertools import islice
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from realcomp import (
    Add,
    Answer,
    ChiPos,
    Const,
    Converged,
    IntervalMachine,
    MassReport,
    MassSumInvalid,
    Max,
    Min,
    Mul,
    Neg,
    NoConvergenceError,
    ProbBranch,
    Sampler,
    Sub,
    Undefined,
    ValidationFailed,
    Var,
    cdf_algorithm,
    chi_pos,
    decompose,
    empirical_frequency,
    eval_expr,
    expr_to_machine,
    from_rational,
    make_prob,
    outcome_mass,
    refine,
    sample,
    select_index,
    spawn_seed,
)
from realcomp import prob
from realcomp.prob import _CHUNK, _cut_points

from helpers import random_dag

F = Fraction

X = Var(0)
X_PLUS_1 = Add(Var(0), Const(1))
TWO_X = Mul(Const(2), Var(0))


def algorithm(pairs):
    return make_prob(
        [ProbBranch(expr_to_machine(expr, 1), mass) for expr, mass in pairs]
    )


def half_half():
    """Outcomes x and x + 1, each with mass 1/2 spread over two branches."""
    q = F(1, 4)
    return algorithm([(X, q), (X, q), (X_PLUS_1, q), (X_PLUS_1, q)])


def x_or_2x():
    q = F(1, 4)
    return algorithm([(X, q), (X, q), (TWO_X, q), (TWO_X, q)])


HALF_HALF_EXPRS = [X, X, X_PLUS_1, X_PLUS_1]
X_OR_2X_EXPRS = [X, X, TWO_X, TWO_X]


def exact_outcome_mass(exprs, masses, x, y):
    """Brute-force oracle: exact evaluation of every branch at rational x."""
    return sum(
        (m for e, m in zip(exprs, masses) if eval_expr(e, [x]) == y),
        start=F(0),
    )


def test_make_prob_accepts_unit_mass():
    assert len(half_half().branches) == 4
    degenerate = algorithm([(X, F(1))])
    assert degenerate.masses == (F(1),)


def test_make_prob_rejects_bad_mass_sums():
    with pytest.raises(MassSumInvalid):
        algorithm([(X, F(1, 2)), (X, F(1, 3))])


def test_branch_validation():
    with pytest.raises(ValueError):
        ProbBranch(expr_to_machine(X, 1), F(3, 2))
    with pytest.raises(ValueError):
        ProbBranch(expr_to_machine(Add(Var(0), Var(1)), 2), F(1))


def test_decompose_splits_machines_and_masses():
    alg = half_half()
    machines, masses = decompose(alg)
    assert masses == (F(1, 4),) * 4
    from realcomp import Query, apply

    query = Query.of((F(0), F(1, 8)))
    values = [apply(m, query).value for m in machines]
    assert values == [F(0), F(0), F(1), F(1)]
    rebuilt = make_prob(
        [ProbBranch(m, p) for m, p in zip(machines, masses)]
    )
    assert rebuilt == alg


def test_select_index_examples():
    alg = half_half()
    assert select_index(alg, F(0)) == 0
    assert F(1, 4) <= F(3, 10) < F(1, 2)
    assert select_index(alg, F(3, 10)) == 1
    assert F(3, 4) <= F(9, 10) < F(1)
    assert select_index(alg, F(9, 10)) == 3
    with pytest.raises(ValueError):
        select_index(alg, F(1))


def test_select_index_skips_zero_mass_branches():
    alg = algorithm([(X, F(0)), (X_PLUS_1, F(1))])
    assert select_index(alg, F(0)) == 1
    assert select_index(alg, F(99, 100)) == 1


@settings(max_examples=200)
@given(u=st.fractions(min_value=0, max_value=F(99, 100), max_denominator=400))
def test_select_index_partitions_the_unit_interval(u):
    alg = half_half()
    index = select_index(alg, u)
    cumulative = [F(0), F(1, 4), F(1, 2), F(3, 4), F(1)]
    assert cumulative[index] <= u < cumulative[index + 1]


def test_select_index_preimage_lengths_equal_the_masses():
    alg = algorithm([(X, F(1, 6)), (X_PLUS_1, F(1, 2)), (TWO_X, F(1, 3))])
    boundaries = [F(0), F(1, 6), F(2, 3), F(1)]
    for i in range(3):
        lo, hi = boundaries[i], boundaries[i + 1]
        assert hi - lo == alg.masses[i]
        eps = F(1, 10**9)
        assert select_index(alg, lo) == i
        assert select_index(alg, hi - eps) == i


def test_sample_outcomes_stay_near_the_branch_values():
    alg = half_half()
    accuracy = F(1, 64)
    sampler = Sampler(2024)
    for _ in range(200):
        index, value = sample(alg, from_rational(0), sampler, accuracy, 500)
        assert min(abs(value - 0), abs(value - 1)) <= accuracy


def test_sample_degenerate_algorithm():
    alg = algorithm([(X, F(1))])
    for seed in (0, 1, 99):
        index, value = sample(alg, from_rational(F(1, 3)), Sampler(seed), F(1, 64), 500)
        assert index == 0
        assert abs(value - F(1, 3)) <= F(1, 64)


def test_sample_x_or_2x_at_zero_always_stays_near_zero():
    alg = x_or_2x()
    for seed in range(20):
        _, value = sample(alg, from_rational(0), Sampler(seed), F(1, 64), 500)
        assert abs(value) <= F(1, 64)


def test_sample_propagates_divergence():
    alg = make_prob([ProbBranch(chi_pos(), F(1))])
    with pytest.raises(NoConvergenceError):
        sample(alg, from_rational(-1), Sampler(5), F(1, 64), 50)


def test_outcome_mass_frozen_cases():
    accuracy = F(1, 64)
    zero = from_rational(0)
    assert outcome_mass(half_half(), zero, zero, accuracy, 500) == MassReport(F(1, 2), F(0))
    assert outcome_mass(x_or_2x(), zero, zero, accuracy, 500) == MassReport(F(1), F(0))
    assert outcome_mass(half_half(), zero, from_rational(5), accuracy, 500) == MassReport(
        F(0), F(0)
    )


def test_outcome_mass_boundary_is_unknown():
    # exact distance equals the accuracy threshold: undecidable at this accuracy
    alg = algorithm([(X, F(1))])
    report = outcome_mass(
        alg, from_rational(0), from_rational(F(1, 64)), F(1, 64), 500
    )
    assert report == MassReport(F(0), F(1))


def test_outcome_mass_never_exceeds_the_exact_mass():
    rng = random.Random(61)
    cases = [(HALF_HALF_EXPRS, half_half()), (X_OR_2X_EXPRS, x_or_2x())]
    for exprs, alg in cases:
        for _ in range(60):
            x = F(rng.randint(-6, 6), rng.randint(1, 6))
            candidates = [eval_expr(e, [x]) for e in exprs] + [F(5)]
            y = rng.choice(candidates)
            exact = exact_outcome_mass(exprs, alg.masses, x, y)
            report = outcome_mass(
                alg, from_rational(x), from_rational(y), F(1, 2**12), 500
            )
            assert report.lower <= exact <= report.lower + report.unknown


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), bits=st.integers(0, 16),
       shift=st.sampled_from((0, F(1, 2), 1, F(3, 2), 2, 3)), boundary=st.booleans())
def test_outcome_mass_lies_between_the_exact_sums(seed, bits, shift, boundary):
    """With d_i = |f_i(x) - y| and m_i the masses, exactly in Fractions:
    sum{m_i : d_i = 0, branch converges} <= lower <= sum{m_i : d_i <= acc}
    and lower + unknown <= sum{m_i : d_i <= 2 acc or branch diverges}.
    A branch converges when its refinement to acc/4 within the fuel does;
    with `boundary`, one branch is chi-pos at an operand exactly 0."""
    rng = random.Random(seed)
    x, accuracy, fuel = F(rng.randint(-12, 12), rng.randint(1, 12)), F(1, 2**bits), 200
    exprs = [rng.choice((e, ChiPos(e))) for e in
             (random_dag(rng, 5) for _ in range(rng.randint(1, 4)))]
    if boundary:
        exprs.insert(rng.randint(0, len(exprs)), Mul(ChiPos(Sub(X, Const(x))), exprs[0]))
    weights = [rng.randint(0, 4) for _ in exprs]
    weights[rng.randrange(len(weights))] += 1
    masses = [F(w, sum(weights)) for w in weights]
    gaps, converged = [], []
    for e in exprs:
        outcome = refine(expr_to_machine(e, 1), [from_rational(x)], accuracy / 4, fuel)
        converged.append(isinstance(outcome, Converged))
        try:
            gaps.append(eval_expr(e, [x]))
        except Undefined:
            assert not converged[-1]
            gaps.append(None)
    values = [v for v in gaps if v is not None]
    y = (rng.choice(values) if values else x) + shift * accuracy
    gaps = [None if v is None else abs(v - y) for v in gaps]
    report = outcome_mass(algorithm(zip(exprs, masses)), from_rational(x),
                          from_rational(y), accuracy, fuel)

    def mass(pick):
        return sum((m for m, d, c in zip(masses, gaps, converged) if pick(d, c)), F(0))

    assert mass(lambda d, c: c and d == 0) <= report.lower
    assert report.lower <= mass(lambda d, c: d is not None and d <= accuracy)
    assert report.lower + report.unknown <= mass(
        lambda d, c: not c or d <= 2 * accuracy)


def test_outcome_mass_counts_divergent_branches_as_unknown():
    alg = make_prob(
        [ProbBranch(chi_pos(), F(1, 2)), ProbBranch(expr_to_machine(X, 1), F(1, 2))]
    )
    report = outcome_mass(alg, from_rational(-1), from_rational(-1), F(1, 64), 50)
    assert report.lower == F(1, 2)
    assert report.unknown == F(1, 2)


def test_mass_report_validation():
    with pytest.raises(ValueError):
        MassReport(F(3, 4), F(1, 2))


def test_sampler_streams_are_reproducible():
    a = Sampler(123456789)
    b = Sampler(123456789)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]
    u = Sampler(7).next_unit()
    assert 0 <= u < 1
    assert Sampler(7).next_unit() == u
    assert spawn_seed(42, 0) == spawn_seed(42, 0) == 13679457532755275413
    assert spawn_seed(42, 1) == 2949826092126892291
    assert spawn_seed(2**70 + 5, 3) == 15631774881688914435


def test_empirical_frequency_is_deterministic_and_counts_selections():
    alg = half_half()
    counts = empirical_frequency(alg, from_rational(0), 4000, Sampler(9), F(1, 64), 500)
    again = empirical_frequency(alg, from_rational(0), 4000, Sampler(9), F(1, 64), 500)
    assert counts == again
    assert sum(counts) == 4000
    degenerate = algorithm([(X, F(1))])
    assert empirical_frequency(degenerate, from_rational(0), 100, Sampler(3), F(1, 8), 100) == [100]


def test_empirical_frequency_matches_masses_within_binomial_tolerance():
    # |freq - p| <= 4 sqrt(p(1-p)/n), compared squared to stay in rationals
    alg = half_half()
    n = 20000
    counts = empirical_frequency(alg, from_rational(0), n, Sampler(31), F(1, 64), 500)
    for count, mass in zip(counts, alg.masses):
        deviation = F(count, n) - mass
        assert deviation * deviation <= 16 * mass * (1 - mass) / n


def test_empirical_frequency_leaves_the_sampler_n_draws_on():
    alg = half_half()
    for seed, n in ((9, 1), (9, 400), (123456789, 37)):
        sampler = Sampler(seed)
        empirical_frequency(alg, from_rational(0), n, sampler, F(1, 64), 500)
        fresh = Sampler(seed)
        for _ in range(n):
            fresh.next_u64()
        assert sampler.next_u64() == fresh.next_u64()


def test_empirical_frequency_raises_at_the_first_divergent_selection():
    # at x = 1, chi-pos(-x) answers INF at every step, while x at fuel 3 has
    # finite answers but never reaches 2^-10; a third branch that converges
    # at once delays the first divergent selection past the first draw
    infinite = expr_to_machine(ChiPos(Neg(X)), 1)
    finite = expr_to_machine(X, 1)
    converging = IntervalMachine(1, lambda query: Answer(0, F(1, 2**20)))
    two = make_prob([ProbBranch(infinite, F(1, 2)), ProbBranch(finite, F(1, 2))])
    three = make_prob([ProbBranch(infinite, F(1, 8)), ProbBranch(finite, F(1, 8)),
                       ProbBranch(converging, F(3, 4))])
    seen = set()
    for alg in (two, three):
        for seed in range(6):
            replay = Sampler(seed)
            draws, index = 0, 2
            while index == 2:
                draws += 1
                index = select_index(alg, replay.next_unit())
            sampler = Sampler(seed)
            with pytest.raises(NoConvergenceError) as raised:
                empirical_frequency(alg, from_rational(1), 50, sampler, F(1, 1024), 3)
            assert raised.value.steps_taken == 3
            assert raised.value.all_infinite is (index == 0)
            assert sampler.next_u64() == replay.next_u64()
            seen.add((alg is three, draws > 1, raised.value.all_infinite))
    # both kinds of divergence come first, and some come after a draw
    assert {(False, False, True), (False, False, False)} <= seen
    assert any(is_three and later for is_three, later, _ in seen)


@st.composite
def mass_vectors(draw):
    """Exact masses summing to 1, zero masses included."""
    weights = draw(st.lists(st.integers(0, 2**70), min_size=1, max_size=6).filter(any))
    total = sum(weights)
    return [F(w, total) for w in weights]


@settings(max_examples=200)
@given(
    masses=mass_vectors(),
    draws=st.lists(st.integers(0, 2**64 - 1), max_size=20),
    seed=st.integers(0, 2**64 - 1),
)
@example(masses=[F(1, 4), F(0), F(0), F(3, 4)], draws=[], seed=0)
@example(masses=[F(1, 3), F(0), F(2, 3)], draws=[], seed=5)
def test_cut_points_select_like_select_index(masses, draws, seed):
    machine = expr_to_machine(X, 1)
    alg = make_prob([ProbBranch(machine, m) for m in masses])
    # the branch of a 64-bit draw k is the number of cut points at or below k
    points = _cut_points(alg)
    cumulative = [sum(masses[: i + 1]) for i in range(len(masses))]
    cuts = [math.ceil(c * 2**64) for c in cumulative]
    edges = [k for cut in cuts for k in (cut - 1, cut) if 0 <= k < 2**64]
    for k in draws + edges:
        assert bisect_right(points, k) == select_index(alg, F(k, 2**64))
    n = 60
    replay = Sampler(seed)
    counts = [0] * len(masses)
    for _ in range(n):
        counts[select_index(alg, replay.next_unit())] += 1
    x = from_rational(0)
    assert empirical_frequency(alg, x, n, Sampler(seed), F(1, 8), 100) == counts


def splitmix64(seed):
    """The scalar splitmix64 stream, one output at a time, as a reference."""
    gamma, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    state = seed & mask
    while True:
        state = (state + gamma) & mask
        z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        yield z ^ (z >> 31)


def replay(alg, seed, n):
    """Branch indices of the first n draws, one select_index per draw."""
    stream = splitmix64(seed)
    return [select_index(alg, F(next(stream), 2**64)) for _ in range(n)]


def test_sampler_draws_the_scalar_splitmix64_stream():
    for seed in (0, 1, 12345, 2**64 - 1, 2**64, 2**200 + 3):
        sampler, stream = Sampler(seed), splitmix64(seed)
        expected = [next(stream) for _ in range(40)]
        assert [sampler.next_u64() for _ in range(40)] == expected
        assert Sampler(seed).next_unit() == F(expected[0], 2**64)


@settings(max_examples=60, deadline=None)
@given(
    masses=mass_vectors(),
    seed=st.one_of(st.sampled_from([0, 2**64 - 1, 2**64, 2**64 + 1, 2**130 + 7]),
                   st.integers(0, 2**80)),
    n=st.sampled_from([1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 3]),
)
@example(masses=[F(0), F(1, 3), F(0), F(2, 3), F(0)], seed=2**64 - 1, n=2 * _CHUNK + 3)
def test_empirical_frequency_counts_like_a_scalar_replay(masses, seed, n):
    machines = [expr_to_machine(X, 1) for _ in masses]
    alg = make_prob([ProbBranch(m, mass) for m, mass in zip(machines, masses)])
    picks = replay(alg, seed, n)
    sampler, refined, refine = Sampler(seed), [], prob.refine

    def recording(machine, *args):
        refined.append(machine)
        return refine(machine, *args)

    with patch.object(prob, "refine", recording):
        counts = empirical_frequency(alg, from_rational(0), n, sampler, F(1, 8), 100)
    assert counts == [picks.count(i) for i in range(len(masses))]
    # each selected branch is refined once, in the order of its first draw
    assert refined == [machines[i] for i in dict.fromkeys(picks)]
    # the next draw is draw n + 1
    assert sampler.next_u64() == next(islice(splitmix64(seed), n, None))


def test_draws_at_a_cut_point_count_like_a_scalar_replay():
    # a cut point at draw j + d, d in {0, 1}: draw j lies exactly on it or
    # just below it, at lane edges and in the middle of a chunk
    for seed in (0, 2**64 - 1, 99):
        stream = splitmix64(seed)
        draws = [next(stream) for _ in range(2 * _CHUNK + 3)]
        for j in (0, 1, _CHUNK // 2, _CHUNK - 1, _CHUNK, 2 * _CHUNK + 2):
            for d in (0, 1):
                cut = F(draws[j] + d, 2**64)
                alg = algorithm([(X, cut / 2), (X, cut / 2), (X, 1 - cut)])
                n = 2 * _CHUNK + 3
                picks = replay(alg, seed, n)
                assert (picks[j] < 2) is bool(d)
                counts = empirical_frequency(alg, from_rational(0), n, Sampler(seed),
                                             F(1, 8), 100)
                assert counts == [picks.count(i) for i in range(3)]


def test_a_divergence_first_drawn_in_the_second_chunk_raises_just_past_it():
    # at x = 1, chi-pos(-x) answers INF at every step and x at fuel 3 never
    # reaches 2^-10; two rare such branches sit among converging ones
    infinite = expr_to_machine(ChiPos(Neg(X)), 1)
    finite = expr_to_machine(X, 1)
    converging = IntervalMachine(1, lambda query: Answer(0, F(1, 2**20)))
    rare = F(1, 2048)
    alg = make_prob([ProbBranch(converging, F(1, 2)), ProbBranch(infinite, rare),
                     ProbBranch(finite, rare), ProbBranch(converging, F(1, 2) - 2 * rare)])
    seen = set()
    for seed in range(400):
        picks = replay(alg, seed, 2 * _CHUNK)
        firsts = [picks.index(i) if i in picks else 2 * _CHUNK for i in (1, 2)]
        first = min(firsts)
        if not _CHUNK <= first < 2 * _CHUNK:
            continue
        sampler = Sampler(seed)
        with pytest.raises(NoConvergenceError) as raised:
            empirical_frequency(alg, from_rational(1), 3 * _CHUNK, sampler, F(1, 1024), 3)
        # the error is that of the first divergent branch drawn ...
        assert raised.value.all_infinite is (picks[first] == 1)
        # ... and the sampler is left just past that draw
        stream = splitmix64(seed)
        for _ in range(first + 1):
            next(stream)
        assert sampler.next_u64() == next(stream)
        both = max(firsts) < 2 * _CHUNK
        seen.add((picks[first], both))
    # each branch diverges first, also where the other follows in the chunk
    assert {(1, True), (2, True)} <= seen


def test_empirical_frequency_memory_does_not_grow_with_n():
    alg = make_prob([ProbBranch(expr_to_machine(X, 1), m)
                     for m in (F(1, 7), F(2, 7), F(3, 7), F(1, 7))])
    x = from_rational(0)
    empirical_frequency(alg, x, 10, Sampler(1), F(1, 8), 100)  # builds the lanes
    peaks = []
    tracemalloc.start()
    try:
        for n in (20_000, 200_000):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            empirical_frequency(alg, x, n, Sampler(n), F(1, 8), 100)
            peaks.append(tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    small, large = peaks
    assert large <= small + 4096


def test_mass_discontinuity_that_rules_out_pointwise_mass_functions():
    # mass 1/2 sits at the outcome 0 and none at 2^-20: as the probe moves
    # by 2^-20 the certified mass drops from 1/2 to 0, so no continuous
    # pointwise mass function can represent this algorithm
    alg = half_half()
    accuracy = F(1, 2**22)
    zero = from_rational(0)
    at_zero = outcome_mass(alg, zero, zero, accuracy, 500)
    nearby = outcome_mass(alg, zero, from_rational(F(1, 2**20)), accuracy, 500)
    assert at_zero.lower == F(1, 2)
    assert nearby.lower == F(0)


def uniform_cdf_machine():
    # P(result <= y | x) for the uniform outcome on [x, x+1]
    return expr_to_machine(
        Max(Const(0), Min(Const(1), Sub(Var(1), Var(0)))), 2
    )


def test_cdf_algorithm_validates_and_evaluates_the_uniform_example():
    cdf = cdf_algorithm(uniform_cdf_machine())
    x = from_rational(0)
    assert cdf.evaluate(x, from_rational(F(1, 2)), F(1, 256), 500) == F(1, 2)
    assert cdf.evaluate(x, from_rational(-1), F(1, 256), 500) == F(0)
    assert cdf.evaluate(x, from_rational(2), F(1, 256), 500) == F(1)


def test_cdf_algorithm_rejects_out_of_range_values():
    unclamped = expr_to_machine(Sub(Var(1), Var(0)), 2)
    with pytest.raises(ValidationFailed, match="leaves"):
        cdf_algorithm(unclamped)


def test_cdf_algorithm_rejects_decreasing_machines():
    decreasing = expr_to_machine(
        Max(Const(0), Min(Const(1), Sub(Var(0), Var(1)))), 2
    )
    with pytest.raises(ValidationFailed, match="decreasing"):
        cdf_algorithm(decreasing)


def test_cdf_algorithm_rejects_wrong_arity():
    with pytest.raises(ValueError):
        cdf_algorithm(expr_to_machine(X, 1))
