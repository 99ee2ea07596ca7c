"""Greedy completion and local-search tests."""

import itertools
import math
from fractions import Fraction

import pytest

from nsw2v import (
    Allocation,
    GoodsFewerThanAgentsError,
    Instance,
    LocalSearchInvariantError,
    ZeroSmallValueError,
    nsw_product,
    phase2_assign_small,
    phase3_local_search,
    solve_dichotomous,
    two_value_approx,
    validate_allocation,
    valuation_profile,
)
from nsw2v.balance import _fill_levels
from nsw2v.prng import random_instance, splitmix64

from _fixtures import (
    brute_best,
    example1,
    four_check_phase3,
    heap_fill,
    lopsided_start,
    raw_values,
    scan_phase2,
)


# --------------------------------------------------------------------- phase 2

def test_phase2_feeds_the_poorest_agent_in_good_order():
    inst = example1()
    start = solve_dichotomous(inst)
    assert valuation_profile(inst, start).values == (3, 3)
    completed = phase2_assign_small(inst, start)
    # goods 2 and 4 land on agent 0, good 3 on agent 1
    assert completed.bundles == (frozenset({0, 2, 4}), frozenset({1, 3}))
    profile = valuation_profile(inst, completed)
    assert profile.values == (7, 5)
    assert sum(profile.values) == 2 * 3 + 3 * 2  # all values handed out exactly once


def test_phase2_rejects_zero_small_value():
    inst = Instance(1, 1, 0, 1, (frozenset(),))
    with pytest.raises(ZeroSmallValueError):
        phase2_assign_small(inst, Allocation((frozenset(),)))


def test_phase2_rejects_wasteful_input():
    inst = example1()
    with pytest.raises(ValueError):
        phase2_assign_small(inst, Allocation((frozenset(), frozenset())))


def test_phase2_matches_the_scan_reference():
    stream = splitmix64(1618)
    cases = []
    for k in range(300):
        n = 1 if k % 10 == 0 else 1 + next(stream) % 12
        m = next(stream) % 40
        q = 2 + next(stream) % 7
        p = q - 1 if k % 3 == 0 else 1 + next(stream) % (q - 1)
        # probability 0 gives all-equal values, so every pick is a tie broken by index
        big_prob = Fraction(next(stream) % 4, 6)
        cases.append(random_instance(n, m, p, q, big_prob, next(stream)))
    # many small goods per agent: each value level is fed and raised many times
    for _ in range(40):
        n = 1 + next(stream) % 12
        q = 2 + next(stream) % 7
        p = 1 + next(stream) % (q - 1)
        big_prob = Fraction(1 + next(stream) % 3, 40)
        cases.append(random_instance(n, 100 + next(stream) % 301, p, q, big_prob, next(stream)))
    # starts of load 0 and 1: with (1, 3) the lower group reaches the upper one's level and
    # the two merge; with (2, 5) and (3, 7) p does not divide q, so the groups interleave
    for p, q in ((1, 3), (2, 5), (3, 7)):
        cases.append(Instance(5, 60, p, q, (frozenset(), {0}, frozenset(), {1}, {2, 3})))
    for inst in cases:
        big = solve_dichotomous(inst)
        for start in (big.bundles, lopsided_start(inst)):
            completed = phase2_assign_small(inst, Allocation(start))
            assert completed.bundles == scan_phase2(inst, start)
    assert any(inst.n == 1 for inst in cases)
    assert any(inst.p == inst.q - 1 for inst in cases)
    assert any(not inst.big_goods and inst.n > 1 and inst.m > inst.n for inst in cases)
    assert any(any(not b for b in inst.big_sets) and inst.big_goods for inst in cases)
    assert any(len(inst.small_goods) >= 20 * inst.n and inst.n >= 8 for inst in cases)
    assert any(inst.q % inst.p and len(inst.small_goods) > 3 * inst.n for inst in cases)


def test_fill_levels_matches_a_one_good_heap_at_every_prefix():
    stream = splitmix64(2718)
    merged = 0  # handouts that bring an agent level with one of another start load
    for k in range(400):
        n = 1 + next(stream) % 7
        big = 2**64 if k % 2 else 1  # q past 2^64 in every other case
        a, b = 1 + next(stream) % 4, 2 + next(stream) % 3
        kind = k // 2 % 4
        if kind == 3:  # p divides q, so levels meet every q / p handouts
            p, q = big * a, big * a * b
        else:  # p = 1, p = q - 1, or any p between
            q = big * a * b + 1
            p = (1, q - 1, 1 + next(stream) * next(stream) % (q - 1))[kind]
        loads = [next(stream) % 4 for _ in range(n)]  # few loads, so start values tie
        count = 3 * n + next(stream) % (4 * n)
        want = heap_fill(loads, q, p, count)
        # each prefix from a fresh stream: a consumer may stop partway through a level
        for length in range(count + 1):
            assert list(itertools.islice(_fill_levels(loads, q, p), length)) == want[:length]
        values = [q * load for load in loads]
        for i in want:
            values[i] += p
            merged += any(values[j] == values[i] and loads[j] != loads[i] for j in range(n))
    assert merged > 100


def test_phase2_small_good_holders_stay_within_p_of_the_minimum():
    stream = splitmix64(31)
    for _ in range(200):
        n = 2 + next(stream) % 3
        m = n + next(stream) % 5
        q = 2 + next(stream) % 6
        p = 1 + next(stream) % (q - 1)
        inst = random_instance(n, m, p, q, Fraction(1, 3), next(stream))
        completed = phase2_assign_small(inst, solve_dichotomous(inst))
        values = valuation_profile(inst, completed).values
        low = min(values)
        for i, bundle in enumerate(completed.bundles):
            if any(g not in inst.big_sets[i] for g in bundle):
                assert values[i] <= low + inst.p


# --------------------------------------------------------------------- phase 3

def test_phase3_leaves_example1_alone():
    inst = example1()
    completed = Allocation((frozenset({0, 2, 4}), frozenset({1, 3})))
    result = phase3_local_search(inst, completed, strict_properties=True)
    assert result.bundles == completed.bundles


def test_phase3_rescues_a_zero_value_agent():
    # agent 0 holds two big goods, agent 1 nothing; any move beats a zero product
    inst = Instance(2, 2, 2, 3, (frozenset({0, 1}), frozenset()))
    start = Allocation((frozenset({0, 1}), frozenset()))
    result = phase3_local_search(inst, start, strict_properties=True)
    assert result.bundles == (frozenset({1}), frozenset({0}))
    assert valuation_profile(inst, result).values == (3, 2)


def test_phase3_requires_a_complete_allocation():
    inst = example1()
    with pytest.raises(ValueError):
        phase3_local_search(inst, Allocation((frozenset({0}), frozenset({1}))))


def test_phase3_each_move_strictly_raises_the_product():
    stream = splitmix64(77)
    for _ in range(200):
        n = 2 + next(stream) % 3
        m = n + next(stream) % 5
        q = 2 + next(stream) % 6
        p = 1 + next(stream) % (q - 1)
        inst = random_instance(n, m, p, q, Fraction(1, 2), next(stream))
        completed = phase2_assign_small(inst, solve_dichotomous(inst))
        result = phase3_local_search(inst, completed, strict_properties=True)
        assert nsw_product(inst, result).product >= nsw_product(inst, completed).product


# ------------------------------------------------------------------ full solver

def test_solver_on_example1():
    inst = example1()
    alloc = two_value_approx(inst)
    assert nsw_product(inst, alloc).product == 35


def test_solver_single_agent_takes_everything():
    inst = Instance(1, 4, 1, 3, (frozenset({2}),))
    alloc = two_value_approx(inst)
    assert alloc.bundles == (frozenset({0, 1, 2, 3}),)


def test_solver_matches_brute_force_on_unit_p():
    inst = Instance(2, 4, 1, 3, (frozenset({0}), frozenset({1})))
    alloc = two_value_approx(inst)
    best, _ = brute_best(inst)
    assert best == 16
    assert nsw_product(inst, alloc).product == best


def test_solver_equals_its_public_phases_in_turn():
    # two_value_approx chains the phase bodies without validating or freezing between them
    stream = splitmix64(2718)
    for k in range(200):
        n = 1 if k % 20 == 0 else 1 + next(stream) % 10
        m = n + next(stream) % 60
        q = 2 + next(stream) % 7
        p = q - 1 if k % 4 == 0 else 1 + next(stream) % (q - 1)
        inst = random_instance(n, m, p, q, Fraction(next(stream) % 5, 8), next(stream))
        phases = phase3_local_search(
            inst, phase2_assign_small(inst, solve_dichotomous(inst)), strict_properties=True
        )
        assert two_value_approx(inst).bundles == phases.bundles


def test_solver_rejections():
    with pytest.raises(ZeroSmallValueError):
        two_value_approx(Instance(1, 1, 0, 1, (frozenset({0}),)))
    with pytest.raises(GoodsFewerThanAgentsError):
        two_value_approx(Instance(2, 1, 1, 2, (frozenset({0}), frozenset())))


def test_solver_output_is_a_partition_with_positive_values():
    stream = splitmix64(4096)
    for _ in range(300):
        n = 1 + next(stream) % 4
        m = n + next(stream) % 5
        q = 2 + next(stream) % 8
        p = 1 + next(stream) % (q - 1)
        inst = random_instance(n, m, p, q, Fraction(1, 4), next(stream))
        alloc = two_value_approx(inst)
        report = validate_allocation(inst, alloc)
        assert report.complete and report.disjoint
        assert all(v > 0 for v in valuation_profile(inst, alloc).values)


def test_general_rebalance_accepts_handmade_nonwasteful_input():
    # both agents big on everything; the skewed start is valid but unbalanced,
    # and the run must repair it without the strict phase-1 checks
    inst = Instance(2, 3, 1, 2, (frozenset({0, 1, 2}), frozenset({0, 1, 2})))
    skewed = Allocation((frozenset({0, 1, 2}), frozenset()))
    result = phase3_local_search(inst, phase2_assign_small(inst, skewed))
    values = valuation_profile(inst, result).values
    assert sorted(values) == [2, 4]
    assert nsw_product(inst, result).product == 8


def test_strict_local_search_names_the_broken_phase1_invariant():
    # the skewed start above: the first move hands agent 1 a good it values big
    inst = Instance(2, 3, 1, 2, (frozenset({0, 1, 2}), frozenset({0, 1, 2})))
    skewed = Allocation((frozenset({0, 1, 2}), frozenset()))
    with pytest.raises(LocalSearchInvariantError, match="moved good 0 is big for receiver 1"):
        phase3_local_search(inst, phase2_assign_small(inst, skewed), strict_properties=True)
    # the richest agent, 1, holds good 1, which is small for it
    inst = Instance(3, 5, 1, 3, (frozenset(), frozenset({0, 3, 4}), frozenset({1})))
    start = Allocation((frozenset(), frozenset({0, 1, 4}), frozenset({2, 3})))
    with pytest.raises(LocalSearchInvariantError, match="sender 1 holds a good small for itself"):
        phase3_local_search(inst, start, strict_properties=True)


def test_strict_local_search_fails_first_where_the_four_check_reference_does():
    # every big-set choice and every complete allocation at n=2, m=4 and n=3, m=3:
    # the two checks left in the package fire on exactly the runs, and with
    # exactly the messages, of the loop that also checked the two they imply
    fired = set()
    for p, q in ((1, 2), (1, 3), (2, 3), (3, 5)):
        for n, m in ((2, 4), (3, 3)):
            subsets = [frozenset(c) for r in range(m + 1) for c in itertools.combinations(range(m), r)]
            for big_sets in itertools.product(subsets, repeat=n):
                inst = Instance(n, m, p, q, big_sets)
                for owners in itertools.product(range(n), repeat=m):
                    start = Allocation.from_owners(n, owners)
                    expect = four_check_phase3(inst, start.bundles)
                    try:
                        got = phase3_local_search(inst, start, strict_properties=True).bundles
                    except LocalSearchInvariantError as exc:
                        got = str(exc)
                        fired.add(got.split()[0])
                    assert got == expect
    assert fired == {"sender", "moved"}


def test_solver_never_loses_to_the_greedy_completion():
    stream = splitmix64(515)
    for _ in range(100):
        n = 2 + next(stream) % 2
        m = n + next(stream) % 6
        inst = random_instance(n, m, 2, 5, Fraction(1, 2), next(stream))
        best, _ = brute_best(inst)
        got = nsw_product(inst, two_value_approx(inst)).product
        assert got <= best
        # documented worst case: never more than 3.45 percent below optimal
        assert math.pow(best / got, 1 / n) < 1.0345
