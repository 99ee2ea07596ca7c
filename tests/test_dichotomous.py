"""Big-good placement tests: greedy seed, exchange-path balancing, load shapes."""

from collections import deque
from fractions import Fraction

from nsw2v import Allocation, Instance, initial_nonwasteful, balance_loads, solve_dichotomous
from nsw2v import validate_allocation
import nsw2v.dichotomous as phase1
from nsw2v.prng import random_big_sets, splitmix64

from _fixtures import (
    best_sorted_loads,
    example1,
    exchange_path_exists,
    lopsided_start,
    max_matching_size,
    scan_phase1,
    scan_seed,
    scan_trades,
)

import pytest


def dichotomous(n, m, big_sets):
    return Instance(n, m, 0, 1, tuple(frozenset(s) for s in big_sets))


# ---------------------------------------------------------------- greedy seed

def test_initial_seed_prefers_light_agents():
    inst = dichotomous(2, 3, [{0, 1, 2}, {2}])
    seed = initial_nonwasteful(inst)
    assert seed.bundles == (frozenset({0, 1}), frozenset({2}))
    assert seed.loads == (2, 1)


def test_initial_seed_breaks_ties_toward_low_index():
    inst = example1()
    seed = initial_nonwasteful(inst)
    assert seed.bundles == (frozenset({0}), frozenset({1}))


def test_initial_seed_skips_globally_small_goods():
    inst = Instance(2, 4, 1, 2, (frozenset({1}), frozenset()))
    seed = initial_nonwasteful(inst)
    assert seed.bundles == (frozenset({1}), frozenset())


# ------------------------------------------------------------- path balancing

def test_balance_keeps_fixpoint_unchanged():
    inst = example1()
    balanced = Allocation((frozenset({0}), frozenset({1})))
    assert balance_loads(inst, balanced).bundles == balanced.bundles


def test_balance_moves_one_good_over_a_single_edge():
    inst = dichotomous(2, 2, [{0, 1}, {1}])
    lopsided = Allocation((frozenset({0, 1}), frozenset()))
    result = balance_loads(inst, lopsided)
    assert result.bundles == (frozenset({0}), frozenset({1}))
    assert result.loads == (1, 1)


def test_balance_trades_along_a_two_edge_chain():
    # agent 0 cannot give to agent 2 directly; the path goes through agent 1
    inst = dichotomous(3, 3, [{0, 1}, {1, 2}, {2}])
    start = Allocation((frozenset({0, 1}), frozenset({2}), frozenset()))
    result = balance_loads(inst, start)
    assert result.loads == (1, 1, 1)
    assert result.bundles == (frozenset({0}), frozenset({1}), frozenset({2}))


def test_balance_rejects_wasteful_input():
    inst = dichotomous(2, 2, [{0, 1}, {1}])
    with pytest.raises(ValueError):
        balance_loads(inst, Allocation((frozenset({0}), frozenset())))


# ------------------------------------------------------------------ full phase

def test_solve_example1_loads():
    assert solve_dichotomous(example1()).loads == (1, 1)


def test_solve_single_agent_takes_all():
    inst = Instance(1, 3, 3, 4, (frozenset({0, 1, 2}),))
    assert solve_dichotomous(inst).loads == (3,)


def test_solve_load_vector_is_lex_minimal_exhaustively():
    # every eligibility pattern for 2 agents and up to 3 big goods
    import itertools

    for b in range(1, 4):
        for pattern in itertools.product((frozenset({0}), frozenset({1}),
                                          frozenset({0, 1})), repeat=b):
            big_sets = [set(), set()]
            for g, owners in enumerate(pattern):
                for a in owners:
                    big_sets[a].add(g)
            inst = dichotomous(2, b, big_sets)
            result = solve_dichotomous(inst)
            assert tuple(sorted(result.loads, reverse=True)) == best_sorted_loads(inst)


def test_solve_random_instances_are_balanced_and_lorenz_minimal():
    stream = splitmix64(2024)
    for _ in range(300):
        n = 2 + next(stream) % 3
        b = 1 + next(stream) % 7
        big_sets = random_big_sets(n, b, Fraction(1, 2), next(stream))
        # every good must be big for someone; re-home orphans to agent 0
        sets = [set(s) for s in big_sets]
        for g in range(b):
            if not any(g in s for s in sets):
                sets[0].add(g)
        inst = dichotomous(n, b, sets)
        result = solve_dichotomous(inst)

        report = validate_allocation(inst, result)
        assert report.disjoint and report.nonwasteful

        loads = list(result.loads)
        bundles = [set(x) for x in result.bundles]
        for i in range(n):
            for j in range(n):
                if loads[i] >= loads[j] + 2:
                    assert not exchange_path_exists(inst, bundles, i, j)

        assert tuple(sorted(loads, reverse=True)) == best_sorted_loads(inst)
        assert sum(1 for x in loads if x > 0) == max_matching_size(inst)


def test_solve_matches_the_scan_based_reference():
    # indexed phase 1 against the all-pairs scan it replaced, bundle for bundle
    stream = splitmix64(3141)
    for _ in range(400):
        n = 1 + next(stream) % 8
        m = next(stream) % 25
        big_prob = Fraction(next(stream) % 5, 8)
        inst = Instance(n, m, 1, 2, random_big_sets(n, m, big_prob, next(stream)))
        assert solve_dichotomous(inst).bundles == scan_phase1(inst)


def test_balance_matches_the_scan_reference_from_seeded_and_lopsided_starts():
    # sparse big sets on up to 40 agents: long trade runs, and searches that fail from
    # several sources before one succeeds or before the call ends
    stream = splitmix64(2718)
    all_failures = []
    for _ in range(150):
        n = 1 + next(stream) % 40
        m = next(stream) % (3 * n + 1)
        big_prob = Fraction(1 + next(stream) % 3, 2 * n)
        inst = Instance(n, m, 1, 2, random_big_sets(n, m, big_prob, next(stream)))
        for start in (scan_seed(inst), lopsided_start(inst)):
            bundles, failures = scan_trades(inst, start)
            assert balance_loads(inst, Allocation(tuple(map(frozenset, start)))).bundles == bundles
            all_failures.append(failures)
    assert any(len(failures) > 5 for failures in all_failures)
    assert any(max(failures[:-1], default=0) > 0 for failures in all_failures)
    assert any(failures[-1] >= 2 for failures in all_failures)


def test_each_path_search_dequeues_every_agent_at_most_once(monkeypatch):
    # the searches from the sources of one call share their visited set, so a call
    # dequeues at most n agents, however many sources it tries
    pops: list[int] = []

    class CountingDeque(deque):
        def popleft(self):
            pops[-1] += 1
            return super().popleft()

    search = phase1._unloading_path

    def counted(*args):
        pops.append(0)
        return search(*args)

    monkeypatch.setattr(phase1, "deque", CountingDeque)
    monkeypatch.setattr(phase1, "_unloading_path", counted)
    # 30 agents, two goods each, every good big for all: the one search fails from all 30
    crowded = dichotomous(30, 60, [range(60)] * 30)
    starts = [(crowded, initial_nonwasteful(crowded))]
    stream = splitmix64(1618)
    for _ in range(40):
        n = 1 + next(stream) % 40
        m = next(stream) % (3 * n + 1)
        big_prob = Fraction(1 + next(stream) % 3, 2 * n)
        inst = Instance(n, m, 1, 2, random_big_sets(n, m, big_prob, next(stream)))
        starts += [(inst, initial_nonwasteful(inst)), (inst, Allocation(lopsided_start(inst)))]
    for inst, start in starts:
        pops.clear()
        balance_loads(inst, start)
        assert pops and max(pops) <= inst.n
