"""Big-good placement tests: greedy seed, exchange-path balancing, load shapes."""

import random
from collections import deque
from fractions import Fraction

from nsw2v import Allocation, Instance, initial_nonwasteful, balance_loads, solve_dichotomous
from nsw2v import validate_allocation
import nsw2v.dichotomous as phase1
from nsw2v.prng import random_big_sets, splitmix64
from nsw2v.reductions import PdmInstance, reduce_gap4dm

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


@pytest.fixture
def path_searches(monkeypatch):
    """Per _unloading_path call, the BFS queues it made; each counts the agents it dequeued."""
    calls: list[list[deque]] = []

    class CountingDeque(deque):
        def __init__(self, *args):
            super().__init__(*args)
            self.pops = 0
            calls[-1].append(self)

        def popleft(self):
            self.pops += 1
            return super().popleft()

    search = phase1._unloading_path

    def counted(*args):
        calls.append([])
        return search(*args)

    monkeypatch.setattr(phase1, "deque", CountingDeque)
    monkeypatch.setattr(phase1, "_unloading_path", counted)
    return calls


def dequeued(calls) -> list[int]:
    return [sum(queue.pops for queue in call) for call in calls]


def test_each_path_search_dequeues_every_agent_at_most_once(path_searches):
    # the searches from the sources of one call share their visited set, so a call
    # dequeues at most n agents, however many sources it tries
    # 30 agents, two goods each, every good big for all: no load is two above the least
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
        path_searches.clear()
        balance_loads(inst, start)
        pops = dequeued(path_searches)
        assert pops and max(pops) <= inst.n


def test_a_search_ends_when_it_reaches_the_least_loaded_agent(path_searches):
    # agent 0 links to every other agent through good 0; agent 4 has the least load,
    # so the search from agent 0 ends after its first dequeue, with agents 1-4 still queued
    inst = dichotomous(5, 7, [range(7), {0, 4}, {0, 5}, {0, 6}, {0}])
    bundles = [{0, 1, 2, 3}, {4}, {5}, {6}, set()]
    assert phase1._unloading_path(inst, bundles) == [4, 0]
    assert dequeued(path_searches) == [1]
    assert len(path_searches[0]) == 1 and list(path_searches[0][0]) == [1, 2, 3, 4]


def test_no_source_is_searched_when_every_load_is_within_one_of_the_least(path_searches):
    # loads 3, 2, 3, 2 with every good big for all: the heavy agents are sources
    # under a fixed bound of two, but no end can sit two loads below them
    inst = dichotomous(4, 10, [range(10)] * 4)
    start = Allocation((frozenset({0, 1, 2}), frozenset({3, 4}), frozenset({5, 6, 7}), frozenset({8, 9})))
    assert balance_loads(inst, start).bundles == start.bundles
    assert path_searches == [[]]  # one call, and no BFS queue made


def planted_gap4dm(rng: random.Random, size: int) -> Instance:
    """reduce_gap4dm on a 4-partite hypergraph of 3*size edges holding a planted perfect matching."""
    perms = [rng.sample(range(size), size) for _ in range(4)]
    edges = [tuple(perm[i] for perm in perms) for i in range(size)]
    edges += [tuple(rng.randrange(size) for _ in range(4)) for _ in range(2 * size)]
    rng.shuffle(edges)
    return reduce_gap4dm(PdmInstance(4, size, tuple(edges)), size)


def test_planted_gap4dm_phase1_matches_the_scan_reference(path_searches):
    # the planted instances trade along long paths whose searches stop at the least
    # loaded agent with agents still queued; the bundles stay those of the full scan
    stopped_early = 0
    for size, seed in [(20, s) for s in range(6)] + [(60, 0), (60, 1)]:
        inst = planted_gap4dm(random.Random(seed), size)
        path_searches.clear()
        assert solve_dichotomous(inst).bundles == scan_phase1(inst)
        stopped_early += sum(1 for call in path_searches if call and call[-1])
    assert stopped_early > 0
