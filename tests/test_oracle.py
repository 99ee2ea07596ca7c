"""Exhaustive-search oracle, transfer graphs, and ratio reporting."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest

from nsw2v import (
    Allocation,
    BudgetExceededError,
    Instance,
    PathReport,
    PdmInstance,
    TransEdge,
    TransGraph,
    build_trans_graph,
    classify_paths,
    closest_optimum,
    exact_optimum,
    nsw_product,
    ratio,
    reduce_pdm,
    solve_dichotomous,
    state_count,
    two_value_approx,
)
from nsw2v.oracle import _lanes, optimum_product
from nsw2v.prng import random_instance, splitmix64

from _fixtures import all_optima, brute_best, example1, line_graph_paths, overlap_with, raw_values


# ------------------------------------------------------------------ exact search

def test_exact_optimum_on_example1():
    inst = example1()
    best, witness = exact_optimum(inst)
    assert best.product == 36
    assert witness.bundles == (frozenset({0, 1}), frozenset({2, 3, 4}))


def test_exact_optimum_matches_independent_enumeration():
    stream = splitmix64(99)
    for _ in range(120):
        n = 1 + next(stream) % 5
        m = next(stream) % 7
        q = 2 + next(stream) % 8
        p = next(stream) % q
        inst = random_instance(n, m, p, q, Fraction(1, 2), next(stream))
        best, witness = exact_optimum(inst)
        expect_product, expect_owners = brute_best(inst)
        assert best.product == expect_product
        owners = witness.owner_of()
        assert tuple(owners[g] for g in range(m)) == expect_owners


def test_optimal_product_is_invariant_under_relabelling():
    # reordering the agents' big sets or renaming goods leaves the optimal
    # product where it was, and closest_optimum against the phase-1
    # allocation reaches the same product
    stream = splitmix64(0x7E1A)
    for _ in range(200):
        n = 1 + next(stream) % 5
        m = next(stream) % 9
        q = 2 + next(stream) % 8
        p = next(stream) % q
        inst = random_instance(n, m, p, q, Fraction(1, 2), next(stream))
        best = exact_optimum(inst)[0].product
        agents = sorted(range(n), key=lambda _: next(stream))
        goods = sorted(range(m), key=lambda _: next(stream))
        permuted = Instance(n, m, p, q, tuple(inst.big_sets[a] for a in agents))
        renamed = Instance(n, m, p, q, tuple(frozenset(goods[g] for g in b) for b in inst.big_sets))
        assert exact_optimum(permuted)[0].product == best
        assert exact_optimum(renamed)[0].product == best
        assert nsw_product(inst, closest_optimum(inst, solve_dichotomous(inst))).product == best


def test_exact_optimum_budget_is_enforced():
    inst = Instance(3, 16, 1, 2, tuple(frozenset({i}) for i in range(3)))
    with pytest.raises(BudgetExceededError):
        exact_optimum(inst, budget=1000)
    # the budget caps n^m, equality included: example1 has 2^5 = 32 states
    inst = example1()
    best, _ = exact_optimum(inst, budget=32)
    assert best.product == 36
    with pytest.raises(BudgetExceededError, match=r"^2\^5 states exceed the budget of 31$"):
        exact_optimum(inst, budget=31)


# the most goods a brute-force comparison enumerates for each agent count, so n^m <= 2187
_BRUTE_GOODS = {1: 8, 2: 8, 3: 7, 4: 5, 5: 4, 6: 4}


def test_optimum_product_matches_brute_force_and_the_value_search():
    stream = splitmix64(0x10AD)
    hits: Counter[str] = Counter()
    for _ in range(400):
        n = 1 + next(stream) % 6
        m = next(stream) % (_BRUTE_GOODS[n] + 1)
        q = 2 + next(stream) % 8
        p = next(stream) % q
        sets = list(random_instance(n, m, p, q, Fraction(next(stream) % 5, 4), next(stream)).big_sets)
        shape = next(stream) % 3
        if shape == 1:  # pairs of agents sharing a big set
            for a in range(1, n, 2):
                sets[a] = sets[a - 1]
        elif shape == 2:  # an agent valuing nothing big
            sets[next(stream) % n] = frozenset()
        inst = Instance(n, m, p, q, tuple(sets))
        expect = brute_best(inst)[0]
        assert optimum_product(inst) == expect == exact_optimum(inst)[0].product, inst
        hits.update(name for name, hit in (
            ("p = 0", inst.p == 0),
            ("m = 0", m == 0),
            ("n = 1", n == 1),
            ("m < n", m < n),
            ("shared big sets", len(set(sets)) < n),
            ("empty big set", frozenset() in sets),
            ("every good big for all", m > 0 and all(len(b) == m for b in sets)),
        ) if hit)
    assert len(hits) == 7, hits  # every listed shape occurred


def test_optimum_product_refuses_over_budget_with_the_search_message():
    inst = example1()
    assert optimum_product(inst, budget=32) == 36
    with pytest.raises(BudgetExceededError, match=r"^2\^5 states exceed the budget of 31$"):
        optimum_product(inst, budget=31)
    # refused before any search, without forming 1000^1000000
    huge = Instance(1000, 10**6, 1, 2, (frozenset(),) * 1000)
    with pytest.raises(BudgetExceededError, match=r"^1000\^1000000 states exceed the budget of 10000000$"):
        optimum_product(huge)


def test_optimum_product_of_seven_parallel_edges():
    # seven agents share the big set {0, 1, 2}: one takes it, the others five dummies each
    inst = reduce_pdm(PdmInstance(3, 1, ((0, 0, 0),) * 7), 5)
    assert (inst.n, inst.m, len(set(inst.big_sets))) == (7, 33, 1)
    assert optimum_product(inst, budget=10**30) == 15**7 == 170_859_375
    assert ratio(inst, budget=10**30).opt_product == 15**7


def test_optimum_product_with_one_agent_takes_every_good():
    # every big good is big for the only agent, so none is pooled and the search keeps one vector
    inst = Instance(1, 100_000, 1, 2, (frozenset(range(0, 100_000, 2)),))
    assert optimum_product(inst) == 2 * 50_000 + 50_000


def _owners(alloc: Allocation, m: int) -> tuple[int, ...]:
    owner_of = alloc.owner_of()
    return tuple(owner_of[g] for g in range(m))


def _closest(optima, reference: Allocation) -> tuple[int, ...]:
    """The least optimum among those keeping the most goods where the reference put them."""
    top = max(overlap_with(o, reference.bundles) for o in optima)
    return next(o for o in optima if overlap_with(o, reference.bundles) == top)


def _last_good_branches(inst: Instance, owners, reference_owner=None) -> set[str]:
    """The scoring branches the last good of a winning owner vector goes through."""
    n, m = inst.n, inst.m
    hits = {name for name, hit in (("n = 1", n == 1), ("m = 1", m == 1)) if hit}
    if m == 0:
        return hits
    before = raw_values(inst, owners[:-1])
    zeros = [a for a in range(n) if before[a] == 0]
    hits.add(("no agent", "one agent", "two or more agents")[min(len(zeros), 2)] + " at 0")
    if len(zeros) == 1 and inst.value(zeros[0], m - 1) == 0:
        hits.add("last good worth 0 to the agent at 0")
    products = [math.prod(raw_values(inst, (*owners[:-1], a))) for a in range(n)]
    chosen = owners[-1]
    tied_below = products.index(products[chosen]) < chosen
    if reference_owner is not None and reference_owner.get(m - 1) == chosen and tied_below:
        hits.add("reference agent over a lower-index tie")
    return hits


def test_both_searches_match_brute_force_in_every_last_good_branch():
    # the last good is scored on each stored vector from one product: by the largest
    # value-to-load ratio when no agent is at 0, else by the agent at 0 alone
    stream = splitmix64(0x1A57)
    hits: Counter[str] = Counter()
    for _ in range(300):
        n = 1 + next(stream) % 5
        m = next(stream) % (min(_BRUTE_GOODS[n], 6) + 1)
        q = 2 + next(stream) % 8
        p = next(stream) % q if next(stream) % 2 else 0
        inst = random_instance(n, m, p, q, Fraction(next(stream) % 5, 4), next(stream))
        product, witness = exact_optimum(inst)
        assert (product.product, _owners(witness, m)) == brute_best(inst), inst
        optima = all_optima(inst)
        hits.update(_last_good_branches(inst, optima[0]))
        partial = [set() for _ in range(n)]
        for g in range(m):
            if next(stream) % 3:
                partial[next(stream) % n].add(g)
        references = [solve_dichotomous(inst), Allocation(partial)]
        if p and m >= n:
            references.append(two_value_approx(inst))
        for reference in references:
            expect = _closest(optima, reference)
            assert _owners(closest_optimum(inst, reference), m) == expect, (inst, reference)
            hits.update(_last_good_branches(inst, expect, reference.owner_of()))
    assert set(hits) == {
        "n = 1", "m = 1", "no agent at 0", "one agent at 0", "two or more agents at 0",
        "last good worth 0 to the agent at 0", "reference agent over a lower-index tie",
    }, hits


# q with m = 3 puts q*m, the largest value a lane holds, just below a lane limit and just
# past it; past 64 bits a lane is read as whole bytes with int.from_bytes
@pytest.mark.parametrize("q, width", [
    ((2**8 - 1) // 3, 8), ((2**8 + 2) // 3, 16),
    ((2**16 - 1) // 3, 16), ((2**16 + 2) // 3, 32),
    ((2**32 - 1) // 3, 32), ((2**32 + 2) // 3, 64),
    ((2**64 - 1) // 3, 64), ((2**64 + 2) // 3, 72),
    (10**400, 8 * 167),
])
def test_both_searches_match_brute_force_at_every_lane_width(q, width):
    assert _lanes(3, 3 * q)[0] == width
    for p in (0, 1, q - 1):
        for sets in (({0, 1}, {1}, set()), ({2}, {0, 1, 2}, {0})):
            inst = Instance(3, 3, p, q, tuple(map(frozenset, sets)))
            product, witness = exact_optimum(inst)
            assert (product.product, _owners(witness, 3)) == brute_best(inst)
            reference = solve_dichotomous(inst)
            assert _owners(closest_optimum(inst, reference), 3) == _closest(all_optima(inst), reference)


@pytest.mark.parametrize("largest, width", [
    (0, 8), (2**8 - 1, 8), (2**8, 16), (2**16, 32), (2**32, 64), (2**64 - 1, 64), (2**64, 72),
    (10**400, 8 * 167),
])
def test_a_lane_holds_its_largest_value(largest, width):
    w, unpack = _lanes(3, largest)
    assert w == width
    assert list(unpack(largest | largest << 2 * w)) == [largest, 0, largest]


def test_state_count_shrinks_under_grouping():
    inst = example1()
    assert state_count(inst, group_identical=False) == 2 ** 5
    # goods 0,1 share a column and goods 2,3,4 share a column
    assert state_count(inst, group_identical=True) == 3 * 4


# --------------------------------------------------------------- closest optimum

def test_closest_optimum_on_example1():
    inst = example1()
    # against the big-goods-only allocation both optima tie on overlap, so the
    # lexicographically least owner vector wins
    witness = closest_optimum(inst, solve_dichotomous(inst))
    assert nsw_product(inst, witness).product == 36
    assert witness.bundles == (frozenset({0, 1}), frozenset({2, 3, 4}))
    # against the full solver output the swapped optimum keeps one more good
    witness = closest_optimum(inst, two_value_approx(inst))
    assert nsw_product(inst, witness).product == 36
    assert witness.bundles == (frozenset({2, 3, 4}), frozenset({0, 1}))


def test_closest_optimum_returns_the_reference_when_it_is_optimal():
    inst = Instance(2, 2, 1, 5, (frozenset({0}), frozenset({1})))
    reference = two_value_approx(inst)
    witness = closest_optimum(inst, reference)
    assert nsw_product(inst, witness).product == 25
    assert witness.bundles == reference.bundles


def test_closest_optimum_maximizes_overlap_over_all_optima():
    stream = splitmix64(606)
    for _ in range(80):
        n = 2 + next(stream) % 2
        m = n + next(stream) % 4
        q = 2 + next(stream) % 5
        p = 1 + next(stream) % (q - 1)
        inst = random_instance(n, m, p, q, Fraction(1, 2), next(stream))
        optima = all_optima(inst)
        # the full solver output, and the partial phase-1 one the diagnostics use
        for reference in (two_value_approx(inst), solve_dichotomous(inst)):
            witness = closest_optimum(inst, reference)
            owners_map = witness.owner_of()
            owners = tuple(owners_map[g] for g in range(m))
            top = max(overlap_with(o, reference.bundles) for o in optima)
            # optima are in lexicographic order, so this is the least of the closest
            assert owners == next(
                o for o in optima if overlap_with(o, reference.bundles) == top
            )


@pytest.mark.parametrize("bundles", [
    (frozenset({0, -1}), frozenset({1})),  # would overwrite the owner of the last good
    (frozenset({0, 5}), frozenset({1})),  # past the last good
    (frozenset({0}),),  # one bundle for two agents
    (frozenset({0, 1}), frozenset({0})),  # good 0 in two bundles
])
def test_closest_optimum_rejects_a_malformed_reference(bundles):
    with pytest.raises(ValueError):
        closest_optimum(example1(), Allocation(bundles))


# ---------------------------------------------------------------- transfer graph

def test_trans_graph_is_empty_between_identical_allocations():
    inst = example1()
    alloc = two_value_approx(inst)
    graph = build_trans_graph(inst, alloc, alloc)
    assert graph.edges == ()
    assert graph.src_only == () and graph.dst_only == ()


def test_trans_graph_on_example1():
    inst = example1()
    phase1 = solve_dichotomous(inst)
    optimum = closest_optimum(inst, phase1)
    graph = build_trans_graph(inst, optimum, phase1)
    assert graph.edges == (TransEdge(src=0, dst=1, good=1, src_big=True, dst_big=True),)
    # the small goods exist only on the optimum side, all held by agent 1 there
    assert graph.src_only == ((1, 2), (1, 3), (1, 4))
    assert graph.dst_only == ()
    reverse = build_trans_graph(inst, phase1, optimum)
    assert (reverse.src_only, reverse.dst_only) == ((), graph.src_only)


def test_trans_graph_reverses_cleanly():
    stream = splitmix64(1771)
    for _ in range(50):
        n = 2 + next(stream) % 3
        m = n + next(stream) % 4
        inst = random_instance(n, m, 1, 3, Fraction(1, 2), next(stream))
        a = two_value_approx(inst)
        b = exact_optimum(inst)[1]
        fwd = build_trans_graph(inst, a, b)
        rev = build_trans_graph(inst, b, a)
        flipped = sorted(
            (e.dst, e.src, e.good, e.dst_big, e.src_big) for e in fwd.edges
        )
        assert flipped == sorted(
            (e.src, e.dst, e.good, e.src_big, e.dst_big) for e in rev.edges
        )


def test_classify_paths_on_example1():
    inst = example1()
    phase1 = solve_dichotomous(inst)
    graph = build_trans_graph(inst, closest_optimum(inst, phase1), phase1)
    report = classify_paths(graph)
    assert report == PathReport(
        ss=False, sb=False, bs=False, bb=True, balancing_cycles=False
    )


def test_classify_paths_empty_graph():
    from nsw2v.oracle import TransGraph

    report = classify_paths(TransGraph(n=2, edges=(), src_only=(), dst_only=()))
    assert report == PathReport(False, False, False, False, False)


def test_classify_paths_detects_a_balancing_cycle():
    from nsw2v.oracle import TransGraph

    # two big-for-both goods swapped between the agents: a 2-cycle of BB edges
    edges = (
        TransEdge(src=0, dst=1, good=0, src_big=True, dst_big=True),
        TransEdge(src=1, dst=0, good=1, src_big=True, dst_big=True),
    )
    report = classify_paths(TransGraph(n=2, edges=edges, src_only=(), dst_only=()))
    assert report.bb and report.balancing_cycles
    assert not (report.ss or report.sb or report.bs)


def test_classify_paths_chains_through_matching_endpoints():
    from nsw2v.oracle import TransGraph

    # small-to-big chain: the joint must match on the shared agent's class
    edges = (
        TransEdge(src=0, dst=1, good=0, src_big=False, dst_big=False),
        TransEdge(src=1, dst=2, good=1, src_big=False, dst_big=True),
    )
    report = classify_paths(TransGraph(n=3, edges=edges, src_only=(), dst_only=()))
    assert report.ss and report.sb
    assert not report.bs and not report.bb


def test_classify_paths_matches_the_line_graph_reference_on_every_small_graph():
    # every sequence of up to 3 edges on 3 agents, src == dst included: 47,989 graphs
    kinds = list(itertools.product(range(3), range(3), (False, True), (False, True)))
    count = 0
    for size in range(4):
        for chosen in itertools.product(kinds, repeat=size):
            edges = tuple(TransEdge(s, d, g, sb, db) for g, (s, d, sb, db) in enumerate(chosen))
            graph = TransGraph(n=3, edges=edges, src_only=(), dst_only=())
            assert classify_paths(graph) == line_graph_paths(graph), edges
            count += 1
    assert count == 47_989


def test_classify_paths_matches_the_line_graph_reference_on_random_graphs():
    stream = splitmix64(0x9A7B)
    seen = set()
    for _ in range(2000):
        n = 1 + next(stream) % 6
        edges = tuple(
            TransEdge(next(stream) % n, next(stream) % n, g, next(stream) % 2 == 1, next(stream) % 2 == 1)
            for g in range(next(stream) % 26)
        )
        graph = TransGraph(n=n, edges=edges, src_only=(), dst_only=())
        report = classify_paths(graph)
        assert report == line_graph_paths(graph), edges
        seen.add(report)
    assert len(seen) > 8  # the sweep is not stuck on one answer


# ------------------------------------------------------------------------ ratios

def test_ratio_on_example1():
    report = ratio(example1())
    assert report.alg_product == 35
    assert report.opt_product == 36
    assert math.isclose(report.ratio_float, 6 / math.sqrt(35), rel_tol=1e-12)


def test_ratio_is_exactly_one_on_matching_products():
    inst = Instance(2, 4, 1, 3, (frozenset({0}), frozenset({1})))
    report = ratio(inst)
    assert report.alg_product == report.opt_product == 16
    assert report.ratio_float == 1.0


def test_ratio_respects_the_enumeration_budget():
    inst = Instance(3, 16, 1, 2, tuple(frozenset({i}) for i in range(3)))
    with pytest.raises(BudgetExceededError):
        ratio(inst, budget=1000)
