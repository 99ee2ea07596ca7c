"""Shared helpers for the test suite.

The checkers here are written independently of the package internals (plain
itertools enumeration, textbook augmenting paths) so package results are
always compared against a second derivation, not against themselves.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections import deque
from fractions import Fraction

from nsw2v import Instance, PathReport, ValidationReport
from nsw2v.prng import splitmix64


def example1() -> Instance:
    # 2 agents, 5 goods, values (2, 3); both agents are big on goods 0 and 1.
    return Instance(2, 5, 2, 3, (frozenset({0, 1}), frozenset({0, 1})))


def raw_values(inst: Instance, owners) -> list[int]:
    values = [0] * inst.n
    for g, a in enumerate(owners):
        values[a] += inst.q if g in inst.big_sets[a] else inst.p
    return values


def brute_best(inst: Instance) -> tuple[int, tuple[int, ...]]:
    """Max product and its lexicographically least owner vector, by plain iteration."""
    best = -1
    best_owners: tuple[int, ...] = ()
    for owners in itertools.product(range(inst.n), repeat=inst.m):
        product = math.prod(raw_values(inst, owners))
        if product > best:
            best = product
            best_owners = owners
    return best, best_owners


def all_optima(inst: Instance) -> list[tuple[int, ...]]:
    """Owner vectors of every product-maximal allocation, in lexicographic order."""
    best, _ = brute_best(inst)
    return [
        owners
        for owners in itertools.product(range(inst.n), repeat=inst.m)
        if math.prod(raw_values(inst, owners)) == best
    ]


def water_fill_bound(values, amount) -> Fraction:
    """The largest product of values after adding a real amount to them, as an exact Fraction.

    The amount raises the lowest values to one level L, where the sum of
    max(0, L - v) is the amount; L is found among the candidate levels by
    that equation alone, and the bound is the product of max(v, L).
    """
    ordered = sorted(values)
    for k in range(1, len(ordered) + 1):
        level = Fraction(sum(ordered[:k]) + amount, k)
        if sum(max(0, level - v) for v in ordered) == amount:
            return math.prod(max(Fraction(v), level) for v in ordered)
    raise AssertionError("no level spends the amount")


def overlap_with(owners, reference_bundles) -> int:
    return sum(1 for g, a in enumerate(owners) if g in reference_bundles[a])


def best_sorted_loads(inst: Instance) -> tuple[int, ...]:
    """Lexicographically least sorted-descending load vector over non-wasteful allocations."""
    goods = sorted(inst.big_goods)
    eligible = [[i for i in range(inst.n) if g in inst.big_sets[i]] for g in goods]
    best: tuple[int, ...] | None = None
    for combo in itertools.product(*eligible):
        loads = [0] * inst.n
        for a in combo:
            loads[a] += 1
        key = tuple(sorted(loads, reverse=True))
        if best is None or key < best:
            best = key
    assert best is not None
    return best


def max_matching_size(inst: Instance) -> int:
    """Augmenting-path matching between agents and the goods they value big."""
    owner_of_good: dict[int, int] = {}

    def augment(agent: int, visited: set[int]) -> bool:
        for g in sorted(inst.big_sets[agent]):
            if g in visited:
                continue
            visited.add(g)
            if g not in owner_of_good or augment(owner_of_good[g], visited):
                owner_of_good[g] = agent
                return True
        return False

    return sum(1 for i in range(inst.n) if augment(i, set()))


def _line_graph(edges) -> list[set[int]]:
    """For each edge, the edges reachable from it in the edge-to-edge line graph, itself included.

    Edge x is followed by edge y != x when x ends at the agent where y starts
    and the good x delivers has the size class, for that agent, of the good y
    takes away.
    """
    succ: list[list[int]] = [[] for _ in edges]
    for x, e in enumerate(edges):
        for y, f in enumerate(edges):
            if x != y and e.dst == f.src and e.dst_big == f.src_big:
                succ[x].append(y)
    reached_from = []
    for x in range(len(edges)):
        reached = {x}
        stack = [x]
        while stack:
            for y in succ[stack.pop()]:
                if y not in reached:
                    reached.add(y)
                    stack.append(y)
        reached_from.append(reached)
    return reached_from


def bb_reachable_agent_pairs(graph) -> set[tuple[int, int]]:
    """Agent pairs joined by a big-to-big balancing path, re-derived from the edge list."""
    edges = graph.edges
    return {
        (e.src, edges[y].dst)
        for e, reached in zip(edges, _line_graph(edges))
        if e.src_big
        for y in reached
        if edges[y].dst_big
    }


def line_graph_paths(graph) -> PathReport:
    """classify_paths by chaining edges directly: one search per edge over E² edge pairs."""
    edges = graph.edges
    found: set[tuple[bool, bool]] = set()
    cycles = False
    for e, reached in zip(edges, _line_graph(edges)):
        for y in reached:
            f = edges[y]
            found.add((e.src_big, f.dst_big))
            cycles = cycles or (e.src_big and f.dst_big and f.dst == e.src)
    return PathReport(
        (False, False) in found, (False, True) in found, (True, False) in found,
        (True, True) in found, cycles,
    )


def exchange_path_exists(inst: Instance, bundles, src: int, dst: int) -> bool:
    """Reachability in the exchange graph: (u, w) linked iff u holds a good big for w."""
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        if u == dst:
            return True
        for w in range(inst.n):
            if w not in seen and any(g in inst.big_sets[w] for g in bundles[u]):
                seen.add(w)
                stack.append(w)
    return dst in seen


def _scan_unloading_path(inst: Instance, bundles, loads) -> tuple[list[int] | None, int]:
    """Phase 1's path search with every agent pair scanned, independent of Instance.big_for.

    Returns the path (None when there is none) and how many sources were
    searched in vain before it.
    """
    failed = 0
    for src in sorted(range(inst.n), key=lambda i: (-loads[i], i)):
        if loads[src] < 2:
            return None, failed
        parent: dict[int, int | None] = {src: None}
        queue = deque([src])
        best: tuple[int, int] | None = None
        while queue:
            u = queue.popleft()
            for w in range(inst.n):
                if w in parent:
                    continue
                if any(g in inst.big_sets[w] for g in bundles[u]):
                    parent[w] = u
                    queue.append(w)
                    if loads[w] <= loads[src] - 2 and (best is None or (loads[w], w) < best):
                        best = (loads[w], w)
        if best is not None:
            path = [best[1]]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1], failed
        failed += 1
    return None, failed


def scan_seed(inst: Instance) -> list[set[int]]:
    """Phase 1's greedy seed by scanning agents: each big good to a least-loaded eligible agent."""
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    loads = [0] * inst.n
    for g in sorted(inst.big_goods):
        eligible = (i for i in range(inst.n) if g in inst.big_sets[i])
        owner = min(eligible, key=lambda i: (loads[i], i))
        bundles[owner].add(g)
        loads[owner] += 1
    return bundles


def scan_trades(inst: Instance, bundles) -> tuple[tuple[frozenset[int], ...], list[int]]:
    """Phase 1's trade loop from any disjoint non-wasteful bundles, without big_for.

    Returns the balanced bundles and, for each path search in turn, the number
    of sources it tried in vain; the list is one longer than the trade count.
    """
    bundles = [set(b) for b in bundles]
    loads = [len(b) for b in bundles]
    failures = []
    while True:
        path, failed = _scan_unloading_path(inst, bundles, loads)
        failures.append(failed)
        if path is None:
            break
        moves = [(u, w, min(bundles[u] & inst.big_sets[w])) for u, w in zip(path, path[1:])]
        for u, w, g in moves:
            bundles[u].remove(g)
            bundles[w].add(g)
        loads[path[0]] -= 1
        loads[path[-1]] += 1
    return tuple(frozenset(b) for b in bundles), failures


def scan_phase1(inst: Instance) -> tuple[frozenset[int], ...]:
    """Phase-1 bundles from the scan-based greedy seed and path trades, without big_for."""
    return scan_trades(inst, scan_seed(inst))[0]


def lopsided_start(inst: Instance) -> tuple[frozenset[int], ...]:
    """A non-wasteful start far from balanced: each big good to its highest-index eligible agent."""
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    for g in inst.big_goods:
        bundles[max(i for i in range(inst.n) if g in inst.big_sets[i])].add(g)
    return tuple(frozenset(b) for b in bundles)


def scan_phase2(inst: Instance, bundles) -> tuple[frozenset[int], ...]:
    """Phase 2 by scanning for the poorest agent (ties: lowest index) before each small good."""
    bundles = [set(b) for b in bundles]
    values = [sum(inst.q if g in inst.big_sets[i] else inst.p for g in b) for i, b in enumerate(bundles)]
    for g in range(inst.m):
        if any(g in big for big in inst.big_sets):
            continue
        poorest = 0
        for i in range(1, inst.n):
            if values[i] < values[poorest]:
                poorest = i
        bundles[poorest].add(g)
        values[poorest] += inst.p
    return tuple(frozenset(b) for b in bundles)


def heap_fill(loads, q: int, p: int, count: int) -> list[int]:
    """Phase 2's first count handouts one good at a time: feed the least (value, index), then push it back."""
    heap = [(q * load, i) for i, load in enumerate(loads)]
    heapq.heapify(heap)
    agents = []
    for _ in range(count):
        value, i = heapq.heappop(heap)
        agents.append(i)
        heapq.heappush(heap, (value + p, i))
    return agents


def scan_validate(inst: Instance, alloc) -> ValidationReport:
    """validate_allocation by one pass over every held good, without set algebra."""
    if alloc.n != inst.n:
        raise ValueError(f"allocation has {alloc.n} bundles for {inst.n} agents")
    seen: set[int] = set()
    duplicated = False
    bad: set[int] = set()
    for bundle in alloc.bundles:
        for g in bundle:
            if not 0 <= g < inst.m:
                bad.add(g)
            if g in seen:
                duplicated = True
            seen.add(g)
    complete = seen >= set(range(inst.m))
    inside = all(bundle <= inst.big_sets[i] for i, bundle in enumerate(alloc.bundles))
    nonwasteful = inside and seen == set(inst.big_goods)
    return ValidationReport(complete, not duplicated, nonwasteful, tuple(sorted(bad)))


def four_check_phase3(inst: Instance, bundles) -> tuple[frozenset[int], ...] | str:
    """Strict phase 3 with all four of the paper's checks, in their original order.

    The package keeps only the sender and moved-good checks, because they
    imply the other two. Returns the final bundles, or the message of the
    first check that fails.
    """
    bundles = [set(b) for b in bundles]
    values = [sum(inst.q if g in inst.big_sets[i] else inst.p for g in b) for i, b in enumerate(bundles)]
    gave_away: set[int] = set()
    moved: set[int] = set()
    while True:
        i1 = min(range(inst.n), key=lambda i: (-values[i], i))
        i2 = min(range(inst.n), key=lambda i: (values[i], i))
        if i1 == i2:
            break
        v1, v2 = values[i1], values[i2]
        best = None  # (gain, good, w1, w2)
        for g in sorted(bundles[i1]):
            w1 = inst.q if g in inst.big_sets[i1] else inst.p
            w2 = inst.q if g in inst.big_sets[i2] else inst.p
            gain = (v1 - w1) * (v2 + w2) - v1 * v2
            if best is None or gain > best[0]:
                best = (gain, g, w1, w2)
        if best is None or best[0] <= 0:
            break
        gain, g, w1, w2 = best
        if not bundles[i1] <= inst.big_sets[i1]:
            return f"sender {i1} holds a good small for itself while moving good {g}"
        if i2 in gave_away:
            return f"receiver {i2} already gave a good away"
        if g in inst.big_sets[i2]:
            return f"moved good {g} is big for receiver {i2}"
        if g in moved:
            return f"good {g} would move a second time"
        bundles[i1].remove(g)
        bundles[i2].add(g)
        values[i1] -= w1
        values[i2] += w2
        gave_away.add(i1)
        moved.add(g)
    return tuple(frozenset(b) for b in bundles)


def scan_big_sets(n: int, m: int, big_prob, seed: int) -> tuple[frozenset[int], ...]:
    """random_big_sets by one splitmix64 draw per pair, row-major, no packing."""
    big_prob = Fraction(big_prob)
    threshold = (big_prob.numerator << 64) // big_prob.denominator
    stream = splitmix64(seed)
    return tuple(frozenset(g for g in range(m) if next(stream) < threshold) for _ in range(n))

