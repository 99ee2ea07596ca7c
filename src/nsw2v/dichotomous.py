"""Balanced assignment of big goods.

Only the goods that are big for somebody are placed here, each with an agent
that values it big ("non-wasteful"). Trading along exchange-graph paths makes
the sorted load vector lexicographically minimal, which simultaneously covers
as many agents as possible and maximizes the welfare product of the covered
agents.
"""

from __future__ import annotations

from collections import deque

from .core import Allocation, Instance, validate_allocation


def _seed(inst: Instance) -> list[set[int]]:
    """The greedy seed as working sets, non-wasteful by construction."""
    bundles: list[set[int]] = [set() for _ in range(inst.n)]
    loads = [0] * inst.n
    for g in sorted(inst.big_goods):
        # big_for lists agents in ascending order, so min breaks load ties toward the lowest index
        owner = min(inst.big_for[g], key=loads.__getitem__)
        bundles[owner].add(g)
        loads[owner] += 1
    return bundles


def initial_nonwasteful(inst: Instance) -> Allocation:
    """Greedy seed: each big good, in index order, goes to a least-loaded eligible agent."""
    return Allocation(_seed(inst))


def _unloading_path(inst: Instance, bundles: list[set[int]]) -> list[int] | None:
    """Find agents src -> ... -> dst with loads[src] >= loads[dst] + 2 linked by trades.

    The exchange graph has an edge (u, w) whenever u holds a good that is big
    for w. Sources are tried in descending load order (ties: lowest index)
    until one sits below the least load plus two, which no end can lie two
    loads beneath; a BFS from each, visiting neighbours in ascending index
    order over Instance.big_for, picks the lowest-load reachable destination
    (ties: lowest index), which keeps the whole procedure deterministic. A
    search ends as soon as it discovers the target, the agent with the least
    (load, index) overall: no reachable agent can beat it, and its parents
    already form the path. The searches of one call share their visited set:
    everything a failed source reaches sits at most one load below it, and no
    later source is heavier, so an agent seen once can neither serve as a
    later source nor lie on a later path, nor be the target. The path is
    listed from dst back to src, the order in which the trade applies it.
    """
    loads = [len(b) for b in bundles]
    floor = min(loads)
    target = loads.index(floor)
    seen: set[int] = set()
    # sorted is stable under reverse, so equal loads stay in ascending index order
    for src in sorted(range(inst.n), key=loads.__getitem__, reverse=True):
        if loads[src] < floor + 2:
            return None
        if src in seen:
            continue
        seen.add(src)
        parent: dict[int, int | None] = {src: None}
        queue = deque([src])
        best: tuple[int, int] | None = None
        while queue and best != (floor, target):
            u = queue.popleft()
            for w in sorted({w for g in bundles[u] for w in inst.big_for[g]} - seen):
                seen.add(w)
                parent[w] = u
                queue.append(w)
                if loads[w] <= loads[src] - 2 and (best is None or (loads[w], w) < best):
                    best = (loads[w], w)
        if best is not None:
            path = [best[1]]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path
    return None


def _balance(inst: Instance, bundles: list[set[int]]) -> None:
    """balance_loads on working sets, in place; they must be disjoint and non-wasteful.

    Every trade moves a good to an agent that values it big, so the sets stay
    disjoint and non-wasteful.
    """
    while True:
        path = _unloading_path(inst, bundles)
        if path is None:
            return
        # from the sink back, so each agent gives from its pre-trade bundle before it receives
        for w, u in zip(path, path[1:]):
            g = min(bundles[u] & inst.big_sets[w])
            bundles[u].remove(g)
            bundles[w].add(g)


def balance_loads(inst: Instance, big_alloc: Allocation) -> Allocation:
    """Trade big goods along paths until no agent sits two goods above a reachable one.

    Each trade moves one good per path edge (the lowest-index good the next
    agent values big), shifting a unit of load from the source to the sink and
    keeping every intermediate load unchanged. The sum of squared loads drops
    with every trade, so the loop terminates.
    """
    report = validate_allocation(inst, big_alloc)
    if not (report.disjoint and report.nonwasteful):
        raise ValueError("balance_loads requires a disjoint non-wasteful allocation")
    bundles = [set(b) for b in big_alloc.bundles]
    _balance(inst, bundles)
    return Allocation(bundles)


def _solve(inst: Instance) -> list[set[int]]:
    """Phase 1 as working sets: the seed is non-wasteful by construction, so it needs no check."""
    bundles = _seed(inst)
    _balance(inst, bundles)
    return bundles


def solve_dichotomous(inst: Instance) -> Allocation:
    """Place all big goods so that the sorted load vector is lexicographically minimal."""
    return Allocation(_solve(inst))
