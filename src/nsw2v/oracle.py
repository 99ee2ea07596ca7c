"""Brute-force ground truth and diagnostics for the two-value solver.

exact_optimum enumerates every assignment of goods to agents, keeping exact
integer products, so its answers are usable as frozen expected values in
tests. closest_optimum breaks ties among the optima toward a reference
big-good allocation. Transformation graphs describe how two allocations
differ, edge by edge, with each good labelled by its size class for the two
owners.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass
from typing import Sequence

from .balance import two_value_approx
from .core import Allocation, Instance, NswValue, nsw_product, validate_allocation

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The enumeration would visit more states than the budget allows."""


def _good_groups(inst: Instance) -> list[int]:
    """Group ids per good; two goods share a group iff every agent values them equally."""
    key_to_group: dict[frozenset[int], int] = {}
    group_of = []
    for g in range(inst.m):
        key = frozenset(i for i in range(inst.n) if g in inst.big_sets[i])
        group_of.append(key_to_group.setdefault(key, len(key_to_group)))
    return group_of


def state_count(inst: Instance, group_identical: bool = False) -> int:
    """Number of assignments enumerated.

    Without grouping this is n^m. With grouping, goods with identical value
    columns are interchangeable, so only owner multisets are counted per
    group; the canonical representative (owners non-decreasing within each
    group) is also the lexicographically least member of its class, which
    keeps witnesses identical to the ungrouped enumeration.
    """
    if not group_identical:
        return inst.n ** inst.m
    sizes = Counter(_good_groups(inst))
    total = 1
    for s in sizes.values():
        total *= math.comb(s + inst.n - 1, inst.n - 1)
    return total


def _search(
    inst: Instance, group_identical: bool, reference_owner: Sequence[int] | None
) -> tuple[int, list[int]]:
    """Enumerate owner vectors in lexicographic order and keep the best one.

    Best means highest product, then (when reference_owner is given) highest
    overlap with the reference, then first visited, which is the
    lexicographically least owner vector.
    """
    n, m = inst.n, inst.m
    cols = [[inst.q if g in inst.big_sets[i] else inst.p for i in range(n)] for g in range(m)]
    group_of = _good_groups(inst) if group_identical else None
    prod = math.prod
    ref = list(reference_owner) if reference_owner is not None else None

    best_prod = -1
    best_overlap = -1
    best_assign: list[int] = []
    assign = [0] * m
    values = [0] * n
    floor_of_group: dict[int, int] = {}

    def rec(g: int) -> None:
        nonlocal best_prod, best_overlap, best_assign
        if g == m:
            product = prod(values)
            if product < best_prod:
                return
            if ref is None:
                if product > best_prod:
                    best_prod = product
                    best_assign = assign.copy()
                return
            overlap = sum(1 for k in range(m) if assign[k] == ref[k])
            if product > best_prod or overlap > best_overlap:
                best_prod = product
                best_overlap = overlap
                best_assign = assign.copy()
            return
        col = cols[g]
        if group_of is None:
            owners = range(n)
        else:
            owners = range(floor_of_group.get(group_of[g], 0), n)
        for a in owners:
            assign[g] = a
            values[a] += col[a]
            if group_of is None:
                rec(g + 1)
            else:
                gid = group_of[g]
                prev = floor_of_group.get(gid)
                floor_of_group[gid] = a
                rec(g + 1)
                if prev is None:
                    del floor_of_group[gid]
                else:
                    floor_of_group[gid] = prev
            values[a] -= col[a]

    rec(0)
    return best_prod, best_assign


def exact_optimum(
    inst: Instance,
    *,
    budget: int = DEFAULT_BUDGET,
    group_identical: bool = False,
) -> tuple[NswValue, Allocation]:
    """Maximum welfare product over all n^m assignments, with a witness.

    The witness is the lexicographically least owner vector among the maxima.
    group_identical turns on the lossless interchangeable-goods reduction
    (see state_count).
    """
    states = state_count(inst, group_identical)
    if states > budget:
        raise BudgetExceededError(f"{states} states exceed the budget of {budget}")
    best_prod, best_assign = _search(inst, group_identical, None)
    return NswValue(inst.n, inst.q, best_prod), Allocation.from_owners(inst.n, best_assign)


def closest_optimum(
    inst: Instance, reference: Allocation, *, budget: int = DEFAULT_BUDGET
) -> Allocation:
    """Product-maximal allocation keeping as many goods as possible where the reference put them.

    Among the product maxima, the number of goods whose owner matches the
    reference is maximized; remaining ties go to the lexicographically least
    owner vector. Grouping is not applicable here: interchangeable goods can
    overlap the reference differently. A reference with the wrong number of
    bundles or a good outside 0..m-1 raises ValueError.
    """
    if validate_allocation(inst, reference).out_of_range:
        raise ValueError("closest_optimum needs a reference whose goods lie in 0..m-1")
    states = state_count(inst)
    if states > budget:
        raise BudgetExceededError(f"{states} states exceed the budget of {budget}")
    ref_owner = [-1] * inst.m
    for i, bundle in enumerate(reference.bundles):
        for g in bundle:
            ref_owner[g] = i
    _, best_assign = _search(inst, False, ref_owner)
    return Allocation.from_owners(inst.n, best_assign)


@dataclass(frozen=True)
class TransEdge:
    """A good that moves between agents: src holds it in the first allocation, dst in the second."""

    src: int
    dst: int
    good: int
    src_big: bool
    dst_big: bool


@dataclass(frozen=True)
class TransGraph:
    """Edge-per-good difference graph between two allocations on the same instance.

    Goods assigned in only one of the two allocations cannot form an
    agent-to-agent edge; they are kept aside as one-sided entries so that the
    difference accounting stays exact even for partial allocations.
    """

    n: int
    edges: tuple[TransEdge, ...]
    src_only: tuple[tuple[int, int], ...]  # (agent, good) pairs assigned only in the first
    dst_only: tuple[tuple[int, int], ...]  # (agent, good) pairs assigned only in the second


def build_trans_graph(inst: Instance, src_alloc: Allocation, dst_alloc: Allocation) -> TransGraph:
    src_owner = src_alloc.owner_of()
    dst_owner = dst_alloc.owner_of()
    edges = []
    src_only = []
    dst_only = []
    for g in sorted(set(src_owner) | set(dst_owner)):
        i = src_owner.get(g)
        j = dst_owner.get(g)
        if i is not None and j is not None:
            if i != j:
                edges.append(
                    TransEdge(i, j, g, g in inst.big_sets[i], g in inst.big_sets[j])
                )
        elif i is not None:
            src_only.append((i, g))
        else:
            dst_only.append((j, g))
    return TransGraph(inst.n, tuple(edges), tuple(src_only), tuple(dst_only))


@dataclass(frozen=True)
class PathReport:
    """Existence flags for value-preserving trade paths, by endpoint size classes."""

    ss: bool
    sb: bool
    bs: bool
    bb: bool
    balancing_cycles: bool


def classify_paths(graph: TransGraph) -> PathReport:
    """Detect balancing paths and cycles in a transformation graph.

    Two edges chain when the middle agent hands over a good of the same size
    class (for itself) as the good it receives, so a trade along the whole
    path leaves every intermediate agent's value unchanged. A path is typed
    by the first good's class for the start agent and the last good's class
    for the end agent; a big-to-big path whose ends are the same agent is a
    balancing cycle.
    """
    edges = graph.edges
    succ: list[list[int]] = [[] for _ in edges]
    for x, e in enumerate(edges):
        for y, f in enumerate(edges):
            if x != y and e.dst == f.src and e.dst_big == f.src_big:
                succ[x].append(y)
    found = {"SS": False, "SB": False, "BS": False, "BB": False}
    cycles = False
    for x, e in enumerate(edges):
        reachable = {x}
        queue = deque([x])
        while queue:
            u = queue.popleft()
            for y in succ[u]:
                if y not in reachable:
                    reachable.add(y)
                    queue.append(y)
        for y in reachable:
            f = edges[y]
            kind = ("B" if e.src_big else "S") + ("B" if f.dst_big else "S")
            found[kind] = True
            if kind == "BB" and f.dst == e.src:
                cycles = True
    return PathReport(found["SS"], found["SB"], found["BS"], found["BB"], cycles)


@dataclass(frozen=True)
class RatioReport:
    alg_product: int
    opt_product: int
    ratio_float: float


def ratio(inst: Instance, *, budget: int = DEFAULT_BUDGET) -> RatioReport:
    """Solve and enumerate the same instance; ratio_float is (opt/alg)^(1/n) >= 1.

    Equal products short-circuit to exactly 1.0 so that optimal runs never
    report a ratio above one through float rounding.
    """
    alloc = two_value_approx(inst)
    alg = nsw_product(inst, alloc).product
    opt, _ = exact_optimum(inst, budget=budget)
    if alg == opt.product:
        value = 1.0
    else:
        value = math.exp((math.log(opt.product) - math.log(alg)) / inst.n)
    return RatioReport(alg, opt.product, value)
