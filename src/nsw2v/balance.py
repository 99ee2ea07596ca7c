"""Completion of a big-good allocation into a full one, plus local search.

Phase 2 hands the globally-small goods to whichever agent is currently
poorest; phase 3 moves single goods from a richest agent to a poorest one for
as long as that strictly raises the welfare product. All comparisons are done
on integer products, never on floats.
"""

from __future__ import annotations

import heapq
from typing import Iterable, Iterator

from .core import Allocation, Instance, validate_allocation
from .dichotomous import _solve


class GoodsFewerThanAgentsError(ValueError):
    """The solver requires at least as many goods as agents."""


class ZeroSmallValueError(ValueError):
    """With p = 0 the greedy has nothing to hand out; the dichotomous path applies."""


class LocalSearchInvariantError(RuntimeError):
    """The local search hit a state that a balanced big-good allocation rules out.

    Seeing this means the phase-1 input was not actually balanced.
    """


def _fill_levels(loads: Iterable[int], q: int, p: int) -> Iterator[int]:
    """Phase 2's stream of handouts: yield, one per good of value p, the agent it goes to.

    Agent i starts at value q * loads[i]; the loads are read when the first
    agent is asked for. Agents with equal values form a level; the levels sit
    in a heap keyed by value, each holding its agents in ascending index
    order. The lowest level is yielded agent by agent in that order, which is
    what a (value, index) heap would do one good at a time, since each agent
    fed rises by p, above every agent left at that level. The level then
    moves up by p, merging with a level already there. The stream never
    ends, so the caller takes as many agents as it has goods.
    """
    levels: dict[int, list[int]] = {}
    for i, load in enumerate(loads):
        levels.setdefault(q * load, []).append(i)
    heap = list(levels)
    heapq.heapify(heap)
    while True:
        value = heapq.heappop(heap)
        agents = levels.pop(value)
        yield from agents
        if value + p in levels:
            levels[value + p] = sorted(levels[value + p] + agents)
        else:
            levels[value + p] = agents
            heapq.heappush(heap, value + p)


def _assign_small(inst: Instance, bundles: list[set[int]]) -> None:
    """phase2_assign_small on working sets, in place; they must be disjoint and non-wasteful.

    The small goods, in index order, are zipped onto the stream of
    _fill_levels, started from the bundle sizes.
    """
    stream = _fill_levels(map(len, bundles), inst.q, inst.p)
    for g, i in zip(sorted(inst.small_goods), stream):  # goods first: no handout past the last
        bundles[i].add(g)


def phase2_assign_small(inst: Instance, alloc: Allocation) -> Allocation:
    """Give each globally-small good, in index order, to a poorest agent (ties: lowest index).

    The input is validated once, and the goods are then zipped onto one
    stream of agents, one per handout: agents of equal value take the next
    goods in ascending index order and move up by p as a group, merging with
    any group that already sits there. A non-wasteful input holds only goods
    big for their holders, so each start value is q times the bundle size.
    """
    if inst.p == 0:
        raise ZeroSmallValueError("greedy completion needs p >= 1")
    report = validate_allocation(inst, alloc)
    if not (report.disjoint and report.nonwasteful):
        raise ValueError("phase 2 expects a disjoint non-wasteful allocation")
    bundles = [set(b) for b in alloc.bundles]
    _assign_small(inst, bundles)
    return Allocation(bundles)


def _local_search(inst: Instance, bundles: list[set[int]], strict_properties: bool) -> None:
    """phase3_local_search on working sets, in place; they must be complete and disjoint."""
    p, q = inst.p, inst.q
    big_sets = inst.big_sets
    values = []
    for b, big in zip(bundles, big_sets):
        held_big = len(b & big)
        values.append(q * held_big + p * (len(b) - held_big))
    while True:
        # index() finds the first extreme, so ties go to the lowest index
        i1 = values.index(max(values))
        i2 = values.index(min(values))
        if i1 == i2:
            return
        v1, v2 = values[i1], values[i2]
        big1, big2 = big_sets[i1], big_sets[i2]
        best: tuple[int, int, int, int] | None = None  # (gain, good, w1, w2)
        for g in sorted(bundles[i1]):
            w1 = q if g in big1 else p
            w2 = q if g in big2 else p
            gain = (v1 - w1) * (v2 + w2) - v1 * v2
            if best is None or gain > best[0]:
                best = (gain, g, w1, w2)
        if best is None or best[0] <= 0:
            return
        gain, g, w1, w2 = best
        if strict_properties:
            if not bundles[i1] <= big1:
                raise LocalSearchInvariantError(
                    f"sender {i1} holds a good small for itself while moving good {g}"
                )
            if g in big2:
                raise LocalSearchInvariantError(f"moved good {g} is big for receiver {i2}")
        bundles[i1].remove(g)
        bundles[i2].add(g)
        values[i1] -= w1
        values[i2] += w2


def phase3_local_search(
    inst: Instance, alloc: Allocation, *, strict_properties: bool = False
) -> Allocation:
    """Move goods from a richest agent to a poorest one while the product strictly rises.

    The input is validated once; the start values are then computed in one
    pass over the bundles and kept up to date by each move. Each round takes
    the richest agent i1 and poorest agent i2 (ties: lowest index) and scans
    i1's bundle for the move with the largest exact gain
    (v1 - w1) * (v2 + w2) - v1 * v2, where w1 and w2 are the good's values for
    sender and receiver; ties pick the lowest good index. The search stops
    when i1 == i2 or the best gain is not positive.

    With strict_properties the run additionally checks the structure that a
    balanced phase-1 input guarantees: the sender holds only goods big for
    itself, and the moved good is small for the receiver. Violations raise
    LocalSearchInvariantError since they indicate a broken phase 1.

    The two checks imply the paper's other two: no receiver gave a good away
    and no good moves twice. A richest sender of k big goods moves a good
    worth w to a receiver of value v only if v < (k - 1) w, so after a move
    passing both checks (w = p) the receiver ends below kp: the largest value
    never rises. A good that moved is small for its holder, so the sender
    check fails before it moves again. An agent left with j big goods by a
    gift then faces values of at most (j + 1) q, so a move to it would need
    jq < jw, which w <= q forbids.
    """
    report = validate_allocation(inst, alloc)
    if not report.disjoint or not report.complete or report.out_of_range:
        raise ValueError("phase 3 expects a complete disjoint allocation")
    bundles = [set(b) for b in alloc.bundles]
    _local_search(inst, bundles, strict_properties)
    return Allocation(bundles)


def _check_solvable(inst: Instance) -> None:
    """The full solver's preconditions, p >= 1 and then m >= n, as the errors it raises."""
    if inst.p == 0:
        raise ZeroSmallValueError("p = 0 instances are dichotomous; use solve_dichotomous")
    if inst.m < inst.n:
        raise GoodsFewerThanAgentsError(f"need m >= n, got m={inst.m}, n={inst.n}")


def two_value_approx(inst: Instance) -> Allocation:
    """Full solver: balance the big goods, greedily complete, then locally improve.

    Requires m >= n and p >= 1; every agent ends with positive value. The
    phase bodies run in turn on one list of working sets, with no validation
    and no Allocation between them: the phase-1 seed is non-wasteful by
    construction, and each body keeps the invariant the next phase's guard
    checks.
    """
    _check_solvable(inst)
    bundles = _solve(inst)
    _assign_small(inst, bundles)
    _local_search(inst, bundles, strict_properties=True)
    return Allocation(bundles)
