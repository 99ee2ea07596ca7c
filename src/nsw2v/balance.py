"""Completion of a big-good allocation into a full one, plus local search.

Phase 2 hands the globally-small goods to whichever agent is currently
poorest; phase 3 moves single goods from a richest agent to a poorest one for
as long as that strictly raises the welfare product. All comparisons are done
on integer products, never on floats.
"""

from __future__ import annotations

import heapq

from .core import Allocation, Instance, validate_allocation, valuation_profile
from .dichotomous import solve_dichotomous


class GoodsFewerThanAgentsError(ValueError):
    """The solver requires at least as many goods as agents."""


class ZeroSmallValueError(ValueError):
    """With p = 0 the greedy has nothing to hand out; the dichotomous path applies."""


class LocalSearchInvariantError(RuntimeError):
    """The local search hit a state that a balanced big-good allocation rules out.

    Seeing this means the phase-1 input was not actually balanced.
    """


def phase2_assign_small(inst: Instance, alloc: Allocation) -> Allocation:
    """Give each globally-small good, in index order, to a poorest agent (ties: lowest index).

    The agents sit in a heap of (value, index), so each good takes the top
    entry and replaces it with the agent's raised value. A non-wasteful input
    holds only goods big for their holders, so each start value is q times the
    bundle size.
    """
    if inst.p == 0:
        raise ZeroSmallValueError("greedy completion needs p >= 1")
    report = validate_allocation(inst, alloc)
    if not (report.disjoint and report.nonwasteful):
        raise ValueError("phase 2 expects a disjoint non-wasteful allocation")
    bundles = [set(b) for b in alloc.bundles]
    heap = [(inst.q * len(b), i) for i, b in enumerate(bundles)]
    heapq.heapify(heap)
    for g in sorted(inst.small_goods):
        value, poorest = heap[0]
        bundles[poorest].add(g)
        heapq.heapreplace(heap, (value + inst.p, poorest))
    return Allocation(bundles)


def phase3_local_search(
    inst: Instance, alloc: Allocation, *, strict_properties: bool = False
) -> Allocation:
    """Move goods from a richest agent to a poorest one while the product strictly rises.

    Each round recomputes the richest agent i1 and poorest agent i2 (ties:
    lowest index) and scans i1's bundle for the move with the largest exact
    gain (v1 - w1) * (v2 + w2) - v1 * v2, where w1 and w2 are the good's
    values for sender and receiver; ties pick the lowest good index. The
    search stops when i1 == i2 or the best gain is not positive.

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
    values = list(valuation_profile(inst, alloc).values)
    while True:
        i1 = min(range(inst.n), key=lambda i: (-values[i], i))
        i2 = min(range(inst.n), key=lambda i: (values[i], i))
        if i1 == i2:
            break
        v1, v2 = values[i1], values[i2]
        best: tuple[int, int, int, int] | None = None  # (gain, good, w1, w2)
        for g in sorted(bundles[i1]):
            w1 = inst.value(i1, g)
            w2 = inst.value(i2, g)
            gain = (v1 - w1) * (v2 + w2) - v1 * v2
            if best is None or gain > best[0]:
                best = (gain, g, w1, w2)
        if best is None or best[0] <= 0:
            break
        gain, g, w1, w2 = best
        if strict_properties:
            if not bundles[i1] <= inst.big_sets[i1]:
                raise LocalSearchInvariantError(
                    f"sender {i1} holds a good small for itself while moving good {g}"
                )
            if g in inst.big_sets[i2]:
                raise LocalSearchInvariantError(f"moved good {g} is big for receiver {i2}")
        bundles[i1].remove(g)
        bundles[i2].add(g)
        values[i1] -= w1
        values[i2] += w2
    return Allocation(bundles)


def _check_solvable(inst: Instance) -> None:
    """The full solver's preconditions, p >= 1 and then m >= n, as the errors it raises."""
    if inst.p == 0:
        raise ZeroSmallValueError("p = 0 instances are dichotomous; use solve_dichotomous")
    if inst.m < inst.n:
        raise GoodsFewerThanAgentsError(f"need m >= n, got m={inst.m}, n={inst.n}")


def two_value_approx(inst: Instance) -> Allocation:
    """Full solver: balance the big goods, greedily complete, then locally improve.

    Requires m >= n and p >= 1; every agent ends with positive value.
    """
    _check_solvable(inst)
    big = solve_dichotomous(inst)
    full = phase2_assign_small(inst, big)
    return phase3_local_search(inst, full, strict_properties=True)
