"""Exact ground truth and diagnostics for the two-value solver.

exact_optimum searches every assignment of goods to agents, keeping exact
integer products, so its answers are usable as frozen expected values in
tests. closest_optimum breaks ties among the optima toward a reference
big-good allocation. Both run one dynamic program over the goods that keeps,
for each vector of agent values, only the best prefix reaching it.
optimum_product, which ratio uses, needs no witness: it searches the vectors
of big-good loads instead and fills each with the small goods as phase 2
does. Both searches pack a vector into one int by one lane rule, _lanes:
whole-byte lanes sized from the largest value a lane holds, unpacked in one
memoryview cast up to 64 bits and lane by lane past that. When p >= 1 and
m >= n, every optimum gives each agent a good, so the value search drops the
prefixes that leave more agents empty than goods remain, from good m - n + 1
on. All three first refuse an instance whose n^m assignments exceed the
budget, a count no dropped prefix changes. Transformation
graphs describe how two allocations differ, edge by edge, with each good
labelled by its size class for the two owners.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Mapping, Sequence

from .balance import _check_solvable, _fill_levels, two_value_approx
from .core import Allocation, Instance, NswValue, nsw_product, validate_allocation

DEFAULT_BUDGET = 10_000_000


class BudgetExceededError(RuntimeError):
    """The enumeration would visit more states than the budget allows."""


def state_count(inst: Instance, group_identical: bool = False) -> int:
    """Number of assignments: n^m, the count the search budget caps.

    With grouping, goods are grouped by their big_for column: goods valued
    big by the same agents are interchangeable, so only owner multisets are
    counted per group. Either count bounds the number of value vectors the
    search keeps in one layer.
    """
    if not group_identical:
        return inst.n ** inst.m
    return math.prod(math.comb(s + inst.n - 1, inst.n - 1) for s in Counter(inst.big_for).values())


def _check_budget(n: int, m: int, budget: int) -> None:
    """Raise BudgetExceededError, naming the count as n^m, when the n^m assignments exceed the budget."""
    # n^m > budget exactly, without forming n^m: n >= 2 to the budget's bit length exceeds it
    if n ** min(m, budget.bit_length()) > budget:
        raise BudgetExceededError(f"{n}^{m} states exceed the budget of {budget}")


def _lanes(n: int, largest: int) -> tuple[int, Callable[[int], Sequence[int]]]:
    """Lane width in bits, and an unpacker, for vectors of n values none above largest.

    A vector is one int whose lane a, from the low end, holds value a. A lane
    is the first of 1, 2, 4 or 8 bytes that holds largest, so the unpacker
    is one memoryview cast of the int's bytes. Past 64 bits the lane is the
    fewest whole bytes that hold largest, read lane by lane with
    int.from_bytes.
    """
    size = next((k for k in (1, 2, 4, 8) if largest < 1 << 8 * k), None)
    if size is not None:
        code = "BHIQ"[size.bit_length() - 1]
        return 8 * size, lambda key: memoryview(key.to_bytes(n * size, sys.byteorder)).cast(code)
    size = (largest.bit_length() + 7) // 8

    def unpack(key: int) -> list[int]:
        raw = key.to_bytes(n * size, "little")
        return [int.from_bytes(raw[at:at + size], "little") for at in range(0, n * size, size)]

    return 8 * size, unpack


def _search(
    inst: Instance, reference_owner: Mapping[int, int] | None, budget: int
) -> tuple[int, Allocation]:
    """Best product and its witness, by a forward DP over goods on agent-value vectors.

    Best means highest product, then (when reference_owner, a map from goods
    to agents, is given) most goods where the reference put them, then the
    lexicographically least owner vector. After g goods, each value vector,
    packed in whole-byte lanes that hold q*m (_lanes), keeps the least score
    S = mismatches * n**g + (owner digits in base n) among the prefixes
    reaching it. Prefixes reaching the same vector have the same
    completions, so this loses no optimum and no tie-break.

    The last good is scored on the fly, so the largest layer is never
    stored. A stored vector v is unpacked once and gets one product P; giving
    the good to agent a, worth x_a to it, would score S*n + add_a. If P > 0,
    agent a reaches P // v_a * (v_a + x_a), which is largest where x_a / v_a
    is, so the ratios are compared by cross-multiplying; equal ratios give
    equal products, and the least add among them wins. If P = 0 and exactly
    one agent j is at 0, only j can lift the product, to prod(v_i, i != j) *
    x_j, and it takes the good when that is not 0. Otherwise every candidate
    reaches the same product and the least add wins. This is the (highest
    product, least score) pair of the n candidates.

    The empty-agent rule. When p >= 1 and m >= n, every optimum gives every
    agent a good: OPT >= p^n > 0, while an allocation leaving an agent
    empty has product 0. An agent is empty when its lane is 0, so emptiness
    is a function of the vector, and once good g is placed a vector with
    more than left = m - g - 1 agents empty is dead: every prefix reaching
    it completes only to product 0 < OPT. Dropping it loses no maximum,
    witness or tie-break. So a popped vector with e empty lanes, e counted
    once, gives good g only to its empty agents when e == left + 1 (one
    agent short) and to every agent when e <= left. Up to good m - n, left + 1 >= n, so only
    the empty vector at good 0 could be short, and its empty agents are all
    of them: those layers count nothing and run as without the rule. From
    good m - n + 1 on no popped vector has e > left + 1: at that good some
    agent already holds a good, and after it the layer before kept none.
    The rule is off when p == 0 or m < n, where OPT may be 0. When n^m
    exceeds the budget, BudgetExceededError is raised first; the rule
    changes neither that count nor the budget's meaning.
    """
    n, m = inst.n, inst.m
    _check_budget(n, m, budget)
    if m == 0:
        return 0, Allocation.from_owners(n, [])
    w, unpack = _lanes(n, inst.q * m)
    moves = []  # per good and owner: (owner, value, score increment)
    for g in range(m):
        miss = n ** (g + 1)
        moves.append([
            (a, inst.value(a, g),
             a + miss * (reference_owner is not None and reference_owner.get(g) != a))
            for a in range(n)
        ])
    # the empty-agent rule (see above) from good first on: (key & low) + low carries into a
    # lane's top bit just when the lane's other bits are not all 0, so
    # ((key & low) + low | key) & high holds the top bit of each lane that is not 0
    first = m - n + 1 if inst.p >= 1 and m >= n else m
    tops = [1 << a * w + w - 1 for a in range(n)]
    high = sum(tops)
    low = ((1 << n * w) - 1) ^ high
    layer = {0: 0}
    for g in range(m - 1):
        nxt: dict[int, int] = {}
        keep = nxt.setdefault
        steps = [(value << a * w, add) for a, value, add in moves[g]]
        need = n - (m - g - 1) if g >= first else 0  # the agents holding a good once g is placed
        short: dict[int, list[tuple[int, int]]] = {}  # per held lanes one short: the empty agents' steps
        while layer:  # popping frees the old layer while the new one grows
            key, score = layer.popitem()
            go = steps
            if need:
                held = ((key & low) + low | key) & high
                if held.bit_count() < need:  # one agent short: only the empty agents take g
                    go = short.get(held)
                    if go is None:
                        go = short[held] = [step for step, top in zip(steps, tops) if not held & top]
            base = score * n
            for inc, add in go:
                k, s = key + inc, base + add
                if keep(k, s) > s:
                    nxt[k] = s
        layer = nxt
    # the last good: one unpack and one product per stored vector
    last = moves[-1]
    by_add = sorted(last, key=lambda move: move[2])
    least = by_add[0][2]  # the add that wins when every candidate ties
    gainers = [move for move in by_add if move[1]]
    best_prod, best_score = -1, 0
    for key, score in layer.items():
        values = unpack(key)
        product = math.prod(values)
        add = least
        if product:
            # the largest x_a / v_a, by cross-multiplying, and the least add among equals;
            # with no gainer the ratio stays 0 and the product P
            top_v, top_x = 1, 0
            for a, x, ad in gainers:
                v = values[a]
                if x * top_v > top_x * v:
                    top_v, top_x, add = v, x, ad
            product = product // top_v * (top_v + top_x)
        else:
            values = list(values)
            if values.count(0) == 1:  # only the agent at 0 can lift the product
                j = values.index(0)
                values[j] = last[j][1]
                if values[j]:
                    product, add = math.prod(values), last[j][2]
        s = score * n + add
        if product > best_prod or (product == best_prod and s < best_score):
            best_prod, best_score = product, s
    owners = []
    for _ in range(m):
        best_score, a = divmod(best_score, n)
        owners.append(a)
    return best_prod, Allocation.from_owners(n, owners[::-1])


def exact_optimum(inst: Instance, *, budget: int = DEFAULT_BUDGET) -> tuple[NswValue, Allocation]:
    """Maximum welfare product over all n^m assignments, with a witness.

    The witness is the lexicographically least owner vector among the maxima.
    BudgetExceededError is raised when n^m exceeds the budget.
    """
    best_prod, witness = _search(inst, None, budget)
    return NswValue(inst.n, inst.q, best_prod), witness


def optimum_product(inst: Instance, *, budget: int = DEFAULT_BUDGET) -> int:
    """Maximum welfare product, by a forward DP over the big goods on agent-load vectors.

    Why it is exact. In any allocation, call a good received big when its
    holder values it big, and let b_i count the goods agent i receives big.
    The other m - sum(b) goods are worth p to their holders, so agent i's
    value is q*b_i + p*s_i with sum(s) = m - sum(b). For a fixed b, fill(b)
    hands those m - sum(b) goods out at p each, one at a time, to a poorest
    agent; as log is concave, that greedy maximizes the product over every
    such s, so no allocation with big loads b beats fill(b). Conversely,
    fill(b) is attained or beaten: give each agent its b_i big goods and the
    pooled goods as fill says; a pooled good that its receiver values big
    only adds value. So OPT is the maximum of fill(b) over the big-load
    vectors b that allocations have.

    Those vectors are what the DP builds. It takes the big goods in index
    order and gives each one to an agent that values it big, or to the pool
    when some agent values it small (a good every agent values big is
    received big wherever it goes). A vector is packed into one int, in
    whole-byte lanes that hold the largest big set (_lanes). Agents with
    equal big sets are interchangeable, so within each such class the loads
    are kept non-increasing in index order: a good may go to an agent only
    if it is the first of its class or the class member just before it
    holds strictly more. The sorted form of every vector a good can lead to
    is still reached, since adding one to the first member of a class at
    some load keeps the class sorted. The stored vectors number at most the product
    over agents of (|big set| + 1). As the pool takes only goods some agent
    values small, each stored vector is also the big-load vector of an
    allocation of the goods seen so far, so they never outnumber the n^m
    assignments the budget caps. fill is symmetric in the agents, so each
    distinct sorted load multiset is filled once, by taking the first
    m - sum(loads) agents of phase 2's stream (balance._fill_levels), in
    exact integers. There is no float.

    BudgetExceededError is raised first when n^m exceeds the budget, with
    the message exact_optimum gives.
    """
    n, m, p, q = inst.n, inst.m, inst.p, inst.q
    _check_budget(n, m, budget)
    # no load exceeds its agent's big set
    w, unpack = _lanes(n, max(map(len, inst.big_sets)))
    mask = (1 << w) - 1
    last: dict[frozenset[int], int] = {}  # the last agent seen with each big set
    prev = []  # the class member just before each agent, or -1 for the first
    for a, big in enumerate(inst.big_sets):
        prev.append(last.get(big, -1))
        last[big] = a
    layer = {0}
    for g in sorted(inst.big_goods):
        owners = inst.big_for[g]
        nxt = set(layer) if len(owners) < n else set()
        firsts = [1 << a * w for a in owners if prev[a] < 0]
        others = [(1 << a * w, a * w, prev[a] * w) for a in owners if prev[a] >= 0]
        for key in layer:
            for inc in firsts:
                nxt.add(key + inc)
            for inc, at, before_at in others:
                if key >> before_at & mask > key >> at & mask:
                    nxt.add(key + inc)
        layer = nxt
    best = 0
    for loads in {tuple(sorted(unpack(key))) for key in layer}:
        values = [q * load for load in loads]
        for i in islice(_fill_levels(loads, q, p), m - sum(loads)):
            values[i] += p
        best = max(best, math.prod(values))
    return best


def closest_optimum(
    inst: Instance, reference: Allocation, *, budget: int = DEFAULT_BUDGET
) -> Allocation:
    """Product-maximal allocation keeping as many goods as possible where the reference put them.

    Among the product maxima, the number of goods whose owner matches the
    reference is maximized; remaining ties go to the lexicographically least
    owner vector. BudgetExceededError is raised when n^m exceeds the budget.
    A reference with the wrong number of bundles, a good outside 0..m-1 or a
    good in two bundles raises ValueError.
    """
    report = validate_allocation(inst, reference)
    if report.out_of_range or not report.disjoint:
        raise ValueError("closest_optimum needs a reference holding goods of 0..m-1 at most once")
    return _search(inst, reference.owner_of(), budget)[1]


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

    Each edge is one arc from the state (src, src_big) to (dst, dst_big).
    Edge e chains into edge f exactly when e ends in the state where f
    starts, so chains of edges are the nonempty walks over these at most 2n
    states (an edge repeated back to back can be dropped without moving the
    walk's ends). Type XY exists iff a state of class X reaches one of class
    Y, and a balancing cycle iff some (agent, big) state reaches itself. One
    search per state costs about n·E; pairing the edges themselves costs E².
    """
    succ: dict[tuple[int, bool], set[tuple[int, bool]]] = {}
    for e in graph.edges:
        succ.setdefault((e.src, e.src_big), set()).add((e.dst, e.dst_big))
    found: set[tuple[bool, bool]] = set()
    cycles = False
    for start, first in succ.items():
        reached = set(first)
        stack = list(first)
        while stack:
            for t in succ.get(stack.pop(), ()):
                if t not in reached:
                    reached.add(t)
                    stack.append(t)
        found.update((start[1], big) for _, big in reached)
        cycles = cycles or (start[1] and start in reached)
    # ss, sb, bs, bb in field order
    return PathReport(*((x, y) in found for x in (False, True) for y in (False, True)), cycles)


@dataclass(frozen=True)
class RatioReport:
    alg_product: int
    opt_product: int
    ratio_float: float


def ratio(inst: Instance, *, budget: int = DEFAULT_BUDGET) -> RatioReport:
    """Solve and find the optimum of the same instance; ratio_float is (opt/alg)^(1/n) >= 1.

    The optimum is optimum_product's, a search over big-good load vectors
    rather than the value vectors exact_optimum searches. The solver's
    preconditions are checked first and the n^m budget second, so their
    errors come in the solver's order and an instance over the budget is
    refused before it is solved. Equal products short-circuit to exactly
    1.0 so that optimal runs never report a ratio above one through float
    rounding.
    """
    _check_solvable(inst)
    opt = optimum_product(inst, budget=budget)
    alg = nsw_product(inst, two_value_approx(inst)).product
    if alg == opt:
        value = 1.0
    else:
        value = math.exp((math.log(opt) - math.log(alg)) / inst.n)
    return RatioReport(alg, opt, value)
