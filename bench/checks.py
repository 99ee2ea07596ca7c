"""Output checks for the benchmark, written without the nsw2v package.

Everything here re-derives what the program printed or returned from the
instance and allocation files alone: its own parsers, its own integer
products, its own exhaustive optimum and its own path search. Nothing
imports nsw2v, so a fault in the program cannot hide a matching fault in
its check.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

# the paper's approximation guarantee, as an exact rational
BOUND = Fraction(10345, 10000)


class CheckError(AssertionError):
    """An output that the program produced is wrong."""


@dataclass(frozen=True)
class Inst:
    """An instance as the file states it: agent i values big[i] at q, the rest at p."""

    n: int
    m: int
    p: int
    q: int
    big: tuple[frozenset[int], ...]

    def value(self, agent: int, good: int) -> int:
        return self.q if good in self.big[agent] else self.p


def _ints(line: str) -> list[int]:
    return [int(tok) for tok in line.split()]


def read_instance(text: str) -> Inst:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "nsw2v 1":
        raise CheckError("instance file lacks its 'nsw2v 1' header")
    n, m, p, q = _ints(lines[1])
    body = lines[2:2 + n]
    if len(body) != n:
        raise CheckError(f"instance file holds {len(body)} agent lines, expected {n}")
    return Inst(n, m, p, q, tuple(frozenset(_ints(line)) for line in body))


def read_allocation(text: str) -> tuple[int, int, list[list[int]]]:
    """Return (n, m, bundles) as the file states them, duplicates kept."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "alloc 1":
        raise CheckError("allocation file lacks its 'alloc 1' header")
    n, m = _ints(lines[1])
    body = lines[2:]
    if len(body) != n:
        raise CheckError(f"allocation file holds {len(body)} bundle lines, expected {n}")
    return n, m, [_ints(line) for line in body]


def check_partition(bundles: list[list[int]], m: int) -> None:
    """Every good 0..m-1 appears in exactly one bundle, and nothing else appears."""
    seen = [0] * m
    for i, bundle in enumerate(bundles):
        for g in bundle:
            if not 0 <= g < m:
                raise CheckError(f"bundle {i} holds good {g} outside 0..{m - 1}")
            seen[g] += 1
    twice = [g for g in range(m) if seen[g] > 1]
    if twice:
        raise CheckError(f"goods held twice: {twice[:5]}")
    missing = [g for g in range(m) if seen[g] == 0]
    if missing:
        raise CheckError(f"goods held by nobody: {missing[:5]}")


def values_of(inst: Inst, bundles) -> list[int]:
    return [sum(inst.value(i, g) for g in bundle) for i, bundle in enumerate(bundles)]


def check_solver_output(inst: Inst, alloc_text: str, stdout: str) -> int:
    """Check one `nsw2v solve --out` result; return the product it printed.

    The file must partition the goods, the printed product must equal the
    product recomputed here, every agent must hold positive value, and no
    single good moved from a richest agent to a poorest one may raise the
    product (the stopping rule of the local search).
    """
    n, m, bundles = read_allocation(alloc_text)
    if (n, m) != (inst.n, inst.m):
        raise CheckError(f"allocation is {n}x{m}, instance {inst.n}x{inst.m}")
    check_partition(bundles, m)
    values = values_of(inst, bundles)
    fields = dict(tok.split("=", 1) for tok in stdout.split())
    printed = int(fields["product"])
    if printed != math.prod(values):
        raise CheckError(f"printed product {printed} != recomputed {math.prod(values)}")
    if min(values) <= 0:
        raise CheckError("an agent ends with zero value")
    top, low = max(values), min(values)
    for i in (i for i in range(n) if values[i] == top):
        for j in (j for j in range(n) if values[j] == low and j != i):
            for g in bundles[i]:
                gain = (top - inst.value(i, g)) * (low + inst.value(j, g)) - top * low
                if gain > 0:
                    raise CheckError(f"moving good {g} from agent {i} to {j} raises the product")
    return printed


def check_planted_bound(inst: Inst, product: int) -> None:
    """A planted gap-4DM instance has optimum exactly 20^n; the solver must reach 1/1.0345 of it.

    product * 10345^n >= 200000^n is (20^n / product)^(1/n) <= 1.0345 in integers.
    """
    if product * BOUND.numerator ** inst.n < (20 * BOUND.denominator) ** inst.n:
        raise CheckError("solver product is more than a factor 1.0345 below the planted 20^n")


def planted_optimum(inst: Inst) -> int:
    """The optimum of a planted (4, 5) gap-4DM instance: every agent at value 20.

    Valid only when every vertex good is big for somebody and the rest are
    small for all; then the values sum to at most 5*|vertex| + 4*|dummy| =
    20n, so AM-GM caps the product at 20^n and the planted matching meets it.
    """
    vertex = set().union(*inst.big)
    if (inst.p, inst.q) != (4, 5) or 5 * len(vertex) + 4 * (inst.m - len(vertex)) != 20 * inst.n:
        raise CheckError("instance is not a planted gap-4DM instance")
    return 20 ** inst.n


def best_product_and_overlap(inst: Inst, ref_owner: list[int] | None = None) -> tuple[int, int]:
    """Exhaustive optimum over all n^m assignments, by dynamic programming.

    Goods are placed one at a time; two partial assignments that give every
    agent the same value have the same completions, so each value vector is
    kept once, with the largest number of goods placed where ref_owner puts
    them. Returns the maximum product and, among the assignments reaching
    it, the largest overlap with ref_owner (0 without a reference).
    """
    frontier: dict[tuple[int, ...], int] = {(0,) * inst.n: 0}
    for g in range(inst.m):
        col = [inst.value(i, g) for i in range(inst.n)]
        keep = -1 if ref_owner is None else ref_owner[g]
        nxt: dict[tuple[int, ...], int] = {}
        for vec, overlap in frontier.items():
            for a in range(inst.n):
                key = vec[:a] + (vec[a] + col[a],) + vec[a + 1:]
                score = overlap + (a == keep)
                if nxt.get(key, -1) < score:
                    nxt[key] = score
        frontier = nxt
    best = max(math.prod(vec) for vec in frontier)
    overlap = max(score for vec, score in frontier.items() if math.prod(vec) == best)
    return best, overlap


def check_ratio_row(inst: Inst, row: str, optimum: int) -> None:
    """Check one CSV row of `nsw2v ratio` against the optimum found here."""
    fields = row.split(",")
    n, m, p, q, alg, opt = (int(x) for x in fields[1:7])
    if (n, m, p, q) != (inst.n, inst.m, inst.p, inst.q):
        raise CheckError(f"row describes {n}x{m} ({p},{q}), file holds another instance")
    if opt != optimum:
        raise CheckError(f"printed optimum {opt} != exhaustive optimum {optimum}")
    if not 0 < alg <= opt:
        raise CheckError(f"solver product {alg} is not in (0, {opt}]")
    if opt * BOUND.denominator ** n > alg * BOUND.numerator ** n:
        raise CheckError(f"ratio ({opt}/{alg})^(1/{n}) exceeds 1.0345")
    if p == 1 and (alg != opt or fields[7] != "1.000000"):
        raise CheckError(f"p = 1 but the solver is not optimal: {row}")


def owners_of(bundles, m: int) -> list[int]:
    """Owner of each good, -1 where no bundle holds it."""
    owner = [-1] * m
    for i, bundle in enumerate(bundles):
        for g in bundle:
            owner[g] = i
    return owner


def trans_edges(inst: Inst, src_owner: list[int], dst_owner: list[int]) -> list[tuple]:
    """One (src, dst, good, src_big, dst_big) edge per good both allocations place, differently."""
    edges = []
    for g in range(inst.m):
        i, j = src_owner[g], dst_owner[g]
        if i >= 0 and j >= 0 and i != j:
            edges.append((i, j, g, g in inst.big[i], g in inst.big[j]))
    return edges


def path_kinds(edges: list[tuple]) -> tuple[set[str], bool]:
    """Kinds of value-preserving paths ("SS", "SB", "BS", "BB") and whether a BB path closes.

    Edge f may follow edge e when e ends at the agent f starts from and that
    agent receives and gives a good of the same size class for itself.
    """
    kinds: set[str] = set()
    cycle = False
    for start in range(len(edges)):
        seen = {start}
        todo = deque([start])
        while todo:
            x = todo.popleft()
            _, dst, _, _, dst_big = edges[x]
            for y, f in enumerate(edges):
                if y not in seen and f[0] == dst and f[3] == dst_big:
                    seen.add(y)
                    todo.append(y)
        src, _, _, src_big, _ = edges[start]
        for y in seen:
            end = edges[y]
            kind = ("B" if src_big else "S") + ("B" if end[4] else "S")
            kinds.add(kind)
            if kind == "BB" and end[1] == src:
                cycle = True
    return kinds, cycle
