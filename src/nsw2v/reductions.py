"""Matching-based hardness instances and the exact LP certificate checker.

reduce_pdm turns a d-dimensional perfect-matching question into a two-value
instance whose scaled optimum hits d exactly iff a perfect matching exists.
reduce_gap4dm is the (4, 5)-valued variant driven by a target matching size.
verify_apx_lp checks a claimed optimum of the type-accounting program with
exact rational arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping

from .core import (
    MAX_GOODS, Allocation, Instance, ParseError, _read_header, _records, _write_records, parse_rational,
)

PDM_MAGIC = "pdm 1"
CERT_MAGIC = "lpcert 1"


class ReductionError(ValueError):
    """A transformation was requested outside its parameter range."""


@dataclass(frozen=True)
class PdmInstance:
    """A dim-partite dim-uniform hypergraph on dim vertex classes of size n.

    Edge component k names a vertex of class k; a perfect matching is a set
    of n pairwise-disjoint edges.
    """

    dim: int
    n: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dimension must be positive, got {self.dim}")
        if self.n < 1:
            raise ValueError(f"class size must be positive, got n={self.n}")
        edges = tuple(tuple(int(v) for v in e) for e in self.edges)
        if not edges:
            raise ValueError("need at least one edge")
        for e in edges:
            if len(e) != self.dim:
                raise ValueError(f"edge {e} does not have {self.dim} components")
            for v in e:
                if not 0 <= v < self.n:
                    raise ValueError(f"vertex {v} outside 0..{self.n - 1} in edge {e}")
        object.__setattr__(self, "edges", edges)

    @property
    def m(self) -> int:
        return len(self.edges)


def _vertex_goods(g: PdmInstance, edge: tuple[int, ...]) -> frozenset[int]:
    # vertex v of class k becomes good k*n + v
    return frozenset(k * g.n + v for k, v in enumerate(edge))


def _edge_agents(g: PdmInstance, p: int, q: int, dummies: int) -> Instance:
    """One agent per edge, big on exactly its vertex goods; dummy goods come after those.

    The good count is refused past core.MAX_GOODS, which no instance file may exceed.
    """
    m = g.dim * g.n + dummies
    if m > MAX_GOODS:
        raise ReductionError(f"good count {m} exceeds the limit of {MAX_GOODS}")
    big_sets = tuple(_vertex_goods(g, e) for e in g.edges)
    return Instance(n=g.m, m=m, p=p, q=q, big_sets=big_sets)


def _clash(g: PdmInstance, chosen: Iterable[int]) -> str | None:
    """Why the edge indices, in order, are not vertex-disjoint edges of g; None if they are."""
    used: set[tuple[int, int]] = set()
    for idx in chosen:
        if not 0 <= idx < g.m:
            return f"edge index {idx} outside 0..{g.m - 1}"
        vertices = set(enumerate(g.edges[idx]))
        if not used.isdisjoint(vertices):
            return "matching edges share a vertex"
        used |= vertices
    return None


def reduce_pdm(g: PdmInstance, q: int) -> Instance:
    """Perfect-matching instance: one agent per edge, values (dim, q).

    An edge-agent values exactly its dim incident vertex goods big; q*(m-n)
    indistinguishable dummy goods absorb the m-n agents a perfect matching
    leaves out.
    """
    p = g.dim
    if p < 3:
        raise ReductionError(f"edge dimension must be at least 3, got {p}")
    if q <= p:
        raise ReductionError(f"need q > p, got q={q}, p={p}")
    if math.gcd(p, q) != 1:
        raise ReductionError(f"p={p} and q={q} must be coprime")
    if g.m < g.n:
        raise ReductionError(f"need at least n={g.n} edges, got {g.m}")
    return _edge_agents(g, p, q, q * (g.m - g.n))


def reduce_gap4dm(g: PdmInstance, k: int) -> Instance:
    """Gap variant at values (4, 5) for 4-dimensional instances with m = 3n.

    k is the target matching size; 5*(m-k) dummy goods are added, so a
    matching of size k lets the matched agents take their vertex goods and
    everyone else take five dummies, all reaching value 20.
    """
    if g.dim != 4:
        raise ReductionError(f"edge dimension must be 4, got {g.dim}")
    if g.m != 3 * g.n:
        raise ReductionError(f"need m = 3n edges, got m={g.m} with n={g.n}")
    if not 0 <= k <= g.n:
        raise ReductionError(f"target matching size must lie in 0..{g.n}, got {k}")
    return _edge_agents(g, 4, 5, 5 * (g.m - k))


def matching_to_allocation(
    g: PdmInstance, matching: Iterable[int], inst: Instance
) -> Allocation:
    """Allocation certifying completeness: every agent's value is exactly dim * q.

    Matched agents take their vertex goods; unmatched agents, in index order,
    take q dummies each. The matching must be perfect and inst must come from
    reduce_pdm (or reduce_gap4dm with k = n) on the same hypergraph.
    """
    matched = set(matching)
    if len(matched) != g.n:
        raise ValueError(f"perfect matching needs exactly {g.n} edges, got {len(matched)}")
    # in ascending order, so the problem named is the one met first by index
    problem = _clash(g, sorted(matched))
    if problem is not None:
        raise ValueError(problem)
    if inst.n != g.m:
        raise ValueError("instance does not have one agent per edge")
    dummy_start = g.dim * g.n
    unmatched = [i for i in range(g.m) if i not in matched]
    if inst.q * len(unmatched) != inst.m - dummy_start:
        raise ValueError("instance dummy goods do not fit the unmatched agents")
    bundles: list[frozenset[int]] = [frozenset()] * g.m
    for idx in matched:
        bundles[idx] = _vertex_goods(g, g.edges[idx])
    next_dummy = dummy_start
    for idx in unmatched:
        bundles[idx] = frozenset(range(next_dummy, next_dummy + inst.q))
        next_dummy += inst.q
    return Allocation(bundles)


def find_perfect_matching(g: PdmInstance) -> frozenset[int] | None:
    """Exhaustively search for n pairwise-disjoint edges; None when there are none.

    Desk-scale only: scans every n-subset of edges in lexicographic order.
    """
    for combo in combinations(range(g.m), g.n):
        if _clash(g, combo) is None:
            return frozenset(combo)
    return None


def coprime_solutions(p: int, q: int) -> set[tuple[int, int]]:
    """All non-negative integer pairs (i, j) with q*i + p*j = q*p.

    For coprime p < q these are exactly (p, 0) and (0, q): an agent can reach
    value p*q only with p big goods or q small ones, never a mix.
    """
    if not 0 < p < q:
        raise ValueError(f"need 0 < p < q, got p={p}, q={q}")
    if math.gcd(p, q) != 1:
        raise ValueError(f"p={p} and q={q} must be coprime")
    found = set()
    for j in range(q + 1):
        rest = q * p - p * j
        if rest >= 0 and rest % q == 0:
            found.add((rest // q, j))
    return found


@dataclass(frozen=True)
class LpCertificate:
    """Claimed optimum of the type-accounting program.

    x maps a valuation type (i, j) - an agent holding i big and j small goods
    - to the fraction of agents of that type; alpha is the fraction of big
    goods handed out as small. Entries are exact rationals; feasibility is
    the checker's verdict, not a construction invariant.
    """

    alpha: Fraction
    x: Mapping[tuple[int, int], Fraction]

    def __post_init__(self) -> None:
        entries = {(int(i), int(j)): Fraction(v) for (i, j), v in self.x.items()}
        for i, j in entries:
            if not (0 <= i <= 4 and 0 <= j <= 6):
                raise ValueError(f"valuation type ({i}, {j}) outside the 5x7 grid")
        object.__setattr__(self, "x", entries)
        object.__setattr__(self, "alpha", Fraction(self.alpha))


@dataclass(frozen=True)
class LpReport:
    feasible: bool
    slacks: Mapping[str, Fraction]
    tight: tuple[str, ...]
    objective: float


def verify_apx_lp(cert: LpCertificate, eps: Fraction = Fraction(0)) -> LpReport:
    """Check a certificate against the type-accounting constraints with exact rationals.

    Constraints (slack = right side minus left side):
      mass          sum of x == 1 (equality, slack must be exactly 0)
      type4         share of agents with four big goods <= (53/54 + eps) / 3
      big_supply    big goods used, sum i * x_ij <= 4/3 * (1 - alpha)
      small_supply  small goods used, sum j * x_ij <= (10 + 5 eps) / 3 + 4/3 * alpha
      bounds        every x_ij >= 0 and 0 <= alpha <= 1
    The objective is sum x_ij * ln(i + 4j/5), the log of the geometric-mean
    value an allocation of these types achieves; 4 / exp(objective) is the
    approximation factor the certificate implies. It is a float: terms that
    fit a float are summed in floats, and terms past the float range are
    summed exactly (each weight times the float log) and added as one float,
    or give the infinity of their sign if that sum is past the float range.
    """
    eps = Fraction(eps)
    total = sum(cert.x.values(), Fraction(0))
    row4 = sum(v for (i, _), v in cert.x.items() if i == 4)
    big_used = sum(i * v for (i, _), v in cert.x.items())
    small_used = sum(j * v for (_, j), v in cert.x.items())
    slacks = {
        "mass": 1 - total,
        "type4": Fraction(1, 3) * (Fraction(53, 54) + eps) - row4,
        "big_supply": Fraction(4, 3) * (1 - cert.alpha) - big_used,
        "small_supply": Fraction(1, 3) * (10 + 5 * eps) + Fraction(4, 3) * cert.alpha - small_used,
    }
    feasible = (
        slacks["mass"] == 0
        and min(slacks.values()) >= 0
        and all(v >= 0 for v in cert.x.values())
        and 0 <= cert.alpha <= 1
    )
    tight = tuple(name for name, slack in slacks.items() if name != "mass" and slack == 0)
    objective = 0.0
    overflow = Fraction(0)  # the terms past the float range, exact but for the float logs
    for (i, j), v in sorted(cert.x.items()):
        if v == 0:
            continue
        utility = Fraction(5 * i + 4 * j, 5)
        if utility == 0:
            objective = -math.inf
            break
        log_utility = math.log(utility)
        try:
            term = float(v) * log_utility
        except OverflowError:  # a weight past the float range
            term = math.inf
        if math.isinf(term):
            overflow += v * Fraction(log_utility)
        else:
            objective += term
    try:
        objective += float(overflow)
    except OverflowError:
        objective = math.inf if overflow > 0 else -math.inf
    return LpReport(feasible, slacks, tight, objective)


def optimal_certificate() -> LpCertificate:
    """The known optimal vertex of the type-accounting program at eps = 0.

    Ties the three supply constraints: objective (ln 4.2 + ln 3.8 + 160 ln 4)
    / 162, implied factor (16/15.96)^(1/162).
    """
    return LpCertificate(
        alpha=Fraction(0),
        x={
            (4, 0): Fraction(53, 162),
            (1, 4): Fraction(1, 162),
            (3, 1): Fraction(1, 162),
            (0, 5): Fraction(107, 162),
        },
    )


def hardness_constants() -> dict[str, float]:
    """Bounds bracketing the solver: guarantee just over 1.0344, gap just over 1.0000154."""
    approx_upper = 24 / 29 * math.exp(110 / 493)
    log_bound = (math.log(4.2) + math.log(3.8) + 160 * math.log(4.0)) / 162
    apx_lower = 4.0 / math.exp(log_bound)
    return {"approx_upper": approx_upper, "apx_lower": apx_lower}


def parse_pdm(text: str) -> PdmInstance:
    (dim, n, m), body = _read_header(text, PDM_MAGIC, "dim n m")
    edges = _records(body, m, "edge")
    try:
        return PdmInstance(dim, n, edges)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_pdm(g: PdmInstance) -> str:
    return _write_records(PDM_MAGIC, (g.dim, g.n, g.m), g.edges)


def parse_certificate(text: str) -> LpCertificate:
    lines = _read_header(text, CERT_MAGIC)[1].splitlines()
    if not lines or not lines[0].startswith("alpha "):
        raise ParseError("missing 'alpha <value>' on the second line")
    try:
        _, alpha_text = lines[0].split()
        alpha = parse_rational(alpha_text)
    except ValueError as exc:
        raise ParseError(f"bad alpha line {lines[0]!r}") from exc
    x: dict[tuple[int, int], Fraction] = {}
    for line in lines[1:]:
        if not line.strip():
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(f"certificate entries need 'i j value', got {line!r}")
        try:
            i, j, value = int(parts[0]), int(parts[1]), parse_rational(parts[2])
        except ValueError as exc:
            raise ParseError(f"bad certificate entry {line!r}") from exc
        if (i, j) in x:
            raise ParseError(f"duplicate certificate entry for type ({i}, {j})")
        x[(i, j)] = value
    try:
        return LpCertificate(alpha, x)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_certificate(cert: LpCertificate) -> str:
    entries = ((i, j, v) for (i, j), v in sorted(cert.x.items()))
    return _write_records(CERT_MAGIC, ("alpha", cert.alpha), entries)
