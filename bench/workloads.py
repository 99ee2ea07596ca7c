"""The benchmark's two workloads: their seeded inputs, their operations, their traces and their checks.

An operation is what a user runs once: `nsw2v solve FILE --out ALLOC` or
`nsw2v ratio FILE` through `cli.main` in this process, or the diagnostic
flow `closest_optimum(inst, solve_dichotomous(inst))` followed by
`build_trans_graph` and `classify_paths`. A round is the workload's fixed list
of operations; every run repeats whole rounds.

The traced form of an operation runs the same thing once more as separate
calls into the public functions of each layer, timing each call, so the
per-layer figures come from outside the program.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

from nsw2v import (
    Allocation,
    Instance,
    balance_loads,
    build_trans_graph,
    classify_paths,
    cli,
    closest_optimum,
    exact_optimum,
    initial_nonwasteful,
    nsw_product,
    parse_instance,
    phase2_assign_small,
    phase3_local_search,
    serialize_allocation,
    serialize_instance,
    solve_dichotomous,
    state_count,
    validate_allocation,
)
from nsw2v.prng import random_instance
from nsw2v.reductions import PdmInstance, reduce_gap4dm

import checks

# keywords of exact_optimum; the grouped and pooled reference figures need theirs
_EXACT_KEYWORDS = tuple(inspect.signature(exact_optimum).parameters)

# every coprime pair with 1 <= p < q <= 9, p = 1 included
COPRIME_PAIRS = [(p, q) for q in range(2, 10) for p in range(1, q) if math.gcd(p, q) == 1]

# oracle shapes (n, m) in three cost classes: about 16k states, 6^6 = 46656, and 59k to 78k.
# All middle-class operations share one shape, so the median is that shape's cost.
ORACLE_SHAPES = [(2, 14), (6, 6), (3, 10), (4, 7), (6, 6), (4, 8), (3, 9), (6, 6), (5, 7)]

# two instances (kind, p, q, n, m) per coprime pair, one for `ratio` and one for the diagnostic
# flow. The shapes rotate, so every round holds each cheap and each dear shape six times and
# (6, 6) eighteen times, and each kind of operation gets every shape a third of its turns.
ORACLE_LADDER = [
    (("ratio", "explain")[k % 2], p, q, *ORACLE_SHAPES[k % len(ORACLE_SHAPES)])
    for k, (p, q) in enumerate(pair for pair in COPRIME_PAIRS for _ in range(2))
]


class Tracer:
    """Spans kept in memory: (name, operation index, start, end, parent name)."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, int, float, float, str | None]] = []
        self.counts: dict[str, int] = {}
        self.op = -1
        self._parent: str | None = None

    def call(self, name: str, fn: Callable, *args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.spans.append((name, self.op, start, perf_counter(), self._parent))
        return result

    @contextlib.contextmanager
    def within(self, name: str):
        start = perf_counter()
        outer, self._parent = self._parent, name
        try:
            yield
        finally:
            self._parent = outer
            self.spans.append((name, self.op, start, perf_counter(), outer))

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount


def plain_call(name: str, fn: Callable, *args, **kwargs):
    """Tracer.call without the timing, for untraced runs."""
    return fn(*args, **kwargs)


@dataclass
class Item:
    """One operation's input: an instance file, where its allocation goes, and which operation runs."""

    path: str
    out: str
    kind: str = "solve"  # "solve", "ratio" or "explain"
    planted: bool = False


@dataclass
class Workload:
    name: str
    build: Callable  # (rng, workdir, call) -> list[Item]
    run: Callable  # (item) -> output; the item's kind picks the operation
    trace: Callable  # (item, tracer) -> output
    check: Callable  # (item, output) -> None; raises checks.CheckError
    warm: int  # operations run once in set-up, from the start of the round
    min_rounds: int  # rounds every untraced run makes, so the tail has ten operations beyond it


def _write(workdir: Path, index: int, inst: Instance, kind: str = "solve", planted: bool = False) -> Item:
    path = workdir / f"i{index:03d}.nsw"
    path.write_text(serialize_instance(inst), encoding="utf-8")
    return Item(str(path), str(workdir / f"i{index:03d}.alloc"), kind, planted)


# ------------------------------------------------------------------ inputs

def planted_gap4dm(rng: random.Random, size: int, call=plain_call) -> Instance:
    """The paper's (4, 5) hard family: 4-partite hypergraph, 3*size edges, a planted perfect matching.

    The matching is four random permutations; the other 2*size edges are
    uniform. reduce_gap4dm at target size `size` then has optimum exactly
    20^(3*size).
    """
    perms = [rng.sample(range(size), size) for _ in range(4)]
    edges = [tuple(perm[i] for perm in perms) for i in range(size)]
    edges += [tuple(rng.randrange(size) for _ in range(4)) for _ in range(2 * size)]
    rng.shuffle(edges)
    return call("reductions.reduce", reduce_gap4dm, PdmInstance(4, size, tuple(edges)), size)


# solve-balance ladder: (planted gap-4DM size) or (n, m, p, q, big_prob), count per round.
# The small planted instances hold the median and the six size-60 ones the tail. Six of one
# size, not fewer larger ones, so no single instance's seed-dependent cost sets a round's time;
# four rounds at least put the tail (p91) amid the six, not at the cheapest of them.
BALANCE_LADDER = [
    (("gap", 20), 20),
    (("rnd", 100, 400, 4, 5, Fraction(1, 25)), 1),
    (("rnd", 100, 400, 2, 3, Fraction(1, 25)), 1),
    (("rnd", 100, 400, 1, 2, Fraction(1, 25)), 1),
    (("rnd", 100, 400, 3, 7, Fraction(1, 25)), 1),
    (("gap", 60), 6),
]


def build_balance(rng, workdir, call, ladder=BALANCE_LADDER):
    items = []
    for spec, count in ladder:
        for _ in range(count):
            if spec[0] == "gap":
                inst = planted_gap4dm(rng, spec[1], call)
            else:
                _, n, m, p, q, prob = spec
                inst = call("prng.generate", random_instance, n, m, p, q, prob, rng.getrandbits(64))
            items.append(_write(workdir, len(items), inst, planted=spec[0] == "gap"))
    return items


def build_oracle(rng, workdir, call, ladder=ORACLE_LADDER):
    items = []
    for kind, p, q, n, m in ladder:
        prob = Fraction(1 + rng.randrange(3), 4)
        inst = call("prng.generate", random_instance, n, m, p, q, prob, rng.getrandbits(64))
        items.append(_write(workdir, len(items), inst, kind))
    return items


# -------------------------------------------------------------- operations

def _cli(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"nsw2v {' '.join(argv)} exited with {code}")
    return buf.getvalue()


def run_solve(item: Item) -> str:
    return _cli(["solve", item.path, "--out", item.out])


def run_ratio(item: Item) -> str:
    return _cli(["ratio", item.path])


def run_explain(item: Item):
    inst = parse_instance(Path(item.path).read_text(encoding="utf-8"))
    reference = solve_dichotomous(inst)
    optimum = closest_optimum(inst, reference)
    graph = build_trans_graph(inst, optimum, reference)
    return reference.bundles, optimum.bundles, graph, classify_paths(graph)


def run_oracle(item: Item):
    return (run_ratio if item.kind == "ratio" else run_explain)(item)


def _moved(before, after) -> int:
    """Goods whose holder differs between two bundle tuples that hold the same goods."""
    return sum(len(a - b) for a, b in zip(after, before))


def _traced_solver(inst: Instance, t: Tracer) -> Allocation:
    """two_value_approx as its public phases, each timed."""
    seed = t.call("dichotomous.seed", initial_nonwasteful, inst)
    big = t.call("dichotomous.balance", balance_loads, inst, seed)
    full = t.call("balance.phase2", phase2_assign_small, inst, Allocation(big.bundles))
    final = t.call("balance.phase3", phase3_local_search, inst, full, strict_properties=True)
    t.count("dichotomous.goods_moved", _moved(seed.bundles, big.bundles))
    t.count("balance.small_goods", sum(map(len, full.bundles)) - sum(map(len, big.bundles)))
    t.count("balance.phase3_moves", _moved(full.bundles, final.bundles))
    return final


def trace_solve(item: Item, t: Tracer) -> str:
    out = t.call("op", run_solve, item)
    inst = t.call("core.parse", parse_instance, Path(item.path).read_text(encoding="utf-8"))
    final = _traced_solver(inst, t)
    t.call("core.product", nsw_product, inst, final)
    text = t.call("core.serialize", serialize_allocation, final, inst.m)
    t.call("core.validate", validate_allocation, inst, final)
    if text != Path(item.out).read_text(encoding="utf-8"):
        raise checks.CheckError(f"{item.path}: the phases called one by one disagree with `solve`")
    return out


def trace_ratio(item: Item, t: Tracer) -> str:
    out = t.call("op", run_ratio, item)
    inst = t.call("core.parse", parse_instance, Path(item.path).read_text(encoding="utf-8"))
    with t.within("oracle.solver"):
        final = _traced_solver(inst, t)
    t.call("core.product", nsw_product, inst, final)
    best, _ = t.call("oracle.exact", exact_optimum, inst)
    t.call("core.validate", validate_allocation, inst, final)
    t.count("oracle.states", state_count(inst))
    # reference figures for the grouped and pooled enumerations; not part of the operation
    for name, kwargs in (("oracle.exact_grouped", {"group_identical": True}),
                         ("oracle.exact_pool2", {"workers": 2})):
        if not set(kwargs) <= set(_EXACT_KEYWORDS):
            continue
        other, _ = t.call(name, exact_optimum, inst, **kwargs)
        if other.product != best.product:
            raise checks.CheckError(f"{item.path}: {name} disagrees with exact_optimum")
    return out


def trace_explain(item: Item, t: Tracer):
    out = t.call("op", run_explain, item)
    inst = t.call("core.parse", parse_instance, Path(item.path).read_text(encoding="utf-8"))
    seed = t.call("dichotomous.seed", initial_nonwasteful, inst)
    reference = t.call("dichotomous.balance", balance_loads, inst, seed)
    t.count("dichotomous.goods_moved", _moved(seed.bundles, reference.bundles))
    optimum = t.call("oracle.closest", closest_optimum, inst, reference)
    with t.within("oracle.diagnose"):
        graph = build_trans_graph(inst, optimum, reference)
        classify_paths(graph)
    t.call("core.validate", validate_allocation, inst, optimum)
    t.count("oracle.states", state_count(inst))
    if optimum.bundles != out[1]:
        raise checks.CheckError(f"{item.path}: the layers called one by one disagree with the flow")
    return out


def trace_oracle(item: Item, t: Tracer):
    return (trace_ratio if item.kind == "ratio" else trace_explain)(item, t)


# ------------------------------------------------------------------ checks

def _instance(item: Item) -> checks.Inst:
    return checks.read_instance(Path(item.path).read_text(encoding="utf-8"))


def check_solve(item: Item, stdout: str) -> None:
    inst = _instance(item)
    product = checks.check_solver_output(inst, Path(item.out).read_text(encoding="utf-8"), stdout)
    if item.planted:
        checks.planted_optimum(inst)
        checks.check_planted_bound(inst, product)


def check_ratio(item: Item, stdout: str) -> None:
    inst = _instance(item)
    header, row = stdout.splitlines()
    if header != "instance,n,m,p,q,alg_product,opt_product,ratio":
        raise checks.CheckError(f"unexpected ratio header {header!r}")
    optimum, _ = checks.best_product_and_overlap(inst)
    checks.check_ratio_row(inst, row, optimum)


def check_explain(item: Item, output) -> None:
    """The closest optimum is an optimum, overlaps the phase-1 reference most, and leaves no bad path."""
    ref_bundles, opt_bundles, graph, report = output
    inst = _instance(item)
    ref_owner = checks.owners_of(ref_bundles, inst.m)
    opt_owner = checks.owners_of(opt_bundles, inst.m)
    checks.check_partition([sorted(b) for b in opt_bundles], inst.m)
    best, overlap = checks.best_product_and_overlap(inst, ref_owner)
    product = math.prod(checks.values_of(inst, opt_bundles))
    if product != best:
        raise checks.CheckError(f"closest optimum has product {product}, the optimum is {best}")
    got = sum(1 for g in range(inst.m) if opt_owner[g] == ref_owner[g] >= 0)
    if got != overlap:
        raise checks.CheckError(f"closest optimum overlaps the reference in {got} goods, {overlap} possible")
    edges = checks.trans_edges(inst, opt_owner, ref_owner)
    if edges != [(e.src, e.dst, e.good, e.src_big, e.dst_big) for e in graph.edges]:
        raise checks.CheckError("build_trans_graph edges differ from the edges derived here")
    kinds, cycle = checks.path_kinds(edges)
    if "SS" in kinds or "BS" in kinds or cycle:
        raise checks.CheckError(f"transformation graph has paths {sorted(kinds)}, cycle={cycle}")
    if (report.ss, report.bs, report.balancing_cycles) != (False, False, False):
        raise checks.CheckError(f"classify_paths reports {report}")


def check_oracle(item: Item, output) -> None:
    (check_ratio if item.kind == "ratio" else check_explain)(item, output)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("solve-balance", build_balance, run_solve, trace_solve, check_solve, warm=3, min_rounds=4),
        Workload("oracle", build_oracle, run_oracle, trace_oracle, check_oracle, warm=12, min_rounds=2),
    )
}
