"""Tests for the benchmark's own checkers and workloads: python3 -m pytest bench"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

import run

run.load_program()

import checks  # noqa: E402
import workloads  # noqa: E402

EXAMPLE1 = "nsw2v 1\n2 5 2 3\n0 1\n0 1\n"

TINY = {
    "solve-balance": [(("gap", 3), 1), (("rnd", 6, 12, 2, 3, Fraction(1, 3)), 2)],
    "oracle": [("ratio", 1, 2, 2, 5), ("explain", 1, 3, 2, 5), ("ratio", 4, 5, 3, 4),
               ("explain", 4, 5, 3, 4), ("ratio", 2, 7, 3, 5), ("explain", 5, 9, 3, 5)],
}


def test_independent_optimum_reproduces_the_readme_example(tmp_path):
    inst = checks.read_instance(EXAMPLE1)
    assert checks.best_product_and_overlap(inst) == (36, 0)
    path = tmp_path / "example1.nsw"
    path.write_text(EXAMPLE1)
    item = workloads.Item(str(path), str(tmp_path / "example1.alloc"))
    stdout = workloads.run_solve(item)
    assert checks.check_solver_output(inst, Path(item.out).read_text(), stdout) == 35
    checks.check_ratio_row(inst, workloads.run_ratio(item).splitlines()[1], 36)


def test_planted_gap4dm_optimum_agrees_with_brute_force():
    inst = checks.read_instance(
        workloads.serialize_instance(workloads.planted_gap4dm(random.Random(5), 1))
    )
    vertex = sorted(set().union(*inst.big))
    dummies = inst.m - len(vertex)
    best = 0
    # dummies are small for everyone, so only how many each agent gets matters
    for owners in itertools.product(range(inst.n), repeat=len(vertex)):
        base = [0] * inst.n
        for g, a in zip(vertex, owners):
            base[a] += inst.value(a, g)
        for cut in itertools.combinations(range(dummies + inst.n - 1), inst.n - 1):
            counts = [b - a - 1 for a, b in zip((-1,) + cut, cut + (dummies + inst.n - 1,))]
            best = max(best, math.prod(v + inst.p * c for v, c in zip(base, counts)))
    assert best == checks.planted_optimum(inst) == 20 ** inst.n
    assert checks.best_product_and_overlap(inst)[0] == best


def test_partition_checker_rejects_a_duplicated_or_dropped_good():
    checks.check_partition([[0, 2], [1]], 3)
    with pytest.raises(checks.CheckError, match="twice"):
        checks.check_partition([[0, 1], [1, 2]], 3)
    with pytest.raises(checks.CheckError, match="nobody"):
        checks.check_partition([[0], [2]], 3)
    with pytest.raises(checks.CheckError, match="outside"):
        checks.check_partition([[0, 1, 2], [3]], 3)


def test_solver_checks_catch_a_wrong_product_an_improving_move_and_a_weak_planted_result():
    inst = checks.Inst(2, 4, 1, 2, (frozenset(range(4)), frozenset()))
    with pytest.raises(checks.CheckError, match="raises the product"):
        checks.check_solver_output(inst, "alloc 1\n2 4\n0 1 2\n3\n", "product=6 nsw_scaled=1")
    with pytest.raises(checks.CheckError, match="recomputed"):
        checks.check_solver_output(inst, "alloc 1\n2 4\n0 1\n2 3\n", "product=5 nsw_scaled=1")
    planted = checks.read_instance(
        workloads.serialize_instance(workloads.planted_gap4dm(random.Random(1), 2))
    )
    checks.check_planted_bound(planted, 20 ** planted.n)
    with pytest.raises(checks.CheckError, match="1.0345"):
        checks.check_planted_bound(planted, 19 ** planted.n)


def test_path_search_finds_the_paths_the_diagnostics_must_not_have():
    assert checks.path_kinds([(0, 1, 0, False, False)]) == ({"SS"}, False)
    kinds, cycle = checks.path_kinds([(0, 1, 0, True, True), (1, 0, 1, True, True)])
    assert kinds == {"BB"} and cycle
    kinds, cycle = checks.path_kinds([(0, 1, 0, True, True), (1, 2, 1, False, False)])
    assert kinds == {"BB", "SS"} and not cycle


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_each_workload_runs_to_its_end_on_a_tiny_input(name, trace):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    outcome = run.run(name, seed=3, seconds=0, trace=trace, ladder=TINY[name])
    result = outcome["result"]
    assert result["correct"] and result["failed"] == 0
    rounds = 1 if trace else workloads.WORKLOADS[name].min_rounds
    assert outcome["info"]["rounds"] == rounds
    assert result["attempted"] == rounds * outcome["info"]["ops_per_round"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in wanted}
