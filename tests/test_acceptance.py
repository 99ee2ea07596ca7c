"""Acceptance gate: seven release criteria, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -rP` to see the criterion lines
for passing runs too. Every suite here is seeded, so reruns are identical.
"""

import itertools
import math
import time
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache

from nsw2v import (
    Instance,
    PdmInstance,
    build_trans_graph,
    classify_paths,
    cli,
    closest_optimum,
    coprime_solutions,
    exact_optimum,
    find_perfect_matching,
    hardness_constants,
    matching_to_allocation,
    nsw_product,
    optimal_certificate,
    parse_instance,
    ratio,
    reduce_pdm,
    solve_dichotomous,
    state_count,
    two_value_approx,
    verify_apx_lp,
)
from nsw2v.oracle import DEFAULT_BUDGET
from nsw2v.prng import random_instance, splitmix64

from _fixtures import bb_reachable_agent_pairs, best_sorted_loads, max_matching_size

EXAMPLE1 = "nsw2v 1\n2 5 2 3\n0 1\n0 1\n"


@contextmanager
def gate(number: int, label: str):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        print(f"criterion {number} {label}: {outcome}")


# ------------------------------------------------------------------ the suites

def _pattern_instances(q: int):
    # every assignment of big-sets to goods for two agents, m = 2..5
    for m in range(2, 6):
        for masks in itertools.product(range(4), repeat=m):
            big_sets = tuple(
                frozenset(g for g, mask in enumerate(masks) if mask >> i & 1)
                for i in range(2)
            )
            yield Instance(2, m, 1, q, big_sets)


@lru_cache(maxsize=None)
def unit_p_suite() -> tuple[Instance, ...]:
    """p = 1 shapes: exhaustive patterns for n=2, m<=5; seeded random otherwise."""
    out = []
    for q in (2, 3, 4, 5):
        out.extend(_pattern_instances(q))
    stream = splitmix64(0x51)
    for q in (2, 3, 4, 5):
        for _ in range(150):
            prob = Fraction(1 + next(stream) % 3, 4)
            out.append(random_instance(2, 6, 1, q, prob, next(stream)))
        for m in (3, 4, 5, 6):
            for _ in range(100):
                prob = Fraction(1 + next(stream) % 3, 4)
                out.append(random_instance(3, m, 1, q, prob, next(stream)))
    return tuple(out)


@lru_cache(maxsize=None)
def approx_suite() -> tuple[Instance, ...]:
    """Seeded random instances over every coprime pair 1 <= p < q <= 9."""
    pairs = [
        (p, q) for q in range(2, 10) for p in range(1, q) if math.gcd(p, q) == 1
    ]
    assert len(pairs) == 27
    out = []
    stream = splitmix64(0xA9)
    for p, q in pairs:
        for _ in range(190):
            n = 2 + next(stream) % 3
            m = n + next(stream) % (9 - n)
            prob = Fraction(1 + next(stream) % 3, 4)
            out.append(random_instance(n, m, p, q, prob, next(stream)))
    return tuple(out)


def _mask_instance(n: int, masks: tuple[int, ...]) -> Instance:
    big_sets = tuple(
        frozenset(g for g, mask in enumerate(masks) if mask >> i & 1)
        for i in range(n)
    )
    return Instance(n, len(masks), 0, 1, big_sets)


@lru_cache(maxsize=None)
def lorenz_suite() -> tuple[Instance, ...]:
    """Fixed pattern family plus 1000 seeded draws, all with n <= 4, |B| <= 7."""
    out = []
    for n, top in ((2, 4), (3, 3), (4, 2)):
        for b in range(1, top + 1):
            for masks in itertools.product(range(1, 2 ** n), repeat=b):
                out.append(_mask_instance(n, masks))
    stream = splitmix64(0x10E)
    for _ in range(1000):
        n = 1 + next(stream) % 4
        b = 1 + next(stream) % 7
        masks = tuple(1 + next(stream) % (2 ** n - 1) for _ in range(b))
        out.append(_mask_instance(n, masks))
    return tuple(out)


# ---------------------------------------------------------------- the criteria

def test_criterion_1_worked_example(tmp_path, capsys):
    with gate(1, "worked example"):
        t0 = time.perf_counter()
        path = tmp_path / "example1.nsw"
        path.write_text(EXAMPLE1, encoding="utf-8")
        assert cli.main(["solve", str(path)]) == 0
        assert cli.main(["exact", str(path)]) == 0
        assert cli.main(["ratio", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "product=35 nsw_scaled=1.972027"
        assert out[1] == "product=36 nsw_scaled=2.000000"
        assert out[3].endswith(",2,5,2,3,35,36,1.014185")
        report = ratio(parse_instance(EXAMPLE1))
        assert abs(report.ratio_float - 6 / math.sqrt(35)) < 1e-9
        assert time.perf_counter() - t0 < 1.0


def test_criterion_2_unit_small_value_optimality():
    with gate(2, "unit small value optimality"):
        t0 = time.perf_counter()
        suite = unit_p_suite()
        assert len(suite) >= 5440 + 2000
        for inst in suite:
            got = nsw_product(inst, two_value_approx(inst)).product
            best, _ = exact_optimum(inst)
            assert got == best.product
        assert time.perf_counter() - t0 < 120


def test_criterion_3_approximation_bound():
    with gate(3, "approximation bound"):
        t0 = time.perf_counter()
        suite = approx_suite()
        assert len(suite) >= 5000
        for inst in suite:
            report = ratio(inst)
            assert report.ratio_float >= 1.0
            assert report.ratio_float <= 1.0345
        constants = hardness_constants()
        assert 1.0344 < constants["approx_upper"] < 1.0345
        assert 1.0000154 < constants["apx_lower"] < 1.0000155
        assert time.perf_counter() - t0 < 300


def test_criterion_4_transformation_graph_structure():
    with gate(4, "transformation graph structure"):
        for inst in unit_p_suite() + approx_suite():
            if state_count(inst) > DEFAULT_BUDGET:
                continue
            phase1 = solve_dichotomous(inst)
            optimum = closest_optimum(inst, phase1)
            graph = build_trans_graph(inst, optimum, phase1)
            report = classify_paths(graph)
            assert not report.ss
            assert not report.bs
            assert not report.balancing_cycles
            b = phase1.loads
            b_star = [
                sum(1 for g in optimum.bundles[i] if g in inst.big_sets[i])
                for i in range(inst.n)
            ]
            pairs = bb_reachable_agent_pairs(graph)
            for i in range(inst.n):
                if b_star[i] > b[i]:
                    assert any(
                        b_star[j] < b[j] and (i, j) in pairs
                        for j in range(inst.n)
                    )


def test_criterion_5_matching_reduction():
    with gate(5, "matching reduction"):
        t0 = time.perf_counter()
        shapes = [(n, m) for n in (1, 2, 3) for m in range(n, 6)]
        stream = splitmix64(0xD3)
        kept = matched = unmatched = 0
        for candidate in range(2000):
            if kept >= 60:
                break
            n, m = shapes[candidate % len(shapes)]
            q = (4, 5, 7)[candidate % 3]
            edges = tuple(
                tuple(next(stream) % n for _ in range(3)) for _ in range(m)
            )
            graph = PdmInstance(3, n, edges)
            inst = reduce_pdm(graph, q)
            if state_count(inst, group_identical=True) > 1_000_000:
                continue
            kept += 1
            # scaled welfare 3 means the product is exactly (3q)^agents
            target = (3 * q) ** graph.m
            best, _ = exact_optimum(inst, budget=state_count(inst))
            pm = find_perfect_matching(graph)
            if pm is not None:
                matched += 1
                assert best.product == target
                attained = matching_to_allocation(graph, pm, inst)
                assert nsw_product(inst, attained).product == target
            else:
                unmatched += 1
                assert best.product < target
        assert kept >= 50
        assert matched > 0 and unmatched > 0
        for q in range(2, 31):
            for p in range(1, q):
                if math.gcd(p, q) == 1:
                    assert coprime_solutions(p, q) == {(p, 0), (0, q)}
        assert time.perf_counter() - t0 < 120


def test_criterion_6_type_program_certificate():
    with gate(6, "type program certificate"):
        report = verify_apx_lp(optimal_certificate())
        assert report.feasible
        assert report.slacks["mass"] == 0
        assert report.tight == ("type4", "big_supply", "small_supply")
        expected = (math.log(4.2) + math.log(3.8) + 160 * math.log(4.0)) / 162
        assert abs(report.objective - expected) < 1e-12
        factor = 4.0 / math.exp(report.objective)
        assert abs(factor - (16 / 15.96) ** (1 / 162)) < 1e-9


def test_criterion_7_dichotomous_balance():
    with gate(7, "dichotomous balance"):
        t0 = time.perf_counter()
        for inst in lorenz_suite():
            result = solve_dichotomous(inst)
            loads = tuple(sorted(result.loads, reverse=True))
            assert loads == best_sorted_loads(inst)
            covered = sum(1 for load in result.loads if load)
            assert covered == max_matching_size(inst)
        assert time.perf_counter() - t0 < 60
