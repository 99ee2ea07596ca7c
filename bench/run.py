"""Benchmark for nsw2v: one workload per run, closed loop, one thread.

    python3 bench/run.py --workload solve-balance [--seed 1] [--seconds 55] [--trace 0]

The run builds the workload's inputs from the seed and writes them to files
(set-up, done five times; the median counts), then repeats whole rounds of
the workload's operations, each starting when the last returns, until
--seconds have passed and at least the workload's minimum of rounds is done.
Every output is then checked by code that does not use nsw2v. With
--trace 1 each operation is also run as separate timed calls into each
layer's public functions, and the per-layer figures are printed instead of
the end-to-end ones. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
SETUPS = 5

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"), ("peak_rss_mb", "MB")]

# layer spans whose sum, taken from the operation time, leaves cli.rest_ms
PIPELINE = ["core.parse", "dichotomous.seed", "dichotomous.balance", "balance.phase2", "balance.phase3",
            "oracle.solver", "core.product", "core.serialize", "oracle.exact", "oracle.closest",
            "oracle.diagnose"]
# timed per operation but outside the operation's own work
REFERENCE = ["core.validate", "oracle.exact_grouped", "oracle.exact_pool2"]
# timed per set-up
SETUP_LAYERS = ["prng.generate", "reductions.reduce"]
COUNTS = ["dichotomous.goods_moved", "balance.small_goods", "balance.phase3_moves", "oracle.states"]


def load_program():
    """Import nsw2v from this checkout's src/, and nowhere else."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import nsw2v
    except ImportError as exc:
        sys.exit(f"error: cannot import nsw2v from {src}: {exc}")
    if src not in Path(nsw2v.__file__).resolve().parents:
        sys.exit(f"error: nsw2v was imported from {nsw2v.__file__}, not from {src}")


def tail_percentile(min_ops: int) -> int:
    """Highest whole percentile that leaves at least ten of min_ops operations beyond it."""
    return (100 * (min_ops - 10)) // min_ops


def nearest_rank(values: list[float], pct: int) -> float:
    ordered = sorted(values)
    rank = -(-pct * len(ordered) // 100)  # ceil
    return ordered[max(rank, 1) - 1]


def run(workload: str, seed: int, seconds: float, trace: bool, ladder=None) -> dict:
    """Run one workload and return the result object; `ladder` replaces the inputs' sizes (tests)."""
    import checks
    import workloads as wl

    w = wl.WORKLOADS[workload]
    tracer = wl.Tracer() if trace else None
    call = tracer.call if tracer else wl.plain_call
    build = w.build if ladder is None else (lambda rng, d, c: w.build(rng, d, c, ladder))
    op = (lambda item: w.trace(item, tracer)) if trace else w.run
    workdir = OUT / f"work-{workload}-{os.getpid()}"

    setup_times = []
    for k in range(SETUPS):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        if tracer:
            tracer.op = -1 - k
        start = perf_counter()
        items = build(random.Random(f"{workload}:{seed}"), workdir, call)
        for item in items[:w.warm]:
            try:
                w.run(item)
            except Exception:  # counted when the round runs it
                pass
        setup_times.append(perf_counter() - start)

    latencies: list[float] = []
    rounds: list[float] = []
    outputs: list = [None] * len(items)
    failed = 0
    errors: list[str] = []
    min_rounds = 1 if trace else w.min_rounds
    start = perf_counter()
    while len(rounds) < min_rounds or perf_counter() - start < seconds:
        round_start = perf_counter()
        for idx, item in enumerate(items):
            if tracer:
                tracer.op = len(latencies)
            t0 = perf_counter()
            try:
                out = op(item)
            except checks.CheckError as exc:
                errors.append(f"{item.path}: {exc}")
                out = None
            except Exception:
                failed += 1
                errors.append(f"{item.path}: operation failed\n{traceback.format_exc()}")
                out = None
            latencies.append(perf_counter() - t0)
            if out is not None:
                if outputs[idx] is None:
                    outputs[idx] = out
                elif outputs[idx] != out:
                    errors.append(f"{item.path}: output differs from an earlier round")
        rounds.append(perf_counter() - round_start)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    for item, out in zip(items, outputs):
        if out is None:
            continue
        try:
            w.check(item, out)
        except Exception as exc:  # a checker that cannot read the output is a failed check too
            errors.append(f"{item.path}: {type(exc).__name__}: {exc}")
    shutil.rmtree(workdir, ignore_errors=True)

    pct = tail_percentile(len(items) * w.min_rounds)
    info = {"workload": workload, "seed": seed, "rounds": len(rounds), "ops_per_round": len(items),
            "tail_percentile": pct, "python": sys.version.split()[0], "nproc": os.cpu_count()}
    if trace:
        metrics, info["op_mean_ms"] = layer_metrics(tracer, len(latencies), len(rounds))
        # the operation alone is op_mean_ms; with its layers called one by one after it:
        info["traced_op_mean_ms"] = statistics.fmean(latencies) * 1000
    else:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(rounds),
            "op_p50_ms": statistics.median(latencies) * 1000,
            "op_tail_ms": nearest_rank(latencies, pct) * 1000,
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        info["op_mean_ms"] = statistics.fmean(latencies) * 1000
    for message in errors:
        print(f"check failed: {message}", file=sys.stderr)
    result = {"correct": not errors, "attempted": len(latencies), "failed": failed, "metrics": metrics}
    return {"info": info, "result": result, "spans": tracer.spans if tracer else None}


def layer_metrics(tracer, ops: int, rounds: int) -> tuple[dict, float]:
    """Per-layer metrics and the mean operation time in milliseconds.

    Layer times are mean milliseconds per operation (per set-up for the
    generators); counts are per round.
    """
    per_op: dict[str, float] = {}
    per_setup: dict[tuple[str, int], float] = {}
    for name, op, start, end, _parent in tracer.spans:
        if op >= 0:
            per_op[name] = per_op.get(name, 0.0) + (end - start)
        else:
            per_setup[name, op] = per_setup.get((name, op), 0.0) + (end - start)
    ms = {name: 1000 * per_op.get(name, 0.0) / ops for name in PIPELINE + REFERENCE + ["op"]}
    top = {name for name, _, _, _, parent in tracer.spans if parent is None}
    ms["cli.rest"] = ms["op"] - sum(ms[name] for name in PIPELINE if name in top)
    for name in SETUP_LAYERS:
        ms[name] = 1000 * statistics.median(per_setup.get((name, -1 - k), 0.0) for k in range(SETUPS))
    metrics = {f"{name}_ms": {"value": ms[name], "unit": "ms"} for name in PIPELINE + REFERENCE + SETUP_LAYERS}
    metrics["cli.rest_ms"] = {"value": ms["cli.rest"], "unit": "ms"}
    for name in COUNTS:
        metrics[name] = {"value": tracer.counts.get(name, 0) // rounds, "unit": "count"}
    return metrics, ms["op"]


def main(argv: list[str] | None = None) -> int:
    load_program()
    import workloads as wl

    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1, help="workload seed (default 1)")
    parser.add_argument("--seconds", type=float, default=55, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    info, result = outcome["info"], outcome["result"]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"result-{stem}.json").write_text(json.dumps({**info, **result}, indent=1) + "\n")
    if outcome["spans"] is not None:
        spans = [dict(zip(("name", "op", "start", "end", "parent"), s)) for s in outcome["spans"]]
        (OUT / f"trace-{stem}.json").write_text(json.dumps(spans) + "\n")
    for key, value in info.items():
        print(f"{key} {value}")
    print(f"attempted {result['attempted']} failed {result['failed']} correct {result['correct']}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
