"""Command-line interface.

Exit codes: 0 success, 1 unreadable or malformed input (a bad command line
included), 2 fewer goods than agents, 3 p = 0 handed to the full solver, 4
enumeration over budget, 5 a reduction asked for outside its parameter range.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from pathlib import Path
from typing import Iterable

from . import core, oracle, prng, reductions
from .balance import GoodsFewerThanAgentsError, ZeroSmallValueError, two_value_approx

EXIT_PARSE = 1
EXIT_TOO_FEW_GOODS = 2
EXIT_ZERO_SMALL = 3
EXIT_BUDGET = 4
EXIT_REDUCTION = 5


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _flag(value: bool) -> str:
    return "true" if value else "false"


def _put_allocation(out: str | None, m: int, alloc: core.Allocation, value: core.NswValue) -> None:
    if out:
        _write(out, core.serialize_allocation(alloc, m))
    print(f"product={core.format_rational(value.product)} nsw_scaled={value.float_scaled:.6f}")


def _put_text(out: str | None, chunks: Iterable[str]) -> None:
    """Print each chunk as it comes and, with --out, write it to that file too.

    The file is opened first, so a path that cannot be written fails before
    anything is printed.
    """
    with open(out, "w", encoding="utf-8") if out else contextlib.nullcontext() as handle:
        for chunk in chunks:
            if handle is not None:
                handle.write(chunk)
            sys.stdout.write(chunk)


def _cmd_solve(args: argparse.Namespace) -> None:
    inst = core.parse_instance(_read(args.instance))
    alloc = two_value_approx(inst)
    _put_allocation(args.out, inst.m, alloc, core.nsw_product(inst, alloc))


def _cmd_exact(args: argparse.Namespace) -> None:
    inst = core.parse_instance(_read(args.instance))
    value, witness = oracle.exact_optimum(inst, budget=args.budget)
    _put_allocation(args.out, inst.m, witness, value)


def _cmd_ratio(args: argparse.Namespace) -> None:
    header = "instance,n,m,p,q,alg_product,opt_product,ratio"
    rows = []
    ratios = []
    for path in args.instances:
        inst = core.parse_instance(_read(path))
        report = oracle.ratio(inst, budget=args.budget)
        rows.append(
            f"{path},{inst.n},{inst.m},{inst.p},{inst.q},{core.format_rational(report.alg_product)},"
            f"{core.format_rational(report.opt_product)},{report.ratio_float:.6f}"
        )
        ratios.append(report.ratio_float)
    if args.out:
        out = Path(args.out)
        fresh = not out.exists() or out.stat().st_size == 0
        with out.open("a", encoding="utf-8") as handle:
            if fresh:
                handle.write(header + "\n")
            handle.writelines(row + "\n" for row in rows)
    else:
        print(header)
        for row in rows:
            print(row)
    if args.summary:
        print(f"max={max(ratios):.6f} mean={sum(ratios) / len(ratios):.6f}")


def _cmd_check(args: argparse.Namespace) -> None:
    inst = core.parse_instance(_read(args.instance))
    alloc, m = core.parse_allocation(_read(args.allocation))
    if alloc.n != inst.n or m != inst.m:
        raise core.ParseError(
            f"allocation is sized {alloc.n}x{m}, instance {inst.n}x{inst.m}"
        )
    report = core.validate_allocation(inst, alloc)
    value = core.nsw_product(inst, alloc)
    print(
        f"complete={_flag(report.complete)} disjoint={_flag(report.disjoint)} "
        f"nonwasteful={_flag(report.nonwasteful)} product={core.format_rational(value.product)}"
    )


def _cmd_gen(args: argparse.Namespace) -> None:
    if args.m < args.n:
        raise GoodsFewerThanAgentsError(f"need m >= n, got m={args.m}, n={args.n}")
    # the parsers refuse a larger m, so refuse it here before the n*m draws
    core._check_counts(args.n, args.m, "agent")
    big_prob = core.parse_rational(args.big_prob)
    rows = prng.random_big_rows(args.n, args.m, big_prob, args.seed)
    p, q = core._check_shape(args.n, args.m, args.p, args.q)
    # each row is written as it is drawn, never held as a whole instance
    header = (args.n, args.m, p, q)
    _put_text(args.out, core._record_lines(core.INSTANCE_MAGIC, header, rows))


def _cmd_reduce(args: argparse.Namespace) -> None:
    graph = reductions.parse_pdm(_read(args.matching))
    if args.mode == "np":
        inst = reductions.reduce_pdm(graph, args.value)
    else:
        inst = reductions.reduce_gap4dm(graph, args.value)
    _put_text(args.out, [core.serialize_instance(inst)])


def _cmd_verify_lp(args: argparse.Namespace) -> None:
    cert = reductions.parse_certificate(_read(args.certificate))
    report = reductions.verify_apx_lp(cert, core.parse_rational(args.eps))
    if report.feasible:
        factor = 4.0 * math.exp(-report.objective)
        print(f"feasible tight={len(report.tight)} factor={factor:.9f}")
    else:
        print("infeasible")
    for name in ("mass", "type4", "big_supply", "small_supply"):
        print(f"slack {name}={core.format_rational(report.slacks[name])}")
    print(f"objective={report.objective:.12f}")


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on a usage error, which here means too few goods; exit 1 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nsw2v",
        description="Nash-welfare solver and analysis tools for two-value instances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the approximation solver on an instance file")
    solve.add_argument("instance")
    solve.add_argument("--out", help="write the allocation file here")
    solve.set_defaults(func=_cmd_solve)

    exact = sub.add_parser("exact", help="enumerate the exact optimum")
    exact.add_argument("instance")
    exact.add_argument("--out", help="write the witness allocation here")
    exact.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET,
                       help="enumeration state budget")
    exact.set_defaults(func=_cmd_exact)

    rat = sub.add_parser("ratio", help="solver-vs-optimum CSV rows for instance files")
    rat.add_argument("instances", nargs="+")
    rat.add_argument("--out", help="append rows to this CSV file")
    rat.add_argument("--budget", type=int, default=oracle.DEFAULT_BUDGET,
                     help="enumeration state budget")
    rat.add_argument("--summary", action="store_true", help="print max and mean ratio")
    rat.set_defaults(func=_cmd_ratio)

    check = sub.add_parser("check", help="validate an allocation against an instance")
    check.add_argument("instance")
    check.add_argument("allocation")
    check.set_defaults(func=_cmd_check)

    gen = sub.add_parser("gen", help="generate a seeded random instance")
    gen.add_argument("n", type=int)
    gen.add_argument("m", type=int)
    gen.add_argument("p", type=int)
    gen.add_argument("q", type=int)
    gen.add_argument("big_prob", help="probability a pair is big, e.g. 1/3 or 0.25")
    gen.add_argument("--seed", type=int, default=0, help="64-bit stream seed")
    gen.add_argument("--out", help="also write the instance file here")
    gen.set_defaults(func=_cmd_gen)

    red = sub.add_parser("reduce", help="build a hardness instance from a matching file")
    red.add_argument("matching")
    red.add_argument("mode", choices=("np", "gap4dm"))
    red.add_argument("value", type=int, help="q for np mode, target matching size for gap4dm")
    red.add_argument("--out", help="also write the instance file here")
    red.set_defaults(func=_cmd_reduce)

    verify = sub.add_parser("verify-lp", help="check an LP certificate exactly")
    verify.add_argument("certificate")
    verify.add_argument("--eps", default="0", help="gap parameter as a rational")
    verify.set_defaults(func=_cmd_verify_lp)

    return parser


# first match wins, so subclasses of ValueError come before it
_EXIT_CODES = (
    (core.ParseError, EXIT_PARSE),
    (GoodsFewerThanAgentsError, EXIT_TOO_FEW_GOODS),
    (ZeroSmallValueError, EXIT_ZERO_SMALL),
    (oracle.BudgetExceededError, EXIT_BUDGET),
    (reductions.ReductionError, EXIT_REDUCTION),
    (OSError, EXIT_PARSE),
    (ValueError, EXIT_PARSE),
)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        code = next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
        hint = " (run `exact`, or treat the instance as dichotomous)"
        print(f"error: {exc}{hint if code == EXIT_ZERO_SMALL else ''}", file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
