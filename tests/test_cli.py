"""End-to-end command-line coverage driven through main(argv)."""

import hashlib
import math
from fractions import Fraction

import pytest

from nsw2v import cli, parse_allocation, parse_instance, prng, serialize_certificate, serialize_instance
from nsw2v.reductions import optimal_certificate

EXAMPLE1 = "nsw2v 1\n2 5 2 3\n0 1\n0 1\n"
PDM_TEXT = "pdm 1\n3 2 3\n0 0 0\n1 1 1\n0 1 0\n"


@pytest.fixture
def example1_file(tmp_path):
    path = tmp_path / "example1.nsw"
    path.write_text(EXAMPLE1, encoding="utf-8")
    return str(path)


def test_solve_prints_product_and_scaled_welfare(example1_file, capsys):
    assert cli.main(["solve", example1_file]) == 0
    assert capsys.readouterr().out == "product=35 nsw_scaled=1.972027\n"


def _decimal_by_blocks(x: int) -> str:
    # the interpreter caps str(int) at 4300 digits; 1000-digit blocks stay under the cap
    blocks = []
    while x:
        x, block = divmod(x, 10**1000)
        blocks.append(block)
    return str(blocks[-1]) + "".join(f"{block:01000d}" for block in reversed(blocks[:-1]))


def test_solve_and_check_print_products_past_the_int_digit_limit(tmp_path, capsys):
    # 2200 agents, each valuing its own good at 99: a 4391-digit product
    inst = tmp_path / "wide.nsw"
    inst.write_text("nsw2v 1\n2200 2200 1 99\n" + "".join(f"{i}\n" for i in range(2200)), encoding="utf-8")
    out = tmp_path / "wide.alloc"
    product = _decimal_by_blocks(99**2200)
    assert len(product) == 4391
    assert cli.main(["solve", str(inst), "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"product={product} nsw_scaled=1.000000\n"
    assert cli.main(["check", str(inst), str(out)]) == 0
    assert capsys.readouterr().out == f"complete=true disjoint=true nonwasteful=true product={product}\n"
    # the parsers keep the limit: a 4301-digit field is still refused
    inst.write_text("nsw2v 1\n1 1 1 " + "9" * 4301 + "\n0\n", encoding="utf-8")
    assert cli.main(["solve", str(inst)]) == cli.EXIT_PARSE


def test_solve_and_exact_print_the_scaled_welfare_of_a_huge_q(tmp_path, capsys):
    # each agent gets its own big good: the product q^2 is fine, its square root past float range
    q = 10**400
    inst = tmp_path / "huge_q.nsw"
    inst.write_text(f"nsw2v 1\n2 2 1 {q}\n0\n1\n", encoding="utf-8")
    for command in ("solve", "exact"):
        assert cli.main([command, str(inst)]) == 0
        assert capsys.readouterr().out == f"product={q * q} nsw_scaled=1.000000\n"


def test_ratio_prints_products_past_the_int_digit_limit(tmp_path, capsys):
    # a 2201-digit q: both products are q^2, 4401 digits
    q = 10**2200
    inst = tmp_path / "wide_q.nsw"
    inst.write_text(f"nsw2v 1\n2 2 1 {q}\n0\n1\n", encoding="utf-8")
    product = _decimal_by_blocks(q * q)
    assert len(product) == 4401
    assert cli.main(["ratio", str(inst)]) == 0
    row = capsys.readouterr().out.splitlines()[1]
    assert row == f"{inst},2,2,1,{q},{product},{product},1.000000"


def test_solve_allocation_files_are_pinned(tmp_path, capsys):
    # hashes taken from the solver that validated and froze between phases
    shapes = [
        ((100, 400, 4, 5, Fraction(1, 25), 2024),
         "6bbec88d9ace2730245dc9fe7404fb307bbaf361845b7526afc0f153522de399"),
        ((600, 3000, 3, 7, Fraction(1, 150), 11),
         "a2453f5f1f6dfe8d9e69afd9341166a35b521cff64808f18dfa739b9900f20ef"),
    ]
    path, out = tmp_path / "inst.nsw", tmp_path / "inst.alloc"
    for shape, digest in shapes:
        path.write_text(serialize_instance(prng.random_instance(*shape)), encoding="utf-8")
        assert cli.main(["solve", str(path), "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


def test_solve_writes_a_parseable_allocation(example1_file, tmp_path, capsys):
    out = tmp_path / "alloc.txt"
    assert cli.main(["solve", example1_file, "--out", str(out)]) == 0
    alloc, m = parse_allocation(out.read_text(encoding="utf-8"))
    assert m == 5
    assert alloc.bundles == (frozenset({0, 2, 4}), frozenset({1, 3}))


def test_exact_prints_the_optimum(example1_file, capsys):
    assert cli.main(["exact", example1_file]) == 0
    assert capsys.readouterr().out == "product=36 nsw_scaled=2.000000\n"


def test_ratio_emits_csv_rows(example1_file, capsys):
    assert cli.main(["ratio", example1_file, "--summary"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "instance,n,m,p,q,alg_product,opt_product,ratio"
    assert lines[1] == f"{example1_file},2,5,2,3,35,36,1.014185"
    assert lines[2] == "max=1.014185 mean=1.014185"


def test_ratio_appends_to_csv_without_duplicating_the_header(
    example1_file, tmp_path, capsys
):
    out = tmp_path / "rows.csv"
    assert cli.main(["ratio", example1_file, "--out", str(out)]) == 0
    assert cli.main(["ratio", example1_file, "--out", str(out)]) == 0
    lines = out.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "instance,n,m,p,q,alg_product,opt_product,ratio"
    assert len(lines) == 3 and lines[1] == lines[2]


def test_check_round_trip(example1_file, tmp_path, capsys):
    out = tmp_path / "alloc.txt"
    cli.main(["solve", example1_file, "--out", str(out)])
    capsys.readouterr()
    assert cli.main(["check", example1_file, str(out)]) == 0
    # the solver output carries small goods, so the big-cover flag is false
    assert capsys.readouterr().out == (
        "complete=true disjoint=true nonwasteful=false product=35\n"
    )


def test_check_flags_a_big_goods_only_allocation(example1_file, tmp_path, capsys):
    alloc = tmp_path / "phase1.txt"
    alloc.write_text("alloc 1\n2 5\n0\n1\n", encoding="utf-8")
    assert cli.main(["check", example1_file, str(alloc)]) == 0
    assert capsys.readouterr().out == (
        "complete=false disjoint=true nonwasteful=true product=9\n"
    )


def test_check_rejects_mismatched_sizes(example1_file, tmp_path, capsys):
    alloc = tmp_path / "wrong.txt"
    alloc.write_text("alloc 1\n2 4\n0\n1\n", encoding="utf-8")
    assert cli.main(["check", example1_file, str(alloc)]) == cli.EXIT_PARSE


def test_gen_is_deterministic_and_round_trips(tmp_path, capsys):
    assert cli.main(["gen", "3", "6", "2", "5", "1/3", "--seed", "42"]) == 0
    first = capsys.readouterr().out
    out = tmp_path / "gen.nsw"
    assert cli.main(
        ["gen", "3", "6", "2", "5", "1/3", "--seed", "42", "--out", str(out)]
    ) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first == "nsw2v 1\n3 6 2 5\n1 2 4\n0 4\n3 4\n"
    assert out.read_text(encoding="utf-8") == first
    inst = parse_instance(first)
    assert (inst.n, inst.m, inst.p, inst.q) == (3, 6, 2, 5)


def test_gen_probability_extremes(capsys):
    assert cli.main(["gen", "2", "3", "1", "2", "0", "--seed", "7"]) == 0
    none_big = parse_instance(capsys.readouterr().out)
    assert all(not b for b in none_big.big_sets)
    assert cli.main(["gen", "2", "3", "1", "2", "1", "--seed", "7"]) == 0
    all_big = parse_instance(capsys.readouterr().out)
    assert all(b == frozenset({0, 1, 2}) for b in all_big.big_sets)


def test_gen_output_is_pinned_across_blocks(capsys):
    # 35,000 draws span nine 4096-value blocks; the hash was taken from the one-draw-per-pair generator
    assert cli.main(["gen", "7", "5000", "3", "5", "2/7", "--seed", "99"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert digest == "6f04d3f7f749f6b0d1bb2f7880cbc2f1854d5afdbe600e6be4044955ccb77abf"


def test_gen_matches_the_serialized_instance(tmp_path, capsys):
    # rows are written as they are drawn, with the (p, q) header canonicalized
    shapes = [("3", "6", "2", "5", "1/3", 42), ("5", "700", "4", "6", "1/2", 7),
              ("1", "1", "1", "2", "1", 0), ("4", "9000", "3", "9", "2/3", 2**64 + 5)]
    for n, m, p, q, prob, seed in shapes:
        out = tmp_path / "gen.nsw"
        argv = ["gen", n, m, p, q, prob, "--seed", str(seed), "--out", str(out)]
        assert cli.main(argv) == 0
        inst = prng.random_instance(int(n), int(m), int(p), int(q), Fraction(prob), seed)
        assert capsys.readouterr().out == serialize_instance(inst)
        assert out.read_text(encoding="utf-8") == serialize_instance(inst)


def test_gen_reports_the_first_of_several_faults(tmp_path, capsys):
    # order: m < n, the good limit, BIG_PROB's syntax, its range, the pair limit, n >= 1, (p, q)
    cases = [
        (["3", "2", "1", "2", "abc"], cli.EXIT_TOO_FEW_GOODS, "need m >= n, got m=2, n=3"),
        (["1", "1000001", "1", "2", "abc"], cli.EXIT_PARSE, "good count 1000001 exceeds the limit of 1000000"),
        (["11", "1000000", "1", "2", "abc"], cli.EXIT_PARSE, "Invalid literal for Fraction: 'abc'"),
        (["11", "1000000", "1", "2", "3/2"], cli.EXIT_PARSE, "big_prob must lie in [0, 1], got 3/2"),
        (["-5000", "-4000", "3", "2", "1/2"], cli.EXIT_PARSE,
         "pair count n*m = 20000000 exceeds the limit of 10000000"),
        (["0", "3", "2", "1", "1/2"], cli.EXIT_PARSE, "need at least one agent, got n=0"),
        (["2", "3", "3", "2", "1/2"], cli.EXIT_PARSE, "values must satisfy 0 <= p < q, got p=3, q=2"),
        (["2", "3", "1", "0", "1/2"], cli.EXIT_PARSE, "big value must be positive, got q=0"),
    ]
    out = tmp_path / "never.nsw"
    for args, code, message in cases:
        assert cli.main(["gen", *args, "--out", str(out)]) == code
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")
        assert not out.exists()


def test_reduce_np_mode(tmp_path, capsys):
    pdm = tmp_path / "graph.pdm"
    pdm.write_text(PDM_TEXT, encoding="utf-8")
    assert cli.main(["reduce", str(pdm), "np", "5"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert (inst.n, inst.m, inst.p, inst.q) == (3, 11, 3, 5)


def test_reduce_gap_mode(tmp_path, capsys):
    pdm = tmp_path / "graph4.pdm"
    pdm.write_text("pdm 1\n4 1 3\n0 0 0 0\n0 0 0 0\n0 0 0 0\n", encoding="utf-8")
    assert cli.main(["reduce", str(pdm), "gap4dm", "1"]) == 0
    inst = parse_instance(capsys.readouterr().out)
    assert (inst.n, inst.m, inst.p, inst.q) == (3, 14, 4, 5)


def test_verify_lp_reports_the_optimal_certificate(tmp_path, capsys):
    cert = tmp_path / "opt.lp"
    cert.write_text(serialize_certificate(optimal_certificate()), encoding="utf-8")
    assert cli.main(["verify-lp", str(cert)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "feasible tight=3 factor=1.000015452"
    assert lines[1] == "slack mass=0"
    assert lines[2] == "slack type4=0"
    assert lines[3] == "slack big_supply=0"
    assert lines[4] == "slack small_supply=0"
    assert lines[5] == "objective=1.386278909699"


def test_verify_lp_flags_an_infeasible_certificate(tmp_path, capsys):
    cert = tmp_path / "bad.lp"
    cert.write_text("lpcert 1\nalpha 0\n4 0 1\n", encoding="utf-8")
    assert cli.main(["verify-lp", str(cert)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "infeasible"
    assert lines[2] == "slack type4=-109/162"


def test_verify_lp_reports_an_infinite_factor_for_minus_infinite_objective(tmp_path, capsys):
    cert = tmp_path / "zero.lp"
    cert.write_text("lpcert 1\nalpha 0\n0 0 1\n", encoding="utf-8")
    assert cli.main(["verify-lp", str(cert)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "feasible tight=0 factor=inf"
    assert lines[5] == "objective=-inf"


def test_verify_lp_reports_an_overflowing_weight_without_a_traceback(tmp_path, capsys):
    # float(1e400) overflows, and so does the exact term: the infinity of its sign, or 0 at log-utility 0
    cert = tmp_path / "huge.lp"
    for entry, objective in (("0 1 1e400", "-inf"), ("4 0 1e400", "inf"), ("4 0 -1e400", "-inf"),
                             ("1 0 1e400", "0.000000000000")):
        cert.write_text(f"lpcert 1\nalpha 0\n{entry}\n", encoding="utf-8")
        assert cli.main(["verify-lp", str(cert)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert lines[0] == "infeasible"
        assert lines[1] == f"slack mass={1 - Fraction(entry.split()[2])}"
        assert lines[5] == f"objective={objective}"
    assert lines[4] == f"slack small_supply={Fraction(10, 3)}"


def test_verify_lp_signs_overflowing_terms_by_their_exact_sum(tmp_path, capsys):
    # 1e400*ln(0.8) + 1e400*ln(4) > 0; the float sum of the two infinite terms is nan
    cert = tmp_path / "both.lp"
    ln16, ln08 = Fraction(math.log(1.6)), Fraction(math.log(0.8))
    ln48, ln4 = Fraction(math.log(4.8)), Fraction(math.log(4))
    cases = (
        (["0 1 1e400", "4 0 1e400"], "inf"),
        (["0 1 1e400", "4 0 -1e400"], "-inf"),
        # weights in float range whose terms overflow but sum to a float, about 3.1e307
        (["0 6 1.7e308", "4 0 -1.7e308"], f"{float(Fraction('1.7e308') * (ln48 - ln4)):.12f}"),
        # a weight past the float range whose term is a float, about -4.46e307
        (["0 1 2e308"], f"{float(Fraction('2e308') * ln08):.12f}"),
        # infinite terms whose exact sum is 0 leave the finite rest, here ln 4
        ([f"0 1 {10**400 * ln16}", f"0 2 {-10**400 * ln08}", "4 0 1"], "1.386294361120"),
    )
    for entries, objective in cases:
        cert.write_text("lpcert 1\nalpha 0\n" + "".join(f"{e}\n" for e in entries), encoding="utf-8")
        assert cli.main(["verify-lp", str(cert)]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert captured.out.splitlines()[5] == f"objective={objective}"


def test_verify_lp_prints_slacks_past_the_int_digit_limit(tmp_path, capsys):
    cert = tmp_path / "wide.lp"
    cert.write_text("lpcert 1\nalpha 0\n0 1 1e4300\n", encoding="utf-8")
    assert cli.main(["verify-lp", str(cert)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == f"slack mass=-{_decimal_by_blocks(10**4300 - 1)}"
    assert lines[4] == f"slack small_supply=-{_decimal_by_blocks(3 * 10**4300 - 10)}/3"


def test_decimal_exponents_past_the_limit_are_refused(tmp_path, capsys):
    # Fraction would build 10^5000 first; 1e-10000000 took seconds and then wrote an instance
    assert cli.main(["gen", "2", "3", "1", "2", "1e-5000"]) == cli.EXIT_PARSE
    cert = tmp_path / "opt.lp"
    cert.write_text(serialize_certificate(optimal_certificate()), encoding="utf-8")
    assert cli.main(["verify-lp", str(cert), "--eps", "1E+4301"]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.splitlines() == [
        "error: decimal exponent in '1e-5000' exceeds the limit of 4300",
        "error: decimal exponent in '1E+4301' exceeds the limit of 4300",
    ]
    cert.write_text("lpcert 1\nalpha 0\n0 1 1e-3000000\n", encoding="utf-8")
    assert cli.main(["verify-lp", str(cert)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err == "error: bad certificate entry '0 1 1e-3000000'\n"
    # an exponent at the limit is read
    assert cli.main(["gen", "2", "3", "1", "2", "1e-4300"]) == 0
    assert capsys.readouterr().out == "nsw2v 1\n2 3 1 2\n\n\n"


# ------------------------------------------------------------------ exit codes

def test_exit_code_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.nsw"
    bad.write_text("not an instance\n", encoding="utf-8")
    assert cli.main(["solve", str(bad)]) == cli.EXIT_PARSE
    assert cli.main(["solve", str(tmp_path / "missing.nsw")]) == cli.EXIT_PARSE
    huge = tmp_path / "huge.nsw"
    huge.write_text("nsw2v 1\n1000000000 5 2 3\n", encoding="utf-8")
    assert cli.main(["solve", str(huge)]) == cli.EXIT_PARSE
    negative = tmp_path / "negative.nsw"
    negative.write_text("nsw2v 1\n1 -1 1 2\n\n", encoding="utf-8")
    assert cli.main(["solve", str(negative)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.splitlines()[-1] == "error: good count must be non-negative, got m=-1"
    assert cli.main(["gen", "2", "3", "1", "2", "1/0"]) == cli.EXIT_PARSE
    cert = tmp_path / "opt.lp"
    cert.write_text(serialize_certificate(optimal_certificate()), encoding="utf-8")
    assert cli.main(["verify-lp", str(cert), "--eps", "1/0"]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.splitlines()[-2:] == [
        "error: zero denominator in '1/0'", "error: zero denominator in '1/0'",
    ]


def test_exit_code_parse_failure_for_a_huge_good_count(example1_file, tmp_path, capsys):
    # a declared m past core.MAX_GOODS fails in the parser, before any O(m) work
    huge = tmp_path / "huge_m.nsw"
    huge.write_text("nsw2v 1\n1 1000000000000 1 2\n\n", encoding="utf-8")
    huge_alloc = tmp_path / "huge_m.alloc"
    huge_alloc.write_text("alloc 1\n2 1000000000000\n\n\n", encoding="utf-8")
    small_alloc = tmp_path / "small.alloc"
    small_alloc.write_text("alloc 1\n1 1\n0\n", encoding="utf-8")
    assert cli.main(["solve", str(huge)]) == cli.EXIT_PARSE
    assert cli.main(["check", str(huge), str(small_alloc)]) == cli.EXIT_PARSE
    assert cli.main(["check", example1_file, str(huge_alloc)]) == cli.EXIT_PARSE
    assert capsys.readouterr().err.splitlines() == [
        "error: good count 1000000000000 exceeds the limit of 1000000",
    ] * 3
    # gen refuses an m its own output could not be read back with, before drawing
    assert cli.main(["gen", "1", "1000001", "1", "2", "0"]) == cli.EXIT_PARSE
    assert cli.main(["gen", "1", "1000000000000", "1", "2", "0"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: good count 1000001 exceeds the limit of 1000000",
        "error: good count 1000000000000 exceeds the limit of 1000000",
    ]


def test_exit_code_parse_failure_for_a_huge_agent_count(example1_file, tmp_path, capsys):
    # 10^6 + 1 blank agent lines and m = 0: the parser refuses n before building any big set
    huge = tmp_path / "huge_n.nsw"
    huge.write_text("nsw2v 1\n1000001 0 1 2\n" + "\n" * 1000001, encoding="utf-8")
    huge_alloc = tmp_path / "huge_n.alloc"
    huge_alloc.write_text("alloc 1\n1000001 5\n" + "\n" * 1000001, encoding="utf-8")
    small_alloc = tmp_path / "small.alloc"
    small_alloc.write_text("alloc 1\n1 1\n0\n", encoding="utf-8")
    for argv in (["solve", str(huge)], ["exact", str(huge)], ["ratio", str(huge)],
                 ["check", str(huge), str(small_alloc)]):
        assert cli.main(argv) == cli.EXIT_PARSE
    assert cli.main(["check", example1_file, str(huge_alloc)]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: agent count 1000001 exceeds the limit of 1000000",
    ] * 4 + ["error: bundle count 1000001 exceeds the limit of 1000000"]


def test_gen_refuses_more_pairs_than_the_limit_before_drawing(monkeypatch, capsys):
    # n = m = 10^6 passes both size checks; its 10^12 draws would run for days
    def no_block(seed, start, count, threshold):
        raise AssertionError("gen drew from the stream")

    monkeypatch.setattr(prng, "_big_flags", no_block)
    assert cli.main(["gen", "1000000", "1000000", "1", "2", "1/2"]) == cli.EXIT_PARSE
    assert cli.main(["gen", "11", "1000000", "1", "2", "0"]) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "error: pair count n*m = 1000000000000 exceeds the limit of 10000000",
        "error: pair count n*m = 11000000 exceeds the limit of 10000000",
    ]


def test_exit_code_usage_error_is_a_parse_failure(capsys):
    # argparse's own status 2 would read as "fewer goods than agents"
    for argv in (["exact", "X", "--budget", "abc"], ["gen", "2", "3", "1", "2", "-1/2"]):
        with pytest.raises(SystemExit) as exited:
            cli.main(argv)
        assert exited.value.code == cli.EXIT_PARSE
        err = capsys.readouterr().err
        assert err.startswith(f"usage: nsw2v {argv[0]} ") and "error:" in err
    with pytest.raises(SystemExit) as exited:
        cli.main(["--help"])
    assert exited.value.code == 0

def test_exit_code_too_few_goods(tmp_path, capsys):
    starved = tmp_path / "starved.nsw"
    starved.write_text("nsw2v 1\n1 0 1 2\n\n", encoding="utf-8")
    assert cli.main(["solve", str(starved)]) == cli.EXIT_TOO_FEW_GOODS
    assert cli.main(["gen", "3", "2", "1", "2", "1/2"]) == cli.EXIT_TOO_FEW_GOODS


def test_exit_code_zero_small_value(tmp_path, capsys):
    dichotomous = tmp_path / "dichotomous.nsw"
    dichotomous.write_text("nsw2v 1\n1 1 0 1\n0\n", encoding="utf-8")
    assert cli.main(["solve", str(dichotomous)]) == cli.EXIT_ZERO_SMALL
    assert "exact" in capsys.readouterr().err


def test_exit_code_budget_exceeded(tmp_path, capsys):
    big = tmp_path / "big.nsw"
    cli.main(["gen", "3", "12", "1", "2", "1/2", "--out", str(big)])
    capsys.readouterr()
    assert cli.main(["exact", str(big), "--budget", "100000"]) == cli.EXIT_BUDGET


def test_exit_code_budget_exceeded_on_a_count_past_the_int_digit_limit(tmp_path, capsys):
    # 3^10000 has 4772 digits, more than str() of an int allows by default
    huge = tmp_path / "huge.nsw"
    huge.write_text("nsw2v 1\n3 10000 1 2\n\n\n\n", encoding="utf-8")
    for command in ("exact", "ratio"):
        assert cli.main([command, str(huge)]) == cli.EXIT_BUDGET
        assert capsys.readouterr().err == "error: 3^10000 states exceed the budget of 10000000\n"


def test_ratio_refuses_an_instance_over_the_budget_before_solving(tmp_path, monkeypatch, capsys):
    def never(inst):
        raise AssertionError("the solver ran on an instance over the budget")

    monkeypatch.setattr(cli.oracle, "two_value_approx", never)
    files = {
        # the 1 KB file declaring n=1000, m=10^6
        "huge.nsw": ("nsw2v 1\n1000 1000000 1 2\n" + "\n" * 1000, cli.EXIT_BUDGET),
        # over the budget too, but p = 0 and m < n are reported first, as the solver would
        "dichotomous.nsw": ("nsw2v 1\n3 10000 0 1\n\n\n\n", cli.EXIT_ZERO_SMALL),
        "starved.nsw": ("nsw2v 1\n20 10 1 2\n" + "\n" * 20, cli.EXIT_TOO_FEW_GOODS),
    }
    for name, (text, code) in files.items():
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        assert cli.main(["ratio", str(path)]) == code
    assert "1000^1000000 states exceed" in capsys.readouterr().err


def test_exact_budget_admits_exactly_n_to_the_m(example1_file, capsys):
    assert cli.main(["exact", example1_file, "--budget", "32"]) == 0
    assert capsys.readouterr().out == "product=36 nsw_scaled=2.000000\n"
    assert cli.main(["exact", example1_file, "--budget", "31"]) == cli.EXIT_BUDGET
    assert capsys.readouterr().err == "error: 2^5 states exceed the budget of 31\n"


def test_exit_code_reduction_out_of_range(tmp_path, capsys):
    pdm = tmp_path / "graph.pdm"
    pdm.write_text(PDM_TEXT, encoding="utf-8")
    assert cli.main(["reduce", str(pdm), "np", "3"]) == cli.EXIT_REDUCTION
    # one unmatched edge takes q dummies: m = 3 + q = 10^18 + 6, past core.MAX_GOODS
    pdm.write_text("pdm 1\n3 1 2\n0 0 0\n0 0 0\n", encoding="utf-8")
    out = tmp_path / "huge.nsw"
    q = str(10**18 + 3)
    assert cli.main(["reduce", str(pdm), "np", q, "--out", str(out)]) == cli.EXIT_REDUCTION
    error = capsys.readouterr().err.splitlines()[-1]
    assert error == f"error: good count {10**18 + 6} exceeds the limit of 1000000"
    assert not out.exists()
