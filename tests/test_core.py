"""Data model, exact arithmetic, and file format tests."""

import itertools
import math
from fractions import Fraction

import pytest

from nsw2v import (
    Allocation,
    Instance,
    NswValue,
    ParseError,
    canonicalize,
    nsw_product,
    parse_allocation,
    parse_instance,
    serialize_allocation,
    serialize_instance,
    validate_allocation,
    valuation_profile,
)
import nsw2v.core as core
import nsw2v.prng as prng
import nsw2v.reductions as reductions
from nsw2v.core import (
    ALLOCATION_MAGIC, MAX_GOODS, MAX_PAIRS, _record_lines, format_rational, parse_rational,
)
from nsw2v.prng import random_big_sets, random_instance, splitmix64

from _fixtures import example1, raw_values, scan_big_sets, scan_validate


# ---------------------------------------------------------------- canonicalize

def test_canonicalize_examples():
    assert canonicalize(2, 3) == (2, 3)
    assert canonicalize(2, 4) == (1, 2)
    assert canonicalize(6, 10) == (3, 5)
    assert canonicalize(0, 5) == (0, 1)


def test_canonicalize_rejects_bad_pairs():
    with pytest.raises(ValueError):
        canonicalize(3, 3)
    with pytest.raises(ValueError):
        canonicalize(4, 3)
    with pytest.raises(ValueError):
        canonicalize(1, 0)
    with pytest.raises(ValueError):
        canonicalize(-1, 3)


def test_canonicalize_always_coprime():
    for p in range(0, 12):
        for q in range(p + 1, 13):
            cp, cq = canonicalize(p, q)
            assert math.gcd(cp, cq) == 1
            assert cp * q == cq * p  # same ratio


# -------------------------------------------------------------------- Instance

def test_instance_canonicalizes_values():
    inst = Instance(2, 3, 2, 4, (frozenset({0}), frozenset({1})))
    assert (inst.p, inst.q) == (1, 2)


def test_instance_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Instance(0, 1, 1, 2, ())
    with pytest.raises(ValueError):
        Instance(1, 1, 1, 2, (frozenset({1}),))  # good index out of range
    with pytest.raises(ValueError):
        Instance(2, 1, 1, 2, (frozenset(),))  # wrong number of big sets
    with pytest.raises(ValueError):
        Instance(1, 1, 3, 2, (frozenset(),))  # p >= q


def test_instance_range_error_names_the_first_agent_and_one_of_its_bad_goods():
    stream = splitmix64(0xBAD5)
    kinds = set()
    for _ in range(300):
        n = 1 + next(stream) % 4
        m = next(stream) % 12
        kind = next(stream) % 4  # 0: in range, 1: negative, 2: at least m, 3: both
        sets = []
        for _ in range(n):
            s = {g for g in range(m) if next(stream) % 2}
            if kind & 1 and next(stream) % 2:
                s.add(-1 - next(stream) % 20)
            if kind & 2 and next(stream) % 2:
                s.add(m + next(stream) % 20)
            sets.append(frozenset(s))
        bad = [i for i, s in enumerate(sets) if any(not 0 <= g < m for g in s)]
        kinds.add((kind, not bad))
        if not bad:
            assert Instance(n, m, 1, 2, tuple(sets)).big_sets == tuple(sets)
            continue
        with pytest.raises(ValueError) as raised:
            Instance(n, m, 1, 2, tuple(sets))
        i = bad[0]
        named = [f"agent {i} lists good {g} outside 0..{m - 1}" for g in sets[i] if not 0 <= g < m]
        assert str(raised.value) in named
    # every kind of bad good is seen raising, and every kind also passes when none was added
    assert kinds == {(k, ok) for k in range(4) for ok in (True, False)} - {(0, False)}


def test_instance_good_partition():
    inst = example1()
    assert inst.big_goods == frozenset({0, 1})
    assert inst.small_goods == frozenset({2, 3, 4})
    assert inst.value(0, 0) == 3
    assert inst.value(0, 4) == 2
    assert inst.big_for == ((0, 1), (0, 1), (), (), ())
    # big_for is the transpose of big_sets, including m = 0, empty big sets
    # and goods that are big for nobody
    assert Instance(1, 0, 1, 2, (frozenset(),)).big_for == ()
    assert Instance(2, 3, 1, 2, (frozenset(), frozenset({2}))).big_for == ((), (), (1,))
    stream = splitmix64(5)
    for _ in range(100):
        n = 1 + next(stream) % 6
        m = next(stream) % 8
        inst = random_instance(n, m, 1, 2, Fraction(next(stream) % 4, 4), next(stream))
        assert len(inst.big_for) == m
        for g, agents in enumerate(inst.big_for):
            assert agents == tuple(i for i in range(n) if g in inst.big_sets[i])
        assert inst.big_goods == {g for g in range(m) if inst.big_for[g]}


# ----------------------------------------------------------- welfare arithmetic

def test_profile_and_product_on_example1_solver_output():
    inst = example1()
    alloc = Allocation((frozenset({0, 2, 4}), frozenset({1, 3})))
    assert alloc.loads == (3, 2)  # bundle sizes, small goods included
    profile = valuation_profile(inst, alloc)
    assert profile.big_counts == (1, 1)
    assert profile.small_counts == (2, 1)
    assert profile.values == (7, 5)
    value = nsw_product(inst, alloc)
    assert value.product == 35
    assert value.float_scaled == pytest.approx(math.sqrt(35) / 3, abs=1e-12)
    with pytest.raises(ValueError, match="^allocation has 1 bundles for 2 agents$"):
        valuation_profile(inst, Allocation((frozenset(range(5)),)))


def test_single_agent_product_is_its_value():
    inst = Instance(1, 3, 1, 4, (frozenset({0}),))
    alloc = Allocation((frozenset({0, 1, 2}),))
    assert nsw_product(inst, alloc).product == 6  # 4 + 1 + 1


def test_empty_bundle_zeroes_the_product():
    inst = example1()
    alloc = Allocation((frozenset({0, 1, 2, 3, 4}), frozenset()))
    value = nsw_product(inst, alloc)
    assert value.product == 0
    assert value.float_scaled == 0.0


def test_nsw_value_orders_like_integer_products():
    inst = Instance(2, 4, 2, 5, (frozenset({0, 1}), frozenset({1, 2})))
    values = []
    for owners in itertools.product(range(2), repeat=4):
        alloc = Allocation.from_owners(2, owners)
        values.append(nsw_product(inst, alloc))
    ordered = sorted(values)
    for a, b in zip(ordered, ordered[1:]):
        assert a.product <= b.product
        assert a.float_scaled <= b.float_scaled + 1e-12
    assert max(values).product == max(v.product for v in values)
    # equal values hash equal, so a set keeps one per product
    assert len(set(values)) == len({v.product for v in values})


def test_scaled_welfare_of_a_huge_q_stays_in_float_range():
    # the geometric mean q is past the float range, the scaled mean 1 is not
    q = 10**400
    inst = Instance(2, 2, 1, q, (frozenset({0}), frozenset({1})))
    value = nsw_product(inst, Allocation((frozenset({0}), frozenset({1}))))
    assert value.product == q * q
    assert value.float_scaled == pytest.approx(1.0, rel=1e-12)
    assert NswValue(3, q, 2 * q**3).float_scaled == pytest.approx(2 ** (1 / 3), rel=1e-12)


def test_scaled_welfare_agrees_with_dividing_by_q_after_the_mean():
    stream = splitmix64(0x5CA1)
    for _ in range(2000):
        n = 1 + next(stream) % 40
        q = 2 + next(stream) % 50
        product = 1 + next(stream) % (q * 60) ** n
        value = NswValue(n, q, product)
        plain = math.exp(math.log(product) / n) / q
        assert value.float_scaled == pytest.approx(plain, rel=1e-12)


def test_nsw_value_rejects_cross_shape_comparison():
    with pytest.raises(ValueError):
        NswValue(2, 3, 10) < NswValue(3, 3, 10)
    with pytest.raises(ValueError):
        NswValue(2, 3, 10) == NswValue(2, 5, 10)
    # another type is not a welfare value: unequal, and unordered
    assert NswValue(2, 3, 10) != 10
    with pytest.raises(TypeError):
        NswValue(2, 3, 10) < 10


def test_product_order_is_invariant_under_value_scaling():
    # compare all allocation pairs under (p, q) and (2p, 2q) with raw arithmetic
    base = Instance(2, 4, 1, 3, (frozenset({0, 3}), frozenset({1})))
    scaled = {"p": 2, "q": 6}
    for first, second in itertools.combinations(
        itertools.product(range(2), repeat=4), 2
    ):
        prod_a = math.prod(raw_values(base, first))
        prod_b = math.prod(raw_values(base, second))
        vals_a = [0, 0]
        vals_b = [0, 0]
        for g, a in enumerate(first):
            vals_a[a] += scaled["q"] if g in base.big_sets[a] else scaled["p"]
        for g, a in enumerate(second):
            vals_b[a] += scaled["q"] if g in base.big_sets[a] else scaled["p"]
        lhs = math.prod(vals_a)
        rhs = math.prod(vals_b)
        assert (prod_a < prod_b) == (lhs < rhs)
        assert (prod_a == prod_b) == (lhs == rhs)


def test_moving_one_good_changes_product_by_the_two_factor_rule():
    inst = Instance(3, 5, 2, 7, (frozenset({0, 1}), frozenset({2}), frozenset({2, 3})))
    alloc = Allocation((frozenset({0, 1}), frozenset({2, 4}), frozenset({3})))
    values = list(valuation_profile(inst, alloc).values)
    before = nsw_product(inst, alloc).product
    # move good 1 from agent 0 to agent 2
    w1 = inst.value(0, 1)
    w2 = inst.value(2, 1)
    moved = Allocation((frozenset({0}), frozenset({2, 4}), frozenset({1, 3})))
    after = nsw_product(inst, moved).product
    assert after * values[0] * values[2] == before * (values[0] - w1) * (values[2] + w2)


# ------------------------------------------------------------------ validation

def test_validate_reports_on_solver_style_outputs():
    inst = example1()
    full = Allocation((frozenset({0, 2, 4}), frozenset({1, 3})))
    report = validate_allocation(inst, full)
    assert (report.complete, report.disjoint, report.nonwasteful) == (True, True, False)

    phase1 = Allocation((frozenset({0}), frozenset({1})))
    report = validate_allocation(inst, phase1)
    assert (report.complete, report.disjoint, report.nonwasteful) == (False, True, True)


def test_validate_flags_duplicates_and_out_of_range():
    inst = example1()
    dup = Allocation((frozenset({0, 2}), frozenset({0, 1, 3, 4})))
    report = validate_allocation(inst, dup)
    assert not report.disjoint
    assert report.complete

    stray = Allocation((frozenset({0, 9}), frozenset({1})))
    report = validate_allocation(inst, stray)
    assert report.out_of_range == (9,)
    assert not report.complete


def test_validate_empty_allocation_on_empty_instance():
    inst = Instance(1, 0, 1, 2, (frozenset(),))
    report = validate_allocation(inst, Allocation((frozenset(),)))
    assert (report.complete, report.disjoint, report.nonwasteful) == (True, True, True)


def test_validate_matches_the_per_good_reference():
    # bundles draw goods from -2..m+1, so duplicates, negatives and goods >= m all
    # occur; a third of the cases start from a partition, half of those pruned to
    # the big goods, so complete and nonwasteful reports occur too
    stream = splitmix64(4242)
    reports = set()
    for _ in range(2000):
        n = 1 + next(stream) % 4
        m = next(stream) % 7
        inst = random_instance(n, m, 1, 3, Fraction(1, 2), next(stream))
        if next(stream) % 3:
            bundles = [
                [next(stream) % (m + 4) - 2 for _ in range(next(stream) % 5)] for _ in range(n)
            ]
        else:
            owners = [next(stream) % n for _ in range(m)]
            bundles = [[g for g in range(m) if owners[g] == i] for i in range(n)]
            if next(stream) % 2:
                bundles = [[g for g in b if g in inst.big_sets[i]] for i, b in enumerate(bundles)]
        alloc = Allocation(bundles)
        expected = scan_validate(inst, alloc)
        assert validate_allocation(inst, alloc) == expected
        reports.add((n == 1, m == 0, expected.complete, expected.disjoint, expected.nonwasteful,
                     bool(expected.out_of_range)))
    # every flag is seen both ways, on one agent and on no goods as well
    for k in range(6):
        assert {key[k] for key in reports} == {False, True}


# ---------------------------------------------------------------------- stream

def test_splitmix64_matches_the_published_stream():
    stream = splitmix64(0)
    assert [next(stream) for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F,
    ]


BLOCK = prng._BLOCK  # values per packed block in random_big_sets


def test_random_big_sets_matches_one_draw_per_pair():
    stream = splitmix64(0x5EED)
    probs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 25), Fraction(1, 2**64),
             Fraction(2**64 - 1, 2**64)] + [Fraction(next(stream), 2**64) for _ in range(2)]
    # below, at and across one block, rows that straddle a block edge, m = 0 and n = 1
    shapes = [(1, 0), (4, 0), (1, 1), (3, 7), (1, BLOCK - 1), (1, BLOCK), (1, BLOCK + 1),
              (2, BLOCK // 2), (3, 1365), (5, 1000), (1, 2 * BLOCK + 5), (7, 1171)]
    shapes += [(1 + next(stream) % 6, next(stream) % 1500) for _ in range(4)]
    # 8 probabilities per shape against a cycle of 6 seeds: each shape meets every seed
    seeds = itertools.cycle([0, 2**64 - 1, 2**63, -1, 2**70 + 3, next(stream)])
    for n, m in shapes:
        for big_prob in probs:
            seed = next(seeds)
            assert random_big_sets(n, m, big_prob, seed) == scan_big_sets(n, m, big_prob, seed)


class Drew(Exception):
    """Raised by a stand-in block function, so a test sees a draw start without making it."""


def test_random_big_sets_refuses_more_pairs_than_the_limit_before_any_draw(monkeypatch):
    def no_block(seed, start, count, threshold):
        raise Drew

    monkeypatch.setattr(prng, "_big_flags", no_block)
    with pytest.raises(ValueError, match=f"pair count n\\*m = {MAX_PAIRS + 1} exceeds the limit"):
        random_big_sets(1, MAX_PAIRS + 1, Fraction(1, 2), 0)
    # the limit itself is allowed: the stream is reached
    with pytest.raises(Drew):
        random_big_sets(10, MAX_PAIRS // 10, Fraction(1, 2), 0)


# ---------------------------------------------------------------- file formats

EXAMPLE1_TEXT = "nsw2v 1\n2 5 2 3\n0 1\n0 1\n"


def test_parse_instance_example():
    inst = parse_instance(EXAMPLE1_TEXT)
    assert inst == example1()


def test_parse_instance_empty_agent_line():
    inst = parse_instance("nsw2v 1\n1 0 1 2\n\n")
    assert (inst.n, inst.m, inst.p, inst.q) == (1, 0, 1, 2)
    assert inst.big_sets == (frozenset(),)
    # a missing trailing empty line parses the same way
    assert parse_instance("nsw2v 1\n1 0 1 2\n") == inst


def test_instance_round_trips():
    stream = splitmix64(7)
    for _ in range(25):
        n = 1 + next(stream) % 4
        m = n + next(stream) % 6
        q = 2 + next(stream) % 8
        p = 1 + next(stream) % (q - 1) if q > 1 else 0
        inst = random_instance(n, m, p, q, Fraction(1, 2), next(stream))
        assert parse_instance(serialize_instance(inst)) == inst
    text = serialize_instance(example1())
    assert serialize_instance(parse_instance(text)) == text
    assert text == EXAMPLE1_TEXT


@pytest.mark.parametrize(
    "text",
    [
        "",
        "nsw2 1\n2 5 2 3\n0 1\n0 1\n",
        "nsw2v 1\n2 5 2\n0 1\n0 1\n",
        "nsw2v 1\n2 5 3 2\n0 1\n0 1\n",  # p >= q
        "nsw2v 1\n2 5 2 3\n0 9\n0 1\n",  # good out of range
        "nsw2v 1\n2 5 2 3\n0 x\n0 1\n",
        "nsw2v 1\n0 5 2 3\n",
        "nsw2v 1\n1 5 2 3\n0 1\n0 1\n",  # extra non-empty line
        "nsw2v 1\n3 5 2 3\n0 1\n",  # two agent lines missing
        "nsw2v 1\n1000000000 5 2 3\n",  # huge n must fail before any allocation
        "nsw2v 1\n1 1000000000000 1 2\n\n",  # huge m must fail before any O(m) work
        "nsw2v 1\n1 1000001 1 2\n\n",  # one past the good-count limit
    ],
)
def test_parse_instance_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_instance(text)


def test_parse_accepts_a_good_count_at_the_limit():
    assert parse_instance(f"nsw2v 1\n1 {MAX_GOODS} 1 2\n\n").m == MAX_GOODS
    assert parse_allocation(f"alloc 1\n1 {MAX_GOODS}\n\n")[1] == MAX_GOODS


def test_parse_refuses_an_agent_count_past_the_limit_before_any_record():
    # the record line "x" raises its own error if it is converted first
    with pytest.raises(ParseError, match=f"^agent count {MAX_GOODS + 1} exceeds the limit of {MAX_GOODS}$"):
        parse_instance(f"nsw2v 1\n{MAX_GOODS + 1} {MAX_GOODS} 1 2\nx\n")
    with pytest.raises(ParseError, match=f"^bundle count {MAX_GOODS + 1} exceeds the limit of {MAX_GOODS}$"):
        parse_allocation(f"alloc 1\n{MAX_GOODS + 1} 5\nx\n")
    # with both counts too large the good count is reported, as before the agent limit
    with pytest.raises(ParseError, match="^good count"):
        parse_instance(f"nsw2v 1\n{MAX_GOODS + 1} {MAX_GOODS + 1} 1 2\n")


def test_parse_accepts_an_agent_count_at_the_limit(monkeypatch):
    # a smaller limit stands in for 10^6 blank agent lines
    monkeypatch.setattr(core, "MAX_GOODS", 2)
    assert parse_instance("nsw2v 1\n2 2 1 2\n0\n1\n").n == 2
    assert parse_allocation("alloc 1\n2 2\n0\n1\n")[0].n == 2
    with pytest.raises(ParseError, match="^agent count 3 exceeds the limit of 2$"):
        parse_instance("nsw2v 1\n3 2 1 2\n\n\n\n")
    with pytest.raises(ParseError, match="^bundle count 3 exceeds the limit of 2$"):
        parse_allocation("alloc 1\n3 2\n\n\n\n")


class _Unsplittable(str):
    """File text that fails if it is split into lines whole; its slices are plain str."""

    def splitlines(self, keepends=False):
        raise AssertionError("the whole file was split into lines")


def test_parse_checks_the_counts_before_splitting_the_records():
    # the tag and size lines are read first, so a huge declared count is refused before
    # the rest of a file, 10^7 lines of "10" say, is split into a list of lines
    with pytest.raises(ParseError, match=f"^agent count {MAX_GOODS + 1} exceeds the limit of {MAX_GOODS}$"):
        parse_instance(_Unsplittable(f"nsw2v 1\n{MAX_GOODS + 1} 0 1 2\n10\n10\n"))
    with pytest.raises(ParseError, match=f"^bundle count {MAX_GOODS + 1} exceeds the limit of {MAX_GOODS}$"):
        parse_allocation(_Unsplittable(f"alloc 1\r\n{MAX_GOODS + 1} 5\r\n0\r\n"))
    assert parse_instance(_Unsplittable("nsw2v 1\n2 5 2 3\n0 1\n0 1\n")) == example1()


# every line boundary of str.splitlines, "\r\n" as one, and separators that are not one:
# "\n\r" is two, and "\x1f" and "\t" are whitespace inside a line
_BOUNDARIES = ("\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
_SEPARATORS = _BOUNDARIES + ("\n\r", "\r\r\n", "\x1f", "\t", " ")


def _outcome(parse, text):
    try:
        return parse(text)
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("parse, lines", [
    (parse_instance, ["nsw2v 1", "3 5 2 3", "0 1", "", "4"]),
    (parse_allocation, ["alloc 1", "2 5", "0 2 4", "1 3"]),
    (reductions.parse_certificate, ["lpcert 1", "alpha 1/2", "4 0 1/2", "", "0 5 1/2"]),
])
def test_parse_splits_lines_exactly_where_splitlines_does(parse, lines):
    # the header lines are split off one at a time and the records with str.splitlines;
    # each file must read as its splitlines() each ended by "\n", as when the whole file was split
    expect = parse("\n".join(lines))
    for sep in _BOUNDARIES:
        assert parse(sep.join(lines)) == expect, repr(sep)
    stream = splitmix64(0x5E9)
    outcomes = set()
    for cut in range(len(lines) + 1):
        for _ in range(60):
            text = "".join(line + _SEPARATORS[next(stream) % len(_SEPARATORS)] for line in lines[:cut])
            outcome = _outcome(parse, text)
            assert outcome == _outcome(parse, "".join(line + "\n" for line in text.splitlines())), repr(text)
            outcomes.add(outcome == expect)
    assert outcomes == {False, True}  # some texts parse as the file and some fail or differ


def test_allocation_round_trip():
    alloc = Allocation((frozenset({0, 2, 4}), frozenset({1, 3})))
    text = serialize_allocation(alloc, 5)
    assert text == "alloc 1\n2 5\n0 2 4\n1 3\n"
    parsed, m = parse_allocation(text)
    assert parsed == alloc
    assert m == 5
    stream = splitmix64(11)
    for _ in range(200):
        n = 1 + next(stream) % 4
        m = next(stream) % 7
        # owner n leaves the good unassigned, so empty bundles are common
        owners = [next(stream) % (n + 1) for _ in range(m)]
        alloc = Allocation(tuple(
            frozenset(g for g, a in enumerate(owners) if a == i) for i in range(n)
        ))
        text = serialize_allocation(alloc, m)
        assert parse_allocation(text) == (alloc, m)
        assert serialize_allocation(*parse_allocation(text)) == text
        if text.endswith("\n\n"):  # the empty last bundle line may be left out
            assert parse_allocation(text[:-1]) == (alloc, m)


def test_long_records_are_written_in_slices_with_the_same_bytes():
    # rows around the slice length, written with one join each by the reference
    for m in (0, 1, 4095, 4096, 4097, 8192, 8193, 20000):
        alloc = Allocation((frozenset(range(m)), frozenset()))
        reference = f"alloc 1\n2 {m}\n" + " ".join(map(str, range(m))) + "\n\n"
        assert serialize_allocation(alloc, m) == reference
        # no chunk holds more than one 4096-field slice of at most five digits and a space each
        chunks = list(_record_lines(ALLOCATION_MAGIC, (2, m), map(sorted, alloc.bundles)))
        assert max(map(len, chunks)) <= 6 * 4096


def test_parse_rational_reads_what_fraction_reads():
    for text in ("1/3", " -0.25 ", "5e-3", "1E+2", "7", "1e-4300", "2.5e4300", "+.5"):
        assert parse_rational(text) == Fraction(text)
    faults = {
        "abc": "Invalid literal for Fraction: 'abc'",
        "1/0": "zero denominator in '1/0'",
        # past the exponent limit: refused only if the rest is a valid literal
        "1e-4301": "decimal exponent in '1e-4301' exceeds the limit of 4300",
        " 2.5E+9999999 ": "decimal exponent in ' 2.5E+9999999 ' exceeds the limit of 4300",
        "1/2e9999": "Invalid literal for Fraction: '1/2e9999'",
        "1e 9999": "Invalid literal for Fraction: '1e 9999'",
    }
    for text, message in faults.items():
        with pytest.raises(ParseError) as raised:
            parse_rational(text)
        assert str(raised.value) == message


def test_format_rational_prints_str_at_any_length():
    for value in (0, -7, 10**4299, Fraction(-109, 162), Fraction(6, 3)):
        assert format_rational(value) == str(value)
    wide = format_rational(Fraction(-(10**5000) - 1, 3))
    assert wide == "-1" + "0" * 4999 + "1/3"


@pytest.mark.parametrize(
    "text",
    [
        "alloc 1\n2 5\n0 2 9\n1 3\n",  # good outside declared range
        "alloc 1\n2\n0\n1\n",
        "alloc 1\n0 5\n",  # no bundles
        "alloc 2\n2 5\n0\n1\n",
        "",
        "alloc 1\n1000000000 5\n",  # huge n must fail before any allocation
        "alloc 1\n1 1000000000000\n\n",  # huge m must fail before any O(m) work
        "alloc 1\n1 1000001\n\n",  # one past the good-count limit
    ],
)
def test_parse_allocation_rejects_malformed(text):
    with pytest.raises(ParseError):
        parse_allocation(text)
