"""Data model for two-value fair division and exact Nash-welfare arithmetic.

Every agent values each good at one of two integers: q ("big", the goods
listed in its big set) or p ("small", everything else), with 0 <= p < q.
Welfare products are kept as arbitrary-precision integers so comparisons are
exact; floating point appears only in display helpers.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import chain
from typing import Iterable, Iterator, Sequence

INSTANCE_MAGIC = "nsw2v 1"
ALLOCATION_MAGIC = "alloc 1"
# the largest good or agent count a file may declare; the solver and validation do O(n + m) work
MAX_GOODS = 10**6
# the most (agent, good) pairs prng.random_big_sets draws, one stream value each
MAX_PAIRS = 10**7
# the largest decimal exponent magnitude parse_rational reads, the interpreter's default
# int-to-str digit limit; Fraction would build 10**|e| before any caller's range check
MAX_EXPONENT = 4300
# the most fields of one record line formatted at once; a longer line is written in slices
_ROW_SLICE = 4096
# the line boundaries of str.splitlines, "\r\n" first so that it is one boundary
_LINE_BREAK = re.compile("\r\n|[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


class ParseError(ValueError):
    """Raised for malformed instance or allocation files."""


def canonicalize(p: int, q: int) -> tuple[int, int]:
    """Reduce a value pair (p, q) by its gcd.

    Scaling both values by a common factor reorders no allocation products,
    so instances are always stored in coprime form.
    """
    if q <= 0:
        raise ValueError(f"big value must be positive, got q={q}")
    if not 0 <= p < q:
        raise ValueError(f"values must satisfy 0 <= p < q, got p={p}, q={q}")
    g = math.gcd(p, q)
    return p // g, q // g


def _check_shape(n: int, m: int, p: int, q: int) -> tuple[int, int]:
    """An instance's size and value checks, in the order Instance makes them; returns canonical (p, q)."""
    if n < 1:
        raise ValueError(f"need at least one agent, got n={n}")
    if m < 0:
        raise ValueError(f"good count must be non-negative, got m={m}")
    return canonicalize(p, q)


@dataclass(frozen=True)
class Instance:
    """A two-value instance: agent i values goods in big_sets[i] at q, the rest at p.

    The value pair is canonicalized on construction, so p == 0 encodes the
    dichotomous case (small goods worth nothing).
    """

    n: int
    m: int
    p: int
    q: int
    big_sets: tuple[frozenset[int], ...]
    # goods that are big for at least one agent: the union the range check takes
    big_goods: frozenset[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        p, q = _check_shape(self.n, self.m, self.p, self.q)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        sets = tuple(map(frozenset, self.big_sets))
        if len(sets) != self.n:
            raise ValueError(f"expected {self.n} big sets, got {len(sets)}")
        held = frozenset().union(*sets)
        # one range check on the union; the scan only names the first offender
        if held and (min(held) < 0 or max(held) >= self.m):
            for i, s in enumerate(sets):
                for g in s:
                    if not 0 <= g < self.m:
                        raise ValueError(f"agent {i} lists good {g} outside 0..{self.m - 1}")
        object.__setattr__(self, "big_sets", sets)
        object.__setattr__(self, "big_goods", held)

    @cached_property
    def big_for(self) -> tuple[tuple[int, ...], ...]:
        """For each good, the agents that value it big, in ascending order.

        Derived from big_sets on first use and never set.
        """
        columns: list[list[int]] = [[] for _ in range(self.m)]
        for i, s in enumerate(self.big_sets):
            for g in s:
                columns[g].append(i)
        return tuple(map(tuple, columns))

    @cached_property
    def small_goods(self) -> frozenset[int]:
        """Goods that are small for every agent."""
        return frozenset(range(self.m)) - self.big_goods

    def value(self, agent: int, good: int) -> int:
        return self.q if good in self.big_sets[agent] else self.p


@dataclass(frozen=True)
class Allocation:
    """One bundle of good indices per agent.

    Construction is the one place bundles are frozen: any iterables of goods
    may be passed, and callers hand over their working sets as they are. The
    container itself does not force a partition; validate_allocation reports
    disjointness and coverage so that checking stays explicit.
    """

    bundles: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "bundles", tuple(frozenset(b) for b in self.bundles))

    @property
    def n(self) -> int:
        return len(self.bundles)

    @property
    def loads(self) -> tuple[int, ...]:
        """Size of each bundle; for phase-1 output, the number of big goods each agent holds."""
        return tuple(len(b) for b in self.bundles)

    @classmethod
    def from_owners(cls, n: int, owners: Sequence[int]) -> "Allocation":
        """Build bundles from an owner vector (owners[g] is the agent holding good g)."""
        bundles: list[set[int]] = [set() for _ in range(n)]
        for g, a in enumerate(owners):
            bundles[a].add(g)
        return cls(bundles)

    def owner_of(self) -> dict[int, int]:
        """Map each assigned good to its owner; a duplicated good keeps the lowest agent."""
        owners: dict[int, int] = {}
        for i, bundle in enumerate(self.bundles):
            for g in bundle:
                owners.setdefault(g, i)
        return owners


@dataclass(frozen=True)
class ValuationProfile:
    """Per-agent counts of big and small goods held, and total values in units of (p, q)."""

    big_counts: tuple[int, ...]
    small_counts: tuple[int, ...]
    values: tuple[int, ...]


def valuation_profile(inst: Instance, alloc: Allocation) -> ValuationProfile:
    if alloc.n != inst.n:
        raise ValueError(f"allocation has {alloc.n} bundles for {inst.n} agents")
    big = []
    small = []
    values = []
    for i, bundle in enumerate(alloc.bundles):
        b = len(bundle & inst.big_sets[i])
        s = len(bundle) - b
        big.append(b)
        small.append(s)
        values.append(inst.q * b + inst.p * s)
    return ValuationProfile(tuple(big), tuple(small), tuple(values))


@total_ordering
@dataclass(frozen=True, eq=False)
class NswValue:
    """Exact product of the n agent values.

    Ordering geometric means with a fixed n is the same as ordering the
    integer products, so comparisons never touch floating point.
    """

    n: int
    q: int
    product: int

    @property
    def float_scaled(self) -> float:
        """Geometric mean with big goods scaled to 1.0; for display only.

        q is divided out inside the exponent: the mean itself may be past the
        float range when q is huge, but the scaled mean is at most m.
        """
        if self.product == 0:
            return 0.0
        return math.exp(math.log(self.product) / self.n - math.log(self.q))

    def _comparable(self, other: "NswValue") -> None:
        if self.n != other.n or self.q != other.q:
            raise ValueError("cannot compare welfare values from differently shaped instances")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NswValue):
            return NotImplemented
        self._comparable(other)
        return self.product == other.product

    def __lt__(self, other: "NswValue") -> bool:
        if not isinstance(other, NswValue):
            return NotImplemented
        self._comparable(other)
        return self.product < other.product

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.product))


def nsw_product(inst: Instance, alloc: Allocation) -> NswValue:
    """Exact welfare product of an allocation; an empty bundle contributes a zero factor."""
    profile = valuation_profile(inst, alloc)
    return NswValue(inst.n, inst.q, math.prod(profile.values))


@dataclass(frozen=True)
class ValidationReport:
    complete: bool
    disjoint: bool
    nonwasteful: bool
    out_of_range: tuple[int, ...]


def validate_allocation(inst: Instance, alloc: Allocation) -> ValidationReport:
    """Check partition and non-wastefulness properties of an allocation.

    nonwasteful means every bundle holds only goods big for its owner and the
    bundles together cover exactly the goods that are big for someone.
    """
    if alloc.n != inst.n:
        raise ValueError(f"allocation has {alloc.n} bundles for {inst.n} agents")
    held = frozenset().union(*alloc.bundles)
    disjoint = len(held) == sum(map(len, alloc.bundles))
    out_of_range = tuple(sorted(held.difference(range(inst.m))))
    complete = len(held) - len(out_of_range) == inst.m
    inside = all(bundle <= inst.big_sets[i] for i, bundle in enumerate(alloc.bundles))
    nonwasteful = inside and held == inst.big_goods
    return ValidationReport(complete, disjoint, nonwasteful, out_of_range)


def _long_exponent(text: str) -> bool:
    """Whether text is a valid Fraction literal with a decimal exponent past MAX_EXPONENT."""
    head, marker, exponent = text.replace("E", "e").rpartition("e")
    try:
        if not marker or abs(int(exponent)) <= MAX_EXPONENT:
            return False
        # zeroing the exponent's digits keeps the literal valid exactly when it was
        Fraction(head + marker + re.sub(r"\d", "0", exponent))
    except ValueError:
        return False
    return True


def parse_rational(text: str) -> Fraction:
    """The exact rational a text such as "1/3", "0.25" or "5e-3" names; the one text-to-Fraction path.

    Malformed text, a zero denominator and a decimal exponent past MAX_EXPONENT
    raise ParseError, the exponent before 10**|e| is built.
    """
    if _long_exponent(text):
        raise ParseError(f"decimal exponent in {text!r} exceeds the limit of {MAX_EXPONENT}")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc
    except ZeroDivisionError as exc:
        raise ParseError(f"zero denominator in {text!r}") from exc


def format_rational(value: int | Fraction) -> str:
    """str(value) of an int or a Fraction, at any length.

    Decimal converts from the int's binary digits, so the interpreter's
    int-to-str limit (4300 digits by default) stays in force for every parser.
    """
    text = str(Decimal(value.numerator))
    return text if value.denominator == 1 else f"{text}/{Decimal(value.denominator)}"


def _int_fields(line: str, what: str) -> list[int]:
    try:
        return list(map(int, line.split()))
    except ValueError as exc:
        raise ParseError(f"{what}: expected integers, got {line!r}") from exc


def _read_header(text: str, magic: str, fields: str = "") -> tuple[list[int], str]:
    """Check the tag line; return the integer sizes named by fields, if any, and the text after them.

    Only the tag and size lines are split off, at the boundaries str.splitlines
    uses, so a caller checks the sizes before it splits the rest into lines.
    """
    tag, at = _line_at(text, 0)
    if tag.strip() != magic:
        raise ParseError(f"expected {magic!r} on the first line")
    if not fields:
        return [], text[at:]
    size_line, at = _line_at(text, at)
    sizes = _int_fields(size_line, "size line")
    if len(sizes) != len(fields.split()):
        raise ParseError(f"size line must hold {fields!r}, got {size_line!r}")
    return sizes, text[at:]


def _line_at(text: str, start: int) -> tuple[str, int]:
    """The line of text from start up to the next str.splitlines boundary, and where the next line starts."""
    end = _LINE_BREAK.search(text, start)
    return (text[start:], len(text)) if end is None else (text[start:end.start()], end.end())


def _records(body: str, count: int, what: str) -> list[list[int]]:
    """The integer fields of count record lines of body; the count must be non-negative.

    Only blank lines may follow, and only the last line may be missing, reading as empty.
    """
    if count < 0:
        raise ParseError(f"{what} count must be non-negative, got {count}")
    lines = body.splitlines()
    if any(extra.strip() for extra in lines[count:]):
        raise ParseError(f"trailing content after {count} {what} lines")
    if len(lines) < count - 1:
        raise ParseError(f"expected {count} {what} lines, got {len(lines)}")
    lines = lines[:count] + [""] * (count - len(lines))
    return [_int_fields(line, f"{what} {i}") for i, line in enumerate(lines)]


def _check_counts(n: int, m: int, what: str) -> None:
    """Refuse a declared good count m, or a count n of what (agents or bundles), past MAX_GOODS."""
    if m > MAX_GOODS:
        raise ParseError(f"good count {m} exceeds the limit of {MAX_GOODS}")
    if n > MAX_GOODS:
        raise ParseError(f"{what} count {n} exceeds the limit of {MAX_GOODS}")


def _record_lines(magic: str, header: Sequence[object], records: Iterable[Sequence]) -> Iterator[str]:
    """The tag line, then the header and each record as one line of space-separated fields.

    Each line ends in a newline, and records are formatted only as they are
    consumed, so a writer can stream a file one line at a time. A record of
    more than _ROW_SLICE fields comes in slices of that many, so the text of
    a whole long line is never held.
    """
    yield magic + "\n"
    for fields in chain((header,), records):
        for start in range(0, len(fields) or 1, _ROW_SLICE):
            end = start + _ROW_SLICE
            yield " ".join(map(str, fields[start:end])) + (" " if end < len(fields) else "\n")
        del fields  # freed before the next record is drawn, so one long record is held at a time


def _write_records(magic: str, header: Sequence[object], records: Iterable[Sequence]) -> str:
    return "".join(_record_lines(magic, header, records))


def parse_instance(text: str) -> Instance:
    (n, m, p, q), body = _read_header(text, INSTANCE_MAGIC, "n m p q")
    _check_counts(n, m, "agent")
    big_sets = _records(body, n, "agent")
    try:
        return Instance(n, m, p, q, big_sets)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def serialize_instance(inst: Instance) -> str:
    header = (inst.n, inst.m, inst.p, inst.q)
    return _write_records(INSTANCE_MAGIC, header, map(sorted, inst.big_sets))


def parse_allocation(text: str) -> tuple[Allocation, int]:
    """Parse an allocation file; returns the allocation and the declared good count."""
    (n, m), body = _read_header(text, ALLOCATION_MAGIC, "n m")
    _check_counts(n, m, "bundle")
    if n < 1 or m < 0:
        raise ParseError(f"need at least one bundle and m >= 0, got n={n}, m={m}")
    bundles = _records(body, n, "bundle")
    for i, goods in enumerate(bundles):
        for g in goods:
            if not 0 <= g < m:
                raise ParseError(f"bundle {i} lists good {g} outside 0..{m - 1}")
    return Allocation(bundles), m


def serialize_allocation(alloc: Allocation, m: int) -> str:
    return _write_records(ALLOCATION_MAGIC, (alloc.n, m), map(sorted, alloc.bundles))
