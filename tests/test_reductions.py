"""Matching reductions, the type-accounting program, and hardness constants."""

import math
from fractions import Fraction

import pytest

from nsw2v import (
    LpCertificate,
    ParseError,
    PdmInstance,
    ReductionError,
    coprime_solutions,
    exact_optimum,
    find_perfect_matching,
    hardness_constants,
    matching_to_allocation,
    nsw_product,
    optimal_certificate,
    parse_certificate,
    parse_pdm,
    reduce_gap4dm,
    reduce_pdm,
    serialize_certificate,
    serialize_pdm,
    validate_allocation,
    valuation_profile,
    verify_apx_lp,
)
from nsw2v.core import MAX_GOODS
from nsw2v.prng import splitmix64


def tripartite() -> PdmInstance:
    # edges 0 and 1 form the unique perfect matching; edge 2 reuses their vertices
    return PdmInstance(3, 2, ((0, 0, 0), (1, 1, 1), (0, 1, 0)))


def unmatched_pair() -> PdmInstance:
    # both edges share vertex 0 of class 0
    return PdmInstance(3, 2, ((0, 0, 0), (0, 1, 1)))


# ---------------------------------------------------------------- reductions

def test_reduce_pdm_shapes_example():
    inst = reduce_pdm(tripartite(), 5)
    assert (inst.n, inst.m, inst.p, inst.q) == (3, 11, 3, 5)
    assert inst.big_sets == (
        frozenset({0, 2, 4}),
        frozenset({1, 3, 5}),
        frozenset({0, 3, 4}),
    )
    # goods 6..10 are the dummies nobody values big
    assert all(g not in b for b in inst.big_sets for g in range(6, 11))


def test_reduce_pdm_preconditions():
    with pytest.raises(ReductionError):
        reduce_pdm(PdmInstance(2, 1, ((0, 0),)), 5)  # dimension below 3
    with pytest.raises(ReductionError):
        reduce_pdm(tripartite(), 3)  # q must exceed p
    with pytest.raises(ReductionError):
        reduce_pdm(tripartite(), 6)  # q must be coprime with p
    with pytest.raises(ReductionError):
        reduce_pdm(PdmInstance(3, 2, ((0, 0, 0),)), 5)  # fewer edges than n


def test_reductions_refuse_more_goods_than_an_instance_file_may_declare():
    # two edges on n = 1 leave one unmatched agent, so m = 3 + q
    g = PdmInstance(3, 1, ((0, 0, 0), (0, 0, 0)))
    assert reduce_pdm(g, MAX_GOODS - 3).m == MAX_GOODS
    with pytest.raises(ReductionError, match=f"good count {MAX_GOODS + 1} exceeds the limit of {MAX_GOODS}"):
        reduce_pdm(g, MAX_GOODS - 2)


def test_perfect_matching_search():
    assert find_perfect_matching(tripartite()) == frozenset({0, 1})
    assert find_perfect_matching(unmatched_pair()) is None


def test_matching_allocation_attains_value_pq_everywhere():
    g = tripartite()
    inst = reduce_pdm(g, 5)
    alloc = matching_to_allocation(g, find_perfect_matching(g), inst)
    report = validate_allocation(inst, alloc)
    assert report.complete and report.disjoint
    assert valuation_profile(inst, alloc).values == (15, 15, 15)
    value = nsw_product(inst, alloc)
    assert value.product == 15 ** 3
    assert math.isclose(value.float_scaled, 3.0, rel_tol=1e-12)


def test_matching_allocation_is_oracle_optimal():
    g = tripartite()
    inst = reduce_pdm(g, 5)
    best, _ = exact_optimum(inst)
    assert best.product == 15 ** 3


def test_no_matching_forces_a_strictly_lower_product():
    g = unmatched_pair()
    inst = reduce_pdm(g, 5)
    best, _ = exact_optimum(inst)
    assert best.product < 15 ** 2


def test_matching_allocation_rejects_bad_matchings():
    g = tripartite()
    inst = reduce_pdm(g, 5)
    with pytest.raises(ValueError):
        matching_to_allocation(g, [0], inst)  # not perfect
    with pytest.raises(ValueError):
        matching_to_allocation(g, [0, 2], inst)  # edges share vertices
    with pytest.raises(ValueError, match=r"^edge index 9 outside 0\.\.2$"):
        matching_to_allocation(g, [0, 9], inst)
    with pytest.raises(ValueError):
        matching_to_allocation(g, [0, 1], reduce_pdm(unmatched_pair(), 5))


def test_reduce_gap4dm_shapes_and_target():
    g = PdmInstance(4, 1, ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    inst = reduce_gap4dm(g, 1)
    assert (inst.n, inst.m, inst.p, inst.q) == (3, 14, 4, 5)
    alloc = matching_to_allocation(g, [0], inst)
    assert valuation_profile(inst, alloc).values == (20, 20, 20)
    # k = 0 adds dummies for all three agents, one more set than the two unmatched ones need
    with pytest.raises(ValueError, match="^instance dummy goods do not fit the unmatched agents$"):
        matching_to_allocation(g, [0], reduce_gap4dm(g, 0))


def test_reduce_gap4dm_preconditions():
    g = PdmInstance(4, 1, ((0, 0, 0, 0), (0, 0, 0, 0), (0, 0, 0, 0)))
    with pytest.raises(ReductionError):
        reduce_gap4dm(tripartite(), 1)  # dimension must be 4
    with pytest.raises(ReductionError):
        reduce_gap4dm(PdmInstance(4, 1, ((0, 0, 0, 0),)), 1)  # m must be 3n
    with pytest.raises(ReductionError):
        reduce_gap4dm(g, 2)  # target above n


def test_pdm_instance_validation():
    with pytest.raises(ValueError):
        PdmInstance(0, 2, ((),))
    with pytest.raises(ValueError):
        PdmInstance(3, 0, ((0, 0, 0),))
    with pytest.raises(ValueError):
        PdmInstance(3, 2, ())
    with pytest.raises(ValueError):
        PdmInstance(3, 2, ((0, 0),))
    with pytest.raises(ValueError):
        PdmInstance(3, 2, ((0, 0, 2),))


def test_coprime_solutions_pin_the_two_pure_types():
    assert coprime_solutions(4, 5) == {(4, 0), (0, 5)}
    assert coprime_solutions(1, 2) == {(1, 0), (0, 2)}
    with pytest.raises(ValueError):
        coprime_solutions(2, 4)
    with pytest.raises(ValueError):
        coprime_solutions(3, 3)


# ----------------------------------------------------------- type accounting

def test_optimal_certificate_is_feasible_with_three_tight_rows():
    report = verify_apx_lp(optimal_certificate())
    assert report.feasible
    assert report.slacks["mass"] == 0
    assert report.tight == ("type4", "big_supply", "small_supply")
    expected = (math.log(4.2) + math.log(3.8) + 160 * math.log(4.0)) / 162
    assert math.isclose(report.objective, expected, rel_tol=0, abs_tol=1e-12)


def test_certificate_infeasibility_cases():
    assert not verify_apx_lp(LpCertificate(Fraction(0), {})).feasible  # mass 0
    too_many_fours = LpCertificate(Fraction(0), {(4, 0): Fraction(1)})
    report = verify_apx_lp(too_many_fours)
    assert not report.feasible
    assert report.slacks["type4"] < 0
    negative = LpCertificate(Fraction(0), {(0, 5): Fraction(2), (1, 0): Fraction(-1)})
    assert not verify_apx_lp(negative).feasible
    bad_alpha = LpCertificate(Fraction(3, 2), {(0, 5): Fraction(1)})
    assert not verify_apx_lp(bad_alpha).feasible


def test_eps_relaxes_the_tight_rows():
    report = verify_apx_lp(optimal_certificate(), eps=Fraction(1, 100))
    assert report.feasible
    assert report.slacks["type4"] > 0
    assert report.slacks["small_supply"] > 0
    assert report.tight == ("big_supply",)


def test_zero_utility_type_sends_the_objective_to_minus_infinity():
    cert = LpCertificate(Fraction(0), {(0, 0): Fraction(1)})
    report = verify_apx_lp(cert)
    assert report.objective == float("-inf")
    # a zero weight on the zero-utility type is no term at all
    cert = LpCertificate(Fraction(0), {(0, 0): Fraction(0), (4, 0): Fraction(1)})
    assert verify_apx_lp(cert).objective == math.log(4)


def test_certificate_grid_bounds():
    with pytest.raises(ValueError):
        LpCertificate(Fraction(0), {(5, 0): Fraction(1)})
    with pytest.raises(ValueError):
        LpCertificate(Fraction(0), {(0, 7): Fraction(1)})


def test_hardness_constants_land_in_their_intervals():
    constants = hardness_constants()
    assert 1.0344 < constants["approx_upper"] < 1.0345
    assert 1.0000154 < constants["apx_lower"] < 1.0000155
    # the lower bound is what the optimal certificate implies
    report = verify_apx_lp(optimal_certificate())
    assert math.isclose(
        constants["apx_lower"], 4.0 / math.exp(report.objective), rel_tol=1e-15
    )
    assert math.isclose(
        constants["apx_lower"], (16 / 15.96) ** (1 / 162), rel_tol=1e-12
    )


# -------------------------------------------------------------- file formats

PDM_TEXT = "pdm 1\n3 2 3\n0 0 0\n1 1 1\n0 1 0\n"


def test_pdm_round_trip():
    g = parse_pdm(PDM_TEXT)
    assert g == tripartite()
    assert serialize_pdm(g) == PDM_TEXT
    assert parse_pdm(serialize_pdm(g)) == g
    stream = splitmix64(12)
    for _ in range(200):
        dim = 1 + next(stream) % 4
        n = 1 + next(stream) % 3
        edges = tuple(
            tuple(next(stream) % n for _ in range(dim)) for _ in range(1 + next(stream) % 5)
        )
        g = PdmInstance(dim, n, edges)
        text = serialize_pdm(g)
        assert parse_pdm(text) == g
        assert serialize_pdm(parse_pdm(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "pdm 2\n3 2 3\n0 0 0\n1 1 1\n0 1 0\n",
        "pdm 1\n3 2\n0 0 0\n",
        "pdm 1\n3 2 2\n0 0 0\n",
        "pdm 1\n3 2 1\n0 x 0\n",
        "pdm 1\n3 2 1\n0 0 0\nleftover\n",
        "pdm 1\n3 2 1\n0 0 5\n",
        "pdm 1\n3 2 -1\n0 0 0\n\n",  # negative edge count
    ],
)
def test_pdm_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse_pdm(text)


def test_certificate_round_trip():
    cert = optimal_certificate()
    text = serialize_certificate(cert)
    assert text.startswith("lpcert 1\nalpha 0\n")
    again = parse_certificate(text)
    assert again.alpha == cert.alpha
    assert again.x == cert.x
    # blank lines may stand between entries
    assert parse_certificate(text.replace("\n1 4", "\n\n1 4")) == cert
    stream = splitmix64(13)

    def rational() -> Fraction:
        # signed numerators up to 2**96 in size, denominators up to 2**64
        size = 1 << (next(stream) % 97)
        return Fraction(next(stream) % (2 * size + 1) - size, 1 + next(stream) % size)

    for _ in range(200):
        types = {(next(stream) % 5, next(stream) % 7) for _ in range(next(stream) % 8)}
        cert = LpCertificate(rational(), {t: rational() for t in types})
        text = serialize_certificate(cert)
        assert parse_certificate(text) == cert
        assert serialize_certificate(parse_certificate(text)) == text


@pytest.mark.parametrize(
    "text",
    [
        "",
        "lpcert 1\n",
        "lpcert 1\nalpha x\n",
        "lpcert 1\nalpha 0 1\n",
        "lpcert 1\nalpha 0\n4 0\n",
        "lpcert 1\nalpha 0\n4 0 1/2\n4 0 1/2\n",
        "lpcert 1\nalpha 0\n9 0 1\n",
    ],
)
def test_certificate_rejects_malformed_text(text):
    with pytest.raises(ParseError):
        parse_certificate(text)
