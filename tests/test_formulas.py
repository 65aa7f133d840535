from math import comb

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from ncb import (
    IntPolynomial,
    annulus_cell_count,
    annulus_connectivity_count,
    annulus_total,
    catalan,
    disc_counts,
    max_chains,
    mobius_annulus,
    mobius_q1,
    multi3_total,
    narayana,
    nc_b_annulus,
    rank_coefficient,
    rank_gen,
    rank_gen_cells,
    rank_gen_compact,
    zeta_poly,
    zeta_poly_q1,
)
from ncb.formulas import annulus_positive_total, binom, gbinom


def test_binom():
    "Out-of-range arguments give zero."
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1


def test_gbinom():
    "The generalized form accepts negative upper arguments."
    assert gbinom(5, 2) == binom(5, 2)
    assert gbinom(-3, 2) == 6
    assert gbinom(-1, 3) == -1
    assert gbinom(5, 0) == 1
    assert gbinom(5, -2) == 0


def test_catalan():
    "First values of the Catalan sequence."
    assert [catalan(n) for n in range(6)] == [1, 1, 2, 5, 14, 42]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_narayana_row(n):
    "Rank counts by block number sum to the Catalan total."
    row = [narayana(n, k) for k in range(n)]
    assert sum(row) == catalan(n)
    assert row == row[::-1]
    with pytest.raises(ValueError):
        narayana(n, n)
    with pytest.raises(ValueError):
        narayana(n, -1)


@pytest.mark.parametrize(
    "n,counts,total,mu_a,mu_b",
    [
        (1, (1, 1), 2, 1, -1),
        (2, (1, 4, 1), 6, -1, 3),
        (3, (1, 9, 9, 1), 20, 2, -10),
    ],
)
def test_disc_counts(n, counts, total, mu_a, mu_b):
    "Closed forms for the one-circle posets of both kinds."
    got = disc_counts(n)
    assert got.rank_counts == counts
    assert got.total == total
    assert got.mobius_a == mu_a
    assert got.mobius_b == mu_b
    assert sum(counts) == total


@pytest.mark.parametrize(
    "p,q,total",
    [(1, 1, 6), (2, 1, 20), (2, 2, 72), (3, 2, 264), (4, 2, 980), (3, 3, 1000)],
)
def test_annulus_total(p, q, total):
    "Annular totals from the product formula."
    assert annulus_total(p, q) == total
    assert annulus_total(q, p) == total


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_connectivity_counts_sum(p, q):
    "Connectivity classes partition the whole poset."
    total = sum(
        annulus_connectivity_count(p, q, c) for c in range(0, min(p, q) + 1)
    )
    assert total == annulus_total(p, q)
    positive = total - annulus_connectivity_count(p, q, 0)
    assert positive == annulus_positive_total(p, q)
    assert annulus_connectivity_count(p, q, min(p, q) + 1) == 0


def test_connectivity_count_spots():
    "Closed-form class sizes on the smallest interesting shape."
    assert annulus_connectivity_count(2, 1, 0) == 12
    assert annulus_connectivity_count(2, 1, 1) == 8
    assert annulus_positive_total(1, 1) == 2


@pytest.mark.parametrize("p,q", [(2, 1), (2, 2), (3, 2)])
def test_cell_counts_refine_connectivity(p, q):
    "Summing cells over block counts recovers each connectivity class."
    for c in range(1, min(p, q) + 1):
        total = sum(
            annulus_cell_count(p, q, c, e, i)
            for e in range(0, p - c + 1)
            for i in range(0, q - c + 1)
        )
        assert total == annulus_connectivity_count(p, q, c)


def test_cell_count_spots():
    "Cell sizes used by the worked example and the smallest shape."
    assert annulus_cell_count(5, 3, 1, 2, 1) == 1800
    assert annulus_cell_count(2, 1, 1, 1, 0) == 4


def test_polynomial_basics():
    "Construction, evaluation, arithmetic, and rendering."
    zero = IntPolynomial([])
    assert str(zero) == "0"
    assert str(IntPolynomial([0])) == "0"
    assert str(IntPolynomial([0, 1])) == "x"
    assert str(IntPolynomial([2, 0, -3])) == "2 + -3*x^2"
    p = IntPolynomial([1, 2, 1])
    assert p.degree == 2
    assert p.coefficient(1) == 2
    assert p.coefficient(9) == 0
    assert p(3) == 16
    assert IntPolynomial([1, 1]) * IntPolynomial([1, 1]) == p
    assert IntPolynomial([1]) + IntPolynomial([0, 1]) == IntPolynomial([1, 1])
    assert IntPolynomial.from_dict({2: -3, 0: 2}) == IntPolynomial([2, 0, -3])
    assert hash(IntPolynomial([1, 1])) == hash(IntPolynomial((1, 1)))


def test_rank_gen_spot():
    "The rank generating polynomial of the smallest unequal shape."
    assert str(rank_gen(2, 1)) == "1 + 9*x + 9*x^2 + x^3"


@pytest.mark.parametrize("p", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q", [1, 2, 3, 4, 5])
def test_rank_gen_forms_agree(p, q):
    "The three-index and two-index forms give the same polynomial."
    assert rank_gen_cells(p, q) == rank_gen_compact(p, q)


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_rank_gen_consistency(p, q):
    "Evaluation at one gives the total; coefficients match the poset."
    poly = rank_gen(p, q)
    assert poly(1) == annulus_total(p, q)
    assert tuple(
        poly.coefficient(k) for k in range(p + q + 1)
    ) == nc_b_annulus(p, q).rank_vector()


@pytest.mark.parametrize(
    "p,q,m,value",
    [(1, 1, 2, 6), (1, 1, 3, 15), (2, 1, 3, 85), (2, 1, 2, 20), (2, 1, 1, 1)],
)
def test_zeta_poly_spots(p, q, m, value):
    "Multichain counts, including the degenerate depth one."
    assert zeta_poly(p, q, m) == value


def test_zeta_poly_negative_argument():
    "Evaluation below zero reproduces the Mobius values."
    assert zeta_poly(2, 1, -1) == -11
    assert zeta_poly(1, 1, -1) == 3
    assert mobius_annulus(2, 1) == -11
    assert mobius_annulus(1, 1) == 3
    assert mobius_annulus(1, 2) == -11


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("m", [-2, -1, 0, 1, 2, 3, 4])
def test_zeta_poly_single_inner_point(n, m):
    "The one-inner-point closed form agrees with the general one."
    assert zeta_poly_q1(n, m) == zeta_poly(n - 1, 1, m)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_mobius_single_inner_point(n):
    "The one-inner-point Mobius closed form."
    assert mobius_q1(n) == mobius_annulus(n - 1, 1)
    assert mobius_q1(n) == zeta_poly_q1(n, -1)


def test_mobius_spot_values():
    "Known Mobius values for the smallest shapes."
    assert mobius_q1(2) == 3
    assert mobius_q1(3) == -11
    assert mobius_q1(4) == 40


@pytest.mark.parametrize(
    "p,q,count", [(1, 1, 4), (2, 1, 28), (3, 2, 3672), (2, 3, 3672)]
)
def test_max_chains_spots(p, q, count):
    "Closed-form counts of maximal chains."
    assert max_chains(p, q) == count


def test_multi3_total():
    "Three-circle totals, symmetric in the circle sizes."
    assert multi3_total(1, 1, 1) == 20
    assert multi3_total(1, 1, 2) == 68
    assert multi3_total(2, 1, 1) == 68
    assert multi3_total(1, 2, 1) == 68


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8))
def test_paired_binomial_sum(p, q, c):
    "Shifted products of binomials telescope to a central binomial."
    total = sum(binom(p, e) * binom(p, e + c) for e in range(p + 1))
    assert total == binom(2 * p, p - c)


@given(st.integers(1, 6), st.integers(1, 6))
def test_zeta_poly_at_two_is_total(p, q):
    "Depth two counts single elements."
    assert zeta_poly(p, q, 2) == annulus_total(p, q)


# Per-term references: each term of each sum from math.comb alone, the way
# the closed forms read in the paper.


def gbinom_reference(a, k):
    "C(a, k) for any integer a, by upper negation for a < 0."
    if k < 0:
        return 0
    if a >= 0:
        return comb(a, k)
    return (-1) ** k * comb(k - a - 1, k)


def zeta_reference(p, q, m):
    "Multichain count summed by connectivity c."
    return gbinom_reference(m * p, p) * gbinom_reference(m * q, q) + sum(
        2 * c * gbinom_reference(m * p, p - c) * gbinom_reference(m * q, q + c)
        for c in range(1, p + 1)
    )


def mobius_reference(p, q):
    "Moebius value between bottom and top, summed by connectivity c."
    total = comb(2 * p - 1, p) * comb(2 * q - 1, q) + sum(
        2 * c * comb(2 * p - c - 1, p - 1) * comb(2 * q + c - 1, q - 1)
        for c in range(1, p + 1)
    )
    return (-1) ** (p + q) * total


def max_chains_reference(p, q):
    "Maximal chain count summed by connectivity c."
    return comb(p + q, p) * p**p * q**q + sum(
        2 * c * comb(p + q, p - c) * p ** (p - c) * q ** (q + c)
        for c in range(1, p + 1)
    )


sizes = st.integers(1, 40)


@settings(max_examples=40, deadline=None)
@given(sizes, sizes)
def test_rank_coefficient_matches_cell_sum(p, q):
    "A single rank coefficient equals the one read off the cell-by-cell sum."
    poly = rank_gen_cells(p, q)
    for k in range(-1, p + q + 2):
        assert rank_coefficient(p, q, k) == poly.coefficient(k), k


@settings(max_examples=40, deadline=None)
@given(sizes, sizes)
def test_rank_gen_compact_matches_cell_sum(p, q):
    "The integer double sum equals the cell-by-cell sum."
    assert rank_gen_compact(p, q) == rank_gen_cells(p, q)


@settings(max_examples=60, deadline=None)
@given(sizes, sizes, st.integers(-3, 5))
def test_zeta_poly_matches_reference(p, q, m):
    "The ratio walk equals the per-term sum, for negative and zero m too."
    assert zeta_poly(p, q, m) == zeta_reference(p, q, m)


@settings(max_examples=60, deadline=None)
@given(sizes, sizes)
def test_mobius_annulus_matches_reference(p, q):
    "The ratio walk equals the per-term sum and the zeta polynomial at -1."
    assert mobius_annulus(p, q) == mobius_reference(p, q) == zeta_poly(p, q, -1)


@settings(max_examples=60, deadline=None)
@given(sizes, sizes)
def test_max_chains_matches_reference(p, q):
    "The Horner form equals the per-term sum."
    assert max_chains(p, q) == max_chains_reference(p, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-2, 40))
def test_gbinom_matches_reference(a, k):
    "The ratio walk equals math.comb with upper negation."
    assert gbinom(a, k) == gbinom_reference(a, k)
