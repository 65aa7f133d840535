import re
from array import array
from math import comb, factorial, isqrt, prod
from random import Random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from ncb import (
    IntPolynomial,
    annulus_cell_count,
    annulus_connectivity_count,
    annulus_total,
    max_chains,
    mobius_annulus,
    mobius_disc,
    mobius_q1,
    nc_b_annulus,
    nc_b_multi,
    rank_coefficient,
    rank_gen,
    rank_gen_cells,
    rank_gen_compact,
    rank_gen_disc,
    zeta_poly,
    zeta_poly_q1,
)
from ncb import formulas
from ncb.formulas import (
    GradedChains,
    _at_plus_minus_y,
    _binom_row,
    _by_primes,
    _exact_slots,
    _pack,
    _prime_factor_binom,
    _recombine,
    annulus_positive_total,
    binom,
    gbinom,
    over_matchings,
)
from oracles import (
    catalan,
    mobius_a,
    multi3_total,
    narayana,
    rank_gen_by_cell_counts,
    rank_gen_by_products,
    schoolbook_mul,
)
from test_acceptance import size_tuples


def test_binom():
    "Out-of-range arguments give zero."
    assert binom(5, 2) == 10
    assert binom(5, -1) == 0
    assert binom(3, 5) == 0
    assert binom(0, 0) == 1


def crossover(a):
    "The least k at which binom(a, k) takes the prime-factor path, else a//2 + 1."
    return next((k for k in range(a // 2 + 1) if _by_primes(a, k)), a // 2 + 1)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 20_000),
    st.sampled_from(["zero", "crossover", "mirror", "half", "top"]),
    st.integers(-3, 3),
)
@example(20_000, "crossover", 0)
@example(20_000, "half", 0)
@example(1600, "half", 0)
def test_binom_matches_math_comb(a, anchor, offset):
    "On both sides of the crossover, and out of range, binom is math.comb."
    k = crossover(a)
    center = {"zero": 0, "crossover": k, "mirror": a - k, "half": a // 2, "top": a}
    b = center[anchor] + offset
    assert binom(a, b) == (comb(a, b) if b >= 0 else 0)


def test_binom_small_rows_are_those_the_rule_never_takes():
    "Below _COMB_ROWS the rule takes no row, so the guard moves none."
    taken = [
        (a, k)
        for a in range(formulas._COMB_ROWS)
        for k in range(a // 2 + 1)
        if _by_primes(a, k)
    ]
    assert taken == []
    assert formulas._COMB_ROWS == 1024
    assert _by_primes(1024, 512) and not _by_primes(1024, 511)


def test_binom_far_from_the_middle_uses_math_comb(monkeypatch):
    "Past a = 8k one binomial would not pay for its prime table: math.comb keeps it."
    assert _by_primes(8 * 3200, 3200) and not _by_primes(8 * 3200 + 1, 3200)
    assert not _by_primes(4_000_000, 40_000)  # k * k >= 160 a alone would take it
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return comb(a, b)

    monkeypatch.setattr(formulas, "comb", spy)
    monkeypatch.setattr(formulas, "_prime_factor_binom", None)
    binom(4_000_000, 40_000)
    assert calls == [(4_000_000, 40_000)]


def test_prime_factor_binom_on_small_rows():
    "The prime-factor product is C(a, b) on rows the crossover never sends it."
    for a in range(61):
        assert [_prime_factor_binom(a, b) for b in range(a + 1)] == [
            comb(a, b) for b in range(a + 1)
        ], a


def plain_primes(limit):
    "The primes up to limit, by a sieve of every number."
    sieve = [True] * (limit + 1)
    for i in range(2, limit + 1):
        if sieve[i]:
            sieve[i * i :: i] = [False] * len(range(i * i, limit + 1, i))
    return [p for p in range(2, limit + 1) if sieve[p]]


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 20_000), min_size=1, max_size=4), st.integers(-2, 2))
@example([20_000, 1024, 5000], 0)
@example([1023, 1024, 1025], -1)
@example([3, 0, 1], 1)
def test_prime_table_grows_to_a_plain_sieve(rows, offset):
    "Grown in any order of rows, the table is a plain sieve; binom stays math.comb."
    saved = formulas._prime_table
    formulas._prime_table = (2, array("I", [2]))  # as at import
    try:
        for a in rows:
            k = crossover(a)
            for b in {k + offset, k - 1, a - k - offset, a // 2 + offset}:
                assert binom(a, b) == (comb(a, b) if 0 <= b <= a else 0), (a, b)
                if b >= 0:  # C(-(a - b + 1), b) = (-1)^b C(a, b)
                    assert gbinom(b - a - 1, b) == (-1) ** b * comb(a, b), (a, b)
            before = formulas._prime_table[0]
            primes = formulas._primes_to(a)
            limit = formulas._prime_table[0]
            assert limit >= a and limit & (limit - 1) == 0 and limit >= before
            assert primes is formulas._prime_table[1]
            assert primes.tolist() == plain_primes(limit)
    finally:
        formulas._prime_table = saved


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
    assert rank_gen_disc(n).coefficients == counts
    assert binom(2 * n, n) == total
    assert mobius_a(n) == mu_a
    assert mobius_disc(n) == mu_b
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
    for c in range(0, min(p, q) + 1):
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
    assert len(p.coefficients) == 3
    assert p.coefficient(1) == 2
    assert p.coefficient(9) == 0
    assert p(3) == 16
    assert IntPolynomial([1, 1]) * IntPolynomial([1, 1]) == p
    assert IntPolynomial([1]) + IntPolynomial([0, 1]) == IntPolynomial([1, 1])
    assert p - IntPolynomial([1, 1]) == IntPolynomial([0, 1, 1])
    assert p - p == zero
    assert hash(IntPolynomial([1, 1])) == hash(IntPolynomial((1, 1)))


@pytest.mark.parametrize(
    "coefficients, bad",
    [([2.9], 2.9), ([True], True), (["7"], "7"), ([1, 2.0], 2.0), ([0, None], None)],
)
def test_polynomial_rejects_coefficients_that_are_not_ints(coefficients, bad):
    "Only exact ints are coefficients: nothing is truncated or converted."
    with pytest.raises(ValueError, match=re.escape(f"coefficient {bad!r} is not an int")):
        IntPolynomial(coefficients)


POSITIVE = "circle sizes must be positive"


@pytest.mark.parametrize(
    "formula, args, message",
    [
        (binom, (-1, 0), "upper argument must be nonnegative; use gbinom"),
        (mobius_disc, (0,), "n must be positive"),
        (annulus_cell_count, (0, 1, 1, 0, 0), POSITIVE),
        (annulus_connectivity_count, (1, 0, 0), POSITIVE),
        (annulus_total, (0, 1), POSITIVE),
        (rank_gen_cells, (1, 0), POSITIVE),
        (rank_gen_compact, (0, 1), POSITIVE),
        (rank_gen_disc, (0,), "n must be positive"),
        (rank_coefficient, (0, 1, 0), POSITIVE),
        (zeta_poly, (1, 0, 2), POSITIVE),
        (zeta_poly_q1, (1, 2), "n must be at least 2"),
        (max_chains, (0, 1), POSITIVE),
        (mobius_annulus, (1, 0), POSITIVE),
        (mobius_q1, (1,), "n must be at least 2"),
    ],
    ids=lambda value: getattr(value, "__name__", None),
)
def test_closed_forms_refuse_sizes_below_their_range(formula, args, message):
    "A size below a closed form's range is refused with its message."
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        formula(*args)


@st.composite
def signed_lists(draw):
    "Coefficient lists of one bit size, up to 4,000 bits, with either sign."
    top = 2 ** draw(st.sampled_from([0, 1, 7, 8, 9, 63, 64, 300, 4000])) - 1
    if draw(st.booleans()):  # one extreme value throughout: the widest products
        return [draw(st.sampled_from([top, -top]))] * draw(st.integers(0, 40))
    return draw(st.lists(st.integers(-top, top), max_size=40))


@settings(max_examples=200, deadline=None)
@given(signed_lists(), signed_lists())
@example([], [1, 2])
@example([0, 0, 0], [5, -5])
@example([7], [-3])
@example([1, 2, 0, 0], [3, 0])
@example([-1, 2, -3, 4], [5, -6, 7])
@example([2**4000 - 1] * 40, [-(2**4000 - 1)] * 40)
@example([255] * 40, [-255] * 3)
@example([1] * 40, [-(2**4000) + 1])
def test_product_matches_schoolbook(a, b):
    "The Kronecker-substitution product equals the term-by-term product."
    p, q = IntPolynomial(a), IntPolynomial(b)
    assert p * q == schoolbook_mul(p, q) == q * p


def test_rank_gen_matches_rank_coefficient_at_scale():
    "Every coefficient of the (300, 200) polynomial equals its diagonal sum."
    poly = rank_gen(300, 200)
    assert len(poly.coefficients) == 501
    for k in range(-1, 502):
        assert poly.coefficient(k) == rank_coefficient(300, 200, k), k


def test_two_circle_rank_gen_is_four_half_width_products(monkeypatch):
    """One two-circle rank polynomial is four half-width big-integer products
    in one packed pass, its two sides at x = y and x = -y: no polynomial
    product, and one exact division by d^2 for the recombined pack besides
    the half-row steps of C(80, .) and C(69, .)."""
    muls, divs = [], []
    mul, div = IntPolynomial.__mul__, formulas._exact_div
    monkeypatch.setattr(IntPolynomial, "__mul__", lambda a, b: muls.append(a) or mul(a, b))
    monkeypatch.setattr(formulas, "_exact_div", lambda n, d: divs.append((n, d)) or div(n, d))
    poly = rank_gen(81, 70)
    assert muls == []
    by_square = [n for n, d in divs if d == 151 * 151]
    assert len(by_square) == 1 and by_square[0].bit_length() > 151 * 64
    assert len(divs) == 80 // 2 + 69 // 2 + 1
    assert poly == rank_gen_by_products(81, 70)


BENCH_SHAPES = [(p, q) for p in range(80, 83) for q in range(69, 72)]


@pytest.mark.parametrize("p,q", BENCH_SHAPES + [(q, p) for p, q in BENCH_SHAPES])
def test_packed_rank_gen_matches_products_and_cells(p, q):
    "The packed pass equals the two-product form and the cell sum on the bench's shapes."
    assert rank_gen_compact(p, q) == rank_gen_by_products(p, q) == rank_gen_cells(p, q)


@pytest.mark.parametrize("p,q", [(1, 200), (200, 1), (2, 97), (97, 2)])
def test_packed_rank_gen_matches_products_on_lopsided_shapes(p, q):
    "The packed pass equals the two-product form when one circle is tiny."
    assert rank_gen_compact(p, q) == rank_gen_by_products(p, q)


def test_packed_rank_gen_matches_products_at_scale():
    "The packed pass equals the two-product form at (300, 200)."
    assert rank_gen_compact(300, 200) == rank_gen_by_products(300, 200)


def test_exact_slots_rejects_a_slot_that_does_not_divide():
    """A pack whose total divides by 3 but whose low slot does not, a negative
    pack and one slot too long are refused."""
    packed = _pack([1, 2], 1)  # 1 + 2 * 256 = 513 = 3 * 171
    assert packed % 3 == 0
    with pytest.raises(ArithmeticError):
        _exact_slots(packed, 3, 1, 2)
    with pytest.raises(ArithmeticError):
        _exact_slots(-_pack([3, 6], 1), 3, 1, 2)
    with pytest.raises(ArithmeticError):
        _exact_slots(_pack([3, 6, 3], 1), 3, 1, 2)
    assert _exact_slots(_pack([3, 6], 1), 3, 1, 2) == [1, 2]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2**70), st.integers(1, 12), st.data())
def test_exact_slots_reads_multiplied_slots(divisor, size, data):
    "Slots multiplied by the divisor and packed read back as the slots."
    top = ((1 << 8 * size) - 1) // divisor
    slots = data.draw(st.lists(st.integers(0, top), min_size=1, max_size=20))
    packed = _pack([s * divisor for s in slots], size)
    assert _exact_slots(packed, divisor, size, len(slots)) == slots


@st.composite
def two_point_factors(draw):
    """A slot size, a divisor and two factors of lengths 1 to 40 whose product
    times the divisor fits the slots: signed factors, read through a bias of
    half a slot, or non-negative ones with no bias, as `rank_gen_compact`
    reads them.  A coefficient is 0, +-top or any value in range, and top is
    the largest bound at which every product coefficient still fits."""
    size, signed = draw(st.integers(1, 9)), draw(st.booleans())
    a_len, b_len = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    divisor = 1 if signed else draw(st.sampled_from([1, 3, 151 * 151]))
    limit = 1 << (8 * size - 1 if signed else 8 * size)
    top = isqrt((limit - 1) // divisor // min(a_len, b_len))
    low = -top if signed else 0
    value = st.sampled_from([0, low, top]) | st.integers(low, top)
    a, b = (draw(st.lists(value, min_size=n, max_size=n)) for n in (a_len, b_len))
    return size, signed, divisor, a, b


@settings(max_examples=300, deadline=None)
@given(two_point_factors())
@example((2, True, 1, [-28] * 40, [28] * 40))  # 40 * 28^2 = 31,360 < 2^15
@example((2, False, 1, [40] * 40, [40] * 39))  # 40 * 40^2 = 64,000 < 2^16
@example((3, False, 151 * 151, [1], [0, 0, 0, 27]))
@example((1, True, 1, [0], [0]))
def test_two_point_helpers_multiply_like_schoolbook(factors):
    """Both factors at x = y and x = -y, the two products recombined and read
    once, give the term-by-term product, for odd and even lengths."""
    size, signed, divisor, a, b = factors
    n = len(a) + len(b) - 1
    half = 1 << (8 * size - 1) if signed else 0
    bias = lambda m: _pack([half] * m, size)
    pack = lambda cs: _pack([c + half for c in cs], size) - bias(len(cs))
    at = lambda cs: _at_plus_minus_y(pack, cs, size)
    plus, minus = (x * y for x, y in zip(at(a), at([divisor * c for c in b])))
    slots = _recombine(plus, minus, size, n, divisor, bias(n))
    expect = schoolbook_mul(IntPolynomial(a), IntPolynomial(b))
    assert IntPolynomial([s - half for s in slots]) == expect


def test_binom_row_matches_comb():
    "Half a row by exact steps, mirrored, is the whole row of binomials."
    for n in range(70):
        assert _binom_row(n) == [comb(n, k) for k in range(n + 1)], n


def test_rank_gen_spot():
    "The rank generating polynomial of the smallest unequal shape."
    assert str(rank_gen(2, 1)) == "1 + 9*x + 9*x^2 + x^3"


@pytest.mark.parametrize("p", range(1, 13))
@pytest.mark.parametrize("q", range(1, 13))
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


MANY_CIRCLE_SHAPES = sorted({tuple(sorted(s)) for s in size_tuples(6) if len(s) >= 3})
MANY_CIRCLE_SHAPES += [(2, 2, 3), (1, 2, 2, 2)]  # 3,168 and 3,456 elements


@pytest.mark.parametrize("shape", MANY_CIRCLE_SHAPES)
def test_over_matchings_agrees_with_enumeration(shape):
    "Count, ranks, Moebius, maximal chains and zeta at n + 4 points, in two orders."
    poset = nc_b_multi(shape)
    n = sum(shape)
    # The enumerated side depends on the shape only, so it is taken once for
    # both circle orders.
    size, rank_vector = len(poset), poset.rank_vector()
    mobius_value = poset.mobius(poset.bottom(), poset.top())
    zeta_values = {m: poset.zeta(m) for m in range(-1, n + 3)}
    chain_count = poset.maximal_chains()
    shuffled = list(shape)
    Random(n).shuffle(shuffled)
    for sizes in (shape, tuple(shuffled)):
        total = over_matchings(sizes, lambda a: comb(2 * a, a), annulus_total)
        assert total == size
        ranks = over_matchings(sizes, rank_gen_disc, rank_gen)
        assert ranks.coefficients == rank_vector
        mu = over_matchings(sizes, mobius_disc, mobius_annulus)
        assert mu == mobius_value
        zeta = {
            m: over_matchings(
                sizes, lambda a: gbinom(m * a, a), lambda p, q: zeta_poly(p, q, m)
            )
            for m in range(-1, n + 3)
        }
        assert zeta == zeta_values
        chains = over_matchings(
            sizes,
            lambda a: GradedChains(a, a**a),
            lambda p, q: GradedChains(p + q, max_chains(p, q)),
        )
        assert chains == (n, chain_count)
        # n! times the leading coefficient of the zeta polynomial
        difference = sum((-1) ** (n - m) * comb(n, m) * zeta[m] for m in range(n + 1))
        assert chains.count == difference


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 40))
def test_three_circle_count_matches_multi3_total(a, b, c):
    "The matching sum of central binomials and annulus totals on three circles."
    total = over_matchings((a, b, c), lambda n: comb(2 * n, n), annulus_total)
    assert total == multi3_total(a, b, c)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40))
def test_over_matchings_on_two_circles_is_one_annulus_call(p, q):
    "Two circles return the annulus value itself, computed once in the given order."
    calls = []

    def annulus(a, b):
        calls.append((a, b))
        return rank_gen(a, b)

    def disc(n):
        raise AssertionError("no disc value is needed on two circles")

    assert over_matchings((p, q), disc, annulus) == rank_gen(p, q)
    assert calls == [(p, q)]


def test_graded_chains_shuffle():
    "Maximal chains of a product shuffle those of its factors."
    square = GradedChains(1, 1) * GradedChains(1, 1)
    assert square == (2, 2)
    assert square * GradedChains(3, 27) - GradedChains(5, 1) == (5, 2 * 10 * 27 - 1)


@given(st.integers(1, 8), st.integers(1, 8), st.integers(0, 8))
def test_paired_binomial_sum(p, q, c):
    "Shifted products of binomials telescope to a central binomial."
    total = sum(binom(p, e) * binom(p, e + c) for e in range(p + 1))
    assert total == binom(2 * p, p - c)


@given(st.integers(1, 6), st.integers(1, 6))
def test_zeta_poly_at_two_is_total(p, q):
    "Depth two counts single elements."
    assert zeta_poly(p, q, 2) == annulus_total(p, q)


# Per-term references: the zeta polynomial, the Moebius value and the
# maximal chain count summed by connectivity c, each term from its binomials
# alone.  They are the oracles for the binomial products in ncb.formulas.


def gbinom_reference(a, k):
    "C(a, k) for any integer a, from the definition a(a-1)...(a-k+1) / k!."
    if k < 0:
        return 0
    return prod(range(a, a - k, -1)) // factorial(k)


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
@example(1, 40)
@example(40, 1)
@example(40, 40)
def test_rank_gen_compact_matches_cell_sum(p, q):
    "The integer double sum equals the cell-by-cell sum."
    assert rank_gen_compact(p, q) == rank_gen_cells(p, q)


def test_cell_sum_matches_per_cell_counts_exhaustive():
    "Rows read once give the polynomial of one annulus_cell_count per cell."
    for p in range(1, 13):
        for q in range(1, 13):
            assert rank_gen_cells(p, q) == rank_gen_by_cell_counts(p, q), (p, q)


@settings(max_examples=30, deadline=None)
@given(sizes, sizes)
@example(40, 40)
def test_cell_sum_matches_per_cell_counts(p, q):
    "The same on shapes up to 40."
    assert rank_gen_cells(p, q) == rank_gen_by_cell_counts(p, q)


@settings(max_examples=60, deadline=None)
@given(sizes, sizes, st.integers(-3, 5))
def test_zeta_poly_matches_reference(p, q, m):
    "The product equals the per-term sum, for negative and zero m too."
    assert zeta_poly(p, q, m) == zeta_reference(p, q, m)


@settings(max_examples=60, deadline=None)
@given(sizes, sizes)
def test_mobius_annulus_matches_reference(p, q):
    "The product equals the per-term sum and the zeta polynomial at -1."
    assert mobius_annulus(p, q) == mobius_reference(p, q) == zeta_poly(p, q, -1)


@settings(max_examples=60, deadline=None)
@given(sizes, sizes)
def test_max_chains_matches_reference(p, q):
    "The product equals the per-term sum."
    assert max_chains(p, q) == max_chains_reference(p, q)


@settings(max_examples=60, deadline=None)
@given(st.integers(-40, 40), st.integers(-2, 40))
def test_gbinom_matches_reference(a, k):
    "Upper negation onto math.comb equals the falling factorial over k!."
    assert gbinom(a, k) == gbinom_reference(a, k)


def test_gbinom_pascal_rule():
    "C(a, k) = C(a-1, k-1) + C(a-1, k) for negative and positive a alike."
    for a in range(-40, 41):
        for k in range(0, 41):
            assert gbinom(a, k) == gbinom(a - 1, k - 1) + gbinom(a - 1, k), (a, k)


@pytest.mark.parametrize("k", [3000, 3001])
def test_gbinom_negative_upper_past_crossover(k, monkeypatch):
    "Upper negation onto a prime-factor binomial keeps the falling factorial's sign."
    assert _by_primes(k + 1999, 1999)  # C(-2000, k) = (-1)^k C(k + 1999, k)
    monkeypatch.setattr(formulas, "comb", None)  # no math.comb past the crossover
    assert gbinom(-2000, k) == gbinom_reference(-2000, k)


large = st.integers(1, 400)


@settings(max_examples=10, deadline=None)
@given(large, large, st.integers(-3, 5))
@example(400, 399, -3)
@example(397, 400, 5)
def test_products_match_references_at_large_sizes(p, q, m):
    "The three binomial products equal their connectivity sums up to 400 points."
    assert zeta_poly(p, q, m) == zeta_reference(p, q, m)
    assert mobius_annulus(p, q) == mobius_reference(p, q)
    assert max_chains(p, q) == max_chains_reference(p, q)
