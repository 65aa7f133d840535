import itertools
import re
from collections import Counter

import pytest
from hypothesis import given, assume, settings
import hypothesis.strategies as st

from ncb import (
    AnnulusShape,
    AnnulusTuple,
    BPartition,
    ParenString,
    annulus_tuples,
    canonical_block_order,
    connectivity,
    decode_annulus,
    decode_multichain,
    encode_annulus,
    encode_multichain,
    legal_left_shifts,
    legal_right_shifts,
    nc_b_annulus,
    read_partition,
)
from ncb import bijection
from ncb.bijection import _paren_type
from ncb.formulas import annulus_positive_total, binom

OUTER = ParenString.parse("1 ) ( 2 ) 3 ( 4 ( 5 -1 ) ( -2 ) -3 ( -4 ( -5")
INNER = ParenString.parse("6 ) ( 7 ) 8 -6 ) ( -7 ) -8")

WORKED_TUPLE = AnnulusTuple.from_text("c=1 d=2 LE=2,4,5 RE1=1,2 LI=7 RI1=6,7")
WORKED_PARTITION = BPartition(
    8,
    [[1, -5], [-1, 5], [2], [-2], [3, -4, -6, 8], [-3, 4, 6, -8], [7], [-7]],
)

CHAIN_TUPLE = AnnulusTuple.from_text(
    "c=2 d=1 LE=1,2,3,5,6 RE1=1,3 RE2=3 LI=8,9 RI1=7,8,9 RI2=7"
)
CHAIN_FIRST = BPartition(
    9,
    [[4, -6, 7], [-4, 6, -7]]
    + [[x] for a in (1, 2, 3, 5, 8, 9) for x in (a, -a)],
)
CHAIN_SECOND = BPartition(
    9,
    [[1, 4, -5, -6, 7, -8, -9], [-1, -4, 5, 6, -7, 8, 9], [2, 3], [-2, -3]],
)


def positive_elements(p, q):
    "Poset elements whose connectivity is positive."
    shape = AnnulusShape(p, q)
    return {
        pi for pi in nc_b_annulus(p, q).elements if connectivity(pi, shape) > 0
    }


def test_paren_string_parse():
    "Numbers and both kinds of parentheses round-trip through text."
    s = ParenString.parse("( 1 )1 2 )2")
    assert str(s) == "( 1 )1 2 )2"
    assert ParenString.parse(") (").tokens == (")1", "(")
    assert ParenString.from_parens("( ) (").tokens == ("(", ")1", "(")
    assert ParenString.from_parens("()(").tokens == ("(", ")1", "(")
    with pytest.raises(ValueError):
        ParenString.from_parens("(x)")


def test_paren_type():
    "Closers carry their full, possibly multi-digit, type; others carry none."
    assert _paren_type(")12") == 12
    assert _paren_type(")12") == 12  # the parsed type is reused
    assert _paren_type(")1") == 1
    assert _paren_type("(") is None
    assert _paren_type(3) is None and _paren_type(-12) is None


class Closer(str):
    "A str subclass, to show closers are stored and read as plain str."


@pytest.mark.parametrize(
    "tokens,error",
    [
        ([0], "0 is not a label"),
        ([True], None),
        (["("], None),
        ([")"], "bad token ')'"),
        ([")0"], "bad token ')0'"),
        ([")01"], None),
        ([")1"], None),
        ([")12"], None),
        (["x"], "bad token 'x'"),
        ([1.5], "bad token 1.5"),
        ([None], "bad token None"),
        ([[1]], "bad token [1]"),
        ([1, ")1", 1], "labels must be distinct"),
        ([True, 1], "labels must be distinct"),
        ([1, ")1", -1], None),
    ],
)
def test_paren_string_token_table(tokens, error):
    "Which tokens a ParenString accepts."
    if error is None:
        assert ParenString(tokens).tokens == tuple(tokens)
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            ParenString(tokens)


def test_paren_string_reads_its_closers():
    "Accepted closers are read as closers, whatever their spelling."
    assert legal_right_shifts(ParenString([1, ")01", 2, Closer(")3")])) == [2, 4]
    s = ParenString(["(", 1, Closer(")2"), -1])
    assert s.tokens == ("(", 1, ")2", -1)
    assert read_partition(s) == BPartition(1, [[1], [-1]])
    rotated = ParenString([Closer(")2"), 1, -1]).rotation(1)
    assert rotated.tokens == (1, -1, ")2") and type(rotated.tokens[2]) is str
    assert legal_right_shifts(rotated) == [3]


def test_rotation():
    "Shifts are one-based and a full shift is the identity."
    s = ParenString.parse("( 1 )")
    assert str(s.rotation(1)) == "1 )1 ("
    assert s.rotation(3).tokens == s.tokens
    with pytest.raises(ValueError):
        s.rotation(0)
    with pytest.raises(ValueError):
        s.rotation(4)
    with pytest.raises(ValueError):
        ParenString.parse("( 1 )", cyclic=False).rotation(1)


def test_legal_left_shifts_example():
    "The documented seven-token string has shifts two, five, six."
    s = ParenString.from_parens("( ) ( ( ) ( (")
    assert legal_left_shifts(s) == [2, 5, 6]


def test_legal_shifts_worked_strings():
    "Shift sets on the two strings of the worked example."
    assert legal_left_shifts(OUTER) == [6, 16]
    assert legal_right_shifts(INNER) == [2, 8]
    assert legal_right_shifts(ParenString.parse(") ) ( ) ) ( )")) == [1, 2, 5]


def test_legal_shifts_need_surplus():
    "Balanced or inverted strings admit no legal shift."
    with pytest.raises(ValueError):
        legal_left_shifts(ParenString.from_parens("( )"))
    with pytest.raises(ValueError):
        legal_left_shifts(ParenString.from_parens(") )"))
    with pytest.raises(ValueError):
        legal_right_shifts(ParenString.from_parens("( )"))
    with pytest.raises(ValueError):
        legal_right_shifts(ParenString.from_parens("( ("))


def left_legal(parens):
    "Every nonempty prefix has more openers than closers."
    depth = 0
    for c in parens:
        depth += 1 if c == "(" else -1
        if depth <= 0:
            return False
    return True


@given(st.lists(st.booleans(), min_size=1, max_size=14))
def test_cycle_lemma(bits):
    "The number of legal shifts equals the parenthesis surplus."
    surplus = sum(1 if b else -1 for b in bits)
    assume(surplus >= 1)
    s = ParenString.from_parens(" ".join("(" if b else ")" for b in bits))
    shifts = legal_left_shifts(s)
    assert len(shifts) == surplus
    for k in range(1, len(bits) + 1):
        rotated = ["(" if t == "(" else ")" for t in s.rotation(k).tokens]
        assert left_legal(rotated) == (k in shifts)


@given(st.lists(st.booleans(), min_size=1, max_size=14))
def test_cycle_lemma_right(bits):
    "Mirrored statement for strings with more closers."
    surplus = sum(-1 if b else 1 for b in bits)
    assume(surplus >= 1)
    s = ParenString.from_parens(" ".join("(" if b else ")" for b in bits))
    shifts = legal_right_shifts(s)
    assert len(shifts) == surplus
    for k in range(1, len(bits) + 1):
        rotated = ["(" if t == "(" else ")" for t in s.rotation(k).tokens]
        mirrored = ["(" if c == ")" else ")" for c in reversed(rotated)]
        assert left_legal(mirrored) == (k in shifts)


def paren_steps(tokens):
    "+1 for each opener and -1 for each closer, in token order."
    return [1 if t == "(" else -1 for t in tokens if t == "(" or str(t).startswith(")")]


def brute_left_shifts(s):
    "Shifts whose rotation starts with an opener and stays left-legal."
    out = []
    for k in range(1, len(s) + 1):
        tokens = s.rotation(k).tokens
        depths = itertools.accumulate(paren_steps(tokens))
        if tokens[0] == "(" and all(d > 0 for d in depths):
            out.append(k)
    return out


def brute_right_shifts(s):
    "Shifts whose rotation ends with a closer and stays right-legal backwards."
    out = []
    for k in range(1, len(s) + 1):
        tokens = s.rotation(k).tokens
        depths = itertools.accumulate(-x for x in reversed(paren_steps(tokens)))
        if str(tokens[-1]).startswith(")") and all(d > 0 for d in depths):
            out.append(k)
    return out


@given(st.lists(st.sampled_from(["(", ")1", ")2", "x"]), min_size=1, max_size=24))
def test_legal_shifts_match_definition(kinds):
    "Both shift sets equal their definition on words with labels and typed closers."
    labels = itertools.count(1)
    tokens = [next(labels) if k == "x" else k for k in kinds]
    s = ParenString(tokens)
    surplus = sum(paren_steps(tokens))
    assume(surplus != 0)
    if surplus > 0:
        assert legal_left_shifts(s) == brute_left_shifts(s)
        assert len(legal_left_shifts(s)) == surplus
    else:
        assert legal_right_shifts(s) == brute_right_shifts(s)
        assert len(legal_right_shifts(s)) == -surplus


def test_read_partition():
    "Matched pairs become blocks and loose numbers pool into one block."
    got = read_partition(ParenString.parse("( 2 ) 1 -1 ( -2 )", cyclic=False))
    assert got == BPartition(2, [[2], [-2], [1, -1]])
    with pytest.raises(ValueError):
        read_partition(ParenString.parse("( 1", cyclic=False))
    with pytest.raises(ValueError):
        read_partition(ParenString.parse(") 1", cyclic=False))
    with pytest.raises(ValueError):
        read_partition(ParenString.parse("( 1 )", cyclic=False))


def test_tuple_text_round_trip():
    "Text form reproduces the tuple, including empty set fields."
    for t in (WORKED_TUPLE, CHAIN_TUPLE):
        assert AnnulusTuple.from_text(t.to_text()) == t
    t = AnnulusTuple.from_text("c=1 d=1 LE=1 RE1= LI= RI1=2")
    assert t.left_inner == frozenset()
    assert t.to_text() == "c=1 d=1 LE=1 RE1= LI= RI1=2"
    assert t.m == 2
    assert CHAIN_TUPLE.m == 3


@pytest.mark.parametrize(
    "text",
    [
        "c=1 LE=1 RE1= LI= RI1=2",
        "c=1 d=3 LE=1 RE1= LI= RI1=2",
        "c=1 d=1 LE=1,2 RE1= LI= RI1=2",
        "c=1 d=1 LE=1 RE1= LI= RI1=2 RI2=2",
        "c=1 d=1 LE=1 RE1= LI= RI1=",
        "c=1 d=1 LE=1 RE1= LI= RI1=2 XX=3",
        "c=1 d=1 LE=1 LE=1 RE1= LI= RI1=2",
    ],
)
def test_tuple_text_rejects(text):
    "Missing fields, bad depth, and size mismatches are reported."
    with pytest.raises(ValueError):
        AnnulusTuple.from_text(text)


def test_worked_example_encode():
    "The reference tuple produces the reference partition."
    assert encode_annulus(WORKED_TUPLE, 5, 3) == WORKED_PARTITION


def test_worked_example_decode():
    "The reference partition produces the reference tuple."
    assert decode_annulus(WORKED_PARTITION, 5, 3) == WORKED_TUPLE


def test_canonical_block_order():
    "Blocks are ordered by travel from the mirror block."
    shape = AnnulusShape(5, 3)
    assert canonical_block_order((-1, 5), WORKED_PARTITION, shape) == (5, -1)
    assert canonical_block_order((3, -4), WORKED_PARTITION, shape) == (-4, 3)
    assert canonical_block_order((-6, 8), WORKED_PARTITION, shape) == (8, -6)
    zero = BPartition(3, [[1, -1, 2, -2], [3], [-3]])
    # a zero-block piece holds its own mirror: the anchor element comes last
    assert canonical_block_order((1, -1, 2, -2), zero, AnnulusShape(2, 1)) == (2, -1, -2, 1)


def test_smallest_annulus_images():
    "Both tuples on the smallest shape give the two connected partitions."
    tuples = list(annulus_tuples(1, 1))
    assert len(tuples) == 2
    images = {encode_annulus(t, 1, 1) for t in tuples}
    assert images == {
        BPartition(2, [[1, 2], [-1, -2]]),
        BPartition(2, [[1, -2], [-1, 2]]),
    }


@pytest.mark.parametrize("p,q", [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1)])
def test_annulus_bijection_exhaustive(p, q):
    "The tuple map hits each positive-connectivity partition exactly once."
    domain = list(annulus_tuples(p, q))
    assert len(domain) == annulus_positive_total(p, q)
    shape = AnnulusShape(p, q)
    images = {}
    for t in domain:
        pi = encode_annulus(t, p, q)
        assert connectivity(pi, shape) == t.c
        assert pi.rank() == p + q - (len(t.left_outer) + len(t.left_inner))
        assert pi not in images
        images[pi] = t
        assert decode_annulus(pi, p, q) == t
    assert set(images) == positive_elements(p, q)


def test_decode_rejects_disconnected():
    "Partitions with no connecting block have no preimage."
    with pytest.raises(ValueError):
        decode_annulus(BPartition.singletons(2), 1, 1)


def test_chain_example_encode():
    "The reference chain tuple produces the reference multichain."
    chain = encode_multichain(CHAIN_TUPLE, 6, 3)
    assert chain == (CHAIN_FIRST, CHAIN_SECOND)
    assert CHAIN_FIRST.le(CHAIN_SECOND)
    shape = AnnulusShape(6, 3)
    assert connectivity(CHAIN_FIRST, shape) == 1
    assert connectivity(CHAIN_SECOND, shape) == 1


def test_chain_example_decode():
    "The reference multichain produces the reference chain tuple."
    assert decode_multichain([CHAIN_FIRST, CHAIN_SECOND], 6, 3) == CHAIN_TUPLE


def test_chain_matches_pair_map_at_depth_two():
    "For chains of one partition the two maps agree."
    for p, q in [(1, 1), (2, 1), (2, 2)]:
        for t in annulus_tuples(p, q):
            assert encode_multichain(t, p, q) == (encode_annulus(t, p, q),)


def test_nested_closer_types():
    "A deep closer nested inside a shallow pair still encodes cleanly."
    t = AnnulusTuple.from_text("c=2 d=1 LE=1,2 RE1= RE2= LI= RI1=4 RI2=3")
    chain = encode_multichain(t, 2, 2)
    assert chain[0] == BPartition(4, [[1, -4], [-1, 4], [2, -3], [-2, 3]])
    assert chain[1] == BPartition(4, [[1, -2, 3, -4], [-1, 2, -3, 4]])
    assert decode_multichain(chain, 2, 2) == t


def test_chain_connectivity_can_exceed_both_sizes():
    "Deeper chains admit tuples whose connectivity exceeds min(p, q)."
    seen = {t.c for t in annulus_tuples(1, 1, 3)}
    assert seen == {1}
    seen = {t.c for t in annulus_tuples(2, 2, 3)}
    assert 2 in seen


@pytest.mark.parametrize("p,q,m", [(1, 1, 3), (1, 1, 4), (2, 1, 3), (1, 2, 3)])
def test_chain_bijection_exhaustive(p, q, m):
    "Chain tuples map one-to-one onto chains with a connected member."
    shape = AnnulusShape(p, q)
    members = set(nc_b_annulus(p, q).elements)
    domain = list(annulus_tuples(p, q, m))
    expected = sum(
        2 * c * binom(m * p, p - c) * binom(m * q, q + c) for c in range(1, p + 1)
    )
    assert len(domain) == expected
    seen = set()
    for t in domain:
        chain = encode_multichain(t, p, q)
        assert len(chain) == m - 1
        assert all(pi in members for pi in chain)
        for a, b in zip(chain, chain[1:]):
            assert a.le(b)
        assert any(connectivity(pi, shape) > 0 for pi in chain)
        key = tuple(chain)
        assert key not in seen
        seen.add(key)
        assert decode_multichain(chain, p, q) == t


def test_chain_bijection_is_onto():
    "Every connected multichain of depth three is reached."
    p, q, m = 1, 1, 3
    shape = AnnulusShape(p, q)
    elements = nc_b_annulus(p, q).elements
    connected_chains = {
        (a, b)
        for a in elements
        for b in elements
        if a.le(b)
        and (connectivity(a, shape) > 0 or connectivity(b, shape) > 0)
    }
    images = {
        tuple(encode_multichain(t, p, q)) for t in annulus_tuples(p, q, m)
    }
    assert images == connected_chains


def test_chain_rank_profile():
    "Member ranks count the closer sets from that level upward."
    p, q, m = 2, 1, 3
    for t in annulus_tuples(p, q, m):
        chain = encode_multichain(t, p, q)
        for i, pi in enumerate(chain, start=1):
            drop = sum(
                len(t.rights_outer[j]) + len(t.rights_inner[j])
                for j in range(i - 1, m - 1)
            )
            assert pi.rank() == p + q - drop


def test_encode_multichain_checks_depth():
    "An explicit depth must match the tuple."
    t = AnnulusTuple.from_text("c=1 d=1 LE=1 RE1= LI= RI1=2")
    with pytest.raises(ValueError):
        encode_multichain(t, 1, 1, m=3)


def test_decode_multichain_rejects_disconnected():
    "A chain with no connected member has no preimage."
    bot = BPartition.singletons(2)
    with pytest.raises(ValueError):
        decode_multichain([bot, bot], 1, 1)


def level_splits(totals, outer_sum, p, q):
    """Ways to write each level total as outer + inner closer counts with
    the outer counts summing to outer_sum."""
    if not totals:
        if outer_sum == 0:
            yield ()
        return
    first, rest = totals[0], totals[1:]
    for e in range(max(0, first - q), min(first, p, outer_sum) + 1):
        for tail in level_splits(rest, outer_sum - e, p, q):
            yield (e,) + tail


def search_decode(chain, p, q):
    """Oracle for decode_multichain: every tuple that agrees with the chain on
    its left sets (the block firsts of pi_1) and on each level's closer count
    (the rank differences), re-encoded until one reproduces the chain."""
    chain = tuple(chain)
    shape = AnnulusShape(p, q)
    suffix = [p + q - pi.rank() for pi in chain]
    totals = [a - b for a, b in zip(suffix, suffix[1:] + [0])]
    if any(t < 0 for t in totals):
        raise ValueError("chain is not in the image of the encoding")
    left_outer, left_inner = set(), set()
    for block in chain[0].blocks:
        outer_part = [x for x in block if abs(x) <= p]
        if outer_part:
            left_outer.add(abs(canonical_block_order(outer_part, chain[0], shape)[0]))
        else:
            left_inner.add(abs(canonical_block_order(block, chain[0], shape)[0]))
    outer_labels = range(1, p + 1)
    inner_labels = range(p + 1, p + q + 1)
    for c in range(1, len(left_outer) + 1):
        outer_sum = len(left_outer) - c
        if outer_sum + len(left_inner) + c != sum(totals):
            continue
        for split in level_splits(totals, outer_sum, p, q):
            outer_choices = [list(itertools.combinations(outer_labels, e)) for e in split]
            inner_choices = [
                list(itertools.combinations(inner_labels, t - e))
                for t, e in zip(totals, split)
            ]
            for rights_outer in itertools.product(*outer_choices):
                for rights_inner in itertools.product(*inner_choices):
                    for d in range(1, 2 * c + 1):
                        t = AnnulusTuple(
                            c, d, left_outer, rights_outer, left_inner, rights_inner
                        )
                        if encode_multichain(t, p, q) == chain:
                            return t
    raise ValueError("chain is not in the image of the encoding")


def decoded(decode, chain, p, q):
    "The tuple decode finds, or None when it raises ValueError."
    try:
        return decode(chain, p, q)
    except ValueError:
        return None


@pytest.mark.parametrize(
    "p,q,m",
    [(p, n - p, 3) for n in (2, 3, 4) for p in range(1, n)]
    + [(p, n - p, 4) for n in (2, 3) for p in range(1, n)],
)
def test_decode_matches_search_on_image(p, q, m):
    "The level-by-level decode equals the search on every encoded chain."
    for t in annulus_tuples(p, q, m):
        chain = encode_multichain(t, p, q)
        assert decode_multichain(chain, p, q) == search_decode(chain, p, q) == t


@pytest.mark.parametrize("p,q", [(p, n - p) for n in (2, 3, 4) for p in range(1, n)])
def test_decode_matches_search_on_all_pairs(p, q):
    """On every one- and two-member chain of poset elements, image or not,
    both decodes give the same tuple or both raise ValueError."""
    elements = nc_b_annulus(p, q).elements
    for a in elements:
        assert decoded(decode_multichain, [a], p, q) == decoded(search_decode, [a], p, q)
        for b in elements:
            chain = [a, b]
            assert decoded(decode_multichain, chain, p, q) == decoded(
                search_decode, chain, p, q
            )


@pytest.mark.parametrize("p,q,m", [(3, 2, 3), (2, 3, 3), (2, 2, 5)])
def test_decode_round_trip_exhaustive(p, q, m):
    "Every tuple of the domain decodes back from its chain."
    for t in annulus_tuples(p, q, m):
        assert decode_multichain(encode_multichain(t, p, q), p, q) == t


@st.composite
def chain_tuples(draw, max_size=12, max_levels=5):
    """(p, q, tuple) with p + q <= max_size and m <= max_levels + 1: c first,
    then right-set sizes within what |LE| = sum|RE| + c <= p and
    0 <= |LI| = sum|RI| - c <= q allow."""
    p = draw(st.integers(1, max_size - 1))
    q = draw(st.integers(1, max_size - p))
    levels = draw(st.integers(1, max_levels))
    outer = range(1, p + 1)
    inner = range(p + 1, p + q + 1)

    def subset(labels, size):
        return draw(st.sets(st.sampled_from(labels), min_size=size, max_size=size))

    c = draw(st.integers(1, min(p, q * levels)))
    budget = p - c
    rights_outer = []
    for _ in range(levels):
        size = draw(st.integers(0, budget))
        rights_outer.append(subset(outer, size))
        budget -= size
    total = draw(st.integers(c, min(q + c, q * levels)))
    rights_inner = []
    for left in range(levels, 0, -1):
        size = draw(st.integers(max(0, total - q * (left - 1)), min(q, total)))
        rights_inner.append(subset(inner, size))
        total -= size
    low = sum(map(len, rights_outer)) + c
    left_outer = subset(outer, low)
    left_inner = subset(inner, sum(map(len, rights_inner)) - c)
    d = draw(st.integers(1, 2 * c))
    return p, q, AnnulusTuple(c, d, left_outer, rights_outer, left_inner, rights_inner)


@settings(deadline=None)
@given(chain_tuples())
def test_decode_round_trip_random(case):
    "Random tuples up to p + q = 12 and m = 6 decode back from their chains."
    p, q, t = case
    assert decode_multichain(encode_multichain(t, p, q), p, q) == t


# The bench codec workload's sizes: p + q up to 40, chains of up to 3 members.
BENCH_SCALE = chain_tuples(max_size=40, max_levels=3)


@settings(deadline=None, max_examples=60)
@given(BENCH_SCALE)
def test_decode_round_trip_bench_scale(case):
    "Random tuples up to p + q = 40 and m = 4 decode back from their chains."
    p, q, t = case
    assert decode_multichain(encode_multichain(t, p, q), p, q) == t


@settings(deadline=None, max_examples=60)
@given(BENCH_SCALE, st.data())
def test_decode_rejects_bent_chains_bench_scale(case, data):
    """Swapping two distinct levels breaks monotonicity, and the bottom as
    top member leaves no connected member: neither chain is in the image.
    Swapping two labels that lie in no subset of t throughout the chain
    gives chains near the image: the decode must raise unless the tuple it
    reads off them encodes the relabelled chain, which only its confirm
    checks."""
    p, q, t = case
    chain = encode_multichain(t, p, q)
    bent = [chain[:-1] + (BPartition.singletons(p + q),)]
    pairs = [
        (i, j) for i, j in itertools.combinations(range(len(chain)), 2)
        if chain[i] != chain[j]
    ]
    if pairs:
        i, j = data.draw(st.sampled_from(pairs))
        swapped = list(chain)
        swapped[i], swapped[j] = chain[j], chain[i]
        bent.append(swapped)
    for members in bent:
        with pytest.raises(ValueError, match="not in the image"):
            decode_multichain(members, p, q)
    used = t.left_outer | t.left_inner | set().union(*t.rights_outer, *t.rights_inner)
    free = [z for z in range(1, p + q + 1) if z not in used]
    if len(free) > 1:
        x, y = data.draw(st.lists(st.sampled_from(free), min_size=2, max_size=2, unique=True))
        y *= data.draw(st.sampled_from((1, -1)))
        swap = {x: y, y: x, -x: -y, -y: -x}
        relabelled = tuple(
            BPartition(pi.n, ([swap.get(z, z) for z in b] for b in pi.blocks)) for pi in chain
        )
        found = decoded(decode_multichain, relabelled, p, q)
        assert found is None or encode_multichain(found, p, q) == relabelled


def test_decode_builds_its_strings_once(monkeypatch):
    """One decode builds the circle strings once and runs the left cycle
    lemma once: its confirm reuses them instead of re-encoding."""
    chain = encode_multichain(CHAIN_TUPLE, 6, 3)
    calls = Counter()

    def count(name):
        real = getattr(bijection, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(bijection, name, counted)

    count("_circle_strings")
    count("_left_shifts")
    assert decode_multichain(chain, 6, 3) == CHAIN_TUPLE
    assert calls == {"_circle_strings": 1, "_left_shifts": 1}
