import itertools
import operator
import re
import time
from collections import Counter
from random import Random

import pytest
from hypothesis import given, assume, settings
import hypothesis.strategies as st

from ncb import (
    AnnulusShape,
    AnnulusTuple,
    BPartition,
    annulus_tuples,
    connectivity,
    decode_annulus,
    decode_multichain,
    encode_annulus,
    encode_multichain,
    nc_b_annulus,
)
from ncb import bijection
from ncb.formulas import annulus_positive_total, binom
from oracles import (
    ParenString,
    _paren_type,
    block_ends_by_sorting,
    circle_positions,
    canonical_block_order,
    decode_by_tokens,
    encode_by_tokens,
    legal_left_shifts,
    legal_right_shifts,
    read_partition,
    running_order,
)
from test_surface import UNBOUNDED, memos

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


def test_tuple_is_an_immutable_value():
    "A tuple's fields cannot be reassigned, and equal tuples hash alike."
    with pytest.raises(AttributeError):
        WORKED_TUPLE.d = 1
    assert WORKED_TUPLE.d == 2
    again = AnnulusTuple.from_text(WORKED_TUPLE.to_text())
    assert again == WORKED_TUPLE and len({again, WORKED_TUPLE}) == 1


def test_tuple_replace_checks_like_the_constructor():
    "A changed copy is checked as a new tuple is, and equals one built directly."
    t = AnnulusTuple.from_text("c=1 d=2 LE=2,4,5 RE1=1,2 LI=7 RI1=6,7")
    with pytest.raises(ValueError, match=r"^d must be in 1\.\.2$"):
        t._replace(d=9)
    changed = t._replace(d=1, left_inner=[6])
    assert changed == AnnulusTuple(1, 1, {2, 4, 5}, [{1, 2}], {6}, [{6, 7}])
    assert type(changed) is AnnulusTuple


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


@pytest.mark.parametrize(
    "text, missing",
    [
        ("c=1 d=1 LE=1 LI= RE300000=", "RE1"),
        ("c=1 d=1 LE=1 RE0= LI= RI1=2", "RE1"),
        ("c=1 d=1 LE=1 RE01= LI= RI1=2", "RE1"),
        ("c=1 d=1 LE=1 REx= LI= RI1=2", "RE1"),
        ("c=1 d=1 LE=1 RE1= LI= RI1=2 RI3=", "RE2"),
        ("c=1 d=1 LE=1 RE1= LI=", "RI1"),
        ("c=2 d=1 LE=1,2 RE1= RE2= LI= RI1=4 RI20=3", "RI2"),
    ],
)
def test_tuple_text_needs_every_level(text, missing):
    "Right-set keys must run RE1..REk and RI1..RIk; the first gap is named."
    with pytest.raises(ValueError, match=f"missing field '{missing}'"):
        AnnulusTuple.from_text(text)


@pytest.mark.parametrize("key", ["RE0", "RE01", "REX", "RI0", "RI01", "RE\u0661", "RE+1"])
def test_tuple_text_reports_a_malformed_level_key_as_unknown(key):
    """A key that is not side + level from 1 up, written as to_text writes
    it, is no level: it is reported as unknown, not as a missing level."""
    text = f"c=1 d=1 LE=1 RE1= {key}= LI= RI1=2"
    message = f"unknown fields {[key]}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AnnulusTuple.from_text(text)


@pytest.mark.parametrize(
    "text, field, label",
    [
        ("c=1 d=1 LE=1,1 RE1= LI= RI1=2", "LE", 1),
        ("c=1 d=1 LE=1 RE1= LI= RI1=2,02", "RI1", 2),
        ("c=1 d=1 LE=1,2,3 RE1=2,3,2 LI= RI1=4", "RE1", 2),
    ],
)
def test_tuple_text_rejects_a_repeated_label(text, field, label):
    "A label written twice in one field is named, not merged into one."
    with pytest.raises(ValueError, match=f"^field {field} repeats label {label}$"):
        AnnulusTuple.from_text(text)


# (c, d, left_outer, rights_outer, left_inner, rights_inner) of
# "c=1 d=1 LE=1 RE1= LI= RI1=2", with one value of another type swapped in.
NOT_INT_TUPLES = {
    "bool-c": ((True, 1, {1}, [()], (), [{2}]), "c must be an int, not True"),
    "float-c": ((1.0, 1, {1}, [()], (), [{2}]), "c must be an int, not 1.0"),
    "bool-d": ((1, True, {1}, [()], (), [{2}]), "d must be an int, not True"),
    "float-d": ((1, 1.0, {1}, [()], (), [{2}]), "d must be an int, not 1.0"),
    "bool-left": ((1, 1, {True}, [()], (), [{2}]), "label True is not an int"),
    "float-right": ((1, 1, {1}, [()], (), [{2.0}]), "label 2.0 is not an int"),
    "str-right": ((1, 1, {1, 2}, [{"2"}], (), [{3}]), "label '2' is not an int"),
    "float-left-inner": ((1, 1, {1}, [()], {3.0}, [{2, 3}]), "label 3.0 is not an int"),
}


@pytest.mark.parametrize(
    "args, message", NOT_INT_TUPLES.values(), ids=NOT_INT_TUPLES.keys()
)
def test_tuple_rejects_values_that_are_not_ints(args, message):
    "A c, d or label of another type would write text from_text cannot read."
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        AnnulusTuple(*args)


def test_tuple_text_is_checked_before_levels_are_built():
    "A huge level number is rejected at once, not after building the levels."
    start = time.perf_counter()
    for k in (300_000, 100_000_000):
        with pytest.raises(ValueError, match="missing field 'RE1'"):
            AnnulusTuple.from_text(f"c=1 d=1 LE=1 LI= RE{k}= RI{k}=")
    assert time.perf_counter() - start < 0.1


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
    # A tuple with two right-sets per circle encodes a chain, not one partition.
    chain = AnnulusTuple.from_text("c=1 d=1 LE=1 RE1= RE2= LI= RI1=2 RI2=")
    assert len(encode_multichain(chain, 1, 1)) == 2
    with pytest.raises(ValueError, match="exactly one right-set per circle"):
        encode_annulus(chain, 1, 1)


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


def test_decode_rejects_a_coarser_partition():
    """Every block of the encoding of the tuple read off this crossing
    partition lies inside one of its blocks, but {1, -3} and {4} are two
    blocks there and one here: the confirm counts blocks too."""
    t = AnnulusTuple.from_text("c=1 d=2 LE=2,3,4 RE1=1,4 LI=6 RI1=5,6")
    image = BPartition(6, [[1, -3], [-1, 3], [2, 5], [-2, -5], [4], [-4], [6], [-6]])
    assert encode_annulus(t, 4, 2) == image
    coarser = BPartition(6, [[1, -3, 4], [-1, 3, -4], [2, 5], [-2, -5], [6], [-6]])
    with pytest.raises(ValueError, match="not in the image"):
        decode_annulus(coarser, 4, 2)


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


def test_inner_anchor_orders_closers_by_type():
    """Type 10 outranks type 9 as ints, though ")9" sorts after ")10" as
    text: of the circle 5 )10 6 )9, whose four group ends are all legal,
    the anchor is label 5's, the first label of the period, ending the
    inner string at -5 in the second turn."""
    assert bijection._inner_anchor([False, False], [(10,), (9,)]) == (10, 0)
    assert bijection._inner_anchor([False, False], [(9,), (10,)]) == (10, 1)
    # A run of closers ends on its highest type, which competes for it.
    assert bijection._inner_anchor([False, False], [(9, 10), (9,)]) == (10, 0)


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
    (the rank differences), re-encoded by the token-string codec until one
    reproduces the chain."""
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
                        if encode_by_tokens(t, p, q) == chain:
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


DESK_PAIRS = [(p, n - p) for n in (2, 3, 4) for p in range(1, n)]


@pytest.mark.parametrize("p,q", DESK_PAIRS)
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


def outcome(decode, chain, p, q):
    "The tuple decode finds, or the message of the ValueError it raises."
    try:
        return decode(chain, p, q)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("p,q", DESK_PAIRS)
def test_decode_matches_the_token_oracle_on_all_pairs(p, q):
    """On every one- and two-member chain of poset elements, image or not,
    the decode on label arrays and the token-string decode give the same
    tuple or raise the same message."""
    elements = nc_b_annulus(p, q).elements
    for a in elements:
        chain = [a]
        assert outcome(decode_multichain, chain, p, q) == outcome(
            decode_by_tokens, chain, p, q
        )
        for b in elements:
            chain = [a, b]
            assert outcome(decode_multichain, chain, p, q) == outcome(
                decode_by_tokens, chain, p, q
            )


def three_member_chains(p, q):
    "Every multichain a <= b <= c of the shape's poset elements."
    elements = nc_b_annulus(p, q).elements
    above = {a: [b for b in elements if a.le(b)] for a in elements}
    return [[a, b, c] for a in elements for b in above[a] for c in above[b]]


@pytest.mark.parametrize(
    "p,q,chains,images", [(2, 1, 224, 112), (1, 2, 224, 112), (2, 2, 1960, 1176)]
)
def test_decode_matches_the_token_oracle_on_all_three_member_chains(p, q, chains, images):
    """On every three-member multichain a <= b <= c of poset elements, image
    or not, the decode on label arrays and the token-string decode give the
    same tuple or raise the same message."""
    results = []
    for chain in three_member_chains(p, q):
        result = outcome(decode_multichain, chain, p, q)
        assert result == outcome(decode_by_tokens, chain, p, q)
        results.append(result)
    assert len(results) == chains
    assert sum(isinstance(r, AnnulusTuple) for r in results) == images


@pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (2, 2)])
def test_three_member_chains_decode_alike_cold_and_warm(p, q):
    """Every three-member multichain, image or not, decodes to the same
    tuple or raises the same message with the layout memo cleared before
    each decode as with it warm from that cold decode.  Every image's warm
    decode reads the layout its cold decode built."""
    cold, warm, hits = [], [], []
    for chain in three_member_chains(p, q):
        bijection._layout.cache_clear()
        cold.append(outcome(decode_multichain, chain, p, q))
        warm.append(outcome(decode_multichain, chain, p, q))
        hits.append(bijection._layout.cache_info().hits)
    assert cold == warm
    assert {h for h, r in zip(hits, warm) if isinstance(r, AnnulusTuple)} == {1}


@pytest.mark.parametrize("p,q", [(p, n - p) for n in (2, 3, 4, 5) for p in range(1, n)])
def test_encode_matches_the_token_oracle_exhaustive(p, q):
    "Every tuple of the shape at m = 2..4 encodes as the token-string codec does."
    for m in (2, 3, 4):
        for t in annulus_tuples(p, q, m):
            assert encode_multichain(t, p, q) == encode_by_tokens(t, p, q)


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


@settings(deadline=None)
@given(chain_tuples())
def test_encode_matches_the_token_oracle_random(case):
    "Random tuples up to p + q = 12 and m = 6 encode as the token-string codec does."
    p, q, t = case
    assert encode_multichain(t, p, q) == encode_by_tokens(t, p, q)


@settings(deadline=None, max_examples=60)
@given(BENCH_SCALE)
def test_encode_matches_the_token_oracle_bench_scale(case):
    "Random tuples up to p + q = 40 and m = 4 encode as the token-string codec does."
    p, q, t = case
    assert encode_multichain(t, p, q) == encode_by_tokens(t, p, q)


@settings(deadline=None, max_examples=60)
@given(BENCH_SCALE)
def test_decode_round_trip_bench_scale(case):
    "Random tuples up to p + q = 40 and m = 4 decode back from their chains."
    p, q, t = case
    assert decode_multichain(encode_multichain(t, p, q), p, q) == t


def _refuse_bent_chains(p, q, t, data):
    """Swapping two distinct levels breaks monotonicity, and the bottom as
    top member leaves no connected member: neither chain is in the image.
    Swapping two labels that lie in no subset of t throughout the chain,
    or in one member past the first, gives chains near the image: the decode
    must raise unless the tuple it reads off them encodes the relabelled
    chain, which only its confirm checks, level by level."""
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
        for near in (relabelled, *(chain[:j] + relabelled[j : j + 1] + chain[j + 1 :]
                                   for j in range(1, len(chain)))):
            found = decoded(decode_multichain, near, p, q)
            assert found is None or encode_multichain(found, p, q) == near


@settings(deadline=None, max_examples=60)
@given(BENCH_SCALE, st.data())
def test_decode_rejects_bent_chains_bench_scale(case, data):
    "Random tuples up to p + q = 40 and m = 4: no bent chain decodes."
    _refuse_bent_chains(*case, data)


# An m = 3 tuple at (300, 200) with |LE| = 279: its levels name 818 and 339
# pairs and its members as many blocks, past the 256 a byte holds.
PAST_256 = AnnulusTuple(
    9, 5, range(21, 300), [range(21, 301, 2), range(22, 300, 2)[:130]],
    range(311, 441), [range(301, 401), range(431, 470)],
)


@settings(deadline=None, max_examples=10)
@given(st.data())
def test_decode_rejects_bent_chains_past_256_blocks(data):
    """Past 256 blocks the tables are tuples, and decode's confirm relabels
    them by a dict: the tuple round-trips and no bent chain decodes."""
    chain = encode_multichain(PAST_256, 300, 200)
    assert all(type(pi._table) is tuple for pi in chain)
    assert decode_multichain(chain, 300, 200) == PAST_256
    _refuse_bent_chains(300, 200, PAST_256, data)


def walk_args(p, q, t):
    "The arguments `encode_multichain` hands `_assemble` for t, but m."
    outer, inner, starts, (_, anchor) = bijection._layout(p, q, *t[2:])
    return p, q, outer, starts[t.d - 1], inner, anchor + q + 1


@settings(deadline=None)
@given(st.one_of(chain_tuples(max_levels=1), chain_tuples(max_size=40, max_levels=1)))
def test_single_level_walk_matches_the_general_walk(case):
    """On one-level tuples, up to the bench codec's sizes, the m = 2 walk
    keeps only the stack; the general walk's first level, which reads no
    m, is its reference."""
    args = walk_args(*case)
    assert bijection._assemble(*args, 2) == bijection._assemble(*args, 3)[:1]


def one_level_tuple(lefts):
    """An m = 2 tuple at (200, 100) with |LE| + |LI| = lefts: the walk
    opens 2 * lefts pairs, two turns of each "("."""
    inner = lefts - 100
    return AnnulusTuple(
        1, 2, range(1, 200, 2), [range(2, 200, 2)[:99]],
        range(201, 201 + inner), [range(241, 242 + inner)],
    )


@pytest.mark.parametrize("lefts,form", [(127, bytes), (128, tuple)])
@settings(deadline=None, max_examples=10)
@given(data=st.data())
def test_single_level_walk_at_the_last_byte_pair_id(lefts, form, data):
    """254 pairs name ids up to 254, which fit a byte; 256 pairs reach 256,
    and the level is a tuple.  Either way the codec agrees with the token
    oracle, round-trips and refuses bent chains."""
    p, q, t = 200, 100, one_level_tuple(lefts)
    (level,) = bijection._assemble(*walk_args(p, q, t), 2)
    assert type(level) is form
    chain = encode_multichain(t, p, q)
    assert chain == encode_by_tokens(t, p, q)
    assert decode_multichain(chain, p, q) == t
    _refuse_bent_chains(p, q, t, data)


@pytest.mark.parametrize("p,q", DESK_PAIRS)
def test_block_ends_match_the_sorting_oracle(p, q):
    """The walk over the running order reads the same ends as sorting each
    block and its mirror, on every element of the shape.  It reads one
    member at a time, so these are the members of every two-member chain."""
    position = circle_positions(p, q)
    for pi in nc_b_annulus(p, q).elements:
        assert bijection._ends(pi._table, p, q) == block_ends_by_sorting(pi, p, position)


@settings(deadline=None)
@given(chain_tuples())
def test_block_ends_match_the_sorting_oracle_on_chains(case):
    "Every member of an encoded chain up to p + q = 12 and m = 6."
    p, q, t = case
    position = circle_positions(p, q)
    for pi in encode_multichain(t, p, q):
        assert bijection._ends(pi._table, p, q) == block_ends_by_sorting(pi, p, position)


def test_decode_builds_its_strings_once(monkeypatch):
    """A cold decode builds each circle's arrays once, with encode's
    `_circle`, and runs the left cycle lemma once: the anchor, the cycle
    lemma and the confirm read those same arrays instead of re-encoding,
    and the confirm compares levels with the chain without building a
    partition.  A decode right after its encode builds nothing: it reads
    the layout encode made, and only confirms."""
    chain = encode_multichain(CHAIN_TUPLE, 6, 3)
    calls, args, results = Counter(), {}, []

    def count(name):
        real = getattr(bijection, name)

        def counted(*given):
            calls[name] += 1
            args[name] = given
            result = real(*given)
            if name == "_circle":
                results.append(result)
            return result

        monkeypatch.setattr(bijection, name, counted)

    for name in ("_circle", "_left_starts", "_inner_anchor", "_assemble"):
        count(name)
    count("BPartition")
    count("_member")
    bijection._layout.cache_clear()
    assert decode_multichain(chain, 6, 3) == CHAIN_TUPLE
    assert calls == {"_circle": 2, "_left_starts": 1, "_inner_anchor": 1, "_assemble": 1}
    outer, inner = results
    assert args["_assemble"][2] is outer and args["_assemble"][4] is inner
    assert all(map(operator.is_, args["_left_starts"], outer))
    assert all(map(operator.is_, args["_inner_anchor"], inner))

    bijection._layout.cache_clear()
    assert encode_multichain(CHAIN_TUPLE, 6, 3) == chain
    encoded = args["_assemble"]
    calls.clear()
    assert decode_multichain(chain, 6, 3) == CHAIN_TUPLE
    assert calls == {"_assemble": 1}
    assert args["_assemble"][2] is encoded[2] and args["_assemble"][4] is encoded[4]


def test_the_tuples_of_one_run_of_d_share_one_layout():
    """The 2c tuples that differ only in d have one layout, which encode
    and decode share: the 170 tuples of `roundtrip-multichain` at max-n 3
    make 80 layouts, and each of their 340 lookups but those 80 is a hit."""
    bijection._layout.cache_clear()
    tuples = 0
    for p, q in [(1, 1), (2, 1)]:  # the shapes the family walks at max-n 3
        for m in (3, 4):
            for t in annulus_tuples(p, q, m):
                assert decode_multichain(encode_multichain(t, p, q), p, q) == t
                tuples += 1
    info = bijection._layout.cache_info()
    assert (tuples, info.misses, info.hits) == (170, 80, 260)


def test_levels_that_drop_no_pair_share_one_member(monkeypatch):
    """pi_j is pi_{j-1} itself exactly when no pair closes with type j - 1,
    and a decode reads the ends of each member's table once."""
    calls = Counter()
    real = bijection._ends

    def counted(table, p, q):
        calls[id(table)] += 1
        return real(table, p, q)

    monkeypatch.setattr(bijection, "_ends", counted)
    shared = 0
    for t in annulus_tuples(2, 2, 5):
        chain = encode_multichain(t, 2, 2)
        for j in range(1, len(chain)):
            drops = t.rights_outer[j - 1] or t.rights_inner[j - 1]
            assert (chain[j] is chain[j - 1]) == (not drops)
            shared += not drops
        calls.clear()
        assert decode_multichain(chain, 2, 2) == t
        assert calls == Counter({id(pi._table): 1 for pi in chain})
    assert shared


def decode_copies(chain, p, q):
    "Decode members equal to the chain's but distinct objects, as JSON gives."
    copies = [BPartition.from_json(pi.to_json()) for pi in chain]
    assert all(a == b and a is not b for a, b in zip(copies, chain))
    return decode_multichain(copies, p, q)


@pytest.mark.parametrize("p,q,m", [(2, 1, 4), (1, 2, 4), (3, 2, 3)])
def test_decode_reads_copies_as_the_chain(p, q, m):
    "The memos key on tables, so copies decode as the encoded members do."
    for t in annulus_tuples(p, q, m):
        chain = encode_multichain(t, p, q)
        assert decode_copies(chain, p, q) == decode_multichain(chain, p, q) == t


@pytest.mark.parametrize("p,q,kept", [(7, 6, 200), (6, 7, 200), (8, 6, 0), (6, 8, 0)])
def test_codec_memos_keep_only_shapes_that_pass_the_size_test(p, q, kept):
    """The first 200 tuples at m = 3 round-trip through JSON copies alike
    on both sides of the desk's size test (p + q <= 13), and their levels
    that drop no pair are one object.  At p + q = 13 each chain's one
    distinct level fills both memos; at 14 they stay empty."""
    for memo in (bijection._member, bijection._ends):
        memo.cache_clear()
    shared = 0
    for t in itertools.islice(annulus_tuples(p, q, 3), 200):
        chain = encode_multichain(t, p, q)
        drops = t.rights_outer[0] or t.rights_inner[0]
        assert (chain[1] is chain[0]) == (not drops)
        shared += not drops
        assert decode_copies(chain, p, q) == t
    assert shared
    for memo in (bijection._member, bijection._ends):
        info = memo.cache_info()
        assert (info.misses, info.currsize) == (kept, kept)


def test_decode_past_the_size_test_reads_each_distinct_table_once(monkeypatch):
    """Past the size test, decoding JSON copies reads the ends of each
    distinct table once, though the copies of a shared level are distinct
    objects, and it keeps none of them."""
    calls = Counter()
    real = bijection._ends.__wrapped__

    def counted(table, p, q):
        calls[table] += 1
        return real(table, p, q)

    monkeypatch.setattr(bijection._ends, "__wrapped__", counted)
    bijection._ends.cache_clear()
    shapes = Counter()
    for t in itertools.islice(annulus_tuples(8, 6, 3), 1500, 1700):  # both kinds
        chain = encode_multichain(t, 8, 6)
        tables = {pi._table for pi in chain}
        shapes[len(tables)] += 1
        calls.clear()
        assert decode_copies(chain, 8, 6) == t
        assert calls == Counter(tables)
    assert shapes[1] and shapes[2]
    assert bijection._ends.cache_info().currsize == 0


@pytest.mark.parametrize("p,q", DESK_PAIRS)
def test_memoised_block_ends_match_the_sorting_oracle(p, q):
    """A cold read and the shared warm one, made through a copy, both equal
    sorting each block and its mirror."""
    position = circle_positions(p, q)
    bijection._ends.cache_clear()
    for pi in nc_b_annulus(p, q).elements:
        copy = BPartition.from_json(pi.to_json())
        cold = bijection._ends(pi._table, p, q)
        assert bijection._ends(copy._table, p, q) is cold
        assert cold == block_ends_by_sorting(copy, p, position)


# Every shape up to p + q = 16, past the desk's size test (13) too.
SMALL_PAIRS = [(p, n - p) for n in range(2, 17) for p in range(1, n)]


def test_decode_start_index_matches_the_label_order_oracle():
    """A tuple whose one outer left is x has its two legal shifts start at
    x and -x, as the label-order oracle reads encode's start indices, and
    decode finds each shift again from its label: every outer label of
    every shape up to p + q = 16."""
    for p, q in SMALL_PAIRS:
        order = running_order(p, q)[0]
        for x in range(1, p + 1):
            labels = set()
            for d in (1, 2):
                t = AnnulusTuple(1, d, {x}, [()], (), [{p + 1}])
                start = bijection._layout(p, q, *t[2:])[2][d - 1]
                labels.add(order[start % (2 * p)])
                assert decode_multichain(encode_multichain(t, p, q), p, q) == t
            assert labels == {x, -x}


def test_placed_matches_the_label_order_oracle():
    """Putting running-order ids in place order by slices reads each place's
    running index as the oracle sorts them out, on distinct random ids."""
    rng = Random(42)
    for p, q in SMALL_PAIRS:
        inverse = running_order(p, q)[2]
        ids = rng.sample(range(256), 2 * (p + q))
        assert bijection._placed(ids, p, q) == [ids[r] for r in inverse]


def drawn_tuple(rng, p, q, levels):
    """A tuple at (p, q) with m = levels + 1, drawn by rng as `chain_tuples`
    draws one: c first, then right-set sizes within the size rules."""
    outer, inner = range(1, p + 1), range(p + 1, p + q + 1)
    c = rng.randint(1, min(p, q * levels))
    budget = p - c
    rights_outer = []
    for _ in range(levels):
        rights_outer.append(rng.sample(outer, rng.randint(0, budget)))
        budget -= len(rights_outer[-1])
    total = rng.randint(c, min(q + c, q * levels))
    rights_inner = []
    for left in range(levels, 0, -1):
        size = rng.randint(max(0, total - q * (left - 1)), min(q, total))
        rights_inner.append(rng.sample(inner, size))
        total -= size
    left_outer = rng.sample(outer, sum(map(len, rights_outer)) + c)
    left_inner = rng.sample(inner, sum(map(len, rights_inner)) - c)
    d = rng.randint(1, 2 * c)
    return AnnulusTuple(c, d, left_outer, rights_outer, left_inner, rights_inner)


@pytest.mark.parametrize("p,q", [(p, q) for p, q in SMALL_PAIRS if p + q >= 14])
def test_unmemoised_block_ends_match_the_sorting_oracle(p, q):
    """Past the size test, where `_ends` is read unmemoised, the ends of
    every member of drawn chains equal sorting each block and its mirror."""
    rng = Random(p * 100 + q)
    position = circle_positions(p, q)
    for _ in range(20):
        t = drawn_tuple(rng, p, q, rng.randint(1, 3))
        for pi in encode_multichain(t, p, q):
            assert bijection._ends.__wrapped__(pi._table, p, q) == block_ends_by_sorting(
                pi, p, position
            )


def test_codec_keeps_no_table_per_shape_past_the_size_test():
    """One round trip through JSON copies at each of 64 distinct shapes
    with p + q = 200, and at each of 64 distinct totals p + q = 200..326,
    leaves no memo in the package but the unbounded shape caches holding
    more than the layout memo's 16 entries: the codec's label order and
    every module's label places are arithmetic, so no table per shape or
    size is kept."""
    bounded = {name: memo for name, memo in memos().items() if name not in UNBOUNDED}
    assert "bijection._layout" in bounded
    for memo in bounded.values():
        memo.cache_clear()
    shapes = [(p, 200 - p) for p in range(60, 124)] + [(100, q) for q in range(100, 228, 2)]
    for p, q in shapes:
        t = AnnulusTuple(1, 1, {1}, [()], (), [{p + 1}])
        assert decode_copies(encode_multichain(t, p, q), p, q) == t
    sizes = {name: memo.cache_info().currsize for name, memo in bounded.items()}
    assert max(sizes.values()) <= 16, sizes


def test_warm_memos_still_reject():
    """With the memos warm from every valid (2, 1) chain at m = 4, its
    chains with two distinct levels swapped or the top made the bottom
    still raise, and so do the inputs of the test_decode_rejects tests,
    each decoded twice, after its own image where it has one."""
    for memo in (bijection._layout, bijection._member, bijection._ends):
        memo.cache_clear()
    chains = [encode_multichain(t, 2, 1) for t in annulus_tuples(2, 1, 4)]
    for chain in chains:
        decode_copies(chain, 2, 1)
    bottom = BPartition.singletons(3)
    bent = [chain[:-1] + (bottom,) for chain in chains]
    for chain in chains:
        for i, j in itertools.combinations(range(len(chain)), 2):
            if chain[i] != chain[j]:
                swapped = list(chain)
                swapped[i], swapped[j] = chain[j], chain[i]
                bent.append(swapped)
    t = AnnulusTuple.from_text("c=1 d=2 LE=2,3,4 RE1=1,4 LI=6 RI1=5,6")
    assert decode_annulus(encode_annulus(t, 4, 2), 4, 2) == t
    coarser = BPartition(6, [[1, -3, 4], [-1, 3, -4], [2, 5], [-2, -5], [6], [-6]])
    others = [
        ([BPartition.singletons(2)], 1, 1),
        ([BPartition.singletons(2)] * 2, 1, 1),
        ([coarser], 4, 2),
    ]
    for members, p, q in [(chain, 2, 1) for chain in bent] + others * 2:
        with pytest.raises(ValueError):
            decode_multichain(members, p, q)


@pytest.mark.parametrize("p,q,m", [(2, 1, 4), (1, 2, 4), (3, 2, 3), (2, 2, 3)])
def test_cleared_memos_give_the_warm_results(p, q, m):
    """Encoding and decoding after cache_clear() give what they gave with
    the memos warm, and a warm encode hands out the members it made."""
    domain = list(annulus_tuples(p, q, m))
    warm = []
    for t in domain:
        warm.append(encode_multichain(t, p, q))
        assert all(map(operator.is_, encode_multichain(t, p, q), warm[-1]))
    assert [decode_multichain(chain, p, q) for chain in warm] == domain
    bijection._layout.cache_clear()
    bijection._member.cache_clear()
    bijection._ends.cache_clear()
    cold = [encode_multichain(t, p, q) for t in domain]
    assert cold == warm
    bijection._layout.cache_clear()
    bijection._ends.cache_clear()
    assert [decode_copies(chain, p, q) for chain in cold] == domain


def assert_made_as_from_text(t):
    "t equals the tuple the validating door reads off its text, field types too."
    again = AnnulusTuple.from_text(t.to_text())
    assert t == again and hash(t) == hash(again)
    for side in (t, again):
        assert type(side.c) is type(side.d) is int
        assert type(side.left_outer) is type(side.left_inner) is frozenset
        assert type(side.rights_outer) is type(side.rights_inner) is tuple
        assert {frozenset} == set(map(type, side.rights_outer + side.rights_inner))


@pytest.mark.parametrize("p,q", [(p, n - p) for n in range(2, 6) for p in range(1, n)])
def test_private_door_makes_what_the_public_door_accepts(p, q):
    """Every tuple of the domain, and every decode of its encoding, on the
    shapes with p + q <= 5 at m = 2, 3 (and 4 up to p + q = 4), is the
    tuple __init__ builds from its text."""
    for m in (2, 3, 4) if p + q <= 4 else (2, 3):
        for t in annulus_tuples(p, q, m):
            assert_made_as_from_text(t)
            found = decode_multichain(encode_multichain(t, p, q), p, q)
            assert found == t
            assert_made_as_from_text(found)


@pytest.mark.parametrize("seed", range(3))
def test_codec_past_one_byte_pair_ids(seed):
    """With 128 or more "(" the pair ids pass 255, and the level tables
    that key the member memo are tuples: the codec still agrees with the
    token oracle and round-trips."""
    rng = Random(seed)
    p, q = 150, 120
    outer, inner = range(1, p + 1), range(p + 1, p + q + 1)
    rights_outer = [rng.sample(outer, 60), rng.sample(outer, 40)]
    rights_inner = [rng.sample(inner, 70), rng.sample(inner, 50)]
    c = rng.randint(1, 20)
    t = AnnulusTuple(
        c,
        rng.randint(1, 2 * c),
        rng.sample(outer, 100 + c),
        rights_outer,
        rng.sample(inner, 120 - c),
        rights_inner,
    )
    assert len(t.left_outer) + len(t.left_inner) >= 128
    chain = encode_multichain(t, p, q)
    assert chain == encode_by_tokens(t, p, q)
    assert decode_multichain(chain, p, q) == decode_copies(chain, p, q) == t


@pytest.mark.parametrize(
    "fields,circle",
    [
        ({"left_outer": {0}}, "outer subsets must lie in 1..3"),
        ({"left_outer": {4}}, "outer subsets must lie in 1..3"),
        ({"left_outer": {1, 2}, "rights_outer": [{4}]}, "outer subsets must lie in 1..3"),
        ({"left_inner": {3}}, "inner subsets must lie in 4..5"),
        ({"rights_inner": [{4, 6}]}, "inner subsets must lie in 4..5"),
        ({"rights_inner": [{3, 5}]}, "inner subsets must lie in 4..5"),
    ],
)
def test_encode_rejects_a_label_off_its_circle(fields, circle):
    "A label one past either end of its circle's range is named by its circle."
    base = {
        "c": 1, "d": 1, "left_outer": {1}, "rights_outer": [set()],
        "left_inner": {4}, "rights_inner": [{4, 5}],
    }
    t = AnnulusTuple(**{**base, **fields})
    with pytest.raises(ValueError, match=re.escape(circle)):
        encode_multichain(t, 3, 2)
