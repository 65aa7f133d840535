import json
import re
from random import Random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from ncb import (
    AnnulusShape,
    BPartition,
    SignedPermutation,
    adjusted_orbits,
    boundary_permutation,
    connectivity,
    kreweras,
    meet_q1,
    nc_b_annulus,
    nc_b_disc,
    pair_stats,
)
from ncb import partition
from oracles import (
    ClassicalPartition,
    abs_map,
    blocks_by_lookup,
    label_places,
    meet_by_blocks,
    nc_a,
    pair_stats_by_blocks,
    place_table_by_lookup,
    refines_by_blocks,
    same_partition_by_pairs,
    table_by_links,
)
from test_signed_perm import signed_perms

TOP3 = BPartition(3, [[1, -1, 2, -2, 3, -3]])

WORKED = BPartition(
    8,
    [[1, -5], [-1, 5], [2], [-2], [3, -4, -6, 8], [-3, 4, 6, -8], [7], [-7]],
)


def test_canonical_form():
    "Block and element order do not matter."
    a = BPartition(2, [[1, 2], [-2, -1]])
    b = BPartition(2, [[-1, -2], [2, 1]])
    assert a == b
    assert hash(a) == hash(b)
    assert a.blocks == ((1, 2), (-1, -2))
    assert a.block_string() == "{1,2}{-1,-2}"


def test_element_order_within_block():
    "Within a block the positive label comes before its negative."
    top = BPartition(2, [[2, -1, 1, -2]])
    assert top.blocks == ((1, -1, 2, -2),)


@pytest.mark.parametrize(
    "n,blocks,named",
    [
        pytest.param(2, [[1, 2], [-1, -2], []], None, id="blocks0"),
        pytest.param(3, [[1, 2], [-1, -2], [3]], None, id="blocks1"),
        pytest.param(2, [[1, 0], [-1, 2, -2]], None, id="blocks2"),
        pytest.param(1, [[1], [0]], "bad or repeated element 0 for n=1", id="zero-for-last"),
        pytest.param(
            3, [[1, -1], [2, -2], [3, 4]], "bad or repeated element 4 for n=3", id="4-on-the-place-of--3"
        ),
        pytest.param(
            3, [[1, -1], [2, -2], [-3, -4]], "bad or repeated element -4 for n=3", id="-4-on-the-place-of-3"
        ),
        pytest.param(2, [[1, 2], [-1, -2], [1, -1]], None, id="blocks3"),
        pytest.param(3, [[1, -2], [2, -1, 3, -3]], None, id="blocks4"),
        pytest.param(2, [[1, -1], [2, -2]], None, id="blocks5"),
        pytest.param(True, [[1], [-1]], "n must be an int, not True", id="bool-n"),
        pytest.param(1.0, [[1], [-1]], "n must be an int, not 1.0", id="float-n"),
        pytest.param(-1, [], "n must be at least 0, not -1", id="negative-n"),
        pytest.param(10**30, [[1], [-1]], "blocks do not cover", id="huge-n"),
        pytest.param(1, [[1.0], [-1]], "block element 1.0 is", id="float-element"),
        pytest.param(1, [[1], [False]], "block element False is", id="bool-element"),
    ],
)
def test_constructor_rejects(n, blocks, named):
    """Coverage, negation closure, the single invariant block and int
    values are enforced; a value of the wrong type or sign is named."""
    with pytest.raises(ValueError, match=named and re.escape(named)):
        BPartition(n, blocks)


def test_singletons():
    "The bottom element has all blocks singleton and rank zero."
    bot = BPartition.singletons(3)
    assert len(bot.blocks) == 6
    assert bot.rank() == 0
    assert bot.zero_block() is None
    big = BPartition.singletons(200)  # more blocks than a byte can index
    assert len(big.blocks) == 400 and big.rank() == 0
    assert big == BPartition(200, reversed(big.blocks)) and big != BPartition.singletons(199)
    assert big.block_containing(-7) == (-7,)


def test_zero_block_and_rank():
    "The invariant block is excluded from the rank count."
    assert TOP3.zero_block() == (1, -1, 2, -2, 3, -3)
    assert TOP3.rank() == 3
    mid = BPartition(2, [[1, -1], [2], [-2]])
    assert mid.zero_block() == (1, -1)
    assert mid.rank() == 1
    assert WORKED.zero_block() is None
    assert WORKED.rank() == 4


def test_block_containing():
    "Lookup returns the canonical block of any signed label."
    assert WORKED.block_containing(-6) == (3, -4, -6, 8)
    assert WORKED.block_containing(6) == (-3, 4, 6, -8)
    for x in (9, 0, -9):
        with pytest.raises(KeyError):
            WORKED.block_containing(x)


@pytest.mark.parametrize("n", [*range(1, 71), 2000])
def test_label_places_match_the_listed_order(n):
    """`partition._place` equals listing the order 1, -1, 2, -2, ...; the
    tables that `BPartition(n, blocks)` and `adjusted_orbits` build, and
    the blocks read off them, equal looking each label up in that list,
    for tables of bytes and of ints (more than 256 blocks) alike."""
    places = label_places(n)
    assert {x: partition._place(x) for x in places} == places
    rng = Random(n)
    image = [x * rng.choice((1, -1)) for x in rng.sample(range(1, n + 1), n)]
    for perm in SignedPermutation(image), SignedPermutation.identity(n):
        orbits = perm.orbits()
        invariant = [x for orbit in orbits if -orbit[0] in orbit for x in orbit]
        blocks = [orbit for orbit in orbits if -orbit[0] not in orbit]
        if invariant:
            blocks.append(invariant)
        rng.shuffle(blocks)
        table = place_table_by_lookup(n, blocks)
        assert [*adjusted_orbits(perm)._table] == table
        built = BPartition(n, blocks)
        assert [*built._table] == table
        assert built.blocks == blocks_by_lookup(n, blocks)
        assert all(x in built.block_containing(x) for x in places)


def test_json_round_trip():
    "Serialization is stable and inverts exactly."
    for pi in nc_b_annulus(2, 1).elements:
        text = pi.to_json()
        again = BPartition.from_json(text)
        assert again == pi
        assert again.to_json() == text
    assert BPartition.from_dict(WORKED.to_dict()) == WORKED


@pytest.mark.parametrize(
    "data,named",
    [
        ({"n": 2, "blocks": [[0.5], [-0.5], [1], [-1]]}, "0.5"),
        ({"n": 2, "blocks": [[1.0], [-1], [2], [-2]]}, "1.0"),
        ({"n": 2, "blocks": [[True], [-1], [2], [-2]]}, "True"),
        ({"n": 2.0, "blocks": [[1], [-1], [2], [-2]]}, "2.0"),
        ({"n": True, "blocks": [[1], [-1]]}, "True"),
    ],
    ids=["fraction", "integral-float", "bool", "float-n", "bool-n"],
)
def test_from_dict_rejects_non_int(data, named):
    "Only plain ints are elements or sizes; the error names the value."
    with pytest.raises(ValueError, match=named):
        BPartition.from_dict(data)


def test_le_is_reverse_refinement():
    "Merging blocks moves up, and incomparable pairs exist."
    bot = BPartition.singletons(2)
    ab = BPartition(2, [[1, 2], [-1, -2]])
    ax = BPartition(2, [[1, -2], [-1, 2]])
    top = BPartition(2, [[1, -1, 2, -2]])
    assert bot.le(ab) and ab.le(top)
    assert not ab.le(ax) and not ax.le(ab)
    assert not top.le(ab)
    with pytest.raises(ValueError):
        bot.le(TOP3)


def test_adjusted_orbits():
    "Orbits become blocks, with all invariant orbits pooled."
    assert adjusted_orbits(SignedPermutation.identity(2)) == BPartition.singletons(2)
    swap = SignedPermutation.from_cycles(3, (1, 2))
    assert adjusted_orbits(swap) == BPartition(
        3, [[1, 2], [-1, -2], [3], [-3]]
    )
    gamma = boundary_permutation(AnnulusShape(2, 1))
    assert adjusted_orbits(gamma) == TOP3
    flip = SignedPermutation.from_cycles(3, (1, -1), (2, -2))
    assert adjusted_orbits(flip) == BPartition(
        3, [[1, -1, 2, -2], [3], [-3]]
    )


def test_pair_stats_worked_example():
    "Connecting, exterior, interior pair counts on a known partition."
    stats = pair_stats(WORKED, AnnulusShape(5, 3))
    assert stats == (1, 2, 1)
    assert connectivity(WORKED, AnnulusShape(5, 3)) == 1


def test_pair_stats_zero_block_not_connecting():
    "A zero block spanning both circles does not count as connecting."
    shape = AnnulusShape(2, 1)
    assert pair_stats(TOP3, shape) == (0, 0, 0)
    assert connectivity(TOP3, shape) == 0


def test_rank_equals_size_minus_pairs():
    "Rank always equals n minus the total number of block pairs."
    shape = AnnulusShape(2, 2)
    for pi in nc_b_annulus(2, 2).elements:
        c, e, i = pair_stats(pi, shape)
        assert pi.rank() == 4 - (c + e + i)


def test_abs_map_fibers():
    "Forgetting signs covers each noncrossing partition four times."
    images = [abs_map(pi) for pi in nc_b_disc(3).elements]
    assert all(im.is_noncrossing() for im in images)
    classical = set(nc_a(3).elements)
    assert set(images) == classical
    for target in classical:
        assert images.count(target) == 4
    assert abs_map(WORKED).blocks == ((1, 5), (2,), (3, 4, 6, 8), (7,))


def test_classical_noncrossing():
    "Crossing detection on one circle."
    assert ClassicalPartition(4, [[1, 4], [2, 3]]).is_noncrossing()
    assert not ClassicalPartition(4, [[1, 3], [2, 4]]).is_noncrossing()
    assert ClassicalPartition(4, [[1, 2, 3, 4]]).block_string() == "{1,2,3,4}"
    with pytest.raises(ValueError):
        ClassicalPartition(2, [[1]])


def test_kreweras_complement():
    "The complement reverses order and complements rank."
    shape = AnnulusShape(2, 1)
    poset = nc_b_annulus(2, 1)
    images = {kreweras(pi, shape) for pi in poset.elements}
    assert images == set(poset.elements)
    for pi in poset.elements:
        assert kreweras(pi, shape).rank() == 3 - pi.rank()
    for a in poset.elements:
        for b in poset.elements:
            if a.le(b):
                assert kreweras(b, shape).le(kreweras(a, shape))
    assert kreweras(BPartition.singletons(3), shape) == TOP3
    assert kreweras(TOP3, shape) == BPartition.singletons(3)


def test_meet_is_greatest_lower_bound():
    "The blockwise meet is the greatest lower bound on the annulus with one inner point."
    shape = AnnulusShape(2, 1)
    elements = nc_b_annulus(2, 1).elements
    for a in elements:
        for b in elements:
            m = meet_q1(a, b, shape)
            assert m.le(a) and m.le(b)
            for c in elements:
                if c.le(a) and c.le(b):
                    assert c.le(m)


def test_meet_requires_single_inner_point():
    "Shapes with a larger inner circle are rejected."
    shape = AnnulusShape(2, 2)
    bot = BPartition.singletons(4)
    with pytest.raises(ValueError):
        meet_q1(bot, bot, shape)


@pytest.mark.parametrize(
    "p,q", [(p, t - p) for t in range(2, 7) for p in range(1, t)], ids=str
)
def test_pair_stats_match_the_block_oracle(p, q):
    "The place-table statistics equal the block-list ones on every element."
    shape = AnnulusShape(p, q)
    for pi in nc_b_annulus(p, q).elements:
        assert pair_stats(pi, shape) == pair_stats_by_blocks(pi, shape)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(
            lambda: pair_stats(TOP3, AnnulusShape(3)),
            "pair statistics need a two-circle shape",
            id="pair-stats-one-circle",
        ),
        pytest.param(
            lambda: pair_stats(TOP3, AnnulusShape(2, 2)),
            "shape size does not match the partition",
            id="pair-stats-size",
        ),
        pytest.param(
            lambda: meet_q1(TOP3, BPartition.singletons(3), AnnulusShape(3, 1)),
            "shape size does not match the partitions",
            id="meet-q1-size",
        ),
    ],
)
def test_two_circle_statistics_refuse_a_shape_that_does_not_fit(call, message):
    "A shape of the wrong circle count or size is refused with its message."
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("p", [1, 2, 3])
def test_meet_q1_matches_the_block_oracle(p):
    "The place-table meet equals the blockwise intersections on every pair."
    shape = AnnulusShape(p, 1)
    elements = nc_b_annulus(p, 1).elements
    for a in elements:
        for b in elements:
            assert meet_q1(a, b, shape) == meet_by_blocks(a, b)


@settings(deadline=None)
@given(st.integers(2, 9).flatmap(lambda n: st.tuples(signed_perms(n), signed_perms(n))))
def test_table_readings_match_the_block_oracles_on_random_partitions(perms):
    """Order, pair statistics and meet of adjusted orbits of random signed
    permutations, whose invariant orbits merge, equal the block-list ones."""
    a, b = map(adjusted_orbits, perms)
    shape = AnnulusShape(a.n - 1, 1)
    m = meet_q1(a, b, shape)
    assert m == meet_by_blocks(a, b)
    for x, y in [(a, b), (b, a), (m, a), (m, b), (a, m)]:
        assert x.le(y) == refines_by_blocks(x, y)
    for p in range(1, a.n):
        shape = AnnulusShape(p, a.n - p)
        assert pair_stats(a, shape) == pair_stats_by_blocks(a, shape)


def test_pair_mask_keeps_one_bit_per_mirrored_pair_of_places():
    """The mask holds one bit per mirrored pair of places in one block, in
    even rows: none for the singletons, n^2 for the one-block top."""
    for n in range(1, 9):
        top = BPartition(n, [[x for a in range(1, n + 1) for x in (a, -a)]])
        assert BPartition.singletons(n).pair_mask == 0
        assert top.pair_mask.bit_count() == n * n
        bits = [b for b in range(4 * n * n) if top.pair_mask >> b & 1]
        assert all(b // (2 * n) % 2 == 0 for b in bits)


@given(st.integers(1, 4))
def test_extremes_bound_everything(n):
    "Bottom and top bound the whole poset for any size."
    bot = BPartition.singletons(n)
    top = BPartition(n, [[x for a in range(1, n + 1) for x in (a, -a)]])
    assert bot.le(top)
    assert bot.rank() == 0
    assert top.rank() == n


def old_canonical_blocks(blocks):
    "Canonical form by full keys: elements by (|x|, x < 0), blocks by key tuples."
    key = lambda x: (abs(x), x < 0)
    canon = [tuple(sorted(block, key=key)) for block in blocks]
    return tuple(sorted(canon, key=lambda b: tuple(key(x) for x in b)))


@st.composite
def negation_closed_blocks(draw):
    "A random negation-closed partition of -n..-1, 1..n, as shuffled blocks."
    n = draw(st.integers(1, 9))
    zero = draw(st.sets(st.integers(1, n)))
    groups: dict[int, list[int]] = {}
    for a in range(1, n + 1):
        if a not in zero:
            sign = draw(st.sampled_from((1, -1)))
            groups.setdefault(draw(st.integers(0, n)), []).append(sign * a)
    blocks = [[x for z in zero for x in (z, -z)]] if zero else []
    for block in groups.values():
        blocks += [block, [-x for x in block]]
    blocks = [draw(st.permutations(block)) for block in blocks]
    return n, draw(st.permutations(blocks))


@given(negation_closed_blocks())
def test_canonical_form_matches_full_key_sort(case):
    "Sorting blocks by their first element equals sorting by full key tuples."
    n, blocks = case
    assert BPartition(n, blocks).blocks == old_canonical_blocks(blocks)


@pytest.mark.parametrize(
    "blocks",
    [
        [[1, 2], [-1], [-2]],  # a split negation
        [[1, 2], [-1, -2, 3], [-3]],  # a negation inside a larger block
        [[1, -1], [2, -2], [3], [-3]],  # two invariant blocks
        [[1, 2], [-1, -2], [2]],  # a repeated element
    ],
)
def test_negation_check_rejects(blocks):
    "Each way negation closure can fail raises ValueError."
    n = max(abs(x) for b in blocks for x in b)
    with pytest.raises(ValueError):
        BPartition(n, blocks)


def keyed_canonical(n, blocks):
    """The canonicaliser BPartition used before its C-level sorts: blocks
    sorted by a per-element key, negation checked through a block index."""
    key = lambda x: 2 * abs(x) + (x < 0)
    canon = []
    seen = set()
    for block in blocks:
        block = tuple(sorted(set(block), key=key))
        if not block:
            raise ValueError("empty block")
        for x in block:
            if x == 0 or abs(x) > n or x in seen:
                raise ValueError(f"bad or repeated element {x} for n={n}")
            seen.add(x)
        canon.append(block)
    if len(seen) != 2 * n:
        raise ValueError(f"blocks do not cover -{n}..-1, 1..{n}")
    canon.sort(key=lambda b: key(b[0]))
    block_of = {x: i for i, block in enumerate(canon) for x in block}
    invariant = 0
    for i, block in enumerate(canon):
        j = block_of.get(-block[0])
        same_size = j is not None and len(canon[j]) == len(block)
        if not same_size or any(block_of.get(-x) != j for x in block):
            raise ValueError(f"negation of block {block} is not a block")
        invariant += i == j
    if invariant > 1:
        raise ValueError("more than one inversion-invariant block")
    return tuple(canon)


def outcome(canonicalise):
    "The canonical blocks, or the message of the ValueError raised."
    try:
        return canonicalise()
    except ValueError as exc:
        return f"ValueError: {exc}"


@st.composite
def damaged_blocks(draw):
    """A negation-closed partition with one or two faults: a zero, an
    out-of-range or repeated element in place of one element (or in an
    emptied block), an element moved out of its block
    (negation not closed), a block merged with its negation (one more
    invariant block), an empty block."""
    n, blocks = draw(negation_closed_blocks())
    blocks = [list(block) for block in blocks]
    for _ in range(draw(st.integers(1, 2))):
        fault = draw(st.sampled_from(["zero", "range", "repeat", "move", "merge", "empty"]))
        i = draw(st.integers(0, len(blocks) - 1))
        if fault == "empty":
            blocks.insert(i, [])
        elif fault == "zero":  # in place of an element, so the count still fits
            blocks[i][-1:] = [0]
        elif fault == "range":
            blocks[i][-1:] = [draw(st.sampled_from((n + 1, -n - 1, n + 2)))]
        elif fault == "repeat":
            blocks[i][-1:] = [draw(st.sampled_from([x for b in blocks for x in b]))]
        elif fault == "move" and len(blocks) > 1 and blocks[i]:
            x = blocks[i].pop()
            if not blocks[i]:
                del blocks[i]
            j = draw(st.integers(0, len(blocks)))
            blocks.append([x]) if j == len(blocks) else blocks[j].append(x)
        elif fault == "merge":
            mirror = sorted(-x for x in blocks[i])
            j = next((j for j, b in enumerate(blocks) if sorted(b) == mirror), i)
            if j != i:
                blocks[min(i, j)] += blocks.pop(max(i, j))
    return n, draw(st.permutations(blocks))


@settings(max_examples=300)
@given(
    st.one_of(
        negation_closed_blocks(),
        damaged_blocks(),
        st.tuples(
            st.integers(0, 4),
            st.lists(st.lists(st.integers(-5, 5), max_size=5), max_size=6),
        ),
    )
)
def test_canonical_form_matches_keyed_canonicaliser(case):
    "Same blocks, or ValueError with the same message, as the old canonicaliser."
    n, blocks = case
    assert outcome(lambda: BPartition(n, blocks).blocks) == outcome(
        lambda: keyed_canonical(n, blocks)
    )


@given(negation_closed_blocks())
def test_to_json_matches_json_dumps(case):
    "The shared encoder writes what json.dumps writes for the partition's dict."
    pi = BPartition(*case)
    assert pi.to_json() == json.dumps(pi.to_dict(), separators=(",", ":"))


def _place(x):
    "Place of label x in the order 1, -1, 2, -2, ..."
    return 2 * abs(x) - 2 + (x < 0)


@st.composite
def owner_tables(draw):
    """A negation-closed partition as blocks and as a place table under
    random block names, with at most one fault: a block split off one of
    its labels (negation not closed), a second inversion-invariant block
    (a pair of blocks merged with each other), or a label dropped (its
    place left uncovered, None in the table)."""
    n, blocks = draw(negation_closed_blocks())
    blocks = [list(block) for block in blocks]
    invariant = [b for b in blocks if -b[0] in b]
    pairs = [b for b in blocks if -b[0] not in b and min(b, key=abs) > 0]
    split = [b for b in blocks if len(b) > (2 if -b[0] in b else 1)]
    fault = draw(st.sampled_from([None, "split", "invariant", "uncover"]))
    if fault == "split" and split:
        block = draw(st.sampled_from(split))
        blocks.append([block.pop()])
    elif fault == "invariant" and len(invariant) + len(pairs) > 1 and pairs:
        for block in draw(st.permutations(pairs))[: 2 - len(invariant)]:
            mirror = next(b for b in blocks if -block[0] in b)
            blocks.remove(mirror)
            block += mirror
    elif fault == "uncover":
        block = draw(st.sampled_from(blocks))
        block.pop(draw(st.integers(0, len(block) - 1)))
        if not block:
            blocks.remove(block)
    else:
        fault = None
    names = draw(st.lists(st.integers(), min_size=len(blocks), max_size=len(blocks), unique=True))
    owner = [None] * (2 * n)
    for name, block in zip(names, blocks):
        for x in block:
            owner[_place(x)] = name
    return n, blocks, owner, fault


@settings(max_examples=200)
@given(owner_tables())
def test_from_owner_matches_the_constructor(case):
    """The canonical core reached from a place table under any block names
    gives the partition the validating constructor gives from the blocks,
    or raises the constructor's message for the same fault."""
    n, blocks, owner, fault = case
    found = outcome(lambda: BPartition._from_owner(n, owner).blocks)
    assert found == outcome(lambda: BPartition(n, blocks).blocks)
    if fault is None:
        pi = BPartition._from_owner(n, owner)
        assert pi == BPartition(n, blocks) and hash(pi) == hash(BPartition(n, blocks))
    else:
        expected = {
            "split": "ValueError: negation of block (",
            "invariant": "ValueError: more than one inversion-invariant block",
            "uncover": f"ValueError: blocks do not cover -{n}..-1, 1..{n}",
        }[fault]
        assert found.startswith(expected)


@st.composite
def named_owners(draw):
    """(n, blocks, owner): a negation-closed partition, small or past 128
    labels, past 256 blocks when most labels sit in pairs of their own,
    with at most one fault: a label split off its block (negation not
    closed), pairs merged with their mirrors until two blocks are
    invariant, or, in a list owner, a place left in no block.  The owner
    names the blocks at random, as bytes or a list while they fit in 256
    names and as a list of ints past that.  The draws come from a seeded
    `Random`, whose uniform draws reach the large shapes."""
    rng = Random(draw(st.integers(0, 2**32)))
    n = draw(st.one_of(st.integers(1, 10), st.integers(129, 170)))
    alone = 0.95 if n > 128 else rng.random()  # the share of labels in pairs of their own
    groups = rng.choice((1, 3, n))
    pair_of = {x: x if rng.random() < alone else rng.randrange(groups) for x in range(1, n + 1)}
    zero = {x for x in pair_of if rng.random() < 0.03}
    blocks: dict = {}  # the zero block keyed 0, a pair's blocks (pair, ±1)
    for x in range(1, n + 1):
        if x in zero:
            blocks.setdefault(0, []).extend((x, -x))
        else:
            sign = rng.choice((1, -1))
            blocks.setdefault((pair_of[x], 1), []).append(sign * x)
            blocks.setdefault((pair_of[x], -1), []).append(-sign * x)
    blocks = [*blocks.values()]
    fault = rng.choice([None, "split", "invariant", "uncover"])
    if fault == "split" and max(map(len, blocks)) > 1:
        block = rng.choice([b for b in blocks if len(b) > 1])
        blocks.append([block.pop(rng.randrange(len(block)))])
    elif fault == "invariant":  # one pair merged past a zero block, else two
        for _ in range(1 if zero else 2):
            block = rng.choice(blocks)
            mirror = next(b for b in blocks if -block[0] in b)
            if mirror is not block:
                blocks.remove(mirror)
                block += mirror
    names = rng.sample(range(256) if len(blocks) <= 256 else range(-10**6, 10**6), len(blocks))
    owner = [None] * (2 * n)
    for name, block in zip(names, blocks):
        for x in block:
            owner[2 * abs(x) - 2 + (x < 0)] = name
    if fault == "uncover":
        owner[rng.randrange(2 * n)] = None
    elif len(blocks) <= 256 and rng.random() < 0.5:
        owner = bytes(owner)
    return n, blocks, owner


def _singletons(n):
    "All singleton blocks, in place order."
    return [[x] for k in range(1, n + 1) for x in (k, -k)]


@settings(max_examples=300, deadline=None)
@given(named_owners())
@example((128, _singletons(128), bytes(range(255, -1, -1))))  # 256 blocks, as bytes
@example((128, _singletons(128), [*range(255, -1, -1)]))  # and as a list
@example((129, [*_singletons(128), [129, -129]], [*range(256, 0, -1), 0, 0]))  # 257 blocks
@example((129, _singletons(129), [*range(257, -1, -1)]))  # 258 blocks
def test_from_owner_matches_the_link_oracle(case):
    """The byte maps that rename a bytes owner and check a bytes table's
    negation build the table, or raise the message, that a dict rename and
    the set of (block of x, block of -x) links give, for bytes and list
    owners, within and past 256 blocks."""
    n, blocks, owner = case
    found = outcome(lambda: BPartition._from_owner(n, owner)._table)
    assert found == outcome(lambda: table_by_links(n, owner))
    if None not in [*owner]:  # every place in a block, as the blocks have it
        assert found == outcome(lambda: BPartition(n, blocks)._table)


@settings(max_examples=200, deadline=None)
@given(named_owners(), st.data())
def test_relabelled_matches_the_pair_count_confirm(case, data):
    """Decode's confirm, a level relabelled against a member's table, holds
    exactly when the two tables name as many blocks as the pairs of their
    entries do: on the owner against its own partition and against a
    partition with two labels swapped."""
    n, blocks, owner = case
    try:
        table = BPartition._from_owner(n, owner)._table
    except ValueError:
        return
    x, y = data.draw(st.lists(st.integers(1, n), min_size=2, max_size=2))
    y *= data.draw(st.sampled_from((1, -1)))
    swap = {x: y, y: x, -x: -y, -y: -x}
    swapped = BPartition(n, ([swap.get(z, z) for z in b] for b in blocks))._table
    for member in (table, swapped):
        assert (partition._relabelled(owner) == member) == same_partition_by_pairs(owner, member)


def test_blocks_and_pair_mask_are_filled_once_into_the_instance():
    "The first read stores blocks and pair_mask in __dict__; later reads find them there."
    pi = BPartition(WORKED.n, WORKED.blocks)
    assert "blocks" not in vars(pi) and "pair_mask" not in vars(pi)
    blocks, mask = pi.blocks, pi.pair_mask
    assert vars(pi)["blocks"] is blocks and vars(pi)["pair_mask"] == mask
    assert pi.blocks is blocks and blocks == WORKED.blocks
    assert BPartition.pair_mask.__doc__.startswith("Bitmask")  # read on the class
