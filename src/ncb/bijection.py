"""The parenthesis-string bijections between subset tuples and partitions.

A circle's boundary string carries its labels in running order and then
their negatives, with a "(" before each left label and typed closers after
each right label, in ascending type.  The string is one period written
twice, so the codec keeps one period as per-label arrays: whether a "("
comes before the label, and the closer types after it.  The classical
cycle lemma, run on one period of per-label group steps, selects the
legal shifts: the legal starts of the two-turn word are those of one
period and the same starts shifted by the period.  Concatenating the
outer string from its d-th legal left start with the inner string after
its anchor (the last legal right group end among those ending with the
highest closer type) gives a matchable string whose nesting structure is
read off as a partition, one partition per closer type for multichains,
in one walk over the labels of both rotations; a one-partition chain's
walk keeps only the stack of open pairs.  A tuple's sets fix both
strings, and d only picks one of the 2c legal shifts, so the per-label
arrays, the legal left starts and the inner anchor form one layout,
memoised by the four sets and shared by every d and by decoding.  One
builder, `_chain`, reads every chain off a layout, and the layout keeps
the tables of the last chain read off it.
Decoding reads the tuple's sets straight off the first and last elements
of the blocks, level by level, takes their layout as encoding does, and
reads the shift off the block whose closer ends the inner string.  Its
image check is to encode the tuple it read and compare: a decode right
after its encode finds that chain kept.
A poset has far more multichains than elements, so the members are
memoised by their levels' pair-id tables, and all that decoding reads off
a member (its block ends, their firsts and lasts split by circle, the
first keyed by the last) by the member's place table, for the shapes
that pass the desk's size test: only their chains can be enumerated, so
only there do chains repeat.  Past it a call builds each distinct level's
member, and reads each distinct table's record, once, and keeps none; a
label's place is arithmetic, so nothing per shape is kept but the 16
layouts, each with one chain.  Every memo is bounded, and its values are
shared and so read-only, but for a layout's kept chain, which only
`_chain` replaces.  A subset tuple is an immutable value, a named tuple
whose constructor checks outside input."""

from __future__ import annotations

import itertools
from bisect import bisect, bisect_left
from functools import lru_cache
from itertools import accumulate
from operator import sub
from typing import NamedTuple, Sequence

from .enumeration import _passes_size_test
from .partition import BPartition


class _Fields(NamedTuple):  # NamedTuple forbids a __new__ of its own
    c: int
    d: int
    left_outer: frozenset[int]
    rights_outer: tuple[frozenset[int], ...]
    left_inner: frozenset[int]
    rights_inner: tuple[frozenset[int], ...]


class AnnulusTuple(_Fields):
    """Subset data (c, d; lefts and typed rights on both circles), an
    immutable value.

    `rights_outer` and `rights_inner` hold one set per paren type 1..m-1;
    sizes must satisfy |left_outer| = sum |rights_outer| + c and
    |left_inner| = sum |rights_inner| - c, with 1 <= d <= 2c.  The
    constructor checks outside input; the library's own tuples, which meet
    the sizes and bounds, are made past it by `_make`.
    """

    __slots__ = ()

    def __new__(cls, c, d, left_outer, rights_outer, left_inner, rights_inner):
        rights_outer = tuple(frozenset(r) for r in rights_outer)
        rights_inner = tuple(frozenset(r) for r in rights_inner)
        left_outer = frozenset(left_outer)
        left_inner = frozenset(left_inner)
        for name, value in ("c", c), ("d", d):
            if type(value) is not int:
                raise ValueError(f"{name} must be an int, not {value!r}")
        labels = (left_outer, left_inner, *rights_outer, *rights_inner)
        if not {int}.issuperset(map(type, itertools.chain(*labels))):
            bad = next(x for x in itertools.chain(*labels) if type(x) is not int)
            raise ValueError(f"label {bad!r} is not an int")
        if c < 1:
            raise ValueError("c must be at least 1")
        if not 1 <= d <= 2 * c:
            raise ValueError(f"d must be in 1..{2 * c}")
        if len(rights_outer) != len(rights_inner) or not rights_outer:
            raise ValueError("need the same positive number of right-sets per circle")
        if len(left_outer) != sum(map(len, rights_outer)) + c:
            raise ValueError("outer sizes violate |L| = sum|R| + c")
        if len(left_inner) != sum(map(len, rights_inner)) - c:
            raise ValueError("inner sizes violate |L| = sum|R| - c")
        fields = c, d, left_outer, rights_outer, left_inner, rights_inner
        return super().__new__(cls, *fields)

    def _replace(self, **changes) -> "AnnulusTuple":
        """A copy with some fields changed, checked as the constructor checks."""
        return type(self)(**(self._asdict() | changes))

    @property
    def m(self) -> int:
        return len(self.rights_outer) + 1

    def to_text(self) -> str:
        def fmt(s):
            return ",".join(map(str, sorted(s)))

        parts = [f"c={self.c}", f"d={self.d}", f"LE={fmt(self.left_outer)}"]
        parts += [f"RE{k}={fmt(r)}" for k, r in enumerate(self.rights_outer, 1)]
        parts.append(f"LI={fmt(self.left_inner)}")
        parts += [f"RI{k}={fmt(r)}" for k, r in enumerate(self.rights_inner, 1)]
        return " ".join(parts)

    @classmethod
    def from_text(cls, text: str) -> "AnnulusTuple":
        fields: dict[str, str] = {}
        for word in text.split():
            key, _, value = word.partition("=")
            if key in fields:
                raise ValueError(f"repeated field {key}")
            fields[key] = value

        def ints(key: str) -> frozenset[int]:
            words = fields.pop(key).split(",")
            labels = frozenset(map(int, filter(None, words)))
            if len(labels) < len(words) - words.count(""):
                seen = [int(x) for x in words if x]
                twice = next(x for i, x in enumerate(seen) if x in seen[:i])
                raise ValueError(f"field {key} repeats label {twice}")
            return labels

        try:
            c = int(fields.pop("c"))
            d = int(fields.pop("d"))
            left_outer = ints("LE")
            left_inner = ints("LI")
        except KeyError as missing:
            raise ValueError(f"missing field {missing}") from None
        # keys are exactly RE1..REk and RI1..RIk, as to_text writes; checked
        # first.  Only such keys count as levels: RE0, RE01 or REx is unknown.
        sides = ("RE", "RI")
        named = [
            k[:2] for k in fields if k[2:].isascii() and k[2:].isdigit() and k[2] != "0"
        ]
        levels = max(map(named.count, sides))
        for key in (f"{side}{k}" for side in sides for k in range(1, levels + 1)):
            if key not in fields:
                raise ValueError(f"missing field {key!r}")
        rights_outer = [ints(f"RE{k}") for k in range(1, levels + 1)]
        rights_inner = [ints(f"RI{k}") for k in range(1, levels + 1)]
        if fields:
            raise ValueError(f"unknown fields {sorted(fields)}")
        return cls(c, d, left_outer, rights_outer, left_inner, rights_inner)

    def __repr__(self):
        return f"AnnulusTuple.from_text({self.to_text()!r})"


def _validate_tuple_range(t: AnnulusTuple, p: int, q: int) -> None:
    outer, inner = t.left_outer.union(*t.rights_outer), t.left_inner.union(*t.rights_inner)
    if outer and (min(outer) < 1 or max(outer) > p):
        raise ValueError(f"outer subsets must lie in 1..{p}")
    if inner and (min(inner) <= p or max(inner) > p + q):
        raise ValueError(f"inner subsets must lie in {p + 1}..{p + q}")


def _circle(labels: range, lefts, rights_levels) -> tuple[list, list]:
    """One period of a circle string, label by label: whether a "(" comes
    before the label, and the types k of the rights_levels[k-1] holding
    it, ascending, which are the closers after it."""
    opens = [x in lefts for x in labels]
    closers: list[tuple[int, ...]] = [()] * len(labels)
    for k, rights in enumerate(rights_levels, start=1):
        for x in rights:
            closers[x - labels.start] += (k,)
    return opens, closers


def _legal_starts(steps: list[int]) -> list[int]:
    """Ascending indices i of one period of a cyclic word of group steps
    from which the word read over two turns keeps every partial sum
    positive.

    These are the i whose prefix sum P_i lies below every later one up to
    P_{i+2n}.  A turn adds the surplus P_n > 0, so a later sum past a turn
    lies above one within a turn of i, and one backward pass over the
    period, starting from the low point of the next turn, keeps the running
    minimum.  The legal starts of the two-turn word are these and the same
    shifted by the period."""
    levels = list(accumulate(steps, initial=0))
    low = levels[-1] + min(levels)
    out = []
    for i in range(len(steps) - 1, -1, -1):
        if levels[i] < low:
            low = levels[i]
            out.append(i)
    out.reverse()
    return out


def _left_starts(opens: list, closers: list) -> list[int]:
    """The legal left shifts of a circle string with surplus c, as the
    indices 1..2n of the labels whose "(" starts them, ascending.

    A shift is legal from the left when every prefix of its paren word has
    more "(" than closers.  Within one label's group "(" comes first, so
    the group ends hold the lowest sums and the steps are open - #closers.
    Label 0's "(" starts the string itself, which counts as the last shift,
    so the period is read from label 1.  There are exactly 2c of them."""
    steps = list(map(sub, opens, map(len, closers)))
    period = [i + 1 for i in _legal_starts(steps[1:] + steps[:1])]
    return period + [i + len(opens) for i in period]


def _inner_anchor(opens: list, closers: list) -> tuple[int, int]:
    """(type, index) of the label of one period whose closers end the
    inner string: the last legal right group end among those ending with
    the highest closer type, in the second turn.

    A shift is legal from the right when every suffix has more closers than
    "(".  Read backwards, a group's closers come first, so the steps are
    #closers - open over the period reversed.  A legal shift that ends
    inside a run of closers loses to the end of its run, which is also
    legal and ends on a higher type.  Ending on a low closer type can nest
    a high-type pair inside a low-type pair, which breaks the level reads."""
    last = len(opens) - 1
    steps = list(map(sub, map(len, reversed(closers)), reversed(opens)))
    return max((closers[last - i][-1], last - i) for i in _legal_starts(steps))


# Bound of the layout memo.  A tuple's encode and decode, and the 2c tuples
# of one run of d, look their layout up back to back, so a few entries catch
# every repeat; tuples drawn at random never repeat, and a 512-entry bound
# only kept dead layouts, adding 7 % to the codec benchmark's peak RSS.
@lru_cache(maxsize=16)
def _layout(p: int, q: int, left_outer, rights_outer, left_inner, rights_inner):
    """The circle arrays of a subset tuple's two circles, the outer legal
    left starts, the inner anchor and a kept chain: everything but d, so
    shared by every shift d, by encode and by decode.

    The kept chain is a list [start, tables]: the place tables of the
    members of the last chain `_chain` read off the layout, and the legal
    start it read them from.  `_chain` reads nothing but the layout's key,
    which fixes m, and the start, so the kept tables are always that
    start's chain.  All else in the layout is read-only."""
    outer = _circle(range(1, p + 1), left_outer, rights_outer)
    inner = _circle(range(p + 1, p + q + 1), left_inner, rights_inner)
    return outer, inner, _left_starts(*outer), _inner_anchor(*inner), [None, None]


def encode_multichain(t: AnnulusTuple, p: int, q: int) -> tuple[BPartition, ...]:
    """Chain (pi_1 <= ... <= pi_{m-1}) encoded by the tuple t.

    The outer string is rotated to its d-th legal-left shift, the inner
    string to its anchor (`_inner_anchor`); pi_j is read from the
    concatenation after erasing the pairs closed by types below j
    (`_chain`).
    """
    _validate_tuple_range(t, p, q)
    layout = _layout(p, q, *t[2:])  # t's four sets
    starts = layout[2]
    assert len(starts) == 2 * t.c
    return _chain(p, q, layout, starts[t.d - 1], t.m)


def _chain(p: int, q: int, layout: tuple, start: int, m: int) -> tuple[BPartition, ...]:
    """The members of the m - 1 level chain read off a layout's strings,
    the outer one from the legal start `start`; their tables become the
    layout's kept chain, in place of the one kept before."""
    outer, inner, _, (_, anchor), kept = layout
    levels = _assemble(p, q, outer, start, inner, anchor + q + 1, m)
    # A level that drops no pair is the previous table itself, so its
    # member is the previous member.
    members = tuple(_shared(_member, p + q, levels))
    kept[:] = start, tuple([pi._table for pi in members])
    return members


def _shared(memo, total: int, keys: Sequence, *args) -> list:
    """memo(key, *args) for each key, unmemoised past the size test on
    total labels, but a key equal to the one before shares that one's
    value: a chain's equal levels sit side by side."""
    read = memo if _passes_size_test(total) else memo.__wrapped__
    out = [read(keys[0], *args)]
    for key, below in zip(keys[1:], keys):
        out.append(out[-1] if key == below else read(key, *args))
    return out


# Bound of the codec's memos, which serve only the shapes that pass the
# desk's size test (p + q <= 13): only their chains can be enumerated, so
# only there do chains repeat.  Past it a chain met once is met again only
# by chance, and each entry grows with p + q: the tables of 700 round trips
# at (300, 200) take 45 MB.  The largest posets whose multichains the repo
# walks, NC^(B)(3, 2) and (2, 3), have 264 elements, and CI pins the codec
# on their chains: their member records fit with room to spare.  The
# 11,088 chains at (2, 3), m = 4 have 1,853 distinct level tables, met in
# runs, and 512 of them serve 90 % of the 33,264 member lookups.  The
# memos' gain comes from verify's roundtrip-multichain, where chains
# repeat.  Their keys are tables, which a chain revisits far apart; a
# layout is met only within one run of d, so `_layout` holds few.
_MEMO = 512


@lru_cache(maxsize=_MEMO)
def _member(level: bytes | tuple) -> BPartition:
    """The partition of a level's pair-id table, shared by every chain
    whose level has that table, so read-only."""
    return BPartition._from_owner(len(level) // 2, level)


def _assemble(
    p: int, q: int, outer: tuple, start: int, inner: tuple, after: int, m: int
) -> list[bytes | tuple]:
    """The place tables of the levels of the chain read off the outer
    string from label index `start` followed by the inner one from label
    index `after` (each in 1..2n, 2n standing for label 0): level j keeps
    the pairs closed by types j and above, and a label belongs to its
    innermost kept pair, whose id is the label's entry at its place.

    The two rotations have surpluses c and -c, so the string matches.  One
    walk over the labels pushes a pair at each "(" and pops one per closer,
    recording each label's pair; pair 0 stands for the outside and is kept
    at every level.  Every pair is kept at level 1, which is all a
    one-level chain (m = 2) has, so its walk keeps the stack alone.  For
    longer chains the walk also records each pair's enclosing pair and
    closer type, and each later level moves the labels of the pairs it
    drops into their nearest kept ancestor.  A level that drops no pair is
    the previous level's table itself.  Tables are bytes while the pair
    ids fit in one, as `BPartition` holds its own, and tuples past that,
    so they key the memo `_member`."""
    pair = [0] * (2 * (p + q))  # each label's pair, by running index
    circles = (outer, 0, start), (inner, 2 * p, after)
    if m == 2:
        # One level reads only each label's pair, not the parents and
        # closer types that later levels need: a counter names each new
        # pair, and a label's one closer (of type 1) pops once.
        stack, count = [0], 0
        for (opens, closers), base, first in circles:
            period = len(opens)
            for i in itertools.chain(range(first, 2 * period), range(first)):
                if opens[i % period]:
                    count += 1
                    stack.append(count)
                pair[base + i] = stack[-1]
                if closers[i % period]:
                    stack.pop()
        return [(bytes if count < 256 else tuple)(_placed(pair, p, q))]
    parent, kind, stack = [0], [m], [0]
    for (opens, closers), base, first in circles:
        period = len(opens)
        for i in itertools.chain(range(first, 2 * period), range(first)):
            if opens[i % period]:
                parent.append(stack[-1])
                stack.append(len(kind))
                kind.append(0)
            pair[base + i] = stack[-1]
            for k in closers[i % period]:
                kind[stack.pop()] = k
    form = bytes if len(kind) <= 256 else tuple
    level = form(_placed(pair, p, q))
    levels = [level]
    kept = list(range(len(parent)))
    for j in range(2, m):
        if j - 1 in kind:
            for i, k in enumerate(kind):
                # Parents open first, so kept[parent[i]] is final before kept[i].
                if k < j:
                    kept[i] = kept[parent[i]]
            level = form(map(kept.__getitem__, levels[0]))
        levels.append(level)
    return levels


def _placed(running: list, p: int, q: int) -> list:
    """Entries by running index (1..p, -1..-p, then the inner circle
    likewise) put in place order 1, -1, 2, -2, ...: x > 0 at 2x - 2, -x at 2x - 1."""
    placed = [0] * len(running)
    placed[: 2 * p : 2] = running[:p]
    placed[1 : 2 * p : 2] = running[p : 2 * p]
    placed[2 * p :: 2] = running[2 * p : 2 * p + q]
    placed[2 * p + 1 :: 2] = running[2 * p + q :]
    return placed


def encode_annulus(t: AnnulusTuple, p: int, q: int) -> BPartition:
    """Single-partition case: the tuple carries one right-set per circle."""
    if t.m != 2:
        raise ValueError("encode_annulus needs exactly one right-set per circle")
    return encode_multichain(t, p, q)[0]


@lru_cache(maxsize=_MEMO)
def _ends(table: bytes | tuple, p: int, q: int) -> tuple:
    """What decode reads off a chain member, by the member's place table,
    for every block but the zero block: its signed ends, the last keyed by
    the first; the absolute firsts and the absolute lasts, each split into
    those of the outer circle and those of the inner one; and the first
    keyed by the last.  Shared by every partition with that table, so
    read-only.

    A block read off a pair holds the label after its "(" first and the
    label before its closer last.  For a connecting block the pair opens
    on the outer circle and closes on the inner one, so its first is the
    first of its outer piece and its last the last of its inner piece.
    The mirror of a block read off a pair is read off the mirrored pair,
    so where the block starts on x and ends on y its mirror starts on -x
    and ends on -y: one block of each pair {A, -A} is read, and the pair's
    positive first and last stand for both.  Outside the image a block's
    ends need not mirror so, and the record may then differ from reading
    each block alone; decode's confirm rejects such a member's chain
    either way.
    """
    # The signed label and the block at each running index (see _placed).
    order = [*range(1, p + 1), *range(-1, -p - 1, -1), *range(p + 1, p + q + 1)]
    order += range(-p - 1, -p - q - 1, -1)
    cut = 2 * p  # the inner circle's first place, and its first running index
    running = table[:cut:2] + table[1:cut:2] + table[cut::2] + table[cut + 1 :: 2]
    spots: list[list[int]] = [[] for _ in range(max(table, default=-1) + 1)]
    for i, block in enumerate(running):  # each block's running indices, ascending
        spots[block].append(i)
    ends = {}
    for block, own in enumerate(spots):
        # The block of -x, x at own[0]: -x runs p on (or back) on the outer
        # circle, q on the inner one.
        i = own[0]
        twin = running[(i + p) % cut if i < cut else cut + (i - cut + q) % (2 * q)]
        if twin <= block:  # the zero block, or a mirror already read
            continue
        mirror = spots[twin]
        k = bisect_left(own, cut)  # own[:k] lie on the outer circle
        head, tail = own[:k] or own, own[k:] or own
        # Each piece's mirror starts at mirror[0] (outer) or mirror[k] (inner).
        first = order[head[bisect(head, mirror[0]) % len(head)]]
        last = order[tail[bisect(tail, mirror[k % len(mirror)]) - 1]]
        ends[first], ends[-first] = last, -last
    return ends, _by_circle(ends, p), _by_circle(ends.values(), p), dict(zip(ends.values(), ends))


def _by_circle(labels, p: int) -> tuple[frozenset[int], frozenset[int]]:
    """The positive labels among signed ones, split at p into the outer
    circle's and the inner circle's."""
    ordered = sorted(labels)
    low = bisect(ordered, 0)
    k = bisect(ordered, p, low)
    return frozenset(ordered[low:k]), frozenset(ordered[k:])


def decode_annulus(partition: BPartition, p: int, q: int) -> AnnulusTuple:
    """Inverse of encode_annulus: the one-partition case of
    decode_multichain."""
    return decode_multichain([partition], p, q)


def decode_multichain(
    chain: Sequence[BPartition], p: int, q: int
) -> AnnulusTuple:
    """Inverse of encode_multichain, read level by level off the chain.

    - The "(" sit before the block firsts of pi_1, so the left sets are
      their absolute values.
    - Closers after one label come in ascending type, so once the pairs of
      lower types are erased a type-j pair closes right after its last
      direct label, and it is gone at level j + 1: the type-j right set
      holds the lasts of the blocks of pi_j whose first is no block first
      of pi_{j+1} (every block at the top level).
    - c is |LE| - sum |RE_k|.  The inner anchor's closer, of some type k,
      is the mate of the "(" the d-th outer shift starts with, so d is
      the rank of the shift starting at that "(": the first of the block
      of pi_k whose last is the anchor's label.

    Each set is split by circle at p.  The left sets are the first
    member's absolute block firsts and the top level's right sets the last
    member's absolute block lasts, both kept in the member's record
    (`_ends`), so each chain builds only the middle levels' right sets,
    which depend on two members.  The sets' layout, the one encoding reads
    (`_layout`), gives the anchor and the legal shifts.  The image check
    is to encode the tuple found and compare: the chain's members' tables
    must equal those of the chain `_chain` reads from the shift found, or
    ValueError is raised.  A decode right after its encode finds that
    chain kept in the layout, and reads no level.
    """
    chain = tuple(chain)
    if not chain:
        raise ValueError("empty chain")
    if any(pi.n != p + q for pi in chain):
        raise ValueError(f"chain members must partition a {p + q}-circle set")
    # Each distinct table is read once, JSON copies of a shared level
    # alike; past the size test nothing is kept.
    tables = tuple([pi._table for pi in chain])
    records = _shared(_ends, p + q, tables, p, q)
    left_outer, left_inner = records[0][1]
    # The right sets of types 1..m-2, each split by circle, then the top
    # level's.  A block and its mirror end on y and -y: one label.
    rights = []
    for (ends, _, (outer_lasts, _), _), above in zip(records, records[1:]):
        dropped = frozenset(map(abs, map(ends.get, ends.keys() - above[0].keys())))
        rights.append((dropped & outer_lasts, dropped - outer_lasts))
    rights_outer, rights_inner = zip(*rights, records[-1][2])
    c = len(left_outer) - sum(map(len, rights_outer))
    if c < 1 or len(left_inner) != sum(map(len, rights_inner)) - c:
        raise _not_image(chain)
    fields = left_outer, rights_outer, left_inner, rights_inner
    layout = _layout(p, q, *fields)
    _, _, starts, (k, anchor), kept = layout
    # The first of the block whose last is the anchor's label, in the
    # second turn.
    first = records[k - 1][3].get(-(p + 1 + anchor))
    if first is None or abs(first) > p:
        raise _not_image(chain)
    start = (first - 1 if first > 0 else p - first - 1) or 2 * p  # see _placed
    if start not in starts:
        raise _not_image(chain)
    if kept[0] != start:
        _chain(p, q, layout, start, len(chain) + 1)
    if kept[1] != tables:
        raise _not_image(chain)
    return AnnulusTuple._make((c, starts.index(start) + 1, *fields))


def _not_image(chain: tuple) -> ValueError:
    what = "partition" if len(chain) == 1 else "chain"
    return ValueError(f"{what} is not in the image of the encoding")


def _subsets(labels: Sequence[int]):
    for r in range(len(labels) + 1):
        yield from map(frozenset, itertools.combinations(labels, r))


def annulus_tuples(p: int, q: int, m: int = 2):
    """All valid tuples for the given circle sizes and chain length."""
    outer = list(range(1, p + 1))
    inner = list(range(p + 1, p + q + 1))
    outer_subsets = list(_subsets(outer))
    inner_subsets = list(_subsets(inner))
    for rights_outer in itertools.product(outer_subsets, repeat=m - 1):
        low = sum(map(len, rights_outer))
        for left_outer in outer_subsets:
            c = len(left_outer) - low
            if c < 1:
                continue
            for rights_inner in itertools.product(inner_subsets, repeat=m - 1):
                need = sum(map(len, rights_inner)) - c
                if need < 0:
                    continue
                for left_inner in inner_subsets:
                    if len(left_inner) != need:
                        continue
                    for d in range(1, 2 * c + 1):
                        yield AnnulusTuple._make(
                            (c, d, left_outer, rights_outer, left_inner, rights_inner)
                        )
