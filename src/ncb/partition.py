"""Partitions of {-n..-1, 1..n} closed under negation, and their statistics.

A partition here always satisfies: the negative of every block is a block,
and at most one block is its own negative (the zero-block).  The order is
reverse refinement: pi <= rho when every block of pi sits inside a block
of rho.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import chain, starmap
from operator import eq, neg
from typing import Iterable, NamedTuple, Sequence

from .signed_perm import AnnulusShape, SignedPermutation, _orbits, boundary_permutation


def _bad_block_list(n: int, blocks: list[tuple[int, ...]]) -> ValueError:
    """The error for the first empty block or bad element, else for coverage."""
    seen: set[int] = set()
    for block in blocks:
        if not block:
            return ValueError("empty block")
        # Descending, then stably by absolute value: x before -x.
        for x in sorted(sorted(set(block), reverse=True), key=abs):
            if x == 0 or abs(x) > n or x in seen:
                return ValueError(f"bad or repeated element {x} for n={n}")
            seen.add(x)
    return ValueError(f"blocks do not cover -{n}..-1, 1..{n}")


def _bad_negation(canon: tuple[tuple[int, ...], ...]) -> ValueError:
    """The error for the first block whose negation is no block, else for
    a second inversion-invariant block."""
    by_first = {block[0]: block for block in canon}
    for block in canon:
        # A block without x and -x negates to the sorted block -block.
        mirror = tuple(map(neg, block))
        if by_first.get(mirror[0]) != mirror and set(mirror) != set(block):
            return ValueError(f"negation of block {block} is not a block")
    return ValueError("more than one inversion-invariant block")


def _place(x: int) -> int:
    """Place of label x in the order 1, -1, 2, -2, ...: x > 0 at 2x - 2, -x at
    2x - 1 (place ^ 1).  Label 0 has none; its -1 would wrap, so callers reject it."""
    return 2 * x - 2 if x > 0 else -2 * x - 1


def _owners(n: int, named: Iterable[tuple[object, Iterable[int]]]) -> list:
    """Each place's owner from (name, labels) pairs: filled by signed label, as
    `_steps` lays out a step table, then put at 1..n ([::2]) and -1..-n ([1::2])."""
    by_label: list = [None] * (2 * n + 1)
    for name, labels in named:
        for x in labels:
            by_label[x] = name
    owner: list = [None] * (2 * n)
    owner[::2], owner[1::2] = by_label[1 : n + 1], by_label[:n:-1]
    return owner


# The 256 block ids a byte holds and each id's next one: the byte map of
# links in `BPartition._canonize` starts from these.
_IDS = bytes(range(256))
_NEXT_IDS = _IDS[1:] + _IDS[:1]


def _relabelled(owner: Sequence) -> bytes | tuple:
    """The place table of the blocks named by `owner` (None marking a place
    in no block), the blocks named 0, 1, ... in order of their first
    places: bytes while there are at most 256 blocks, a tuple past that.
    A bytes owner is renamed by one C-level translate."""
    firsts = dict.fromkeys(owner)
    if type(owner) is bytes:
        return owner.translate(bytes.maketrans(bytes(firsts), bytes(range(len(firsts)))))
    if None in firsts:
        raise _bad_block_list(len(owner) // 2, ())
    table = map(dict(zip(firsts, range(len(firsts)))).__getitem__, owner)
    return bytes(table) if len(firsts) <= 256 else tuple(table)


# json.dumps with non-default separators builds an encoder on every call.
# `to_json` encodes an int and a tuple of int tuples, which hold no cycle,
# so the circular check (a dict entry per container) could never fire.
_JSON = json.JSONEncoder(separators=(",", ":"), check_circular=False)


class BPartition:
    """Negation-closed partition of {-n..-1, 1..n} in canonical form.

    It is held as its place table: entry k is the index of the block that
    holds the label at place k of the order 1, -1, 2, -2, ..., the blocks
    indexed in order of their first places.  Read off the table, blocks
    come sorted: elements by (absolute value, sign with the positive one
    first), blocks by their first elements in that order.  The blocks and
    the pair mask are read off the table on first use and kept, as
    `functools.cached_property` values.
    """

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        if type(n) is not int:
            raise ValueError(f"n must be an int, not {n!r}")
        if n < 0:
            raise ValueError(f"n must be at least 0, not {n}")
        blocks = [*map(tuple, blocks)]
        labels = [*chain.from_iterable(blocks)]
        if not {int}.issuperset(map(type, labels)):
            bad = next(x for x in labels if type(x) is not int)
            raise ValueError(f"block element {bad!r} is not an int")
        # 0 < |x| <= n before the fill, where a label in n+1..2n would land
        # on another's slot.  After it a label in no block left a None
        # owner, and with every label owned one in two blocks counts twice.
        size, low, high = len(labels), min(labels or [0]), max(labels or [0])
        if size < 2 * n or not all(blocks) or not all(labels) or low < -n or high > n:
            raise _bad_block_list(n, blocks)
        owner = _owners(n, enumerate(blocks))
        if None in owner or size != 2 * n and sum(map(len, map(set, blocks))) != 2 * n:
            raise _bad_block_list(n, blocks)
        # Block indices name the owners: up to 256 blocks they fit bytes.
        self._canonize(n, bytes(owner) if len(blocks) <= 256 else owner)

    @classmethod
    def _from_owner(cls, n: int, owner: Sequence) -> "BPartition":
        """The partition whose label at place k lies in the block named
        owner[k], for names of any hashable kind, None marking a place in
        no block.  The library's own partitions come through here, past
        the checks __init__ makes on the form of outside input."""
        return cls.__new__(cls)._canonize(n, owner)

    def _canonize(self, n: int, owner: Sequence) -> "BPartition":
        """The one canonical core: names the blocks 0, 1, ... in order of
        their first places (`_relabelled`), which reading the labels in
        place order makes the sorted blocks, and checks coverage and
        negation closure."""
        self.n = n
        self._table = table = _relabelled(owner)
        # Negation is closed when each block's negatives share one block:
        # the (block of x, block of -x) links then pair off the blocks.
        # Read in label order, then the negatives': each place's link is
        # (ids[k], mirror[k]).
        ids, mirror = table[::2] + table[1::2], table[1::2] + table[::2]
        if type(table) is bytes:
            # One byte map of the links: each block to its last place's
            # partner, each id in no block to the next id.  The links pair
            # off the blocks when it maps every place's block to its
            # partner, and then its fixed points are the invariant blocks.
            link = bytes.maketrans(_IDS + ids, _NEXT_IDS + mirror)
            closed = ids.translate(link) == mirror
            low = _IDS[: len(table)]  # every block's id: no more blocks than places
            moved = int.from_bytes(link[: len(low)], "little") ^ int.from_bytes(low, "little")
            invariant = moved.to_bytes(len(low), "little").count(0)  # a zero byte per fixed id
        else:  # past 256 blocks no byte map holds them
            links = set(zip(ids, mirror))
            closed = len(links) == len(set(table))
            invariant = sum(starmap(eq, links))
        if not closed or invariant > 1:
            raise _bad_negation(self.blocks)
        return self

    @cached_property
    def blocks(self) -> tuple[tuple[int, ...], ...]:
        members: list[list[int]] = [[] for _ in range(max(self._table, default=-1) + 1)]
        for x, i, j in zip(range(1, self.n + 1), self._table[::2], self._table[1::2]):
            members[i].append(x)
            members[j].append(-x)
        return tuple(map(tuple, members))

    @classmethod
    def singletons(cls, n: int) -> "BPartition":
        return cls(n, ([x] for x in range(-n, n + 1) if x != 0))

    @classmethod
    def from_dict(cls, data: dict) -> "BPartition":
        return cls(data["n"], data["blocks"])

    @classmethod
    def from_json(cls, text: str) -> "BPartition":
        return cls.from_dict(json.loads(text))

    def to_dict(self) -> dict:
        return {"n": self.n, "blocks": [list(b) for b in self.blocks]}

    def to_json(self) -> str:
        return _JSON.encode({"n": self.n, "blocks": self.blocks})

    def block_containing(self, x: int) -> tuple[int, ...]:
        if not 0 < abs(x) <= self.n:
            raise KeyError(x)
        return self.blocks[self._table[_place(x)]]

    def zero_block(self) -> tuple[int, ...] | None:
        """The unique block equal to its own negative, if present."""
        for block in self.blocks:
            if -block[0] in block:
                return block
        return None

    def rank(self) -> int:
        """n minus half the number of non-invariant blocks."""
        noninv = len(self.blocks) - (1 if self.zero_block() is not None else 0)
        return self.n - noninv // 2

    @cached_property
    def pair_mask(self) -> int:
        """Bitmask of the same-block relation, read off the place table:
        bit 2n*k + l for places k < l in one block, k even.  Negation puts
        the mirror pair (k ^ 1, l ^ 1) in one block exactly when (k, l)."""
        table, width = self._table, 2 * self.n
        bits: dict[int, int] = {}  # block id -> its places as bits
        for k, i in enumerate(table):
            bits[i] = bits.get(i, 0) | 1 << k
        # Row k holds bits k+1.. of its block's places: the rows are disjoint.
        return sum(bits[table[k]] >> k + 1 << width * k + k + 1 for k in range(0, width, 2))

    def le(self, other: "BPartition") -> bool:
        """Reverse refinement: every block of self lies inside a block of other."""
        if self.n != other.n:
            raise ValueError("size mismatch")
        return self.pair_mask & ~other.pair_mask == 0

    def block_string(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)

    def __eq__(self, other):
        return isinstance(other, BPartition) and self._table == other._table

    def __hash__(self):
        return hash(self._table)  # bytes keep their hash once taken

    def __str__(self):
        return self.block_string()

    def __repr__(self):
        return f"BPartition({self.n}, {[list(b) for b in self.blocks]})"


class PairStats(NamedTuple):
    """Counts of block pairs {A, -A} by how they meet the two circles."""

    connecting: int
    exterior: int
    interior: int


def adjusted_orbits(perm: SignedPermutation) -> BPartition:
    """Orbit partition of perm with all inversion-invariant orbits merged:
    each orbit names its places by its first label, and the invariant ones
    all by 0."""
    orbits = _orbits(perm.image)
    named = ((0 if -orbit[0] in orbit else orbit[0], orbit) for orbit in orbits)
    return BPartition._from_owner(perm.n, _owners(perm.n, named))


def pair_stats(partition: BPartition, shape: AnnulusShape) -> PairStats:
    """Classify non-invariant block pairs of a two-circle partition, read
    off its place table: the block ids on the outer circle's places (the
    first 2p) and on the inner circle's, the zero block's id dropped from
    both.  Each pair {A, -A} gives two ids on the same circles."""
    if shape.k != 2:
        raise ValueError("pair statistics need a two-circle shape")
    if shape.n != partition.n:
        raise ValueError("shape size does not match the partition")
    table, cut = partition._table, 2 * shape.p
    zero = {i for i, j in zip(table[::2], table[1::2]) if i == j}
    outer = set(table[:cut]) - zero
    inner = set(table[cut:]) - zero
    return PairStats(*(len(ids) // 2 for ids in (outer & inner, outer - inner, inner - outer)))


def connectivity(partition: BPartition, shape: AnnulusShape) -> int:
    """Number of block pairs {A, -A} meeting both circles."""
    return pair_stats(partition, shape).connecting


def kreweras(partition: BPartition, shape: AnnulusShape) -> BPartition:
    """Complement within the shape's poset, via the permutation preimage."""
    from .enumeration import adjusted_orbits_inverse

    t = adjusted_orbits_inverse(partition, shape)
    return adjusted_orbits(t.inverse() * boundary_permutation(shape))


def meet_q1(a: BPartition, b: BPartition, shape: AnnulusShape) -> BPartition:
    """Lattice meet by blockwise intersection; valid when the inner circle
    carries a single positive label.  Read off the place tables: the
    places with one pair (block of a, block of b) form one block."""
    if shape.k != 2 or shape.q != 1:
        raise ValueError("intersection meet needs shape (p, 1)")
    if a.n != shape.n or b.n != shape.n:
        raise ValueError("shape size does not match the partitions")
    return BPartition._from_owner(a.n, [*zip(a._table, b._table)])
