"""The parenthesis-string bijections between subset tuples and partitions.

A boundary string carries the labels of one circle in running order with
left parens "(" inserted before chosen labels and typed right parens ")k"
after chosen labels.  The classical cycle lemma, applied to the paren
subsequence only, selects the shifts that are legal from the left or from
the right in one linear pass.  Concatenating a legal-left shift of the
outer string with a legal-right shift of the inner string (the last among
those ending with the highest closer type) gives a matchable string whose
nesting structure is read off as a partition, one partition per paren type
for multichains.  Decoding reads the subsets back off the first and last
elements of the blocks, level by level, and the shift off the block whose
closer ends the inner string; reading the chain off the strings the decode
already built, at the shift it found, confirms the result."""

from __future__ import annotations

import itertools
from bisect import bisect, bisect_left
from operator import neg
from typing import Iterable, Sequence

from .partition import BPartition
from .signed_perm import AnnulusShape

def _paren_type(tok) -> int | None:
    """Type of a right paren token, None for numbers and left parens."""
    if isinstance(tok, str) and tok.startswith(")"):
        return int(tok[1:])
    return None


def _check_token(tok):
    """The token as stored, or ValueError.  A str subclass is stored as a
    plain str, since a built string tells closers by `type(tok) is str`."""
    if isinstance(tok, int):
        if tok == 0:
            raise ValueError("0 is not a label")
        return tok
    if tok == "(":
        return "("
    if isinstance(tok, str) and tok.startswith(")") and tok[1:].isdigit() and int(tok[1:]) >= 1:
        return str.__str__(tok)
    raise ValueError(f"bad token {tok!r}")


class ParenString:
    """Sequence of number and parenthesis tokens, cyclic unless rotated."""

    def __init__(self, tokens: Iterable, cyclic: bool = True):
        tokens = tuple(map(_check_token, tokens))
        labels = [tok for tok in tokens if type(tok) is not str]
        if len(set(labels)) != len(labels):
            raise ValueError("labels must be distinct")
        self.tokens = tokens
        self.cyclic = cyclic

    @classmethod
    def parse(cls, text: str, cyclic: bool = True) -> "ParenString":
        """Parse the space-separated form; a bare ")" means ")1"."""
        tokens: list = []
        for word in text.split():
            if word == "(":
                tokens.append("(")
            elif word == ")":
                tokens.append(")1")
            elif word.startswith(")"):
                tokens.append(word)
            else:
                tokens.append(int(word))
        return cls(tokens, cyclic)

    @classmethod
    def from_parens(cls, text: str, cyclic: bool = True) -> "ParenString":
        """Parse an all-parens word like "()(()((" (")" means ")1").

        Whitespace is ignored; any other character is an error.
        """
        tokens: list = []
        for ch in text:
            if ch == "(":
                tokens.append("(")
            elif ch == ")":
                tokens.append(")1")
            elif not ch.isspace():
                raise ValueError(f"not a parenthesis: {ch!r}")
        return cls(tokens, cyclic)

    def rotation(self, shift: int) -> "ParenString":
        """The linear string starting after position `shift` (1-based;
        shift == len gives the string itself)."""
        n = len(self.tokens)
        if not self.cyclic:
            raise ValueError("rotations need a cyclic string")
        if not 1 <= shift <= n:
            raise ValueError(f"shift {shift} out of range 1..{n}")
        return ParenString(_rotate(self.tokens, shift), cyclic=False)

    def __len__(self) -> int:
        return len(self.tokens)

    def __eq__(self, other):
        return (
            isinstance(other, ParenString)
            and self.tokens == other.tokens
            and self.cyclic == other.cyclic
        )

    def __hash__(self):
        return hash((self.tokens, self.cyclic))

    def __str__(self):
        return " ".join(str(tok) for tok in self.tokens)

    def __repr__(self):
        return f"ParenString.parse({str(self)!r}, cyclic={self.cyclic})"


def _rotate(tokens: tuple, shift: int) -> tuple:
    """The cyclic token tuple read from just after position `shift` (1-based)."""
    k = shift % len(tokens)
    return tokens[k:] + tokens[:k]


def _paren_flags(tokens: Sequence) -> list[tuple[int, bool]]:
    """(position, is_left) for every paren token."""
    out = []
    for pos, tok in enumerate(tokens):
        if tok == "(":
            out.append((pos, True))
        elif type(tok) is str:
            out.append((pos, False))
    return out


def _legal_starts(steps: Sequence[int], side: str) -> list[int]:
    """Indices i at which the cyclic +-1 word `steps` keeps every partial
    sum positive when read from i on.

    By the cycle lemma these are the i whose prefix sum P_i lies below
    every later one; since a full turn adds the surplus s > 0, "later"
    needs only the next turn, so one backward pass over two turns keeps
    the running minimum.  There are exactly s of them.
    """
    surplus = sum(steps)
    if surplus <= 0:
        raise ValueError(f"{side} surplus must be positive, got {surplus}")
    length = len(steps)
    level = 2 * surplus  # P_{2L}
    low = level
    out = []
    for i in range(2 * length - 1, -1, -1):
        level -= steps[i % length]  # now P_i
        if level < low:
            if i < length:
                out.append(i)
            low = level
    return out


def _left_shifts(tokens: Sequence) -> list[int]:
    parens = _paren_flags(tokens)
    starts = _legal_starts([1 if left else -1 for _, left in parens], "left")
    return sorted(parens[i][0] or len(tokens) for i in starts)


def _right_shifts(tokens: Sequence) -> list[int]:
    # The legal-left starts of the reversed word with the paren kinds swapped.
    parens = _paren_flags(tokens)
    steps = [-1 if left else 1 for _, left in reversed(parens)]
    last = len(parens) - 1
    return sorted(parens[last - i][0] + 1 for i in _legal_starts(steps, "right"))


def legal_left_shifts(s: ParenString) -> list[int]:
    """Shifts starting with "(" whose paren word keeps a strict left surplus.

    With surplus m = #"(" - #")" > 0 there are exactly m such shifts; they
    are returned as ascending 1-based indices (shift len(s) is s itself).
    """
    return _left_shifts(s.tokens)


def legal_right_shifts(s: ParenString) -> list[int]:
    """Mirror of legal_left_shifts: shifts ending with a right paren whose
    paren word keeps a strict right surplus; exactly #")" - #"(" of them."""
    return _right_shifts(s.tokens)


def _read_blocks(tokens: Sequence) -> list[list[int]]:
    """Blocks by nesting: each matched pair yields its directly enclosed
    numbers; numbers outside every pair pool into one final block."""
    stack: list[list[int]] = []
    loose: list[int] = []
    blocks = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif type(tok) is str:
            if not stack:
                raise ValueError("unmatchable parentheses")
            blocks.append(stack.pop())
        elif stack:
            stack[-1].append(tok)
        else:
            loose.append(tok)
    if stack:
        raise ValueError("unmatchable parentheses")
    if loose:
        blocks.append(loose)
    return blocks


def read_partition(s: ParenString) -> BPartition:
    """Partition of the labels read off the nesting structure of s."""
    blocks = _read_blocks(s.tokens)
    labels = {x for block in blocks for x in block}
    n = max((abs(x) for x in labels), default=0)
    if labels != {x for x in range(-n, n + 1) if x != 0}:
        raise ValueError("labels do not cover a full signed ground set")
    return BPartition(n, blocks)


class AnnulusTuple:
    """Subset data (c, d; lefts and typed rights on both circles).

    `rights_outer` and `rights_inner` hold one set per paren type 1..m-1;
    sizes must satisfy |left_outer| = sum |rights_outer| + c and
    |left_inner| = sum |rights_inner| - c, with 1 <= d <= 2c.
    """

    def __init__(self, c, d, left_outer, rights_outer, left_inner, rights_inner):
        rights_outer = tuple(frozenset(r) for r in rights_outer)
        rights_inner = tuple(frozenset(r) for r in rights_inner)
        left_outer = frozenset(left_outer)
        left_inner = frozenset(left_inner)
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
        self.c = c
        self.d = d
        self.left_outer = left_outer
        self.rights_outer = rights_outer
        self.left_inner = left_inner
        self.rights_inner = rights_inner

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

        def ints(value: str) -> frozenset[int]:
            return frozenset(int(x) for x in value.split(",") if x)

        try:
            c = int(fields.pop("c"))
            d = int(fields.pop("d"))
            left_outer = ints(fields.pop("LE"))
            left_inner = ints(fields.pop("LI"))
        except KeyError as missing:
            raise ValueError(f"missing field {missing}") from None
        levels = max(
            (int(k[2:]) for k in fields if k.startswith(("RE", "RI"))), default=0
        )
        rights_outer = [ints(fields.pop(f"RE{k}", "")) for k in range(1, levels + 1)]
        rights_inner = [ints(fields.pop(f"RI{k}", "")) for k in range(1, levels + 1)]
        if fields:
            raise ValueError(f"unknown fields {sorted(fields)}")
        return cls(c, d, left_outer, rights_outer, left_inner, rights_inner)

    def __eq__(self, other):
        return isinstance(other, AnnulusTuple) and (
            (self.c, self.d, self.left_outer, self.rights_outer,
             self.left_inner, self.rights_inner)
            == (other.c, other.d, other.left_outer, other.rights_outer,
                other.left_inner, other.rights_inner)
        )

    def __hash__(self):
        return hash((self.c, self.d, self.left_outer, self.rights_outer,
                     self.left_inner, self.rights_inner))

    def __repr__(self):
        return f"AnnulusTuple.from_text({self.to_text()!r})"


def _boundary_tokens(labels: Sequence[int], lefts, rights_levels) -> tuple:
    """Circle string: labels then mirrored labels, "(" before members of
    `lefts`, ")k" after members of rights_levels[k-1] in ascending k."""
    closers: dict[int, list[str]] = {}
    for k, rights in enumerate(rights_levels, start=1):
        closer = f"){k}"
        for x in rights:
            closers.setdefault(x, []).append(closer)
    tokens: list = []
    for sign in (1, -1):
        for x in labels:
            if x in lefts:
                tokens.append("(")
            tokens.append(sign * x)
            if x in closers:
                tokens += closers[x]
    return tuple(tokens)


def _match_pairs(tokens: Sequence) -> list[tuple[int, int]]:
    stack = []
    pairs = []
    for pos, tok in enumerate(tokens):
        if tok == "(":
            stack.append(pos)
        elif type(tok) is str:
            if not stack:
                raise ValueError("unmatchable parentheses")
            pairs.append((stack.pop(), pos))
    if stack:
        raise ValueError("unmatchable parentheses")
    return pairs


def _validate_tuple_range(t: AnnulusTuple, p: int, q: int) -> None:
    outer = set(range(1, p + 1))
    inner = set(range(p + 1, p + q + 1))
    if not t.left_outer <= outer or not all(r <= outer for r in t.rights_outer):
        raise ValueError(f"outer subsets must lie in 1..{p}")
    if not t.left_inner <= inner or not all(r <= inner for r in t.rights_inner):
        raise ValueError(f"inner subsets must lie in {p + 1}..{p + q}")


def _circle_strings(
    p: int, q: int, left_outer, rights_outer, left_inner, rights_inner
) -> tuple[tuple, tuple]:
    """The outer and inner boundary tokens of a tuple's subsets."""
    u = _boundary_tokens(range(1, p + 1), left_outer, rights_outer)
    v = _boundary_tokens(range(p + 1, p + q + 1), left_inner, rights_inner)
    return u, v


def _inner_anchor(v: tuple) -> int:
    """The last legal-right shift of v among those ending with the highest
    closer type.

    Ending on a low closer type can nest a high-type pair inside a
    low-type pair, which breaks the level reads.  The anchor always ends a
    closer run, because a legal shift is still legal one closer later."""
    end_type = lambda r: _paren_type(v[r - 1])
    return max(_right_shifts(v), key=lambda r: (end_type(r), r))


def encode_multichain(
    t: AnnulusTuple, p: int, q: int, m: int | None = None
) -> tuple[BPartition, ...]:
    """Chain (pi_1 <= ... <= pi_{m-1}) encoded by the tuple t.

    The outer string is rotated to its d-th legal-left shift, the inner
    string to its anchor (`_inner_anchor`); pi_j is read from the
    concatenation after erasing the pairs closed by types below j.
    """
    if m is not None and m != t.m:
        raise ValueError(f"tuple carries {t.m - 1} right-sets per circle, not {m - 1}")
    _validate_tuple_range(t, p, q)
    u, v = _circle_strings(
        p, q, t.left_outer, t.rights_outer, t.left_inner, t.rights_inner
    )
    left_shifts = _left_shifts(u)
    assert len(left_shifts) == 2 * t.c
    return _assemble(u, v, left_shifts[t.d - 1], _inner_anchor(v), t.m, p + q)


def _assemble(
    u: tuple, v: tuple, shift: int, anchor: int, m: int, n: int
) -> tuple[BPartition, ...]:
    """The chain read off u rotated to `shift` followed by v rotated to
    `anchor`: pi_j keeps the pairs closed by types j and above."""
    tokens = _rotate(u, shift) + _rotate(v, anchor)
    closer_types = {f"){k}": k for k in range(1, m)}
    # A pair closed by type k is erased from level k + 1 on; labels stay.
    keep = [m] * len(tokens)
    for open_pos, close_pos in _match_pairs(tokens):
        keep[open_pos] = keep[close_pos] = closer_types[tokens[close_pos]]
    levels = [[tok for tok, k in zip(tokens, keep) if k >= j] for j in range(1, m)]
    return tuple(BPartition(n, _read_blocks(level)) for level in levels)


def encode_annulus(t: AnnulusTuple, p: int, q: int) -> BPartition:
    """Single-partition case: the tuple carries one right-set per circle."""
    if t.m != 2:
        raise ValueError("encode_annulus needs exactly one right-set per circle")
    return encode_multichain(t, p, q)[0]


def _circle_positions(p: int, q: int) -> dict[int, int]:
    """Index of each signed label in running order, circle after circle:
    1..p then -1..-p outside, then p+1..p+q and their negatives inside.
    The dict lists the labels in that order."""
    outer, inner = range(1, p + 1), range(p + 1, p + q + 1)
    order = [*outer, *map(neg, outer), *inner, *map(neg, inner)]
    return {x: i for i, x in enumerate(order)}


def canonical_block_order(
    part: Iterable[int], partition: BPartition, shape: AnnulusShape
) -> tuple[int, ...]:
    """Elements of a one-circle piece of a block, in circle running order
    starting just after an element of the mirrored piece."""
    part = tuple(part)
    if not part:
        raise ValueError("empty block piece")
    block = set(partition.block_containing(part[0]))
    if not set(part) <= block:
        raise ValueError("not a piece of a single block")
    p, q = shape.p, shape.q
    if len({abs(x) <= p for x in part}) > 1:
        raise ValueError("piece spans both circles")
    position = _circle_positions(p, q)
    length = 2 * p if abs(part[0]) <= p else 2 * q
    anchor = min(position[-x] for x in part)
    return tuple(sorted(part, key=lambda x: (position[x] - anchor - 1) % length))


def _block_ends(
    partition: BPartition, p: int, position: dict[int, int]
) -> dict[int, int]:
    """Signed last element keyed by signed first element, for every block
    but the zero block.

    A block read off a pair holds the label after its "(" first and the
    label before its closer last.  For a connecting block the pair opens
    on the outer circle and closes on the inner one, so its first is the
    first of its outer piece and its last the last of its inner piece.
    """
    order = list(position)
    ends = {}
    for block in partition.blocks:
        if -block[0] in block:
            continue
        spots = sorted(map(position.__getitem__, block))
        mirror = sorted(map(position.__getitem__, map(neg, block)))
        k = bisect_left(spots, 2 * p)  # spots[:k] lie on the outer circle
        head, tail = spots[:k] or spots, spots[k:] or spots
        # Each piece's mirror starts at mirror[0] (outer) or mirror[k] (inner).
        first = head[bisect(head, mirror[0]) % len(head)]
        last = tail[bisect(tail, mirror[k % len(mirror)]) - 1]
        ends[order[first]] = order[last]
    return ends


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
      of pi_k whose last is the label before the anchor.

    The circle strings built for the anchor, rotated to the shift found,
    give the exact encoding of the result, which must equal the chain; a
    chain outside the image raises ValueError.
    """
    chain = tuple(chain)
    if not chain:
        raise ValueError("empty chain")
    if any(pi.n != p + q for pi in chain):
        raise ValueError(f"chain members must partition a {p + q}-circle set")
    position = _circle_positions(p, q)
    ends = [_block_ends(pi, p, position) for pi in chain]
    lefts = {abs(first) for first in ends[0]}
    rights = [
        {abs(last) for first, last in level.items() if first not in above}
        for level, above in zip(ends, ends[1:] + [{}])
    ]
    left_outer = {x for x in lefts if x <= p}
    rights_outer = [{x for x in r if x <= p} for r in rights]
    left_inner = lefts - left_outer
    rights_inner = [r - outer for r, outer in zip(rights, rights_outer)]
    c = len(left_outer) - sum(map(len, rights_outer))
    what = "partition" if len(chain) == 1 else "chain"
    not_image = ValueError(f"{what} is not in the image of the encoding")
    if c < 1 or len(left_inner) != sum(map(len, rights_inner)) - c:
        raise not_image
    u, v = _circle_strings(p, q, left_outer, rights_outer, left_inner, rights_inner)
    anchor = _inner_anchor(v)
    end = anchor - 1
    level = ends[_paren_type(v[end]) - 1]
    while not isinstance(v[end], int):
        end -= 1
    first = next((f for f, last in level.items() if last == v[end]), None)
    if first is None or abs(first) > p:
        raise not_image
    shift = (u.index(first) - 1) or len(u)
    try:
        d = _left_shifts(u).index(shift) + 1
    except ValueError:
        raise not_image from None
    result = AnnulusTuple(c, d, left_outer, rights_outer, left_inner, rights_inner)
    if _assemble(u, v, shift, anchor, result.m, p + q) != chain:
        raise not_image
    return result


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
                        yield AnnulusTuple(
                            c, d, left_outer, rights_outer, left_inner, rights_inner
                        )
