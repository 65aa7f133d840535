"""The parenthesis-string bijections between subset tuples and partitions.

A boundary string carries the labels of one circle in running order with
left parens "(" inserted before chosen labels and typed right parens ")k"
after chosen labels.  A cyclic-shift count (the classical cycle lemma,
applied to the paren subsequence only) selects the shifts that are legal
from the left or from the right; concatenating a legal-left shift of the
outer string with the last legal-right shift of the inner string gives a
matchable string whose nesting structure is read off as a partition, one
partition per paren type for multichains.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

from .partition import BPartition, pair_stats
from .signed_perm import AnnulusShape

Token = "int | str"


def _paren_type(tok) -> int | None:
    """Type of a right paren token, None for numbers and left parens."""
    if isinstance(tok, str) and tok.startswith(")"):
        return int(tok[1:])
    return None


def _check_token(tok) -> None:
    if isinstance(tok, int):
        if tok == 0:
            raise ValueError("0 is not a label")
        return
    if tok == "(":
        return
    if isinstance(tok, str) and tok.startswith(")") and tok[1:].isdigit() and int(tok[1:]) >= 1:
        return
    raise ValueError(f"bad token {tok!r}")


class ParenString:
    """Sequence of number and parenthesis tokens, cyclic unless rotated."""

    def __init__(self, tokens: Iterable, cyclic: bool = True):
        tokens = tuple(tokens)
        labels = []
        for tok in tokens:
            _check_token(tok)
            if isinstance(tok, int):
                labels.append(tok)
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
        k = shift % n
        return ParenString(self.tokens[k:] + self.tokens[:k], cyclic=False)

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


def _paren_flags(tokens: Sequence) -> list[tuple[int, bool]]:
    """(position, is_left) for every paren token."""
    out = []
    for pos, tok in enumerate(tokens):
        if tok == "(":
            out.append((pos, True))
        elif _paren_type(tok) is not None:
            out.append((pos, False))
    return out


def legal_left_shifts(s: ParenString) -> list[int]:
    """Shifts starting with "(" whose paren word keeps a strict left surplus.

    With surplus m = #"(" - #")" > 0 there are exactly m such shifts; they
    are returned as ascending 1-based indices (shift len(s) is s itself).
    """
    tokens = s.tokens
    n = len(tokens)
    parens = _paren_flags(tokens)
    surplus = sum(1 if left else -1 for _, left in parens)
    if surplus <= 0:
        raise ValueError(f"left surplus must be positive, got {surplus}")
    out = []
    for shift in range(1, n + 1):
        start = shift % n
        if tokens[start] != "(":
            continue
        first = next(i for i, (pos, _) in enumerate(parens) if pos == start)
        running = 0
        ok = True
        for i in range(len(parens)):
            _, left = parens[(first + i) % len(parens)]
            running += 1 if left else -1
            if running <= 0:
                ok = False
                break
        if ok:
            out.append(shift)
    return out


def legal_right_shifts(s: ParenString) -> list[int]:
    """Mirror of legal_left_shifts: shifts ending with a right paren whose
    paren word keeps a strict right surplus; exactly #")" - #"(" of them."""
    tokens = s.tokens
    n = len(tokens)
    parens = _paren_flags(tokens)
    surplus = sum(-1 if left else 1 for _, left in parens)
    if surplus <= 0:
        raise ValueError(f"right surplus must be positive, got {surplus}")
    out = []
    for shift in range(1, n + 1):
        last = shift - 1
        if _paren_type(tokens[last]) is None:
            continue
        anchor = next(i for i, (pos, _) in enumerate(parens) if pos == last)
        running = 0
        ok = True
        for i in range(len(parens)):
            _, left = parens[(anchor - i) % len(parens)]
            running += -1 if left else 1
            if running <= 0:
                ok = False
                break
        if ok:
            out.append(shift)
    return out


def _read_blocks(tokens: Sequence) -> list[list[int]]:
    """Blocks by nesting: each matched pair yields its directly enclosed
    numbers; numbers outside every pair pool into one final block."""
    stack: list[list[int]] = []
    loose: list[int] = []
    blocks = []
    for tok in tokens:
        if tok == "(":
            stack.append([])
        elif _paren_type(tok) is not None:
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


def _boundary_tokens(labels: Sequence[int], lefts, rights_levels) -> list:
    """Circle string: labels then mirrored labels, "(" before members of
    `lefts`, ")k" after members of rights_levels[k-1] in ascending k."""
    tokens: list = []
    for x in list(labels) + [-x for x in labels]:
        if abs(x) in lefts:
            tokens.append("(")
        tokens.append(x)
        for k, rights in enumerate(rights_levels, start=1):
            if abs(x) in rights:
                tokens.append(f"){k}")
    return tokens


def _match_pairs(tokens: Sequence) -> list[tuple[int, int]]:
    stack = []
    pairs = []
    for pos, tok in enumerate(tokens):
        if tok == "(":
            stack.append(pos)
        elif _paren_type(tok) is not None:
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


def encode_multichain(
    t: AnnulusTuple, p: int, q: int, m: int | None = None
) -> tuple[BPartition, ...]:
    """Chain (pi_1 <= ... <= pi_{m-1}) encoded by the tuple t.

    The outer string is rotated to its d-th legal-left shift, the inner
    string to the last legal-right shift among those ending with the
    highest closer type; pi_j is read from the concatenation after
    erasing the pairs closed by types below j.
    """
    if m is not None and m != t.m:
        raise ValueError(f"tuple carries {t.m - 1} right-sets per circle, not {m - 1}")
    _validate_tuple_range(t, p, q)
    u = ParenString(_boundary_tokens(range(1, p + 1), t.left_outer, t.rights_outer))
    v = ParenString(
        _boundary_tokens(range(p + 1, p + q + 1), t.left_inner, t.rights_inner)
    )
    left_shifts = legal_left_shifts(u)
    assert len(left_shifts) == 2 * t.c
    right_shifts = legal_right_shifts(v)
    assert len(right_shifts) == 2 * t.c
    t1 = u.rotation(left_shifts[t.d - 1])
    # ending on a low closer type can nest a high-type pair inside a
    # low-type pair, which breaks the level reads; anchor on the highest
    end_type = lambda r: _paren_type(v.tokens[r - 1])
    t2 = v.rotation(max(right_shifts, key=lambda r: (end_type(r), r)))
    tokens = t1.tokens + t2.tokens
    pairs = _match_pairs(tokens)
    chain = []
    for level in range(1, t.m):
        erased = set()
        for open_pos, close_pos in pairs:
            if _paren_type(tokens[close_pos]) < level:
                erased.add(open_pos)
                erased.add(close_pos)
        remaining = [tok for pos, tok in enumerate(tokens) if pos not in erased]
        chain.append(BPartition(p + q, _read_blocks(remaining)))
    return tuple(chain)


def encode_annulus(t: AnnulusTuple, p: int, q: int) -> BPartition:
    """Single-partition case: the tuple carries one right-set per circle."""
    if t.m != 2:
        raise ValueError("encode_annulus needs exactly one right-set per circle")
    return encode_multichain(t, p, q)[0]


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
    if all(abs(x) <= p for x in part):
        circle = list(range(1, p + 1)) + [-x for x in range(1, p + 1)]
    elif all(abs(x) > p for x in part):
        circle = list(range(p + 1, p + q + 1)) + [-x for x in range(p + 1, p + q + 1)]
    else:
        raise ValueError("piece spans both circles")
    position = {x: i for i, x in enumerate(circle)}
    members = set(part)
    anchor = min(position[-x] for x in part)
    out = []
    for step in range(1, len(circle) + 1):
        x = circle[(anchor + step) % len(circle)]
        if x in members:
            out.append(x)
    return tuple(out)


def decode_annulus(partition: BPartition, p: int, q: int) -> AnnulusTuple:
    """Inverse of encode_annulus on partitions with a connecting pair.

    The subsets are recovered from first/last elements of the ordered
    blocks; d is recovered by locating the connecting block whose closing
    paren ends the canonical (last legal-right) inner shift, since that
    closer is the mate of the opening paren the d-th shift starts with.
    """
    shape = AnnulusShape(p, q)
    c = pair_stats(partition, shape).connecting
    if c == 0:
        raise ValueError("decoding needs at least one connecting pair")
    left_outer: set[int] = set()
    right_outer: set[int] = set()
    left_inner: set[int] = set()
    right_inner: set[int] = set()
    opener_of: dict[int, int] = {}  # first outer element, keyed by last inner element
    for block in partition.blocks:
        outer_part = [x for x in block if abs(x) <= p]
        inner_part = [x for x in block if abs(x) > p]
        if outer_part and inner_part:
            first = canonical_block_order(outer_part, partition, shape)[0]
            last = canonical_block_order(inner_part, partition, shape)[-1]
            left_outer.add(abs(first))
            right_inner.add(abs(last))
            opener_of[last] = first
        elif outer_part:
            order = canonical_block_order(outer_part, partition, shape)
            left_outer.add(abs(order[0]))
            right_outer.add(abs(order[-1]))
        else:
            order = canonical_block_order(inner_part, partition, shape)
            left_inner.add(abs(order[0]))
            right_inner.add(abs(order[-1]))
    u = ParenString(_boundary_tokens(range(1, p + 1), left_outer, [right_outer]))
    v = ParenString(
        _boundary_tokens(range(p + 1, p + q + 1), left_inner, [right_inner])
    )
    final = legal_right_shifts(v)[-1] - 1
    while _paren_type(v.tokens[final]) is not None:
        final -= 1
    first_outer = opener_of.get(v.tokens[final])
    opener_pos = -1 if first_outer is None else u.tokens.index(first_outer) - 1
    if opener_pos < 0 or u.tokens[opener_pos] != "(":
        raise ValueError("partition is not in the image of the encoding")
    shift = opener_pos if opener_pos > 0 else len(u)
    left_shifts = legal_left_shifts(u)
    try:
        d = left_shifts.index(shift) + 1
    except ValueError:
        raise ValueError("partition is not in the image of the encoding") from None
    result = AnnulusTuple(
        c, d, left_outer, [right_outer], left_inner, [right_inner]
    )
    if encode_annulus(result, p, q) != partition:
        raise ValueError("partition is not in the image of the encoding")
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


def _level_splits(totals: Sequence[int], outer_sum: int, p: int, q: int):
    """Ways to write each level total as outer + inner closer counts with
    the outer counts summing to outer_sum."""
    if not totals:
        if outer_sum == 0:
            yield ()
        return
    first, rest = totals[0], totals[1:]
    for e in range(max(0, first - q), min(first, p, outer_sum) + 1):
        for tail in _level_splits(rest, outer_sum - e, p, q):
            yield (e,) + tail


def decode_multichain(
    chain: Sequence[BPartition], p: int, q: int
) -> AnnulusTuple:
    """Inverse of encode_multichain; chains of length one decode directly.

    Longer chains are inverted by exhausting the tuple candidates that
    agree with the chain on the recoverable data (the opening parens sit
    before the leading block elements of the first partition, and the
    partition ranks fix how many closing parens each type contributes)
    and confirming the unique match by re-encoding.
    """
    chain = tuple(chain)
    if not chain:
        raise ValueError("empty chain")
    if len(chain) == 1:
        return decode_annulus(chain[0], p, q)
    if any(pi.n != p + q for pi in chain):
        raise ValueError(f"chain members must partition a {p + q}-circle set")
    shape = AnnulusShape(p, q)
    suffix = [p + q - pi.rank() for pi in chain]
    totals = [
        suffix[k] - (suffix[k + 1] if k + 1 < len(suffix) else 0)
        for k in range(len(suffix))
    ]
    if any(t < 0 for t in totals):
        raise ValueError("chain is not in the image of the encoding")
    left_outer: set[int] = set()
    left_inner: set[int] = set()
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
        if outer_sum < 0 or outer_sum + len(left_inner) + c != sum(totals):
            continue
        for split in _level_splits(totals, outer_sum, p, q):
            outer_choices = [
                list(itertools.combinations(outer_labels, e)) for e in split
            ]
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
