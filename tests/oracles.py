"""References for the tests.

Type A: classical non-crossing partitions of {1..n}, their poset, and the
Catalan, Narayana and Moebius numbers that count it.  The package is type B
only; forgetting signs (`abs_map`) maps its one-circle poset onto the type-A
poset built here.

Polynomials: `schoolbook_mul`, the term-by-term product that the
Kronecker-substitution `IntPolynomial.__mul__` must equal.

Three circles: `multi3_total`, the size of the three-circle poset as one
symmetric closed form, which the sum over matchings must equal.

Verify suite: `hypersum_check`, the `hypersum` family's record from every
product tuple with sum <= 10, each heads tuple convolved from scratch, and
`compositions`, the recursive generator of those tuples.
`hypersum_by_convolution` and `chu_vandermonde_by_sums`, the two identity
families summed term by term over one binomial function, which the packed
products in `ncb.checks` must match failing case for failing case; and
`rank_gen_by_cell_counts`, the rank polynomial with every cell counted by
`annulus_cell_count`, which `formulas.rank_gen_cells` must equal.

Two-circle rank polynomial: `rank_gen_by_products`, d^2 R(x) as two
`IntPolynomial` products and a per-coefficient exact division, which the
single packed pass `formulas.rank_gen_compact` must equal.

Partition map: `adjusted_orbits_by_blocks`, the orbits of a permutation as
block lists, the inversion-invariant ones merged, through the validating
constructor, which the place-table map `partition.adjusted_orbits` and the
interval walk must equal.

Place-table readings: `refines_by_blocks`, reverse refinement as blocks
inside blocks, which `BPartition.le` and `FinitePoset.le` (both read pair
masks) must equal; `pair_stats_by_blocks`, each block classed by the
circles its labels meet, which `partition.pair_stats` must equal; and
`meet_by_blocks`, the blockwise intersections through the validating
constructor, which `partition.meet_q1` must equal.

Decode: `block_ends_by_sorting`, each block's ends read off its positions
and its mirror's, both sorted per block, and `member_record_by_sorting`,
those ends with their absolute values split by circle and the first keyed
by the last, which the record that the walk over the running order in
`bijection._ends` keeps must equal.

Canonical core: `table_by_links`, the place table that
`BPartition._from_owner` must build from an owner, renamed by a dict and
checked through the set of (block of x, block of -x) links, which its byte
maps must equal, message for message; and `same_partition_by_pairs`, two
tables naming as many blocks as the pairs of their entries do, which
decode's confirm (`partition._relabelled`) must equal.

Label places: `label_places`, the place order 1, -1, 2, -2, ... listed
label by label, which `partition._place` must equal; `place_table_by_lookup`
and `blocks_by_lookup`, each label's block looked up in that listed order,
which the tables that `BPartition` and `adjusted_orbits` build and the
blocks read off them must equal.

Label order: `running_order`, the running order's labels and places looked
up in `label_places` and sorted, which the codec's arithmetic (decode's
start index, `bijection._placed`, `bijection._ends`) must equal.

Round trips: `roundtrip_multichain_by_pair_stats`, the `roundtrip-multichain`
family with each chain checked by hashing, pair masks and pair statistics
instead of the poset's tables; a bad codec must fail both.

Codec: `encode_by_tokens` and `decode_by_tokens`, the token-string codec
that `ncb.bijection` replaced with per-label arrays.  Each circle string is
a tuple of labels, "(" and typed closers ")k" over both turns, the cycle
lemma runs on its paren subsequence, and the strings are rotated and
scanned token by token; its decode reads block ends by sorting
(`block_ends_by_sorting`).  `ParenString`, the legal shifts, `read_partition`
and `canonical_block_order` front it for the tests.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect, bisect_left
from functools import cached_property, lru_cache
from math import comb, factorial
from typing import Iterable, Iterator, Sequence

from ncb import bijection, partition
from ncb.bijection import (
    AnnulusTuple,
    _not_image,
    _validate_tuple_range,
)
from ncb.checks import Check, _annulus_pairs
from ncb.enumeration import FinitePoset, nc_b_annulus
from ncb.formulas import IntPolynomial, _exact_div, annulus_cell_count, binom
from ncb.partition import BPartition, PairStats, connectivity
from ncb.signed_perm import AnnulusShape, SignedPermutation


class ClassicalPartition:
    """Partition of {1..n} in canonical form (used for the one-circle story)."""

    def __init__(self, n: int, blocks: Iterable[Iterable[int]]):
        canon = []
        seen: set[int] = set()
        for block in blocks:
            block = tuple(sorted(set(block)))
            if not block:
                raise ValueError("empty block")
            for x in block:
                if not 1 <= x <= n or x in seen:
                    raise ValueError(f"bad or repeated element {x} for n={n}")
                seen.add(x)
            canon.append(block)
        if len(seen) != n:
            raise ValueError(f"blocks do not cover 1..{n}")
        canon.sort()
        self.n = n
        self.blocks = tuple(canon)

    def rank(self) -> int:
        return self.n - len(self.blocks)

    @cached_property
    def pair_mask(self) -> int:
        mask = 0
        for block in self.blocks:
            bits = 0
            for x in block:
                bits |= 1 << (x - 1)
            for x in block:
                mask |= bits << ((x - 1) * self.n)
        return mask

    def le(self, other: "ClassicalPartition") -> bool:
        if self.n != other.n:
            raise ValueError("size mismatch")
        return self.pair_mask & ~other.pair_mask == 0

    def is_noncrossing(self) -> bool:
        """No a < b < c < d with {a, c} and {b, d} in different blocks."""
        block_of = {}
        for i, block in enumerate(self.blocks):
            for x in block:
                block_of[x] = i
        open_blocks: list[int] = []
        for x in range(1, self.n + 1):
            b = block_of[x]
            while open_blocks and open_blocks[-1] == b:
                open_blocks.pop()
            if b in open_blocks:
                return False
            if x != max(self.blocks[b]):
                open_blocks.append(b)
        return True

    def block_string(self) -> str:
        return "".join("{" + ",".join(map(str, b)) + "}" for b in self.blocks)

    def __eq__(self, other):
        return (
            isinstance(other, ClassicalPartition)
            and self.n == other.n
            and self.blocks == other.blocks
        )

    def __hash__(self):
        return hash((self.n, self.blocks))

    def __str__(self):
        return self.block_string()

    def __repr__(self):
        return f"ClassicalPartition({self.n}, {[list(b) for b in self.blocks]})"


def abs_map(partition: BPartition) -> ClassicalPartition:
    """Forget signs: blocks A and -A collapse to the block |A| of {1..n}."""
    blocks = {tuple(sorted({abs(x) for x in block})) for block in partition.blocks}
    return ClassicalPartition(partition.n, blocks)


def adjusted_orbits_by_blocks(perm: SignedPermutation) -> BPartition:
    """Orbit partition of perm with all inversion-invariant orbits merged,
    built from block lists by the validating constructor."""
    invariant: list[int] = []
    blocks: list[list[int]] = []
    for orbit in perm.orbits():
        if -orbit[0] in orbit:
            invariant.extend(orbit)
        else:
            blocks.append(orbit)
    if invariant:
        blocks.append(invariant)
    return BPartition(perm.n, blocks)


def refines_by_blocks(a, b) -> bool:
    """Reverse refinement from block lists: every block of a lies inside a
    block of b."""
    return all(any(set(block) <= set(other) for other in b.blocks) for block in a.blocks)


def pair_stats_by_blocks(partition: BPartition, shape: AnnulusShape) -> PairStats:
    """Connecting, exterior and interior block pairs, each block classed by
    the circles its labels meet, the zero block skipped."""
    p = shape.p
    connecting = exterior = interior = 0
    for block in partition.blocks:
        if -block[0] in block:
            continue  # the zero-block is not counted
        outer = any(abs(x) <= p for x in block)
        inner = any(abs(x) > p for x in block)
        if outer and inner:
            connecting += 1
        elif outer:
            exterior += 1
        else:
            interior += 1
    assert connecting % 2 == 0 and exterior % 2 == 0 and interior % 2 == 0
    return PairStats(connecting // 2, exterior // 2, interior // 2)


def meet_by_blocks(a: BPartition, b: BPartition) -> BPartition:
    """The nonempty intersections of a block of a with a block of b,
    through the validating constructor."""
    blocks = []
    for x in a.blocks:
        sx = set(x)
        for y in b.blocks:
            common = sx.intersection(y)
            if common:
                blocks.append(common)
    return BPartition(a.n, blocks)


def _set_partitions(n: int):
    """All set partitions of {1..n} as lists of lists."""
    if n == 0:
        yield []
        return
    for smaller in _set_partitions(n - 1):
        for i in range(len(smaller)):
            yield smaller[:i] + [smaller[i] + [n]] + smaller[i + 1 :]
        yield smaller + [[n]]


@lru_cache(maxsize=None)
def nc_a(n: int) -> FinitePoset:
    """Non-crossing partitions of {1..n} under refinement."""
    if not 1 <= n <= 8:
        raise ValueError(f"desk bound exceeded for one-circle size {n}")
    partitions = [
        cp
        for blocks in _set_partitions(n)
        if (cp := ClassicalPartition(n, blocks)).is_noncrossing()
    ]
    partitions.sort(key=lambda cp: cp.blocks)
    return FinitePoset(
        partitions,
        [cp.rank() for cp in partitions],
        masks=[cp.pair_mask for cp in partitions],
    )


def catalan(n: int) -> int:
    """Number of non-crossing partitions of {1..n}."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return comb(2 * n, n) // (n + 1)


def narayana(n: int, k: int) -> int:
    """Rank-k count in the non-crossing partitions of {1..n}: C(n,k)C(n,k+1)/n."""
    if not 0 <= k <= n - 1:
        raise ValueError(f"rank {k} out of range 0..{n - 1}")
    return _exact_div(binom(n, k) * binom(n, k + 1), n)


def mobius_a(n: int) -> int:
    """Moebius value of the non-crossing partitions of {1..n}:
    (-1)^(n+1) times the Catalan number C(n-1)."""
    return (-1) ** (n + 1) * factorial(2 * n - 2) // (factorial(n - 1) * factorial(n))


def schoolbook_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """a * b summed term by term: x^(i+j) gains a_i b_j."""
    if not a.coefficients or not b.coefficients:
        return IntPolynomial()
    out = [0] * (len(a.coefficients) + len(b.coefficients) - 1)
    for i, x in enumerate(a.coefficients):
        for j, y in enumerate(b.coefficients):
            out[i + j] += x * y
    return IntPolynomial(out)


def multi3_total(n1: int, n2: int, n3: int) -> int:
    """Size of the three-circle poset, symmetric in the circle sizes."""
    if min(n1, n2, n3) < 1:
        raise ValueError("circle sizes must be positive")
    # factor 1 + n1n2/(n1+n2) + n1n3/(n1+n3) + n2n3/(n2+n3) over one denominator
    d12, d13, d23 = n1 + n2, n1 + n3, n2 + n3
    numerator = (
        d12 * d13 * d23
        + n1 * n2 * d13 * d23
        + n1 * n3 * d12 * d23
        + n2 * n3 * d12 * d13
    )
    product = binom(2 * n1, n1) * binom(2 * n2, n2) * binom(2 * n3, n3)
    return _exact_div(numerator * product, d12 * d13 * d23)


def compositions(length: int, budget: int) -> Iterator[tuple[int, ...]]:
    """Tuples of `length` nonnegative ints with sum <= budget, in
    lexicographic order."""
    if length == 0:
        yield ()
        return
    for x in range(budget + 1):
        for rest in compositions(length - 1, budget - x):
            yield (x, *rest)


def hypersum_by_convolution(choose=comb) -> Check:
    """The `hypersum` record summed term by term over a table of `choose`:
    each heads tuple's weights convolved from its prefix's by a nested loop,
    and every lhs(b) one sum of products."""
    pascal = [[choose(n, x) for x in range(11)] for n in range(11)]
    weights: dict[tuple[int, ...], list[int]] = {(): [1]}
    bad = 0
    count = 0
    for k in (1, 2, 3):
        for heads in compositions(k, 10):
            weight, A = weights[heads[:-1]], heads[-1]
            convolved = [0] * (len(weight) + A)
            for x, c in enumerate(pascal[A][: A + 1]):
                for s, w in enumerate(weight, x):
                    convolved[s] += w * c
            weights[heads] = weight = convolved
            total = sum(heads)
            for last in range(11 - total):
                for b in range(last + 1):
                    lhs = sum(map(operator.mul, pascal[last][b:], weight))
                    count += 1
                    bad += lhs != pascal[total + last][last - b]
    return Check("hypersum", f"sum<=10 ({count} cases)", 0, bad)


def chu_vandermonde_by_sums(choose=binom) -> Check:
    """The `chu-vandermonde` record with one sum over k per (n, r):
    sum_k C(n, k) C(n, k + r) against C(2n, n - r), read through `choose`."""
    bad = sum(
        sum(choose(n, k) * choose(n, k + r) for k in range(n + 1))
        != choose(2 * n, n - r)
        for n in range(13)
        for r in range(n + 1)
    )
    return Check("chu-vandermonde", "n<=12", 0, bad)


def rank_gen_by_products(p: int, q: int) -> IntPolynomial:
    """d^2 R(x) = (d L_p + u x H_p)(d L_q + u x H_q) - 4pq(pq+d) x^2 H_p H_q
    through `IntPolynomial.__mul__`, each coefficient divided by d^2 alone."""
    d = p + q
    u = d + 2 * p * q

    def circle(n: int) -> tuple[IntPolynomial, IntPolynomial]:
        row = [binom(n, k) for k in range(n + 1)]
        inner = [binom(n - 1, k) for k in range(n)]
        low = [a * b for a, b in zip(row, inner)] + [0]
        high = [a * b for a, b in zip(row[1:], inner)]
        mixed = [d * x + u * y for x, y in zip(low, [0] + high)]
        return IntPolynomial(mixed), IntPolynomial(high)

    mixed_p, high_p = circle(p)
    mixed_q, high_q = circle(q)
    coeffs = list((mixed_p * mixed_q).coefficients)
    linked = 4 * p * q * (p * q + d)
    for k, c in enumerate((high_p * high_q).coefficients, start=2):
        coeffs[k] -= linked * c
    return IntPolynomial([_exact_div(c, d * d) for c in coeffs])


def rank_gen_by_cell_counts(p: int, q: int) -> IntPolynomial:
    """The rank polynomial of the (p, q) poset with one `annulus_cell_count`
    call per connected cell, each added to its coefficient."""
    coeffs = [0] * (p + q + 1)
    for i in range(p + 1):
        for j in range(q + 1):
            coeffs[i + j] += binom(p, i) ** 2 * binom(q, j) ** 2
    for c in range(1, min(p, q) + 1):
        for e in range(p - c + 1):
            for i in range(q - c + 1):
                coeffs[p + q - e - i - c] += annulus_cell_count(p, q, c, e, i)
    return IntPolynomial(coeffs)


def hypersum_check() -> Check:
    """The `hypersum` record from the product of all cap tuples, filtered
    to sum <= 10, with every heads tuple convolved from scratch."""
    # Every binomial here is C(n, x) with n, x <= 10, read off one table.
    pascal = [[comb(n, x) for x in range(11)] for n in range(11)]
    bad = 0
    count = 0
    for k in (1, 2, 3):
        for caps in itertools.product(range(11), repeat=k + 1):
            if sum(caps) > 10:
                continue
            *heads, last = caps
            # weight[s] sums prod C(A, a) over the a with sum(a) = s.  It is
            # convolved, not taken as C(sum(heads), s): that equality is the
            # Vandermonde identity this family checks.
            weight = [1]
            for A in heads:
                row = pascal[A][: A + 1]
                convolved = [0] * (len(weight) + A)
                for s, w in enumerate(weight):
                    for x, c in enumerate(row):
                        convolved[s + x] += w * c
                weight = convolved
            for b in range(last + 1):
                lhs = sum(map(operator.mul, pascal[last][b:], weight))
                count += 1
                bad += lhs != pascal[sum(caps)][last - b]
    return Check("hypersum", f"sum<=10 ({count} cases)", 0, bad)


@lru_cache(maxsize=64)
def circle_positions(p: int, q: int) -> dict[int, int]:
    """Index of each signed label in running order (outer labels 1..p, then
    their negatives, then the inner ones likewise).  The dict lists the
    labels in that order; it is shared, so read-only."""
    outer, inner = range(1, p + 1), range(p + 1, p + q + 1)
    order = [*outer, *(-x for x in outer), *inner, *(-x for x in inner)]
    return {x: i for i, x in enumerate(order)}


def label_places(n: int) -> dict[int, int]:
    """Place of each label in canonical order 1, -1, 2, -2, ..., n, -n,
    found by listing that order; the dict lists the labels in it."""
    return {x: i for i, x in enumerate(x for k in range(1, n + 1) for x in (k, -k))}


def place_table_by_lookup(n: int, blocks: Iterable[Iterable[int]]) -> list[int]:
    """The place table of the partition with these blocks: each label's
    block looked up in listed place order, the blocks renamed 0, 1, ... in
    order of their first places."""
    block_of = {x: i for i, block in enumerate(blocks) for x in block}
    names: dict[int, int] = {}
    return [names.setdefault(block_of[x], len(names)) for x in label_places(n)]


def blocks_by_lookup(n: int, blocks: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    """The blocks with each one's labels in listed place order, the blocks
    in order of their first places."""
    order = label_places(n)
    ordered = [sorted(block, key=order.__getitem__) for block in blocks]
    return tuple(map(tuple, sorted(ordered, key=lambda block: order[block[0]])))


def table_by_links(n: int, owner: Sequence) -> bytes | tuple:
    """The canonical place table of the partition whose label at place k
    lies in the block named owner[k]: the blocks renamed 0, 1, ... by a
    dict in order of first place, bytes while at most 256.  Negation is
    closed when the (block of x, block of -x) links number the blocks, and
    at most one link is a block's own.  Raises what `BPartition` raises."""
    firsts = dict.fromkeys(owner)
    if None in firsts:
        raise ValueError(f"blocks do not cover -{n}..-1, 1..{n}")
    ids = dict(zip(firsts, range(len(firsts))))
    table = [*map(ids.__getitem__, owner)]
    mirror = table[:]
    mirror[::2], mirror[1::2] = table[1::2], table[::2]
    links = set(zip(table, mirror))
    if len(links) != len(ids) or sum(itertools.starmap(operator.eq, links)) > 1:
        blocks: list[list[int]] = [[] for _ in ids]
        for k, i in enumerate(table):
            blocks[i].append(k // 2 + 1 if k % 2 == 0 else -(k // 2 + 1))
        raise partition._bad_negation(tuple(map(tuple, blocks)))
    return bytes(table) if len(ids) <= 256 else tuple(table)


def same_partition_by_pairs(level: Sequence, table: Sequence) -> bool:
    """Whether two place tables, under any block names, hold one partition:
    they name as many blocks as the pairs of their entries do."""
    return len(set(level)) == len(set(table)) == len(set(zip(level, table)))


def running_order(p: int, q: int) -> tuple[list[int], list[int], list[int]]:
    """The signed labels in running order (`circle_positions`), the place
    of each running index in the partition's table order 1, -1, 2, -2, ...,
    and the running index of each place."""
    order = list(circle_positions(p, q))
    places = label_places(p + q)
    at = [places[x] for x in order]
    return order, at, sorted(range(len(at)), key=at.__getitem__)


def block_ends_by_sorting(
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
        mirror = sorted(map(position.__getitem__, map(operator.neg, block)))
        k = bisect_left(spots, 2 * p)  # spots[:k] lie on the outer circle
        head, tail = spots[:k] or spots, spots[k:] or spots
        # Each piece's mirror starts at mirror[0] (outer) or mirror[k] (inner).
        first = head[bisect(head, mirror[0]) % len(head)]
        last = tail[bisect(tail, mirror[k % len(mirror)]) - 1]
        ends[order[first]] = order[last]
    return ends


def member_record_by_sorting(
    partition: BPartition, p: int, position: dict[int, int]
) -> tuple:
    """What decode reads off a chain member, built from its block ends
    (`block_ends_by_sorting`): the ends; the absolute firsts and the
    absolute lasts, each as (outer circle's, inner circle's) by comparing
    each label with p; and the first keyed by the last."""
    ends = block_ends_by_sorting(partition, p, position)

    def by_circle(labels):
        labels = {abs(x) for x in labels}
        return frozenset(x for x in labels if x <= p), frozenset(x for x in labels if x > p)

    first_of = {last: first for first, last in ends.items()}
    return ends, by_circle(ends), by_circle(ends.values()), first_of


def roundtrip_multichain_by_pair_stats(max_n: int) -> Iterable[Check]:
    """The `roundtrip-multichain` records, each chain's members checked for
    membership by hashing, for order by their pair masks and for a
    connecting block by their pair statistics."""
    for p, q in _annulus_pairs(min(max_n, 4)):
        poset = nc_b_annulus(p, q)
        shape = AnnulusShape(p, q)
        for m in (3, 4):
            formula = sum(
                2 * c * binom(m * p, p - c) * binom(m * q, q + c)
                for c in range(1, p + 1)
            )
            chains = set()
            good = 0
            for t in bijection.annulus_tuples(p, q, m):
                chain = bijection.encode_multichain(t, p, q)
                chains.add(chain)
                good += (
                    all(pi in poset for pi in chain)
                    and all(a.le(b) for a, b in zip(chain, chain[1:]))
                    and any(connectivity(pi, shape) >= 1 for pi in chain)
                    and bijection.decode_multichain(chain, p, q) == t
                )
            params = f"p={p} q={q} m={m}"
            yield Check(
                "roundtrip-multichain", params, (formula, formula), (len(chains), good)
            )


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
    shifts = _right_shifts(v)
    closers = [v[r - 1] for r in shifts]
    # Closers ")k" order by type as (length, text) does.
    return max(zip(map(len, closers), closers, shifts))[2]


def encode_by_tokens(
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
    levels = _assemble(u, v, left_shifts[t.d - 1], _inner_anchor(v), t.m)
    return tuple(BPartition(p + q, blocks) for blocks in levels)


def _assemble(u: tuple, v: tuple, shift: int, anchor: int, m: int) -> list[list]:
    """The blocks of each level of the chain read off u rotated to `shift`
    followed by v rotated to `anchor`: level j keeps the pairs closed by
    types j and above, and a label belongs to its innermost kept pair.

    The two rotations have surpluses c and -c, so the string matches.  One
    scan records each pair's enclosing pair, closer type and directly
    enclosed labels; pair 0 stands for the outside and is kept at every
    level.  Every pair is kept at level 1, and each later level moves the
    labels of the pairs it drops into their nearest kept ancestor."""
    closer_types = {f"){k}": k for k in range(1, m)}
    parent, kind, stack, members = [0], [m], [0], [[]]
    for tok in _rotate(u, shift) + _rotate(v, anchor):
        if tok == "(":
            stack.append(len(parent))
            parent.append(stack[-2])
            kind.append(0)
            members.append([])
        elif type(tok) is str:
            kind[stack.pop()] = closer_types[tok]
        else:
            members[stack[-1]].append(tok)
    levels = [[block for block in members if block]]
    kept = list(range(len(parent)))
    for j in range(2, m):
        blocks: list[list] = [[] for _ in parent]
        for i, labels in enumerate(members):
            # Parents open first, so kept[parent[i]] is final before kept[i].
            if kind[i] < j:
                kept[i] = kept[parent[i]]
            blocks[kept[i]] += labels
        levels.append([block for block in blocks if block])
    return levels

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
    position = circle_positions(p, q)
    length = 2 * p if abs(part[0]) <= p else 2 * q
    anchor = min(position[-x] for x in part)
    return tuple(sorted(part, key=lambda x: (position[x] - anchor - 1) % length))

def decode_by_tokens(
    chain: Sequence[BPartition], p: int, q: int
) -> AnnulusTuple:
    """Inverse of encode_by_tokens, read level by level off the chain.

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
    give the blocks of the result's encoding, level by level, which must
    be the blocks of the chain; a chain outside the image raises
    ValueError.
    """
    chain = tuple(chain)
    if not chain:
        raise ValueError("empty chain")
    if any(pi.n != p + q for pi in chain):
        raise ValueError(f"chain members must partition a {p + q}-circle set")
    position = circle_positions(p, q)
    ends = [block_ends_by_sorting(pi, p, position) for pi in chain]
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
    if c < 1 or len(left_inner) != sum(map(len, rights_inner)) - c:
        raise _not_image(chain)
    u, v = _circle_strings(p, q, left_outer, rights_outer, left_inner, rights_inner)
    anchor = _inner_anchor(v)
    end = anchor - 1
    level = ends[_paren_type(v[end]) - 1]
    while not isinstance(v[end], int):
        end -= 1
    first = next((f for f, last in level.items() if last == v[end]), None)
    if first is None or abs(first) > p:
        raise _not_image(chain)
    shift = (u.index(first) - 1) or len(u)
    try:
        d = _left_shifts(u).index(shift) + 1
    except ValueError:
        raise _not_image(chain) from None
    result = AnnulusTuple(c, d, left_outer, rights_outer, left_inner, rights_inner)
    # Both sides cover the ground set once, so the levels equal the chain
    # when each level has as many blocks as its member and no block of it
    # meets two of the member's blocks.
    for blocks, pi in zip(_assemble(u, v, shift, anchor, result.m), chain):
        owner = {x: i for i, block in enumerate(pi.blocks) for x in block}.__getitem__
        if len(blocks) != len(pi.blocks) or any(
            len(set(map(owner, block))) > 1 for block in blocks
        ):
            raise _not_image(chain)
    return result
