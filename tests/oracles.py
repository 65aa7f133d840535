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
product tuple with sum <= 10, each heads tuple convolved from scratch.

Decode: `block_ends_by_sorting`, each block's ends read off its positions
and its mirror's, both sorted per block, which the walk over the running
order in `bijection._block_ends` must equal.

Round trips: `roundtrip_multichain_by_pair_stats`, the `roundtrip-multichain`
family with each chain checked by hashing, pair masks and pair statistics
instead of the poset's tables; a bad codec must fail both.
"""

from __future__ import annotations

import itertools
import operator
from bisect import bisect, bisect_left
from functools import cached_property, lru_cache
from math import comb, factorial
from typing import Iterable

from ncb import bijection
from ncb.checks import Check, _annulus_pairs
from ncb.enumeration import DESK_BOUND_TWO_CIRCLES, FinitePoset, nc_b_annulus
from ncb.formulas import IntPolynomial, _exact_div, binom
from ncb.partition import BPartition, connectivity
from ncb.signed_perm import AnnulusShape


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
    if not 1 <= n <= DESK_BOUND_TWO_CIRCLES:
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
