"""Brute-force enumeration of the non-crossing posets and order-theoretic
oracles (Hasse diagram, Moebius function, multichain counts, maximal chains).

Everything here is exact and desk-scale by design: the interval below the
boundary permutation is walked down from the boundary permutation one
cover at a time, and a poset builds its down-set rows once, on first use;
covers, Moebius values and chain counts are read off those rows and the
ranks.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Sequence

from .formulas import gbinom
from .partition import BPartition, ClassicalPartition, adjusted_orbits
from .signed_perm import (
    AnnulusShape,
    SignedPermutation,
    _compose,
    _orbits,
    boundary_permutation,
)

DESK_BOUND_TWO_CIRCLES = 8  # max p+q (also max n for one circle)
DESK_BOUND_MANY_CIRCLES = 6  # max sum of sizes for three or more circles
MAX_CIRCLES = 12  # closed forms sum over matchings of the circles


def _bits(row: int) -> list[int]:
    """Indices of the set bits of row, ascending."""
    out = []
    while row:
        low = row & -row
        out.append(low.bit_length() - 1)
        row ^= low
    return out


class FinitePoset:
    """Explicit finite poset with a rank function.

    ``masks[i]`` is the pair bitmask of element i, and element j lies below
    element i exactly when ``masks[j]`` has no bit that ``masks[i]`` lacks.
    ``ranks`` must grade the order: every cover raises the rank by one.
    The down-set rows are the one cached structure, built on first use;
    size queries and rank vectors never touch them.
    """

    def __init__(
        self,
        elements: Sequence,
        ranks: Sequence[int],
        masks: Sequence[int],
    ):
        if len(elements) != len(ranks):
            raise ValueError("one rank per element required")
        self.elements = tuple(elements)
        self.ranks = tuple(ranks)
        self._masks = tuple(masks)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")
        self._down: list[int] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    def _down_rows(self) -> list[int]:
        """Row i is the bitmask of indices j with elements[j] <= elements[i].

        Column b holds the indices whose mask carries pair bit b; row i is
        every index minus the columns of the bits that masks[i] lacks.
        """
        if self._down is None:
            columns: dict[int, int] = {}
            for i, mask in enumerate(self._masks):
                for b in _bits(mask):
                    columns[b] = columns.get(b, 0) | 1 << i
            everyone = (1 << len(self._masks)) - 1
            down = []
            for mask in self._masks:
                above = 0
                for b, column in columns.items():
                    if not mask >> b & 1:
                        above |= column
                down.append(everyone & ~above)
            self._down = down
        return self._down

    def le(self, x, y) -> bool:
        i, j = self._index[x], self._index[y]
        return (self._down_rows()[j] >> i) & 1 == 1

    def bottom(self):
        low = min(self.ranks)
        idx = [i for i, r in enumerate(self.ranks) if r == low]
        if len(idx) != 1:
            raise ValueError("no unique minimal-rank element")
        return self.elements[idx[0]]

    def top(self):
        high = max(self.ranks)
        idx = [i for i, r in enumerate(self.ranks) if r == high]
        if len(idx) != 1:
            raise ValueError("no unique maximal-rank element")
        return self.elements[idx[0]]

    def rank_vector(self) -> tuple[int, ...]:
        """Element counts per rank, from rank 0 upward."""
        high = max(self.ranks)
        counts = [0] * (high + 1)
        for r in self.ranks:
            counts[r] += 1
        return tuple(counts)

    def _cover_pairs(self) -> list[tuple[int, int]]:
        """(i, j) with j covering i: i below j and one rank lower."""
        down = self._down_rows()
        level: dict[int, int] = {}
        for i, r in enumerate(self.ranks):
            level[r] = level.get(r, 0) | 1 << i
        return [
            (i, j)
            for j, r in enumerate(self.ranks)
            for i in _bits(down[j] & level.get(r - 1, 0))
        ]

    def hasse_edges(self) -> list[tuple]:
        """Cover relations as (lower, upper) element pairs."""
        return [
            (self.elements[i], self.elements[j]) for i, j in self._cover_pairs()
        ]

    def mobius(self, x, y) -> int:
        """Moebius function by the interval recursion, swept in rank order."""
        down = self._down_rows()
        ix, iy = self._index[x], self._index[y]
        if (down[iy] >> ix) & 1 == 0:
            raise ValueError("mobius needs x <= y")
        mu = [0] * len(self.elements)  # zero outside [x, y]
        mu[ix] = 1
        for j in sorted(_bits(down[iy]), key=self.ranks.__getitem__):
            if j != ix and (down[j] >> ix) & 1:
                mu[j] = -sum(mu[w] for w in _bits(down[j] ^ (1 << j)))
        return mu[iy]

    def zeta(self, m: int) -> int:
        """Number of multichains x_1 <= ... <= x_(m-1), as a polynomial in m.

        A multichain with k distinct values is one of the s_k strict chains
        of k elements with multiplicities summing to m-1, so
        zeta(m) = sum_k s_k C(m-2, k-1) for every integer m; zeta(2) is
        len(self), and on a bounded poset zeta(-1) is mobius(bottom, top).
        Pass k counts the strict chains of k elements ending at each
        element; for m >= 2 the passes stop at k = m-1, past which the
        binomials vanish.
        """
        longest = max(self.ranks) + 1
        if m >= 2:
            longest = min(longest, m - 1)
        if longest >= 2:
            below = [_bits(row ^ 1 << j) for j, row in enumerate(self._down_rows())]
        counts = [1] * len(self.elements)
        total = sum(counts)
        for k in range(2, longest + 1):
            counts = [sum(counts[i] for i in strict) for strict in below]
            total += sum(counts) * gbinom(m - 2, k - 1)
        return total

    def maximal_chains(self) -> int:
        """Number of maximal chains from the unique bottom to the unique top."""
        ways = [0] * len(self.elements)
        ways[self._index[self.bottom()]] = 1
        for i, j in sorted(self._cover_pairs(), key=lambda c: self.ranks[c[0]]):
            ways[j] += ways[i]
        return ways[self._index[self.top()]]

    def to_dot(self, name: str = "poset") -> str:
        """Graphviz source: one node per element, one edge per cover,
        elements of equal rank clustered on one level."""
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
        for i, e in enumerate(self.elements):
            label = str(e).replace('"', '\\"')
            lines.append(f'  n{i} [label="{label}"];')
        high = max(self.ranks)
        for r in range(high + 1):
            same = [f"n{i}" for i, rk in enumerate(self.ranks) if rk == r]
            if same:
                lines.append("  { rank=same; " + "; ".join(same) + "; }")
        for i, j in self._cover_pairs():
            lines.append(f"  n{i} -> n{j};")
        lines.append("}")
        return "\n".join(lines)


def _reflection_images(n: int) -> list[tuple[int, ...]]:
    """The n^2 reflections of B_n as image tuples."""
    ident = tuple(range(1, n + 1))
    out = []
    for i in range(1, n + 1):
        img = list(ident)
        img[i - 1] = -i
        out.append(tuple(img))
    for i, j in itertools.combinations(range(1, n + 1), 2):
        img = list(ident)
        img[i - 1], img[j - 1] = j, i
        out.append(tuple(img))
        img = list(ident)
        img[i - 1], img[j - 1] = -j, -i
        out.append(tuple(img))
    return out


@lru_cache(maxsize=None)
def _interval_images(gamma: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """All image tuples t with t <= gamma in absolute order, sorted.

    Walks down from gamma: x*r is covered by x exactly when the reflection
    r moves a to b with a and b in one orbit of x, or in two distinct
    inversion-invariant orbits of x.  Every element of [e, gamma] lies on
    a chain of covers down from gamma, so the walk reaches all of them.
    """
    n = len(gamma)
    moves = []  # (reflection, a, b) with the reflection moving a to b
    for r in _reflection_images(n):
        a = next(i for i, v in enumerate(r, start=1) if v != i)
        moves.append((r, a, r[a - 1]))
    label = [0] * (2 * n + 1)  # orbit index of label x at x (x < 0 wraps)
    seen = {gamma}
    stack = [gamma]
    while stack:
        x = stack.pop()
        invariant = []
        for k, orbit in enumerate(_orbits(x)):
            for y in orbit:
                label[y] = k
            invariant.append(-orbit[0] in orbit)
        for r, a, b in moves:
            la, lb = label[a], label[b]
            if la == lb or (invariant[la] and invariant[lb]):
                y = _compose(x, r)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return tuple(sorted(seen))


def interval_perms(bound: SignedPermutation) -> list[SignedPermutation]:
    """All permutations below bound in absolute order, sorted by image."""
    return [SignedPermutation(img) for img in _interval_images(bound.image)]


def _check_desk_bound(shape: AnnulusShape) -> None:
    limit = DESK_BOUND_TWO_CIRCLES if shape.k <= 2 else DESK_BOUND_MANY_CIRCLES
    if shape.n > limit:
        raise ValueError(
            f"desk bound exceeded: total size {shape.n} > {limit} for {shape}"
        )


@lru_cache(maxsize=None)
def _preimages(sizes: tuple[int, ...]) -> dict[BPartition, SignedPermutation]:
    """Each partition of the poset keyed to its permutation below the
    boundary permutation; the one map both the poset and its inverse read."""
    shape = AnnulusShape(sizes)
    _check_desk_bound(shape)
    return {adjusted_orbits(t): t for t in interval_perms(boundary_permutation(shape))}


@lru_cache(maxsize=None)
def _poset_for_sizes(sizes: tuple[int, ...]) -> FinitePoset:
    partitions = sorted(_preimages(sizes), key=lambda pi: pi.blocks)
    return FinitePoset(
        partitions,
        [pi.rank() for pi in partitions],
        masks=[pi.pair_mask for pi in partitions],
    )


def nc_b_multi(sizes: Iterable[int]) -> FinitePoset:
    """The poset of adjusted orbit partitions below the boundary permutation."""
    return _poset_for_sizes(AnnulusShape(sizes).sizes)


def nc_b_annulus(p: int, q: int) -> FinitePoset:
    """Two-circle poset on 2(p+q) points."""
    return nc_b_multi((p, q))


def nc_b_disc(n: int) -> FinitePoset:
    """One-circle poset on 2n points."""
    return nc_b_multi((n,))


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


def adjusted_orbits_inverse(
    partition: BPartition, shape: AnnulusShape
) -> SignedPermutation:
    """The unique permutation below the boundary with the given adjusted orbits."""
    try:
        return _preimages(shape.sizes)[partition]
    except KeyError:
        raise ValueError(
            f"{partition} is not in the poset of shape {shape}"
        ) from None
