"""Brute-force enumeration of the non-crossing posets and order-theoretic
oracles (Hasse diagram, Moebius function, multichain counts, maximal chains).

Everything here is exact and desk-scale by design: a poset is built only
when `formulas.poset_size` counts at most DESK_BOUND elements in it.  One
pass goes from the boundary permutation to the partitions: the interval
below it is walked down one cover at a time, each a reflection read as
the label pair it exchanges, and each element met is mapped to its
adjusted orbits, whose blocks decide the covers below it.  A poset
caches four tables, each built once on first use: its down-set rows, its
levels (a rank table), its covers and its strict-chain counts, and reads
every oracle off them.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

from .formulas import gbinom, poset_size
from .partition import BPartition, _places, adjusted_orbits
from .signed_perm import (
    AnnulusShape,
    SignedPermutation,
    _steps,
    boundary_permutation,
)

DESK_BOUND = 15_000  # most elements of a poset built by enumeration
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
    The down-set rows, the levels (a bitmask per rank), the covers (the
    indices each element covers) and the strict-chain counts are each
    cached on first use; size queries and rank vectors never build rows.
    """

    def __init__(
        self,
        elements: Sequence,
        ranks: Sequence[int],
        masks: Sequence[int],
    ):
        if len(elements) != len(ranks):
            raise ValueError("one rank per element required")
        if len(elements) != len(masks):
            raise ValueError("one mask per element required")
        self.elements = tuple(elements)
        self.ranks = tuple(ranks)
        self._masks = tuple(masks)
        self._index = {e: i for i, e in enumerate(self.elements)}
        if len(self._index) != len(self.elements):
            raise ValueError("duplicate elements")

    def __len__(self) -> int:
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, x) -> bool:
        return x in self._index

    @cached_property
    def _down(self) -> list[int]:
        """Row i is the bitmask of indices j with elements[j] <= elements[i].

        Column b holds the indices whose mask carries pair bit b; row i is
        every index minus the columns of the bits that masks[i] lacks.
        """
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
        return down

    def le(self, x, y) -> bool:
        i, j = self._index[x], self._index[y]
        return (self._down[j] >> i) & 1 == 1

    @cached_property
    def _levels(self) -> tuple[int, ...]:
        """Level r is the bitmask of the indices of rank r, from rank 0 up."""
        levels = [0] * (max(self.ranks) + 1)
        for i, r in enumerate(self.ranks):
            levels[r] |= 1 << i
        return tuple(levels)

    def bottom(self):
        return self._extreme(self._levels[0], "minimal")

    def top(self):
        return self._extreme(self._levels[-1], "maximal")

    def _extreme(self, row: int, word: str):
        if row.bit_count() != 1:
            raise ValueError(f"no unique {word}-rank element")
        return self.elements[row.bit_length() - 1]

    def rank_vector(self) -> tuple[int, ...]:
        """Element counts per rank, from rank 0 upward."""
        return tuple(level.bit_count() for level in self._levels)

    @cached_property
    def _lowers(self) -> list[list[int]]:
        """Entry j is the indices that element j covers, ascending: those
        below it and one rank lower."""
        down, levels = self._down, self._levels
        return [_bits(down[j] & levels[r - 1]) if r else [] for j, r in enumerate(self.ranks)]

    def hasse_edges(self) -> list[tuple]:
        """Cover relations as (lower, upper) element pairs."""
        e = self.elements
        return [(e[i], e[j]) for j, lowers in enumerate(self._lowers) for i in lowers]

    def mobius(self, x, y) -> int:
        """Moebius function by the interval recursion, swept level by level."""
        down = self._down
        ix, iy = self._index[x], self._index[y]
        if (down[iy] >> ix) & 1 == 0:
            raise ValueError("mobius needs x <= y")
        mu = [0] * len(self.elements)  # zero outside [x, y]
        mu[ix] = 1
        for level in self._levels[self.ranks[ix] + 1 : self.ranks[iy] + 1]:
            for j in _bits(down[iy] & level):
                if (down[j] >> ix) & 1:
                    mu[j] = -sum(mu[w] for w in _bits(down[j] ^ (1 << j)))
        return mu[iy]

    @cached_property
    def _chains(self) -> tuple[int, ...]:
        """Entry k counts the strict chains of k + 1 elements, k = 0 to the
        top rank; pass k sums pass k - 1 over each element's strict down-set."""
        below = [_bits(row ^ 1 << j) for j, row in enumerate(self._down)]
        counts = [1] * len(self.elements)
        chains = [len(counts)]
        for _ in range(max(self.ranks)):
            counts = [sum(counts[i] for i in strict) for strict in below]
            chains.append(sum(counts))
        return tuple(chains)

    def zeta(self, m: int) -> int:
        """Number of multichains x_1 <= ... <= x_(m-1), as a polynomial in m.

        A multichain with k distinct values is one of the s_k = _chains[k-1]
        strict chains of k elements with multiplicities summing to m-1, so
        zeta(m) = sum_k s_k C(m-2, k-1) for every integer m; zeta(2) is
        len(self), and on a bounded poset zeta(-1) is mobius(bottom, top).
        """
        return sum(s * gbinom(m - 2, k) for k, s in enumerate(self._chains))

    def maximal_chains(self) -> int:
        """Number of maximal chains from the unique bottom to the unique top."""
        ways = [0] * len(self.elements)
        ways[self._index[self.bottom()]] = 1
        # Rank by rank, so each count is complete before a cover above reads it.
        lowers = self._lowers
        for j in sorted(range(len(self)), key=self.ranks.__getitem__):
            ways[j] += sum(map(ways.__getitem__, lowers[j]))
        return ways[self._index[self.top()]]

    def to_dot(self, name: str = "poset") -> str:
        """Graphviz source: one node per element, one edge per cover,
        elements of equal rank clustered on one level."""
        lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
        for i, e in enumerate(self.elements):
            label = str(e).replace('"', '\\"')
            lines.append(f'  n{i} [label="{label}"];')
        for level in filter(None, self._levels):
            same = "; ".join(f"n{i}" for i in _bits(level))
            lines.append(f"  {{ rank=same; {same}; }}")
        for j, lowers in enumerate(self._lowers):
            lines += (f"  n{i} -> n{j};" for i in lowers)
        lines.append("}")
        return "\n".join(lines)


def _reflections(n: int) -> list[tuple[int, int, int, int]]:
    """The n^2 reflections r of B_n, each as the label pair (a, b) with
    b = r(a): (a, -a) for a in 1..n, and (a, c), (a, -c) for a < c <= n,
    followed by the places of a and b."""
    pairs = [(a, -a) for a in range(1, n + 1)]
    for a, c in itertools.combinations(range(1, n + 1), 2):
        pairs += [(a, c), (a, -c)]
    places = _places(n)
    return [(a, b, places[a], places[b]) for a, b in pairs]


@lru_cache(maxsize=None)
def _interval(gamma: tuple[int, ...]) -> tuple[tuple[SignedPermutation, BPartition], ...]:
    """Each t <= gamma in absolute order with its adjusted orbits, by image.

    Walks down from gamma through the reflections r of B_n, each read as
    a label pair (a, b) with b = r(a).  x*r is covered by x exactly when a
    and b lie in one block of adjusted_orbits(x), built once for each
    element the walk meets and read at the places of a and b; x*r is x
    with its entries at a and |b| replaced through x's step table.  Every
    element of [e, gamma] lies on a chain of covers down from gamma, so the
    walk reaches all of them.
    """
    reflections = _reflections(len(gamma))
    seen = {gamma}
    stack = [gamma]
    out = []
    while stack:
        x = stack.pop()
        t = SignedPermutation(x)
        pi = adjusted_orbits(t)
        out.append((t, pi))
        table = pi._table
        step = _steps(x)
        for a, b, i, j in reflections:
            if table[i] == table[j]:
                y = list(x)
                y[a - 1] = step[b]
                y[abs(b) - 1] = step[a if b > 0 else -a]
                y = tuple(y)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    out.sort(key=lambda pair: pair[0].image)
    return tuple(out)


def interval_perms(bound: SignedPermutation) -> list[SignedPermutation]:
    """All permutations below bound in absolute order, sorted by image."""
    return [t for t, _ in _interval(bound.image)]


def _desk_size(sizes: Sequence[int]) -> int | str:
    # The empty matching alone gives prod C(2s, s) >= 2^n elements, so a
    # total n with 2^n past the bound needs no count.
    n = sum(sizes)
    return poset_size(sizes) if n < DESK_BOUND.bit_length() else f"at least 2^{n}"


def on_desk(sizes: Sequence[int]) -> bool:
    """Whether the shape's poset has at most DESK_BOUND elements, the bound
    read at call time: the one test before every enumeration and sweep."""
    return isinstance(size := _desk_size(sizes), int) and size <= DESK_BOUND


@lru_cache(maxsize=None)
def _preimages(sizes: tuple[int, ...]) -> dict[BPartition, SignedPermutation]:
    """Each partition of the poset keyed to its permutation below the
    boundary permutation; the one map both the poset and its inverse read."""
    shape = AnnulusShape(sizes)
    if not on_desk(sizes):
        size = _desk_size(sizes)
        raise ValueError(f"desk bound exceeded: {shape} has {size} elements > {DESK_BOUND}")
    return {pi: t for t, pi in _interval(boundary_permutation(shape).image)}


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
