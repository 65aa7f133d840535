"""The verify suite: closed forms against enumeration, one family at a time.

Each family is a generator ``(max_n) -> Iterable[Check]`` registered in
``FAMILIES`` under the name its checks carry; one generator may serve
several names.  ``verify_suite`` runs each generator once, in registration
order, which is the order of ``ncb verify`` output.  Most families are
sweeps registered by ``_sweep``: formula against oracle on each circle-size
tuple of a shapes function, those that enumerate kept by ``on_desk``.
"""

from __future__ import annotations

import itertools
import operator
from collections import Counter
from functools import lru_cache, partial
from math import comb
from typing import Callable, Iterable, Iterator, NamedTuple

from . import bijection, formulas
from .enumeration import (
    MAX_CIRCLES,
    FinitePoset,
    interval_perms,
    nc_b_annulus,
    nc_b_disc,
    nc_b_multi,
    on_desk,
)
from .formulas import _pack, binom
from .partition import pair_stats
from .signed_perm import (
    AnnulusShape,
    _inverse,
    _joint_walk,
    _orbits,
    _steps,
    boundary_permutation,
)


class Check(NamedTuple):
    name: str
    params: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual


Family = Callable[[int], Iterable[Check]]
FAMILIES: dict[str, Family] = {}


def verify_suite(max_n: int = 6, only: str | None = None) -> list[Check]:
    """Formula-versus-oracle checks, one Check record per line of output."""
    if only is None:
        families = dict.fromkeys(FAMILIES.values())
    elif only in FAMILIES:
        families = [FAMILIES[only]]
    else:
        raise ValueError(
            f"no check family {only!r}; known families: {', '.join(FAMILIES)}"
        )
    return [
        check
        for family in families
        for check in family(max_n)
        if only in (None, check.name)
    ]


def _family(*names: str) -> Callable[[Family], Family]:
    def register(family: Family) -> Family:
        FAMILIES.update(dict.fromkeys(names, family))
        return family

    return register


def _annulus_pairs(max_total: int) -> list[tuple[int, int]]:
    """(p, q) with p >= q >= 1 and p + q <= max_total."""
    return [
        (p, total - p)
        for total in range(2, max_total + 1)
        for p in range((total + 1) // 2, total)
    ]


def _partitions(total: int, most: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of positive ints <= most with the given sum, in
    lexicographic order."""
    if total == 0:
        yield ()
    for first in range(1, min(total, most) + 1):
        yield from ((first, *rest) for rest in _partitions(total - first, first))


def _desk_shapes(circles: range, max_n: int) -> list[tuple[int, ...]]:
    """The sizes a sweep enumerates: nonincreasing, len(sizes) in circles,
    total <= max_n, on_desk, by total and then lexicographically.  The
    smallest poset of a total grows with it, so the first total with none
    on the desk ends the sweep."""
    per_total = (
        [s for s in _partitions(t, t) if len(s) in circles and on_desk(s)]
        for t in range(circles.start, max_n + 1)
    )
    return [s for desk in itertools.takewhile(bool, per_total) for s in desk]


_desk_pairs = partial(_desk_shapes, range(2, 3))
_many_circle_shapes = partial(_desk_shapes, range(3, MAX_CIRCLES + 1))


def _discs(first: int, last: int | None = None) -> Callable[[int], list[tuple[int]]]:
    """The one-circle sizes from first to max_n, and to last if given."""
    return lambda max_n: [(n,) for n in range(first, min(max_n, last or max_n) + 1)]


def _sweep(name: str, shapes, formula, oracle, note: str = "") -> None:
    """Register a family with one check per sizes of shapes(max_n),
    comparing formula(*sizes) with oracle(*sizes)."""

    def family(max_n: int) -> Iterable[Check]:
        for sizes in shapes(max_n):
            if len(sizes) > 2:
                params = f"sizes={','.join(map(str, sizes))}"
            else:
                params = ("n={}", "p={} q={}")[len(sizes) - 1].format(*sizes)
            yield Check(name, params + note, formula(*sizes), oracle(*sizes))

    FAMILIES[name] = family


def _oracle(read: Callable[[FinitePoset], object]) -> Callable[..., object]:
    """The sweep oracle read(poset) on the enumerated poset of the sizes."""
    return lambda *sizes: read(nc_b_multi(sizes))


def _mobius(poset: FinitePoset) -> int:
    return poset.mobius(poset.bottom(), poset.top())


def _zetas(poset: FinitePoset) -> dict[int, int]:
    return {m: poset.zeta(m) for m in range(2, 5)}


def _leading_difference(p: int, q: int) -> int:
    """(p+q)-th finite difference of zeta_poly(p, q, .) at 0: (p+q)! times
    its leading coefficient, which counts the maximal chains."""
    d = p + q
    return sum(
        (-1) ** (d - j) * binom(d, j) * formulas.zeta_poly(p, q, j)
        for j in range(d + 1)
    )


_sweep(
    "rank-vector-q1",
    lambda max_n: [(p, q) for p, q in _desk_pairs(max_n) if q == 1],
    lambda p, q: tuple(formulas.rank_gen_disc(p + q).coefficients),
    _oracle(FinitePoset.rank_vector),
)
_sweep(
    "rank-vector-disc",
    _discs(1, 6),
    lambda n: tuple(formulas.rank_gen_disc(n).coefficients),
    _oracle(FinitePoset.rank_vector),
)
_sweep("annulus-total", _desk_pairs, formulas.annulus_total, _oracle(len))


@lru_cache(maxsize=None)
def _pair_tallies(p: int, q: int) -> tuple[Counter, Counter, frozenset]:
    """The partitions of the annulus counted by connectivity, the connected
    ones by (c, e, i), and the connected ones: one pass of pair statistics
    per shape, cached as the poset is and shared, so read-only."""
    shape = AnnulusShape(p, q)
    by_c: Counter = Counter()
    by_cell: Counter = Counter()
    connected = []
    for pi in nc_b_annulus(p, q):
        stats = pair_stats(pi, shape)
        by_c[stats.connecting] += 1
        if stats.connecting:
            by_cell[tuple(stats)] += 1
            connected.append(pi)
    return by_c, by_cell, frozenset(connected)


@_family("connectivity-count", "cell-count")
def _pair_counts(max_n: int) -> Iterable[Check]:
    # One tally of pair statistics per annulus serves both families, so
    # their lines interleave by (p, q).
    for p, q in _desk_pairs(max_n):
        by_c, by_cell, _ = _pair_tallies(p, q)
        expected = {
            c: formulas.annulus_connectivity_count(p, q, c)
            for c in range(min(p, q) + 1)
        }
        yield Check("connectivity-count", f"p={p} q={q}", expected, dict(by_c))
        expected = {
            (c, e, i): formulas.annulus_cell_count(p, q, c, e, i)
            for c in range(1, min(p, q) + 1)
            for e in range(p - c + 1)
            for i in range(q - c + 1)
        }
        yield Check("cell-count", f"p={p} q={q}", expected, dict(by_cell))


_sweep(
    "rank-gen",
    _desk_pairs,
    lambda p, q: tuple(formulas.rank_gen(p, q).coefficients),
    _oracle(FinitePoset.rank_vector),
)


@_family("rank-gen-compact")
def _rank_gen_compact(max_n: int) -> Iterable[Check]:
    bad = 0
    for p in range(1, 7):
        for q in range(1, 7):
            poly = formulas.rank_gen_cells(p, q)
            bad += (
                poly != formulas.rank_gen_compact(p, q)
                or poly(1) != formulas.annulus_total(p, q)
                or any(
                    formulas.rank_coefficient(p, q, k) != poly.coefficient(k)
                    for k in range(p + q + 1)
                )
            )
    yield Check("rank-gen-compact", "p,q<=6", 0, bad)


@_family("hasse-edges")
def _hasse_edges(max_n: int) -> Iterable[Check]:
    if max_n < 3:
        return
    covers = len(nc_b_annulus(2, 1).hasse_edges())
    yield Check("hasse-edges", "p=2 q=1", 46, covers)
    # ranks 1, 9, 9, 1 and 3^3 maximal chains: 9 + 27 + 9 covers
    covers = len(nc_b_disc(3).hasse_edges())
    yield Check("hasse-edges", "n=3", 2 * binom(3, 1) ** 2 + 3**3, covers)


_sweep("mobius-annulus", _desk_pairs, formulas.mobius_annulus, _oracle(_mobius))
_sweep("mobius-disc", _discs(2, 6), formulas.mobius_disc, _oracle(_mobius))
_sweep(
    "mobius-q1",
    _discs(2),
    lambda n: formulas.mobius_annulus(n - 1, 1),
    formulas.mobius_q1,
)


@_family("mobius-via-zeta")
def _mobius_via_zeta(max_n: int) -> Iterable[Check]:
    for p, q in _annulus_pairs(max_n):
        mu = formulas.mobius_annulus(p, q)
        yield Check("mobius-via-zeta", f"p={p} q={q}", mu, formulas.zeta_poly(p, q, -1))
    for p, q in _desk_pairs(min(max_n, 5)):
        poset = nc_b_annulus(p, q)
        params = f"p={p} q={q} interpolated"
        yield Check("mobius-via-zeta", params, _mobius(poset), poset.zeta(-1))


_sweep(
    "zeta",
    lambda max_n: _desk_pairs(min(max_n, 5)),
    lambda p, q: {m: formulas.zeta_poly(p, q, m) for m in range(2, 5)},
    _oracle(_zetas),
    note=" m=2..4",
)
_sweep(
    "zeta-disc",
    _discs(1, 5),
    lambda n: {m: binom(m * n, n) for m in range(2, 5)},
    _oracle(_zetas),
    note=" m=2..4",
)
_sweep(
    "zeta-q1",
    _discs(2),
    lambda n: {m: formulas.zeta_poly(n - 1, 1, m) for m in range(-1, 5)},
    lambda n: {m: formulas.zeta_poly_q1(n, m) for m in range(-1, 5)},
    note=" m=-1..4",
)
_sweep(
    "max-chains",
    lambda max_n: _desk_pairs(min(max_n, 5)),
    formulas.max_chains,
    _oracle(FinitePoset.maximal_chains),
)
_sweep("zeta-leading", _annulus_pairs, formulas.max_chains, _leading_difference)


@_family("roundtrip-annulus")
def _roundtrip_annulus(max_n: int) -> Iterable[Check]:
    for p, q in _desk_pairs(min(max_n, 5)):
        domain = list(bijection.annulus_tuples(p, q))
        images = [bijection.encode_annulus(t, p, q) for t in domain]
        good = sum(
            bijection.decode_annulus(pi, p, q) == t for t, pi in zip(domain, images)
        )
        yield Check(
            "roundtrip-annulus",
            f"p={p} q={q}",
            (len(domain), True),
            (good, set(images) == _pair_tallies(p, q)[2]),
        )


@_family("roundtrip-multichain")
def _roundtrip_multichain(max_n: int) -> Iterable[Check]:
    for p, q in _desk_pairs(min(max_n, 4)):
        poset = nc_b_annulus(p, q)
        connected = _pair_tallies(p, q)[2]
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
                    all(map(poset.__contains__, chain))
                    and all(map(poset.le, chain, chain[1:]))
                    and not connected.isdisjoint(chain)
                    and bijection.decode_multichain(chain, p, q) == t
                )
            params = f"p={p} q={q} m={m}"
            yield Check(
                "roundtrip-multichain", params, (formula, formula), (len(chains), good)
            )


def _split_orbits(*sizes: int) -> int:
    """Permutations tau below the boundary permutation gamma with a joint
    orbit of (tau, gamma) that meets more than two circles."""
    shape = AnnulusShape(sizes)
    gamma = boundary_permutation(shape)
    step = _steps(gamma.image)
    circle = {x: j for j in range(shape.k) for x in shape.labels(j)}
    return sum(
        any(
            len({circle[abs(x)] for x in orbit}) > 2
            for orbit in _joint_walk((_steps(tau.image), step), shape.n)
        )
        for tau in interval_perms(gamma)
    )


_sweep("multi-split", _many_circle_shapes, lambda *sizes: 0, _split_orbits)
_sweep(
    "multi-total",
    _many_circle_shapes,
    lambda *s: formulas.poset_size(s),
    lambda *s: len(interval_perms(boundary_permutation(AnnulusShape(s)))),
)


def _genus_rows(n: int) -> tuple[list[tuple[int, ...]], list[list[int]]]:
    """The images of B_n, and for each a the row of genus_defect(a, b) over b.

    Joint orbits depend only on the orbit partitions (classes): twice their
    count is one symmetric table, walked once per unordered pair of distinct
    classes, with twice a class's own orbit count on its diagonal.  Each row
    composes a^-1 b for every b in C-level maps through a's inverse steps."""
    images = [
        tuple(p * s for p, s in zip(perm, signs))
        for perm in itertools.permutations(range(1, n + 1))
        for signs in itertools.product((1, -1), repeat=n)
    ]
    counts, classes, kinds, steps = [], {}, [], []
    for image in images:
        orbits = _orbits(image)
        counts.append(len(orbits))
        kinds.append(classes.setdefault(frozenset(map(frozenset, orbits)), len(steps)))
        if kinds[-1] == len(steps):
            steps.append(_steps(image))
    table = [[2 * len(partition)] * len(classes) for partition in classes]
    for k, l in itertools.combinations(range(len(classes)), 2):
        table[k][l] = table[l][k] = 2 * len(_joint_walk((steps[k], steps[l]), n))
    # 2 joint(a, b) - #b - (#a - 2n) over b, one list per class of a.
    heads = []
    for row, partition in zip(table, classes):
        shifted = map(operator.add, counts, itertools.repeat(len(partition) - 2 * n))
        heads.append(list(map(operator.sub, map(row.__getitem__, kinds), shifted)))
    # Images as bytes of their labels mod 2n + 1, so that a step table,
    # whose negative labels count from the end, is a bytes.translate table.
    m = 2 * n + 1
    codes = [bytes(x % m for x in image) for image in images]
    count = dict(zip(codes, counts))
    rows = []
    for image, kind in zip(images, kinds):
        inverse = bytes(x % m for x in _steps(_inverse(image))).ljust(256, b"\0")
        rest = map(bytes.translate, codes, itertools.repeat(inverse))  # a^-1 b
        rows.append(list(map(operator.sub, heads[kind], map(count.__getitem__, rest))))
    return images, rows


@_family("genus-defect")
def _genus_defect(max_n: int) -> Iterable[Check]:
    for n in (2, 3):
        slacks = Counter(itertools.chain.from_iterable(_genus_rows(n)[1]))
        bad = sum(k for d, k in slacks.items() if d < 0 or d % 2 == 1)
        yield Check("genus-defect", f"n={n}", 0, bad)


@_family("chu-vandermonde")
def _chu_vandermonde(max_n: int) -> Iterable[Check]:
    # Slot n + r of row n times row n reversed is sum_k C(n, k) C(n, k + r).
    bad = 0
    for n in range(13):
        row = [binom(n, k) for k in range(n + 1)]
        lhs = _pack(row, 8) * _pack(row[::-1], 8) >> 64 * n
        rhs = _pack([binom(2 * n, n - r) for r in range(n + 1)], 8)
        bad += _differing_slots(lhs ^ rhs, n + 1)
    yield Check("chu-vandermonde", "n<=12", 0, bad)


def _differing_slots(diff: int, slots: int) -> int:
    """How many of the low `slots` 64-bit slots of a xor of packs are nonzero."""
    return sum(map(bool, memoryview(diff.to_bytes(8 * slots, "little")).cast("Q")))


@_family("hypersum")
def _hypersum(max_n: int) -> Iterable[Check]:
    # Every binomial here is C(n, x) with n, x <= 10, read off one table; a
    # packed row holds C(n, x) in 64-bit slot x.
    pascal = [[comb(n, x) for x in range(n + 1)] for n in range(11)]
    rows = [_pack(row, 8) for row in pascal]
    flipped = [_pack(row[::-1], 8) for row in pascal]
    # weights[heads] packs in slot s the sum of prod C(A, a) over the a with
    # sum(a) = s.  It is convolved from the weights of heads[:-1] by one
    # product with packed row A, not taken as C(sum(heads), s): that equality
    # is the Vandermonde identity this family checks.  No slot carries: each
    # is at most the product of the factors' row sums, 2^(total + last) <= 2^10.
    weights = {(): 1}
    level = [()]
    bad = 0
    count = 0
    for _ in range(3):
        # The heads tuples one longer, with sum <= 10, lexicographically.
        level = [(*head, A) for head in level for A in range(11 - sum(head))]
        for heads in level:
            weights[heads] = weight = weights[heads[:-1]] * rows[heads[-1]]
            total = sum(heads)
            for last in range(11 - total):
                # Slot last - b, b <= last, of weight times row `last` reversed
                # is lhs(b) = sum_s C(last, s + b) weight[s]; of row total + last
                # it is C(total + last, last - b).
                mask = (1 << 64 * (last + 1)) - 1
                diff = (weight * flipped[last] ^ rows[total + last]) & mask
                count += last + 1
                if diff:
                    bad += _differing_slots(diff, last + 1)
    yield Check("hypersum", f"sum<=10 ({count} cases)", 0, bad)


@_family("dixon")
def _dixon(max_n: int) -> Iterable[Check]:
    # Dixon's sum, multiplied through by 2(p+q) to stay in integers:
    # lhs = 2 C(2p, p-1) C(2q, q-1) (p+1)(q+1) / (2(p+q)).
    bad = 0
    for p in range(1, 9):
        for q in range(1, 9):
            lhs = sum(
                2 * c * binom(2 * p, p - c) * binom(2 * q, q - c)
                for c in range(1, p + 1)
            )
            rhs = 2 * binom(2 * p, p - 1) * binom(2 * q, q - 1) * (p + 1) * (q + 1)
            total = formulas.annulus_positive_total(p, q)
            bad += 2 * (p + q) * lhs != rhs or lhs != total
    yield Check("dixon", "p,q<=8", 0, bad)
