from functools import lru_cache

import pytest
from test_acceptance import size_tuples
from test_signed_perm import all_perms, reflections

from ncb import (
    AnnulusShape,
    BPartition,
    FinitePoset,
    adjusted_orbits,
    adjusted_orbits_inverse,
    boundary_permutation,
    interval_perms,
    kreweras,
    nc_a,
    nc_b_annulus,
    nc_b_disc,
    nc_b_multi,
)
from ncb import enumeration
from ncb.formulas import annulus_total, binom


@pytest.mark.parametrize(
    "p,q,total",
    [(1, 1, 6), (2, 1, 20), (2, 2, 72), (3, 1, 70), (3, 2, 264)],
)
def test_annulus_sizes(p, q, total):
    "Element counts match the closed product formula."
    poset = nc_b_annulus(p, q)
    assert len(poset.elements) == total
    assert annulus_total(p, q) == total


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_disc_sizes(n):
    "One circle gives a central binomial count of elements."
    assert len(nc_b_disc(n).elements) == binom(2 * n, n)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rank_vector_single_inner_point(n):
    "Shape (n-1, 1) has squared binomials as rank counts."
    poset = nc_b_annulus(n - 1, 1)
    assert poset.rank_vector() == tuple(binom(n, k) ** 2 for k in range(n + 1))


def test_rank_vector_disc():
    "One circle has squared binomials as rank counts too."
    assert nc_b_disc(3).rank_vector() == (1, 9, 9, 1)


def test_annulus_of_total_two_equals_disc():
    "The smallest annulus carries exactly the same partitions as the disc."
    assert set(nc_b_annulus(1, 1).elements) == set(nc_b_disc(2).elements)


def test_annulus_and_disc_diverge_at_three():
    "Larger shapes admit different partitions around each boundary."
    ann = set(nc_b_annulus(2, 1).elements)
    disc = set(nc_b_disc(3).elements)
    assert len(ann) == len(disc) == 20
    assert BPartition(3, [[1, -2], [-1, 2], [3, -3]]) in ann - disc
    assert BPartition(3, [[1, -1], [2, 3], [-2, -3]]) in disc - ann


def slow_covers(poset):
    "Cover pairs found from element le: x < y with no element in between."
    elements = poset.elements
    above = {x: {z for z in elements if z != x and x.le(z)} for x in elements}
    return [
        (x, y)
        for x in elements
        for y in above[x]
        if not any(y in above[z] for z in above[x])
    ]


def slow_mobius(poset, x, y):
    "Moebius by the recursion over element le: mu(x, x) = 1, sums vanish."

    @lru_cache(maxsize=None)
    def mu(z):
        if z == x:
            return 1
        return -sum(mu(w) for w in poset.elements if x.le(w) and w.le(z) and w != z)

    return mu(y)


def definition_posets():
    "Every circle order of total size at most 5, and the classical n <= 6."
    return [
        pytest.param(nc_b_multi(sizes), id="B" + ",".join(map(str, sizes)))
        for sizes in size_tuples(5)
    ] + [pytest.param(nc_a(n), id=f"A{n}") for n in range(1, 7)]


@pytest.mark.parametrize(
    "poset,count",
    [(nc_b_annulus(2, 1), 46), (nc_b_disc(3), 45), (nc_b_annulus(1, 1), 8)],
)
def test_hasse_edge_counts(poset, count):
    "Edge totals agree with a direct cover computation."
    edges = poset.hasse_edges()
    assert len(edges) == count
    assert sorted(slow_covers(poset), key=str) == sorted(edges, key=str)


@pytest.mark.parametrize("poset", definition_posets())
def test_order_matches_element_le(poset):
    "The down-set rows and the Hasse diagram follow the pair-mask order."
    elements = poset.elements
    assert all(poset.le(x, y) == x.le(y) for x in elements for y in elements)
    assert sorted(poset.hasse_edges(), key=str) == sorted(slow_covers(poset), key=str)


@pytest.mark.parametrize(
    "sizes", [(2, 1), (3,), (1, 1, 1)], ids=lambda s: ",".join(map(str, s))
)
def test_mobius_matches_definition(sizes):
    "Every Mobius value of the sweep equals the recursion over element le."
    poset = nc_b_multi(sizes)
    for x in poset.elements:
        for y in poset.elements:
            if x.le(y):
                assert poset.mobius(x, y) == slow_mobius(poset, x, y)


@pytest.mark.parametrize("poset", [nc_b_annulus(2, 1), nc_b_disc(3)])
def test_graded(poset):
    "Every cover raises rank by exactly one."
    for lower, upper in poset.hasse_edges():
        assert upper.rank() == lower.rank() + 1
    assert poset.bottom().rank() == 0
    assert poset.top().rank() == poset.top().n


@pytest.mark.parametrize(
    "poset,value",
    [(nc_b_annulus(1, 1), 3), (nc_b_annulus(2, 1), -11), (nc_b_disc(3), -10)],
)
def test_mobius_spots(poset, value):
    "Bottom-to-top Mobius values on small posets."
    assert poset.mobius(poset.bottom(), poset.top()) == value


def test_mobius_basics():
    "Mobius is one on points and undefined off the order."
    poset = nc_b_annulus(2, 1)
    x = poset.bottom()
    assert poset.mobius(x, x) == 1
    a = BPartition(3, [[1, 2], [-1, -2], [3], [-3]])
    b = BPartition(3, [[1, -2], [-1, 2], [3], [-3]])
    with pytest.raises(ValueError):
        poset.mobius(a, b)


def test_mobius_sum_over_interval():
    "Summing Mobius over a closed interval gives zero."
    poset = nc_b_annulus(2, 1)
    bot, top = poset.bottom(), poset.top()
    total = sum(poset.mobius(bot, z) for z in poset.elements if poset.le(z, top))
    assert total == 0


@pytest.mark.parametrize(
    "poset,m,value",
    [
        (nc_b_annulus(1, 1), 2, 6),
        (nc_b_annulus(1, 1), 3, 15),
        (nc_b_annulus(2, 1), 3, 85),
        (nc_b_disc(3), 3, 84),
    ],
)
def test_zeta_spots(poset, m, value):
    "Multichain counts on small posets."
    assert poset.zeta(m) == value


def test_zeta_at_two_builds_no_order(monkeypatch):
    "zeta(2) counts single elements, so no down-set is built."
    poset = FinitePoset(["a", "b"], [0, 1], masks=[0, 1])
    monkeypatch.setattr(poset, "_down_rows", lambda: pytest.fail("down-sets built"))
    assert poset.zeta(2) == 2


def test_zeta_interpolated():
    "The strict-chain expansion extends the multichain counts to every integer."
    poset = nc_b_annulus(2, 1)
    assert [poset.zeta(m) for m in (2, 3, 4)] == [20, 85, 224]
    assert poset.zeta(1) == 1
    assert poset.zeta(0) == 0
    assert poset.zeta(-1) == -11


def slow_zeta(poset, m):
    "Multichains x_1 <= ... <= x_(m-1), grown one element at a time over element le."
    elements = poset.elements
    below = [[i for i, x in enumerate(elements) if x.le(y)] for y in elements]
    counts = [1] * len(elements)
    for _ in range(m - 2):
        counts = [sum(counts[i] for i in down) for down in below]
    return sum(counts)


@pytest.mark.parametrize("poset", definition_posets())
def test_zeta_matches_multichain_count(poset):
    "The chain sweep counts multichains, and at m = -1 gives the Mobius value."
    for m in range(2, 6):
        assert poset.zeta(m) == slow_zeta(poset, m), m
    assert poset.zeta(1) == 1
    assert poset.zeta(-1) == poset.mobius(poset.bottom(), poset.top())


@pytest.mark.parametrize(
    "poset,count", [(nc_b_annulus(1, 1), 4), (nc_b_annulus(2, 1), 28)]
)
def test_maximal_chains(poset, count):
    "Counts of saturated bottom-to-top chains."
    assert poset.maximal_chains() == count


def test_to_dot():
    "The DOT rendering lists one arrow per cover."
    poset = nc_b_annulus(2, 1)
    dot = poset.to_dot("demo")
    assert dot.startswith("digraph demo")
    assert dot.count("->") == 46


def test_interval_perms():
    "Permutations below the boundary match the poset size."
    gamma = boundary_permutation(AnnulusShape(2, 1))
    perms = interval_perms(gamma)
    assert len(perms) == 20
    assert all(g.le(gamma) for g in perms)
    assert {adjusted_orbits(g) for g in perms} == set(nc_b_annulus(2, 1).elements)


@lru_cache(maxsize=None)
def b_group(n):
    "All of B_n, from the test-side generator."
    return all_perms(n)


@pytest.mark.parametrize(
    "sizes",
    size_tuples(5) + [(3, 3), (6,), (2, 2, 2), (1, 1, 1, 1, 1, 1)],
    ids=lambda sizes: ",".join(map(str, sizes)),
)
def test_interval_walk_matches_definition(sizes):
    "The walk down from gamma finds exactly the elements of B_n below gamma."
    gamma = boundary_permutation(AnnulusShape(sizes))
    below = [g for g in b_group(gamma.n) if g.le(gamma)]
    below.sort(key=lambda g: g.image)
    assert interval_perms(gamma) == below


@pytest.mark.parametrize(
    "sizes", [(2, 1), (3,), (1, 1, 1), (2, 2)], ids=lambda s: ",".join(map(str, s))
)
def test_permutation_covers_are_partition_covers(sizes):
    "Reflection covers in [e, gamma] map onto the Hasse diagram of the poset."
    gamma = boundary_permutation(AnnulusShape(sizes))
    refls = reflections(gamma.n)
    pairs = [
        (adjusted_orbits(t * r), adjusted_orbits(t))
        for t in interval_perms(gamma)
        for r in refls
        if (t * r).length() == t.length() - 1
    ]
    edges = nc_b_multi(sizes).hasse_edges()
    assert sorted(pairs, key=str) == sorted(edges, key=str)


def test_adjusted_orbits_inverse_round_trip():
    "Every partition in the poset has a matching permutation below gamma."
    shape = AnnulusShape(2, 1)
    gamma = boundary_permutation(shape)
    for pi in nc_b_annulus(2, 1).elements:
        t = adjusted_orbits_inverse(pi, shape)
        assert t.le(gamma)
        assert adjusted_orbits(t) == pi
        assert t.length() == pi.rank()


def test_adjusted_orbits_inverse_rejects_foreign():
    "Partitions outside the poset are reported."
    outside = BPartition(3, [[1, -1], [2, 3], [-2, -3]])
    with pytest.raises(ValueError):
        adjusted_orbits_inverse(outside, AnnulusShape(2, 1))


def test_kreweras_maps_no_interval_again(monkeypatch):
    """Building a poset maps each permutation of its interval once; the
    preimages kreweras looks up come from that same map."""
    for name in ("_preimages", "_poset_for_sizes"):  # fresh, unshared caches
        fresh = lru_cache(getattr(enumeration, name).__wrapped__)
        monkeypatch.setattr(enumeration, name, fresh)
    real = enumeration.adjusted_orbits
    calls = []
    counted = lambda t: calls.append(t) or real(t)
    monkeypatch.setattr(enumeration, "adjusted_orbits", counted)
    shape = AnnulusShape(3, 2)
    poset = nc_b_annulus(3, 2)
    assert len(calls) == len(interval_perms(boundary_permutation(shape)))
    assert {kreweras(pi, shape) for pi in poset} == set(poset.elements)
    assert len(calls) == len(interval_perms(boundary_permutation(shape)))


def test_classical_poset():
    "One-circle unsigned partitions have Catalan counts."
    assert len(nc_a(3).elements) == 5
    assert len(nc_a(4).elements) == 14
    assert nc_a(3).rank_vector() == (1, 3, 1)
    assert all(pi.is_noncrossing() for pi in nc_a(4).elements)


def test_three_circles():
    "A third circle goes through the same interval walk and order."
    poset = nc_b_multi([1, 1, 1])
    assert len(poset.elements) == 20
    assert poset.rank_vector() == (1, 9, 9, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: nc_b_annulus(8, 1),
        lambda: nc_b_disc(9),
        lambda: nc_b_multi([3, 2, 2]),
        lambda: nc_a(9),
    ],
)
def test_desk_bounds(build):
    "Sizes beyond the supported range raise instead of hanging."
    with pytest.raises(ValueError):
        build()
