import itertools
import math
import re

import pytest
from hypothesis import given
import hypothesis.strategies as st

from ncb import (
    AnnulusShape,
    SignedPermutation,
    boundary_permutation,
    genus_defect,
)
from ncb.signed_perm import _orbits, joint_orbits


def all_perms(n):
    "Every signed permutation on 1..n."
    out = []
    for values in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPermutation(s * v for s, v in zip(signs, values)))
    return out


def reflections(n):
    "Every reflection on 1..n."
    out = [SignedPermutation.from_cycles(n, (i, -i)) for i in range(1, n + 1)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            out.append(SignedPermutation.from_cycles(n, (i, j)))
            out.append(SignedPermutation.from_cycles(n, (i, -j)))
    return out


def bfs_lengths(n):
    "Word length over reflections, by breadth-first search."
    refls = reflections(n)
    dist = {SignedPermutation.identity(n): 0}
    frontier = list(dist)
    while frontier:
        nxt = []
        for g in frontier:
            for r in refls:
                h = g * r
                if h not in dist:
                    dist[h] = dist[g] + 1
                    nxt.append(h)
        frontier = nxt
    return dist


@pytest.mark.parametrize("n", [1, 2, 3])
def test_length_matches_word_length(n):
    "Orbit-counting length equals distance in the reflection Cayley graph."
    dist = bfs_lengths(n)
    assert len(dist) == 2**n * math.factorial(n)
    for g, d in dist.items():
        assert g.length() == d


@pytest.mark.parametrize("n", [1, 2, 3])
def test_reflection_count(n):
    "There are n^2 reflections and each has length one."
    refls = reflections(n)
    assert len(set(refls)) == n * n
    assert all(r.length() == 1 for r in refls)


def test_constructor_rejects_bad_images():
    "Images must hit each absolute value exactly once."
    with pytest.raises(ValueError):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError):
        SignedPermutation((1, -1))
    with pytest.raises(ValueError):
        SignedPermutation((3, 1))
    with pytest.raises(ValueError):
        SignedPermutation((0, 1))


def test_call_and_negation():
    "Application respects the stored image and commutes with negation."
    g = SignedPermutation((2, -1, -3))
    assert [g(x) for x in (1, 2, 3)] == [2, -1, -3]
    assert [g(-x) for x in (1, 2, 3)] == [-2, 1, 3]
    with pytest.raises(ValueError):
        g(0)
    with pytest.raises(ValueError):
        g(4)


def test_group_axioms_small():
    "Composition, inverse, and identity behave as a group on B_2."
    e = SignedPermutation.identity(2)
    perms = all_perms(2)
    assert len(perms) == 8
    for a in perms:
        assert a * a.inverse() == e
        assert a.inverse() * a == e
        for b in perms:
            for x in (1, 2, -1, -2):
                assert (a * b)(x) == a(b(x))


def test_from_cycles():
    "Cycles assign images for both the cycle and its negation."
    g = SignedPermutation.from_cycles(3, (1, 2))
    assert g.image == (2, 1, 3)
    h = SignedPermutation.from_cycles(3, (1, 2, -1, -2))
    assert h.image == (2, -1, 3)
    assert SignedPermutation.from_cycles(2, (1, -1)).image == (-1, 2)
    with pytest.raises(ValueError):
        SignedPermutation.from_cycles(2, (1, 2), (2, -1))


def test_orbits_and_stats():
    "Orbits pair up under negation unless inversion-invariant."
    g = SignedPermutation.from_cycles(3, (1, 2, -1, -2))
    orbits = g.orbits()
    assert [1, 2, -1, -2] in orbits
    assert len(orbits) == 3
    assert sum(-orbit[0] in orbit for orbit in orbits) == 1
    assert g.length() == 2


def test_cycle_string_forms():
    "Paired orbits print doubled, invariant orbits print one half."
    assert SignedPermutation.identity(3).cycle_string() == "((1))((2))((3))"
    assert SignedPermutation.from_cycles(3, (1, 2)).cycle_string() == "((1,2))((3))"
    assert SignedPermutation.from_cycles(2, (1, -1)).cycle_string() == "[1]((2))"
    shape = AnnulusShape(2, 1)
    assert boundary_permutation(shape).cycle_string() == "[1,2][3]"


def test_absolute_order_is_partial_order():
    "The length-additivity order is reflexive, antisymmetric, transitive."
    perms = all_perms(2)
    e = SignedPermutation.identity(2)
    for a in perms:
        assert e.le(a)
        assert a.le(a)
        for b in perms:
            if a.le(b) and b.le(a):
                assert a == b
            for c in perms:
                if a.le(b) and b.le(c):
                    assert a.le(c)


def test_le_matches_length_additivity():
    "a <= b exactly when lengths add along a, a^-1 b, b."
    perms = all_perms(2)
    for a in perms:
        for b in perms:
            additive = a.length() + (a.inverse() * b).length() == b.length()
            assert a.le(b) == additive


def test_boundary_permutation():
    "Each circle contributes one inversion-invariant cycle."
    gamma = boundary_permutation(AnnulusShape(2, 1))
    assert gamma.image == (2, -1, -3)
    assert gamma.length() == 3
    orbits = gamma.orbits()
    assert len(orbits) == 2
    assert all(-orbit[0] in orbit for orbit in orbits)
    gamma = boundary_permutation(AnnulusShape([1, 1, 1]))
    assert gamma.image == (-1, -2, -3)


def test_shape_accessors():
    "Shapes expose sizes, labels, and the two-circle aliases."
    shape = AnnulusShape(3, 2)
    assert (shape.n, shape.k, shape.p, shape.q) == (5, 2, 3, 2)
    assert list(shape.labels(0)) == [1, 2, 3]
    assert list(shape.labels(1)) == [4, 5]
    assert AnnulusShape([2, 1, 1]).k == 3
    with pytest.raises(ValueError):
        AnnulusShape(0, 1)


@pytest.mark.parametrize(
    "sizes,bad",
    [
        ((2.9, 1), "2.9"),
        (([2.9, 1],), "2.9"),
        ((2.0,), "2.0"),
        (("3",), "'3'"),
        (("3", 1), "'3'"),
        ((True, 1), "True"),
        (([1, False],), "False"),
    ],
)
def test_shape_rejects_sizes_that_are_not_ints(sizes, bad):
    "A float, str or bool size is refused by name, not truncated by int()."
    with pytest.raises(ValueError, match=f"circle size {re.escape(bad)} is not an int"):
        AnnulusShape(*sizes)


E2, E3 = SignedPermutation.identity(2), SignedPermutation.identity(3)


@pytest.mark.parametrize(
    "call, message",
    [
        pytest.param(lambda: AnnulusShape(), "a shape needs at least one circle", id="no-circles"),
        pytest.param(
            lambda: AnnulusShape(1, 1, 1).p, "p/q only make sense for two-circle shapes", id="p"
        ),
        pytest.param(
            lambda: AnnulusShape(1, 1, 1).q, "p/q only make sense for two-circle shapes", id="q"
        ),
        pytest.param(lambda: E2 * E3, "size mismatch", id="mul"),
        pytest.param(lambda: E2.le(E3), "size mismatch", id="le"),
        pytest.param(lambda: joint_orbits(E2, E3), "size mismatch", id="joint-orbits"),
        pytest.param(lambda: genus_defect(E3, E2), "size mismatch", id="genus-defect"),
        pytest.param(
            lambda: SignedPermutation.from_cycles(2, (1, -3)),
            "label out of range 1..2",
            id="from-cycles-label",
        ),
    ],
)
def test_shapes_and_pairs_refuse_what_does_not_fit(call, message):
    "No circles, p or q off two circles, and mixed sizes are refused with their message."
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_joint_orbit_count():
    "Joint orbits merge the orbits of both permutations."
    e = SignedPermutation.identity(3)
    gamma = boundary_permutation(AnnulusShape(2, 1))
    assert len(joint_orbits(e, e)) == 6
    assert len(joint_orbits(e, gamma)) == 2
    assert len(joint_orbits(gamma, gamma)) == 2


def test_genus_defect_spots():
    "The defect vanishes on annular pairs and is even in general."
    e = SignedPermutation.identity(3)
    gamma = boundary_permutation(AnnulusShape(2, 1))
    assert genus_defect(e, gamma) == 0
    assert genus_defect(gamma, gamma) == 0


def test_genus_defect_even_nonnegative():
    "The defect is an even nonnegative integer on all of B_2."
    perms = all_perms(2)
    for a in perms:
        for b in perms:
            d = genus_defect(a, b)
            assert d >= 0
            assert d % 2 == 0


def test_kreweras_perm_complements_length():
    "The complement splits the boundary length and reverses order."
    shape = AnnulusShape(2, 1)
    gamma = boundary_permutation(shape)
    below = [g for g in all_perms(3) if g.le(gamma)]
    assert len(below) == 20
    for t in below:
        k = t.inverse() * gamma
        assert k.le(gamma)
        assert t.length() + k.length() == gamma.length()
        assert t * k == gamma
    for a in below:
        for b in below:
            if a.le(b):
                assert (b.inverse() * gamma).le(a.inverse() * gamma)


@given(st.permutations(list(range(1, 5))), st.lists(st.booleans(), min_size=4, max_size=4))
def test_inverse_involution(values, flips):
    "Inverting twice returns the original permutation."
    g = SignedPermutation(-v if f else v for v, f in zip(values, flips))
    assert g.inverse().inverse() == g
    assert (g * g.inverse()).length() == 0


def signed_perms(n):
    "Random signed permutations of 1..n."
    return st.tuples(
        st.permutations(list(range(1, n + 1))),
        st.lists(st.booleans(), min_size=n, max_size=n),
    ).map(lambda vf: SignedPermutation(-v if f else v for v, f in zip(*vf)))


def _starts(n):
    "Walk starts in the kernels' order: 1..n, then -1..-n."
    return list(range(1, n + 1)) + list(range(-1, -n - 1, -1))


def reference_orbits(g):
    "Orbits by stepping with g(x) calls, each from its first unseen start."
    seen = set()
    out = []
    for start in _starts(g.n):
        orbit = []
        x = start
        while x not in seen:
            seen.add(x)
            orbit.append(x)
            x = g(x)
        if orbit:
            out.append(orbit)
    return out


def reference_joint_orbits(a, b):
    "Breadth-first orbits of <a, b>, stepping with a(x) then b(x) calls."
    seen = set()
    out = []
    for start in _starts(a.n):
        if start in seen:
            continue
        seen.add(start)
        orbit = [start]
        for x in orbit:
            for y in (a(x), b(x)):
                if y not in seen:
                    seen.add(y)
                    orbit.append(y)
        out.append(orbit)
    return out


@given(st.integers(1, 12).flatmap(signed_perms))
def test_orbits_match_reference_walk(g):
    "The step-table walk lists the same orbits, in the same order."
    assert _orbits(g.image) == reference_orbits(g)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(signed_perms(n), signed_perms(n))))
def test_joint_orbits_and_genus_defect_match_reference(pair):
    "joint_orbits keeps the reference order; genus_defect keeps its formula."
    a, b = pair
    assert joint_orbits(a, b) == reference_joint_orbits(a, b)
    orbit_sum = sum(len(g.orbits()) for g in (a, b, a.inverse() * b))
    joint = len(reference_joint_orbits(a, b))
    assert genus_defect(a, b) == 2 * a.n + 2 * joint - orbit_sum
