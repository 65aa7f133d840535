"""Acceptance gate: one test per published criterion, exact values only.

Each test prints a single PASS or FAIL line for its criterion, so running
with -v (or -s) yields a one-line verdict per criterion.
"""

import itertools
import re
import time
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from pathlib import Path

from ncb import (
    AnnulusShape,
    AnnulusTuple,
    BPartition,
    SignedPermutation,
    annulus_cell_count,
    annulus_connectivity_count,
    annulus_total,
    annulus_tuples,
    boundary_permutation,
    connectivity,
    decode_annulus,
    decode_multichain,
    encode_annulus,
    encode_multichain,
    genus_defect,
    interval_perms,
    max_chains,
    mobius_annulus,
    mobius_q1,
    nc_b_annulus,
    nc_b_disc,
    nc_b_multi,
    pair_stats,
    rank_gen,
    rank_gen_cells,
    rank_gen_compact,
    zeta_poly,
    zeta_poly_q1,
)
from ncb.cli import verify_suite
from ncb.formulas import annulus_positive_total, binom
from oracles import ParenString, legal_left_shifts, multi3_total

README = Path(__file__).parent.parent / "README.md"


@contextmanager
def verdict(number, label):
    "Print one PASS or FAIL line for a criterion."
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number:2d}: {label}")
        raise
    print(f"PASS criterion {number:2d}: {label}")


def ordered_pairs(max_total):
    "(p, q) with p, q >= 1 and p + q <= max_total, both orders."
    return [
        (p, q)
        for total in range(2, max_total + 1)
        for p in range(1, total)
        for q in [total - p]
    ]


def test_criterion_01_rank_vectors():
    "Rank counts on shapes with one inner point are squared binomials."
    with verdict(1, "rank vectors of (n-1,1) are C(n,k)^2 for n=2..6"):
        start = time.monotonic()
        for n in range(2, 7):
            got = nc_b_annulus(n - 1, 1).rank_vector()
            assert got == tuple(binom(n, k) ** 2 for k in range(n + 1)), n
        assert time.monotonic() - start < 60


def test_criterion_02_totals():
    "Enumerated sizes match the closed product formula through p+q=7."
    with verdict(2, "enumerated totals match the product formula, p+q<=7"):
        for p, q in ordered_pairs(7):
            count = len(nc_b_annulus(p, q).elements)
            assert count * (p + q) == (p + q + p * q) * binom(2 * p, p) * binom(
                2 * q, q
            ), (p, q)
            assert count == annulus_total(p, q)


def test_criterion_03_connectivity_histogram():
    "Cell and class sizes match the closed forms through p+q=6."
    with verdict(3, "(c,e,i) cells and per-c classes match, p+q<=6"):
        for p, q in ordered_pairs(6):
            shape = AnnulusShape(p, q)
            histogram: dict = {}
            by_connectivity: dict = {}
            for pi in nc_b_annulus(p, q).elements:
                cell = pair_stats(pi, shape)
                histogram[cell] = histogram.get(cell, 0) + 1
                by_connectivity[cell[0]] = by_connectivity.get(cell[0], 0) + 1
            for c in range(1, min(p, q) + 1):
                for e in range(0, p - c + 1):
                    for i in range(0, q - c + 1):
                        want = annulus_cell_count(p, q, c, e, i)
                        assert histogram.get((c, e, i), 0) == want, (p, q, c, e, i)
                want = 2 * c * binom(2 * p, p - c) * binom(2 * q, q - c)
                assert by_connectivity.get(c, 0) == want
                assert annulus_connectivity_count(p, q, c) == want
            assert by_connectivity.get(0, 0) == binom(2 * p, p) * binom(2 * q, q)


def test_criterion_04_hasse_edges():
    "Cover counts of the two reference posets."
    with verdict(4, "46 covers on the annulus (2,1) and 45 on the disc of 3"):
        assert len(nc_b_annulus(2, 1).hasse_edges()) == 46
        # ranks 1, 9, 9, 1 and n^n = 27 maximal chains: 9 + 27 + 9 covers
        assert len(nc_b_disc(3).hasse_edges()) == 2 * comb(3, 1) ** 2 + 3 ** 3


def test_criterion_05_mobius():
    "Mobius values from the recursion match both closed forms and Z(-1)."
    with verdict(5, "Mobius recursion matches closed forms and Z(-1)"):
        for n in range(2, 7):
            poset = nc_b_annulus(n - 1, 1)
            mu = poset.mobius(poset.bottom(), poset.top())
            want = (-1) ** n * binom(2 * n - 1, n) * Fraction(5 * n - 4, 4 * n - 2)
            assert want.denominator == 1
            assert mu == want == mobius_q1(n), n
        for p, q in ordered_pairs(6):
            poset = nc_b_annulus(p, q)
            mu = poset.mobius(poset.bottom(), poset.top())
            assert mu == mobius_annulus(p, q), (p, q)
            assert mu == poset.zeta(-1), (p, q)
        assert mobius_annulus(2, 1) == -11
        assert mobius_annulus(1, 1) == 3


def test_criterion_06_zeta():
    "Multichain counts match the closed form, with the q=1 special form."
    with verdict(6, "multichain counts match the closed forms"):
        for p, q in ordered_pairs(5):
            poset = nc_b_annulus(p, q)
            for m in (2, 3, 4):
                assert poset.zeta(m) == zeta_poly(p, q, m), (p, q, m)
        for n in range(2, 7):
            poset = nc_b_annulus(n - 1, 1)
            for m in (2, 3, 4):
                assert poset.zeta(m) == zeta_poly_q1(n, m), (n, m)
        assert zeta_poly(1, 1, 3) == 15
        assert zeta_poly(2, 1, 3) == 85


def test_criterion_07_maximal_chains():
    "Saturated chain counts match the closed form through p+q=5."
    with verdict(7, "maximal chain counts match the closed form, p+q<=5"):
        for p, q in ordered_pairs(5):
            assert nc_b_annulus(p, q).maximal_chains() == max_chains(p, q), (p, q)
        assert max_chains(1, 1) == 4
        assert max_chains(2, 1) == 28


def all_multichains(poset, depth):
    "Weakly increasing element tuples of the given length."
    chains = [(x,) for x in poset.elements]
    for _ in range(depth - 1):
        chains = [
            chain + (y,)
            for chain in chains
            for y in poset.elements
            if poset.le(chain[-1], y)
        ]
    return chains


def test_criterion_08_bijection_round_trips():
    "Both parenthesis maps are mutually inverse over their whole ranges."
    start = time.monotonic()
    with verdict(8, "tuple maps are bijections with exact rank profiles"):
        for p, q in ordered_pairs(5):
            shape = AnnulusShape(p, q)
            positive = {
                pi
                for pi in nc_b_annulus(p, q).elements
                if connectivity(pi, shape) > 0
            }
            seen = set()
            for t in annulus_tuples(p, q):
                pi = encode_annulus(t, p, q)
                assert decode_annulus(pi, p, q) == t
                seen.add(pi)
            assert len(seen) == annulus_positive_total(p, q)
            assert seen == positive
        for p, q in ordered_pairs(4):
            shape = AnnulusShape(p, q)
            poset = nc_b_annulus(p, q)
            for m in (2, 3, 4):
                images = set()
                for t in annulus_tuples(p, q, m):
                    chain = encode_multichain(t, p, q)
                    for i, pi in enumerate(chain, start=1):
                        drop = sum(
                            len(t.rights_outer[j]) + len(t.rights_inner[j])
                            for j in range(i - 1, m - 1)
                        )
                        assert pi.rank() == p + q - drop, (p, q, m, t)
                    assert any(connectivity(pi, shape) > 0 for pi in chain)
                    assert decode_multichain(chain, p, q) == t
                    images.add(chain)
                connected = {
                    chain
                    for chain in all_multichains(poset, m - 1)
                    if any(connectivity(pi, shape) > 0 for pi in chain)
                }
                assert images == connected, (p, q, m)
        assert time.monotonic() - start < 120


def test_criterion_09_worked_examples():
    "Reference computations reproduce bit for bit."
    with verdict(9, "worked examples and the shift set {2,5,6} reproduce"):
        assert legal_left_shifts(ParenString.from_parens("( ) ( ( ) ( (")) == [2, 5, 6]
        t = AnnulusTuple.from_text("c=1 d=2 LE=2,4,5 RE1=1,2 LI=7 RI1=6,7")
        pi = BPartition(
            8,
            [[1, -5], [-1, 5], [2], [-2], [3, -4, -6, 8], [-3, 4, 6, -8], [7], [-7]],
        )
        assert encode_annulus(t, 5, 3) == pi
        assert decode_annulus(pi, 5, 3) == t
        chain_tuple = AnnulusTuple.from_text(
            "c=2 d=1 LE=1,2,3,5,6 RE1=1,3 RE2=3 LI=8,9 RI1=7,8,9 RI2=7"
        )
        first = BPartition(
            9,
            [[4, -6, 7], [-4, 6, -7]]
            + [[x] for a in (1, 2, 3, 5, 8, 9) for x in (a, -a)],
        )
        second = BPartition(
            9,
            [[1, 4, -5, -6, 7, -8, -9], [-1, -4, 5, 6, -7, 8, 9], [2, 3], [-2, -3]],
        )
        assert encode_multichain(chain_tuple, 6, 3) == (first, second)
        assert decode_multichain((first, second), 6, 3) == chain_tuple


def size_tuples(max_total):
    "Compositions (n_1, ..., n_k) with every part >= 1 and sum <= max_total."
    out = []
    for total in range(1, max_total + 1):
        for k in range(1, total + 1):
            for cuts in itertools.combinations(range(1, total), k - 1):
                bounds = (0,) + cuts + (total,)
                out.append(tuple(b - a for a, b in zip(bounds, bounds[1:])))
    return out


def joint_orbit_circle_sets(tau, gamma, shape):
    "Circle index sets met by the joint orbits of the pair."
    labels = [x for j in range(shape.k) for x in shape.labels(j)]
    labels += [-x for x in labels]
    circle = {}
    for j in range(shape.k):
        for x in shape.labels(j):
            circle[x] = circle[-x] = j
    parent = {x: x for x in labels}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x in labels:
        for y in (tau(x), gamma(x)):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[rx] = ry
    groups: dict = {}
    for x in labels:
        groups.setdefault(find(x), set()).add(circle[x])
    return list(groups.values())


def all_perms(n):
    "Every signed permutation on 1..n."
    out = []
    for values in itertools.permutations(range(1, n + 1)):
        for signs in itertools.product((1, -1), repeat=n):
            out.append(SignedPermutation(s * v for s, v in zip(signs, values)))
    return out


def test_criterion_10_many_circles():
    "Splitting bound, three-circle totals, and the genus parity bound."
    with verdict(10, "orbit splitting, three-circle totals, genus parity"):
        for sizes in size_tuples(5):
            shape = AnnulusShape(sizes)
            gamma = boundary_permutation(shape)
            for tau in interval_perms(gamma):
                for circles in joint_orbit_circle_sets(tau, gamma, shape):
                    assert len(circles) <= 2, (sizes, tau)
        assert len(nc_b_multi([1, 1, 1]).elements) == 20
        assert len(nc_b_multi([1, 1, 2]).elements) == 68
        assert multi3_total(1, 1, 1) == 20
        assert multi3_total(1, 1, 2) == 68
        for n in (2, 3):
            perms = all_perms(n)
            for a in perms:
                for b in perms:
                    d = genus_defect(a, b)
                    assert d >= 0 and d % 2 == 0


def test_criterion_11_identity_suite():
    "Binomial identities and the full verification sweep."
    start = time.monotonic()
    with verdict(11, "identity suite and full verification sweep"):
        for n in range(13):
            for r in range(n + 1):
                lhs = sum(binom(n, k) * binom(n, k + r) for k in range(n + 1))
                assert lhs == binom(2 * n, n - r), (n, r)
        for k in (1, 2, 3):
            for caps in itertools.product(range(11), repeat=k + 1):
                if sum(caps) > 10:
                    continue
                *heads, last = caps
                for b in range(last + 1):
                    lhs = 0
                    for a in itertools.product(*(range(A + 1) for A in heads)):
                        term = binom(last, sum(a) + b)
                        for A, x in zip(heads, a):
                            term *= binom(A, x)
                        lhs += term
                    assert lhs == binom(sum(caps), last - b), (caps, b)
        for p in range(1, 9):
            for q in range(1, 9):
                lhs = sum(
                    2 * c * binom(2 * p, p - c) * binom(2 * q, q - c)
                    for c in range(1, p + 1)
                )
                rhs = (
                    Fraction((p + 1) * (q + 1), p + q)
                    * binom(2 * p, p - 1)
                    * binom(2 * q, q - 1)
                )
                assert rhs.denominator == 1
                assert lhs == rhs == annulus_positive_total(p, q), (p, q)
        for p in range(1, 7):
            for q in range(1, 7):
                assert rank_gen_cells(p, q) == rank_gen_compact(p, q), (p, q)
        suite = verify_suite()
        assert [c for c in suite if not c.ok] == []
        assert time.monotonic() - start < 300
        # The README states the default suite's size; it must not drift.
        stated = re.search(r"`ncb verify --all` runs (\d+) formula", README.read_text())
        assert int(stated[1]) == len(suite)
