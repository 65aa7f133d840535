import argparse
import hashlib
import importlib.util
import io
import itertools
import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from ncb import (
    BPartition,
    IntPolynomial,
    SignedPermutation,
    genus_defect,
    nc_b_annulus,
    nc_b_multi,
)
from ncb.checks import FAMILIES, Check, _annulus_pairs, _genus_rows
from ncb import bijection, checks, cli, enumeration, formulas
from ncb.cli import main, verify_suite
from ncb.enumeration import MAX_CIRCLES
from ncb.formulas import binom

from oracles import (
    chu_vandermonde_by_sums,
    compositions,
    hypersum_by_convolution,
    hypersum_check,
    roundtrip_multichain_by_pair_stats,
)

TESTS = Path(__file__).parent


def run(capsys, *argv):
    "Invoke the command line and capture its output."
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_count(capsys):
    "Totals for an annulus and for a single circle."
    code, out, _ = run(capsys, "count", "--shape", "2,1")
    assert code == 0 and out == "20\n"
    code, out, _ = run(capsys, "count", "--shape", "3")
    assert code == 0 and out == "20\n"
    code, out, _ = run(capsys, "count", "--shape", "1,1,1")
    assert code == 0 and out == "20\n"
    code, out, _ = run(capsys, "count", "--shape", "1,1,1,1,1,1,1")
    assert code == 0 and out == "6512\n"  # a closed form: nothing enumerated


def test_count_filters(capsys):
    "Rank, connectivity, and cell filters."
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--rank", "1")
    assert code == 0 and out == "9\n"
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--connectivity", "1")
    assert code == 0 and out == "8\n"
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--cell", "1,1,0")
    assert code == 0 and out == "4\n"
    # One circle counts a rank by its closed form; a rank past n counts 0.
    code, out, _ = run(capsys, "count", "--shape", "5", "--rank", "2")
    assert code == 0 and out == "100\n"
    code, out, _ = run(capsys, "count", "--shape", "5", "--rank", "6")
    assert code == 0 and out == "0\n"
    # A cell with no connecting pair counts C(p, e)^2 C(q, i)^2 partitions;
    # out-of-range connectivities count none.
    code, out, _ = run(capsys, "count", "--shape", "3,2", "--cell", "0,1,1")
    assert code == 0 and out == "36\n"
    code, out, _ = run(capsys, "count", "--shape", "3,2", "--connectivity", "-1")
    assert code == 0 and out == "0\n"


def test_count_filters_exclusive(capsys):
    "Only one filter may be given."
    code, _, err = run(
        capsys, "count", "--shape", "2,1", "--rank", "1", "--connectivity", "1"
    )
    assert code == 2
    assert err


def test_enumerate(capsys):
    "Listing, filtering, and machine-readable output."
    code, out, _ = run(capsys, "enumerate", "--shape", "1,1")
    assert code == 0
    assert len(out.splitlines()) == 6
    code, out, _ = run(capsys, "enumerate", "--shape", "1,1", "--rank", "1")
    assert code == 0
    assert len(out.splitlines()) == 4
    code, out, _ = run(capsys, "enumerate", "--shape", "1,1", "--json")
    lines = out.splitlines()
    assert len(lines) == 6
    for line in lines:
        pi = BPartition.from_json(line)
        assert pi.to_json() == line


def test_rank_poly(capsys):
    "Rank generating polynomial in readable form."
    code, out, _ = run(capsys, "rank-poly", "--shape", "2,1")
    assert code == 0 and out == "1 + 9*x + 9*x^2 + x^3\n"
    code, out, _ = run(capsys, "rank-poly", "--shape", "2,1,1")
    assert code == 0 and out == "1 + 16*x + 34*x^2 + 16*x^3 + x^4\n"


# SHA-256 of the stdout, trailing newline included, that the term-by-term
# polynomial product printed.
@pytest.mark.parametrize(
    "shape, digest",
    [
        ("80,71", "27de6bdb390b6e9d4d781b9c5dd25204c5bc1372d347ffe5660bb7cf9d1000d0"),
        (
            ",".join(map(str, range(10, 22))),
            "6d83c1c76ddccd09ae6b06c8dba7e8d40b9157166f627cbdc8ea7829a314144b",
        ),
    ],
    ids=["80,71", "10..21"],
)
def test_rank_poly_output_is_pinned(capsys, shape, digest):
    "Two and twelve circles print byte for byte what they always printed."
    code, out, _ = run(capsys, "rank-poly", "--shape", shape)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_zeta(capsys):
    "Multichain counts for annulus and disc shapes."
    code, out, _ = run(capsys, "zeta", "--shape", "2,1", "-m", "3")
    assert code == 0 and out == "85\n"
    code, out, _ = run(capsys, "zeta", "--shape", "3", "-m", "3")
    assert code == 0 and out == "84\n"


def test_mobius(capsys):
    "Mobius values for annulus and disc shapes."
    code, out, _ = run(capsys, "mobius", "--shape", "2,1")
    assert code == 0 and out == "-11\n"
    code, out, _ = run(capsys, "mobius", "--shape", "3")
    assert code == 0 and out == "-10\n"


def test_mobius_large_disc_is_fast(capsys):
    "The disc Moebius value needs no rank counts: one binomial, quickly."
    start = time.perf_counter()
    code, out, _ = run(capsys, "mobius", "--shape", "20000")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    code, zeta_out, _ = run(capsys, "zeta", "--shape", "20000", "-m", "-1")
    assert code == 0 and out == zeta_out


def test_mobius_large_annulus_matches_zeta(capsys):
    "Two different product forms agree at a shape where connectivity sums take seconds."
    code, out, _ = run(capsys, "mobius", "--shape", "20000,15000")
    assert code == 0
    code, zeta_out, _ = run(capsys, "zeta", "--shape", "20000,15000", "-m", "-1")
    assert code == 0 and out == zeta_out


def test_max_chains(capsys):
    "Maximal chain count on the annulus and the disc."
    code, out, _ = run(capsys, "max-chains", "--shape", "2,1")
    assert code == 0 and out == "28\n"
    code, out, _ = run(capsys, "max-chains", "--shape", "3")
    assert code == 0 and out == "27\n"


@pytest.mark.parametrize("shape", ["1,2,1", "2,1,1,1"])
def test_many_circle_verbs_match_enumeration(capsys, shape):
    "Every closed-form verb answers on three or more circles, as enumeration does."
    poset = nc_b_multi(int(s) for s in shape.split(","))
    ranks = poset.rank_vector()
    answers = {
        ("count",): len(poset),
        ("rank-poly",): IntPolynomial(ranks),
        ("mobius",): poset.mobius(poset.bottom(), poset.top()),
        ("max-chains",): poset.maximal_chains(),
    }
    n = len(ranks) - 1
    for r in range(-1, n + 2):
        answers["count", "--rank", str(r)] = ranks[r] if 0 <= r <= n else 0
    answers.update({("zeta", "-m", str(m)): poset.zeta(m) for m in range(-1, n + 3)})
    for (verb, *extra), value in answers.items():
        code, out, _ = run(capsys, verb, "--shape", shape, *extra)
        assert code == 0 and out == f"{value}\n", (verb, extra)


def test_hasse_dot(capsys):
    "DOT output carries one arrow per cover."
    code, out, _ = run(capsys, "hasse-dot", "--shape", "2,1")
    assert code == 0
    assert out.count("->") == 46


def test_encode_decode_stdin(capsys, monkeypatch):
    "A tuple pipes to a partition and back to the same text."
    text = "c=1 d=2 LE=2,4,5 RE1=1,2 LI=7 RI1=6,7\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, _ = run(capsys, "encode", "--shape", "5,3")
    assert code == 0
    pi = BPartition.from_json(out)
    assert pi.rank() == 4
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, out, _ = run(capsys, "decode", "--shape", "5,3")
    assert code == 0
    assert out.strip() == text.strip()


def test_encode_decode_files(tmp_path, capsys):
    "File input and output round-trip a deeper tuple."
    src = tmp_path / "tuple.txt"
    enc = tmp_path / "chain.json"
    src.write_text("c=2 d=1 LE=1,2,3,5,6 RE1=1,3 RE2=3 LI=8,9 RI1=7,8,9 RI2=7\n")
    code, out, _ = run(
        capsys, "encode", "--shape", "6,3", "--in", str(src), "--out", str(enc)
    )
    assert code == 0 and out == ""
    chain = json.loads(enc.read_text())
    assert isinstance(chain, list) and len(chain) == 2
    code, out, _ = run(capsys, "decode", "--shape", "6,3", "--in", str(enc))
    assert code == 0
    assert out == src.read_text()


def test_decode_json_is_stable(capsys, monkeypatch):
    "Encoding the decoded tuple reproduces the partition byte for byte."
    monkeypatch.setattr("sys.stdin", io.StringIO("c=1 d=1 LE=1 RE1= LI= RI1=2\n"))
    code, first, _ = run(capsys, "encode", "--shape", "1,1")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(first))
    code, text, _ = run(capsys, "decode", "--shape", "1,1")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, second, _ = run(capsys, "encode", "--shape", "1,1")
    assert code == 0
    assert second == first


def test_verify_single_check(capsys):
    "A single named check passes quickly."
    code, out, _ = run(capsys, "verify", "--only", "chu-vandermonde")
    assert code == 0
    assert "PASS" in out
    assert "FAIL" not in out
    assert "0 failed" in out


def test_verify_small_sweep(capsys):
    "A reduced sweep runs every check family and prints the recorded lines."
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "0 failed" in out
    assert out == (TESTS / "verify_max_n_3.txt").read_text()


@pytest.mark.parametrize("max_n", ["0", "-1"])
def test_verify_without_sweeps_runs_fixed_size_checks(capsys, max_n):
    "With no sweep sizes left only the six fixed-size checks run, and pass."
    code, out, _ = run(capsys, "verify", "--max-n", max_n)
    assert code == 0
    names = [line.split()[1] for line in out.splitlines()[:-1]]
    assert names == [
        "rank-gen-compact",
        "genus-defect",
        "genus-defect",
        "chu-vandermonde",
        "hypersum",
        "dixon",
    ]
    assert out.endswith("6 checks, 0 failed\n")


def test_verify_families_match_bench():
    "The registry holds the bench's family names in order, each yielding checks."
    path = TESTS.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert list(FAMILIES) == workloads.VERIFY_FAMILIES
    for name in FAMILIES:
        checks = verify_suite(max_n=3, only=name)
        assert checks and all(c.name == name for c in checks), name


def test_pair_count_families_tally_each_shape_once(monkeypatch):
    """connectivity-count and cell-count, run one name at a time as the
    bench runs them, share one tally: pair_stats runs once per element of
    each shape, not once per family.  The round-trip families read the
    connected partitions off that tally and add no call."""
    calls = Counter()
    real = checks.pair_stats

    def counted(pi, shape):
        calls[shape.sizes] += 1
        return real(pi, shape)

    monkeypatch.setattr(checks, "pair_stats", counted)
    checks._pair_tallies.cache_clear()
    lines = [
        check
        for name in ("connectivity-count", "cell-count", "connectivity-count")
        for check in verify_suite(max_n=4, only=name)
    ]
    assert len(lines) == 3 * len(_annulus_pairs(4)) and all(c.ok for c in lines)
    assert calls == {(p, q): len(nc_b_annulus(p, q)) for p, q in _annulus_pairs(4)}
    tallied = dict(calls)
    for name in ("roundtrip-annulus", "roundtrip-multichain"):
        lines = verify_suite(max_n=4, only=name)
        assert lines and all(c.ok for c in lines), name
    assert calls == tallied


def test_multi_total_counts_the_walk_without_a_poset(monkeypatch):
    """multi-total counts the interval walk below the boundary permutation:
    no many-circle poset is built, and every check still holds."""
    monkeypatch.setattr(checks, "nc_b_multi", lambda sizes: pytest.fail(f"poset {sizes}"))
    lines = verify_suite(max_n=6, only="multi-total")
    assert lines and all(c.ok for c in lines)


def slow_hypersum():
    "The hypersum check by brute force: one product of binomials per a-tuple."
    bad = 0
    count = 0
    for k in (1, 2, 3):
        for caps in itertools.product(range(11), repeat=k + 1):
            if sum(caps) > 10:
                continue
            *heads, last = caps
            for b in range(last + 1):
                lhs = sum(
                    binom(last, sum(a) + b)
                    * math.prod(binom(A, x) for A, x in zip(heads, a))
                    for a in itertools.product(*(range(A + 1) for A in heads))
                )
                count += 1
                bad += lhs != binom(sum(caps), last - b)
    return Check("hypersum", f"sum<=10 ({count} cases)", 0, bad)


def test_hypersum_matches_brute_force():
    "The convolved hypersum family yields the brute-force record."
    expected = slow_hypersum()
    assert expected.params == "sum<=10 (4290 cases)"
    assert verify_suite(max_n=3, only="hypersum") == [expected]


def test_hypersum_matches_product_and_filter():
    "The family's record equals the product-and-filter loop it replaced."
    assert verify_suite(max_n=3, only="hypersum") == [hypersum_check()]


def off_by(entry, delta, exact):
    "A binomial function with one entry (n, x) moved by delta."
    return lambda n, x: exact(n, x) + delta * ((n, x) == entry)


def test_identity_families_match_their_term_by_term_sums():
    "With the true table the packed products yield the summed records."
    assert verify_suite(max_n=3, only="hypersum") == [hypersum_by_convolution()]
    assert verify_suite(max_n=3, only="chu-vandermonde") == [chu_vandermonde_by_sums()]


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("entry", [(0, 0), (1, 0), (3, 1), (6, 2), (9, 7), (10, 10)])
def test_hypersum_counts_failures_as_the_convolution(monkeypatch, entry, delta):
    """One table entry off (an asymmetric row, so a dropped reversal shows):
    the packed family counts the failing cases the convolution counts."""
    wrong = off_by(entry, delta, math.comb)
    monkeypatch.setattr(checks, "comb", wrong)
    (check,) = verify_suite(max_n=3, only="hypersum")
    expected = hypersum_by_convolution(wrong)
    assert check == expected and check.actual > 0


@pytest.mark.parametrize("delta", [1, -1])
@pytest.mark.parametrize("entry", [(1, 1), (2, 0), (5, 1), (12, 3), (20, 4), (24, 12)])
def test_chu_vandermonde_counts_failures_as_the_sums(monkeypatch, entry, delta):
    "One entry off: the row products count the (n, r) the sums count."
    wrong = off_by(entry, delta, binom)
    monkeypatch.setattr(checks, "binom", wrong)
    (check,) = verify_suite(max_n=3, only="chu-vandermonde")
    expected = chu_vandermonde_by_sums(wrong)
    assert check == expected and check.actual > 0


@pytest.mark.parametrize("length", range(5))
@pytest.mark.parametrize("budget", [0, 1, 4, 10])
def test_compositions_are_the_filtered_products(length, budget):
    "The generator yields the product tuples with sum <= budget, in order."
    products = itertools.product(range(budget + 1), repeat=length)
    expected = [caps for caps in products if sum(caps) <= budget]
    assert list(compositions(length, budget)) == expected


def test_genus_defect_family_matches_direct_sum():
    "The family's bad counts equal a genus_defect sweep over all pairs."
    expected = []
    for n in (2, 3):
        perms = [
            SignedPermutation(x * s for x, s in zip(perm, signs))
            for perm in itertools.permutations(range(1, n + 1))
            for signs in itertools.product((1, -1), repeat=n)
        ]
        defects = [genus_defect(a, b) for a in perms for b in perms]
        assert len(defects) == len(perms) ** 2 and max(defects) > 0
        bad = sum(d < 0 or d % 2 == 1 for d in defects)
        expected.append(Check("genus-defect", f"n={n}", 0, bad))
    assert verify_suite(max_n=3, only="genus-defect") == expected


def genus_slacks(n):
    "(a, b, slack) for every pair of B_n, a-major, from the family's rows."
    images, rows = _genus_rows(n)
    perms = list(map(SignedPermutation, images))
    return [(a, b, d) for a, row in zip(perms, rows) for b, d in zip(perms, row)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_genus_slacks_equal_genus_defect(n):
    """The family's per-pair slacks are genus_defect itself on every pair
    of B_n, not only in their count of odd or negative values."""
    slacks = genus_slacks(n)
    size = 2**n * math.factorial(n)
    assert len(slacks) == len({(a, b) for a, b, _ in slacks}) == size**2
    assert all(d == genus_defect(a, b) for a, b, d in slacks)
    values = {d for _, _, d in slacks}
    # Every slack of B_1 = {e, -1} is 0.
    assert (values == {0}) if n == 1 else (len(values) > 1)


def test_genus_slacks_equal_genus_defect_on_sampled_rows_of_b4():
    """At n = 4 (164 orbit partitions) the slacks of a seeded sample of 24
    a against every b are genus_defect itself, and every row is there."""
    slacks = genus_slacks(4)
    size = 2**4 * math.factorial(4)
    assert len(slacks) == size**2
    for i in sorted(Random(4).sample(range(size), 24)):
        row = slacks[i * size : (i + 1) * size]
        assert len({a for a, _, _ in row}) == 1
        assert all(d == genus_defect(a, b) for a, b, d in row)


# The two-circle sweeps that build posets.
ENUMERATING_PAIR_SWEEPS = [
    "rank-vector-q1",
    "annulus-total",
    "connectivity-count",
    "cell-count",
    "rank-gen",
    "mobius-annulus",
    "mobius-via-zeta",
    "zeta",
    "max-chains",
    "roundtrip-annulus",
    "roundtrip-multichain",
]


def test_two_circle_sweeps_stop_at_the_desk_bound(monkeypatch):
    """With the element bound at 20, the sweeps that enumerate keep (1, 1)
    and (2, 1), 6 and 20 elements, and skip (2, 2) and (3, 1) instead of
    stopping the suite; formula-only sweeps keep every pair."""
    monkeypatch.setattr(enumeration, "DESK_BOUND", 20)
    for name in ENUMERATING_PAIR_SWEEPS:
        lines = verify_suite(max_n=4, only=name)
        assert all(c.ok for c in lines)
        if name == "mobius-via-zeta":  # only its interpolated lines build posets
            lines = [c for c in lines if "interpolated" in c.params]
        assert {" ".join(c.params.split()[:2]) for c in lines} == {
            "p=1 q=1",
            "p=2 q=1",
        }
    assert len(verify_suite(max_n=4, only="zeta-leading")) == len(_annulus_pairs(4))


def test_desk_sweeps_stop_at_the_first_refused_total():
    """Every shape of total 9 or more has over 15,000 elements, so a sweep's
    shapes at any larger max_n are those at 8: 16 pairs and 38 shapes of
    three or more circles, with no walk over the totals beyond."""
    pairs, many = checks._desk_pairs(8), checks._many_circle_shapes(8)
    assert (len(pairs), len(many)) == (16, 38)
    start = time.perf_counter()
    assert checks._desk_pairs(10**9) == pairs
    assert checks._many_circle_shapes(10**9) == many
    assert time.perf_counter() - start < 1.0


# A crossing partition of n = 3, outside the (2, 1) poset.
CROSSING_3 = BPartition(3, [[1, 3], [-1, -3], [2, -2]])
ROUNDTRIP_PARAMS = ["p=1 q=1 m=3", "p=1 q=1 m=4", "p=2 q=1 m=3", "p=2 q=1 m=4"]

# Bad codecs: a map of encode_multichain's chain, and the checks it fails.
BAD_CODECS = {
    "reversed": (lambda chain: chain[::-1], ROUNDTRIP_PARAMS),
    "member-outside": (
        lambda chain: (CROSSING_3, *chain[1:]) if chain[0].n == 3 else chain,
        ROUNDTRIP_PARAMS[2:],
    ),
    "all-bottom": (
        lambda chain: (BPartition.singletons(chain[0].n),) * len(chain),
        ROUNDTRIP_PARAMS,
    ),
}


@pytest.mark.parametrize(
    "family",
    [FAMILIES["roundtrip-multichain"], roundtrip_multichain_by_pair_stats],
    ids=["tables", "pair-stats"],
)
@pytest.mark.parametrize("codec", BAD_CODECS)
def test_roundtrip_multichain_fails_bad_codecs(monkeypatch, family, codec):
    """A bad codec fails the checks of the chains it bends, both in the
    family and in its pair-statistics oracle."""
    bend, failing = BAD_CODECS[codec]
    assert CROSSING_3 not in nc_b_multi((2, 1))
    checks = verify_suite(max_n=3, only="roundtrip-multichain")
    assert list(family(3)) == checks and all(c.ok for c in checks)
    assert [c.params for c in checks] == ROUNDTRIP_PARAMS
    encode = bijection.encode_multichain
    monkeypatch.setattr(
        bijection, "encode_multichain", lambda t, p, q: bend(encode(t, p, q))
    )
    assert [c.params for c in family(3) if not c.ok] == failing


def test_verify_unknown_check(capsys):
    "Asking for a missing check family is an error."
    code, _, err = run(capsys, "verify", "--only", "no-such-check")
    assert code == 2
    assert "no-such-check" in err
    assert "chu-vandermonde" in err


def test_usage_errors(capsys):
    "Bad shapes and unknown verbs exit with status two."
    code, _, err = run(capsys, "count", "--shape", "0,1")
    assert code == 2 and err
    code, _, err = run(capsys, "count", "--shape", "nope")
    assert code == 2 and err
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    code, out, _ = run(capsys, "count", "--shape", "9,1")
    assert code == 0 and out == "184756\n"
    code, _, err = run(capsys, "enumerate", "--shape", "9,1")
    assert code == 2 and err


def test_many_circle_errors(capsys):
    "Pair filters need two circles; past the circle cap every verb stops at once."
    code, out, err = run(capsys, "count", "--shape", "2,1,1", "--cell", "1,1,0")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err
    past_cap = ",".join(str(s) for s in range(1, MAX_CIRCLES + 2))
    for argv in (["count"], ["rank-poly"], ["zeta", "-m", "3"], ["mobius"], ["max-chains"]):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv, "--shape", past_cap)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert f"error: argument --shape: at most {MAX_CIRCLES} circles" in err
        assert "Traceback" not in err


@pytest.mark.parametrize("n", [2**28 + 1, 2**31 + 1, 10**20, 10**30])
@pytest.mark.parametrize(
    "argv, row", [(["count"], 2), (["zeta", "-m", "3"], 3), (["mobius"], 2)]
)
def test_an_oversize_circle_exits_2_naming_the_binomial(capsys, n, argv, row):
    """A circle whose binomial's primes run past 2^29, a sieve past 256 MiB,
    is refused before its sieve is allocated: exit 2, no stdout, and an
    error naming the binomial's upper argument, C(2n, n) for count, C(3n, n)
    for zeta at m = 3 and C(2n-1, n) for mobius.  At n = 2^28 + 1 the least
    of these, 2n - 1, just passes 2^29; at n = 2^31 + 1 it passes 2^32, more
    than the prime table's entries hold.  The prime table is unchanged."""
    table = formulas._prime_table
    code, out, err = run(capsys, *argv, "--shape", str(n))
    assert code == 2 and out == ""
    upper = row * n - (argv == ["mobius"])
    assert err.startswith(f"error: C({upper}, k) is too large: its prime sieve needs ")
    assert err.endswith(" bytes\n") and "Traceback" not in err
    assert formulas._prime_table is table


@pytest.mark.parametrize("shape", ["3", "2,1,1"])
@pytest.mark.parametrize("verb", ["encode", "decode"])
def test_codec_verbs_need_two_circles(capsys, monkeypatch, verb, shape):
    "Encode and decode on one or three circles exit 2 before reading a line."
    monkeypatch.setattr("sys.stdin", io.StringIO("not a line\n"))
    code, out, err = run(capsys, verb, "--shape", shape)
    assert (code, out, err) == (2, "", f"error: {verb} needs a two-circle shape\n")


@pytest.mark.parametrize("shape", ["3", "2,1,1"])
def test_enumerate_by_connectivity_needs_two_circles(capsys, shape):
    "enumerate --connectivity on one or three circles exits 2 with its message."
    code, out, err = run(capsys, "enumerate", "--shape", shape, "--connectivity", "1")
    assert (code, out, err) == (2, "", "error: --connectivity needs a two-circle shape\n")


def test_out_file(tmp_path, capsys):
    "Any verb can write to a file instead of standard output."
    target = tmp_path / "count.txt"
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "20\n"


@pytest.mark.parametrize(
    "argv,stdin",
    [
        (["enumerate", "--shape", "1,1", "--rank", "7"], ""),
        (["enumerate", "--shape", "1,1", "--rank", "7", "--json"], ""),
        (["encode", "--shape", "2,1"], ""),
        (["encode", "--shape", "2,1"], "\n  \n"),
        (["decode", "--shape", "2,1"], ""),
    ],
)
def test_empty_result_prints_nothing(tmp_path, capsys, monkeypatch, argv, stdin):
    "No result is no output: not a blank line a JSON-lines reader would choke on."
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, *argv) == (0, "", "")
    target = tmp_path / "out.txt"
    monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    assert target.read_text() == ""


BOT_1_1 = '{"n":2,"blocks":[[1],[-1],[2],[-2]]}'


@pytest.mark.parametrize(
    "shape,line,reason",
    [
        ("1,1", '{"n":2}', "is not a partition or a list of them"),
        ("1,1", "[1,2]", "is not a partition or a list of them"),
        ("2,2", '{"n":4,"blocks":[[1,-1,4,-4],[2,3],[-2,-3]]}', "does not decode"),
        ("1,1", f"[{BOT_1_1},{BOT_1_1}]", "does not decode"),
        (
            "1,1",
            '{"n":2,"blocks":[[0.5],[-0.5],[1],[-1]]}',
            "is not a partition or a list of them",
        ),
        (
            "1,1",
            '{"n":2.0,"blocks":[[1],[-1],[2],[-2]]}',
            "is not a partition or a list of them",
        ),
        ("1,1", '{"n":-1,"blocks":[]}', "is not a partition or a list of them"),
        ("1,1", "[" * 100_000 + "]" * 100_000, "is not a partition or a list of them"),
        ("1,1", "[]", "does not decode"),
    ],
    ids=[
        "missing-blocks",
        "list-of-numbers",
        "outside-the-image",
        "chain-outside-the-image",
        "float-elements",
        "float-n",
        "negative-n",
        "nested-past-the-recursion-limit",
        "empty-chain",
    ],
)
def test_decode_rejects_malformed_json(capsys, monkeypatch, shape, line, reason):
    "A line that does not decode to a tuple is a usage error naming the line."
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, "decode", "--shape", shape)
    assert code == 2 and out == ""
    assert err.startswith(f"error: line 1 {reason}: ") and line in err


def test_decode_chain_is_fast(capsys, monkeypatch):
    "A chain of two partitions decodes without searching tuple candidates."
    text = "c=2 d=3 LE=1,2,3,5,6 RE1=1,3 RE2=4 LI=8,10 RI1=7,8,9 RI2=10\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, chain, _ = run(capsys, "encode", "--shape", "6,4")
    assert code == 0 and len(json.loads(chain)) == 2
    monkeypatch.setattr("sys.stdin", io.StringIO(chain))
    start = time.perf_counter()
    code, out, _ = run(capsys, "decode", "--shape", "6,4")
    assert time.perf_counter() - start < 1.0
    assert code == 0 and out == text


def test_decode_missing_file(tmp_path, capsys):
    "An unreadable input file is a usage error naming the file."
    missing = tmp_path / "nonexistent"
    code, out, err = run(capsys, "decode", "--shape", "1,1", "--in", str(missing))
    assert code == 2 and out == ""
    assert err.startswith("error:") and str(missing) in err


def test_encode_error_names_the_line(capsys, monkeypatch):
    "Bad tuple text is a usage error naming the line and its text."
    text = "c=1 d=1 LE=1 RE1= LI= RI1=2\n\nc=x d=1\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "encode", "--shape", "1,1")
    assert code == 2 and out == ""
    assert err.startswith("error: line 3 is not a tuple: c=x d=1 (ValueError: ")
    for line, message in [
        ("c=0 d=1 LE= RE1= LI= RI1=", "c must be at least 1"),
        ("c=1 d=1 LE=1 LI=", "need the same positive number of right-sets per circle"),
    ]:
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code, out, err = run(capsys, "encode", "--shape", "1,1")
        assert code == 2 and out == ""
        assert err == f"error: line 1 is not a tuple: {line} (ValueError: {message})\n"


def test_encode_names_the_line_that_does_not_encode(capsys, monkeypatch):
    "A tuple whose labels lie outside the shape exits 2 naming its line."
    text = "c=1 d=1 LE=1 RE1= LI= RI1=3\nc=1 d=1 LE=9 RE1= LI= RI1=3\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "encode", "--shape", "2,1")
    assert code == 2 and out == ""
    assert err == (
        "error: line 2 does not encode: c=1 d=1 LE=9 RE1= LI= RI1=3 "
        "(outer subsets must lie in 1..2)\n"
    )


def test_encode_rejects_a_repeated_label(capsys, monkeypatch):
    "A label written twice exits 2 naming the line, the field and the label."
    text = "c=1 d=1 LE=1 RE1= LI= RI1=2\nc=1 d=1 LE=1,1 RE1= LI= RI1=2\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    code, out, err = run(capsys, "encode", "--shape", "1,1")
    assert code == 2 and out == ""
    assert err == (
        "error: line 2 is not a tuple: c=1 d=1 LE=1,1 RE1= LI= RI1=2 "
        "(ValueError: field LE repeats label 1)\n"
    )


def test_count_rank_at_any_size(capsys):
    "Single rank counts of a large shape come back fast and are symmetric."
    values = []
    for rank in ("2400", "2600"):
        start = time.perf_counter()
        code, out, _ = run(capsys, "count", "--shape", "3000,2000", "--rank", rank)
        assert code == 0
        assert time.perf_counter() - start < 2.0
        values.append(out)
    # Kreweras complementation maps rank k to rank p + q - k
    assert values[0] == values[1] and values[0].strip().isdigit()
    _, total, _ = run(capsys, "count", "--shape", "60,40")
    ranks = sum(
        int(run(capsys, "count", "--shape", "60,40", "--rank", str(k))[1])
        for k in range(101)
    )
    assert ranks == int(total)


def test_count_prints_huge_values(capsys):
    "Closed forms print in full past the default 4300-digit conversion limit."
    start = time.perf_counter()
    code, out, _ = run(capsys, "count", "--shape", "5000,4000")
    assert code == 0
    assert time.perf_counter() - start < 1.0
    value = out.strip()
    assert len(value) > 4300 and value.isdigit()


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
@settings(max_examples=10, deadline=None)
@example(bits=4_000, seed=0, negative=False)  # the last bits str prints
@example(bits=4_001, seed=1, negative=True)  # the first split on a power of ten
@example(bits=1_025, seed=2, negative=False)  # past a Decimal leaf, which str prints
@example(bits=100_000, seed=5, negative=False)  # the last split on a power of ten
@example(bits=100_001, seed=6, negative=True)  # the first on the Decimal route
@example(bits=10**6, seed=3, negative=True)
@example(bits=0, seed=4, negative=False)
@given(st.integers(0, 10**6), st.integers(0, 2**32), st.booleans())
def test_decimal_digits_match_str(bits, seed, negative):
    "Answers print as str prints them, on both sides of the crossover."
    value = Random(seed).getrandbits(bits) | (1 << bits >> 1)  # exactly `bits` bits
    value = -value if negative else value
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert cli._decimal(value) == str(value)
    finally:
        sys.set_int_max_str_digits(before)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("bits", [0, 1, 3_999, 4_000, 4_001, 99_999, 100_000, 100_001])
def test_decimal_matches_str_at_each_threshold(bits, sign):
    "Both sides of the split and Decimal thresholds print as str, powers of ten too."
    values = [Random(bits).getrandbits(bits) | (1 << bits >> 1)]  # exactly `bits` bits
    digits = bits * 3 // 10  # 10^digits and its neighbours have about `bits` bits
    values += [10**digits, 10**digits - 1, 10**digits + 1]
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for value in values:
            assert cli._decimal(sign * value) == str(sign * value)
    finally:
        sys.set_int_max_str_digits(before)


def test_import_builds_no_prime_table():
    "Importing the CLI sieves no primes: the table holds only 2 until a factored binomial."
    code = (
        "import ncb.cli\n"
        "from ncb import formulas\n"
        "limit, primes = formulas._prime_table\n"
        "assert limit == 2 and primes.tolist() == [2]\n"
        "formulas.binom(2000, 1000)\n"
        "print(formulas._prime_table[0])\n"
    )
    path = [str(TESTS.parent / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2048\n"


def test_large_binomials_skip_math_comb(capsys, monkeypatch):
    "Past the crossover no binomial comes from math.comb; the output stays."
    C = math.comb
    queries = {
        ("count", "--shape", "3000,2500"): (5500 + 3000 * 2500)
        * C(6000, 3000)
        * C(5000, 2500)
        // 5500,
        ("mobius", "--shape", "1100,900"): C(2199, 1100)
        * C(1799, 900)
        * (2000 + 4 * 1100 * 900)
        // 2000,
    }
    before = {argv: run(capsys, *argv) for argv in queries}
    assert {argv: out for argv, (_, out, _) in before.items()} == {
        argv: f"{value}\n" for argv, value in queries.items()
    }

    def small_comb(a, b):
        if formulas._by_primes(a, min(b, a - b)):
            raise AssertionError(f"math.comb({a}, {b}) is past the crossover")
        return C(a, b)

    monkeypatch.setattr(formulas, "comb", small_comb)
    assert {argv: run(capsys, *argv) for argv in queries} == before


def test_encode_rejects_a_huge_level_at_once(capsys, monkeypatch):
    "A right-set key far past the line's levels exits 2 without building levels."
    monkeypatch.setattr("sys.stdin", io.StringIO("c=1 d=1 LE=1 LI= RE100000000=\n"))
    start = time.perf_counter()
    code, out, err = run(capsys, "encode", "--shape", "1,1")
    assert time.perf_counter() - start < 0.5
    assert code == 2 and out == ""
    assert err.startswith("error: line 1 is not a tuple: ") and "'RE1'" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
)
@pytest.mark.parametrize(
    "argv, expected",
    [
        (["count", "--shape", "5000,4000"], 0),  # answer past 4300 digits
        (["count", "--shape", "x"], 2),  # usage error inside argparse
        (["verify", "--only", "no-such-check"], 2),  # ValueError from the verb
    ],
)
def test_main_restores_int_digit_limit(capsys, argv, expected):
    "main lifts the int-to-str digit limit for its own call only."
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4321)
    try:
        code, _, _ = run(capsys, *argv)
        assert code == expected
        assert sys.get_int_max_str_digits() == 4321
    finally:
        sys.set_int_max_str_digits(before)


def test_parser_is_built_once(capsys, monkeypatch):
    "Many main calls in one process build the argument parser once."
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    cli._build_parser.cache_clear()
    try:
        for argv in (["count", "--shape", "2,1"], ["zeta", "--shape", "3,2", "-m", "2"],
                     ["count", "--shape", "0"], ["nope"]) * 25:
            run(capsys, *argv)
    finally:
        cli._build_parser.cache_clear()
    assert builds == ["ncb"]


TUPLE_LINE = "c=1 d=2 LE=2,4,5 RE1=1,2 LI=7 RI1=6,7\n"
PARTITION_LINE = (
    '{"n":8,"blocks":[[1,-5],[-1,5],[2],[-2],[3,-4,-6,8],[-3,4,6,-8],[7],[-7]]}\n'
)

# (argv, stdin): every verb, filters set and then left out, defaults taken
# after being given, errors of each kind, and help text
MIXED_QUERIES = [
    (["count", "--shape", "3,2", "--rank", "2"], ""),
    (["count", "--shape", "3,2"], ""),
    (["count", "--shape", "2,1", "--connectivity", "1"], ""),
    (["count", "--shape", "2,1", "--cell", "1,1,0"], ""),
    (["count", "--shape", "2,1"], ""),
    (["count", "--shape", "2,1,1", "--rank", "2"], ""),
    (["enumerate", "--shape", "1,1", "--json"], ""),
    (["enumerate", "--shape", "2,1", "--rank", "1"], ""),
    (["enumerate", "--shape", "1,1"], ""),
    (["rank-poly", "--shape", "3,2"], ""),
    (["zeta", "--shape", "3,2", "-m", "3"], ""),
    (["zeta", "--shape", "3,2", "-m", "-1"], ""),
    (["zeta", "--shape", "3,2"], ""),
    (["mobius", "--shape", "3,2"], ""),
    (["max-chains", "--shape", "3,2"], ""),
    (["encode", "--shape", "5,3"], TUPLE_LINE),
    (["decode", "--shape", "5,3"], PARTITION_LINE),
    (["encode", "--shape", "5,3"], "c=1 d=9\n"),
    (["decode", "--shape", "5,3"], "[1]\n"),
    (["verify", "--only", "rank-gen", "--max-n", "2"], ""),
    (["verify", "--only", "no-such-check"], ""),
    (["hasse-dot", "--shape", "2,1"], ""),
    (["count", "--shape", "0,1"], ""),
    (["count", "--shape", "x"], ""),
    (["count", "--shape", ",".join(["1"] * (MAX_CIRCLES + 1))], ""),
    (["count", "--shape", "2,1", "--cell", "1,1"], ""),
    (["count"], ""),
    (["frobnicate", "--shape", "1"], ""),
    ([], ""),
    (["--help"], ""),
    (["zeta", "--help"], ""),
    (["count", "--shape", "2,1"], ""),
]


def test_reused_parser_keeps_no_state(capsys, monkeypatch):
    "A warm parser answers every query as a freshly built one does."

    def answer(argv, stdin):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        return run(capsys, *argv)

    cli._build_parser.cache_clear()
    warm = [answer(argv, stdin) for argv, stdin in MIXED_QUERIES]
    fresh = []
    for argv, stdin in MIXED_QUERIES:
        cli._build_parser.cache_clear()
        fresh.append(answer(argv, stdin))
    for (argv, _), got, want in zip(MIXED_QUERIES, warm, fresh):
        assert got == want, argv
    assert {code for code, _, _ in warm} == {0, 2}
