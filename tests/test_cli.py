import importlib.util
import io
import itertools
import json
import math
import time
from pathlib import Path

import pytest

from ncb import BPartition, IntPolynomial, SignedPermutation, genus_defect, nc_b_multi
from ncb.checks import FAMILIES, Check
from ncb.cli import main, verify_suite
from ncb.enumeration import MAX_CIRCLES
from ncb.formulas import binom

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
    assert code == 0 and out == "6512\n"  # past the desk bound: nothing enumerated


def test_count_filters(capsys):
    "Rank, connectivity, and cell filters."
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--rank", "1")
    assert code == 0 and out == "9\n"
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--connectivity", "1")
    assert code == 0 and out == "8\n"
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--cell", "1,1,0")
    assert code == 0 and out == "4\n"


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


def test_out_file(tmp_path, capsys):
    "Any verb can write to a file instead of standard output."
    target = tmp_path / "count.txt"
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "20\n"


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
        ("1,1", "[" * 100_000 + "]" * 100_000, "is not a partition or a list of them"),
    ],
    ids=[
        "missing-blocks",
        "list-of-numbers",
        "outside-the-image",
        "chain-outside-the-image",
        "float-elements",
        "float-n",
        "nested-past-the-recursion-limit",
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
