import io
import json
import time

import pytest

from ncb import BPartition
from ncb.cli import main


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


def test_max_chains(capsys):
    "Maximal chain count on the annulus."
    code, out, _ = run(capsys, "max-chains", "--shape", "2,1")
    assert code == 0 and out == "28\n"


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
    "A reduced sweep runs every check family."
    code, out, _ = run(capsys, "verify", "--max-n", "3")
    assert code == 0
    assert "0 failed" in out


def test_verify_unknown_check(capsys):
    "Asking for a missing check family is an error."
    code, _, err = run(capsys, "verify", "--only", "no-such-check")
    assert code == 2
    assert err


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


def test_out_file(tmp_path, capsys):
    "Any verb can write to a file instead of standard output."
    target = tmp_path / "count.txt"
    code, out, _ = run(capsys, "count", "--shape", "2,1", "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text() == "20\n"


@pytest.mark.parametrize(
    "line",
    ['{"n":2}', "[1,2]"],
    ids=["missing-blocks", "list-of-numbers"],
)
def test_decode_rejects_malformed_json(capsys, monkeypatch, line):
    "A line that is JSON but not a partition is a usage error naming the line."
    monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
    code, out, err = run(capsys, "decode", "--shape", "1,1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and line in err


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
