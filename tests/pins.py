"""The command line's pinned outputs at scale: one table and one loop.

Run ``python3 tests/pins.py`` from any directory. Each entry of ``PINS`` runs
in turn from the repository root, with ``PYTHONPATH=src``, under its
timeout. Its stdout must meet what the entry expects (see ``mismatches``).
The loop prints each entry's time and peak resident set, then names every
mismatch and exits 1; it exits 0 when all hold. A hash that does not match
is printed with the actual SHA-256, so a change that alters an output on
purpose re-pins it from that line.
"""

import difflib
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Pin(NamedTuple):
    name: str
    argv: tuple[str, ...]  # after the interpreter; "{tmp}" is the run's scratch directory
    timeout: float  # seconds, the interpreter's start included
    expect: dict


def ncb(name: str, args: str, timeout: float, **expect) -> Pin:
    return Pin(name, ("-m", "ncb.cli", *args.split()), timeout, expect)


def tuples(name: str, p: int, q: int, m: int, timeout: float, count: int | None = None,
           **expect) -> Pin:
    "The annulus tuples of shape (p, q) at m, the first `count` if given, one `to_text` line each."
    code = (
        "from itertools import islice; from ncb.bijection import annulus_tuples; "
        f"print('\\n'.join(t.to_text() for t in islice(annulus_tuples({p}, {q}, {m}), {count})))"
    )
    return Pin(name, ("-c", code), timeout, expect)


# Five fixed tuples at (300, 200), m = 2, a shape annulus_tuples cannot enumerate.
FIXED_300_200 = (
    "from ncb.bijection import AnnulusTuple; print('\\n'.join("
    "AnnulusTuple(c, d, le, [re], li, [ri]).to_text() for c, d, le, re, li, ri in ["
    "(1, 2, range(300, 301), (), (), range(500, 501)), "
    "(2, 3, range(257, 299), range(1, 300, 7)[:40], range(301, 501, 9)[:20], range(479, 501)), "
    "(7, 11, range(144, 301), range(1, 301, 2), range(301, 501, 3)[:60], range(400, 467)), "
    "(25, 50, range(16, 301), range(41, 301), range(302, 501, 2)[:90], range(301, 416)), "
    "(1, 1, range(1, 301), range(2, 301), range(301, 500), range(301, 501))]))"
)
VERIFY_MAX_N_3 = "tests/verify_max_n_3.txt"
ENUMERATED_2221 = 3456
CONNECTIVITY_2_AT_4_4 = 3136

PINS = [
    ncb("verify-all", "verify --all", 10,
        sha256="d8cf6d7a9eaf2c5ae6b1b69b48e8f08f1b0fad517e2d9908c300d15fde183981"),
    *(ncb(f"verify-{family}", f"verify --only {family}", 5,
          file=(VERIFY_MAX_N_3, f" {family} [", "1 checks, 0 failed"))
      for family in ("hypersum", "chu-vandermonde", "rank-gen-compact")),
    ncb("rank-vector-q1-8", "verify --only rank-vector-q1 --max-n 8", 30),
    ncb("rank-vector-q1-9", "verify --only rank-vector-q1 --max-n 9", 30,
        same="rank-vector-q1-8", tail="7 checks, 0 failed"),
    ncb("multi-split-13", "verify --only multi-split --max-n 13", 90,
        sha256="44f9f5f4413283252eb0459565dfaf181ae0f6add509e355d48a28a44011937b"),
    ncb("multi-total-13", "verify --only multi-total --max-n 13", 90,
        sha256="df1ca03f3b6d743a25658258fe1f4756648919a9bfa187be839c09a97c694f7f"),
    ncb("mobius-20000-15000", "mobius --shape 20000,15000", 5,
        sha256="e78055e13c98b74192766741eab50f08859fed2a47928218cffed51ff765e1c1"),
    ncb("max-chains-20000-15000", "max-chains --shape 20000,15000", 5,
        sha256="dcb1215940eb7ef82ae4bd063e506a852b44ddfdc96100bce643143a9414e87d"),
    ncb("count-3000-2000-rank-2500", "count --shape 3000,2000 --rank 2500", 5,
        sha256="8ed30e9cc10f3ff15ea79cfe36c99cdca137ac51f4ca032aa341170384d8b681"),
    ncb("zeta-20000-15000-3", "zeta --shape 20000,15000 -m 3", 5,
        sha256="0c658820dc8698fc9d675051fd9e586e56417fc53bfa50150ef6f5fa47a7be83"),
    ncb("count-300000", "count --shape 300000", 3,
        sha256="e7b7eb05a9f808a244c8fbf10d5c7185bfda9d6b2149e933e4012c7c40ba7ef3"),
    ncb("mobius-1100-900", "mobius --shape 1100,900", 5,
        sha256="79a7dadf954c38c59d7142c7df7e70f6c74e50f4bc1ac782107811d7a9fe07a4"),
    ncb("zeta-580-570-3", "zeta --shape 580,570 -m 3", 5,
        sha256="ac31bafa4ba66d127874926d57ed74860271eef5bd1134a17a886f5bdad8c794"),
    ncb("max-chains-650-550", "max-chains --shape 650,550", 5,
        sha256="64fd0779514b51c99ed85acfa1f70d5bfabc5442541af9fe88c692331f7b0999"),
    ncb("count-3000-2500", "count --shape 3000,2500", 5,
        sha256="efc74fa72907a30bee80b81c75f16ba7b61b8575d8daf12a7100001603699137"),
    ncb("count-1000000", "count --shape 1000000", 5,
        sha256="12d150a282212cb9a772e18639bc1a60ec9696a840ce19bf7112cd502f71616f"),
    ncb("zeta-1000000-3", "zeta --shape 1000000 -m 3", 5,
        sha256="6aa1df7737e4c3be72ef382f66692b1d1e7686702905aacfc894f038ea4faf95"),
    ncb("rank-poly-81-70", "rank-poly --shape 81,70", 5,
        sha256="926323ef908d34b2cbbfe16dee7f50986cc632c5ef378594e1049a90739d9c8c"),
    ncb("rank-poly-80-71", "rank-poly --shape 80,71", 5,
        sha256="27de6bdb390b6e9d4d781b9c5dd25204c5bc1372d347ffe5660bb7cf9d1000d0"),
    ncb("rank-poly-1000-700", "rank-poly --shape 1000,700", 20,
        sha256="bc16e285dbc5f093ee1d12871271f75bfd47446f632e1ab30dc7755b2fb65950"),
    ncb("rank-poly-20-to-31", "rank-poly --shape " + ",".join(map(str, range(20, 32))), 20,
        sha256="5959fe53c87cee70fddbb7c52e2a921d65e6c3554220db06f67432b3b08090b0"),
    ncb("hasse-4-4", "hasse-dot --shape 4,4", 60,
        sha256="da6759527f3d64e47f2a44c3322204e32e1aa1491a638d68ecb6987364474980"),
    ncb("enumerate-4-4-json", "enumerate --shape 4,4 --json", 60, lines=14700,
        sha256="11209e7b3d478c2c839862cd47c91165efd863e5d116567cef3f37940baca757"),
    ncb("enumerate-4-4-connectivity-2", "enumerate --shape 4,4 --connectivity 2", 30,
        lines=CONNECTIVITY_2_AT_4_4,
        sha256="36847ade00b89e8646a20cd378ba500a6ee64012c17495be302f18c38c76501a"),
    ncb("count-4-4-connectivity-2", "count --shape 4,4 --connectivity 2", 5,
        stdout=f"{CONNECTIVITY_2_AT_4_4}\n"),
    ncb("hasse-3-2-1", "hasse-dot --shape 3,2,1", 60,
        sha256="9473556501910e3ff053f92bdeac7165dfe74a3a67722d3456de5947771f0b82"),
    ncb("hasse-8", "hasse-dot --shape 8", 60,
        sha256="01f039c4906a2cc3920be557a354d0e23b00229bd29068832d0b018b8d854fa3"),
    ncb("enumerate-2-2-2-1", "enumerate --shape 2,2,2,1", 30, lines=ENUMERATED_2221),
    ncb("count-2-2-2-1", "count --shape 2,2,2,1", 5, stdout=f"{ENUMERATED_2221}\n"),
    ncb("enumerate-2-2-2-1-json", "enumerate --shape 2,2,2,1 --json", 30,
        sha256="8fade5309daccbd0231ef70564328dd42125ba1855568da64e4e5105f79f4e91"),
    ncb("hasse-3-3-3", "hasse-dot --shape 3,3,3", 5, exit=2, stderr="44000"),
    tuples("tuples-3-2-3", 3, 2, 3, 10, lines=2016),
    ncb("encode-3-2-3", "encode --shape 3,2 --in {tmp}/tuples-3-2-3", 10,
        sha256="d4be1e727c3f854736510ca137ccee324b267c7fa0a2bf42aa5ec103d6ca65d7"),
    ncb("decode-3-2-3", "decode --shape 3,2 --in {tmp}/encode-3-2-3", 10,
        same="tuples-3-2-3"),
    tuples("tuples-2-3-4", 2, 3, 4, 20, lines=11088),
    ncb("encode-2-3-4", "encode --shape 2,3 --in {tmp}/tuples-2-3-4", 20,
        sha256="e8479c5e127009536665ca2948f0293e1297385abccb196ad89590421cc5c0bf"),
    ncb("decode-2-3-4", "decode --shape 2,3 --in {tmp}/encode-2-3-4", 20,
        same="tuples-2-3-4"),
    # Past the desk's size test (p + q = 14), where the codec keeps no memo.
    tuples("tuples-8-6-3", 8, 6, 3, 10, count=2000, lines=2000),
    ncb("encode-8-6-3", "encode --shape 8,6 --in {tmp}/tuples-8-6-3", 10,
        sha256="55c79d9a7572c16b698d53f0f9562410ae1043b1ddd551c091cde3e47219e0a8"),
    ncb("decode-8-6-3", "decode --shape 8,6 --in {tmp}/encode-8-6-3", 10,
        same="tuples-8-6-3"),
    # Labels past 256, which CPython does not share, through JSON both ways.
    Pin("tuples-300-200-2", ("-c", FIXED_300_200), 10, {"lines": 5}),
    ncb("encode-300-200-2", "encode --shape 300,200 --in {tmp}/tuples-300-200-2", 10,
        sha256="4ddd924b12c580b4a4aa1e70b8c17974add06d6f5da12da9e4e4e07f3e507ab5"),
    ncb("decode-300-200-2", "decode --shape 300,200 --in {tmp}/encode-300-200-2", 10,
        same="tuples-300-200-2"),
]


class Output(NamedTuple):
    """What one finished run left: its exit code and stderr, and its stdout
    as a SHA-256 and a newline count, read in 64 KiB chunks, with the bytes
    themselves only for an entry that reads them whole (see ``mismatches``)."""

    returncode: int
    stderr: bytes
    sha256: str
    newlines: int
    stdout: bytes


def mismatches(expect: dict, done: Output, earlier: dict) -> list[str]:
    """How one run differs from what its entry expects: its exit code (0
    unless ``exit`` says otherwise) and each of ``stderr`` (a substring),
    ``sha256``, ``lines`` (a newline count), ``tail`` (the last line),
    ``stdout`` (the whole text), ``same`` (an earlier entry's stdout, held
    in ``earlier`` by its SHA-256) and ``file`` ((path, needle, last): the
    path's lines holding needle, then the line last)."""
    out, digest = done.stdout, done.sha256
    lines = out.decode(errors="replace").splitlines()
    wrong = []
    if done.returncode != expect.get("exit", 0):
        wrong.append(f"exit {done.returncode}, expected {expect.get('exit', 0)}")
    if "stderr" in expect and expect["stderr"] not in done.stderr.decode(errors="replace"):
        wrong.append(f"stderr lacks {expect['stderr']!r}: {done.stderr[-300:]!r}")
    if "sha256" in expect and digest != expect["sha256"]:
        wrong.append(f"sha256 {digest}, expected {expect['sha256']}")
    if "lines" in expect and done.newlines != expect["lines"]:
        wrong.append(f"{done.newlines} lines, expected {expect['lines']}")
    if "tail" in expect and lines[-1:] != [expect["tail"]]:
        wrong.append(f"last line {lines[-1:]}, expected {expect['tail']!r}")
    if "stdout" in expect and out != expect["stdout"].encode():
        wrong.append(f"stdout {out[:300]!r}, expected {expect['stdout']!r}")
    if "same" in expect and digest != earlier.get(expect["same"]):
        wrong.append(f"stdout differs from {expect['same']}'s")
    if "file" in expect:
        path, needle, last = expect["file"]
        want = [line for line in (ROOT / path).read_text().splitlines() if needle in line]
        want.append(last)
        if out != "".join(line + "\n" for line in want).encode():
            changed = [line for line in difflib.ndiff(want, lines) if line[0] in "+-"]
            wrong.append(f"stdout against {path}: {changed[:2]}")
    return wrong


def launch(pin: Pin, argv: list[str], stdout: Path) -> tuple[Output, float, bool]:
    """Run argv from the repository root, its stdout into the file stdout,
    killed after the pin's timeout: what it left, its peak resident set in
    MB, read from ``os.wait4`` as ``bench/run.py`` does, and whether it was
    killed.  A child starts as a copy of this process, so its peak is at
    least this process's resident set: no large stdout is ever held here."""
    env = {**os.environ, "PYTHONPATH": "src"}
    killed = threading.Event()
    with stdout.open("w+b") as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=out, stderr=err)
        timer = threading.Timer(pin.timeout, lambda: killed.set() or proc.kill())
        timer.start()
        try:
            # wait4, not RUSAGE_CHILDREN: that keeps a maximum over all children
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        digest, newlines = hashlib.sha256(), 0
        out.seek(0)
        for chunk in iter(lambda: out.read(1 << 16), b""):
            digest.update(chunk)
            newlines += chunk.count(b"\n")
        whole = {"tail", "stdout", "file"} & pin.expect.keys()
        err.seek(0)
        done = Output(proc.returncode, err.read(), digest.hexdigest(), newlines,
                      stdout.read_bytes() if whole else b"")
    return done, usage.ru_maxrss / 1024, killed.is_set()


def run(pins: list[Pin]) -> list[str]:
    "Run the pins in order, print each one's time and peak RSS, and return every mismatch."
    problems: list[str] = []
    earlier: dict[str, str] = {}
    with tempfile.TemporaryDirectory() as tmp:
        for pin in pins:
            argv = [sys.executable, *(arg.replace("{tmp}", tmp) for arg in pin.argv)]
            start = time.perf_counter()
            done, rss, killed = launch(pin, argv, Path(tmp, pin.name))
            seconds = time.perf_counter() - start
            if killed:
                wrong = [f"timed out after {pin.timeout} s"]
            else:
                earlier[pin.name] = done.sha256
                wrong = mismatches(pin.expect, done, earlier)
            state = "FAIL" if wrong else "ok  "
            print(f"{seconds:7.2f} s  {rss:7.1f} MB  {state}  {pin.name}", flush=True)
            problems += [f"{pin.name}: {what}" for what in wrong]
    return problems


def main(pins: list[Pin]) -> int:
    "Run the pins, name every mismatch, and return the exit code: 1 if any."
    problems = run(pins)
    print("\n".join(problems) or f"all {len(pins)} pins hold")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(PINS))
