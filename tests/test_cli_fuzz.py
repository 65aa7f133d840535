"""The exit-code contract under random input.

Hypothesis drives `main` in process over every verb.  Its argv is built
from valid fragments and then mutated; the stdin lines of encode and
decode are valid tuples and chains with some field or JSON value swapped
for another type.  Whatever the input, `main` returns 0 or 2 (or 1 from
verify only), and a 2 leaves stdout empty and explains itself on stderr.

Sizes stay where every verb answers at once: enumerate and hasse-dot see
shapes of total size at most 4 or past the desk bound, the other verbs
shapes of total at most 70 (closed forms and codecs slow down as sizes
grow; the README gives the scale), and verify runs one family with
--max-n at most 2.
"""

import contextlib
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from ncb.bijection import annulus_tuples, encode_multichain
from ncb.checks import FAMILIES
from ncb.cli import main

HUGE = 10**30
SMALL = ["1", "3", "4", "1,1", "2,1", "1,3", "2,2", "1,1,1", "2,1,1", "1,1,1,1"]
LARGE = ["3,2", "6", "7,5", "3,3,3", ",".join(["1"] * 12), "40,30"]
INVALID = ["0", "-1", "x", "", "1,,2", "2.5", ",".join(["1"] * 13), "9", "5,4", "2,2,2,1"]
NUMBERS = ["-1", "0", "1", "2", "3", str(HUGE), str(-HUGE), "x", "1.5", ""]
CELLS = ["1,0,0", "0,1,1", "-1,0,1", "1,1", "a,b,c", f"{HUGE},1,1"]
FILES = ["@FILE", "@DIR", "@MISSING"]
JUNK = ["--bogus", "--shape", "--rank", "-m", "--json", "--all", "--only", "--out", "-h"]
JUNK += ["x", "", "-1", "2,1", "@DIR"]
JSON_SWAPS = [1.5, True, "x", None, [[1]], HUGE]
TEXT_SWAPS = ["1.5", "true", "x", "", "null", "[1]", str(HUGE), "-1", "0"]

# Flag -> value choices (None for a switch), per verb; --out for every verb.
OPTIONS = {
    "count": {"--rank": NUMBERS, "--connectivity": NUMBERS, "--cell": CELLS},
    "enumerate": {"--rank": NUMBERS, "--connectivity": NUMBERS, "--json": None},
    "rank-poly": {},
    "zeta": {"-m": NUMBERS},
    "mobius": {},
    "max-chains": {},
    "encode": {"--in": FILES},
    "decode": {"--in": FILES},
    "verify": {"--all": None},
    "hasse-dot": {},
}
ENUMERATING = {"enumerate", "hasse-dot"}
TUPLES = [
    (p, q, t)
    for p, q, m in [(1, 1, 2), (2, 1, 2), (1, 2, 2), (2, 2, 2), (2, 1, 3)]
    for t in annulus_tuples(p, q, m)
]


def positions(value, path=()):
    "Every path into a JSON value, the value itself first."
    yield path
    if isinstance(value, dict):
        items = value.items()
    else:
        items = enumerate(value) if isinstance(value, list) else ()
    for key, inner in items:
        yield from positions(inner, path + (key,))


def replaced(value, path, new):
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


@st.composite
def codec_lines(draw, verb):
    "One to three stdin lines, each valid or with one value of another type."
    lines = []
    for p, q, t in draw(st.lists(st.sampled_from(TUPLES), min_size=1, max_size=3)):
        if verb == "encode":
            fields = t.to_text().split()
            i = draw(st.integers(0, len(fields) - 1))
            swapped = f"{fields[i].partition('=')[0]}={draw(st.sampled_from(TEXT_SWAPS))}"
            fields[i] = draw(st.sampled_from([fields[i], swapped, ""]))
            lines.append(" ".join(fields))
        else:
            chain = [pi.to_dict() for pi in encode_multichain(t, p, q)]
            value = chain[0] if len(chain) == 1 else chain
            path = draw(st.sampled_from([None, *positions(value)]))
            if path is not None:
                value = replaced(value, path, draw(st.sampled_from(JSON_SWAPS)))
            lines.append(json.dumps(value))
    return f"{p},{q}", "\n".join(lines) + "\n"


@st.composite
def invocations(draw):
    "(verb, argv, stdin text): the verb's fragments, then up to two mutations."
    verb = draw(st.sampled_from(sorted(OPTIONS)))
    stdin = ""
    argv = [verb]
    if verb in ("encode", "decode"):
        shape, stdin = draw(codec_lines(verb))
        other = st.sampled_from(SMALL + INVALID)
        argv += ["--shape", draw(st.one_of(st.just(shape), other))]
    elif verb != "verify":
        shapes = SMALL + INVALID if verb in ENUMERATING else SMALL + LARGE + INVALID
        argv += ["--shape", draw(st.sampled_from(shapes))]
    options = {**OPTIONS[verb], "--out": FILES}
    for flag in draw(st.lists(st.sampled_from(sorted(options)), unique=True, max_size=2)):
        argv.append(flag)
        if options[flag] is not None:
            argv.append(draw(st.sampled_from(options[flag])))
    if verb == "zeta" and "-m" not in argv:
        argv += ["-m", draw(st.sampled_from(NUMBERS))]
    kinds = st.sampled_from(["drop", "insert", "swap"])
    mutation = st.tuples(kinds, st.integers(0, 20), st.sampled_from(JUNK))
    for kind, spot, junk in draw(st.lists(mutation, max_size=2)):
        spot %= len(argv) + 1
        if kind == "insert":
            argv.insert(spot, junk)
        elif kind == "drop":
            del argv[spot:spot + 1]
        else:
            argv[spot:spot + 2] = argv[spot:spot + 2][::-1]
    if verb == "verify":  # last occurrences win, so these bound every run
        argv += ["--only", draw(st.sampled_from([*FAMILIES, "nope"]))]
        argv += ["--max-n", draw(st.sampled_from(["-1", "0", "1", "2"]))]
    return verb, argv, stdin


def shape_totals(argv):
    "The total size of each --shape value argparse could read off argv."
    for flag, value in zip(argv, argv[1:]):
        if flag == "--shape":
            try:
                yield sum(int(x) for x in value.split(","))
            except ValueError:
                pass


@settings(deadline=None, max_examples=300)
@given(invocations())
def test_main_keeps_the_exit_code_contract(case):
    "Exit 0 or 2 (1 from verify only); a 2 writes only an error or usage."
    verb, argv, stdin = case
    if verb in ENUMERATING:  # the desk bound rejects totals past 8 up front
        assume(all(total <= 4 or total > 8 for total in shape_totals(argv)))
    else:
        assume(all(total <= 70 for total in shape_totals(argv)))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "in.txt").write_text(stdin)
        paths = {"@FILE": str(Path(tmp, "in.txt")), "@DIR": tmp}
        paths["@MISSING"] = str(Path(tmp, "no", "file"))
        argv = [paths.get(arg, arg) for arg in argv]
        home = os.getcwd()
        os.chdir(tmp)  # a mutated --out may name any relative path
        try:
            with mock.patch("sys.stdin", io.StringIO(stdin)), \
                    contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        finally:
            os.chdir(home)
    assert code in (0, 2) or code == 1 and verb == "verify", (argv, code, err.getvalue())
    if code == 2:
        assert out.getvalue() == "", argv
        assert "error:" in err.getvalue() or "usage:" in err.getvalue(), argv
