"""The README's examples: `python` blocks as doctests, and each `ncb` line
of an `sh` block whose comment starts with its output."""

import contextlib
import doctest
import io
import re
import shlex
from pathlib import Path

from ncb.cli import main

README = Path(__file__).parent.parent / "README.md"

# A comment that starts with a value: an integer or a polynomial in x.
VALUE = re.compile(r"-?\d+(?: \+ (?:\d+\*)?x(?:\^\d+)?)*(?=$|[ ,])")
EDGES = re.compile(r"(\d+) edges$")


def blocks(language):
    text = README.read_text()
    for block in re.finditer(rf"^```{language}\n(.*?)^```", text, re.S | re.M):
        yield text.count("\n", 0, block.start(1)), block.group(1)


def test_readme_examples():
    "Every example in a python block of the README prints what it shows."
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs: dict = {}
    for number, (lineno, source) in enumerate(blocks("python"), start=1):
        test = parser.get_doctest(
            source, globs, f"README.md block {number}", str(README), lineno
        )
        runner.run(test, clear_globs=False)
        globs = test.globs  # later blocks use the names earlier ones define
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0 and failed == 0


def test_readme_command_outputs():
    "Each ncb line whose comment starts with its output prints that output."
    checked = []
    for _, source in blocks("sh"):
        for line in source.splitlines():
            command, _, comment = line.partition("#")
            comment = comment.strip()
            if not command.startswith("ncb ") or not comment:
                continue
            value, edges = VALUE.match(comment), EDGES.search(comment)
            if not (value or edges):
                continue
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = main(shlex.split(command)[1:])
            out = stdout.getvalue()
            assert code == 0, line
            if value:
                assert out == value.group() + "\n", line
            else:
                assert out.count(" -> ") == int(edges.group(1)), line
            checked.append(command.split()[1])
    assert len(checked) >= 10 and "hasse-dot" in checked
