"""The README's Python examples, run as doctests."""

import doctest
import re
from pathlib import Path

README = Path(__file__).parent.parent / "README.md"


def test_readme_examples():
    "Every example in a python block of the README prints what it shows."
    text = README.read_text()
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    globs: dict = {}
    blocks = re.finditer(r"^```python\n(.*?)^```", text, re.S | re.M)
    for number, block in enumerate(blocks, start=1):
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(
            block.group(1), globs, f"README.md block {number}", str(README), lineno
        )
        runner.run(test, clear_globs=False)
        globs = test.globs  # later blocks use the names earlier ones define
    failed, attempted = runner.summarize(verbose=False)
    assert attempted > 0 and failed == 0
