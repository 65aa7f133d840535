"""The pins runner (`tests/pins.py`) on small entries: a true pin holds, and
an edited expected hash or an edited expected line makes it exit 1 and name
the entry."""

import hashlib

import pins

COUNT_1 = hashlib.sha256(b"2\n").hexdigest()  # NC^(B)(1) has 2 elements
EDITED = COUNT_1[:-1] + ("1" if COUNT_1[-1] == "0" else "0")
HYPERSUM = (" hypersum [", "1 checks, 0 failed")


def test_an_edited_hash_fails_and_names_the_entry(capsys):
    "The true hash holds; one changed hex digit fails with the actual hash."
    true = pins.ncb("count-1", "count --shape 1", 10, sha256=COUNT_1)
    assert pins.main([true]) == 0
    edited = pins.ncb("count-1-edited", "count --shape 1", 10, sha256=EDITED)
    assert pins.main([true, edited]) == 1
    named = f"count-1-edited: sha256 {COUNT_1}, expected {EDITED}"
    assert capsys.readouterr().out.splitlines()[-1] == named


def test_an_edited_expected_line_fails_and_names_the_entry(tmp_path, capsys):
    "The family's lines of the reference file hold; one edited line fails."
    reference = pins.ROOT / pins.VERIFY_MAX_N_3
    edited = tmp_path / "edited.txt"
    edited.write_text(reference.read_text().replace("PASS hypersum", "FAIL hypersum"))
    true = pins.ncb("hypersum", "verify --only hypersum", 10, file=(reference, *HYPERSUM))
    assert pins.main([true]) == 0
    wrong = pins.ncb("hypersum-edited", "verify --only hypersum", 10, file=(edited, *HYPERSUM))
    assert pins.main([wrong]) == 1
    assert capsys.readouterr().out.splitlines()[-1].startswith("hypersum-edited: stdout")
