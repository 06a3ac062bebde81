"""Golden exit-2 messages: ``classify`` on an invalid spec file pinned byte
for byte.

``tests/data/invalid`` holds one spec file per rule a spec can break, each
next to the stderr the CLI prints for it (``NAME.stderr``): a zero or a
negative window weight, a non-positive constant tail, a negative value, a
zero and a pole of a rational tail, an unbounded tail, a written degree over
the cap, a malformed rational, an unknown tail kind, an unknown field and
JSON nested too deeply. No message names the file, so the bytes do not
depend on where the checkout lives.
"""

from __future__ import annotations

import contextlib
import io
from pathlib import Path

import pytest

from shiftcert.cli import main

INVALID_DIR = Path(__file__).resolve().parent / "data" / "invalid"


def _names() -> list[str]:
    return sorted(p.stem for p in INVALID_DIR.glob("*.json"))


def test_every_rule_has_a_spec_and_its_message():
    assert len(_names()) == 12
    assert sorted(p.stem for p in INVALID_DIR.glob("*.stderr")) == _names()


@pytest.mark.parametrize("name", _names())
def test_stderr_bytes_match(name):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["classify", str(INVALID_DIR / f"{name}.json")])
    assert code == 2
    assert out.getvalue() == ""
    assert err.getvalue() == (INVALID_DIR / f"{name}.stderr").read_text(encoding="utf-8")
