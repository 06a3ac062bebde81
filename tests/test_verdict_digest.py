"""The verdict digest of the small scope (conftest's ``small_scope_spec``).

Each block of 1,000 consecutive specs has one sha256 in
``tests/data/verdict_digest.txt``, over one line per spec: the class,
criterion, ``witness``, ``first_equality``, ``flat_pair_index``,
``left_run_end``, ``left_sup_sq`` and ``flat_from`` of its certificate, or
the validation error. Every spec must classify or raise ``InvalidSpec``,
and ``replay`` must accept each certificate. A changed digest is an
intended change, made and listed like a golden one.

The suite checks every 50th block. To check all of them, run

    PYTHONPATH=src python tests/test_verdict_digest.py

and to rewrite the digest file, add ``--write``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import pytest

from shiftcert import classify, replay
from shiftcert.classifier import InvalidSpec

from conftest import SMALL_SCOPE_SIZE, small_scope_spec

DIGEST = Path(__file__).resolve().parent / "data" / "verdict_digest.txt"
BLOCK = 1_000
BLOCKS = SMALL_SCOPE_SIZE // BLOCK
STRIDE = 50


def verdict_line(i: int) -> str:
    spec = small_scope_spec(i)
    try:
        cert = classify(spec).certificate
    except InvalidSpec as exc:
        return f"{i} {exc}"
    result = replay(cert, spec)
    assert result.consistent, (i, result.detail)
    fields = (
        cert.verdict_class.value,
        cert.criterion.value if cert.criterion else None,
        cert.witness,
        cert.first_equality,
        cert.flat_pair_index,
        cert.left_run_end,
        cert.left_sup_sq,
        cert.flat_from,
    )
    return " ".join(map(str, (i, *fields)))


def block_lines(block: int) -> list[str]:
    return [verdict_line(i) for i in range(block * BLOCK, (block + 1) * BLOCK)]


def block_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def recorded() -> list[str]:
    return DIGEST.read_text(encoding="utf-8").split()


def test_the_digest_covers_the_scope():
    assert SMALL_SCOPE_SIZE == 372_000
    assert len(recorded()) == BLOCKS


@pytest.mark.parametrize("block", range(0, BLOCKS, STRIDE))
def test_block_digest(block):
    lines = block_lines(block)
    if block_digest(lines) != recorded()[block]:
        pytest.fail(f"verdict digest block {block} changed; its lines:\n" + "\n".join(lines))


def main(argv: list[str]) -> int:
    digests = [block_digest(block_lines(b)) for b in range(BLOCKS)]
    if "--write" in argv:
        DIGEST.write_text("\n".join(digests) + "\n", encoding="utf-8")
        return 0
    changed = [b for b, (d, r) in enumerate(zip(digests, recorded())) if d != r]
    for b in changed:
        print(f"verdict digest block {b} changed; its lines:")
        print("\n".join(block_lines(b)))
    print(f"{BLOCKS - len(changed)} of {BLOCKS} blocks match")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
