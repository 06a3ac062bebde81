"""The verdict digests of the exhaustive scopes in conftest.

Two scopes are enumerated: ``small_scope_spec`` (one tail varying, degree
<= 2) and ``both_tails_spec`` (both tails varying, degree <= 1, which
reaches every criterion). Each block of 1,000 consecutive specs of a scope
has one sha256 in its digest file under ``tests/data``, over one line per
spec: the class, criterion, ``witness``, ``first_equality``,
``flat_pair_index``, ``left_run_end``, ``left_sup_sq`` and ``flat_from`` of
its certificate, or the validation error. Every spec must classify or
raise ``InvalidSpec``, and ``replay`` must accept each certificate. A
changed digest is an intended change, made and listed like a golden one.

The suite checks every 50th block of each scope. To check all of them, run

    PYTHONPATH=src python tests/test_verdict_digest.py [scope ...]

with scope ``small`` or ``both-tails`` (both when none is named), and to
rewrite the digest files, add ``--write``.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

from shiftcert import WeightSpec, classify, replay
from shiftcert.classifier import InvalidSpec

from conftest import BOTH_TAILS_SIZE, SMALL_SCOPE_SIZE, both_tails_spec, small_scope_spec

DATA = Path(__file__).resolve().parent / "data"
BLOCK = 1_000
STRIDE = 50


class Scope(NamedTuple):
    spec: Callable[[int], WeightSpec]
    size: int
    digest: Path

    @property
    def blocks(self) -> int:
        return self.size // BLOCK


SCOPES = {
    "small": Scope(small_scope_spec, SMALL_SCOPE_SIZE, DATA / "verdict_digest.txt"),
    "both-tails": Scope(both_tails_spec, BOTH_TAILS_SIZE, DATA / "verdict_digest_both_tails.txt"),
}


def verdict_line(scope: Scope, i: int) -> str:
    spec = scope.spec(i)
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


def block_lines(scope: Scope, block: int) -> list[str]:
    return [verdict_line(scope, i) for i in range(block * BLOCK, (block + 1) * BLOCK)]


def block_digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def recorded(scope: Scope) -> list[str]:
    return scope.digest.read_text(encoding="utf-8").split()


def test_the_digest_covers_the_scope():
    assert SMALL_SCOPE_SIZE == 372_000
    assert len(recorded(SCOPES["small"])) == SCOPES["small"].blocks


def test_the_both_tails_digest_covers_the_scope():
    assert BOTH_TAILS_SIZE == 360_000
    assert len(recorded(SCOPES["both-tails"])) == SCOPES["both-tails"].blocks


def check_block(name: str, block: int) -> None:
    scope = SCOPES[name]
    lines = block_lines(scope, block)
    if block_digest(lines) != recorded(scope)[block]:
        pytest.fail(f"{name} verdict digest block {block} changed; its lines:\n" + "\n".join(lines))


@pytest.mark.parametrize("block", range(0, SCOPES["small"].blocks, STRIDE))
def test_block_digest(block):
    check_block("small", block)


@pytest.mark.parametrize("block", range(0, SCOPES["both-tails"].blocks, STRIDE))
def test_both_tails_block_digest(block):
    check_block("both-tails", block)


def main(argv: list[str]) -> int:
    names = [a for a in argv if a != "--write"] or list(SCOPES)
    status = 0
    for name in names:
        scope = SCOPES[name]
        digests = [block_digest(block_lines(scope, b)) for b in range(scope.blocks)]
        if "--write" in argv:
            scope.digest.write_text("\n".join(digests) + "\n", encoding="utf-8")
            continue
        changed = [b for b, (d, r) in enumerate(zip(digests, recorded(scope))) if d != r]
        for b in changed:
            print(f"{name} verdict digest block {b} changed; its lines:")
            print("\n".join(block_lines(scope, b)))
        print(f"{name}: {scope.blocks - len(changed)} of {scope.blocks} blocks match")
        status |= bool(changed)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
