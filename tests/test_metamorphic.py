"""Metamorphic relations of the classification, on seeded random specs and
every golden spec.

* Translation: moving every index up by t keeps the class, the criterion
  and every exact value; each index the certificate defines by order (the
  first equality, a flat pair, a run end, ``flat_from``, the equal pairs,
  the replay points) moves by t. A not-hyponormal witness is the violating
  pair of smallest |n|, which a translation does not preserve: it must be a
  violating pair of the translated spec, and no farther from 0 than the
  translated witness of the original.
* Reflection: the adjoint of the shift with moduli |beta_n| is the shift
  with moduli |beta_{-n-1}|. A normal shift stays normal. A hyponormal,
  non-normal one becomes not hyponormal, since each strict rise n of T is
  a violated pair -n - 2 of the adjoint; the witness is the member of
  smallest |k| of that set, found here by evaluating the moduli.

Each relation reads only ``classify`` and direct evaluation of the moduli.
A fault that answers one side of the engine unlike the mirror image of the
other, or that names an index relative to the origin where it should not,
breaks a relation; a fault that a translation and the adjoint both carry
along unchanged does not.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

from shiftcert import classify
from shiftcert.classifier import Certificate, VerdictClass
from shiftcert.specfile import load_spec
from shiftcert.weights import witness_key

from conftest import make_plateau_spec, random_valid_spec, reflect_spec, translate_spec

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
SHIFTS = (-1000, -37, 5, 1000)
RANDOM_DRAWS = 520  # half from random_valid_spec, half from make_plateau_spec


def _golden_specs():
    return [load_spec(path)[0] for path in sorted(GOLDEN_DIR.glob("*.spec.json"))]


@pytest.fixture(scope="module")
def specs():
    rng = random.Random(1976)
    drawn = []
    for i in range(RANDOM_DRAWS):
        drawn.append(random_valid_spec(rng) if i % 2 else make_plateau_spec(rng))
    return drawn + _golden_specs()


def _move(n, t):
    return None if n is None else n + t


def _translated(cert: Certificate, t: int) -> Certificate:
    """The certificate with every order-defined index moved by t."""
    profile = cert.profile
    if profile is not None:
        right = profile.right_equalities
        profile = profile._replace(
            left_equalities=tuple(n + t for n in profile.left_equalities),
            right_equalities=None if right is None else tuple(n + t for n in right),
            first_equality=_move(profile.first_equality, t),
        )
    return cert._replace(
        profile=profile,
        witness=_move(cert.witness, t),
        first_equality=_move(cert.first_equality, t),
        flat_pair_index=_move(cert.flat_pair_index, t),
        left_run_end=_move(cert.left_run_end, t),
        flat_from=_move(cert.flat_from, t),
        replay_points=tuple(p._replace(index=p.index + t) for p in cert.replay_points),
    )


def _violates(spec, n: int) -> bool:
    return spec.value(n) > spec.value(n + 1)


def _adjoint_witness(spec, reach: int = 10**4) -> int:
    """The smallest-|k| member (ties toward negative) of {-n - 2 : n a
    strict rise of the spec}, by evaluating the moduli outward from 0."""
    for k in [0] + [k for m in range(1, reach) for k in (-m, m)]:
        n = -k - 2
        if spec.value(n) < spec.value(n + 1):
            return k
    raise AssertionError("no strict rise within reach")


def test_translation(specs):
    checked = {klass: 0 for klass in VerdictClass}
    for i, spec in enumerate(specs):
        cert = classify(spec).certificate
        for t in SHIFTS:
            moved = classify(translate_spec(spec, t))
            expected = _translated(cert, t)
            if cert.verdict_class is VerdictClass.NOT_HYPONORMAL:
                w = moved.certificate.witness
                assert _violates(spec, w - t), (i, t, w)
                assert witness_key(w) <= witness_key(cert.witness + t), (i, t, w)
                expected = expected._replace(witness=w)
            assert moved.certificate == expected, (i, t)
            assert moved.witness == moved.certificate.witness
        checked[cert.verdict_class] += 1
    assert all(count >= 40 for count in checked.values()), checked


def test_reflection(specs):
    normal = obstructed = 0
    for i, spec in enumerate(specs):
        klass = classify(spec).klass
        if klass is VerdictClass.NOT_HYPONORMAL:
            continue
        adjoint = classify(reflect_spec(spec))
        if klass is VerdictClass.NORMAL:
            assert adjoint.klass is VerdictClass.NORMAL, i
            normal += 1
            continue
        assert adjoint.klass is VerdictClass.NOT_HYPONORMAL, i
        assert adjoint.witness == _adjoint_witness(spec), i
        obstructed += 1
    assert normal >= 40 and obstructed >= 300, (normal, obstructed)
