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
* Rewriting a constant tail: c (kn + r) / (kn + r), a ratio as given and
  not reduced, with its pole off the tail's ray, is the tail
  ``ConstantTail(c)``. The spec gets the same report bytes, a certificate
  that replays, and the same transformed-weight limits, ``flat_from`` and
  supremum, with no tail form on that side.

The first two relations read only ``classify`` and direct evaluation of the
moduli.
A fault that answers one side of the engine unlike the mirror image of the
other, or that names an index relative to the origin where it should not,
breaks a relation; a fault that a translation and the adjoint both carry
along unchanged does not.
"""

from __future__ import annotations

import random
from fractions import Fraction
from pathlib import Path

import pytest

from shiftcert import (
    ConstantTail,
    Polynomial,
    RationalFunction,
    RationalTail,
    WeightSpec,
    classify,
    commutator_diagonal,
    replay,
    transformed_weights,
)
from shiftcert.classifier import Certificate, VerdictClass
from shiftcert.cli import build_report, render_json
from shiftcert.shiftcalc import sup_sq_global
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
    runs = cert.equal_runs
    return cert._replace(
        equal_runs=None if runs is None else tuple((_move(a, t), _move(b, t)) for a, b in runs),
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


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 4), rng.choice((1, 2)))


def _unreduced_constant(rng: random.Random, c: Fraction, on_ray) -> RationalFunction:
    """c (kn + r) / (kn + r) as given, not reduced, its pole off the ray."""
    while True:
        k, r = rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(-12, 12)
        pole = Fraction(-r, k)
        if pole.denominator > 1 or not on_ray(int(pole)):
            p, q = c.numerator, c.denominator
            return RationalFunction(Polynomial((p * r, p * k)), Polynomial((q * r, q * k)))


def _report(verdict) -> str:
    return render_json(build_report(verdict, {}))


def test_an_unreduced_constant_tail_is_its_constant():
    rng = random.Random(2503)
    checked = {klass: 0 for klass in VerdictClass}
    for i in range(200):
        side = i % 2
        # The moduli: the left tail's, the window, the right tail's; mostly
        # nondecreasing, and now and then all equal.
        moduli = [_small(rng) for _ in range(rng.randint(3, 6))]
        if i % 4:
            moduli.sort()
        if i % 8 == 3:
            moduli = moduli[:1] * len(moduli)
        start, window = rng.randint(-6, 6), tuple(moduli[1:-1])
        end = start + len(window) - 1
        tails = [ConstantTail(moduli[0]), ConstantTail(moduli[-1])]
        c = tails[side].value
        plain = WeightSpec(start, window, *tails)
        on_ray = (lambda n: n >= end + 1) if side else (lambda n: n <= start - 1)
        tails[side] = RationalTail(_unreduced_constant(rng, c, on_ray))
        spec = WeightSpec(start, window, *tails)

        verdict = classify(spec)
        assert _report(verdict) == _report(classify(plain)), i
        result = replay(verdict.certificate, spec)
        assert result.consistent, (i, result.detail)
        tw, plain_tw = (transformed_weights(s, commutator_diagonal(s)) for s in (spec, plain))
        assert tw.form(side) is None, i
        assert tw.flat_from == plain_tw.flat_from, i
        assert tw.left_limit_sq == plain_tw.left_limit_sq, i
        assert tw.right_limit_sq == plain_tw.right_limit_sq, i
        if verdict.klass is not VerdictClass.NOT_HYPONORMAL:  # else g_n^2 raises
            assert sup_sq_global(tw) == sup_sq_global(plain_tw), i
        checked[verdict.klass] += 1
    assert checked[VerdictClass.NEAR_SUBNORMAL] == 0
    assert all(checked[k] >= 20 for k in checked if k is not VerdictClass.NEAR_SUBNORMAL), checked
