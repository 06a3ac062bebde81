"""Cross-cutting randomized invariants tying the engine's layers together."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from shiftcert import (
    PoleOnRay,
    RationalFunction,
    Ray,
    SignKind,
    classify,
    commutator_diagonal,
    replay,
    sign_on_ray,
)
from shiftcert.classifier import VerdictClass
from shiftcert.oracle import concordance, truncation_report

from conftest import brute_force_ray_sign, random_labelled_spec


def random_rational_function(rng: random.Random, max_degree: int = 4) -> RationalFunction:
    def coeffs():
        degree = rng.randint(0, max_degree)
        out = [
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(degree + 1)
        ]
        return out

    num = coeffs()
    den = coeffs()
    while all(c == 0 for c in den):
        den = coeffs()
    return RationalFunction.of(num, den)


def expected_kind(zeros: list[int], has_pos: bool, has_neg: bool, is_zero_fn: bool):
    if is_zero_fn:
        return SignKind.IDENTICALLY_ZERO
    if has_pos and has_neg:
        return SignKind.MIXED
    if zeros:
        return SignKind.HAS_ZEROS
    return SignKind.STRICTLY_POSITIVE if has_pos else SignKind.STRICTLY_NEGATIVE


class TestSignCertificationAgainstBruteForce:
    def test_sample(self):
        rng = random.Random(20011)
        checked = 0
        while checked < 40:
            f = random_rational_function(rng)
            bound = rng.randint(-20, 20)
            ray = Ray.le(bound) if rng.random() < 0.5 else Ray.ge(bound)
            brute = brute_force_ray_sign(f, ray)
            if brute[0] == "pole":
                with pytest.raises(PoleOnRay):
                    sign_on_ray(f, ray)
                continue
            zeros, has_pos, has_neg = brute
            verdict = sign_on_ray(f, ray)
            assert verdict.kind == expected_kind(zeros, has_pos, has_neg, f.is_zero)
            assert list(verdict.zeros) == zeros
            assert (verdict.positive_witness is not None) == has_pos
            assert (verdict.negative_witness is not None) == has_neg
            checked += 1


class TestTelescoping:
    def test_partial_sums_collapse(self):
        rng = random.Random(404)
        for _ in range(60):
            spec, _, _ = random_labelled_spec(rng)
            diag = commutator_diagonal(spec)
            a = rng.randint(-40, 10)
            b = a + rng.randint(1, 50)
            total = sum(diag.entry(n) for n in range(a + 1, b + 1))
            assert total == spec.value(b) ** 2 - spec.value(a) ** 2


class TestHyponormalityLink:
    def test_verdict_matches_diagonal_signs(self):
        from shiftcert import check_hyponormal
        from shiftcert.weights import left_ray

        rng = random.Random(808)
        for _ in range(40):
            spec, _, _ = random_labelled_spec(rng)
            diag = commutator_diagonal(spec)
            sampled_nonneg = all(diag.entry(n) >= 0 for n in range(-60, 61))
            left_ok = sign_on_ray(diag.left_form, left_ray(spec)).nonnegative
            right_ok = sign_on_ray(
                diag.right_form, Ray.ge(spec.window_end + 2)
            ).nonnegative
            assert check_hyponormal(spec).hyponormal == (
                sampled_nonneg and left_ok and right_ok
            )


class TestClassifierOracleConcordance:
    def test_hundred_random_specs(self):
        rng = random.Random(90210)
        tally = {klass: 0 for klass in VerdictClass}
        for _ in range(100):
            spec, expected_class, _ = random_labelled_spec(rng)
            verdict = classify(spec)
            assert verdict.klass == expected_class
            assert replay(verdict.certificate, spec).consistent
            report = truncation_report(spec, verdict, 40, sweep=[10, 40])
            agreement, notes = concordance(verdict, report)
            assert agreement == "agrees", (expected_class, notes)
            tally[verdict.klass] += 1
        # The sample must genuinely exercise every reachable class.
        assert tally[VerdictClass.NEAR_SUBNORMAL] >= 20
        assert tally[VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL] >= 20
        assert tally[VerdictClass.NORMAL] >= 5
        assert tally[VerdictClass.NOT_HYPONORMAL] >= 5
        assert "UNDECIDED" not in VerdictClass.__members__
