"""Verdicts, structure certification, witnesses, and certificate replay."""

from __future__ import annotations

import dataclasses
import random
from fractions import Fraction

import pytest

from shiftcert import (
    ConstantTail,
    InvalidSpec,
    RationalFunction,
    RationalTail,
    WeightSpec,
    check_hyponormal,
    classify,
    replay,
    scale_spec,
)
from shiftcert.classifier import Criterion, Relation, ReplayPoint, Shape, VerdictClass

from conftest import RECIPES, make_plateau_spec, random_labelled_spec


class TestCheckHyponormal:
    def test_example_two_strictly_increases(self, ex2):
        check = check_hyponormal(ex2)
        assert check.hyponormal
        assert check.profile.left_shape == Shape.STRICT_INCREASE
        assert check.profile.right_shape == Shape.STRICT_INCREASE
        assert check.profile.first_equality is None

    def test_two_level_shapes(self, ex3):
        check = check_hyponormal(ex3)
        assert check.hyponormal
        assert check.profile.left_shape == Shape.CONSTANT
        assert check.profile.left_value == 1
        assert check.profile.right_shape == Shape.CONSTANT
        assert check.profile.right_value == 2

    def test_decreasing_window_witness(self):
        spec = WeightSpec(
            0,
            (Fraction(2), Fraction(1)),
            ConstantTail(Fraction(2)),
            ConstantTail(Fraction(1)),
        )
        check = check_hyponormal(spec)
        assert not check.hyponormal
        assert check.witness == 0

    def test_witness_smallest_abs_ties_negative(self):
        # Decreases at pairs -2 and +2: |n| ties break toward the negative.
        spec = WeightSpec(
            -2,
            (Fraction(3), Fraction(2), Fraction(2), Fraction(2), Fraction(2), Fraction(1)),
            ConstantTail(Fraction(3)),
            ConstantTail(Fraction(1)),
        )
        check = check_hyponormal(spec)
        assert not check.hyponormal
        assert check.witness == -2

    def test_left_tail_violation_found(self):
        # f(n) = 2 + 1/(n-1) decreases in n on the left ray (3/2 at -1,
        # 5/3 at -2, ...), so every deep pair violates; the closest-to-zero
        # violating pair is (-2, -1).
        spec = WeightSpec(
            0,
            (Fraction(10),),
            RationalTail(RationalFunction.of([-1, 2], [-1, 1])),
            ConstantTail(Fraction(10)),
        )
        check = check_hyponormal(spec)
        assert not check.hyponormal
        assert check.witness == -2

    def test_window_relations_recorded(self, fixture_specs):
        check = check_hyponormal(fixture_specs["flatpair"])
        # pairs -1..2: 1 < 2, 2 = 2, 2 < 3, 3 = 3
        assert check.profile.window_relations == (
            Relation.LT,
            Relation.EQ,
            Relation.LT,
            Relation.EQ,
        )


class TestClassifyFixtures:
    def test_example_one(self, ex1):
        verdict = classify(ex1)
        assert verdict.klass == VerdictClass.NEAR_SUBNORMAL
        assert verdict.criterion == Criterion.FLAT_TAIL
        cert = verdict.certificate
        assert cert.first_equality == 0
        assert cert.left_limit_sq.value == 0
        assert cert.left_sup_sq == 4
        assert cert.flat_from == 0

    def test_example_two(self, ex2):
        verdict = classify(ex2)
        assert verdict.klass == VerdictClass.NEAR_SUBNORMAL
        assert verdict.criterion == Criterion.STRICT_INCREASE
        cert = verdict.certificate
        assert cert.right_limit_sq.value == 4
        assert cert.left_limit_sq.value == 0

    def test_example_three(self, ex3):
        verdict = classify(ex3)
        assert verdict.klass == VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL
        assert verdict.criterion == Criterion.CONSTANT_LEFT
        assert verdict.witness == 1
        assert verdict.certificate.left_run_end == 0

    def test_flat_pair(self, fixture_specs):
        verdict = classify(fixture_specs["flatpair"])
        assert verdict.klass == VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL
        assert verdict.criterion == Criterion.FLAT_PAIR
        assert verdict.certificate.flat_pair_index == 0
        assert verdict.witness == 0

    def test_globally_constant_is_normal(self):
        spec = WeightSpec(
            0, (Fraction(3, 2),), ConstantTail(Fraction(3, 2)), ConstantTail(Fraction(3, 2))
        )
        assert classify(spec).klass == VerdictClass.NORMAL

    def test_invalid_spec_raises(self):
        spec = WeightSpec(
            0, (Fraction(0),), ConstantTail(Fraction(1)), ConstantTail(Fraction(1))
        )
        with pytest.raises(InvalidSpec):
            classify(spec)


class TestClassifyStructure:
    def test_minimality_of_first_equality(self):
        rng = random.Random(421)
        seen = 0
        for _ in range(60):
            spec, klass, criterion = random_labelled_spec(rng)
            verdict = classify(spec)
            k = verdict.certificate.first_equality
            if k is None:
                continue
            seen += 1
            assert spec.value(k) == spec.value(k + 1)
            for n in range(k - 60, k):
                assert spec.value(n) < spec.value(n + 1)
        assert seen > 10

    def test_flat_pair_pattern_certified(self):
        rng = random.Random(31)
        for _ in range(40):
            spec, klass, criterion = random_labelled_spec(rng)
            verdict = classify(spec)
            if verdict.criterion != Criterion.FLAT_PAIR:
                continue
            j0 = verdict.certificate.flat_pair_index
            assert spec.value(j0 - 1) < spec.value(j0)
            assert spec.value(j0) == spec.value(j0 + 1)
            assert spec.value(j0 + 1) < spec.value(j0 + 2)

    def test_constant_left_obstruction(self):
        rng = random.Random(77)
        for _ in range(40):
            spec, klass, criterion = random_labelled_spec(rng)
            verdict = classify(spec)
            if verdict.criterion != Criterion.CONSTANT_LEFT:
                continue
            j0 = verdict.certificate.left_run_end
            diag_at = lambda n: spec.value(n) ** 2 - spec.value(n - 1) ** 2
            assert diag_at(j0) == 0
            assert diag_at(j0 + 1) > 0  # the invariance obstruction

    def test_recipes_produce_expected_classes(self):
        rng = random.Random(2)
        for maker, klass, criterion in RECIPES:
            for _ in range(12):
                spec = maker(rng)
                verdict = classify(spec)
                assert verdict.klass == klass, (maker.__name__, verdict)
                if criterion is not None:
                    assert verdict.criterion == criterion, maker.__name__

    def test_never_undecided(self):
        # Undecided is not representable: the enum holds the four verdicts only.
        assert "UNDECIDED" not in VerdictClass.__members__
        assert {k.value for k in VerdictClass} == {
            "not-hyponormal",
            "normal",
            "near-subnormal",
            "hyponormal-not-near-subnormal",
        }

    def test_exactly_one_class(self):
        rng = random.Random(17)
        for _ in range(40):
            spec, _, _ = random_labelled_spec(rng)
            verdict = classify(spec)
            # Near subnormal and a certified flat-pair witness are mutually
            # exclusive surfaces.
            if verdict.klass == VerdictClass.NEAR_SUBNORMAL:
                assert verdict.certificate.flat_pair_index is None


PLATEAU_REACH = 8  # pairs scanned past each window edge; every tie lies closer


def brute_force_rules(spec: WeightSpec):
    """The rules past hyponormality, re-derived by comparing ``spec.value``
    at every index within PLATEAU_REACH of the window: returns
    (criterion, witness, first_equality, left_run_end, flat_pair_index)
    and a first-rise function over the scanned pairs. Every generated tie
    lies within the reach, and past it each tail rises strictly, unless
    it is constant."""
    lo = spec.window_start - PLATEAU_REACH
    hi = spec.window_end + PLATEAU_REACH
    values = {n: spec.value(n) for n in range(lo, hi + 2)}
    rises = {p: values[p] < values[p + 1] for p in range(lo, hi + 1)}
    assert all(values[p] <= values[p + 1] for p in rises)

    def first_rise(pair: int) -> int | None:
        return next((p for p in range(pair, hi + 1) if rises[p]), None)

    if isinstance(spec.left_tail, ConstantTail):
        rise = first_rise(spec.window_start - 1)
        if rise is None:
            return (None, None, None, None, None), first_rise
        return (Criterion.CONSTANT_LEFT, rise + 1, None, rise, None), first_rise
    equal = [p for p in rises if not rises[p]]
    if not equal:
        return (Criterion.STRICT_INCREASE, None, None, None, None), first_rise
    k = equal[0]
    rise = first_rise(k)
    if rise is None:
        return (Criterion.FLAT_TAIL, None, k, None, None), first_rise
    isolated = [e for e in equal if lo < e < hi and rises[e - 1] and rises[e + 1]]
    if isolated:
        return (Criterion.FLAT_PAIR, isolated[0], k, None, isolated[0]), first_rise
    return (Criterion.FLAT_TAIL_VIOLATION, rise + 1, k, None, None), first_rise


class TestRulesReadThePairPattern:
    """Plateau-rich specs: each rule's outcome and ``first_rise`` agree
    with a brute-force scan of the moduli."""

    def test_plateau_specs_against_brute_force(self):
        rng = random.Random(8080)
        seen = set()
        for _ in range(600):
            spec = make_plateau_spec(rng)
            expected, first_rise = brute_force_rules(spec)
            cert = classify(spec).certificate
            got = (
                cert.criterion,
                cert.witness,
                cert.first_equality,
                cert.left_run_end,
                cert.flat_pair_index,
            )
            assert got == expected, spec
            check = check_hyponormal(spec)
            for pair in range(spec.window_start - 6, spec.window_end + 6):
                assert check.first_rise(pair) == first_rise(pair), (spec, pair)
            seen.add(cert.verdict_class if cert.criterion is None else cert.criterion)
        assert seen == {VerdictClass.NORMAL, *Criterion}


class TestLeftTailEquality:
    """An exact equal pair inside the left tail (not the window)."""

    @pytest.fixture()
    def spec(self) -> WeightSpec:
        # f(n) = 2 - 1/n - (30/11)/n^2 on n <= -5: consecutive values tie at
        # the pair (-6, -5) (both 23/11) and strictly increase elsewhere.
        fn = RationalFunction.of([Fraction(-30, 11), -1, 2], [0, 0, 1])
        return WeightSpec(-4, (Fraction(3),), RationalTail(fn), ConstantTail(Fraction(3)))

    def test_tail_equality_certified(self, spec):
        check = check_hyponormal(spec)
        assert check.hyponormal
        assert check.profile.left_equalities == (-6,)
        assert check.profile.first_equality == -6
        assert spec.value(-6) == spec.value(-5) == Fraction(23, 11)

    def test_flat_pair_found_in_tail(self, spec):
        verdict = classify(spec)
        assert verdict.klass == VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL
        assert verdict.criterion == Criterion.FLAT_PAIR
        assert verdict.certificate.flat_pair_index == -6
        assert replay(verdict.certificate, spec).consistent

    def test_oracle_sees_the_obstruction(self, spec):
        from shiftcert.oracle import concordance, truncation_report

        verdict = classify(spec)
        report = truncation_report(spec, verdict, 40)
        assert [n for n, _ in report.invariance_violations] == [-5]
        magnitude = report.invariance_violations[0][1]
        exact = Fraction(23, 11) * (9 - Fraction(529, 121))
        assert magnitude == pytest.approx(float(exact), rel=1e-9)
        assert concordance(verdict, report)[0] == "agrees"


class TestScaleInvariance:
    def test_fixture_scalings(self, fixture_specs):
        rng = random.Random(1009)
        for spec in fixture_specs.values():
            base = classify(spec)
            for _ in range(4):
                c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
                scaled = classify(scale_spec(spec, c))
                assert scaled.klass == base.klass
                assert scaled.criterion == base.criterion
                assert scaled.witness == base.witness


class TestReplay:
    def test_self_replay(self, fixture_specs):
        for spec in fixture_specs.values():
            verdict = classify(spec)
            assert replay(verdict.certificate, spec).consistent

    def test_wrong_spec_detected(self, ex1, ex2):
        cert = classify(ex1).certificate
        result = replay(cert, ex2)
        assert not result.consistent
        assert result.detail

    def test_tampered_value_names_index(self, ex1):
        cert = classify(ex1).certificate
        tampered_points = []
        target = None
        for p in cert.replay_points:
            if p.kind == "gamma_sq" and p.value != 0 and target is None:
                target = p.index
                tampered_points.append(ReplayPoint(p.kind, p.index, p.value + 1))
            else:
                tampered_points.append(p)
        assert target is not None
        tampered = dataclasses.replace(cert, replay_points=tuple(tampered_points))
        result = replay(tampered, ex1)
        assert not result.consistent
        assert str(target) in result.detail

    def test_dropped_point_detected(self, ex1):
        cert = classify(ex1).certificate
        dropped = cert.replay_points[3]
        points = cert.replay_points[:3] + cert.replay_points[4:]
        result = replay(dataclasses.replace(cert, replay_points=points), ex1)
        assert not result.consistent
        assert f"{dropped.kind} at n = {dropped.index}" in result.detail

    def test_random_replay(self):
        rng = random.Random(3)
        for _ in range(30):
            spec, _, _ = random_labelled_spec(rng)
            verdict = classify(spec)
            assert replay(verdict.certificate, spec).consistent
