"""Weight description validation and exact evaluation."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from shiftcert import (
    ConstantTail,
    RationalFunction,
    RationalTail,
    WeightSpec,
    scale_spec,
    validate,
)

from conftest import RECIPES, fraction_horner, make_plateau_spec, random_valid_spec


class TestValidate:
    def test_example_one_bound(self, ex1):
        report = validate(ex1)
        assert report.ok
        assert report.sup_bound == 2

    def test_zero_window_value(self):
        spec = WeightSpec(0, (Fraction(0),), ConstantTail(Fraction(1)), ConstantTail(Fraction(1)))
        report = validate(spec)
        assert not report.ok
        assert any(v.code == "zero-weight" for v in report.violations)

    def test_unbounded_tail(self):
        spec = WeightSpec(
            0,
            (Fraction(1),),
            RationalTail(RationalFunction.of([0, -1])),  # -n, positive on the left
            ConstantTail(Fraction(1)),
        )
        report = validate(spec)
        assert any(v.code == "unbounded-tail" for v in report.violations)

    def test_pole_on_tail_domain(self):
        spec = WeightSpec(
            0,
            (Fraction(1),),
            RationalTail(RationalFunction.of([-1], [5, 1])),  # pole at n = -5
            ConstantTail(Fraction(1)),
        )
        report = validate(spec)
        assert any(v.code == "tail-pole" for v in report.violations)

    def test_tail_with_zero_value(self):
        spec = WeightSpec(
            0,
            (Fraction(1),),
            RationalTail(RationalFunction.of([2, 1], [0, 1])),  # (n+2)/n: zero at -2
            ConstantTail(Fraction(1)),
        )
        report = validate(spec)
        assert any(v.code == "nonpositive-tail" for v in report.violations)

    @pytest.mark.parametrize(
        "side, num, den, detail",
        [
            ("left", [-3, 1], [1, 0, 1], "left tail: negative value at n = -1"),
            ("left", [-2, 0, -1], [1, 0, 1], "left tail: negative value at n = -1"),
            ("right", [-7, 1], [1, 0, 1], "right tail: zero weight at n = 7"),
            ("left", [0], [1], "left tail: not strictly positive"),
            ("left", [-1], [5, 1], "left tail denominator vanishes at n = -5"),
        ],
    )
    def test_tail_violation_detail(self, side, num, den, detail):
        # The lowest pole or zero, else the negative value of smallest |n|, is named.
        tail = RationalTail(RationalFunction.of(num, den))
        one = ConstantTail(Fraction(1))
        left, right = (tail, one) if side == "left" else (one, tail)
        report = validate(WeightSpec(0, (Fraction(1),), left, right))
        assert [v.detail for v in report.violations] == [detail]

    def test_degree_cap(self):
        coeffs = [0] * 18 + [1]
        spec = WeightSpec(
            0,
            (Fraction(1),),
            ConstantTail(Fraction(1)),
            RationalTail(RationalFunction.of([1], coeffs)),
        )
        report = validate(spec)
        assert any(v.code == "degree-cap" for v in report.violations)

    def test_sup_bound_covers_samples(self):
        rng = random.Random(20240817)
        for _ in range(25):
            spec = random_valid_spec(rng)
            report = validate(spec)
            assert report.ok
            for n in range(-60, 61):
                assert spec.value(n) <= report.sup_bound


class TestTailWalks:
    """A spec keeps one walk per varying tail, each in its own memo."""

    # Poles at n = -5 on the left ray n <= -1 and at n = 5 on the right ray
    # n >= 1; -1/n and (2n + 1)/(n + 1) are valid tails on those rays.
    POLE = {"left": RationalFunction.of([1], [5, 1]), "right": RationalFunction.of([1], [-5, 1])}
    VALID = {"left": RationalFunction.of([-1], [0, 1]), "right": RationalFunction.of([1, 2], [1, 1])}

    @pytest.mark.parametrize("side, other, index", [("left", "right", -5), ("right", "left", 5)])
    def test_pole_names_only_its_tail(self, side, other, index):
        tails = {side: RationalTail(self.POLE[side]), other: RationalTail(self.VALID[other])}
        spec = WeightSpec(0, (Fraction(2),), tails["left"], tails["right"])
        report = validate(spec)
        assert [v.detail for v in report.violations] == [
            f"{side} tail denominator vanishes at n = {index}"
        ]
        walk = spec.walk(["left", "right"].index(other))
        assert walk is not None and not walk.sign.negatives
        assert spec.walk(["left", "right"].index(other)) is walk

    def test_constant_tails_have_no_walk(self, ex3):
        assert ex3.walk(0) is None and ex3.walk(1) is None

    def test_a_rebuilt_spec_walks_afresh(self, ex2):
        spec = WeightSpec(*ex2)
        assert validate(spec).ok
        fresh = WeightSpec(*spec)
        assert fresh == spec
        assert "_walks" not in vars(fresh)
        assert fresh.walk(0) == spec.walk(0) and fresh.walk(0) is not spec.walk(0)
        assert fresh.walk(1) == spec.walk(1) and fresh.walk(1) is not spec.walk(1)


class TestEvaluation:
    def test_left_tail_modulus(self, ex1):
        assert ex1.value(-3) == Fraction(1, 3)

    def test_window_value(self, ex2):
        assert ex2.value(0) == Fraction(2, 3)

    def test_right_tail_formula(self, ex2):
        assert ex2.value(4) == Fraction(7, 4)

    def test_positive_on_wide_range(self, fixture_specs):
        # Positivity over every integer is certified by validate; corroborate
        # on a dense band plus geometric samples out to 10^6.
        samples = list(range(-400, 401)) + [
            s * 10**k for k in range(3, 7) for s in (-1, 1)
        ]
        for spec in fixture_specs.values():
            for n in samples:
                assert spec.value(n) > 0


def reference_modulus(spec: WeightSpec, n: int) -> Fraction:
    """|beta_n| from the window value or, on a tail, the constant or the
    ratio of its coefficients evaluated by Horner's rule in Fractions."""
    if spec.window_start <= n <= spec.window_end:
        return spec.window_values[n - spec.window_start]
    tail = spec.left_tail if n < spec.window_start else spec.right_tail
    if isinstance(tail, ConstantTail):
        return tail.value
    return fraction_horner(tail.fn.num.ints, n) / fraction_horner(tail.fn.den.ints, n)


class TestValuePairs:
    """The region-wise range evaluator against a Fraction reference."""

    @staticmethod
    def _ranges(spec: WeightSpec, rng: random.Random):
        ws, we = spec.window_start, spec.window_end + 1  # we: first right-tail index
        yield from (
            (ws - 9, ws - 2),  # left of the window
            (ws, we),  # the window
            (ws + 1, we),  # inside it
            (we + 1, we + 8),  # right of it
            (ws - 3, ws + 1),  # across the left seam
            (we - 1, we + 3),  # across the right seam
            (ws - 5, we + 5),  # across both
            (ws, ws),  # empty
            (we + 3, ws - 3),  # start past stop
        )
        for _ in range(6):
            yield rng.randint(ws - 12, we + 12), rng.randint(ws - 12, we + 12)

    def test_matches_the_fraction_reference(self):
        rng = random.Random(1313)
        makers = [maker for maker, _, _ in RECIPES] + [make_plateau_spec]
        for _ in range(25):
            for maker in makers:
                spec = maker(rng)
                for a, b in self._ranges(spec, rng):
                    pairs = spec.value_pairs(a, b)
                    assert len(pairs) == max(b - a, 0)
                    assert all(q > 0 for _, q in pairs)
                    expected = [reference_modulus(spec, n) for n in range(a, b)]
                    assert [Fraction(p, q) for p, q in pairs] == expected
                    assert [spec.value(n) for n in range(a, b)] == expected

    @pytest.mark.parametrize("a, b", [(-9, 12), (-9, -2), (3, 12), (-5, -4), (7, 9)])
    def test_pole_raises_where_the_loop_does(self, a, b):
        # Poles at n = -5 on the left tail and n = 7 on the right one.
        spec = WeightSpec(
            0,
            (Fraction(1), Fraction(2), Fraction(3)),
            RationalTail(RationalFunction.of([1], [5, 1])),
            RationalTail(RationalFunction.of([1], [-7, 1])),
        )
        pole = next(n for n in (-5, 7) if a <= n < b)  # the first one an ascending loop meets
        with pytest.raises(ZeroDivisionError) as got:
            spec.value_pairs(a, b)
        assert str(got.value) == f"pole at n = {pole}"


class TestScaling:
    def test_scale_values(self, ex2):
        scaled = scale_spec(ex2, Fraction(3, 2))
        for n in range(-10, 11):
            assert scaled.value(n) == ex2.value(n) * Fraction(3, 2)

    def test_scale_requires_positive(self, ex1):
        with pytest.raises(ValueError):
            scale_spec(ex1, Fraction(0))

    def test_scale_bound(self, ex1):
        assert validate(scale_spec(ex1, Fraction(5))).sup_bound == 10
