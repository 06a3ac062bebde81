"""Commutator diagonal and transformed-weight analysis."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from shiftcert import (
    ConstantTail,
    NotHyponormalAtIndex,
    Polynomial,
    RationalFunction,
    RationalTail,
    WeightSpec,
    bounded_on_left_ray,
    commutator_diagonal,
    transformed_weights,
)
from shiftcert import shiftcalc
from shiftcert.fixtures import two_level
from shiftcert.shiftcalc import sup_sq_global

from conftest import (
    degree_sixteen_spec,
    difference_form,
    make_flat_pair_spec,
    make_flat_tail_spec,
    make_strict_spec,
    random_valid_spec,
    translate_spec,
)


class TestCommutatorDiagonal:
    def test_seam_entry(self, ex1):
        assert commutator_diagonal(ex1).entry(0) == 3

    def test_left_tail_entry(self, ex1):
        assert commutator_diagonal(ex1).entry(-1) == Fraction(3, 4)

    def test_flat_right_entry(self):
        assert commutator_diagonal(two_level()).entry(5) == 0

    def test_seam_list_matches_pointwise(self, fixture_specs):
        for spec in fixture_specs.values():
            diag = commutator_diagonal(spec)
            for i, value in enumerate(diag.seam_values):
                assert Fraction(*value) == diag.entry(spec.window_start + i)

    def test_tail_forms_match_pointwise(self, fixture_specs):
        """On each tail's d-form ray the first difference is the difference
        of the moduli and has the sign of d_n."""
        checked = 0
        for spec in fixture_specs.values():
            diag = commutator_diagonal(spec)
            lo = spec.window_start - 1
            hi = spec.window_end + 2
            for tail, ns in (
                (spec.left_tail, range(lo - 1000, lo + 1)),
                (spec.right_tail, range(hi, hi + 1000)),
            ):
                if isinstance(tail, ConstantTail):
                    continue
                delta = difference_form(tail.fn)
                for n in ns:
                    step = delta(n)
                    assert step == spec.value(n) - spec.value(n - 1)
                    assert (step > 0) - (step < 0) == (diag.entry(n) > 0) - (diag.entry(n) < 0)
                checked += 1
        assert checked == 4

    def test_telescoping_small(self, ex2):
        diag = commutator_diagonal(ex2)
        a, b = -7, 9
        total = sum(diag.entry(n) for n in range(a + 1, b + 1))
        assert total == ex2.value(b) ** 2 - ex2.value(a) ** 2


class TestTransformedWeights:
    def test_example_one_values(self, ex1):
        tw = transformed_weights(ex1, commutator_diagonal(ex1))
        assert tw.value_sq(-1) == 4
        assert tw.left_limit_sq.value == 0
        assert tw.flat_from == 0

    def test_example_two_values(self, ex2):
        tw = transformed_weights(ex2, commutator_diagonal(ex2))
        assert tw.value_sq(1) == Fraction(9, 4)
        assert tw.right_limit_sq.value == 4
        assert tw.left_limit_sq.value == 0
        assert tw.flat_from is None

    def test_flat_zero_region(self, fixture_specs):
        tw = transformed_weights(
            fixture_specs["flatpair"], commutator_diagonal(fixture_specs["flatpair"])
        )
        assert tw.flat_from == 2
        for n in range(2, 40):
            assert tw.value_sq(n) == 0

    def test_undefined_at_obstruction(self, fixture_specs):
        spec = fixture_specs["flatpair"]
        tw = transformed_weights(spec, commutator_diagonal(spec))
        # d_1 = 0 while d_2 > 0: the conjugated operator loses its shift
        # structure exactly there.
        assert tw.value_sq(1) is None

    def test_constant_left_gives_zero_weights(self, ex3):
        tw = transformed_weights(ex3, commutator_diagonal(ex3))
        assert tw.form(0) is None
        for n in range(-30, 0):
            assert tw.value_sq(n) == 0
        assert tw.value_sq(0) is None  # d_0 = 0, d_1 > 0

    def test_forms_match_pointwise(self, ex2):
        tw = transformed_weights(ex2, commutator_diagonal(ex2))
        for n in range(-1000, ex2.window_start - 1):
            assert tw.form(0)(n) == tw.value_sq(n)
        for n in range(ex2.window_end + 2, ex2.window_end + 1000):
            assert tw.form(1)(n) == tw.value_sq(n)

    def test_forms_match_pointwise_random(self):
        """The gamma forms take the values of g_n^2; they and the difference
        forms, built as unreduced products, take the values of their
        GCD-reduced ratios on the tail rays."""
        rng = random.Random(11)
        specs = [random_valid_spec(rng) for _ in range(15)]
        wide = degree_sixteen_spec()
        for spec in [*specs, wide]:
            tw = transformed_weights(spec, commutator_diagonal(spec))
            lo, hi = spec.window_start, spec.window_end
            for tail, form, ns in (
                (spec.left_tail, tw.form(0), range(lo - 60, lo - 1)),
                (spec.right_tail, tw.form(1), range(hi + 2, hi + 60)),
            ):
                if form is None:
                    continue
                for n in ns:
                    try:
                        assert form(n) == tw.value_sq(n)
                    except NotHyponormalAtIndex:
                        break
                # Reducing the wide spec's degree-111 gamma form takes tens
                # of seconds; the values above cover it.
                unreduced = [difference_form(tail.fn)] + ([form] if spec is not wide else [])
                for f in unreduced:
                    reduced = RationalFunction.ratio(f.num, f.den)
                    for n in ns:
                        if reduced.den(n) != 0:
                            assert f(n) == reduced(n)


class TestGammaForm:
    @pytest.mark.parametrize(
        "fn",
        [
            RationalFunction.of([3]),
            RationalFunction(Polynomial((4, 4)), Polynomial((1, 1))),
        ],
        ids=["reduced", "unreduced"],
    )
    def test_a_constant_tail_has_no_form(self, fn):
        with pytest.raises(ValueError, match="constant tail"):
            shiftcalc.gamma_form(fn)


class TestBoundedOnLeftRay:
    def test_example_one_bound_attained(self, ex1):
        tw = transformed_weights(ex1, commutator_diagonal(ex1))
        assert bounded_on_left_ray(tw, -1) == 4

    def test_bound_dominates_brute_force(self, ex1):
        tw = transformed_weights(ex1, commutator_diagonal(ex1))
        bound = bounded_on_left_ray(tw, -1)
        brute = max(tw.value_sq(n) for n in range(-10**4, 0))
        assert bound == brute  # decreasing toward the tail; max at n = -1

    def test_flat_left_rejected(self, ex3):
        tw = transformed_weights(ex3, commutator_diagonal(ex3))
        with pytest.raises(ValueError):
            bounded_on_left_ray(tw, -1)

    def test_random_flat_tail_specs(self):
        rng = random.Random(99)
        specs = [make_flat_tail_spec(rng) for _ in range(10)]
        for spec in [*specs, degree_sixteen_spec()]:
            diag = commutator_diagonal(spec)
            tw = transformed_weights(spec, diag)
            assert tw.flat_from is not None
            bound = bounded_on_left_ray(tw, tw.flat_from - 1)
            values = [tw.value_sq(n) for n in range(tw.flat_from - 200, tw.flat_from)]
            # Attained on the sampled segment, or equal to the tail limit.
            assert bound == max([tw.left_limit_sq.value, *values])


class TestGlobalSup:
    def test_fixture_sups(self, ex1, ex2):
        for spec in (ex1, ex2):
            tw = transformed_weights(spec, commutator_diagonal(spec))
            assert sup_sq_global(tw) == 4

    def test_dominates_samples(self):
        rng = random.Random(5)
        for _ in range(10):
            spec = make_flat_tail_spec(rng)
            tw = transformed_weights(spec, commutator_diagonal(spec))
            sup = sup_sq_global(tw)
            for n in range(-80, 80):
                v = tw.value_sq(n)
                if v is not None:
                    assert v <= sup


def _fractions(pairs: list) -> list[Fraction | None]:
    """``pairs_sq`` values as Fractions, None kept."""
    return [None if v is None else Fraction(*v) for v in pairs]


def _peak_far_spec(k: int) -> WeightSpec:
    """Left tail f(n) = 2 + 1/((n - 2)^2 + k), increasing on n <= 0, then
    the window (f(1)) and a flat right tail: g_n^2 peaks about 1.4 sqrt(k)
    integers left of the window, past the ray's first few integers."""
    den = [4 + k, -4, 1]
    fn = RationalFunction.of([2 * den[0] + 1, 2 * den[1], 2], den)
    top = fn(1)
    return WeightSpec(1, (top,), RationalTail(fn), ConstantTail(top))


class TestSupremumCertificate:
    """The suprema are certified at the window: a scan from the ray's end,
    doubling, until Descartes' rule shows the form stays below the
    candidate. They must equal a brute-force maximum plus the limit."""

    SHIFTS = (0, 50, -50, 3000, -3000, 10**5)
    REACH = 300  # brute-force indices either side of the window

    def test_against_brute_force(self):
        rng = random.Random(1906)
        checked = 0
        for i in range(12):
            for make in (make_strict_spec, make_flat_tail_spec, make_flat_pair_spec):
                spec = translate_spec(make(rng), self.SHIFTS[i % len(self.SHIFTS)])
                tw = transformed_weights(spec, commutator_diagonal(spec))
                lo, hi = spec.window_start - self.REACH, spec.window_end + self.REACH
                values = _fractions(tw.pairs_sq(lo, hi))
                defined = [v for v in values if v is not None]
                limits = [tw.left_limit_sq.value, tw.right_limit_sq.value]
                assert sup_sq_global(tw) == max(defined + limits)
                if make is make_flat_tail_spec:
                    upto = tw.flat_from - 1
                    below = values[: upto + 1 - lo]
                    assert bounded_on_left_ray(tw, upto) == max(below + limits[:1])
                    checked += 1
        assert checked == 12

    def test_scan_doubles_past_a_far_peak(self, monkeypatch):
        spec = _peak_far_spec(1000)
        tw = transformed_weights(spec, commutator_diagonal(spec))
        values = _fractions(tw.pairs_sq(-3000, 1))
        peak = -3000 + values.index(max(values))
        assert peak < -40
        scans = []
        max_defined = shiftcalc._max_defined

        def recorded(tw, lo, hi, best):
            scans.append((lo, hi))
            return max_defined(tw, lo, hi, best)

        monkeypatch.setattr(shiftcalc, "_max_defined", recorded)
        bound = bounded_on_left_ray(tw, 0)
        assert bound == max(values + [tw.left_limit_sq.value])
        # w = 1, 2, 4, ...: each scan takes the next block of the ray.
        assert scans[:3] == [(-2, -2), (-3, -3), (-5, -4)]
        assert min(lo for lo, _ in scans) <= peak
        scans.clear()
        assert sup_sq_global(tw) == bound
        assert min(lo for lo, _ in scans) <= peak

    def test_exact_evaluations_do_not_grow_with_the_window(self, monkeypatch):
        base = make_flat_tail_spec(random.Random(3))
        pair = RationalFunction.pair
        counts = []
        for start in (10, 10**5):
            spec = translate_spec(base, start - base.window_start)
            tw = transformed_weights(spec, commutator_diagonal(spec))
            count = 0

            def counted(fn, n):
                nonlocal count
                count += 1
                return pair(fn, n)

            monkeypatch.setattr(RationalFunction, "pair", counted)
            bounded_on_left_ray(tw, tw.flat_from - 1)
            monkeypatch.setattr(RationalFunction, "pair", pair)
            counts.append(count)
        assert counts[0] == counts[1] < 10
