"""Cross-cutting randomized invariants tying the engine's layers together."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from shiftcert import (
    ConstantTail,
    Limit,
    PoleOnRay,
    RationalFunction,
    RationalTail,
    Ray,
    WeightSpec,
    check_hyponormal,
    classify,
    commutator_diagonal,
    limit_at_infinity,
    replay,
    sign_on_ray,
    sup_on_ray,
    transformed_weights,
    validate,
)
from shiftcert import polycert
from shiftcert.polycert import RaySign, int_product, int_shift, walk_ray
from shiftcert.classifier import VerdictClass, _tail_violation
from shiftcert.shiftcalc import NotHyponormalAtIndex
from shiftcert.weights import scale_spec
from shiftcert.oracle import build_truncation, concordance, truncation_report

from conftest import (
    _int_eval,
    brute_force_ray_argmax,
    brute_force_ray_sign,
    constant_value,
    difference_form,
    int_difference,
    random_labelled_spec,
    shift_function,
)


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


def brute_force_sup(f: RationalFunction, ray: Ray) -> Fraction:
    """Largest value on the scanned segment, or the finite limit when it
    exceeds that."""
    return max(f(brute_force_ray_argmax(f, ray)), limit_at_infinity(f).value)


def factored_rational_function(rng: random.Random) -> RationalFunction:
    """Products of linear factors with integer roots, so a ray often holds
    several zeros and several poles."""

    def factors():
        c = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9))
        ints = [1]
        for _ in range(rng.randint(0, 3)):
            ints = int_product(ints, [rng.randint(-25, 25), 1])
        return [c * x for x in ints]

    return RationalFunction.of(factors(), factors())


class TestSignCertificationAgainstBruteForce:
    def test_sample(self):
        for make in (random_rational_function, factored_rational_function):
            rng = random.Random(20011)
            checked = poles = 0
            while checked < 40:
                f = make(rng)
                bound = rng.randint(-20, 20)
                ray = Ray.le(bound) if rng.random() < 0.5 else Ray.ge(bound)
                brute = brute_force_ray_sign(f, ray)
                if brute[0] == "pole":
                    for question in (sign_on_ray, sup_on_ray):
                        with pytest.raises(PoleOnRay) as raised:
                            question(f, ray)
                        assert raised.value.index == brute[1]
                    poles += 1
                    continue
                zeros, _, has_neg = brute
                if f.is_zero:
                    with pytest.raises(ValueError):
                        sign_on_ray(f, ray)
                else:
                    verdict = sign_on_ray(f, ray)
                    assert list(verdict.zeros) == zeros
                    assert bool(verdict.negatives) == has_neg
                if f.num.degree <= f.den.degree:
                    assert sup_on_ray(f, ray) == brute_force_sup(f, ray)
                else:
                    with pytest.raises(ValueError):
                        sup_on_ray(f, ray)
                checked += 1
            assert poles > 0


def hump_rational_function(rng: random.Random) -> RationalFunction:
    """-(n - a)(n - b) / (n^2 + c), mirrored or not, with 30 <= a < b <= 60:
    positive only between a and b, and turning there, more than 32 steps
    from 0."""
    a = rng.randint(30, 50)
    b = a + rng.randint(2, 10)
    sign = rng.choice([-1, 1])
    num = [-a * b, sign * (a + b), -1]
    return RationalFunction.of(num, [rng.randint(1, 9), 0, 1])


def sloped_rational_function(rng: random.Random) -> RationalFunction:
    """(2n - 2r - 1) / (n^2 + e n + c) with no real pole, negated or not:
    no integer zero, and a turning point about twice as far out as the
    root, so f is often walked past the cutoff its negatives are read
    within."""
    e = rng.randint(-2, 2)
    c = e * e // 4 + rng.randint(1, 3)
    num = [-2 * rng.randint(-40, 40) - 1, 2]
    if rng.random() < 0.5:
        num = [-a for a in num]
    return RationalFunction.of(num, [c, e, 1])


def _brute_force_delta(f: RationalFunction, ray: Ray, span: int = 10**4):
    """The first difference f(n) - f(n-1) at each n of the ray within span
    whose n - 1 is on the ray too, from consecutive integer evaluations:
    (its zeros, its negatives)."""
    num, den = f.num.ints, f.den.ints
    if ray.kind == "le":
        points = range(ray.bound - span, ray.bound + 1)
    else:
        points = range(ray.bound, ray.bound + span + 1)
    zeros, negatives = [], []
    prev = None
    for n in points:
        a, b = _int_eval(num, n) if num else 0, _int_eval(den, n)
        if b < 0:
            a, b = -a, -b
        if prev is not None:
            step = a * prev[1] - prev[0] * b
            if step == 0:
                zeros.append(n)
            elif step < 0:
                negatives.append(n)
        prev = (a, b)
    return zeros, negatives


def _expected_tail_message(f: RationalFunction, ray: Ray, side: str, span: int = 10**4) -> str:
    """The validation message of a tail f on its ray, from a scan of the
    ray's first 10^4 integers: the lowest integer pole; else the lowest
    zero; else the negative value of smallest |n|, ties toward negative."""
    num, den = f.num.ints, f.den.ints
    if ray.kind == "le":
        points = range(ray.bound - span, ray.bound + 1)
    else:
        points = range(ray.bound, ray.bound + span + 1)
    zeros, negatives = [], []
    for n in points:
        b = _int_eval(den, n)
        if b == 0:
            return f"{side} tail denominator vanishes at n = {n}"
        a = _int_eval(num, n) if num else 0
        if a == 0:
            zeros.append(n)
        elif (a < 0) != (b < 0):
            negatives.append(n)
    if zeros:
        return f"{side} tail: zero weight at n = {zeros[0]}"
    assert negatives, "only called on a tail that is not positive"
    return f"{side} tail: negative value at n = {min(negatives, key=lambda n: (abs(n), n > 0))}"


def _tail_spec(f: RationalFunction, ray: Ray) -> tuple[WeightSpec, str]:
    """A spec with f as its tail on this ray, the other tail a positive
    constant, and the side f is on."""
    one, tail = Fraction(1), RationalTail(f)
    if ray.kind == "le":
        return WeightSpec(ray.bound + 1, (one,), tail, ConstantTail(one)), "left"
    return WeightSpec(ray.bound - 1, (one,), ConstantTail(one), tail), "right"


class TestWalkAgainstBruteForce:
    """One walk of f on a ray against independent scans of the ray's first
    10^4 integers: f's zeros, negatives and supremum, the zeros and
    negatives of its first difference, and the validation message of f as a
    tail."""

    def _cases(self):
        rng = random.Random(1818)
        makers = (
            random_rational_function,
            factored_rational_function,
            hump_rational_function,
            sloped_rational_function,
        )
        for i in range(72):
            f = makers[i % 4](rng)
            if rng.random() < 0.5:
                f = shift_function(f, rng.randint(-30, 30))
            # Rays crossing 0, and rays far from it pointing either way.
            if i % 5:
                bound = rng.randint(-40, 40)
            else:
                bound = rng.choice([-1, 1]) * rng.randint(3000, 8000)
            yield f, Ray.le(bound) if rng.random() < 0.5 else Ray.ge(bound)

    def test_sample(self):
        poles = delta_negatives = invalid = far = 0
        for f, ray in self._cases():
            far += abs(ray.bound) > 100
            brute = brute_force_ray_sign(f, ray)
            if brute[0] == "pole":
                with pytest.raises(PoleOnRay) as raised:
                    walk_ray(f, ray)
                assert raised.value.index == brute[1]
                poles += 1
            else:
                walk = walk_ray(f, ray)
                zeros, _, has_neg = brute
                if not f.is_zero:
                    assert list(walk.sign.zeros) == zeros
                    assert bool(walk.sign.negatives) == has_neg
                if f.num.degree <= f.den.degree:
                    assert walk.sup == brute_force_sup(f, ray)
                else:
                    assert walk.sup is None
                if constant_value(f) is not None:
                    assert walk.delta is None
                    continue
                step_zeros, step_negatives = _brute_force_delta(f, ray)
                assert list(walk.delta.zeros) == step_zeros
                assert bool(walk.delta.negatives) == bool(step_negatives)
                if step_negatives:
                    # The smallest-|n| violating pair, as the classifier reads it.
                    assert _tail_violation(walk.delta) == _tail_violation(
                        RaySign((), tuple(step_negatives))
                    )
                    delta_negatives += 1
            if f.is_zero or f.num.degree > f.den.degree:
                continue
            spec, side = _tail_spec(f, ray)
            report = validate(spec)
            if not report.ok:
                assert [v.detail for v in report.violations] == [
                    _expected_tail_message(f, ray, side)
                ]
                invalid += 1
        assert poles > 3 and delta_negatives > 10 and invalid > 10 and far > 5

    @staticmethod
    def _answers(f: RationalFunction, ray: Ray):
        """Every index and value a walk of f on the ray reports, and f's
        validation messages as a tail there."""
        try:
            walk = walk_ray(f, ray)
        except PoleOnRay as exc:
            return ("pole", exc.index)
        negatives = walk.sign.negatives
        nearest = min(negatives, key=lambda n: (abs(n), n > 0)) if negatives else None
        delta = walk.delta
        step = None
        if delta is not None:
            witness = _tail_violation(delta) if delta.negatives else None
            step = (delta.zeros, witness)
        messages = None
        if not f.is_zero and f.num.degree <= f.den.degree:
            messages = [v.detail for v in validate(_tail_spec(f, ray)[0]).violations]
        return walk.sign.zeros, nearest, walk.sup, step, messages

    def test_answers_do_not_depend_on_the_cutoff(self, monkeypatch):
        # A larger cutoff walks further; it must not change what is named.
        cases = list(self._cases())
        expected = [self._answers(f, ray) for f, ray in cases]
        cutoff = polycert.ray_root_free_cutoff
        monkeypatch.setattr(
            polycert, "ray_root_free_cutoff", lambda ray, *polys: 2 * cutoff(ray, *polys) + 17
        )
        assert [self._answers(f, ray) for f, ray in cases] == expected


def random_tail(rng: random.Random) -> RationalTail:
    """(a m^2 + b m + c) / (m^2 + e m + h) at m = n + s: bounded, often not
    monotone, with its turning points anywhere near |n| <= 40."""
    num = [rng.randint(-20, 20), rng.randint(-9, 9), rng.randint(1, 6)]
    den = [rng.randint(1, 30), rng.randint(-9, 9), 1]
    return RationalTail(shift_function(RationalFunction.of(num, den), rng.randint(-40, 40)))


def brute_force_violation(spec: WeightSpec, span: int = 2000) -> int | None:
    """Smallest-|n| pair with |beta_n| > |beta_{n+1}| (ties toward
    negative), scanning outward from 0."""
    for n in [0] + [k for m in range(1, span) for k in (-m, m)]:
        if spec.value(n) > spec.value(n + 1):
            return n
    return None


class TestTailWitnessAgainstBruteForce:
    def test_random_rational_tails(self):
        rng = random.Random(5150)
        witnesses = []
        while len(witnesses) < 40:
            start = rng.randint(-30, 30)
            spec = WeightSpec(
                start,
                tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))),
                random_tail(rng) if rng.random() < 0.8 else ConstantTail(Fraction(1)),
                random_tail(rng) if rng.random() < 0.8 else ConstantTail(Fraction(9)),
            )
            if not validate(spec).ok:
                continue
            check = check_hyponormal(spec)
            expected = brute_force_violation(spec)
            assert check.hyponormal == (expected is None)
            assert check.witness == expected
            if expected is not None:
                witnesses.append((expected, spec.window_start, spec.window_end))
        # Witnesses inside each tail, on both sides of 0.
        left = [n for n, first, _ in witnesses if n <= first - 2]
        right = [n for n, _, last in witnesses if n >= last + 1]
        assert min(left) < 0 < max(left)
        assert min(right) < 0 < max(right)


def random_bounded_tail(rng: random.Random, direction: int) -> RationalTail:
    """num / den with deg num <= deg den <= 3, positive leading ratio toward
    the tail's infinity, at a random shift; often not monotone."""
    den_degree = rng.randint(0, 3)
    num = [rng.randint(-6, 6) for _ in range(rng.randint(0, den_degree))]
    num.append(Fraction(rng.randint(1, 9), rng.randint(1, 4)))
    den = [rng.randint(-6, 6) for _ in range(den_degree)] + [1]
    if direction < 0:  # f(-n): the same shape toward -infinity
        num = [c * (-1) ** i for i, c in enumerate(num)]
        den = [c * (-1) ** i for i, c in enumerate(den)]
    return RationalTail(shift_function(RationalFunction.of(num, den), rng.randint(-8, 8)))


def random_bounded_tail_spec(rng: random.Random, reach: int = 20) -> WeightSpec:
    """A valid spec with a random window starting in [-reach, reach] and a
    random_bounded_tail on each side, each tail redrawn until it validates
    on its own ray."""
    start = rng.randint(-reach, reach)
    window = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 3)) for _ in range(rng.randint(1, 3)))
    flat = ConstantTail(Fraction(1))
    left = right = None
    while left is None or not validate(WeightSpec(start, window, left, flat)).ok:
        left = random_bounded_tail(rng, -1)
    while right is None or not validate(WeightSpec(start, window, flat, right)).ok:
        right = random_bounded_tail(rng, 1)
    return WeightSpec(start, window, left, right)


class TestTransformLimitIsSquaredWeightLimit:
    def test_random_rational_tails(self):
        """The tail limits transformed_weights reads off the weights equal
        the limits of the symbolic transform forms."""
        rng = random.Random(7071)
        not_hyponormal = 0
        for _ in range(2000):
            spec = random_bounded_tail_spec(rng)
            tw = transformed_weights(spec, commutator_diagonal(spec))
            for form, limit in (
                (tw.form(0), tw.left_limit_sq),
                (tw.form(1), tw.right_limit_sq),
            ):
                if form is None:
                    assert limit == Limit(Fraction(0))
                else:
                    assert limit == limit_at_infinity(form)
            # A negative seam entry certifies a spec that is not hyponormal.
            # The smallest pair has the smallest numerator, whose sign it has.
            not_hyponormal += min(commutator_diagonal(spec).seam_values)[0] < 0
        assert 100 < not_hyponormal < 1900


def _fraction_gammas(spec: WeightSpec, start: int, stop: int):
    """Reference g_n^2 for start <= n < stop and d_n for start <= n <= stop,
    in Fraction arithmetic; ("raises", n, d_n) where the range evaluator
    must raise NotHyponormalAtIndex."""
    squares = [spec.value(n) ** 2 for n in range(start - 1, stop + 1)]
    diag = [b - a for a, b in zip(squares, squares[1:])]
    gammas = []
    for k, n in enumerate(range(start, stop)):
        d, d_next = diag[k], diag[k + 1]
        if d < 0 or d_next < 0:
            return ("raises", n if d < 0 else n + 1, min(d, d_next)), diag
        if d > 0:
            gammas.append(squares[k + 1] * d_next / d)
        else:
            gammas.append(Fraction(0) if d_next == 0 else None)
    return gammas, diag


class TestRangeEvaluatorAgainstFractions:
    """Int pairs and floats of the range evaluator against Fraction
    arithmetic, on random specs, some scaled by large-bit rationals."""

    def _specs(self):
        rng = random.Random(3141)
        for i in range(240):
            spec = random_labelled_spec(rng)[0] if i % 2 else random_bounded_tail_spec(rng)
            if i % 3 == 0:
                spec = scale_spec(spec, Fraction(rng.randint(1, 2**120), rng.randint(1, 2**90)))
            yield spec

    def test_pairs_and_floats_match_fractions(self):
        raised = 0
        for spec in self._specs():
            lo, hi = spec.window_start - 6, spec.window_end + 7
            half_width = max(-lo, hi)
            floats = build_truncation(spec, half_width, 1e-9).subdiagonal
            for n in range(lo, hi):
                [(p, q)] = spec.value_pairs(n, n + 1)
                assert q > 0 and Fraction(p, q) == spec.value(n)
                assert floats[n + half_width] == float(spec.value(n))
            diag = commutator_diagonal(spec)
            expected, expected_diag = _fraction_gammas(spec, lo, hi)
            assert [Fraction(*d) for d in diag.entry_pairs(lo, hi + 1)] == expected_diag
            assert [diag.entry(n) for n in range(lo, hi + 1)] == expected_diag
            tw = transformed_weights(spec, diag)
            if isinstance(expected, tuple):
                with pytest.raises(NotHyponormalAtIndex) as excinfo:
                    tw.pairs_sq(lo, hi)
                assert (excinfo.value.index, excinfo.value.value) == expected[1:]
                raised += 1
                continue
            pairs = tw.pairs_sq(lo, hi)
            assert [None if v is None else Fraction(*v) for v in pairs] == expected
            assert all(v is None or v[1] > 0 for v in pairs)
            assert [tw.value_sq(n) for n in range(lo, hi)] == expected
        assert raised > 10


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


def _tail_rays(spec: WeightSpec):
    """Each tail with its d-form ray: the n with n and n - 1 in the tail."""
    return (
        (spec.left_tail, Ray.le(spec.window_start - 1)),
        (spec.right_tail, Ray.ge(spec.window_end + 2)),
    )


class TestHyponormalityLink:
    def test_verdict_matches_diagonal_signs(self):
        rng = random.Random(808)
        for _ in range(40):
            spec, _, _ = random_labelled_spec(rng)
            diag = commutator_diagonal(spec)
            sampled_nonneg = all(diag.entry(n) >= 0 for n in range(-60, 61))
            tails_ok = all(
                isinstance(tail, ConstantTail)
                or not sign_on_ray(difference_form(tail.fn), ray).negatives
                for tail, ray in _tail_rays(spec)
            )
            assert check_hyponormal(spec).hyponormal == (sampled_nonneg and tails_ok)


class TestFirstDifferenceSignsTheDiagonal:
    def test_random_positive_tails(self):
        """On a positive tail, f(n) - f(n-1) and f(n)^2 - f(n-1)^2 get the
        same zeros and smallest-|n| violating pair."""
        rng = random.Random(6161)
        violations = zeros = 0
        for _ in range(300):
            spec = random_bounded_tail_spec(rng, reach=30)
            for tail, ray in _tail_rays(spec):
                if constant_value(tail.fn) is not None:
                    continue
                p, q = tail.fn.num.ints, tail.fn.den.ints
                pm, qm = int_shift(p, -1), int_shift(q, -1)

                def squares(x, y):  # x^2 y^2
                    return int_product(int_product(x, x), int_product(y, y))

                square = RationalFunction.of(
                    int_difference(squares(p, qm), squares(pm, q)), squares(q, qm)
                )
                by_delta = sign_on_ray(difference_form(tail.fn), ray)
                by_square = sign_on_ray(square, ray)
                assert by_delta.zeros == by_square.zeros
                assert bool(by_delta.negatives) == bool(by_square.negatives)
                if by_delta.negatives:
                    assert _tail_violation(by_delta) == _tail_violation(by_square)
                    violations += 1
                zeros += bool(by_delta.zeros)
        assert violations > 100 and zeros > 0


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
