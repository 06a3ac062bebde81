"""Polynomial / rational-function arithmetic and ray-sign certification."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import zip_longest
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert import polycert
from shiftcert.polycert import (
    Limit,
    PoleOnRay,
    Polynomial,
    RationalFunction,
    Ray,
    RaySign,
    _exact_quotient,
    _poly,
    _pseudo_divmod,
    _slope,
    int_product,
    int_shift,
    integer_root_free_bound,
    limit_at_infinity,
    poly_gcd,
    sign_on_ray,
    sup_on_ray,
    walk_ray,
)

from conftest import (
    constant_value,
    euclid_gcd,
    fraction_divmod,
    fraction_horner,
    shift_function,
    shift_polynomial,
)

small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=6
)
coeff_lists = st.lists(small_fractions, min_size=0, max_size=5)
nonzero_coeff_lists = coeff_lists.filter(any)
polys = st.lists(st.integers(-30, 30), min_size=0, max_size=5).map(lambda cs: _poly(list(cs)))
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def rf(num, den=(1,)) -> RationalFunction:
    return RationalFunction.of(num, den)


def times(xs, ys) -> list:
    """The coefficients of the product of two coefficient lists of ints or
    Fractions, with a trailing zero when either list is empty."""
    out = [0] * max(len(xs) + len(ys) - 1, 0)
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            out[i + j] += a * b
    return out


def poly_times(p: Polynomial, q: Polynomial) -> Polynomial:
    return _poly(times(p.ints, q.ints))


def values_at(xs, count: int) -> list[Fraction]:
    """The Fraction reference values of the coefficient list xs at
    n = 0, ..., count - 1, which fix a polynomial of degree < count."""
    return [fraction_horner(xs, n) for n in range(count)]


def as_fractions(xs) -> list[Fraction]:
    return [Fraction(x) for x in xs]


# Rational coefficients with numerators and denominators up to 2^200.
wide_fractions = st.one_of(
    small_fractions,
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
)
wide_coeffs = st.lists(wide_fractions, min_size=0, max_size=6)
wide_ints = st.lists(st.one_of(st.integers(-6, 6), st.integers(-(2**200), 2**200)), min_size=0, max_size=6)
eval_points = st.one_of(st.integers(-20, 20), st.integers(-(10**40), 10**40))


class TestIntegerCore:
    """The integer core against Fraction references kept in conftest."""

    @given(wide_ints, eval_points)
    @settings(max_examples=300, deadline=None)
    def test_evaluation_matches_fraction_horner(self, cs, n):
        value = _poly(list(cs))(n)
        assert type(value) is int
        assert value == fraction_horner(cs, n)

    @given(wide_coeffs, wide_coeffs.filter(any), eval_points)
    @settings(max_examples=200, deadline=None)
    def test_rational_pair_matches_fraction_horner(self, num, den, n):
        f = RationalFunction.of(num, den)
        reduced_den = fraction_horner(f.den.ints, n)
        if reduced_den == 0:
            with pytest.raises(ZeroDivisionError):
                f.pair(n)
            return
        p, q = f.pair(n)
        assert q > 0
        assert Fraction(p, q) == f(n) == fraction_horner(f.num.ints, n) / reduced_den
        if fraction_horner(den, n) != 0:  # off the cancelled common roots
            assert f(n) == fraction_horner(num, n) / fraction_horner(den, n)

    @given(wide_coeffs)
    @settings(max_examples=150, deadline=None)
    def test_coeffs_round_trip(self, cs):
        # Written over the denominator's leading coefficient, as a spec
        # file holds it, the numerator gives the coefficients back.
        f = RationalFunction.of(cs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        lead = f.den.ints[-1]
        assert f.den.ints == (lead,) and lead > 0
        assert [Fraction(c, lead) for c in f.num.ints] == cs

    @given(polys, nonzero_polys, st.integers(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_equal_polynomials_built_differently_are_identical(self, p, q, delta):
        routes = [
            Polynomial(tuple(_exact_quotient(poly_times(p, q).ints, q.ints))),
            Polynomial(tuple(_exact_quotient(poly_times(q, p).ints, q.ints))),
            shift_polynomial(shift_polynomial(p, delta), -delta),
            _poly([*p.ints, 0, 0]),
        ]
        for built in routes:
            assert built == p
            assert hash(built) == hash(p)
            assert built.ints == p.ints

    @given(wide_ints, wide_ints.filter(any))
    @settings(max_examples=150, deadline=None)
    def test_divmod_matches_long_division(self, a, b):
        u, v = _poly(list(a)).ints, _poly(list(b)).ints
        q, r, s = _pseudo_divmod(u, v)
        ref_q, ref_r = fraction_divmod(as_fractions(u), as_fractions(v))
        assert [Fraction(c, s) for c in q] == ref_q
        assert [Fraction(c, s) for c in _poly(r).ints] == ref_r

    @given(polys, polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_prs_gcd_matches_euclid(self, a, b, common):
        a, b = poly_times(a, common), poly_times(b, common)
        g = poly_gcd(a, b)
        assert g.is_zero or (g.ints[-1] > 0 and math.gcd(*g.ints) == 1)
        monic = [Fraction(c, g.ints[-1]) for c in g.ints]
        assert monic == euclid_gcd(as_fractions(a.ints), as_fractions(b.ints))


def crossover(f: Polynomial | RationalFunction) -> int:
    """The shortest range RationalFunction.pairs evaluates by running sums."""
    polys = (f.num, f.den) if isinstance(f, RationalFunction) else (f,)
    return polycert.RUNNING_SUMS_FROM * (1 + max(0, *(p.degree for p in polys)))


def int_polys(max_degree: int) -> st.SearchStrategy[Polynomial]:
    """Integer polynomials of degree 0 to max_degree, coefficients up to 200 bits."""
    coeffs = st.one_of(st.integers(-6, 6), st.integers(-(2**200), 2**200))
    cs = st.lists(coeffs, min_size=1, max_size=max_degree + 1).filter(lambda cs: cs[-1] != 0)
    return cs.map(lambda cs: Polynomial(tuple(cs)))


starts = st.integers(-(10**6), 10**6)


def counts(data, crossover: int, side: str, least: int = 0) -> int:
    """A range length below the crossover ("short") or from it up to three
    times it ("long")."""
    if side == "short":
        return data.draw(st.integers(least, crossover - 1))
    return data.draw(st.integers(crossover, 3 * crossover))


def outcome(pairs):
    """The pairs of a thunk, or the message of the ZeroDivisionError it raised."""
    try:
        return pairs()
    except ZeroDivisionError as exc:
        return f"ZeroDivisionError: {exc}"


class TestBulkEvaluation:
    """Polynomial.values and RationalFunction.pairs equal Horner and pair
    index by index, on both sides of the running-sums crossover."""

    @pytest.mark.parametrize("side", ["short", "long"])
    @given(st.data(), st.one_of(st.just(Polynomial(())), int_polys(16)), starts)
    @settings(max_examples=150, deadline=None)
    def test_values_equal_horner(self, side, data, p, start):
        count = counts(data, crossover(p), side)
        assert p.values(start, count) == [p(n) for n in range(start, start + count)]

    @pytest.mark.parametrize("side", ["short", "long"])
    @pytest.mark.parametrize("case", ["negative", "sign-change", "zero-numerator", "pole"])
    @given(st.data(), int_polys(16), int_polys(7), starts)
    @settings(max_examples=60, deadline=None)
    def test_pairs_equal_pair_per_index(self, side, case, data, num, q, start):
        # 1 + q^2 is positive everywhere: its product with a linear factor
        # changes sign, or vanishes, only at that factor's root.
        positive = int_product(q.ints, q.ints)
        positive[0] += 1
        if case == "zero-numerator":
            num = Polynomial(())
        if case in ("negative", "zero-numerator"):
            den = Polynomial(tuple(-c for c in positive))
            f = RationalFunction(num, den)
            count = counts(data, crossover(f), side)
        else:
            # A placeholder of the final degree fixes the crossover first.
            extra = 2 if case == "pole" else 1
            count = counts(data, crossover(RationalFunction(num, Polynomial((1,) * (len(positive) + extra)))), side, 2)
            r = data.draw(st.integers(start, start + count - 2))
            if case == "sign-change":  # 2n - (2r + 1): the sign flips between r and r + 1
                den = int_product(positive, [-(2 * r + 1), 2])
            else:  # poles at r and at a later or the same index
                r2 = data.draw(st.integers(r, start + count - 1))
                den = int_product(int_product(positive, [-r, 1]), [-r2, 1])
            f = RationalFunction(num, Polynomial(tuple(den)))
        got = outcome(lambda: f.pairs(start, start + count))
        assert got == outcome(lambda: list(map(f.pair, range(start, start + count))))
        if case == "pole":
            assert got == f"ZeroDivisionError: pole at n = {r}"
        elif case == "negative":
            assert count == 0 or all(d > 0 for _, d in got)
        elif case == "zero-numerator":
            assert all(v == 0 for v, _ in got)


int_lists = st.lists(st.integers(-50, 50), min_size=1, max_size=5)


class TestPolynomialArithmetic:
    """The integer primitives the engine combines polynomials with:
    int_product, int_shift, _slope and pseudo-division, against Fraction
    references."""

    def test_difference_of_squares(self):
        assert int_product([1, 1], [-1, 1]) == [-1, 0, 1]

    @given(int_lists, st.integers(-5, 5), st.integers(-5, 5))
    @settings(max_examples=150, deadline=None)
    def test_additive_identity(self, xs, a, b):
        # Shifting by 0 is the identity, and shifts add.
        assert int_shift(xs, 0) == xs
        assert int_shift(int_shift(xs, a), b) == int_shift(xs, a + b)
        assert int_product(xs, [1]) == int_product([1], xs) == xs

    @given(int_lists, st.integers(-6, 6).filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_cancellation_gives_zero(self, xs, c):
        # p'q - pq' cancels exactly when p / q is constant.
        assert _slope(xs, xs).is_zero
        assert _slope([c * x for x in xs], xs).is_zero
        assert _slope([0, 2], [0, 2]).is_zero
        assert not _slope([1, 2], [1, 1]).is_zero

    def test_trailing_zeros_trimmed(self):
        assert rf([1, 2, 0, 0]).num == Polynomial((1, 2))
        assert _slope([0, 0, 1], [1]) == Polynomial((0, 2))

    @given(int_lists, int_lists, int_lists)
    @settings(max_examples=150, deadline=None)
    def test_ring_laws(self, a, b, c):
        def plus(xs, ys):
            return [x + y for x, y in zip_longest(xs, ys, fillvalue=0)]

        ab = int_product(a, b)
        assert int_product(ab, c) == int_product(a, int_product(b, c))
        assert int_product(a, plus(b, c)) == plus(ab, int_product(a, c))
        assert ab == int_product(b, a)
        count = len(ab)
        assert values_at(ab, count) == [x * y for x, y in zip(values_at(a, count), values_at(b, count))]

    @given(polys, nonzero_polys)
    @settings(max_examples=150, deadline=None)
    def test_division_invariant(self, a, b):
        q, r, s = _pseudo_divmod(a.ints, b.ints)
        r = _poly(r)
        assert r.is_zero or r.degree < b.degree
        # s a = q b + r at more points than the degree of either side.
        for n in range(max(a.degree, len(q) - 1 + b.degree, r.degree) + 1):
            assert s * fraction_horner(a.ints, n) == (
                fraction_horner(q, n) * fraction_horner(b.ints, n) + fraction_horner(r.ints, n)
            )
        assert _exact_quotient(poly_times(a, b).ints, b.ints) == list(a.ints)

    @given(polys, st.integers(-5, 5), st.integers(-10, 10))
    @settings(max_examples=150, deadline=None)
    def test_compose_shift_evaluates(self, p, delta, n):
        assert fraction_horner(p.ints, n + delta) == fraction_horner(int_shift(p.ints, delta), n)

    def test_derivative(self):
        # p'q - pq' of the integer polynomials: p' when q = 1.
        assert _slope([5, 3, 2], [1]) == Polynomial((3, 4))
        # (n + 1) / (n^2 + 1): (n^2 + 1) - (n + 1) 2n = 1 - 2n - n^2.
        f = rf([1, 1], [1, 0, 1])
        assert _slope(f.num.ints, f.den.ints) == Polynomial((1, -2, -1))

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert not any(_pseudo_divmod(a.ints, g.ints)[1])
        assert not any(_pseudo_divmod(b.ints, g.ints)[1])


class TestRationalFunction:
    def test_construction_is_reduced(self):
        f = rf([0, -2, 2], [0, 0, 4])  # (2n^2-2n)/(4n^2) = (n - 1) / (2n)
        assert poly_gcd(f.num, f.den).degree == 0
        assert f == RationalFunction(Polynomial((-1, 1)), Polynomial((0, 2)))

    def test_canonical_form_is_the_integer_pair(self):
        # (1/2) / (1 + n/3) = 3 / (6 + 2n): integers, content 1 jointly.
        f = rf([Fraction(1, 2)], [1, Fraction(1, 3)])
        assert f == RationalFunction(Polynomial((3,)), Polynomial((6, 2)))
        assert rf([0], [3, 5]) == RationalFunction(Polynomial(()), Polynomial((1,)))

    @given(
        wide_coeffs,
        wide_coeffs.filter(any),
        st.integers(-9, 9),
        st.integers(-9, 9).filter(bool),
        wide_fractions.filter(bool),
    )
    @settings(max_examples=150, deadline=None)
    def test_canonical_form(self, num, den, root, k, c):
        f = RationalFunction.of(num, den)
        # Coprime, joint content 1, a positive leading denominator coefficient.
        assert poly_gcd(f.num, f.den).degree == 0
        assert math.gcd(*f.num.ints, *f.den.ints) == 1
        assert f.den.ints[-1] > 0
        # The ratio's values, off the cancelled common roots.
        for n in range(-6, 7):
            if fraction_horner(den, n) != 0:
                assert f(n) == fraction_horner(num, n) / fraction_horner(den, n)
        # A planted common linear factor, or a common constant, is divided out.
        factor = [root, k]
        assert RationalFunction.of(times(num, factor), times(den, factor)) == f
        assert RationalFunction.of([c * x for x in num], [c * x for x in den]) == f
        # scale is of on the scaled numerator, without a GCD.
        with mock.patch.object(polycert, "poly_gcd", side_effect=AssertionError("scale ran a GCD")):
            scaled = f.scale(c)
        assert scaled == RationalFunction.of([c * x for x in num], den)
        assert f.scale(0) == rf([0])

    def test_shift_substitutes(self):
        assert shift_function(rf([1], [0, 1]), 1) == rf([1], [1, 1])
        assert shift_function(rf([-1, 2], [0, 1]), -1) == rf([-3, 2], [-1, 1])
        assert shift_function(rf([7]), 5) == rf([7])

    @given(coeff_lists, nonzero_coeff_lists, st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_shift_round_trip(self, num, den, delta):
        f = rf(num, den)
        assert shift_function(shift_function(f, delta), -delta) == f

    @given(coeff_lists, nonzero_coeff_lists, st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_shift_is_already_reduced(self, num, den, delta):
        g = shift_function(rf(num, den), delta)
        assert g == RationalFunction.ratio(g.num, g.den)

    def test_constant_value(self):
        # The ratio as given, not reduced: (4n + 4) / (n + 1) is 4 off its pole.
        def given(num, den):
            return RationalFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))

        cases = [
            (rf([3], [2]), Fraction(3, 2)),
            (rf([0]), 0),
            (rf([1], [0, 1]), None),
            (given([4, 4], [1, 1]), 4),
            (given([4, 2], [1, 1]), None),
            (given([2, 3, 1], [1, 1]), None),
        ]
        for f, value in cases:
            assert constant_value(f) == value
            # The engine's test: a walk has no first difference exactly on
            # a constant, and then its supremum is that constant.
            walk = walk_ray(f, Ray.ge(2))
            assert (walk.delta is None) == (value is not None)
            if value is not None:
                assert walk.sup == value


class TestRootFreeBound:
    def test_linear(self):
        assert integer_root_free_bound(Polynomial((-10, 1))) == 11

    def test_constant(self):
        assert integer_root_free_bound(Polynomial((5,))) == 1

    def test_quadratic(self):
        assert integer_root_free_bound(Polynomial((-4, 0, 1))) == 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            integer_root_free_bound(Polynomial(()))

    @given(nonzero_polys)
    @settings(max_examples=200, deadline=None)
    def test_no_sign_change_beyond_bound(self, p):
        bound = integer_root_free_bound(p)
        right = [p(n) for n in range(bound + 1, bound + 20)]
        left = [p(n) for n in range(-bound - 19, -bound)]
        assert all(v > 0 for v in right) or all(v < 0 for v in right)
        assert all(v > 0 for v in left) or all(v < 0 for v in left)


class TestSignOnRay:
    def test_positive_reciprocal_on_negatives(self):
        result = sign_on_ray(rf([-1], [0, 1]), Ray.le(-1))
        assert result == RaySign(zeros=(), negatives=())

    def test_zero_recorded_with_mixed_signs(self):
        # n^2 - 4 on n >= 1: negative at 1, zero at 2, positive after.
        result = sign_on_ray(rf([-4, 0, 1]), Ray.ge(1))
        assert result == RaySign(zeros=(2,), negatives=(1,))

    def test_zero_with_single_sign(self):
        # (n - 2)^2 on n >= 0: zero at 2, positive elsewhere.
        result = sign_on_ray(rf([4, -4, 1]), Ray.ge(0))
        assert result == RaySign(zeros=(2,), negatives=())

    def test_identity_is_mixed_on_le_three(self):
        # n on n <= 3: zero at 0, negative at every n <= -1, positive at 1,
        # 2 and 3. The walk stops at the origin, and the negative of
        # smallest |n| is -1 however far it goes.
        result = sign_on_ray(rf([0, 1]), Ray.le(3))
        assert result.zeros == (0,)
        assert min(result.negatives, key=lambda n: (abs(n), n > 0)) == -1

    def test_mixed_on_le_three_walked_past_the_origin(self):
        # n / (n^2 + 2n + 50) on n <= 3: zero at 0, negative at every
        # n <= -1 (the walked ones, then one beyond the cutoff), positive at
        # 1, 2 and 3; the turning point at n = -sqrt(50) takes the walk
        # past -1.
        result = sign_on_ray(rf([0, 1], [50, 2, 1]), Ray.le(3))
        assert result.zeros == (0,)
        negatives = result.negatives
        assert list(negatives[:-1]) == list(range(negatives[0], 0))
        assert negatives[-1] == negatives[0] - 1

    def test_identically_zero(self):
        with pytest.raises(ValueError):
            sign_on_ray(rf([0]), Ray.ge(5))

    def test_pole_reported(self):
        with pytest.raises(PoleOnRay) as excinfo:
            sign_on_ray(rf([1], [3, 1]), Ray.le(0))  # pole at n = -3
        assert excinfo.value.index == -3

    def test_ray_entirely_beyond_bound(self):
        result = sign_on_ray(rf([-1, 1]), Ray.ge(1000))  # n - 1 far right
        assert result == RaySign(zeros=(), negatives=())


class TestLimits:
    def test_degree_deficit_gives_zero(self):
        assert limit_at_infinity(rf([1], [0, 1])) == Limit(Fraction(0))

    def test_equal_degrees_give_lead_ratio(self):
        assert limit_at_infinity(rf([-1, 2], [0, 1])) == Limit(Fraction(2))

    def test_degree_excess_is_infinite(self):
        # An infinite limit is no answer: the function is rejected.
        with pytest.raises(ValueError):
            limit_at_infinity(rf([0, 0, 1], [1, 1]))

    def test_infinite_sign_flips_toward_minus_infinity(self):
        # n^3 tends to -infinity on the left: rejected like any degree excess.
        with pytest.raises(ValueError):
            limit_at_infinity(rf([0, 0, 0, 1], [1]))

    @pytest.mark.parametrize(
        "f, direction, value, tail_bound",
        [
            (rf([-1, 2], [0, 1]), 1, Fraction(2), Fraction(1, 10**8)),
            (rf([1], [0, 1]), -1, Fraction(0), Fraction(1, 10**8)),
            (rf([1, 0, 3], [2, 0, 1]), 1, Fraction(3), Fraction(1, 10**9)),
        ],
    )
    def test_limit_agrees_with_far_evaluation(self, f, direction, value, tail_bound):
        assert limit_at_infinity(f) == Limit(value)
        far = f(direction * 10**9)
        assert abs(far - value) < tail_bound


class TestSupOnRay:
    def test_constant(self):
        assert sup_on_ray(rf([5, 0, 5], [1, 0, 1]), Ray.ge(0)) == 5

    def test_sup_attained_inside_segment(self):
        # 1/n^2 on n <= -1 peaks at n = -1.
        assert sup_on_ray(rf([1], [0, 0, 1]), Ray.le(-1)) == 1

    def test_sup_is_limit_when_increasing_outward(self):
        # 2 - 1/n increases toward 2 on n >= 1.
        assert sup_on_ray(rf([-1, 2], [0, 1]), Ray.ge(1)) == 2

    def test_hump_past_the_root_bound_is_found(self):
        # -(n - 30)(n - 50) / (n^2 + 1) is positive only between 30 and 50
        # and peaks at 96/1445 at n = 38, beyond 32 steps from the bound.
        f = rf([-1500, 80, -1], [1, 0, 1])
        sup = sup_on_ray(f, Ray.ge(0))
        brute = max(f(n) for n in range(0, 200))
        assert sup == brute == f(38) == Fraction(96, 1445)
        assert 38 > 32

    def test_unbounded(self):
        with pytest.raises(ValueError):
            sup_on_ray(rf([0, 0, 1], [1, 1]), Ray.ge(0))

    def test_pole_comes_before_degree_excess(self):
        # n^2 / (n + 3) on n <= 0 has no finite limit and a pole at -3; the
        # walk runs first, so the pole is what gets reported.
        with pytest.raises(PoleOnRay) as excinfo:
            sup_on_ray(rf([0, 0, 1], [3, 1]), Ray.le(0))
        assert excinfo.value.index == -3
        with pytest.raises(ValueError, match="no finite limit"):
            sup_on_ray(rf([0, 0, 1], [3, 1]), Ray.ge(0))

    @given(
        st.lists(small_fractions, min_size=1, max_size=4),
        st.lists(small_fractions, min_size=1, max_size=4),
        st.integers(-10, 10),
        st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_sup_dominates_samples(self, num, den, a, is_le):
        if not any(den):
            return
        f = rf(num, den)
        ray = Ray.le(a) if is_le else Ray.ge(a)
        if f.num.degree > f.den.degree:
            with pytest.raises(ValueError):
                sup_on_ray(f, ray)
            return
        try:
            sup = sup_on_ray(f, ray)
        except PoleOnRay:
            return
        step = -1 if is_le else 1
        for offset in range(0, 300):
            n = a + step * offset
            assert f(n) <= sup
