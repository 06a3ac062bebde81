"""Polynomial / rational-function arithmetic and ray-sign certification."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert.polycert import (
    Limit,
    PoleOnRay,
    Polynomial,
    RationalFunction,
    Ray,
    RaySign,
    integer_root_free_bound,
    limit_at_infinity,
    poly_gcd,
    sign_on_ray,
    sup_on_ray,
)

from conftest import euclid_gcd, fraction_divmod, fraction_horner

small_fractions = st.fractions(
    min_value=-6, max_value=6, max_denominator=6
)
polys = st.lists(small_fractions, min_size=0, max_size=5).map(
    lambda cs: Polynomial.of(*cs)
)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def rf(num, den=(1,)) -> RationalFunction:
    return RationalFunction.of(num, den)


# Rational coefficients with numerators and denominators up to 2^200.
wide_fractions = st.one_of(
    small_fractions,
    st.builds(Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)),
)
wide_coeffs = st.lists(wide_fractions, min_size=0, max_size=6)
eval_points = st.one_of(st.integers(-20, 20), st.integers(-(10**40), 10**40))


class TestIntegerCore:
    """The integer core against Fraction references kept in conftest."""

    @given(wide_coeffs, eval_points)
    @settings(max_examples=300, deadline=None)
    def test_evaluation_matches_fraction_horner(self, cs, n):
        p = Polynomial.of(*cs)
        value = p(n)
        assert value == fraction_horner(cs, n)
        if p.denom == 1:
            assert type(value) is int

    @given(wide_coeffs, wide_coeffs.filter(lambda cs: any(cs)), eval_points)
    @settings(max_examples=200, deadline=None)
    def test_rational_pair_matches_fraction_horner(self, num, den, n):
        f = RationalFunction.of(num, den)
        reduced_den = fraction_horner(f.den.coeffs, n)
        if reduced_den == 0:
            with pytest.raises(ZeroDivisionError):
                f.pair(n)
            return
        p, q = f.pair(n)
        assert q > 0
        assert Fraction(p, q) == f(n) == fraction_horner(f.num.coeffs, n) / reduced_den
        if fraction_horner(den, n) != 0:  # off the cancelled common roots
            assert f(n) == fraction_horner(num, n) / fraction_horner(den, n)

    @given(wide_coeffs)
    @settings(max_examples=150, deadline=None)
    def test_coeffs_round_trip(self, cs):
        p = Polynomial.of(*cs)
        while cs and cs[-1] == 0:
            cs = cs[:-1]
        assert p.coeffs == tuple(cs)
        assert p.denom > 0
        assert math.gcd(p.denom, *p.ints) == 1

    @given(polys, nonzero_polys, st.integers(-5, 5), wide_fractions.filter(bool))
    @settings(max_examples=150, deadline=None)
    def test_equal_polynomials_built_differently_are_identical(self, p, q, delta, c):
        routes = [
            (p * q).divmod(q)[0],
            (p + q) - q,
            p.compose_shift(delta).compose_shift(-delta),
            p.scale(c).scale(1 / c),
            Polynomial.of(*p.coeffs, 0, 0),
        ]
        for built in routes:
            assert built == p
            assert hash(built) == hash(p)
            assert (built.ints, built.denom) == (p.ints, p.denom)

    @given(wide_coeffs, wide_coeffs.filter(lambda cs: any(cs)))
    @settings(max_examples=150, deadline=None)
    def test_divmod_matches_long_division(self, a, b):
        p, d = Polynomial.of(*a), Polynomial.of(*b)
        q, r = p.divmod(d)
        ref_q, ref_r = fraction_divmod(list(p.coeffs), list(d.coeffs))
        assert q.coeffs == tuple(c for c in Polynomial.of(*ref_q).coeffs)
        assert r.coeffs == tuple(ref_r)

    @given(polys, polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_prs_gcd_matches_euclid(self, a, b, common):
        a, b = a * common, b * common
        assert list(poly_gcd(a, b).coeffs) == euclid_gcd(list(a.coeffs), list(b.coeffs))


class TestPolynomialArithmetic:
    def test_difference_of_squares(self):
        assert Polynomial.of(1, 1) * Polynomial.of(-1, 1) == Polynomial.of(-1, 0, 1)

    def test_additive_identity(self):
        p = Polynomial.of(3, 0, 2)
        assert p + Polynomial.zero() == p

    def test_cancellation_gives_zero(self):
        p = Polynomial.of(0, 2)
        assert (p - p).is_zero

    def test_trailing_zeros_trimmed(self):
        assert Polynomial.of(1, 2, 0, 0).coeffs == (Fraction(1), Fraction(2))

    @given(polys, polys, polys)
    @settings(max_examples=150, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(polys, nonzero_polys)
    @settings(max_examples=150, deadline=None)
    def test_division_invariant(self, a, b):
        q, r = a.divmod(b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    @given(polys, st.integers(-5, 5), st.integers(-10, 10))
    @settings(max_examples=150, deadline=None)
    def test_compose_shift_evaluates(self, p, delta, n):
        assert p.compose_shift(delta)(n) == p(n + delta)

    def test_derivative(self):
        # p'q - pq' of the cleared integer polynomials: p' when q = 1.
        assert RationalFunction.of([5, 3, 2]).derivative_numerator() == Polynomial.of(3, 4)
        # (n + 1) / (n^2 + 1): (n^2 + 1) - (n + 1) 2n = 1 - 2n - n^2.
        f = RationalFunction.of([1, 1], [1, 0, 1])
        assert f.derivative_numerator() == Polynomial.of(1, -2, -1)

    @given(nonzero_polys, nonzero_polys)
    @settings(max_examples=100, deadline=None)
    def test_gcd_divides_both(self, a, b):
        g = poly_gcd(a, b)
        assert a.divmod(g)[1].is_zero
        assert b.divmod(g)[1].is_zero


class TestRationalFunction:
    def test_construction_is_reduced(self):
        f = RationalFunction.of([0, -2, 2], [0, 0, 4])  # (2n^2-2n)/(4n^2)
        g = poly_gcd(f.num, f.den)
        assert g.degree == 0
        assert f.den.leading == 1  # monic normalization

    def test_shift_substitutes(self):
        assert rf([1], [0, 1]).shift(1) == rf([1], [1, 1])
        assert rf([-1, 2], [0, 1]).shift(-1) == rf([-3, 2], [-1, 1])
        assert rf([7]).shift(5) == rf([7])

    @given(polys, nonzero_polys, st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_shift_round_trip(self, num, den, delta):
        f = RationalFunction.ratio(num, den)
        assert f.shift(delta).shift(-delta) == f

    @given(polys, nonzero_polys, st.integers(-4, 4))
    @settings(max_examples=100, deadline=None)
    def test_shift_is_already_reduced(self, num, den, delta):
        f = RationalFunction.ratio(num, den)
        g = f.shift(delta)
        assert g == RationalFunction.ratio(g.num, g.den)

    def test_constant_value(self):
        assert rf([3], [2]).constant_value() == Fraction(3, 2)
        assert rf([0]).constant_value() == 0
        assert rf([1], [0, 1]).constant_value() is None
        # The ratio as given, not reduced: (4n + 4) / (n + 1) is 4 off its pole.
        def given(num, den):
            return RationalFunction(Polynomial.of(*num), Polynomial.of(*den))

        assert given([4, 4], [1, 1]).constant_value() == 4
        assert given([4, 2], [1, 1]).constant_value() is None
        assert given([2, 3, 1], [1, 1]).constant_value() is None


class TestRootFreeBound:
    def test_linear(self):
        assert integer_root_free_bound(Polynomial.of(-10, 1)) == 11

    def test_constant(self):
        assert integer_root_free_bound(Polynomial.of(5)) == 1

    def test_quadratic(self):
        assert integer_root_free_bound(Polynomial.of(-4, 0, 1)) == 5

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            integer_root_free_bound(Polynomial.zero())

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
        den_poly = Polynomial.of(*den)
        if den_poly.is_zero:
            return
        f = RationalFunction.ratio(Polynomial.of(*num), den_poly)
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
