"""Shared fixtures: canonical specs, random spec recipes, a growth rule."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest

from shiftcert import (
    ConstantTail,
    RationalFunction,
    RationalTail,
    WeightSpec,
    validate,
)
from shiftcert.classifier import Criterion, VerdictClass
from shiftcert.fixtures import example_one, example_two, flat_pair, two_level


@pytest.fixture(scope="session")
def ex1() -> WeightSpec:
    return example_one()


@pytest.fixture(scope="session")
def ex2() -> WeightSpec:
    return example_two()


@pytest.fixture(scope="session")
def ex3() -> WeightSpec:
    return two_level()


@pytest.fixture(scope="session")
def fixture_specs() -> dict[str, WeightSpec]:
    return {
        "ex1": example_one(),
        "ex2": example_two(),
        "ex3": two_level(),
        "flatpair": flat_pair(),
    }


def rand_fraction(rng: random.Random, lo: int = 1, hi: int = 8) -> Fraction:
    return Fraction(rng.randint(lo, hi), rng.randint(1, hi))


def increasing_left_tail(rng: random.Random, window_start: int) -> RationalTail:
    """f(n) = c - b/(n - s) with the pole at s >= window_start: strictly
    increasing and positive on n <= window_start - 1."""
    c = rand_fraction(rng) + Fraction(1, 2)
    b = rand_fraction(rng)
    s = window_start + rng.randint(0, 4)
    return RationalTail(RationalFunction.of([-c * s - b, c], [-s, 1]))


def increasing_right_tail(
    rng: random.Random, window_end: int, floor: Fraction
) -> RationalTail:
    """Strictly increasing tail on n >= window_end + 1 staying above floor."""
    b = rand_fraction(rng)
    s = window_end - rng.randint(0, 4)
    gap = window_end + 1 - s
    c = floor + b / gap + rand_fraction(rng)
    return RationalTail(RationalFunction.of([-c * s - b, c], [-s, 1]))


def _ascending_window(
    rng: random.Random, base: Fraction, length: int
) -> tuple[Fraction, ...]:
    values = []
    current = base
    for _ in range(length):
        current = current + rand_fraction(rng)
        values.append(current)
    return tuple(values)


def make_strict_spec(rng: random.Random) -> WeightSpec:
    start = rng.randint(-3, 3)
    left = increasing_left_tail(rng, start)
    base = left.fn(start - 1)
    window = _ascending_window(rng, base, rng.randint(1, 4))
    right = increasing_right_tail(rng, start + len(window) - 1, window[-1])
    return WeightSpec(start, window, left, right)


def make_flat_tail_spec(rng: random.Random) -> WeightSpec:
    start = rng.randint(-3, 3)
    left = increasing_left_tail(rng, start)
    base = left.fn(start - 1)
    rising = _ascending_window(rng, base, rng.randint(1, 3))
    flat_repeat = rng.randint(0, 2)
    window = rising + (rising[-1],) * flat_repeat
    return WeightSpec(start, window, left, ConstantTail(window[-1]))


def make_flat_pair_spec(rng: random.Random) -> WeightSpec:
    start = rng.randint(-3, 3)
    left = increasing_left_tail(rng, start)
    base = left.fn(start - 1)
    rising = _ascending_window(rng, base, rng.randint(1, 2))
    top = rising[-1] + rand_fraction(rng)
    window = rising + (rising[-1], top)
    if rng.random() < 0.5:
        right = ConstantTail(top)
    else:
        right = increasing_right_tail(rng, start + len(window) - 1, top)
    return WeightSpec(start, window, left, right)


def make_two_level_spec(rng: random.Random) -> WeightSpec:
    low = rand_fraction(rng)
    high = low + rand_fraction(rng)
    start = rng.randint(-3, 3)
    run = rng.randint(1, 3)
    window = (low,) * run + (high,) * rng.randint(0, 2)
    return WeightSpec(start, window, ConstantTail(low), ConstantTail(high))


def make_normal_spec(rng: random.Random) -> WeightSpec:
    c = rand_fraction(rng)
    start = rng.randint(-3, 3)
    window = (c,) * rng.randint(1, 3)
    return WeightSpec(start, window, ConstantTail(c), ConstantTail(c))


def make_not_hyponormal_spec(rng: random.Random) -> WeightSpec:
    spec = make_strict_spec(rng)
    values = list(spec.window_values)
    drop = values[0] / (1 + rand_fraction(rng))
    values.append(drop)
    return WeightSpec(spec.window_start, tuple(values), spec.left_tail, spec.right_tail)


RECIPES = (
    (make_strict_spec, VerdictClass.NEAR_SUBNORMAL, Criterion.STRICT_INCREASE),
    (make_flat_tail_spec, VerdictClass.NEAR_SUBNORMAL, Criterion.FLAT_TAIL),
    (
        make_flat_pair_spec,
        VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
        Criterion.FLAT_PAIR,
    ),
    (
        make_two_level_spec,
        VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
        Criterion.CONSTANT_LEFT,
    ),
    (make_normal_spec, VerdictClass.NORMAL, None),
    (make_not_hyponormal_spec, VerdictClass.NOT_HYPONORMAL, None),
)


def _tied_form(rng: random.Random, m: int, low: Fraction) -> tuple[list[Fraction], Fraction]:
    """Numerator of f(x) = (L x^2 - a x + b) / x^2 with f(m) = f(m + 1) = low,
    the minimum of f over the integers x >= 1, strictly increasing from
    m + 1 on; returns it with a. Setting b = a m (m + 1) / (2m + 1) makes
    the pair tie, and then f(m) = L - a / (2m + 1)."""
    a = rand_fraction(rng)
    b = a * m * (m + 1) / (2 * m + 1)
    return [b, -a, low + a / (2 * m + 1)], a


def tied_right_tail(rng: random.Random, window_end: int, low: Fraction) -> RationalTail:
    """Right tail with |beta_{e+1}| = |beta_{e+2}| = low (e = window_end),
    strictly increasing from there."""
    m = rng.randint(1, 4)
    num, _ = _tied_form(rng, m, low)
    return RationalTail(RationalFunction.of(num, [0, 0, 1]).shift(m - window_end - 1))


def tied_left_tail(rng: random.Random, window_start: int, top: Fraction) -> RationalTail:
    """Left tail with |beta_{s-2}| = |beta_{s-1}| = top (s = window_start),
    strictly decreasing toward -infinity to a positive limit: top minus the
    right-hand form, reflected so that its tie lands on the pair s - 2."""
    m = rng.randint(1, 4)
    num, a = _tied_form(rng, m, Fraction(0))
    while a >= top * (2 * m + 1):  # keep the limit top - a / (2m + 1) positive
        num, a = _tied_form(rng, m, Fraction(0))
    # g(n) = top - f(m + s - 1 - n): negate f's numerator, add top, reflect.
    g = [top - num[2], -num[1], -num[0]]
    reflected = RationalFunction.of([c * (-1) ** i for i, c in enumerate(g[::-1])], [0, 0, 1])
    return RationalTail(reflected.shift(-(m + window_start - 1)))


def make_plateau_spec(rng: random.Random) -> WeightSpec:
    """A hyponormal spec rich in equal moduli: a rising left tail (or a
    constant one), a window where each step ties or rises, and a right
    tail equal to the window's top, above it, or rising. Rising tails may
    tie with the window across the seam or on their own first pair."""
    start = rng.randint(-4, 4)
    shape = rng.randrange(3)
    if shape == 0:
        base = rand_fraction(rng)
        left: ConstantTail | RationalTail = ConstantTail(base)
    elif shape == 1:
        left = increasing_left_tail(rng, start)
        base = left.fn(start - 1)
    else:
        base = rand_fraction(rng) + 1
        left = tied_left_tail(rng, start, base)
    values = []
    current = base
    for _ in range(rng.randint(1, 6)):
        if rng.random() < 0.5:
            current += rand_fraction(rng)
        values.append(current)
    window = tuple(values)
    end = start + len(window) - 1
    top = window[-1]
    shape = rng.randrange(4)
    if shape == 0:
        right: ConstantTail | RationalTail = ConstantTail(top)
    elif shape == 1:
        right = ConstantTail(top + rand_fraction(rng))
    elif shape == 2:
        right = increasing_right_tail(rng, end, top)
    else:
        right = tied_right_tail(rng, end, top + rng.choice((0, rand_fraction(rng))))
    spec = WeightSpec(start, window, left, right)
    assert validate(spec).ok
    return spec


def random_labelled_spec(rng: random.Random):
    maker, klass, criterion = RECIPES[rng.randrange(len(RECIPES))]
    spec = maker(rng)
    assert validate(spec).ok
    return spec, klass, criterion


def random_valid_spec(rng: random.Random) -> WeightSpec:
    return random_labelled_spec(rng)[0]


def fraction_horner(coeffs, x) -> Fraction:
    """Reference evaluation: Horner's rule in Fraction arithmetic on
    ascending rational coefficients."""
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + Fraction(c)
    return acc


def fraction_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Reference long division over Q on ascending coefficient lists without
    trailing zeros; b is nonzero. The remainder has no trailing zeros."""
    rem = list(a)
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(rem) >= len(b):
        k = len(rem) - len(b)
        factor = rem[-1] / b[-1]
        quot[k] = factor
        for i, c in enumerate(b):
            rem[k + i] -= factor * c
        while rem and rem[-1] == 0:
            rem.pop()
    return quot, rem


def euclid_gcd(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """Reference monic GCD over Q: Euclid's algorithm on Fraction lists."""
    while b:
        a, b = b, fraction_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def int_cleared_coeffs(p) -> list[int]:
    """Coefficients scaled by the denominator lcm: integer Horner preserves
    signs and zeros while staying far faster than Fraction arithmetic."""
    if p.is_zero:
        return []
    scale = 1
    for c in p.coeffs:
        scale = scale * c.denominator // math.gcd(scale, c.denominator)
    return [int(c * scale) for c in p.coeffs]


def _int_eval(coeffs: list[int], n: int) -> int:
    acc = 0
    for c in reversed(coeffs):
        acc = acc * n + c
    return acc


def brute_force_ray_sign(f, ray, span: int = 10**4):
    """Independent sign scan of f at every ray integer within span.

    Returns ("pole", index) on a denominator zero, else
    (zeros, has_positive, has_negative) over the scanned segment.
    """
    num = int_cleared_coeffs(f.num)
    den = int_cleared_coeffs(f.den)
    if ray.kind == "le":
        points = range(ray.bound - span, ray.bound + 1)
    else:
        points = range(ray.bound, ray.bound + span + 1)
    zeros: list[int] = []
    has_pos = has_neg = False
    for n in points:
        d = _int_eval(den, n)
        if d == 0:
            return ("pole", n)
        value = _int_eval(num, n) if num else 0
        sign = (value > 0) - (value < 0)
        if d < 0:
            sign = -sign
        if sign == 0 and num:
            zeros.append(n)
        elif sign > 0:
            has_pos = True
        elif sign < 0:
            has_neg = True
    return (zeros, has_pos, has_neg)


def brute_force_ray_argmax(f, ray, span: int = 10**4) -> int:
    """Ray integer within span where f is largest (the lowest on ties).

    Compares integer-cleared values by cross-multiplication, so no rational
    arithmetic runs per point; f must have no pole in the scanned segment.
    """
    num = int_cleared_coeffs(f.num)
    den = int_cleared_coeffs(f.den)
    if ray.kind == "le":
        points = range(ray.bound - span, ray.bound + 1)
    else:
        points = range(ray.bound, ray.bound + span + 1)
    best, best_num, best_den = None, 0, 1
    for n in points:
        a = _int_eval(num, n) if num else 0
        b = _int_eval(den, n)
        if b < 0:
            a, b = -a, -b
        if best is None or a * best_den > best_num * b:
            best, best_num, best_den = n, a, b
    return best


def growth_weight_rule(tau: float = 10.0, depth: int = 198):
    """Weight rule whose transformed weights grow without bound.

    Squared moduli descend from 4 by steps proportional to 2^(-n^2/tau),
    so the step ratios d_{n+1}/d_n explode toward -inf. Not expressible
    with rational-function tails (those always give finite transform
    limits); used to exercise the oracle's growth diagnostic.
    """
    steps = {n: 2.0 ** (-(n * n) / tau) for n in range(0, -depth - 2, -1)}
    eps = 2.0 / sum(steps.values())
    sq = {0: 4.0}
    for n in range(0, -depth - 1, -1):
        sq[n - 1] = sq[n] - eps * steps[n]

    def rule(k: int) -> float:
        if k >= 1:
            return 2.0
        return math.sqrt(sq[max(k, -depth)])

    return rule
