"""Shared fixtures: canonical specs, random spec recipes, a growth rule."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import product, zip_longest

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
from shiftcert.polycert import Polynomial, _poly, int_product, int_shift


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


class RequestedIndices:
    """The number of indices requested from rational tails: one per
    ``RationalFunction.pair`` call, plus stop - start of each
    ``RationalFunction.pairs`` call that runs sums instead of calling
    ``pair``."""

    count = 0


@pytest.fixture
def requested_indices(monkeypatch) -> RequestedIndices:
    counter = RequestedIndices()
    pair, pairs = RationalFunction.pair, RationalFunction.pairs

    def counted_pair(fn, n):
        counter.count += 1
        return pair(fn, n)

    def counted_pairs(fn, start, stop):
        before = counter.count
        out = pairs(fn, start, stop)
        if counter.count == before:  # no pair call: running sums
            counter.count += stop - start
        return out

    monkeypatch.setattr(RationalFunction, "pair", counted_pair)
    monkeypatch.setattr(RationalFunction, "pairs", counted_pairs)
    return counter


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


def degree_sixteen_spec() -> WeightSpec:
    """A FLAT_TAIL spec whose left tail (q + 1) / q has degree 16: q is a
    product of eight quadratics n^2 - a n + c with c of 20-21 bits and
    0 < a < 2 sqrt(c), so q has no real root and falls on n <= 0, where
    the tail rises toward the window (0: 2) and the constant right tail 2.
    """
    rng = random.Random(16)
    q = [1]
    for _ in range(8):
        c = rng.randrange(2**20, 2**21)
        q = int_product(q, [c, -2 * rng.randint(1, math.isqrt(c) - 1), 1])
    left = RationalTail(RationalFunction.of([q[0] + 1, *q[1:]], q))
    return WeightSpec(0, (Fraction(2),), left, ConstantTail(Fraction(2)))


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
    return RationalTail(shift_function(RationalFunction.of(num, [0, 0, 1]), m - window_end - 1))


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
    return RationalTail(shift_function(reflected, -(m + window_start - 1)))


def _long_run_window(rng: random.Random, base: Fraction) -> list[Fraction]:
    """30-300 values in runs of equal values, of lengths 1-120 and often 2
    (an isolated equal pair), each run a strict rise above the one before;
    the first run ties with base or rises above it."""
    length = rng.randint(30, 300)
    values: list[Fraction] = []
    current = base if rng.random() < 0.5 else base + rand_fraction(rng)
    while len(values) < length:
        values += [current] * (2 if rng.random() < 0.4 else rng.randint(1, 120))
        current += rand_fraction(rng)
    return values[:length]


def make_plateau_spec(rng: random.Random, long_runs: bool = False) -> WeightSpec:
    """A hyponormal spec rich in equal moduli: a rising left tail (or a
    constant one), a window where each step ties or rises, and a right
    tail equal to the window's top, above it, or rising. Rising tails may
    tie with the window across the seam or on their own first pair. The
    window holds 1-6 values, or with ``long_runs`` the runs of
    :func:`_long_run_window`."""
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
    if long_runs:
        values = _long_run_window(rng, base)
    else:
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
    num, den = f.num.ints, f.den.ints
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

    Compares the integer values by cross-multiplication, so no rational
    arithmetic runs per point; f must have no pole in the scanned segment.
    """
    num, den = f.num.ints, f.den.ints
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


def shift_polynomial(p: Polynomial, delta: int) -> Polynomial:
    """q with q(n) = p(n + delta): the integer Taylor shift of p's ints,
    which keeps their content and leading coefficient, so the form stays
    canonical."""
    return Polynomial(tuple(int_shift(p.ints, delta)))


def shift_function(f: RationalFunction, delta: int) -> RationalFunction:
    """g with g(n) = f(n + delta), canonical when f is."""
    return RationalFunction(shift_polynomial(f.num, delta), shift_polynomial(f.den, delta))


def int_difference(xs, ys) -> list[int]:
    """The coefficients of x - y for integer coefficient lists x and y."""
    return [a - b for a, b in zip_longest(xs, ys, fillvalue=0)]


def constant_value(f: RationalFunction) -> Fraction | None:
    """Reference: the constant f equals off its poles, or None if it
    varies, for the ratio as given, reduced or not. In Fraction arithmetic,
    num = c den coefficient by coefficient for c = lead(num) / lead(den)."""
    if f.num.is_zero:
        return Fraction(0)
    num, den = f.num.ints, f.den.ints
    c = Fraction(num[-1], den[-1])
    return c if len(num) == len(den) and all(a == c * b for a, b in zip(num, den)) else None


def difference_form(fn: RationalFunction) -> RationalFunction:
    """The first difference f(n) - f(n-1) = p/q - p(n-1)/q(n-1) as the
    unreduced ratio (p q(n-1) - p(n-1) q) / (q q(n-1)) of f's integer
    polynomials, built independently of the engine's walk."""
    p, q = fn.num.ints, fn.den.ints
    pm, qm = int_shift(p, -1), int_shift(q, -1)
    num = int_difference(int_product(p, qm), int_product(pm, q))
    return RationalFunction(_poly(num), Polynomial(tuple(int_product(q, qm))))


def growth_weight_rule(tau: float = 10.0, depth: int = 198):
    """Weight rule whose transformed weights grow without bound.

    Squared moduli descend from 4 by steps proportional to 2^(-n^2/tau),
    so the step ratios d_{n+1}/d_n explode toward -inf. Not expressible
    with rational-function tails (those always give finite transform
    limits); used to show that ``norm_sweep`` sees growth on a raw rule.
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


# Near subnormal with exact sup g_n^2 = 4: moduli (1/20)/(2 - n) for
# n <= -1, 1/10 at 0 and 2n^2/(n^2 + 9) from n = 1. Its truncation norms
# climb slowly toward 2 (1.160 at half width 6, 1.839 at 24), which a
# growth ratio would misread as an unbounded transform.
SLOW_PLATEAU_SPEC = {
    "window_start": 0,
    "window_values": ["1/10"],
    "left_tail": {"kind": "rational", "num": ["-1/20"], "den": ["-2", "1"]},
    "right_tail": {"kind": "rational", "num": ["0", "0", "2"], "den": ["9", "0", "1"]},
}


def _reflect_tail(tail):
    """The tail n -> tail(-n - 1): odd coefficients negated, then shifted
    by one; the ratio is reduced again so its denominator's leading
    coefficient stays positive."""
    if isinstance(tail, ConstantTail):
        return tail

    def mirror(p: Polynomial) -> Polynomial:
        flipped = Polynomial(tuple(-c if i % 2 else c for i, c in enumerate(p.ints)))
        return shift_polynomial(flipped, 1)

    return RationalTail(RationalFunction.ratio(mirror(tail.fn.num), mirror(tail.fn.den)))


def reflect_spec(spec: WeightSpec) -> WeightSpec:
    """The spec of the adjoint shift: |beta'_n| = |beta_{-n-1}|. The window
    is reversed onto [-window_end - 1, -window_start - 1] and each tail
    moves to the other side, reflected."""
    return WeightSpec(
        -spec.window_end - 1,
        spec.window_values[::-1],
        _reflect_tail(spec.right_tail),
        _reflect_tail(spec.left_tail),
    )


def translate_spec(spec: WeightSpec, t: int) -> WeightSpec:
    """The spec with |beta'_n| = |beta_{n-t}|: every index moved up by t."""

    def move(tail):
        return tail if isinstance(tail, ConstantTail) else RationalTail(shift_function(tail.fn, -t))

    return WeightSpec(spec.window_start + t, spec.window_values, move(spec.left_tail), move(spec.right_tail))


# The small scope: every tail p / q with p and q of degree <= 2 and
# coefficients in -2..2 (q nonzero), on the left or the right; the other
# tail the constant 1, 2 or 3; the window [1], [2], [1, 2] or [2, 2] from
# n = 0. Spec i is the one at that place in the nested order side, constant,
# window, numerator, denominator; coefficients are lowest degree first.
_SCOPE_NUMS = list(product(range(-2, 3), repeat=3))
_SCOPE_DENS = [c for c in _SCOPE_NUMS if any(c)]
_SCOPE_CONSTANTS = (1, 2, 3)
_SCOPE_WINDOWS = ((1,), (2,), (1, 2), (2, 2))
SMALL_SCOPE_SIZE = 2 * len(_SCOPE_CONSTANTS) * len(_SCOPE_WINDOWS) * len(_SCOPE_NUMS) * len(_SCOPE_DENS)


def small_scope_spec(i: int) -> WeightSpec:
    """Spec i of the small scope, 0 <= i < SMALL_SCOPE_SIZE."""
    i, den = divmod(i, len(_SCOPE_DENS))
    i, num = divmod(i, len(_SCOPE_NUMS))
    i, window = divmod(i, len(_SCOPE_WINDOWS))
    side, const = divmod(i, len(_SCOPE_CONSTANTS))
    varying = RationalTail(RationalFunction.of(_SCOPE_NUMS[num], _SCOPE_DENS[den]))
    constant = ConstantTail(Fraction(_SCOPE_CONSTANTS[const]))
    tails = (constant, varying) if side else (varying, constant)
    return WeightSpec(0, tuple(map(Fraction, _SCOPE_WINDOWS[window])), *tails)


# The both-tails scope: the window [1] from n = 0 between two tails p / q,
# p and q of degree <= 1 with coefficients in -2..2 (q nonzero). Spec i is
# the one at that place in the nested order left tail, right tail, each
# tail ordered by numerator, then denominator.
_PAIR_NUMS = list(product(range(-2, 3), repeat=2))
_PAIR_TAILS = [(num, den) for num in _PAIR_NUMS for den in _PAIR_NUMS if any(den)]
BOTH_TAILS_SIZE = len(_PAIR_TAILS) ** 2


def both_tails_spec(i: int) -> WeightSpec:
    """Spec i of the both-tails scope, 0 <= i < BOTH_TAILS_SIZE."""
    left, right = divmod(i, len(_PAIR_TAILS))
    tails = (RationalTail(RationalFunction.of(*_PAIR_TAILS[t])) for t in (left, right))
    return WeightSpec(0, (Fraction(1),), *tails)
