"""Exact univariate polynomial and rational-function arithmetic on integer
coefficients, with decidable sign and supremum analysis on integer rays.

A :class:`Polynomial` is integer coefficients. Products
(:func:`int_product`), Taylor shifts (:func:`int_shift`), pseudo-division
and the primitive-PRS GCD (Collins 1967; Knuth, TAOCP Vol. 2, 4.6.1) all
run on Python ints, and evaluation at an integer is integer Horner. A
:class:`RationalFunction` is a ratio of two such polynomials, so its value
at an integer is an unreduced ``(numerator, positive denominator)`` int
pair. Its canonical form is coprime, with joint content 1 and a positive
leading denominator coefficient; only :meth:`RationalFunction.ratio`, which
parsing calls, reduces to it by the GCD, and Gauss's lemma keeps each
quotient integral. The forms the engine derives from a tail are unreduced.
A ``Fraction`` is built only where a value leaves this module.

Over a range of consecutive integers, :meth:`Polynomial.values` takes
Horner at the first deg + 1 of them and running sums of their forward
differences after that, exact int additions (TAOCP Vol. 2, 4.6.4).
:meth:`RationalFunction.pairs` evaluates a range of at least
``RUNNING_SUMS_FROM * (deg + 1)`` indices that way, and a shorter one
index by index, where Horner is cheaper.

Both are immutable ``__slots__`` classes compared and hashed by their
fields, not tuples, and define no ``+``, ``-`` or ``*``: the engine combines
polynomials as integer coefficient lists. The records (:class:`Ray`,
:class:`RaySign`, :class:`Limit`, :class:`RayWalk`) are NamedTuples.

:func:`walk_ray` answers every question the engine asks about a rational
function f at *every* integer of a half-line ``n <= a`` or ``n >= a`` from
one walk. Every ray question is asked outward from the ray's bound, on
m >= 0: :meth:`Ray.at` maps m to n = a - m or a + m, and :meth:`Ray.orient`
turns a polynomial p into u(m) = p(at(m)). :func:`ray_root_free_cutoff`
finds one cutoff C in m by a doubling search, certifying with Descartes'
rule of signs that no oriented polynomial has a real root beyond C, so
beyond C each keeps the sign of its leading coefficient; the walk then
evaluates the oriented f once, exactly, at each m = 0, ..., C. C decides
only how far the walk goes, never an index it reports. The answers
(:class:`RayWalk`) are f's zeros and negative values (:class:`RaySign`),
its supremum, and the zeros and negative values of its first difference
f(n) - f(n-1), read off consecutive walked values.
:func:`sign_on_ray` and :func:`sup_on_ray` are views of that one walk.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]
# An exact rational as (numerator, positive denominator), not reduced.
Pair = tuple[int, int]
# RationalFunction.pairs evaluates a range of at least this many indices per
# degree + 1 by running sums, and a shorter one index by index.
RUNNING_SUMS_FROM = 8


class PoleOnRay(ValueError):
    """A rational function has an integer pole on the queried ray."""

    def __init__(self, index: int):
        super().__init__(f"denominator vanishes at integer n = {index}")
        self.index = index


def pair_max(pairs: Iterable[Pair]) -> Pair:
    """The largest of nonempty ``pairs``, compared by cross-multiplication."""
    it = iter(pairs)
    a, b = next(it)
    for c, d in it:
        if c * b > a * d:
            a, b = c, d
    return a, b


def int_product(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """The coefficients, lowest degree first, of the product of two
    nonempty integer coefficient lists; a trailing zero in either gives
    trailing zeros."""
    out = [0] * (len(xs) + len(ys) - 1)
    for i, a in enumerate(xs):
        if a:
            for j, b in enumerate(ys):
                out[i + j] += a * b
    return out


def int_shift(xs: Sequence[int], delta: int) -> list[int]:
    """The coefficients of x(n + delta) for those of x(n): the integer
    Taylor shift."""
    c = list(xs)
    if delta:
        for i in range(len(c) - 1):
            for j in range(len(c) - 2, i - 1, -1):
                c[j] += delta * c[j + 1]
    return c


def _poly(ints: list[int]) -> "Polynomial":
    """The polynomial of the integer coefficients ints, trailing zeros
    dropped."""
    while ints and ints[-1] == 0:
        ints.pop()
    return Polynomial(tuple(ints))


def _pseudo_divmod(u: tuple[int, ...], v: tuple[int, ...]) -> tuple[list[int], list[int], int]:
    """Pseudo-division (Knuth's Algorithm R): q, r and s = lc(v)^e with
    s * u = q * v + r, deg r < deg v and e = max(deg u - deg v + 1, 0).
    The remainder keeps its trailing zeros."""
    m, n = len(u) - 1, len(v) - 1
    if m < n:
        return [], list(u), 1
    lead = v[-1]
    r = list(u)
    q = [0] * (m - n + 1)
    for k in range(m - n, -1, -1):
        t = r[n + k]
        q[k] = t * lead**k
        for j in range(n + k - 1, k - 1, -1):
            r[j] = lead * r[j] - t * v[j - k]
        for j in range(k - 1, -1, -1):
            r[j] *= lead
    return q, r[:n], lead ** (m - n + 1)


def _exact_quotient(u: tuple[int, ...], v: tuple[int, ...]) -> list[int]:
    """u / v for a primitive v dividing u over the rationals: the pseudo
    quotient over its scale, integral by Gauss's lemma."""
    q, _, s = _pseudo_divmod(u, v)
    return [c // s for c in q]


def _primitive(cs: list[int]) -> tuple[int, ...]:
    """cs without trailing zeros, divided by its content, with a positive
    leading coefficient."""
    while cs and cs[-1] == 0:
        cs.pop()
    if not cs:
        return ()
    g = math.gcd(*cs) if cs[-1] > 0 else -math.gcd(*cs)
    return tuple(c // g for c in cs)


class _Immutable:
    """Base of the slotted value types: each field is set once, in
    ``__init__``, through ``object.__setattr__``, and nothing else can set
    or delete one."""

    __slots__ = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class Polynomial(_Immutable):
    """Dense univariate polynomial sum(ints[i] n^i) with integer
    coefficients.

    ``ints`` ascend and end nonzero, so equal polynomials have equal fields;
    the zero polynomial is ``()`` and has degree -1. Evaluation at an
    integer is integer Horner.

    An immutable value compared and hashed by its field; not a tuple, and
    without ``+``, ``-`` or ``*``: products and shifts run on ``ints``
    through :func:`int_product` and :func:`int_shift`.
    """

    __slots__ = ("ints",)
    ints: tuple[int, ...]

    def __init__(self, ints: tuple[int, ...]):
        object.__setattr__(self, "ints", ints)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Polynomial:
            return NotImplemented
        return self.ints == other.ints

    def __hash__(self) -> int:
        return hash(self.ints)

    def __repr__(self) -> str:
        return f"Polynomial(ints={self.ints!r})"

    def __reduce__(self):
        return Polynomial, (self.ints,)

    @property
    def degree(self) -> int:
        return len(self.ints) - 1

    @property
    def is_zero(self) -> bool:
        return not self.ints

    def __call__(self, x: int) -> int:
        acc = 0
        for c in reversed(self.ints):
            acc = acc * x + c
        return acc

    def values(self, start: int, count: int) -> list[int]:
        """p(start), ..., p(start + count - 1): Horner at the first
        deg + 1 indices, then running sums of their forward-difference
        table, deg nested int accumulations (the deg-th difference is
        constant)."""
        if not self.ints:
            return [0] * count
        seeds = list(map(self, range(start, start + min(count, len(self.ints)))))
        if count <= len(seeds):
            return seeds
        heads = []  # heads[j]: the j-th forward difference at start
        while seeds:
            heads.append(seeds[0])
            seeds = list(map(operator.sub, seeds[1:], seeds))
        run = itertools.repeat(heads.pop())
        for head in reversed(heads):
            run = itertools.accumulate(run, initial=head)
        return list(itertools.islice(run, count))


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Primitive greatest common divisor with a positive leading
    coefficient: the last nonzero member of the primitive polynomial
    remainder sequence."""
    u, v = _primitive(list(a.ints)), _primitive(list(b.ints))
    while v:
        u, v = v, _primitive(_pseudo_divmod(u, v)[1])
    return Polynomial(u)


def integer_root_free_bound(p: Polynomial) -> int:
    """An integer B with no real roots of p beyond |x| > B: the Cauchy bound.

    Every real root x satisfies |x| < 1 + max|c_i| / |c_lead|, and B is
    that bound rounded up, not the smallest such integer; for x > B, p(x)
    has the sign of its leading coefficient. Constants get B = 1 (no roots
    at all).
    """
    if p.is_zero:
        raise ValueError("zero polynomial has roots everywhere")
    if p.degree == 0:
        return 1
    lead = abs(p.ints[-1])
    biggest = max(abs(c) for c in p.ints[:-1])
    return 1 - (-biggest // lead)


def _no_roots_beyond(p: Polynomial, m: int) -> bool:
    """Certify that p has no real root x > m (Descartes' rule of signs):
    the Taylor shift q(t) = p(m + t) has no sign change among its integer
    coefficients, so no positive root."""
    q = int_shift(p.ints, m)
    return not (any(c > 0 for c in q) and any(c < 0 for c in q))


class Ray(NamedTuple):
    """All integers n <= bound ("le") or n >= bound ("ge"), read outward
    from the bound: the ray's integers are ``at(m)`` for m = 0, 1, 2, ..."""

    kind: str  # "le" | "ge"
    bound: int

    @staticmethod
    def le(a: int) -> "Ray":
        return Ray("le", a)

    @staticmethod
    def ge(a: int) -> "Ray":
        return Ray("ge", a)

    def at(self, m: int) -> int:
        """The integer m steps outward from the bound."""
        return self.bound - m if self.kind == "le" else self.bound + m

    def orient(self, p: Polynomial) -> Polynomial:
        """u with u(m) = p(at(m)): one Taylor shift to the bound, with the
        odd coefficients negated on a left ray."""
        u = int_shift(p.ints, self.bound)
        if self.kind == "le":
            u[1::2] = [-c for c in u[1::2]]
        return Polynomial(tuple(u))


def ray_root_free_cutoff(ray: Ray, *polys: Polynomial) -> int:
    """A cutoff C >= 0, in steps m from the ray's bound, past every real
    root of each polynomial u in ``polys``, oriented on the ray
    (:meth:`Ray.orient`), so for m > C each keeps the sign of its leading
    coefficient. C reaches the origin when the ray holds it, so past C |n|
    grows with m. Each cutoff is searched upward by doubling from there,
    with an exact Descartes certificate at each candidate, and stops at u's
    Cauchy bound at worst, which the Taylor shift can inflate.
    """
    floor = max(0, ray.bound if ray.kind == "le" else -ray.bound)
    cutoff = floor
    for u in polys:
        if u.degree < 1:  # no roots
            continue
        cauchy = integer_root_free_bound(u)
        m = floor
        while m < cauchy and not _no_roots_beyond(u, m):
            m = max(1, 2 * m)
        cutoff = max(cutoff, min(m, cauchy))
    return cutoff


class RaySign(NamedTuple):
    """Where a nonzero rational function vanishes and where it is negative
    on the integers of a ray.

    ``zeros`` ascend; ``negatives`` holds each walked n with f(n) < 0,
    ascending, then the first integer beyond the walk, when f is negative
    there (it is then negative on the whole rest of the ray). Every other
    integer of the ray has f(n) > 0. The walk reaches the origin when the
    ray holds it, so the negative of smallest |n| is listed, and is the
    same for any cutoff.
    """

    zeros: tuple[int, ...]
    negatives: tuple[int, ...]


class Limit(NamedTuple):
    """The finite limit of a rational function at infinity."""

    value: Fraction


class RationalFunction(_Immutable):
    """Ratio num / den of integer polynomials.

    :meth:`ratio` and :meth:`of` give the canonical form: num and den
    coprime, their coefficients with joint content 1, and den's leading
    coefficient positive. ``RationalFunction(num, den)`` is the ratio as
    given, not reduced: its roots, poles and critical points include the
    reduced form's, so a root-free cutoff certified on it holds for both.

    An immutable value compared and hashed by ``num`` and ``den``, like
    :class:`Polynomial` not a tuple.
    """

    __slots__ = ("num", "den")
    num: Polynomial
    den: Polynomial

    def __init__(self, num: Polynomial, den: Polynomial):
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __eq__(self, other: object) -> bool:
        if type(other) is not RationalFunction:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RationalFunction(num={self.num!r}, den={self.den!r})"

    def __reduce__(self):
        return RationalFunction, (self.num, self.den)

    @staticmethod
    def ratio(num: Polynomial, den: Polynomial) -> "RationalFunction":
        """num / den in canonical form: both divided exactly by their
        primitive GCD, then by their joint content."""
        if den.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        p, q = num.ints, den.ints
        g = poly_gcd(num, den)
        if g.degree > 0:
            p, q = _exact_quotient(p, g.ints), _exact_quotient(q, g.ints)
        return _lowest_terms(p, q)

    @staticmethod
    def of(num: Iterable[Scalar], den: Iterable[Scalar] = (1,)) -> "RationalFunction":
        """The canonical form of the ratio of two rational coefficient
        lists, lowest degree first, both brought over one common
        denominator."""
        num, den = list(num), list(den)
        scale = math.lcm(*(c.denominator for c in num + den))
        p, q = ([c.numerator * (scale // c.denominator) for c in cs] for cs in (num, den))
        return RationalFunction.ratio(_poly(p), _poly(q))

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def scale(self, c: Scalar) -> "RationalFunction":
        """Return c f, canonical when f is: a nonzero constant factor adds
        no common root, so no GCD runs, and only the joint content is
        divided out; c = 0 gives the canonical zero."""
        return _lowest_terms(
            [a * c.numerator for a in self.num.ints] if c else [],
            [b * c.denominator for b in self.den.ints],
        )

    def pair(self, n: int) -> Pair:
        """f(n) as an int pair, denominator evaluated first; raises
        ZeroDivisionError at a pole."""
        d = self.den(n)
        if d == 0:
            raise ZeroDivisionError(f"pole at n = {n}")
        v = self.num(n)
        return (v, d) if d > 0 else (-v, -d)

    def pairs(self, start: int, stop: int) -> list[Pair]:
        """``[self.pair(n) for n in range(start, stop)]``, the lowest pole
        raising: per index below the crossover, else both polynomials over
        the whole range by :meth:`Polynomial.values`, denominator first."""
        count = stop - start
        if count < RUNNING_SUMS_FROM * (1 + max(self.num.degree, self.den.degree)):
            return list(map(self.pair, range(start, stop)))
        dens = self.den.values(start, count)
        if 0 in dens:
            raise ZeroDivisionError(f"pole at n = {start + dens.index(0)}")
        nums = self.num.values(start, count)
        if min(dens) > 0:
            return list(zip(nums, dens))
        return [(v, d) if d > 0 else (-v, -d) for v, d in zip(nums, dens)]

    def __call__(self, n: int) -> Fraction:
        return Fraction(*self.pair(n))


def _lowest_terms(num: Sequence[int], den: Sequence[int]) -> "RationalFunction":
    """num / den over their joint content, with den's leading coefficient
    made positive: the canonical form when num and den are coprime."""
    if not num:
        return RationalFunction(Polynomial(()), Polynomial((1,)))
    g = math.gcd(*num, *den)
    if den[-1] < 0:
        g = -g
    if g != 1:
        num, den = [c // g for c in num], [c // g for c in den]
    return RationalFunction(Polynomial(tuple(num)), Polynomial(tuple(den)))


def _slope(p: Sequence[int], q: Sequence[int]) -> Polynomial:
    """p'q - pq' for integer coefficient lists p and q: for f = p / q the
    numerator of f' = (p'q - pq') / q^2, so off the poles it has the sign
    of f', and it is zero exactly when f is constant."""
    out = [0] * (len(p) + len(q) - 2)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            if i != j:  # the n^(i+j-1) terms of p'q - pq'
                out[i + j - 1] += (i - j) * a * b
    return _poly(out)


def limit_at_infinity(f: RationalFunction) -> Limit:
    """Limit of f(n) as n -> +inf and as n -> -inf, which are equal when
    finite; raises ValueError when deg num > deg den."""
    dn, dd = f.num.degree, f.den.degree
    if dn > dd:
        raise ValueError("deg(num) > deg(den): the function has no finite limit")
    return Limit(Fraction(f.num.ints[-1], f.den.ints[-1]) if dn == dd else Fraction(0))


class RayWalk(NamedTuple):
    """The ray facts of one exact walk of f, from :func:`walk_ray`: f's
    zeros and negatives (``sign``), its exact supremum (``sup``, None when
    deg num > deg den), and the zeros and negatives of f(n) - f(n-1) at
    each n of the ray with n - 1 on it too (``delta``, None when f is
    constant)."""

    sign: RaySign
    sup: Fraction | None
    delta: RaySign | None


def walk_ray(f: RationalFunction, ray: Ray) -> RayWalk:
    """Walk f once over the ray and read every ray fact off the walk.

    f = p/q over integers is oriented on the ray, u(m) = f(at(m)) being
    P(m) / Q(m), and C is the root-free cutoff of P, Q and P'Q - PQ', the
    numerator of u'. The walk evaluates u at m = 0, ..., C, denominator
    first; :class:`PoleOnRay` names the lowest pole. C decides only how far
    the walk goes: every index the answers name is the same for any larger
    cutoff.

    * f's zeros and negatives are the walked ones; beyond C, f has the sign
      of its oriented leading terms, and the witness at(C + 1) stands for
      the rest, so the negative of smallest |n| is always listed.
    * Beyond C, f is monotone, so the supremum is the largest walked value
      or the limit at infinity.
    * The first difference f(n) - f(n-1) is D(m) = u(m + 1) - u(m) at
      n = at(m + 1) on a right ray and -D(m) at n = at(m) on a left one,
      signed by cross-multiplying walked pairs. For m >= C, u is smooth on
      (m, m + 1) and P'Q - PQ' keeps its leading sign there, so by the mean
      value theorem D(m) is nonzero with that sign. So the difference
      needs neither its own polynomial nor its own cutoff: its zeros are
      the walked ones, and the witness at D(C) stands for its negatives
      beyond.
    """
    num, den = ray.orient(f.num), ray.orient(f.den)
    slope = _slope(num.ints, den.ints)
    cutoff = ray_root_free_cutoff(ray, num, den, slope)
    flip = -1 if ray.kind == "le" else 1  # f(n) - f(n-1) = flip * D(m)

    zeros: list[int] = []
    negatives: list[int] = []
    poles: list[int] = []
    delta_zeros: list[int] = []  # each m with D(m) = 0
    delta_negatives: list[int] = []  # each m with flip * D(m) < 0
    best = prev = None
    for m in range(cutoff + 1):
        d = den(m)
        if d == 0:
            poles.append(m)  # raised below, so what follows is never read
            continue
        v = num(m)
        if d < 0:
            v, d = -v, -d
        if v <= 0:
            (zeros if v == 0 else negatives).append(m)
        if prev is not None:
            a, b = prev
            step = flip * (v * b - a * d)  # the sign of flip * D(m - 1)
            if step <= 0:
                (delta_zeros if step == 0 else delta_negatives).append(m - 1)
        if best is None or v * best[1] > best[0] * d:
            best = (v, d)
        prev = (v, d)
    if poles:
        raise PoleOnRay(min(map(ray.at, poles)))

    # The walked m as n ascending, then index(beyond), the rest's witness.
    def answer(index, zeros: list[int], negatives: list[int], beyond: int | None) -> RaySign:
        rest = () if beyond is None else (index(beyond),)
        return RaySign(tuple(sorted(map(index, zeros))), tuple(sorted(map(index, negatives))) + rest)

    negative_beyond = not num.is_zero and (num.ints[-1] < 0) != (den.ints[-1] < 0)
    sign = answer(ray.at, zeros, negatives, cutoff + 1 if negative_beyond else None)
    sup = None
    if num.degree <= den.degree:  # the limit, lead(num) / lead(den) or 0, as a pair
        limit = (num.ints[-1] * den.ints[-1], den.ints[-1] ** 2) if num.degree == den.degree else (0, 1)
        sup = Fraction(*pair_max((best, limit)))
    delta = None
    if not slope.is_zero:
        falls_beyond = flip * slope.ints[-1] < 0
        delta = answer(
            lambda m: max(ray.at(m), ray.at(m + 1)),
            delta_zeros, delta_negatives, cutoff if falls_beyond else None,
        )
    return RayWalk(sign, sup, delta)


def sign_on_ray(f: RationalFunction, ray: Ray) -> RaySign:
    """Exact zeros and negative values of f on the integers of the ray: the
    ``sign`` of :func:`walk_ray`.

    Raises ValueError for the zero function and :class:`PoleOnRay` if the
    denominator vanishes at an integer of the ray.
    """
    if f.num.is_zero:
        raise ValueError("the zero function has no sign on a ray")
    return walk_ray(f, ray).sign


def sup_on_ray(f: RationalFunction, ray: Ray) -> Fraction:
    """Exact supremum of f over the integers of the ray: the ``sup`` of
    :func:`walk_ray`.

    The walk comes first, so a pole on the ray raises :class:`PoleOnRay`
    before the ValueError of a function with deg num > deg den.
    """
    sup = walk_ray(f, ray).sup
    if sup is None:
        limit_at_infinity(f)  # raises: no finite limit
    return sup
