"""Bi-infinite weight-modulus sequences from a finite description.

A :class:`WeightSpec` tiles the integers into three regions: an explicit
window of positive rationals and two closed-form tails (a positive constant,
or a rational function with a finite limit). Everything downstream -- the
self-commutator diagonal, the transformed weights, the classification
certificates -- evaluates these moduli exactly, as int pairs over a range
of indices (:meth:`WeightSpec.value_pairs`, the one code that maps an index
onto the window or a tail). A spec keeps each varying tail's walk, its only
memo, which validation and classification share (:meth:`WeightSpec.walk`;
side 0 is the left tail and side 1 the right). A tail is constant exactly
when its walk has no first difference (:meth:`WeightSpec.delta`).

Weights are stored as moduli: every criterion used here depends only on
|beta_n|, and a bilateral shift is unitarily equivalent to the shift whose
weights are those moduli.

The specs, tails and validation reports are immutable NamedTuples.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from typing import NamedTuple, Union

from .polycert import Pair, PoleOnRay, RationalFunction, Ray, RaySign, RayWalk, pair_max, walk_ray
# sign_on_ray and sup_on_ray are unused here: perfbench/spans.py wraps them
# in this module.
from .polycert import sign_on_ray, sup_on_ray  # noqa: F401

MAX_TAIL_DEGREE = 16


class ConstantTail(NamedTuple):
    value: Fraction


class RationalTail(NamedTuple):
    fn: RationalFunction


TailSpec = Union[ConstantTail, RationalTail]


class _WeightSpecFields(NamedTuple):
    window_start: int
    window_values: tuple[Fraction, ...]
    left_tail: TailSpec
    right_tail: TailSpec


class WeightSpec(_WeightSpecFields):
    """Moduli |beta_n|: window on [window_start, window_end], tails outside.

    A named tuple of its fields. It has no ``__slots__``, so its instance
    dict can keep each tail's walk. A copy or pickle holds the fields alone.
    """

    def __reduce__(self):
        return type(self), tuple(self)

    @property
    def window_end(self) -> int:
        return self.window_start + len(self.window_values) - 1

    def value_pairs(self, start: int, stop: int) -> list[Pair]:
        """The exact moduli |beta_n| for start <= n < stop as unreduced
        (numerator, positive denominator) int pairs, region by region: a
        slice of the window, one pair repeated over a constant tail, and a
        rational tail's :meth:`~shiftcert.polycert.RationalFunction.pairs`,
        so a pole raises at the first index that hits one."""
        ws, we = self.window_start, self.window_end + 1
        out: list[Pair] = []
        if start < ws:
            out += _tail_pairs(self.left_tail, start, min(stop, ws))
        if start < we and stop > ws:
            window = self.window_values[max(start, ws) - ws : min(stop, we) - ws]
            out += [v.as_integer_ratio() for v in window]
        if stop > we:
            out += _tail_pairs(self.right_tail, max(start, we), stop)
        return out

    def tail(self, side: int) -> TailSpec:
        """The left tail (side 0) or the right one (side 1)."""
        return self.right_tail if side else self.left_tail

    @cached_property
    def _walks(self) -> dict[int, RayWalk | None]:
        return {}

    def walk(self, side: int) -> RayWalk | None:
        """The walk of that side's tail, on n <= window_start - 1 (side 0)
        or n >= window_end + 1 (side 1), kept once walked; None for a
        :class:`ConstantTail`. A pole on the ray raises
        :class:`~shiftcert.polycert.PoleOnRay` at each call."""
        walks = self._walks
        if side not in walks:
            tail = self.tail(side)
            ray = Ray.ge(self.window_end + 1) if side else Ray.le(self.window_start - 1)
            walks[side] = None if isinstance(tail, ConstantTail) else walk_ray(tail.fn, ray)
        return walks[side]

    def delta(self, side: int) -> RaySign | None:
        """The first difference f(n) - f(n-1) of that side's walk, None
        exactly when the tail is constant, written as a
        :class:`ConstantTail` or as a ratio that does not vary."""
        walk = self.walk(side)
        return None if walk is None else walk.delta

    def value(self, n: int) -> Fraction:
        """Exact modulus |beta_n|."""
        return Fraction(*self.value_pairs(n, n + 1)[0])


def _tail_pairs(tail: TailSpec, start: int, stop: int) -> list[Pair]:
    """The tail's modulus pairs for start <= n < stop."""
    if isinstance(tail, ConstantTail):
        return [(tail.value.numerator, tail.value.denominator)] * (stop - start)
    return tail.fn.pairs(start, stop)


class Violation(NamedTuple):
    code: str
    detail: str


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]
    sup_bound: Fraction | None  # certified exact upper bound on sup |beta_n|

    @property
    def ok(self) -> bool:
        return not self.violations


def witness_key(n: int) -> tuple[int, int]:
    """Orders witness indices by |n|, ties toward negative."""
    return (abs(n), 0 if n < 0 else 1)


def _validate_tail(spec: WeightSpec, side: int) -> tuple[Violation | None, Fraction | None]:
    """The violation of that side's tail, or its certified supremum, read
    off the tail's walk, which is taken once the tail's degrees pass. A
    pole or zero is named by its lowest index, a negative value by its
    smallest |n| (ties toward negative); none of these depends on the
    walk's cutoff."""
    tail, name = spec.tail(side), ("left", "right")[side]
    if isinstance(tail, ConstantTail):
        if tail.value <= 0:
            detail = f"{name} tail constant {tail.value} is not positive"
            return Violation("nonpositive-tail", detail), None
        return None, tail.value

    fn = tail.fn
    if fn.num.degree > MAX_TAIL_DEGREE or fn.den.degree > MAX_TAIL_DEGREE:
        return Violation("degree-cap", f"{name} tail degree exceeds {MAX_TAIL_DEGREE}"), None
    if fn.num.degree > fn.den.degree:
        detail = f"{name} tail deg(num) > deg(den): the modulus sequence is unbounded"
        return Violation("unbounded-tail", detail), None
    if fn.is_zero:
        return Violation("nonpositive-tail", f"{name} tail: not strictly positive"), None
    try:
        tail_walk = spec.walk(side)
    except PoleOnRay as exc:
        detail = f"{name} tail denominator vanishes at n = {exc.index}"
        return Violation("tail-pole", detail), None
    sign = tail_walk.sign
    if sign.zeros:
        where = f"zero weight at n = {sign.zeros[0]}"
    elif sign.negatives:
        where = f"negative value at n = {min(sign.negatives, key=witness_key)}"
    else:
        return None, tail_walk.sup
    return Violation("nonpositive-tail", f"{name} tail: {where}"), None


def validate(spec: WeightSpec) -> ValidationReport:
    """Check well-formedness and certify a global bound on the moduli.

    Violations are data, not exceptions: the report lists every problem
    found (zero or negative weights, poles on a tail's domain, unbounded
    tails, degree overruns).
    """
    violations: list[Violation] = []
    # The window's values as int pairs, then each tail's supremum.
    sups = spec.value_pairs(spec.window_start, spec.window_end + 1)

    if not sups:
        violations.append(Violation("empty-window", "window must hold at least one value"))
    elif min(sups)[0] <= 0:  # the smallest numerator
        for i, (p, q) in enumerate(sups):
            n = spec.window_start + i
            if p == 0:
                violations.append(Violation("zero-weight", f"zero weight at n = {n}"))
            elif p < 0:
                detail = f"negative modulus {Fraction(p, q)} at n = {n}"
                violations.append(Violation("nonpositive-weight", detail))

    for side in (0, 1):
        violation, sup = _validate_tail(spec, side)
        if violation is not None:
            violations.append(violation)
        if sup is not None:
            sups.append((sup.numerator, sup.denominator))

    sup_bound = None if violations else Fraction(*pair_max(sups))
    return ValidationReport(tuple(violations), sup_bound)


def scale_spec(spec: WeightSpec, c: Fraction) -> WeightSpec:
    """The spec with every modulus multiplied by c > 0."""
    if c <= 0:
        raise ValueError("scaling factor must be positive")

    def scale_tail(tail: TailSpec) -> TailSpec:
        if isinstance(tail, ConstantTail):
            return ConstantTail(tail.value * c)
        return RationalTail(tail.fn.scale(c))

    return WeightSpec(
        window_start=spec.window_start,
        window_values=tuple(v * c for v in spec.window_values),
        left_tail=scale_tail(spec.left_tail),
        right_tail=scale_tail(spec.right_tail),
    )
