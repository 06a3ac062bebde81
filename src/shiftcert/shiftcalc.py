"""Self-commutator diagonal and transformed weights of a bilateral shift.

For a shift with moduli |beta_n| the self-commutator is diagonal with
entries d_n = |beta_n|^2 - |beta_{n-1}|^2. Where d_n > 0 the conjugated
shift root(Q) T pinv_root(Q) is again a weighted shift; its squared weights

    g_n = |beta_n|^2 * d_{n+1} / d_n

drive every boundedness question, so the whole symbolic pipeline stays in
exact rational arithmetic (square roots only ever appear in the
floating-point oracle). One sparse range form, :class:`SparseRange`,
computes d_n and g_n from a range of moduli as unreduced int pairs
(:data:`~shiftcert.polycert.Pair`), and only where two neighbouring moduli
pairs differ: everywhere else d_n = 0 exactly. The range methods expand
it, and a ``Fraction`` is built only for the values the public methods
return.

On a tail with modulus function f > 0, d_n = Delta(n) * (f(n) + f(n-1))
for the first difference Delta(n) = f(n) - f(n-1), which so carries the
sign, zeros and negative indices of d. No form of Delta is built: its zeros
and negatives come from the tail's one walk, which the spec keeps, by
comparing consecutive values. The suprema of g_n^2 are certified at the
window by a sign certificate on the g_n^2 form (:func:`_sup_past`).

:class:`CommutatorDiagonal` and :class:`TransformedWeights` are immutable
NamedTuples.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import zip_longest
from typing import NamedTuple, Sequence

from .polycert import (
    Limit,
    Pair,
    Polynomial,
    RationalFunction,
    Ray,
    _no_roots_beyond,
    int_product,
    int_shift,
    limit_at_infinity,
    pair_max,
)
from .weights import WeightSpec

# Unused here: perfbench/spans.py wraps this name in this module.
from .polycert import ray_root_free_cutoff  # noqa: F401


class NotHyponormalAtIndex(ValueError):
    """d_n < 0: the shift is not hyponormal, witnessed at this index."""

    def __init__(self, index: int, value: Fraction):
        super().__init__(f"commutator diagonal is negative at n = {index}: {value}")
        self.index = index
        self.value = value


_ZERO: Pair = (0, 1)

# Values held at consecutive indices: the first index and the values.
Run = tuple[int, list]


class SparseRange(NamedTuple):
    """d_n for start <= n <= stop and g_n^2 for start <= n < stop, held only
    where they can be nonzero, as runs of consecutive indices.

    ``diag`` holds a run of d_n for each maximal run of indices n whose
    moduli pair differs from its predecessor's; pairs equal in value but
    written differently count as different, and there d_n is computed, as
    0. Everywhere else d_n = 0 exactly. ``gamma`` holds a run of g_n^2 for
    each run of ``diag``, from the index before it to its last; read it
    through :meth:`gamma_sq`. Build one with :func:`sparse_range`.
    """

    start: int
    stop: int
    diag: list[Run]
    gamma: list[Run]

    def gamma_sq(self) -> list[Run]:
        """The runs of g_n^2, None where g_n is undefined (d_n = 0 < d_{n+1});
        at every other n, d_n = d_{n+1} = 0 and g_n = 0. Raises
        :class:`NotHyponormalAtIndex` at the first negative d_n."""
        if self.stop > self.start:
            for first, diag in self.diag:
                if min(diag)[0] >= 0:  # the smallest numerator
                    continue
                k = next(k for k, (a, _) in enumerate(diag) if a < 0)
                # Reported as a scan over n reading d_n and d_{n+1} would:
                # at the first negative entry, with the smaller of the two.
                value = Fraction(*diag[k])
                if first + k == self.start:
                    value = min(value, Fraction(*(diag[1] if len(diag) > 1 else _ZERO)))
                raise NotHyponormalAtIndex(first + k, value)
        return self.gamma


def sparse_range(moduli: Sequence[Pair], start: int) -> SparseRange:
    """The sparse range form of the moduli pairs |beta_n|,
    start - 1 <= n <= stop, ``moduli[k]`` being |beta_{start - 1 + k}|.
    Neighbouring pairs are compared without a Python step per index, and
    each run of differing pairs is squared, differenced and transformed in
    one pass."""
    stop = start + len(moduli) - 2
    diag: list[Run] = []
    gamma: list[Run] = []
    # differs[k]: whether d_{start + k} compares two different pairs; the
    # appended 0 ends the last run.
    differs = bytes(map(operator.ne, moduli[1:], moduli)) + b"\0"
    first = differs.find(1)
    while first >= 0:
        last = differs.find(0, first)
        n = start + first  # the run holds d_n, ..., d_{n + last - first - 1}
        squares = [(p * p, q * q) for p, q in moduli[first : last + 1]]
        d = [
            (c - a, b) if b == e else (c * b - a * e, b * e)
            for (a, b), (c, e) in zip(squares, squares[1:])
        ]
        # g_m for m = n - 1, ..., n + len(d) - 1: the d before the run and
        # the d after it are 0.
        g = [
            (s * c * b, t * e * a) if a > 0 else (None if c else _ZERO)
            for (s, t), (a, b), (c, e) in zip(squares, [_ZERO, *d], [*d, _ZERO])
        ]
        lo = max(n - 1, start)
        diag.append((n, d))
        gamma.append((lo, g[lo - n + 1 : stop - n + 1]))
        first = differs.find(1, last)
    return SparseRange(start, stop, diag, gamma)


def _expand(runs: list[Run], start: int, stop: int) -> list[Pair | None]:
    """The held pair at each start <= n < stop, (0, 1) where none is held."""
    out: list[Pair | None] = [_ZERO] * (stop - start)
    for first, values in runs:
        out[first - start : first - start + len(values)] = values
    return out


class CommutatorDiagonal(NamedTuple):
    """Exact diagonal d_n, pointwise.

    The seam values cover every index where the two neighbouring moduli
    come from different regions, seam value i being d_n at
    n = window_start + i; beyond them, on n <= window_start - 1 and
    n >= window_end + 2, d_n has the sign of the tail's first difference
    f(n) - f(n-1). ``seam_moduli`` keeps the moduli they were computed
    from, |beta_n| for window_start - 1 <= n <= window_end + 1. Both are
    int pairs with a positive denominator, so a seam value's sign is its
    numerator's; a seam value is unreduced, and (0, 1) wherever its two
    moduli are one pair.
    """

    spec: WeightSpec
    seam_values: tuple[Pair, ...]
    seam_moduli: tuple[Pair, ...]

    def entry(self, n: int) -> Fraction:
        """d_n = |beta_n|^2 - |beta_{n-1}|^2, exactly."""
        return Fraction(*self.entry_pairs(n, n + 1)[0])

    def entry_pairs(self, start: int, stop: int) -> list[Pair]:
        """``entry(n)`` for start <= n < stop as int pairs, each modulus
        evaluated once: the expanded :class:`SparseRange`."""
        held = sparse_range(self.spec.value_pairs(start - 1, stop), start).diag
        return _expand(held, start, stop)


def commutator_diagonal(spec: WeightSpec) -> CommutatorDiagonal:
    """The seam values from one evaluation of the moduli, computed only where
    two neighbouring pairs differ: the expanded :class:`SparseRange`."""
    start, stop = spec.window_start, spec.window_end + 2
    moduli = spec.value_pairs(start - 1, stop)
    seams = _expand(sparse_range(moduli, start).diag, start, stop)
    return CommutatorDiagonal(spec, tuple(seams), tuple(moduli))


class TransformedWeights(NamedTuple):
    """Squared transformed weights g_n, pointwise plus symbolic tail forms.

    ``value_sq(n)`` returns None exactly where d_n = 0 but d_{n+1} > 0: there
    the conjugated operator annihilates e_n while the commutator does not
    vanish one step later, which is the invariance obstruction the
    classifier reports. Where d_n = d_{n+1} = 0 the transformed weight is 0
    (the operator annihilates e_n and stays inside the null space).

    On a varying tail with limit L the d-form is a nonzero rational function
    (were it zero, the squared tail would be periodic, hence constant), so
    d_{n+1}/d_n -> 1 and g_n^2 -> L^2; on a constant tail g_n^2 = 0. The
    tail limits are read off the weights. A tail form (:meth:`form`) of
    None means the transformed weights vanish identically on that side;
    ``flat_from`` is the smallest index m with g_n = 0 for every n >= m
    (None when the right side never flattens).
    """

    spec: WeightSpec
    left_limit_sq: Limit
    right_limit_sq: Limit
    flat_from: int | None

    def form(self, side: int) -> RationalFunction | None:
        """g_n^2 as a rational function, valid for n <= window_start - 2
        (side 0) or n >= window_end + 2 (side 1); None on a constant
        tail."""
        if self.spec.delta(side) is None:
            return None
        return RationalFunction(*gamma_form(self.spec.tail(side).fn))

    def value_sq(self, n: int) -> Fraction | None:
        v = self.pairs_sq(n, n + 1)[0]
        return None if v is None else Fraction(*v)

    def pairs_sq(self, start: int, stop: int) -> list[Pair | None]:
        """``value_sq(n)`` for start <= n < stop as int pairs, raising at the
        first index where it would raise, each exact modulus evaluated once:
        the expanded :class:`SparseRange`."""
        exact = sparse_range(self.spec.value_pairs(start - 1, stop + 1), start)
        return _expand(exact.gamma_sq(), start, stop)


def gamma_form(fn: RationalFunction) -> tuple[Polynomial, Polynomial]:
    """The unreduced numerator and denominator of g_n^2 = beta^2 d(n+1) / d(n)
    on a varying tail beta = fn = p / q, built on integer coefficient lists.

    With a = p^2 and b = q^2, d = e / (b b(n-1)) for
    e = a b(n-1) - a(n-1) b, so the form is a e(n+1) b(n-1) / (b b(n+1) e),
    whose denominator vanishes nowhere on a validated tail with d_n > 0.
    Raises ValueError on a constant tail, where e = 0 and g_n^2 = 0.
    """
    p, q = fn.num.ints, fn.den.ints
    a, b = int_product(p, p), int_product(q, q)
    b_ = int_shift(b, -1)
    e = [x - y for x, y in zip(int_product(a, b_), int_product(int_shift(a, -1), b))]
    while e and e[-1] == 0:
        e.pop()
    if not e:
        raise ValueError(f"g_n^2 has no form on the constant tail {fn!r}")
    num = int_product(int_product(a, int_shift(e, 1)), b_)
    den = int_product(int_product(b, int_shift(b, 1)), e)
    return Polynomial(tuple(num)), Polynomial(tuple(den))


def gamma_bounded(num: Polynomial, den: Polynomial, m: int, best: Pair) -> bool:
    """Whether one Descartes certificate shows best = s / t >= num / den at
    every m' > m, for num and den oriented on a ray.

    It holds when den and the gap P = s den - t num, formed on the integer
    coefficients, both have a positive leading coefficient and no real root
    beyond m: there den > 0 and P > 0, so num / den < s / t; a zero P means
    num / den = s / t. False says only that this one certificate does not
    settle it.
    """
    if den.ints[-1] < 0 or not _no_roots_beyond(den, m):
        return False
    s, t = best
    gap = [s * y - t * x for x, y in zip_longest(num.ints, den.ints, fillvalue=0)]
    while gap and gap[-1] == 0:
        gap.pop()
    return not gap or (gap[-1] > 0 and _no_roots_beyond(Polynomial(tuple(gap)), m))


def _tail_limit_sq(spec: WeightSpec, side: int) -> Limit:
    """Limit of g_n^2 along that side's tail: the squared weight limit, or
    0 when the tail is constant."""
    if spec.delta(side) is None:
        return Limit(Fraction(0))
    return Limit(limit_at_infinity(spec.tail(side).fn).value ** 2)


def _flat_from(spec: WeightSpec, diag: CommutatorDiagonal) -> int | None:
    """Smallest m with d_n = 0 for all n > m, when the right side flattens."""
    if spec.delta(1) is not None:
        return None
    seams = diag.seam_values
    last = next((i for i in range(len(seams) - 1, -1, -1) if seams[i][0]), None)
    if last is not None:
        return spec.window_start + last
    left = spec.delta(0)
    if left is not None:
        # Down from the window, the first n where the first difference (zero
        # where d_n is) is nonzero; the walk holds all its zeros.
        zeros = set(left.zeros)
        n = spec.window_start - 1
        while n in zeros:
            n -= 1
        return n
    # Globally normal: every d_n vanishes.
    return spec.window_start


def transformed_weights(spec: WeightSpec, diag: CommutatorDiagonal) -> TransformedWeights:
    """Assemble g_n^2 pointwise, with both tail limits and ``flat_from``,
    which reads the left tail's walk when it needs one."""
    return TransformedWeights(
        spec=spec,
        left_limit_sq=_tail_limit_sq(spec, 0),
        right_limit_sq=_tail_limit_sq(spec, 1),
        flat_from=_flat_from(spec, diag),
    )


def _max_defined(tw: TransformedWeights, lo: int, hi: int, best: Fraction) -> Fraction:
    """The largest of ``best`` and every defined g_n^2, lo <= n <= hi."""
    values = tw.pairs_sq(lo, hi + 1)
    defined = [v for v in values if v is not None]
    return max(best, Fraction(*pair_max(defined))) if defined else best


def _sup_past(tw: TransformedWeights, form: RationalFunction, ray: Ray, best: Fraction) -> Fraction:
    """The largest of ``best`` (at least the limit and g_n^2 at the ray's
    end) and g_n^2 on the ray, where ``form`` is g_n^2 unreduced.

    The form is oriented on the ray once, num(m) / den(m) being g_n^2 at
    n = ray.at(m). The ray's integers m = 0, ..., w are scanned, for
    w = 0, 1, 2, 4, ..., raising S to any larger value, until
    :func:`gamma_bounded` certifies S past the scan.

    It ends: S stops rising once the scan passes the largest value above
    the limit, if any; then the gap's leading sign is positive, as S
    exceeds the limit or g_n^2 nears it from below. Once the scan passes
    the real part of every root of the gap and den, each Taylor shift has
    its roots in the left half-plane, so its coefficients share one sign:
    the Cauchy bound is the latest stop. A negative d_n lies before a root
    of den or where den stays negative, so the scan reaches it and raises.
    """
    num, den = ray.orient(form.num), ray.orient(form.den)
    w = 0  # the scan has reached m = w
    while not gamma_bounded(num, den, w, (best.numerator, best.denominator)):
        w, last = max(1, 2 * w), w
        best = _max_defined(tw, *sorted((ray.at(last + 1), ray.at(w))), best)
    return best


def bounded_on_left_ray(tw: TransformedWeights, upto: int) -> Fraction:
    """Exact bound on {g_n^2 : n <= upto}, attained or equal to the limit.

    Requires d_n > 0 for every n <= upto (the caller certifies strict
    increase on that ray first). The limit and the values from the left
    form's ray end up to ``upto`` are certified on the ray by
    :func:`_sup_past`.
    """
    form = tw.form(0)
    if form is None:
        raise ValueError("left ray is flat; boundedness requires d_n > 0 below upto")

    end = min(tw.spec.window_start - 2, upto)
    values = tw.pairs_sq(end, upto + 1)
    if None in values:
        raise ValueError(f"transformed weight undefined at n = {end + values.index(None)}")
    best = max(tw.left_limit_sq.value, Fraction(*pair_max(values)))
    return _sup_past(tw, form, Ray.le(end), best)


def sup_sq_global(tw: TransformedWeights) -> Fraction:
    """Exact supremum of g_n^2 over every index where it is defined.

    Indices where g is undefined (the invariance-obstruction spots) are
    skipped; they carry no weight value. The limits and the values between
    the two forms' rays are certified on each ray by :func:`_sup_past`.
    """
    spec = tw.spec
    lo, hi = spec.window_start - 2, spec.window_end + 2
    best = _max_defined(tw, lo, hi, max(tw.left_limit_sq.value, tw.right_limit_sq.value))
    for side, ray in ((0, Ray.le(lo)), (1, Ray.ge(hi))):
        form = tw.form(side)
        if form is not None:
            best = _sup_past(tw, form, ray, best)
    return best
