"""Classification of bilateral weighted shifts with exact certificates.

The decision surface:

* ``not-hyponormal``   -- some |beta_n| > |beta_{n+1}| (witnessed).
* ``normal``           -- all moduli equal.
* ``near-subnormal``   -- via the everywhere-strict criterion (strict
  increase everywhere) or the flat-right-tail criterion (strict increase up
  to k, constant from k on).
* ``hyponormal-not-near-subnormal`` -- via the constant-left-tail
  obstruction, the isolated-flat-pair obstruction, or the converse of the
  flat-right-tail criterion (an equality not followed by a flat right tail).

Both positive criteria also ask for transformed weights bounded on the
strict part. Every tail the spec format expresses has a finite limit L and,
when it varies, a nonzero d-form, so its transformed weights tend to L^2:
they are always bounded, and the structure alone decides.

That structure is one certified fact: which pairs |beta_n|, |beta_{n+1}|
are equal and which rise strictly. :func:`check_hyponormal` lists it as
maximal runs of equal pairs, from the zeros of each tail's first
difference, the runs of seam values of one sign and the constant tails.
Every rule past hyponormality reads those runs (where the first starts
and ends, which holds a single pair) and evaluates no modulus again, in
time linear in the number of runs, however long a run is.

Each varying tail is walked once per spec: the spec keeps its walk
(:meth:`~shiftcert.weights.WeightSpec.walk`, side 0 the left tail and side
1 the right), which validation fills and :func:`check_hyponormal` and
:func:`~shiftcert.shiftcalc.transformed_weights` read the first
difference's zeros and negatives off. A tail is constant exactly when its
walk has no first difference.

Every verdict carries a :class:`Certificate` holding those equal runs,
the witnesses, exact limits and bounds, and replayable spot checks.
:func:`replay` is a checker apart from the decision code above: it
verifies each claim of a certificate from a fresh copy of the spec, and
shares with :func:`classify` the tail walk
(:func:`~shiftcert.polycert.walk_ray`), exact evaluation and integer
polynomial arithmetic, the gamma form and the first step of the
gamma-supremum certificate (:func:`~shiftcert.shiftcalc.gamma_bounded`),
and the whole certificate (:func:`~shiftcert.shiftcalc.bounded_on_left_ray`)
only where that step does not settle ``left_sup_sq``. So it catches a wrong
dispatch, not only a nondeterministic one, at about two thirds of the
cost of classifying again (README.md gives the measured cost).
Verdicts, certificates and their parts are immutable NamedTuples.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from itertools import groupby, zip_longest
from typing import NamedTuple

from .polycert import (
    Limit,
    Pair,
    PoleOnRay,
    Ray,
    RaySign,
    pair_max,
)
from .shiftcalc import (
    CommutatorDiagonal,
    TransformedWeights,
    bounded_on_left_ray,
    commutator_diagonal,
    gamma_bounded,
    gamma_form,
    transformed_weights,
)
from .weights import (
    MAX_TAIL_DEGREE,
    ConstantTail,
    TailSpec,
    ValidationReport,
    WeightSpec,
    validate,
    witness_key,
)

# Unused here: perfbench/spans.py wraps these names in this module.
from .polycert import ray_root_free_cutoff, sign_on_ray  # noqa: F401


class InvalidSpec(ValueError):
    """The weight description failed validation."""

    def __init__(self, report: ValidationReport):
        details = "; ".join(v.detail for v in report.violations)
        super().__init__(f"invalid weight description: {details}")
        self.report = report


class VerdictClass(Enum):
    NOT_HYPONORMAL = "not-hyponormal"
    NORMAL = "normal"
    NEAR_SUBNORMAL = "near-subnormal"
    HYPONORMAL_NOT_NEAR_SUBNORMAL = "hyponormal-not-near-subnormal"


class Criterion(Enum):
    """Which decision rule settled the classification."""

    STRICT_INCREASE = "strict-increase-bounded-transform"
    FLAT_TAIL = "flat-right-tail"
    FLAT_TAIL_VIOLATION = "flat-right-tail-violation"
    CONSTANT_LEFT = "constant-left-tail"
    FLAT_PAIR = "isolated-flat-pair"


class ReplayPoint(NamedTuple):
    kind: str  # "beta_sq" | "d" | "gamma_sq"
    index: int
    value: Fraction


class Certificate(NamedTuple):
    """A verdict's claims, each checked by :func:`replay`.

    ``equal_runs`` is the certified pattern: the maximal runs of equal
    pairs |beta_n| = |beta_{n+1}| as :attr:`HyponormalityCheck.equal_runs`
    lists them, every other pair a strict rise. It is None when the shift
    is not hyponormal, and ``witness`` names a violating pair instead.
    """

    verdict_class: VerdictClass
    criterion: Criterion | None
    equal_runs: tuple[tuple[int | None, int | None], ...] | None
    witness: int | None
    first_equality: int | None
    flat_pair_index: int | None
    left_run_end: int | None
    left_limit_sq: Limit | None
    right_limit_sq: Limit | None
    left_sup_sq: Fraction | None
    flat_from: int | None
    sup_modulus: Fraction
    replay_points: tuple[ReplayPoint, ...] = ()


class Verdict(NamedTuple):
    klass: VerdictClass
    criterion: Criterion | None
    witness: int | None
    certificate: Certificate


class HyponormalityCheck(NamedTuple):
    """Outcome of :func:`check_hyponormal`, with the diagonal it was built on.

    ``seam_runs`` holds the maximal runs of seams n whose d_n has one sign,
    ascending, as (sign, first n, last n) with sign -1, 0 or 1.

    Once hyponormality holds the moduli are nondecreasing, so every pair
    is equal or a strict rise, and that pair pattern is all the rules past
    hyponormality read. ``equal_runs`` lists, ascending, the maximal runs
    (first pair, last pair) of equal pairs; a constant left tail starts
    the first with None, every pair up to its last equal, and a constant
    right tail ends the last with None. Every other pair rises. So the
    left tail is constant exactly when the first run starts with None,
    and otherwise that run's first pair is the least equal pair k. It is
    empty when the shift is not hyponormal.
    """

    hyponormal: bool
    witness: int | None  # violating pair, smallest |n|, ties toward negative
    diag: CommutatorDiagonal
    seam_runs: tuple[tuple[int, int, int], ...]
    equal_runs: tuple[tuple[int | None, int | None], ...]


def _tail_violation(sgn: RaySign) -> int:
    """Best (smallest-|n|) violating pair among a tail's negative d_z.

    Negative d_z is the violated pair z - 1. Only called once sign analysis
    found a negative value on the ray, so there is at least one candidate.
    """
    return min((z - 1 for z in sgn.negatives), key=witness_key)


def _tail_structure(spec: WeightSpec, side: int) -> tuple[tuple[int, ...] | None, int | None]:
    """Equal pairs and violating pair of one tail.

    The tail's first difference, signed at each n with n and n - 1 in the
    tail, has the sign of d_n there. The equal pairs are None for a
    constant tail (every deep pair is equal).
    """
    sgn = spec.delta(side)
    if sgn is None:
        return None, None
    if not sgn.negatives:
        return tuple(z - 1 for z in sgn.zeros), None
    return (), _tail_violation(sgn)


def check_hyponormal(spec: WeightSpec) -> HyponormalityCheck:
    """Certify |beta_n| <= |beta_{n+1}| for every integer n.

    Tails are certified by the sign of their exact first difference
    f(n) - f(n-1), which has the sign of d_n on a validated tail, read off
    each tail's walk (:meth:`~shiftcert.weights.WeightSpec.delta`); the
    seam pairs are compared directly. On failure the witness is the
    violating pair of smallest |n| (ties toward negative).
    """
    diag = commutator_diagonal(spec)
    left_equalities, left_witness = _tail_structure(spec, 0)
    right_equalities, right_witness = _tail_structure(spec, 1)
    # Seam value i is d_n at n = window_start + i, the pair n - 1.
    runs, n = [], spec.window_start
    for sign, group in groupby([(a > 0) - (a < 0) for a, _ in diag.seam_values]):
        length = len(list(group))
        runs.append((sign, n, n + length - 1))
        n += length
    violations = [w for w in (left_witness, right_witness) if w is not None]
    # A negative run's pair nearest 0, which ranks first by witness_key.
    violations += [max(first - 1, min(last - 1, 0)) for sign, first, last in runs if sign < 0]
    if violations:
        witness = min(violations, key=witness_key)
        return HyponormalityCheck(False, witness, diag, tuple(runs), ())

    # The equal pairs as maximal runs (first, last); a constant tail's run
    # has no first (left) or last (right) pair.
    ws, we = spec.window_start, spec.window_end
    spans = [(None, ws - 2)] if left_equalities is None else [(e, e) for e in left_equalities]
    spans += [(first - 1, last - 1) for sign, first, last in runs if sign == 0]
    spans += [(we + 1, None)] if right_equalities is None else [(e, e) for e in right_equalities]
    equal_runs: list[tuple[int | None, int | None]] = []
    for first, last in spans:
        if equal_runs and equal_runs[-1][1] == first - 1:
            first = equal_runs.pop()[0]
        equal_runs.append((first, last))
    return HyponormalityCheck(True, None, diag, tuple(runs), tuple(equal_runs))


def _replay_points(
    spec: WeightSpec,
    check: HyponormalityCheck,
    tw: TransformedWeights | None,
    extra_indices: list[int],
) -> tuple[ReplayPoint, ...]:
    """|beta_n|^2 at the window's edges; d_n at the first and last seam of
    each run of one sign, and at a seam witness; g_n^2 around the window
    and at the cited indices."""
    first, last = spec.window_start, spec.window_end
    diag = check.diag
    points: list[ReplayPoint] = []
    # The seam moduli start at index first - 1.
    points += [
        ReplayPoint("beta_sq", n, Fraction(p * p, q * q))
        for n in sorted({first - 1, first, last, last + 1})
        for p, q in [diag.seam_moduli[n - first + 1]]
    ]
    seams = {n for _, a, b in check.seam_runs for n in (a, b)}
    if check.witness is not None and first - 1 <= check.witness <= last:
        seams.add(check.witness + 1)
    points += [ReplayPoint("d", n, Fraction(*diag.seam_values[n - first])) for n in sorted(seams)]
    if tw is not None:
        gamma_indices = sorted({first - 2, first - 1, first, last + 1, last + 2, *extra_indices})
        # One range call per run of consecutive indices shares the moduli.
        for _, pairs in groupby(enumerate(gamma_indices), lambda p: p[1] - p[0]):
            run = [n for _, n in pairs]
            values = tw.pairs_sq(run[0], run[-1] + 1)
            points += [
                ReplayPoint("gamma_sq", n, Fraction(*v)) for n, v in zip(run, values) if v is not None
            ]
    return tuple(points)


def classify(spec: WeightSpec) -> Verdict:
    """Dispatch the classification and emit a verdict with its certificate.

    Raises :class:`InvalidSpec` if the description fails validation.
    """
    report = validate(spec)
    if not report.ok:
        raise InvalidSpec(report)
    assert report.sup_bound is not None
    sup_modulus = report.sup_bound
    check = check_hyponormal(spec)
    diag = check.diag

    def build(
        klass: VerdictClass,
        criterion: Criterion | None = None,
        witness: int | None = None,
        first_equality: int | None = None,
        flat_pair_index: int | None = None,
        left_run_end: int | None = None,
        tw: TransformedWeights | None = None,
        left_sup_sq: Fraction | None = None,
        extra_points: list[int] | None = None,
    ) -> Verdict:
        cert = Certificate(
            verdict_class=klass,
            criterion=criterion,
            equal_runs=check.equal_runs if check.hyponormal else None,
            witness=witness,
            first_equality=first_equality,
            flat_pair_index=flat_pair_index,
            left_run_end=left_run_end,
            left_limit_sq=tw.left_limit_sq if tw else None,
            right_limit_sq=tw.right_limit_sq if tw else None,
            left_sup_sq=left_sup_sq,
            flat_from=tw.flat_from if tw else None,
            sup_modulus=sup_modulus,
            replay_points=_replay_points(spec, check, tw, extra_points or []),
        )
        return Verdict(klass, criterion, witness, cert)

    if not check.hyponormal:
        return build(VerdictClass.NOT_HYPONORMAL, witness=check.witness)

    # The least equal pair k and the first rise past its run; None where
    # no run exists, the left tail is constant (k) or the run never ends.
    k, end = check.equal_runs[0] if check.equal_runs else (None, None)
    rise = None if end is None else end + 1

    if check.equal_runs and k is None:
        # Constant left ray: near subnormal would force normality, so the
        # first strict rise, if any, obstructs it.
        if rise is None:
            return build(VerdictClass.NORMAL)
        return build(
            VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
            criterion=Criterion.CONSTANT_LEFT,
            witness=rise + 1,
            left_run_end=rise,
        )

    tw = transformed_weights(spec, diag)

    if k is None:
        return build(
            VerdictClass.NEAR_SUBNORMAL,
            criterion=Criterion.STRICT_INCREASE,
            tw=tw,
        )

    if rise is None:
        return build(
            VerdictClass.NEAR_SUBNORMAL,
            criterion=Criterion.FLAT_TAIL,
            first_equality=k,
            tw=tw,
            left_sup_sq=bounded_on_left_ray(tw, k - 1),
            extra_points=[k - 1, k],
        )

    # Isolated flat pair: |beta_{j-1}| < |beta_j| = |beta_{j+1}| < |beta_{j+2}|,
    # a run of one equal pair.
    j0 = next((a for a, b in check.equal_runs if a == b), None)
    if j0 is not None:
        return build(
            VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
            criterion=Criterion.FLAT_PAIR,
            witness=j0,
            first_equality=k,
            flat_pair_index=j0,
            tw=tw,
            extra_points=[j0 - 1],
        )
    return build(
        VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
        criterion=Criterion.FLAT_TAIL_VIOLATION,
        witness=rise + 1,
        first_equality=k,
        tw=tw,
    )


class ReplayResult(NamedTuple):
    consistent: bool
    detail: str | None = None


# An expected replay point: kind, index and the value as an int pair.
_Point = tuple[str, int, int, int]
# Pads the shorter of the recorded and the expected replay points.
_ABSENT = object()


def _same(recorded: object, expected: object) -> bool:
    """Whether a recorded certificate value is the expected one: of the same
    type, member by member, and equal."""
    if recorded is expected:
        return True
    if type(recorded) is not type(expected):
        return False
    if isinstance(recorded, tuple):
        return len(recorded) == len(expected) and all(map(_same, recorded, expected))
    return recorded == expected


def _same_point(recorded: object, expected: _Point) -> bool:
    """Whether a recorded replay point is the expected one: a ReplayPoint of
    its kind, int index and Fraction value, the value compared with the
    expected int pair by cross-multiplication."""
    kind, index, num, den = expected
    return (
        type(recorded) is ReplayPoint
        and recorded.kind == kind
        and type(recorded.index) is int
        and recorded.index == index
        and type(recorded.value) is Fraction
        and recorded.value.numerator * den == num * recorded.value.denominator
    )


def _point_mismatch(recorded: object, expected: _Point) -> str:
    """Names the first recorded point that differs from the expected one;
    either may be :data:`_ABSENT`, past the end of its list."""
    if expected is not _ABSENT:
        kind, index, num, den = expected
        fresh = ReplayPoint(kind, index, Fraction(num, den))
    if recorded is _ABSENT:
        return f"missing replay point {fresh.kind} at n = {fresh.index}"
    if type(recorded) is not ReplayPoint:
        return f"replay point {recorded!r} is not a ReplayPoint"
    if expected is _ABSENT:
        return f"unexpected replay point {recorded.kind} at n = {recorded.index}"
    if _same(recorded[:2], fresh[:2]):
        return (
            f"{recorded.kind} at n = {recorded.index}: recorded {recorded.value}, "
            f"recomputed {fresh.value}"
        )
    return (
        f"replay point {recorded.kind} at n = {recorded.index} recorded where "
        f"{fresh.kind} at n = {fresh.index} is recomputed"
    )


def _limit_sq(tail: TailSpec, delta: RaySign | None) -> Limit:
    """The limit of g_n^2 along a tail: the squared ratio of the leading
    coefficients when num and den have one degree, else 0, and 0 on a
    constant tail. One ``Fraction`` is built, where
    ``limit_at_infinity(tail.fn).value ** 2`` builds two."""
    if delta is None:
        return Limit(Fraction(0))
    p, q = tail.fn.num.ints, tail.fn.den.ints
    return Limit(Fraction(p[-1] ** 2, q[-1] ** 2) if len(p) == len(q) else Fraction(0))


def _expected_certificate(spec: WeightSpec) -> Certificate:
    """The one certificate :func:`replay` accepts for a fresh spec, its
    replay points as (kind, index, numerator, denominator) tuples.

    Every fact comes from the spec's tail walks and from one exact
    evaluation of the moduli that the seams and the replay points need,
    never from the decision code. Raises ValueError, naming the fault, when
    the spec is invalid.
    """
    first, last = spec.window_start, spec.window_end
    window = [v.as_integer_ratio() for v in spec.window_values]
    if not window:
        raise ValueError("invalid spec: the window is empty")
    if min(window)[0] <= 0:
        n = first + next(i for i, (p, _) in enumerate(window) if p <= 0)
        raise ValueError(f"invalid spec: window value at n = {n} is not positive")
    sups = list(spec.window_values)  # the candidates for sup_modulus, and their pairs
    sup_pairs = list(window)
    deltas: list[RaySign | None] = []  # a tail's first difference; None if constant
    for side, name in enumerate(("left", "right")):
        tail = spec.tail(side)
        if isinstance(tail, ConstantTail):
            sup = tail.value
        else:
            num, den = tail.fn.num.degree, tail.fn.den.degree
            if num > MAX_TAIL_DEGREE or den > MAX_TAIL_DEGREE:
                raise ValueError(f"invalid spec: {name} tail degree exceeds {MAX_TAIL_DEGREE}")
            if num > den:
                raise ValueError(f"invalid spec: {name} tail is unbounded")
            try:
                walk = spec.walk(side)
            except PoleOnRay as exc:
                raise ValueError(f"invalid spec: {name} tail: {exc}") from None
            sup = walk.sup  # a constant ratio's value
            if walk.delta is not None and (walk.sign.zeros or walk.sign.negatives):
                fault = "zero" if walk.sign.zeros else "negative value"
                raise ValueError(f"invalid spec: {name} tail has a {fault}")
        delta = spec.delta(side)
        if delta is None and sup.numerator <= 0:
            raise ValueError(f"invalid spec: {name} tail constant {sup} is not positive")
        sups.append(sup)
        sup_pairs.append((sup.numerator, sup.denominator))
        deltas.append(delta)
    left, right = deltas

    # The moduli from base = first - 1 - pad to last + 1 + pad: the seams
    # need first - 1 to last + 1, and the transformed weights of a varying
    # left tail two more on each side. The window's pairs are those above.
    pad = 0 if left is None else 2
    base = first - 1 - pad
    moduli = spec.value_pairs(base, first) + window + spec.value_pairs(last + 1, last + 2 + pad)

    def squares(n: int, stop: int) -> list[Pair]:
        """|beta_m|^2 for n <= m < stop, as int pairs."""
        if base <= n and stop <= base + len(moduli):
            pairs = moduli[n - base : stop - base]
        else:
            pairs = spec.value_pairs(n, stop)
        return [(p * p, q * q) for p, q in pairs]

    beta = (first - 1, first, last, last + 1) if first < last else (first - 1, first, last + 1)
    points: list[_Point] = [("beta_sq", n, *squares(n, n + 1)[0]) for n in beta]
    # The positive moduli p0 / q0 = |beta_{n-1}| and p1 / q1 = |beta_n| give
    # d_n the sign of p1 q0 - p0 q1, at each seam n = first, ..., last + 1.
    seam = moduli[pad : len(moduli) - pad]
    steps = [p1 * q0 - p0 * q1 for (p0, q0), (p1, q1) in zip(seam, seam[1:])]
    runs: list[tuple[int, int, int]] = []  # (sign, first seam, last seam), maximal
    n = first
    for sign, group in groupby((a > 0) - (a < 0) for a in steps):
        size = len(list(group))
        runs.append((sign, n, n + size - 1))
        n += size
    sup = sups[sup_pairs.index(pair_max(sup_pairs))]  # the first largest, as max() picks

    # A negative d_n lies at a seam or at a negative first difference. Of a
    # run of negative seams, the pair closest to 0 comes first by
    # witness_key: 0 clamped to the run's pairs.
    violations = [sorted((a - 1, 0, b - 1))[1] for sign, a, b in runs if sign < 0]
    for delta in deltas:
        if delta is not None:
            violations += [z - 1 for z in delta.negatives]
    witness = min(violations, key=witness_key) if violations else None
    # d_n at both ends of each run, and at a witness pair's seam.
    at = {n for _, a, b in runs for n in (a, b)}
    if witness is not None and first <= witness + 1 <= last + 1:
        at.add(witness + 1)
    for n in sorted(at):
        (a0, b0), (a1, b1) = squares(n - 1, n + 1)
        points.append(("d", n, a1 * b0 - a0 * b1, b0 * b1))
    if violations:
        return Certificate(
            VerdictClass.NOT_HYPONORMAL, None, None, witness, None, None, None, None, None,
            None, None, sup, tuple(points),
        )

    # The pattern: the maximal runs of equal pairs, ascending, as (first,
    # last); a constant tail's run has no first (left) or last (right) pair,
    # None. Every other pair rises.
    equal: list[tuple[int | None, int | None]] = []
    for a, b in [
        *([(None, first - 2)] if left is None else ((z - 1, z - 1) for z in left.zeros)),
        *((a - 1, b - 1) for sign, a, b in runs if not sign),
        *([(last + 1, None)] if right is None else ((z - 1, z - 1) for z in right.zeros)),
    ]:
        if equal and equal[-1][1] == a - 1:
            a = equal.pop()[0]
        equal.append((a, b))
    k, end = equal[0] if equal else (None, None)
    rise = None if end is None else end + 1  # the first rise past the first run
    equal_runs = tuple(equal)
    klass = VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL
    criterion = witness = first_equality = flat_pair_index = left_run_end = None
    left_sup = flat_from = None
    if left is None:
        # A constant left tail: the first rise, if any, obstructs.
        left_run_end = rise
        if left_run_end is None:
            klass = VerdictClass.NORMAL
        else:
            criterion, witness = Criterion.CONSTANT_LEFT, left_run_end + 1
        return Certificate(
            klass, criterion, equal_runs, witness, None, None, left_run_end, None, None, None,
            None, sup, tuple(points),
        )

    def gamma_sq(n: int) -> Pair | None:
        """g_n^2 = |beta_n|^2 d_{n+1} / d_n as an int pair, (0, 1) where
        d_n = d_{n+1} = 0 and None where d_n = 0 < d_{n+1}."""
        (s0, t0), (s, t), (s1, t1) = squares(n - 1, n + 2)
        a, b = s * t0 - s0 * t, t * t0  # d_n
        c, e = s1 * t - s * t1, t1 * t  # d_{n+1}
        if a > 0:
            return s * c * b, t * e * a
        return None if c else (0, 1)

    if right is None:
        flat_from = next((b for sign, _, b in reversed(runs) if sign), None)
        if flat_from is None:
            flat_from, zeros = first - 1, set(left.zeros)
            while flat_from in zeros:
                flat_from -= 1
    left_limit = _limit_sq(spec.tail(0), left)
    right_limit = _limit_sq(spec.tail(1), right)
    extra: tuple[int, ...] = ()
    if k is None:
        klass, criterion = VerdictClass.NEAR_SUBNORMAL, Criterion.STRICT_INCREASE
    elif rise is None:
        klass, criterion, first_equality = VerdictClass.NEAR_SUBNORMAL, Criterion.FLAT_TAIL, k
        # g_n^2 follows the left tail's form for n <= end; d_n > 0 for n <= k.
        end, limit = min(first - 2, k - 1), left_limit.value
        best = pair_max([(limit.numerator, limit.denominator), *map(gamma_sq, range(end, k))])
        # The first step of the gamma-supremum certificate, on n <= end.
        ray, form = Ray.le(end), gamma_form(spec.tail(0).fn)
        if gamma_bounded(ray.orient(form[0]), ray.orient(form[1]), 0, best):
            left_sup = Fraction(*best)
        else:
            tw = TransformedWeights(spec, left_limit, right_limit, flat_from)
            left_sup = bounded_on_left_ray(tw, k - 1)
        extra = (k - 1, k)
    else:
        first_equality = k
        # An isolated equal pair is a run of one pair.
        flat_pair_index = next((a for a, b in equal if a == b), None)
        if flat_pair_index is None:
            criterion, witness = Criterion.FLAT_TAIL_VIOLATION, rise + 1
        else:
            criterion, witness = Criterion.FLAT_PAIR, flat_pair_index
            extra = (flat_pair_index - 1,)

    for n in sorted({first - 2, first - 1, first, last + 1, last + 2, *extra}):
        g = gamma_sq(n)
        if g is not None:
            points.append(("gamma_sq", n, *g))
    return Certificate(
        klass, criterion, equal_runs, witness, first_equality, flat_pair_index, None,
        left_limit, right_limit, left_sup, flat_from, sup, tuple(points),
    )


def replay(cert: Certificate, spec: WeightSpec) -> ReplayResult:
    """Check every claim of the certificate against the spec.

    A checker, not a second classification: it never runs :func:`classify`,
    :func:`check_hyponormal` or :func:`~shiftcert.weights.validate`. On a
    fresh instance, ``WeightSpec(*spec)``, it walks each varying tail once
    and evaluates the moduli once around the window and at the cited
    indices, as int pairs. From those it checks validity and
    ``sup_modulus``; the witness of a violation, smallest |n| first; the
    equal runs, from the seam values and each tail's first difference; that
    the class, criterion and cited indices are the ones the rules name on
    that pattern of equal pairs and rises; the limits, from the tails'
    leading coefficients; ``flat_from``; ``left_sup_sq``, by
    the first step of the gamma-supremum certificate
    (:func:`~shiftcert.shiftcalc.gamma_bounded`) or, where that one check
    does not settle it, the whole certificate
    (:func:`~shiftcert.shiftcalc.bounded_on_left_ray`); and each replay
    point, by direct evaluation. Each field has exactly one value it
    accepts, of the type ``classify`` gives.

    The first field that differs is named in the detail, with the value
    expected; the replay points are compared in order, so a changed,
    dropped or added point is reported with its kind and index. A malformed
    certificate or an invalid spec gives ``consistent=False``, never an
    exception.
    """
    if type(cert) is not Certificate:
        return ReplayResult(False, f"not a certificate: {type(cert).__name__}")
    try:
        expected = _expected_certificate(WeightSpec(*spec))
    except ValueError as exc:
        return ReplayResult(False, str(exc))
    for name, a, b in zip(Certificate._fields[:-1], cert, expected):
        if a is not b and not _same(a, b):
            label = name.replace("_", " ")
            return ReplayResult(False, f"{label} mismatch: recorded {a}, recomputed {b}")
    points = cert.replay_points
    if type(points) is not tuple:
        detail = f"replay points mismatch: recorded a {type(points).__name__}, not a tuple"
        return ReplayResult(False, detail)
    for p, q in zip_longest(points, expected.replay_points, fillvalue=_ABSENT):
        if p is _ABSENT or q is _ABSENT or not _same_point(p, q):
            return ReplayResult(False, _point_mismatch(p, q))
    return ReplayResult(True)
