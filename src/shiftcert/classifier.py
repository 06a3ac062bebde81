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
are equal and which rise strictly. :func:`check_hyponormal` lists the equal
pairs from the zeros of each tail's first difference and from the seam
values, and every rule past hyponormality reads that pattern through
:meth:`HyponormalityCheck.first_rise`; none evaluates a modulus again.

Every verdict carries a :class:`Certificate` holding the certified
structure, the witnesses, exact limits and bounds, and replayable spot
checks; :func:`replay` recomputes all of it from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from itertools import groupby, zip_longest

# ray_root_free_cutoff is unused here: perfbench/spans.py wraps it in this module.
from .polycert import Limit, Ray, RaySign, ray_root_free_cutoff, sign_on_ray  # noqa: F401
from .shiftcalc import (
    CommutatorDiagonal,
    TransformedWeights,
    bounded_on_left_ray,
    commutator_diagonal,
    difference_form,
    transformed_weights,
)
from .weights import (
    TailSpec,
    ValidationReport,
    WeightSpec,
    left_ray,
    tail_constant_value,
    validate,
)


class InvalidSpec(ValueError):
    """The weight description failed validation."""

    def __init__(self, report: ValidationReport):
        details = "; ".join(v.detail for v in report.violations)
        super().__init__(f"invalid weight description: {details}")
        self.report = report


class Shape(Enum):
    STRICT_INCREASE = "strict-increase"
    CONSTANT = "constant"


class Relation(Enum):
    LT = "<"
    EQ = "="


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


@dataclass(frozen=True)
class StructureProfile:
    """Certified shape of the modulus sequence.

    Pair index n stands for the comparison |beta_n| vs |beta_{n+1}|.
    ``left_equalities`` lists the equal pairs strictly inside the left tail
    (pair n with n <= window_start - 2); for a constant tail they are not
    enumerated (the shape carries that). ``right_equalities`` is None when
    the right tail is constant (every deep pair is equal).
    ``first_equality`` is the globally minimal equal pair, or None when no
    equality exists or the left tail is constant (no minimal pair).
    """

    left_shape: Shape
    left_value: Fraction | None
    left_equalities: tuple[int, ...]
    window_relations: tuple[Relation, ...]
    right_shape: Shape
    right_value: Fraction | None
    right_equalities: tuple[int, ...] | None
    first_equality: int | None


@dataclass(frozen=True)
class ReplayPoint:
    kind: str  # "beta_sq" | "d" | "gamma_sq"
    index: int
    value: Fraction


@dataclass(frozen=True)
class Certificate:
    verdict_class: VerdictClass
    criterion: Criterion | None
    profile: StructureProfile | None
    witness: int | None
    first_equality: int | None
    flat_pair_index: int | None
    left_run_end: int | None
    left_limit_sq: Limit | None
    right_limit_sq: Limit | None
    left_sup_sq: Fraction | None
    flat_from: int | None
    sup_modulus: Fraction
    replay_points: tuple[ReplayPoint, ...] = field(default=())


@dataclass(frozen=True)
class Verdict:
    klass: VerdictClass
    criterion: Criterion | None
    witness: int | None
    certificate: Certificate


@dataclass(frozen=True)
class HyponormalityCheck:
    """Outcome of :func:`check_hyponormal`, with the diagonal it was built on.

    Once hyponormality holds the moduli are nondecreasing, so every pair
    is equal or a strict rise, and that pair pattern is all the rules past
    hyponormality read, through :meth:`first_rise`. ``equal_pairs`` lists,
    ascending, every equal pair outside a constant left tail; a constant
    right tail contributes only its first pair, window_end + 1, and makes
    every pair from there on equal. It is empty when the shift is not
    hyponormal.
    """

    hyponormal: bool
    witness: int | None  # violating pair, smallest |n|, ties toward negative
    profile: StructureProfile | None
    diag: CommutatorDiagonal
    equal_pairs: tuple[int, ...]

    def first_rise(self, pair: int) -> int | None:
        """Smallest p >= pair with |beta_p| < |beta_{p+1}|, or None when
        every pair from ``pair`` on is equal. Needs hyponormality."""
        profile = self.profile
        assert profile is not None
        spec = self.diag.spec
        if profile.left_shape == Shape.CONSTANT:
            pair = max(pair, spec.window_start - 1)
        for e in self.equal_pairs:
            if e > pair:
                break
            if e == pair:
                pair += 1
        if profile.right_shape == Shape.CONSTANT and pair > spec.window_end:
            return None
        return pair


def _witness_key(n: int) -> tuple[int, int]:
    return (abs(n), 0 if n < 0 else 1)


def _tail_violation(sgn: RaySign) -> int:
    """Best (smallest-|n|) violating pair among a tail's negative d_z.

    Negative d_z is the violated pair z - 1. Only called once sign analysis
    found a negative value on the ray, so there is at least one candidate.
    """
    return min((z - 1 for z in sgn.negatives), key=_witness_key)


def _tail_structure(
    tail: TailSpec, ray: Ray
) -> tuple[Shape, Fraction | None, tuple[int, ...] | None, int | None]:
    """Shape, constant value, equal pairs and violating pair of one tail.

    ``ray`` holds the n with n and n - 1 in the tail, where d_n has the
    sign of the first difference. The equal pairs are None for a constant
    tail (every deep pair is equal).
    """
    const = tail_constant_value(tail)
    if const is not None:
        return Shape.CONSTANT, const, None, None
    sgn = sign_on_ray(difference_form(tail.fn), ray)
    if sgn.nonnegative:
        return Shape.STRICT_INCREASE, None, tuple(z - 1 for z in sgn.zeros), None
    return Shape.STRICT_INCREASE, None, (), _tail_violation(sgn)


def check_hyponormal(spec: WeightSpec) -> HyponormalityCheck:
    """Certify |beta_n| <= |beta_{n+1}| for every integer n.

    Tails are certified by ray-sign analysis of their exact first
    difference f(n) - f(n-1), which has the sign of d_n on a validated
    tail; the seam pairs are compared directly. On failure the witness is
    the violating pair of smallest |n| (ties toward negative).
    """
    diag = commutator_diagonal(spec)
    left_shape, left_value, left_equalities, left_witness = _tail_structure(
        spec.left_tail, left_ray(spec)
    )
    right_shape, right_value, right_equalities, right_witness = _tail_structure(
        spec.right_tail, Ray.ge(spec.window_end + 2)
    )
    # Seam value i is d_n at n = seam_start + i, the pair n - 1.
    seams = list(enumerate(diag.seam_values, start=diag.seam_start - 1))
    violations = [w for w in (left_witness, right_witness) if w is not None]
    violations += [pair for pair, d in seams if d < 0]
    if violations:
        return HyponormalityCheck(
            False, min(violations, key=_witness_key), None, diag, ()
        )

    left_equalities = left_equalities or ()
    right_pairs = (
        [spec.window_end + 1] if right_equalities is None else list(right_equalities)
    )
    equal_pairs = (
        list(left_equalities) + [pair for pair, d in seams if d == 0] + right_pairs
    )
    first_equality = (
        equal_pairs[0] if equal_pairs and left_shape != Shape.CONSTANT else None
    )
    profile = StructureProfile(
        left_shape=left_shape,
        left_value=left_value,
        left_equalities=left_equalities,
        window_relations=tuple(
            Relation.EQ if d == 0 else Relation.LT for d in diag.seam_values
        ),
        right_shape=right_shape,
        right_value=right_value,
        right_equalities=right_equalities,
        first_equality=first_equality,
    )
    return HyponormalityCheck(True, None, profile, diag, tuple(equal_pairs))


def _replay_points(
    spec: WeightSpec,
    diag: CommutatorDiagonal,
    tw: TransformedWeights | None,
    extra_indices: list[int],
) -> tuple[ReplayPoint, ...]:
    first, last = spec.window_start, spec.window_end
    points: list[ReplayPoint] = []
    beta_indices = sorted({first - 1, first, last, last + 1})
    for n in beta_indices:
        v = spec.value(n)
        points.append(ReplayPoint("beta_sq", n, v * v))
    points += [
        ReplayPoint("d", n, d) for n, d in enumerate(diag.seam_values, start=diag.seam_start)
    ]
    if tw is not None:
        gamma_indices = sorted(
            set([first - 2, first - 1, first, last + 1, last + 2] + extra_indices)
        )[:10]
        # One range call per run of consecutive indices shares the moduli.
        for _, pairs in groupby(enumerate(gamma_indices), lambda p: p[1] - p[0]):
            run = [n for _, n in pairs]
            values, _ = tw.values_sq(run[0], run[-1] + 1)
            points += [ReplayPoint("gamma_sq", n, v) for n, v in zip(run, values) if v is not None]
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
        profile: StructureProfile | None = None,
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
            profile=profile,
            witness=witness,
            first_equality=first_equality,
            flat_pair_index=flat_pair_index,
            left_run_end=left_run_end,
            left_limit_sq=tw.left_limit_sq if tw else None,
            right_limit_sq=tw.right_limit_sq if tw else None,
            left_sup_sq=left_sup_sq,
            flat_from=tw.flat_from if tw else None,
            sup_modulus=sup_modulus,
            replay_points=_replay_points(spec, diag, tw, extra_points or []),
        )
        return Verdict(klass, criterion, witness, cert)

    if not check.hyponormal:
        return build(VerdictClass.NOT_HYPONORMAL, witness=check.witness)

    profile = check.profile
    assert profile is not None

    if profile.left_shape == Shape.CONSTANT:
        # Constant left ray: near subnormal would force normality, so the
        # first strict rise, if any, obstructs it.
        rise = check.first_rise(spec.window_start - 1)
        if rise is None:
            return build(VerdictClass.NORMAL, profile=profile)
        return build(
            VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
            criterion=Criterion.CONSTANT_LEFT,
            profile=profile,
            witness=rise + 1,
            left_run_end=rise,
        )

    tw = transformed_weights(spec, diag)

    k = profile.first_equality
    if k is None:
        return build(
            VerdictClass.NEAR_SUBNORMAL,
            criterion=Criterion.STRICT_INCREASE,
            profile=profile,
            tw=tw,
        )

    rise = check.first_rise(k)
    if rise is None:
        return build(
            VerdictClass.NEAR_SUBNORMAL,
            criterion=Criterion.FLAT_TAIL,
            profile=profile,
            first_equality=k,
            tw=tw,
            left_sup_sq=bounded_on_left_ray(tw, k - 1),
            extra_points=[k - 1, k],
        )

    # Isolated flat pair: |beta_{j-1}| < |beta_j| = |beta_{j+1}| < |beta_{j+2}|.
    isolated = (e for e in check.equal_pairs if check.first_rise(e - 1) == e - 1)
    j0 = next((e for e in isolated if check.first_rise(e + 1) == e + 1), None)
    if j0 is not None:
        return build(
            VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
            criterion=Criterion.FLAT_PAIR,
            profile=profile,
            witness=j0,
            first_equality=k,
            flat_pair_index=j0,
            tw=tw,
            extra_points=[j0 - 1],
        )
    return build(
        VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
        criterion=Criterion.FLAT_TAIL_VIOLATION,
        profile=profile,
        witness=rise + 1,
        first_equality=k,
        tw=tw,
    )


@dataclass(frozen=True)
class ReplayResult:
    consistent: bool
    detail: str | None = None


def _point_mismatch(recorded: ReplayPoint | None, fresh: ReplayPoint | None) -> str:
    if recorded is None:
        assert fresh is not None
        return f"missing replay point {fresh.kind} at n = {fresh.index}"
    if fresh is None:
        return f"unexpected replay point {recorded.kind} at n = {recorded.index}"
    if (recorded.kind, recorded.index) == (fresh.kind, fresh.index):
        return (
            f"{recorded.kind} at n = {recorded.index}: recorded {recorded.value}, "
            f"recomputed {fresh.value}"
        )
    return (
        f"replay point {recorded.kind} at n = {recorded.index} recorded where "
        f"{fresh.kind} at n = {fresh.index} is recomputed"
    )


def replay(cert: Certificate, spec: WeightSpec) -> ReplayResult:
    """Classify the spec from scratch and compare every certificate field.

    The replay points are compared in order, so a changed, dropped or added
    point is reported with its kind and index.
    """
    try:
        fresh = classify(spec).certificate
    except (ValueError, ZeroDivisionError) as exc:
        return ReplayResult(False, f"recomputation failed: {exc}")
    for f in fields(Certificate):
        a, b = getattr(cert, f.name), getattr(fresh, f.name)
        if f.name == "replay_points":
            for p, q in zip_longest(a, b):
                if p != q:
                    return ReplayResult(False, _point_mismatch(p, q))
        elif a != b:
            label = f.name.replace("_", " ")
            return ReplayResult(False, f"{label} mismatch: recorded {a}, recomputed {b}")
    return ReplayResult(True)
