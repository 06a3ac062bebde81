"""Classification of bilateral weighted shifts with exact certificates.

The decision surface:

* ``not-hyponormal``   -- some |beta_n| > |beta_{n+1}| (witnessed).
* ``normal``           -- all moduli equal.
* ``near-subnormal``   -- via the everywhere-strict criterion (bounded
  transformed weights) or the flat-right-tail criterion (strict increase up
  to k, constant from k on, transformed weights bounded on the left ray).
* ``hyponormal-not-near-subnormal`` -- via the constant-left-tail
  obstruction, the isolated-flat-pair obstruction, or the converses of the
  two positive criteria.

Every verdict carries a :class:`Certificate` holding the certified
structure, the witnesses, exact limits and bounds, and replayable spot
checks; :func:`replay` recomputes all of it from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

from .polycert import (
    Limit,
    Ray,
    SignKind,
    asymptotic_sign,
    ray_root_free_cutoff,
    sign_on_ray,
)
from .shiftcalc import (
    CommutatorDiagonal,
    TransformedWeights,
    bounded_on_left_ray,
    commutator_diagonal,
    transformed_weights,
)
from .weights import (
    RationalTail,
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
    UNDECIDED = "undecided"  # defensive only; unreachable for supported tails


class Criterion(Enum):
    """Which decision rule settled the classification."""

    STRICT_INCREASE = "strict-increase-bounded-transform"
    STRICT_INCREASE_UNBOUNDED = "strict-increase-unbounded-transform"
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
    hyponormal: bool
    witness: int | None  # violating pair, smallest |n|, ties toward negative
    profile: StructureProfile | None


def _witness_key(n: int) -> tuple[int, int]:
    return (abs(n), 0 if n < 0 else 1)


def _left_tail_violation(diag: CommutatorDiagonal) -> int | None:
    """Best (smallest-|n|) violating pair inside the left tail, if any."""
    spec = diag.spec
    edge = spec.window_start - 1  # d-form domain: z <= edge
    form = diag.left_form
    cutoff = max(
        ray_root_free_cutoff(form.num, -1),
        ray_root_free_cutoff(form.den, -1),
        abs(edge),
    )
    candidates = [z - 1 for z in range(-cutoff, edge + 1) if form(z) < 0]
    far_negative = (
        asymptotic_sign(form.num, -1) * asymptotic_sign(form.den, -1) < 0
    )
    if far_negative:
        candidates.append(min(edge, -cutoff - 1) - 1)
    if not candidates:
        return None
    return min(candidates, key=_witness_key)


def _right_tail_violation(diag: CommutatorDiagonal) -> int | None:
    spec = diag.spec
    edge = spec.window_end + 2  # d-form domain: z >= edge
    form = diag.right_form
    if form.is_zero:
        return None
    cutoff = max(
        ray_root_free_cutoff(form.num, 1),
        ray_root_free_cutoff(form.den, 1),
        abs(edge),
    )
    candidates = [z - 1 for z in range(edge, cutoff + 1) if form(z) < 0]
    far_positive = asymptotic_sign(form.num, 1) * asymptotic_sign(form.den, 1) < 0
    if far_positive:
        candidates.append(max(edge, cutoff + 1) - 1)
    if not candidates:
        return None
    return min(candidates, key=_witness_key)


def check_hyponormal(spec: WeightSpec) -> HyponormalityCheck:
    """Certify |beta_n| <= |beta_{n+1}| for every integer n.

    Tails are certified symbolically via ray-sign analysis of the exact
    difference forms; the finitely many seam pairs are compared directly.
    On failure the witness is the violating pair of smallest |n| (ties
    toward negative).
    """
    diag = commutator_diagonal(spec)
    violations: list[int] = []

    left_const = tail_constant_value(spec.left_tail)
    left_equalities: tuple[int, ...] = ()
    if left_const is not None:
        left_shape, left_value = Shape.CONSTANT, left_const
    else:
        sgn = sign_on_ray(diag.left_form, left_ray(spec))
        if sgn.kind == SignKind.STRICTLY_POSITIVE:
            left_shape, left_value = Shape.STRICT_INCREASE, None
        elif sgn.kind == SignKind.HAS_ZEROS and sgn.negative_witness is None:
            left_shape, left_value = Shape.STRICT_INCREASE, None
            left_equalities = tuple(z - 1 for z in sgn.zeros)
        elif sgn.kind == SignKind.IDENTICALLY_ZERO:
            # d-form identically zero forces a constant-valued tail; only
            # reachable defensively since constant forms reduce earlier.
            left_shape = Shape.CONSTANT
            left_value = spec.value(spec.window_start - 1)
        else:
            w = _left_tail_violation(diag)
            assert w is not None
            violations.append(w)
            left_shape, left_value = Shape.STRICT_INCREASE, None

    relations: list[Relation] = []
    for i, d in enumerate(diag.seam_values):
        pair = diag.seam_start + i - 1
        if d < 0:
            violations.append(pair)
            relations.append(Relation.LT)  # placeholder; spec is rejected
        elif d == 0:
            relations.append(Relation.EQ)
        else:
            relations.append(Relation.LT)

    right_const = tail_constant_value(spec.right_tail)
    right_equalities: tuple[int, ...] | None = ()
    if right_const is not None:
        right_shape, right_value = Shape.CONSTANT, right_const
        right_equalities = None
    else:
        sgn = sign_on_ray(diag.right_form, Ray.ge(spec.window_end + 2))
        if sgn.kind == SignKind.STRICTLY_POSITIVE:
            right_shape, right_value = Shape.STRICT_INCREASE, None
        elif sgn.kind == SignKind.HAS_ZEROS and sgn.negative_witness is None:
            right_shape, right_value = Shape.STRICT_INCREASE, None
            right_equalities = tuple(z - 1 for z in sgn.zeros)
        elif sgn.kind == SignKind.IDENTICALLY_ZERO:
            right_shape = Shape.CONSTANT
            right_value = spec.value(spec.window_end + 1)
            right_equalities = None
        else:
            w = _right_tail_violation(diag)
            assert w is not None
            violations.append(w)
            right_shape, right_value = Shape.STRICT_INCREASE, None

    if violations:
        return HyponormalityCheck(False, min(violations, key=_witness_key), None)

    first_equality: int | None = None
    if left_shape != Shape.CONSTANT:
        eq_candidates = list(left_equalities)
        eq_candidates += [
            spec.window_start - 1 + i
            for i, r in enumerate(relations)
            if r == Relation.EQ
        ]
        if right_equalities is None:
            eq_candidates.append(spec.window_end + 1)
        else:
            eq_candidates += list(right_equalities)
        if eq_candidates:
            first_equality = min(eq_candidates)

    profile = StructureProfile(
        left_shape=left_shape,
        left_value=left_value,
        left_equalities=left_equalities,
        window_relations=tuple(relations),
        right_shape=right_shape,
        right_value=right_value,
        right_equalities=right_equalities,
        first_equality=first_equality,
    )
    return HyponormalityCheck(True, None, profile)


def _first_value_differing(spec: WeightSpec, start: int, target: Fraction) -> int:
    """Smallest n >= start with |beta_n| != target (must exist)."""
    n = start
    ceiling = spec.window_end + 2
    if isinstance(spec.right_tail, RationalTail):
        fn = spec.right_tail.fn
        delta_num = fn.num - fn.den.scale(target)
        if not delta_num.is_zero:
            ceiling = max(ceiling, ray_root_free_cutoff(delta_num, 1) + 1)
    while n <= ceiling:
        if spec.value(n) != target:
            return n
        n += 1
    raise AssertionError("no differing value found; sequence is constant")


def _flat_pair_index(
    diag: CommutatorDiagonal, profile: StructureProfile
) -> int | None:
    """Minimal j with |beta_{j-1}| < |beta_j| = |beta_{j+1}| < |beta_{j+2}|."""
    candidates: list[int] = list(profile.left_equalities)
    candidates += [
        diag.spec.window_start - 1 + i
        for i, r in enumerate(profile.window_relations)
        if r == Relation.EQ
    ]
    if profile.right_equalities:
        candidates += list(profile.right_equalities)
    hits = [
        e for e in sorted(candidates) if diag.entry(e) > 0 and diag.entry(e + 2) > 0
    ]
    return hits[0] if hits else None


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
    for n in range(first, last + 2):
        points.append(ReplayPoint("d", n, diag.entry(n)))
    if tw is not None:
        gamma_indices = sorted(
            set([first - 2, first - 1, first, last + 1, last + 2] + extra_indices)
        )
        for n in gamma_indices[:10]:
            v = tw.value_sq(n)
            if v is not None:
                points.append(ReplayPoint("gamma_sq", n, v))
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
        diag: CommutatorDiagonal | None = None,
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
            replay_points=_replay_points(
                spec,
                diag if diag is not None else commutator_diagonal(spec),
                tw,
                extra_points or [],
            ),
        )
        return Verdict(klass, criterion, witness, cert)

    check = check_hyponormal(spec)
    if not check.hyponormal:
        return build(VerdictClass.NOT_HYPONORMAL, witness=check.witness)

    profile = check.profile
    assert profile is not None
    diag = commutator_diagonal(spec)

    if profile.left_shape == Shape.CONSTANT:
        c = profile.left_value
        assert c is not None
        globally_constant = all(v == c for v in spec.window_values) and (
            profile.right_shape == Shape.CONSTANT and profile.right_value == c
        )
        if globally_constant:
            return build(VerdictClass.NORMAL, profile=profile, diag=diag)
        # Constant left ray: near subnormal would force normality, and the
        # sequence is not constant, so the first strict rise obstructs it.
        first_exceed = _first_value_differing(spec, spec.window_start, c)
        return build(
            VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
            criterion=Criterion.CONSTANT_LEFT,
            profile=profile,
            witness=first_exceed,
            left_run_end=first_exceed - 1,
            diag=diag,
        )

    tw = transformed_weights(spec, diag)

    if profile.first_equality is None:
        bounded = tw.left_limit_sq.is_finite and tw.right_limit_sq.is_finite
        if bounded:
            return build(
                VerdictClass.NEAR_SUBNORMAL,
                criterion=Criterion.STRICT_INCREASE,
                profile=profile,
                tw=tw,
                diag=diag,
            )
        return build(
            VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
            criterion=Criterion.STRICT_INCREASE_UNBOUNDED,
            profile=profile,
            tw=tw,
            diag=diag,
        )

    k = profile.first_equality
    top = spec.value(k)
    flat_right = True
    for n in range(k + 1, spec.window_end + 1):
        if spec.value(n) != top:
            flat_right = False
            break
    if flat_right and tail_constant_value(spec.right_tail) != top:
        flat_right = False

    if flat_right:
        bound = bounded_on_left_ray(tw, k - 1)
        if bound.bounded:
            return build(
                VerdictClass.NEAR_SUBNORMAL,
                criterion=Criterion.FLAT_TAIL,
                profile=profile,
                first_equality=k,
                tw=tw,
                left_sup_sq=bound.sup_sq,
                diag=diag,
                extra_points=[k - 1, k],
            )
        return build(
            VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
            criterion=Criterion.FLAT_TAIL_VIOLATION,
            profile=profile,
            first_equality=k,
            tw=tw,
            diag=diag,
        )

    j0 = _flat_pair_index(diag, profile)
    if j0 is not None:
        return build(
            VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
            criterion=Criterion.FLAT_PAIR,
            profile=profile,
            witness=j0,
            first_equality=k,
            flat_pair_index=j0,
            tw=tw,
            diag=diag,
            extra_points=[j0 - 1],
        )
    unequal = _first_value_differing(spec, k + 1, top)
    return build(
        VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL,
        criterion=Criterion.FLAT_TAIL_VIOLATION,
        profile=profile,
        witness=unequal,
        first_equality=k,
        tw=tw,
        diag=diag,
    )


@dataclass(frozen=True)
class ReplayResult:
    consistent: bool
    detail: str | None = None


def replay(cert: Certificate, spec: WeightSpec) -> ReplayResult:
    """Recompute every replay point and structural claim from scratch."""
    try:
        diag = commutator_diagonal(spec)
        tw = transformed_weights(spec, diag) if cert.left_limit_sq else None
        for point in cert.replay_points:
            if point.kind == "beta_sq":
                v = spec.value(point.index)
                actual: Fraction | None = v * v
            elif point.kind == "d":
                actual = diag.entry(point.index)
            elif point.kind == "gamma_sq":
                if tw is None:
                    tw = transformed_weights(spec, diag)
                actual = tw.value_sq(point.index)
            else:
                return ReplayResult(False, f"unknown replay point kind {point.kind!r}")
            if actual != point.value:
                return ReplayResult(
                    False,
                    f"{point.kind} at n = {point.index}: recorded {point.value}, "
                    f"recomputed {actual}",
                )
        fresh = classify(spec)
    except (ValueError, ZeroDivisionError) as exc:
        return ReplayResult(False, f"recomputation failed: {exc}")

    fc = fresh.certificate
    for name, a, b in (
        ("class", cert.verdict_class, fc.verdict_class),
        ("criterion", cert.criterion, fc.criterion),
        ("witness", cert.witness, fc.witness),
        ("first equality", cert.first_equality, fc.first_equality),
        ("flat pair index", cert.flat_pair_index, fc.flat_pair_index),
        ("left run end", cert.left_run_end, fc.left_run_end),
        ("left limit", cert.left_limit_sq, fc.left_limit_sq),
        ("right limit", cert.right_limit_sq, fc.right_limit_sq),
        ("left-ray bound", cert.left_sup_sq, fc.left_sup_sq),
        ("flat-from index", cert.flat_from, fc.flat_from),
        ("modulus bound", cert.sup_modulus, fc.sup_modulus),
    ):
        if a != b:
            return ReplayResult(False, f"{name} mismatch: recorded {a}, recomputed {b}")
    return ReplayResult(True)
