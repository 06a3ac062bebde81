"""The value types' contract: equality and hash by field values, fields that
cannot be assigned, pickling, reprs that name every field in order, memos
kept per instance, and polynomials that are not sequences."""

from __future__ import annotations

import copy
import pickle
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from shiftcert.classifier import (
    Certificate,
    HyponormalityCheck,
    ReplayPoint,
    ReplayResult,
    Verdict,
    check_hyponormal,
    classify,
    replay,
)
from shiftcert.fixtures import example_one, example_two
from shiftcert import oracle, polycert, shiftcalc
from shiftcert.oracle import Truncation, TruncationReport
from shiftcert.polycert import Limit, Polynomial, RationalFunction, Ray, RaySign, RayWalk
from shiftcert.shiftcalc import (
    CommutatorDiagonal,
    TransformedWeights,
    bounded_on_left_ray,
    commutator_diagonal,
    transformed_weights,
)
from shiftcert.weights import (
    ConstantTail,
    RationalTail,
    ValidationReport,
    Violation,
    WeightSpec,
)

CERTIFICATE_FIELDS = (
    "verdict_class",
    "criterion",
    "equal_runs",
    "witness",
    "first_equality",
    "flat_pair_index",
    "left_run_end",
    "left_limit_sq",
    "right_limit_sq",
    "left_sup_sq",
    "flat_from",
    "sup_modulus",
    "replay_points",
)


def _tw(spec: WeightSpec) -> TransformedWeights:
    return transformed_weights(spec, commutator_diagonal(spec))


def _report(**changes) -> TruncationReport:
    fields = dict(
        half_width=5,
        tol=1e-9,
        q_diag_residual=0.0,
        q_offdiag_residual=0.0,
        q_diag_max=4.0,
        gamma_residual=None,
        flat_zero_max=1e-12,
        psd_failure_index=None,
        invariance_violations=((3, 0.5),),
        sufficient_half_width=4,
    )
    return TruncationReport(**{**fields, **changes})


_SUBDIAGONAL = np.arange(4.0)

# Type -> (a builder of one value, a builder of an unequal value, the
# field names in declaration order). Each builder makes fresh field objects.
CASES = {
    Polynomial: (lambda: Polynomial((1, 2)), lambda: Polynomial((1, 3)), ("ints",)),
    Ray: (lambda: Ray.le(3), lambda: Ray.ge(3), ("kind", "bound")),
    RaySign: (lambda: RaySign((1,), (2, 3)), lambda: RaySign((), ()), ("zeros", "negatives")),
    Limit: (lambda: Limit(Fraction(1, 2)), lambda: Limit(Fraction(0)), ("value",)),
    RayWalk: (
        lambda: RayWalk(RaySign((), (-3,)), None, RaySign((2,), ())),
        lambda: RayWalk(RaySign((), ()), Fraction(2), None),
        ("sign", "sup", "delta"),
    ),
    RationalFunction: (
        lambda: RationalFunction.of([1], [1, 1]),
        lambda: RationalFunction.of([2], [1, 1]),
        ("num", "den"),
    ),
    ConstantTail: (
        lambda: ConstantTail(Fraction(2)),
        lambda: ConstantTail(Fraction(3)),
        ("value",),
    ),
    RationalTail: (
        lambda: RationalTail(RationalFunction.of([1], [1, 1])),
        lambda: RationalTail(RationalFunction.of([1], [2, 1])),
        ("fn",),
    ),
    WeightSpec: (
        example_two,
        example_one,
        ("window_start", "window_values", "left_tail", "right_tail"),
    ),
    Violation: (
        lambda: Violation("zero-weight", "zero weight at n = 0"),
        lambda: Violation("zero-weight", "zero weight at n = 1"),
        ("code", "detail"),
    ),
    ValidationReport: (
        lambda: ValidationReport((Violation("empty-window", "none"),), None),
        lambda: ValidationReport((), Fraction(2)),
        ("violations", "sup_bound"),
    ),
    CommutatorDiagonal: (
        lambda: commutator_diagonal(example_two()),
        lambda: commutator_diagonal(example_one()),
        ("spec", "seam_values", "seam_moduli"),
    ),
    TransformedWeights: (
        lambda: _tw(example_two()),
        lambda: _tw(example_one()),
        ("spec", "left_limit_sq", "right_limit_sq", "flat_from"),
    ),
    ReplayPoint: (
        lambda: ReplayPoint("d", 0, Fraction(1, 3)),
        lambda: ReplayPoint("d", 1, Fraction(1, 3)),
        ("kind", "index", "value"),
    ),
    Certificate: (
        lambda: classify(example_two()).certificate,
        lambda: classify(example_one()).certificate,
        CERTIFICATE_FIELDS,
    ),
    Verdict: (
        lambda: classify(example_two()),
        lambda: classify(example_one()),
        ("klass", "criterion", "witness", "certificate"),
    ),
    HyponormalityCheck: (
        lambda: check_hyponormal(example_two()),
        lambda: check_hyponormal(example_one()),
        ("hyponormal", "witness", "diag", "seam_runs", "equal_runs"),
    ),
    ReplayResult: (
        lambda: ReplayResult(True),
        lambda: ReplayResult(False, "equal runs mismatch"),
        ("consistent", "detail"),
    ),
    # One subdiagonal array shared: an array compares elementwise, so the
    # truncations compare equal through its identity.
    Truncation: (
        lambda: Truncation(2, _SUBDIAGONAL, 1e-9, [(1, 1)] * 4),
        lambda: Truncation(2, _SUBDIAGONAL, 1e-8, [(1, 1)] * 4),
        ("half_width", "subdiagonal", "tol", "moduli"),
    ),
    TruncationReport: (
        _report,
        lambda: _report(gamma_residual=1e-3),
        (
            "half_width",
            "tol",
            "q_diag_residual",
            "q_offdiag_residual",
            "q_diag_max",
            "gamma_residual",
            "flat_zero_max",
            "psd_failure_index",
            "invariance_violations",
            "sufficient_half_width",
            "norm_trace",
        ),
    ),
}

TYPES = list(CASES)


@pytest.mark.parametrize("kind", TYPES, ids=lambda t: t.__name__)
class TestValueContract:
    def test_equality_by_field_values(self, kind):
        make, other, _ = CASES[kind]
        a, b = make(), make()
        assert a is not b
        assert type(a) is kind
        assert a == b and not a != b
        assert a != other() and not a == other()

    def test_hash_by_field_values(self, kind):
        make, other, names = CASES[kind]
        if kind is Truncation:
            with pytest.raises(TypeError):  # its subdiagonal is an array
                hash(make())
            return
        assert hash(make()) == hash(make())
        assert len({make(), make(), other()}) == 2

    def test_fields_cannot_be_assigned(self, kind):
        make, _, names = CASES[kind]
        value = make()
        for name in names:
            before = getattr(value, name)
            with pytest.raises(AttributeError):
                setattr(value, name, before)
            assert getattr(value, name) is before

    def test_pickles_to_the_same_value(self, kind):
        value = CASES[kind][0]()
        copy = pickle.loads(pickle.dumps(value))
        assert type(copy) is kind and repr(copy) == repr(value)

    def test_repr_names_every_field_in_order(self, kind):
        make, _, names = CASES[kind]
        value = make()
        body = ", ".join(f"{name}={getattr(value, name)!r}" for name in names)
        assert repr(value) == f"{kind.__name__}({body})"


def test_reprs_are_pinned():
    assert repr(Polynomial((1, 6))) == "Polynomial(ints=(1, 6))"
    assert repr(Limit(Fraction(0))) == "Limit(value=Fraction(0, 1))"
    assert repr(Ray.ge(2)) == "Ray(kind='ge', bound=2)"
    assert repr(example_two()) == (
        "WeightSpec(window_start=0, window_values=(Fraction(2, 3),), "
        "left_tail=RationalTail(fn=RationalFunction("
        "num=Polynomial(ints=(-1,)), den=Polynomial(ints=(-1, 1)))), "
        "right_tail=RationalTail(fn=RationalFunction("
        "num=Polynomial(ints=(-1, 2)), den=Polynomial(ints=(0, 1)))))"
    )
    assert repr(ReplayResult(True)) == "ReplayResult(consistent=True, detail=None)"


def test_defaults():
    assert ReplayResult(True).detail is None
    assert Truncation(2, _SUBDIAGONAL, 1e-9).moduli is None
    assert _report().norm_trace == ()
    cert = classify(example_two()).certificate
    fields = {name: getattr(cert, name) for name in CERTIFICATE_FIELDS[:-1]}
    assert Certificate(**fields).replay_points == ()


class TestPolynomialIsNotASequence:
    def test_reflected_product_with_an_int(self):
        with pytest.raises(TypeError):
            3 * Polynomial((1, 2))

    def test_no_length_iteration_or_order(self):
        p, q = Polynomial((1, 2)), Polynomial((1, 3))
        with pytest.raises(TypeError):
            len(p)
        with pytest.raises(TypeError):
            iter(p)
        with pytest.raises(TypeError):
            p < q

    def test_rational_function_is_not_a_sequence(self):
        f, g = RationalFunction.of([1], [1, 1]), RationalFunction.of([2], [1, 1])
        with pytest.raises(TypeError):
            len(f)
        with pytest.raises(TypeError):
            iter(f)
        with pytest.raises(TypeError):
            f < g
        with pytest.raises(TypeError):
            3 * f

    def test_not_equal_to_its_fields_as_a_tuple(self):
        p = Polynomial((1, 2))
        assert p != (p.ints,) and p != p.ints
        f = RationalFunction.of([1], [1, 1])
        assert f != (f.num, f.den)


# Helpers only tests read: the engine combines polynomials through
# int_product, int_shift and _slope, and reads pairs, not Fraction lists.
# A polynomial has integer coefficients only, and a rational function is
# its canonical integer pair, so neither keeps a rational form or a memo.
# A spec maps indices onto its window and tails in value_pairs alone, and
# keeps no memo but its tail walks.
DELETED = {
    Polynomial: (
        "__add__", "__neg__", "__sub__", "__mul__", "compose_shift",
        "denom", "of", "zero", "constant", "coeffs", "leading", "scale", "divmod", "monic",
    ),
    RationalFunction: ("shift", "derivative_numerator", "constant_value", "cleared"),
    WeightSpec: ("value_float", "value_pair", "_window_pairs"),
    CommutatorDiagonal: ("entries",),
    TransformedWeights: ("values_sq", "_forms"),
    polycert: ("_canonical", "_frac", "cached_property"),
    shiftcalc: ("_TransformedWeightsFields", "cached_property"),
    oracle: ("_growth_detected", "GROWTH_RATIO"),
}


class TestNoTestOnlySurface:
    @pytest.mark.parametrize("cls", DELETED, ids=lambda cls: cls.__name__)
    def test_deleted_names_are_gone(self, cls):
        assert [name for name in DELETED[cls] if hasattr(cls, name)] == []

    def test_one_integer_representation(self):
        assert Polynomial.__slots__ == ("ints",)
        assert RationalFunction.__slots__ == ("num", "den")
        package = Path(polycert.__file__).parent
        for path in sorted(package.glob("*.py")):
            text = path.read_text(encoding="utf-8")
            assert not re.search(r"\b(denom|cleared)\b", text), path.name

    def test_polynomials_have_no_arithmetic_operators(self):
        p, q = Polynomial((1, 2)), Polynomial((1, 3))
        with pytest.raises(TypeError):
            p + q
        with pytest.raises(TypeError):
            p - q
        with pytest.raises(TypeError):
            p * q
        with pytest.raises(TypeError):
            -p

    def test_root_free_bound_is_not_exported(self):
        import shiftcert

        assert "integer_root_free_bound" not in shiftcert.__all__
        assert not hasattr(shiftcert, "integer_root_free_bound")


class TestMemosPerInstance:
    def test_value_pairs_read_the_window_and_both_tails(self):
        spec = example_two()
        assert spec.value_pairs(-1, 2) == [(1, 2), (2, 3), (1, 1)]

    def test_tail_walks_are_computed_once(self):
        spec = example_two()
        assert spec.walk(0) is spec.walk(0)
        assert spec.walk(1) is spec.walk(1)
        assert spec.walk(0) is not None and spec.walk(1) is not None
        assert example_two().walk(1) == spec.walk(1)

    def test_tail_forms_are_equal_across_builds(self):
        # TransformedWeights keeps no memo: each call builds the form anew.
        tw = _tw(example_two())
        assert tw.form(0) == tw.form(0)
        assert tw.form(1) == tw.form(1)
        assert tw.form(1) is not None
        assert _tw(example_two()).form(1) == tw.form(1)

    def test_equal_values_keep_their_own_memos(self):
        a, b = example_two(), example_two()
        assert a == b and a.walk(1) == b.walk(1) and a.walk(1) is not b.walk(1)

    @pytest.mark.parametrize(
        "make, fill, memoized",
        [
            pytest.param(example_two, classify, True, id="weight-spec"),
            pytest.param(
                lambda: _tw(example_one()),
                lambda tw: bounded_on_left_ray(tw, tw.flat_from - 1),
                False,
                id="transformed-weights",
            ),
        ],
    )
    def test_copies_leave_the_memos_behind(self, make, fill, memoized):
        value = make()
        fresh = pickle.dumps(value)
        fill(value)
        assert bool(getattr(value, "__dict__", None)) == memoized
        assert pickle.dumps(value) == fresh
        for twin in (pickle.loads(fresh), copy.copy(value), copy.deepcopy(value)):
            assert twin == value and getattr(twin, "__dict__", {}) == {}


class TestReplayDetails:
    """replay's mismatch details embed the recorded and recomputed reprs."""

    @staticmethod
    def _tampered(cert: Certificate, **changes) -> Certificate:
        return Certificate(**{name: changes.get(name, getattr(cert, name)) for name in CERTIFICATE_FIELDS})

    def test_tampered_left_limit(self):
        spec = example_one()
        cert = classify(spec).certificate
        result = replay(self._tampered(cert, left_limit_sq=Limit(Fraction(7, 3))), spec)
        assert result == ReplayResult(
            False,
            "left limit sq mismatch: recorded Limit(value=Fraction(7, 3)), "
            "recomputed Limit(value=Fraction(0, 1))",
        )

    def test_tampered_profile(self):
        # The profile of equal pairs and rises: example_one's one equal run,
        # open to the right, moved to start one pair later.
        spec = example_one()
        cert = classify(spec).certificate
        result = replay(self._tampered(cert, equal_runs=((1, None),)), spec)
        assert result == ReplayResult(
            False, "equal runs mismatch: recorded ((1, None),), recomputed ((0, None),)"
        )
