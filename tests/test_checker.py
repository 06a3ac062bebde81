"""``replay`` as a certificate checker: it rejects every single-field change
to a certificate, naming the field; it decides nothing through the
classification code; and a malformed certificate makes it report, never
raise.

Needs only the standard library, pytest and hypothesis: CI runs this file
on an interpreter without numpy.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from shiftcert import ConstantTail, RationalFunction, RationalTail, WeightSpec
from shiftcert import classifier, classify, replay, weights
from shiftcert.classifier import (
    Certificate,
    Criterion,
    ReplayPoint,
    VerdictClass,
)
from shiftcert.cli import build_report, render_json
from shiftcert.polycert import Limit
from shiftcert.specfile import SpecFileError, load_spec

from conftest import random_labelled_spec

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
INVALID_DIR = Path(__file__).resolve().parent / "data" / "invalid"
GOLDEN = {
    path.name[: -len(".spec.json")]: load_spec(path)[0]
    for path in sorted(GOLDEN_DIR.glob("*.spec.json"))
}
CERTIFICATES = {name: classify(spec).certificate for name, spec in GOLDEN.items()}


def _index_changes(value: int | None) -> list[int | None]:
    return [0] if value is None else [value - 1, value + 1, None]


def _rational_changes(value: Fraction | None) -> list[Fraction | None]:
    return [Fraction(1, 3)] if value is None else [value + 1, value - Fraction(1, 3), None]


def _enum_changes(value, members) -> list:
    return [m for m in members if m is not value]


def _field_changes(cert: Certificate) -> list[tuple[str, object]]:
    """(field, changed value) for every top-level field but the equal runs
    and the replay points."""
    changes = [("verdict_class", v) for v in _enum_changes(cert.verdict_class, VerdictClass)]
    changes += [("criterion", v) for v in _enum_changes(cert.criterion, [*Criterion, None])]
    for name in ("witness", "first_equality", "flat_pair_index", "left_run_end", "flat_from"):
        changes += [(name, v) for v in _index_changes(getattr(cert, name))]
    for name in ("left_limit_sq", "right_limit_sq"):
        limit = getattr(cert, name)
        value = None if limit is None else limit.value
        changes += [(name, v if v is None else Limit(v)) for v in _rational_changes(value)]
    changes += [("left_sup_sq", v) for v in _rational_changes(cert.left_sup_sq)]
    changes += [("sup_modulus", v) for v in _rational_changes(cert.sup_modulus) if v is not None]
    return changes


Run = tuple[int | None, int | None]


def _end_changes(a: int | None, b: int | None) -> list[Run]:
    """The run (a, b) with one end moved by one pair, opened, or closed
    one pair past the other end (at 0 when both are open)."""
    changes: list[Run] = []
    if a is None:
        changes.append((0 if b is None else b - 1, b))
    else:
        changes += [(a - 1, b), (a + 1, b), (None, b)]
    if b is None:
        changes.append((a, 0 if a is None else a + 1))
    else:
        changes += [(a, b - 1), (a, b + 1), (a, None)]
    return changes


def _equal_run_changes(runs: tuple[Run, ...] | None) -> list[tuple[Run, ...] | None]:
    """None, or runs where there are none; else each run's ends moved by one
    pair, opened or closed, each rise between two runs moved by one pair,
    each run of two or more pairs split, each two neighbouring runs merged,
    each run dropped, and one run appended past the last end."""
    if runs is None:
        return [(), ((0, 0),)]
    changes: list[tuple[Run, ...] | None] = [None]
    for i, (a, b) in enumerate(runs):
        before, after = runs[:i], runs[i + 1 :]
        changes.append(before + after)
        changes += [before + (run,) + after for run in _end_changes(a, b)]
        if a is not None and b is not None and a < b:
            changes.append(before + ((a, a), (a + 1, b)) + after)
        if after:
            (c, e), rest = after[0], after[1:]
            changes.append(before + ((a, e),) + rest)
            changes += [before + ((a, b + step), (c + step, e)) + rest for step in (-1, 1)]
    top = max((n for run in runs for n in run if n is not None), default=0) + 2
    changes.append(runs + ((top, top),))
    return changes


def _point_changes(points: tuple[ReplayPoint, ...]) -> list[tuple[ReplayPoint, tuple[ReplayPoint, ...]]]:
    """(the point, the points with it changed, dropped, added again, moved
    to the next index, or swapped with its successor)."""
    changes = []
    for i, p in enumerate(points):
        before, after = points[:i], points[i + 1 :]
        changes.append((p, before + (p._replace(value=p.value + 1),) + after))
        changes.append((p, before + after))
        changes.append((p, before + (p, p) + after))
        changes.append((p, before + (p._replace(index=p.index + 1),) + after))
        if after:
            changes.append((p, before + (after[0], p) + after[1:]))
    return changes


@pytest.mark.parametrize("name", sorted(CERTIFICATES))
def test_every_single_field_change_is_rejected_by_name(name):
    spec, cert = GOLDEN[name], CERTIFICATES[name]
    assert replay(cert, spec).consistent
    for field, value in _field_changes(cert):
        result = replay(cert._replace(**{field: value}), spec)
        assert not result.consistent, (field, value)
        assert field.replace("_", " ") in result.detail, (field, value, result.detail)
    for runs in _equal_run_changes(cert.equal_runs):
        result = replay(cert._replace(equal_runs=runs), spec)
        assert not result.consistent, runs
        assert "equal runs" in result.detail, (runs, result.detail)
    for point, points in _point_changes(cert.replay_points):
        result = replay(cert._replace(replay_points=points), spec)
        assert not result.consistent, points
        assert f"{point.kind} at n = {point.index}" in result.detail, (points, result.detail)


def test_golden_certificates_cover_every_criterion():
    seen = {(c.verdict_class, c.criterion) for c in CERTIFICATES.values()}
    assert {criterion for _, criterion in seen} == {*Criterion, None}
    assert {klass for klass, _ in seen} == set(VerdictClass)


def test_replay_never_runs_the_decision_code(monkeypatch):
    rng = random.Random(22)
    cases = list(zip(GOLDEN.values(), CERTIFICATES.values()))
    for _ in range(200):
        spec, _, _ = random_labelled_spec(rng)
        cases.append((spec, classify(spec).certificate))

    def forbidden(*args, **kwargs):
        raise AssertionError("replay ran the decision code")

    for name in ("classify", "check_hyponormal", "validate"):
        monkeypatch.setattr(classifier, name, forbidden)
    for spec, cert in cases:
        result = replay(cert, spec)
        assert result.consistent, result.detail


# Values of the wrong type or out of range for some certificate field.
MALFORMED = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(10**30), max_value=10**30),
    st.fractions(),
    st.floats(allow_nan=True),
    st.text(max_size=4),
    st.sampled_from([*VerdictClass, *Criterion]),
    st.builds(Limit, st.fractions() | st.integers() | st.none()),
    st.lists(st.integers(-3, 3), max_size=3).map(tuple),
)
POINTS = st.builds(
    ReplayPoint,
    st.sampled_from(["beta_sq", "d", "gamma_sq", "sigma", ""]),
    st.integers(-4, 4) | st.fractions() | st.none(),
    st.fractions() | st.integers() | st.none(),
)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(CERTIFICATES)),
    field=st.sampled_from([f for f in Certificate._fields if f != "replay_points"]),
    value=MALFORMED,
)
def test_malformed_field_is_reported_not_raised(name, field, value):
    cert = CERTIFICATES[name]
    assume(repr(value) != repr(getattr(cert, field)))
    result = replay(cert._replace(**{field: value}), GOLDEN[name])
    assert not result.consistent
    assert result.detail


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(CERTIFICATES)),
    at=st.integers(min_value=0),
    end=st.sampled_from([0, 1, None]),
    value=MALFORMED,
    as_list=st.booleans(),
)
def test_malformed_profile_part_is_reported_not_raised(name, at, end, value, as_list):
    # The profile is the certificate's equal runs: one end of a run, or a
    # whole run (end None), is replaced; the runs may come as a list.
    cert = CERTIFICATES[name]
    assume(cert.equal_runs)
    runs = list(cert.equal_runs)
    i = at % len(runs)
    part = value if end is None else tuple(value if j == end else n for j, n in enumerate(runs[i]))
    assume(repr(part) != repr(runs[i]) or as_list)
    runs[i] = part
    result = replay(cert._replace(equal_runs=runs if as_list else tuple(runs)), GOLDEN[name])
    assert not result.consistent
    assert "equal runs" in result.detail


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    name=st.sampled_from(sorted(CERTIFICATES)),
    at=st.integers(min_value=0),
    point=POINTS | MALFORMED,
    as_list=st.booleans(),
)
def test_malformed_replay_point_is_reported_not_raised(name, at, point, as_list):
    cert = CERTIFICATES[name]
    points = list(cert.replay_points)
    points.insert(at % (len(points) + 1), point)
    result = replay(cert._replace(replay_points=points if as_list else tuple(points)), GOLDEN[name])
    assert not result.consistent
    assert result.detail


def test_profile_on_a_not_hyponormal_verdict_is_rejected():
    # A not-hyponormal certificate has no equal runs (the profile), not
    # even none.
    not_hyponormal = VerdictClass.NOT_HYPONORMAL
    name, cert = next((n, c) for n, c in CERTIFICATES.items() if c.verdict_class == not_hyponormal)
    for other in (next(c.equal_runs for c in CERTIFICATES.values() if c.equal_runs), ()):
        result = replay(cert._replace(equal_runs=other), GOLDEN[name])
        assert not result.consistent
        assert result.detail.startswith("equal runs mismatch: ")


@pytest.mark.parametrize("convert", [Fraction, float], ids=["fraction", "float"])
def test_an_index_of_equal_value_and_another_type_is_rejected(convert):
    for name, cert in CERTIFICATES.items():
        for field in ("witness", "first_equality", "flat_from"):
            index = getattr(cert, field)
            if index is not None:
                result = replay(cert._replace(**{field: convert(index)}), GOLDEN[name])
                assert not result.consistent
                assert result.detail.startswith(f"{field.replace('_', ' ')} mismatch: ")


# The specs under tests/data/invalid that load (the others break the file
# format, not a validity rule), each with the words naming its fault.
INVALID_FAULTS = {
    "negative-rational-tail": "left tail has a negative value",
    "negative-window-weight": "window value at n = 1 is not positive",
    "nonpositive-constant-tail": "right tail constant -3 is not positive",
    "rational-tail-zero": "left tail has a zero",
    "tail-pole": "left tail: denominator vanishes at integer n = -5",
    "unbounded-tail": "right tail is unbounded",
    "zero-window-weight": "window value at n = 1 is not positive",
}


def _loads(path: Path) -> bool:
    try:
        load_spec(path)
    except SpecFileError:
        return False
    return True


def test_every_loadable_invalid_spec_has_its_fault():
    assert sorted(p.stem for p in INVALID_DIR.glob("*.json") if _loads(p)) == sorted(INVALID_FAULTS)


@pytest.mark.parametrize("name", sorted(INVALID_FAULTS))
def test_a_certificate_for_an_invalid_spec_is_rejected_by_its_fault(name):
    spec = load_spec(INVALID_DIR / f"{name}.json")[0]
    for cert in CERTIFICATES.values():
        result = replay(cert, spec)
        assert not result.consistent
        assert result.detail == f"invalid spec: {INVALID_FAULTS[name]}"


@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("part", ["num", "den"])
def test_a_tail_over_the_degree_cap_is_rejected_before_its_walk(monkeypatch, side, part):
    over = [1] * (weights.MAX_TAIL_DEGREE + 2)  # one degree past the cap
    fn = RationalFunction.of(over, [1]) if part == "num" else RationalFunction.of([1], over)
    tails = {"left_tail": ConstantTail(Fraction(1)), "right_tail": ConstantTail(Fraction(2))}
    tails[f"{side}_tail"] = RationalTail(fn)
    spec = WeightSpec(0, (Fraction(3, 2),), **tails)

    def no_walk(*args, **kwargs):
        raise AssertionError("replay walked a tail over the degree cap")

    monkeypatch.setattr(weights, "walk_ray", no_walk)
    for cert in CERTIFICATES.values():
        result = replay(cert, spec)
        assert not result.consistent
        assert result.detail == f"invalid spec: {side} tail degree exceeds {weights.MAX_TAIL_DEGREE}"


def test_a_certificate_for_an_empty_window_is_rejected():
    spec = WeightSpec(0, (), ConstantTail(Fraction(1)), ConstantTail(Fraction(2)))
    for cert in CERTIFICATES.values():
        assert replay(cert, spec) == (False, "invalid spec: the window is empty")


def _counting_gamma_supremum(monkeypatch) -> list:
    calls = []
    full = classifier.bounded_on_left_ray

    def counted(*args):
        calls.append(args)
        return full(*args)

    monkeypatch.setattr(classifier, "bounded_on_left_ray", counted)
    return calls


def test_a_left_supremum_at_the_window_is_settled_by_one_descartes_check(monkeypatch):
    flat = [(GOLDEN[n], c) for n, c in CERTIFICATES.items() if c.criterion == Criterion.FLAT_TAIL]
    assert flat
    calls = _counting_gamma_supremum(monkeypatch)
    for spec, cert in flat:
        assert replay(cert, spec).consistent
    assert calls == []


def test_a_left_supremum_deep_in_the_ray_runs_the_full_certificate(monkeypatch):
    # (n^2 - 4n) / (n^2 + n + 1) on n <= -1: g_n^2 peaks past n = -2, so
    # the values from the window's edge do not bound it.
    fn = RationalFunction.of([0, -4, 1], [1, 1, 1])
    top = fn(-1) + 1
    spec = WeightSpec(0, (top,), RationalTail(fn), ConstantTail(top))
    cert = classify(spec).certificate
    assert cert.criterion == Criterion.FLAT_TAIL
    calls = _counting_gamma_supremum(monkeypatch)
    assert replay(cert, spec).consistent
    assert len(calls) == 1
    for wrong in (cert.left_sup_sq - 1, cert.left_sup_sq + 1, cert.left_limit_sq.value):
        result = replay(cert._replace(left_sup_sq=wrong), spec)
        assert result.detail.startswith("left sup sq mismatch: ")


def test_a_long_flat_run_classifies_and_replays_within_two_seconds():
    # The left tail (3 - n) / (2 - n) rises to 4/3 at n = -1, and the window
    # holds 3/2, a run of 20,000 values 2, then a top. Each rule past
    # hyponormality asks every equal pair only whether its neighbours rise,
    # so the run costs time linear in its length, not quadratic.
    left = RationalTail(RationalFunction.of([3, -1], [2, -1]))
    run = (Fraction(3, 2), *[Fraction(2)] * 20_000)
    flat_top = WeightSpec(0, (*run, Fraction(3)), left, ConstantTail(Fraction(3)))
    isolated = WeightSpec(
        0, (*run, Fraction(3), Fraction(3), Fraction(4)), left, ConstantTail(Fraction(5))
    )
    cases = [
        # The top 3 meets the constant right tail 3: no pair is isolated.
        (flat_top, Criterion.FLAT_TAIL_VIOLATION, 20_001, None),
        # The pair 3 = 3 lies between the rises 2 < 3 and 3 < 4.
        (isolated, Criterion.FLAT_PAIR, 20_001, 20_001),
    ]
    start = time.perf_counter()
    for spec, criterion, witness, flat_pair_index in cases:
        cert = classify(spec).certificate
        assert (cert.criterion, cert.witness, cert.first_equality) == (criterion, witness, 1)
        assert cert.flat_pair_index == flat_pair_index
        assert replay(cert, spec) == (True, None)
    assert time.perf_counter() - start < 2.0


def test_a_report_grows_with_the_runs_not_the_window():
    # The window 3/2, n values 2, then 3 after the left tail (3 - n) / (2 - n)
    # and before the constant right tail 3 has the same runs for every n.
    left = RationalTail(RationalFunction.of([3, -1], [2, -1]))
    points = set()
    for n in (2_000, 20_000):
        window = (Fraction(3, 2), *[Fraction(2)] * n, Fraction(3))
        spec = WeightSpec(0, window, left, ConstantTail(Fraction(3)))
        verdict = classify(spec)
        assert verdict.criterion == Criterion.FLAT_TAIL_VIOLATION
        assert replay(verdict.certificate, spec) == (True, None)
        report = render_json(build_report(verdict, {"path": "run.json"}))
        assert len(report.encode()) < 8_000, n
        points.add(len(verdict.certificate.replay_points))
    assert len(points) == 1


def test_a_seam_witness_inside_a_negative_run_keeps_its_d_point():
    # Moduli 10 | 9, 8, 7, 6, 5 from n = -2 | 20: d_n < 0 on the seams -2..2,
    # whose pairs -3..1 hold the witness 0 inside the run.
    window = tuple(map(Fraction, (9, 8, 7, 6, 5)))
    spec = WeightSpec(-2, window, ConstantTail(Fraction(10)), ConstantTail(Fraction(20)))
    cert = classify(spec).certificate
    assert cert.witness == 0
    d = {p.index: p.value for p in cert.replay_points if p.kind == "d"}
    assert d == {-2: -19, 1: 36 - 49, 2: 25 - 36, 3: 400 - 25}
    assert replay(cert, spec) == (True, None)
    dropped = tuple(p for p in cert.replay_points if (p.kind, p.index) != ("d", 1))
    result = replay(cert._replace(replay_points=dropped), spec)
    assert not result.consistent and "d at n = 1" in result.detail
