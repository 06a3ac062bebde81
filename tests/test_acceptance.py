"""Acceptance gate: one test per shipped criterion, at stated tolerances.

Each test prints an ``ACCEPTANCE n PASS`` line on success (run with -s or
-rA to see them); a pytest failure is the corresponding FAIL line.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from shiftcert import (
    PoleOnRay,
    Ray,
    classify,
    commutator_diagonal,
    replay,
    scale_spec,
    sign_on_ray,
    transformed_weights,
    validate,
)
from shiftcert.classifier import Criterion, VerdictClass
from shiftcert.fixtures import example_one, example_two, flat_pair, two_level
from shiftcert.oracle import (
    build_truncation,
    commutator,
    concordance,
    default_tolerance,
    norm_sweep,
    truncation_report,
)
from shiftcert.shiftcalc import sup_sq_global

from conftest import (
    brute_force_ray_sign,
    growth_weight_rule,
    make_flat_tail_spec,
    random_valid_spec,
)
from test_properties import random_rational_function


def test_criterion_1_example_one_flat_tail():
    """Strict rise into a flat tail: near subnormal with vanishing left limit."""
    started = time.perf_counter()
    spec = example_one()
    verdict = classify(spec)
    assert verdict.klass == VerdictClass.NEAR_SUBNORMAL
    assert verdict.criterion == Criterion.FLAT_TAIL
    cert = verdict.certificate
    assert cert.first_equality == 0
    assert cert.left_limit_sq.value == 0

    tw = transformed_weights(spec, commutator_diagonal(spec))
    corroboration = tw.value_sq(-(10**4))
    assert corroboration < Fraction(1, 10**7)

    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 1 PASS: near-subnormal via flat tail, k = 0, left limit 0, "
        f"g^2(-10^4) = {float(corroboration):.3e} [{elapsed:.3f}s]"
    )


def test_criterion_2_example_two_strict_increase():
    """Everywhere-strict weights: transformed limits exactly 4 and 0."""
    started = time.perf_counter()
    verdict = classify(example_two())
    assert verdict.klass == VerdictClass.NEAR_SUBNORMAL
    assert verdict.criterion == Criterion.STRICT_INCREASE
    cert = verdict.certificate
    assert cert.right_limit_sq.value == 4
    assert cert.left_limit_sq.value == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"ACCEPTANCE 2 PASS: near-subnormal via strict increase, transform "
        f"limits squared 4 (right) and 0 (left) [{elapsed:.3f}s]"
    )


def test_criterion_3_two_level_obstruction():
    """Two-level shift: not near subnormal; oracle shows the null-space
    obstruction at the end of the constant run."""
    started = time.perf_counter()
    spec = two_level()
    verdict = classify(spec)
    assert verdict.klass == VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL
    assert verdict.criterion == Criterion.CONSTANT_LEFT
    j0 = verdict.certificate.left_run_end
    assert j0 == 0

    report = truncation_report(spec, verdict, half_width=500)  # dim 1001
    agreement, notes = concordance(verdict, report)
    assert agreement == "agrees", notes
    indices = [n for n, _ in report.invariance_violations]
    assert indices == [j0]
    magnitude = report.invariance_violations[0][1]
    assert magnitude == pytest.approx(3.0, rel=1e-6)  # |b_0| * d_1 = 1 * 3

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 3 PASS: two-level shift obstructed at j0 = {j0}, "
        f"violation magnitude {magnitude:.6f} at dim 1001 [{elapsed:.3f}s]"
    )


def test_criterion_4_flat_pair_obstruction():
    """Isolated flat pair: j0 = 0; oracle violation at n = 1 within 1% of
    the exact magnitude |b_1| * (|b_2|^2 - |b_1|^2) = 2 * 5 = 10."""
    started = time.perf_counter()
    spec = flat_pair()
    verdict = classify(spec)
    assert verdict.klass == VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL
    assert verdict.criterion == Criterion.FLAT_PAIR
    assert verdict.certificate.flat_pair_index == 0

    report = truncation_report(spec, verdict, half_width=200)
    agreement, notes = concordance(verdict, report)
    assert agreement == "agrees", notes
    violations = dict(report.invariance_violations)
    assert set(violations) == {1}
    assert abs(violations[1] - 10.0) <= 0.01 * 10.0

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print(
        f"ACCEPTANCE 4 PASS: flat pair at j0 = 0, invariance violation at "
        f"n = 1 with magnitude {violations[1]:.6f} [{elapsed:.3f}s]"
    )


def test_criterion_5_commutator_equivalence():
    """Dense-product commutator reproduces the exact diagonal at dim 401."""
    started = time.perf_counter()
    rng = random.Random(55)
    specs = [example_one(), example_two(), two_level(), flat_pair()]
    specs += [random_valid_spec(rng) for _ in range(50)]

    worst_diag = worst_off = 0.0
    for spec in specs:
        sup = validate(spec).sup_bound
        scale = 1.0 + float(sup) ** 2
        t = build_truncation(spec, 200, 1e-9 * scale)  # dim 401
        q = commutator(t)
        diag = commutator_diagonal(spec)
        for n in t.interior():
            i = t.row_of(n)
            residual = abs(float(q[i, i]) - float(diag.entry(n)))
            worst_diag = max(worst_diag, residual / scale)
        off = q - np.diag(np.diagonal(q))
        lo, hi = t.row_of(t.interior().start), t.row_of(t.interior().stop - 1)
        worst_off = max(
            worst_off, float(np.abs(off[lo : hi + 1, lo : hi + 1]).max()) / scale
        )
        assert worst_diag < 1e-10
        assert worst_off < 1e-12

    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 5 PASS: commutator residuals over {len(specs)} specs at "
        f"dim 401: diag {worst_diag:.2e}, off-diag {worst_off:.2e} [{elapsed:.1f}s]"
    )


def test_criterion_6_transform_equivalence():
    """Conjugated-shift subdiagonal matches the exact transformed weights to
    1e-8, and vanishes below 1e-8 on every flat-from region."""
    started = time.perf_counter()
    rng = random.Random(56)
    specs = [example_one(), example_two(), two_level(), flat_pair()]
    specs += [make_flat_tail_spec(rng) for _ in range(20)]

    worst_gamma = 0.0
    worst_flat = 0.0
    flat_regions = 0
    for spec in specs:
        verdict = classify(spec)
        report = truncation_report(spec, verdict, half_width=200)
        assert report.gamma_residual is not None
        worst_gamma = max(worst_gamma, report.gamma_residual)
        if report.flat_zero_max is not None:
            flat_regions += 1
            worst_flat = max(worst_flat, report.flat_zero_max)
    assert worst_gamma <= 1e-8
    assert worst_flat < 1e-8
    assert flat_regions >= 22  # every flat-tail-shaped spec exposes one

    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 6 PASS: transform residual {worst_gamma:.2e}, flat-region "
        f"max {worst_flat:.2e} over {flat_regions} flat regions [{elapsed:.1f}s]"
    )


def test_criterion_7_property_suite():
    """Exact telescoping (500), sign certification vs brute force (200),
    scale invariance (10 per fixture), certificate replay; all under 60 s."""
    started = time.perf_counter()
    rng = random.Random(77)

    telescoped = 0
    for _ in range(25):
        spec = random_valid_spec(rng)
        diag = commutator_diagonal(spec)
        for _ in range(20):
            a = rng.randint(-50, 20)
            b = a + rng.randint(1, 60)
            total = sum(diag.entry(n) for n in range(a + 1, b + 1))
            assert total == spec.value(b) ** 2 - spec.value(a) ** 2
            telescoped += 1
    assert telescoped == 500

    compared = 0
    while compared < 200:
        f = random_rational_function(rng)
        bound = rng.randint(-20, 20)
        ray = Ray.le(bound) if rng.random() < 0.5 else Ray.ge(bound)
        brute = brute_force_ray_sign(f, ray)
        if brute[0] == "pole":
            with pytest.raises(PoleOnRay):
                sign_on_ray(f, ray)
            continue
        zeros, _, has_neg = brute
        if f.is_zero:
            with pytest.raises(ValueError):
                sign_on_ray(f, ray)
        else:
            verdict = sign_on_ray(f, ray)
            assert list(verdict.zeros) == zeros
            assert bool(verdict.negatives) == has_neg
        compared += 1

    scaled = 0
    for spec in (example_one(), example_two(), two_level(), flat_pair()):
        base = classify(spec)
        assert replay(base.certificate, spec).consistent
        for _ in range(10):
            c = Fraction(rng.randint(1, 12), rng.randint(1, 12))
            verdict = classify(scale_spec(spec, c))
            assert verdict.klass == base.klass
            assert verdict.criterion == base.criterion
            assert replay(verdict.certificate, scale_spec(spec, c)).consistent
            scaled += 1
    assert scaled == 40

    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print(
        f"ACCEPTANCE 7 PASS: 500 telescoping sums exact, 200 sign scans agree, "
        f"40 scalings invariant, replay consistent [{elapsed:.1f}s]"
    )


def test_criterion_8_norm_sweep_concordance():
    """Norm traces plateau at the symbolic supremum for the bounded fixtures;
    an unbounded-transform weight rule shows > 1.5x growth per quadrupling."""
    started = time.perf_counter()

    for name, spec, sweep in (
        ("example one", example_one(), [50, 200, 800]),
        ("example two", example_two(), [3300, 3400, 3500]),
    ):
        tw = transformed_weights(spec, commutator_diagonal(spec))
        sup = math.sqrt(float(sup_sq_global(tw)))
        trace = norm_sweep(spec, sweep, default_tolerance(spec))
        values = [v for _, v in trace]
        spread = max(abs(a - b) for a in values for b in values)
        assert spread < 1e-4, (name, values)
        for value in values:
            assert abs(value - sup) <= 1e-3, (name, value, sup)

    growth_trace = dict(norm_sweep(growth_weight_rule(), [5, 6, 20, 24], tol=1e-13))
    assert growth_trace[20] / growth_trace[5] > 1.5
    assert growth_trace[24] / growth_trace[6] > 1.5

    elapsed = time.perf_counter() - started
    print(
        f"ACCEPTANCE 8 PASS: bounded traces plateau within 1e-4 at the "
        f"symbolic supremum; growth ratios "
        f"{growth_trace[20] / growth_trace[5]:.2f} and "
        f"{growth_trace[24] / growth_trace[6]:.2f} exceed 1.5 [{elapsed:.1f}s]"
    )
