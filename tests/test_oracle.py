"""Truncation oracle: the band product, band-product commutators, spectral
roots, invariance, norms, and the dense views of each stage."""

from __future__ import annotations

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shiftcert import (
    ConstantTail,
    RationalFunction,
    RationalTail,
    WeightSpec,
    classify,
    commutator_diagonal,
    load_spec,
    scale_spec,
    spec_from_dict,
    sup_sq_global,
    transformed_weights,
)
from shiftcert.classifier import VerdictClass
from shiftcert.shiftcalc import sparse_range
from shiftcert.fixtures import flat_pair, two_level
from shiftcert.oracle import (
    NotPSDError,
    _band_product,
    _gamma_float,
    _gammas,
    _quotients,
    _root_of_pair,
    _scatter,
    build_truncation,
    commutator,
    concordance,
    default_tolerance,
    invariance_violations,
    largest_singular_value,
    mask_truncation_edge,
    norm_sweep,
    pinv_root,
    psd_root,
    transformed_shift,
    truncation_report,
)

from conftest import (
    SLOW_PLATEAU_SPEC,
    growth_weight_rule,
    make_flat_tail_spec,
    random_labelled_spec,
    random_valid_spec,
)
from test_golden import GOLDEN_DIR, _golden_names, hand_specs


def _dense_of(band: dict, dim: int) -> np.ndarray:
    m = np.zeros((dim, dim))
    for k, v in band.items():
        assert v.shape == (dim - abs(k),)
        m += np.diag(v, k)
    return m


class TestBandProduct:
    """The band product against dense ``@`` on random bands: an entry that
    one offset pair reaches is that single product, to the last bit."""

    @staticmethod
    def _check(a: dict, b: dict, dim: int) -> None:
        da, db = _dense_of(a, dim), _dense_of(b, dim)
        product = _band_product(a, b, dim)
        assert all(abs(k) < dim for k in product)
        got, expected = _dense_of(product, dim), da @ db
        terms = (da != 0).astype(int) @ (db != 0).astype(int)
        single = terms == 1
        assert np.array_equal(got[single], expected[single])
        assert np.allclose(got, expected, rtol=1e-12, atol=1e-12)

    @staticmethod
    def _random_band(rng, offsets, dim: int) -> dict:
        return {int(k): rng.standard_normal(dim - abs(int(k))) for k in offsets}

    def test_random_offsets(self):
        rng = np.random.default_rng(2024)
        for dim in (1, 2, 5, 9):
            every = np.arange(-dim + 1, dim)
            for _ in range(20):
                sizes = rng.integers(1, min(3, every.size) + 1, size=2)
                picks = [rng.choice(every, size, replace=False) for size in sizes]
                a, b = (self._random_band(rng, p, dim) for p in picks)
                self._check(a, b, dim)

    def test_sums_off_the_matrix(self):
        rng = np.random.default_rng(7)
        dim = 6
        a = self._random_band(rng, [4, -5], dim)
        b = self._random_band(rng, [3, -2], dim)  # 4 + 3 and -5 - 2 fall off
        assert set(_band_product(a, b, dim)) == {2, -2}
        self._check(a, b, dim)

    def test_empty_band(self):
        rng = np.random.default_rng(3)
        b = self._random_band(rng, [0, 1], 4)
        assert _band_product({}, b, 4) == {}
        assert _band_product(b, {}, 4) == {}

    def test_dense_matrix(self):
        rng = np.random.default_rng(40)
        dim = 40
        a, b = (self._random_band(rng, range(-dim + 1, dim), dim) for _ in "ab")
        self._check(a, b, dim)


class TestBuildTruncation:
    def test_two_level_subdiagonal(self):
        t = build_truncation(two_level(), 2, 1e-9)
        sub = [t.matrix[i + 1, i] for i in range(4)]
        assert sub == [1.0, 1.0, 1.0, 2.0]  # n = -2..1, step up after n = 0

    def test_diagonal_is_zero(self, ex2):
        t = build_truncation(ex2, 4, 1e-9)
        assert np.diagonal(t.matrix).max() == 0.0

    def test_left_tail_entry(self, ex1):
        t = build_truncation(ex1, 3, 1e-9)
        assert t.matrix[t.row_of(-2), t.row_of(-3)] == pytest.approx(1 / 3)

    def test_half_width_floor(self, ex1):
        with pytest.raises(ValueError):
            build_truncation(ex1, 1, 1e-9)

    # Each |beta_n| on the subdiagonal is the nearest binary64 to the exact
    # modulus, subdiagonal[n + N] for half width N.

    def test_float_exact_dyadic(self, ex1):
        assert build_truncation(ex1, 4, 1e-9).subdiagonal[-2 + 4] == 0.5

    def test_float_rounding(self, ex2):
        assert build_truncation(ex2, 4, 1e-9).subdiagonal[3 + 4] == 1.6666666666666667

    def test_two_level_at_origin(self):
        assert build_truncation(two_level(), 4, 1e-9).subdiagonal[0 + 4] == 1.0

    def test_float_within_half_ulp(self):
        rng = random.Random(7)
        for _ in range(20):
            spec = random_valid_spec(rng)
            floats = build_truncation(spec, 41, 1e-9).subdiagonal
            for n in range(-40, 41):
                exact = spec.value(n)
                approx = float(floats[n + 41])
                ulp = math.ulp(approx)
                assert abs(Fraction(approx) - exact) <= Fraction(ulp) / 2


class TestCommutator:
    def test_two_level_seam(self):
        t = build_truncation(two_level(), 3, 1e-9)
        q = commutator(t)
        diag = [q[t.row_of(n), t.row_of(n)] for n in t.interior()]
        assert diag == [0.0, 0.0, 3.0]  # jump mu^2 - lam^2 at n = 1

    def test_constant_weights_vanish(self):
        spec = two_level()
        t = build_truncation(
            spec.__class__(
                0, (Fraction(1),), spec.left_tail, spec.left_tail
            ),
            5,
            1e-9,
        )
        q = commutator(t)
        lo, hi = t.row_of(t.interior().start), t.row_of(t.interior().stop - 1)
        assert np.abs(q[lo : hi + 1, lo : hi + 1]).max() == 0.0

    def test_matches_exact_diagonal(self, ex1):
        t = build_truncation(ex1, 40, 1e-9)
        q = commutator(t)
        diag = commutator_diagonal(ex1)
        for n in t.interior():
            assert q[t.row_of(n), t.row_of(n)] == pytest.approx(
                float(diag.entry(n)), abs=1e-13
            )
        assert q[t.row_of(-1), t.row_of(-1)] == pytest.approx(0.75, abs=1e-13)

    def test_edge_hygiene(self, ex2):
        small = build_truncation(ex2, 30, 1e-9)
        large = build_truncation(ex2, 60, 1e-9)
        q_small = commutator(small)
        q_large = commutator(large)
        for n in small.interior():
            a = q_small[small.row_of(n), small.row_of(n)]
            b = q_large[large.row_of(n), large.row_of(n)]
            assert abs(a - b) <= 1e-12


class TestSpectralRoots:
    def test_pinv_of_zero(self):
        assert np.all(pinv_root(np.zeros((4, 4)), 1e-9) == 0.0)

    def test_entrywise_rule(self):
        q = np.diag([4.0, 0.0, 1.0])
        p = pinv_root(q, 1e-9)
        assert np.allclose(np.diagonal(p), [0.5, 0.0, 1.0])

    def test_off_diagonal_rejected(self):
        # A shift commutator is diagonal; nothing off the diagonal is taken.
        q = np.diag([4.0, 1.0])
        q[0, 1] = q[1, 0] = 0.5
        for root in (pinv_root, psd_root):
            with pytest.raises(ValueError, match="must be diagonal"):
                root(q, 1e-12)

    def test_negative_diagonal_rejected(self):
        with pytest.raises(NotPSDError):
            pinv_root(np.diag([1.0, -1.0]), 1e-9)

    def test_example_entry(self, ex1):
        t = build_truncation(ex1, 20, default_tolerance(ex1))
        q = mask_truncation_edge(t, commutator(t))
        p = pinv_root(q, t.tol)
        assert p[t.row_of(-1), t.row_of(-1)] == pytest.approx(0.75 ** -0.5, rel=1e-12)


class TestTransformedShift:
    def test_example_one_entry(self, ex1):
        tol = default_tolerance(ex1)
        t = build_truncation(ex1, 20, tol)
        s = transformed_shift(t, commutator(t), tol)
        assert s[t.row_of(0), t.row_of(-1)] == pytest.approx(2.0, rel=1e-12)

    def test_example_two_entry(self, ex2):
        tol = default_tolerance(ex2)
        t = build_truncation(ex2, 20, tol)
        s = transformed_shift(t, commutator(t), tol)
        assert s[t.row_of(2), t.row_of(1)] == pytest.approx(1.5, rel=1e-12)

    def test_flat_zero_region(self, fixture_specs):
        spec = fixture_specs["flatpair"]
        tol = default_tolerance(spec)
        t = build_truncation(spec, 20, tol)
        s = transformed_shift(t, commutator(t), tol)
        for n in range(2, 17):
            assert abs(s[t.row_of(n + 1), t.row_of(n)]) < 1e-12

    def test_interior_matches_transformed_weights(self):
        rng = random.Random(123)
        checked = 0
        for _ in range(12):
            spec, klass, _ = random_labelled_spec(rng)
            verdict = classify(spec)
            if verdict.klass.value == "not-hyponormal":
                continue
            tol = default_tolerance(spec)
            t = build_truncation(spec, 30, tol)
            s = transformed_shift(t, commutator(t), tol)
            tw = transformed_weights(spec, commutator_diagonal(spec))
            for n in range(-27, 27):
                g_sq = tw.value_sq(n)
                if g_sq is None:
                    continue
                checked += 1
                assert s[t.row_of(n + 1), t.row_of(n)] == pytest.approx(
                    math.sqrt(float(g_sq)), abs=1e-8
                )
        assert checked > 100


class TestInvariance:
    def test_flat_pair_violation_magnitude(self, fixture_specs):
        spec = fixture_specs["flatpair"]
        tol = default_tolerance(spec)
        t = build_truncation(spec, 30, tol)
        violations = invariance_violations(t, commutator(t), tol)
        assert len(violations) == 1
        index, magnitude = violations[0]
        assert index == 1
        assert magnitude == pytest.approx(10.0, rel=1e-9)

    def test_two_level_violation(self, ex3):
        tol = default_tolerance(ex3)
        t = build_truncation(ex3, 30, tol)
        violations = invariance_violations(t, commutator(t), tol)
        assert [n for n, _ in violations] == [0]
        assert violations[0][1] == pytest.approx(3.0, rel=1e-9)

    def test_matches_dense_column_probe(self, ex3, fixture_specs):
        """The sparse Q T product gives the (index, magnitude) list a dense
        matvec per null index gives, to the last bit."""
        rng = random.Random(31)
        specs = [ex3, fixture_specs["flatpair"]]
        specs += [random_labelled_spec(rng)[0] for _ in range(10)]
        found = 0
        for spec in specs:
            tol = default_tolerance(spec)
            t = build_truncation(spec, 30, tol)
            q = commutator(t)
            expected = []
            for n in t.interior():
                i = t.row_of(n)
                if abs(q[i, i]) <= tol:
                    magnitude = float(np.linalg.norm(q @ t.matrix[:, i]))
                    if magnitude > math.sqrt(tol):
                        expected.append((n, magnitude))
            assert invariance_violations(t, q, tol) == expected
            found += len(expected)
        assert found >= 3

    def test_near_subnormal_clean(self, ex1, ex2):
        for spec in (ex1, ex2):
            tol = default_tolerance(spec)
            t = build_truncation(spec, 40, tol)
            assert invariance_violations(t, commutator(t), tol) == []


class TestNorms:
    def test_power_iteration_matches_dense_norm(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            m = rng.standard_normal((40, 40))
            expected = np.linalg.svd(m, compute_uv=False)[0]
            assert largest_singular_value(m) == pytest.approx(expected, rel=1e-6)

    def test_example_one_plateau(self, ex1):
        trace = norm_sweep(ex1, [10, 40], default_tolerance(ex1))
        for _, value in trace:
            assert value == pytest.approx(2.0, abs=1e-9)

    def test_truncation_norms_never_exceed_the_exact_supremum(self):
        """On a spec file g_n tends to a finite limit, so a truncation's norm
        only rises toward sqrt(sup g_n^2) and never past it: the one-sided
        bound behind a concordance that does not judge the norm trace."""
        golden = [load_spec(GOLDEN_DIR / f"{name}.spec.json")[0] for name in _golden_names()]
        rng = random.Random(19)
        drawn = [
            random_labelled_spec(rng)[0] if i % 2 else make_flat_tail_spec(rng)
            for i in range(200)
        ]
        checked = 0
        for spec in golden + [spec_from_dict(SLOW_PLATEAU_SPEC)[0]] + drawn:
            if classify(spec).klass != VerdictClass.NEAR_SUBNORMAL:
                continue
            sup = math.sqrt(sup_sq_global(transformed_weights(spec, commutator_diagonal(spec))))
            for half_width, value in norm_sweep(spec, [4, 8, 16, 64], default_tolerance(spec)):
                assert value <= sup * (1 + 1e-12), (spec, half_width, value, sup)
            checked += 1
        # Five goldens (ex1, ex2, random11, random15, random19), the slow
        # plateau and at least 100 draws.
        assert checked >= 5 + 1 + 100

    def test_growth_rule_trace(self):
        trace = norm_sweep(growth_weight_rule(), [5, 6, 20, 24], tol=1e-13)
        values = dict(trace)
        assert values[20] / values[5] > 1.5
        assert values[24] / values[6] > 1.5


class TestReportAndConcordance:
    def test_fixture_reports_agree(self, fixture_specs):
        for name, spec in fixture_specs.items():
            verdict = classify(spec)
            report = truncation_report(spec, verdict, 40, sweep=[10, 40])
            agreement, notes = concordance(verdict, report)
            assert agreement == "agrees", (name, notes)

    def test_residual_scales(self, ex2):
        verdict = classify(ex2)
        report = truncation_report(ex2, verdict, 60)
        scale = 1.0 + 4.0  # 1 + sup(modulus)^2
        assert report.q_diag_residual < 1e-10 * scale
        assert report.q_offdiag_residual < 1e-12 * scale
        assert report.gamma_residual < 1e-8

    def test_not_hyponormal_detected(self):
        rng = random.Random(6)
        found = 0
        for _ in range(20):
            spec, klass, _ = random_labelled_spec(rng)
            if klass.value != "not-hyponormal":
                continue
            verdict = classify(spec)
            report = truncation_report(spec, verdict, 40)
            agreement, notes = concordance(verdict, report)
            assert report.psd_failure_index is not None
            assert agreement == "agrees", notes
            found += 1
        assert found >= 2

    def test_a_hyponormal_label_on_a_psd_failure_disagrees(self):
        # |beta_{-1}| = 2 > |beta_0| = 1: not hyponormal. The right tail is
        # (-2 - 2n - 2n^2) / (-2 - 2n - 2n^2), which is 1.
        tail = RationalTail(RationalFunction.of([-2, -2, -2], [-2, -2, -2]))
        spec = WeightSpec(0, (Fraction(1), Fraction(2)), ConstantTail(Fraction(2)), tail)
        verdict = classify(spec)
        assert verdict.klass == VerdictClass.NOT_HYPONORMAL
        report = truncation_report(spec, verdict, 30)
        assert report.psd_failure_index is not None and report.invariance_violations
        relabelled = verdict._replace(klass=VerdictClass.HYPONORMAL_NOT_NEAR_SUBNORMAL)
        agreement, notes = concordance(relabelled, report)
        assert agreement == "disagrees"
        assert notes[0] == f"unexpected negative commutator diagonal at index {report.psd_failure_index}"

    def test_insufficient_interior_flagged(self, ex2):
        verdict = classify(ex2)
        report = truncation_report(ex2, verdict, 2)
        agreement, notes = concordance(verdict, report)
        assert report.insufficient_interior
        assert agreement == "not-claimed"

    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 14: tol and the probe's sqrt(tol) cut are absolute below modulus 1",
    )
    def test_concordance_survives_scaling_every_modulus(self):
        # Near subnormality does not change when every modulus is scaled by
        # one constant, so neither should the oracle's verdict. Scaled by
        # 1/100, 12 of the 28 golden concordances at half width 200 (the
        # CLI's --max-dim 401) read "disagrees", ex3, flatpair, lefttie and
        # righttie among them; a tol of 1e-15 restores all 28.
        # Only the last assertion is expected to fail; pytest.fail is not an
        # AssertionError, so a broken premise fails the test outright.
        flipped = []
        for name in _golden_names():
            spec = load_spec(GOLDEN_DIR / f"{name}.spec.json")[0]
            verdict = classify(spec)
            scaled = scale_spec(spec, Fraction(1, 100))
            scaled_verdict = classify(scaled)
            at_tiny_tol = truncation_report(scaled, scaled_verdict, 200, 1e-15)
            premises = (
                scaled_verdict.klass == verdict.klass,
                concordance(verdict, truncation_report(spec, verdict, 200))[0] == "agrees",
                concordance(scaled_verdict, at_tiny_tol)[0] == "agrees",
            )
            if not all(premises):
                pytest.fail(f"{name}: class kept, agrees unscaled, agrees at tol 1e-15: {premises}")
            report = truncation_report(scaled, scaled_verdict, 200)
            if concordance(scaled_verdict, report)[0] != "agrees":
                flipped.append(name)
        assert flipped == []


def _reference_residuals(spec, half_width: int, tol: float) -> dict:
    """The report's residual fields, one interior index at a time, from the
    dense public stages and from ``spec.value(n)`` Fractions: each exact
    value becomes a float on its own (``_root_of_pair`` for g_n, the
    correctly rounded ``float`` of d_n), folded by Python's max."""
    t = build_truncation(spec, half_width, tol)
    q = commutator(t)
    interior = t.interior()
    q_interior = [float(q[t.row_of(n), t.row_of(n)]) for n in interior]
    square = {n: spec.value(n) ** 2 for n in range(interior.start - 1, interior.stop)}
    d = {n: square[n] - square[n - 1] for n in interior}
    flat_from = transformed_weights(spec, commutator_diagonal(spec)).flat_from
    gamma = flat = psd = None
    try:
        s = transformed_shift(t, q, tol)
    except NotPSDError:
        s = None
    if s is None or min(d.values()) < 0:
        # Not hyponormal, numerically or exactly: no conjugated operator.
        worst, where = min(zip(q_interior, interior))
        psd = where if worst < -tol else None
    else:
        gamma = 0.0
        for n in interior[:-1]:
            if d[n] > 0:
                g_sq = square[n] * d[n + 1] / d[n]
            elif d[n + 1] == 0:
                g_sq = Fraction(0)
            else:
                continue  # d_n = 0 < d_{n+1}: g_n is undefined
            entry = float(s[t.row_of(n + 1), t.row_of(n)])
            gamma = max(gamma, abs(entry - _root_of_pair(g_sq.numerator, g_sq.denominator)))
            if flat_from is not None and n >= flat_from:
                flat = abs(entry) if flat is None else max(flat, abs(entry))
    q_max = q_residual = 0.0
    for q_n, n in zip(q_interior, interior):
        q_max = max(q_max, abs(q_n))
        q_residual = max(q_residual, abs(q_n - float(d[n])))
    return {
        "q_diag_residual": q_residual,
        "q_diag_max": q_max,
        "gamma_residual": gamma,
        "flat_zero_max": flat,
        "psd_failure_index": psd,
    }


def _seam_tie(side: str) -> WeightSpec:
    """A rational tail meets the window at an equal value that its cleared
    pair writes unreduced: 4n / (n + 2) is (8, 4) at n = 2, beside a window
    value 2, and on the left (n - 6) / (n - 2) is (8, 4) at n = -2."""
    if side == "right":
        return WeightSpec(
            0,
            (Fraction(1), Fraction(2)),
            ConstantTail(Fraction(1)),
            RationalTail(RationalFunction.of([0, 4], [2, 1])),
        )
    return WeightSpec(
        -1,
        (Fraction(2), Fraction(3)),
        RationalTail(RationalFunction.of([-6, 1], [-2, 1])),
        ConstantTail(Fraction(3)),
    )


class TestResidualsAgainstPerIndexReference:
    """The report reduces its residuals over whole interior slices; each
    field must be the per-index fold's, bit for bit (repr also tells NaN
    and None apart)."""

    @staticmethod
    def _check(spec, half_width: int, tol: float | None = None) -> dict:
        verdict = classify(spec)
        report = truncation_report(spec, verdict, half_width, tol)
        expected = _reference_residuals(spec, half_width, report.tol)
        got = {key: getattr(report, key) for key in expected}
        assert repr(got) == repr(expected)
        return got

    def test_random_specs(self):
        rng = random.Random(2718)
        failures = flats = 0
        for i in range(90):
            spec = random_labelled_spec(rng)[0]
            got = self._check(spec, (4, 6, 9, 15)[i % 4])
            failures += got["psd_failure_index"] is not None
            flats += got["flat_zero_max"] is not None
        assert failures >= 5 and flats >= 5

    def test_psd_failure_tie_goes_to_the_smaller_index(self):
        # Moduli 7, 5, 1: d_0 = 25 - 49 and d_1 = 1 - 25 are both -24.
        spec = WeightSpec(
            0, (Fraction(5), Fraction(1)), ConstantTail(Fraction(7)), ConstantTail(Fraction(1))
        )
        assert self._check(spec, 6)["psd_failure_index"] == 0

    def test_overflowing_squares_are_skipped(self):
        # |beta|^2 near 1e310 overflows, so Q's diagonal holds NaN (inf - inf)
        # and a NaN residual never enters the maximum.
        spec = two_level(10**155, 10**155 + 10**140)
        got = self._check(spec, 10, 1e-9)
        assert got["q_diag_residual"] == got["q_diag_max"] == 0.0

    @pytest.mark.parametrize(
        "name",
        ["lefttie", "righttie", "leftdrop", "flatstep", "seamtie-left", "seamtie-right", "ex2"],
    )
    @pytest.mark.parametrize("half_width", [4, 9, 40])
    @pytest.mark.parametrize("tol", [None, 1e-3])
    def test_tail_structures(self, name, half_width, tol, fixture_specs):
        # An equal pair inside a rational tail (lefttie, righttie), a
        # negative d_n inside one (leftdrop), a seam whose tail pair is
        # unreduced but equal to the window's value, rational tails on both
        # sides (righttie, ex2).
        if name.startswith("seamtie"):
            spec = _seam_tie(name.split("-")[1])
        else:
            spec = fixture_specs.get(name) or hand_specs()[name][0]
        self._check(spec, half_width, tol)

    def test_flat_pair_before_a_rational_right_tail(self):
        # Moduli 1, 2, 2, then 3 - 1/n from n = 3: d_2 = 0 < d_3, so the
        # tail's long g_n run starts with an undefined g_2 and is converted
        # pair by pair.
        spec = WeightSpec(
            0,
            (Fraction(1), Fraction(2), Fraction(2)),
            ConstantTail(Fraction(1)),
            RationalTail(RationalFunction.of([-1, 3], [0, 1])),
        )
        t = build_truncation(spec, 40, 1e-9)
        runs = sparse_range(t.moduli[1:-1], t.interior().start).gamma_sq()
        assert runs[-1][0] == 2 and runs[-1][1][0] is None and len(runs[-1][1]) > 30
        assert self._check(spec, 40)["gamma_residual"] is not None

    def test_seam_tie_is_an_exact_zero(self):
        for side, n in (("right", 2), ("left", -1)):
            spec = _seam_tie(side)
            pairs = set(spec.value_pairs(n - 1, n + 1))
            assert len(pairs) == 2 and spec.value(n - 1) == spec.value(n)
            assert commutator_diagonal(spec).entry(n) == 0

    def test_default_tolerance_is_the_certificates(self, fixture_specs):
        for spec in fixture_specs.values():
            report = truncation_report(spec, classify(spec), 6)
            assert report.tol == default_tolerance(spec)


class TestOneEvaluation:
    """``truncation_report`` evaluates the spec once, in ``build_truncation``:
    the residuals read the truncation's own moduli pairs."""

    def test_one_pair_per_extra_rational_tail_index(self, requested_indices, ex2):
        verdict = classify(ex2)
        counts = []
        for half_width in (20, 120):
            requested_indices.count = 0
            truncation_report(ex2, verdict, half_width)
            counts.append(requested_indices.count)
        # Both tails of ex2 are rational; the window holds n = 0.
        extra = sum(
            not ex2.window_start <= n <= ex2.window_end
            for n in [*range(-120, -20), *range(20, 120)]
        )
        assert counts[1] - counts[0] == extra

    def test_truncation_keeps_its_moduli(self, ex2):
        t = build_truncation(ex2, 10, 1e-9)
        assert t.moduli == ex2.value_pairs(-10, 10)
        assert build_truncation(lambda n: 1.0, 10, 1e-9).moduli is None


def _per_pair(runs, start: int, size: int, convert) -> np.ndarray:
    """_scatter's reference: one float at a time."""
    out = np.zeros(size)
    for first, values in runs:
        for k, value in enumerate(values):
            out[first - start + k] = convert(value)
    return out


def _ratio(value: tuple[int, int]) -> float:
    return value[0] / value[1]


# Pairs whose quotient is anywhere from 0 through subnormal and normal
# doubles to past the largest one: a 60-bit ratio scaled by 2^e.
quotient_pairs = st.builds(
    lambda p, q, e: (p << e, q) if e >= 0 else (p, q << -e),
    st.integers(0, 2**60),
    st.integers(1, 2**60),
    st.integers(-1140, 1080),
)
MAX_DOUBLE = 2**1024 - 2**971  # (2 - 2^-52) 2^1023


class TestConversions:
    """_scatter's run-at-a-time conversions equal the per-pair ones bit for
    bit: d_n = p / q, and g_n the correctly rounded root of the correctly
    rounded quotient, NaN where g_n is undefined."""

    RUNS = {
        "none-first": [(-3, [None, (4, 1), (9, 4)])],
        "none-inside": [(-3, [(4, 1), None, (9, 4)]), (2, [None])],
        "near-max": [(0, [(2**1020, 1), (2**1023 * 3, 2), (MAX_DOUBLE, 1), (MAX_DOUBLE * 3, 3)])],
        # 2^1024 - 2^970 lies halfway between the largest double and 2^1024.
        "past-max": [(0, [(4, 1), (2**1024 - 2**970, 1), (2**1030 + 1, 3)])],
        "subnormal": [(-4, [(1, 2**1074), (3, 2**1075), (1, 2**1080), (5, 2**1030), (0, 1)])],
        "two-runs": [(-4, [(1, 3)]), (1, [(2, 7), (0, 1), (10**30, 3**60)])],
    }

    @pytest.mark.parametrize("name", sorted(RUNS))
    def test_gamma_runs(self, name):
        runs = self.RUNS[name]
        got = _scatter(runs, -4, 10, _gammas)
        assert np.array_equal(got, _per_pair(runs, -4, 10, _gamma_float), equal_nan=True)
        if name == "past-max":
            assert np.isfinite(got).all() and got[5] == 2.0**512
        if name == "near-max":
            assert np.isfinite(got).all()

    @pytest.mark.parametrize("name", sorted(set(RUNS) - {"none-first", "none-inside", "past-max"}))
    def test_diagonal_runs(self, name):
        runs = self.RUNS[name]
        got = _scatter(runs, -4, 10, _quotients)
        assert np.array_equal(got, _per_pair(runs, -4, 10, _ratio))

    def test_diagonal_past_binary64_raises_as_one_division_does(self):
        with pytest.raises(OverflowError):
            _scatter(self.RUNS["past-max"], -4, 10, _quotients)
        with pytest.raises(OverflowError):
            _ratio((2**1024, 1))

    @given(st.lists(st.one_of(st.none(), quotient_pairs), min_size=0, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_drawn_runs(self, values):
        runs = [(1, values)]
        expected = _per_pair(runs, 0, 14, _gamma_float)
        assert np.array_equal(_scatter(runs, 0, 14, _gammas), expected, equal_nan=True)
        if None in values:
            return
        try:
            expected = _per_pair(runs, 0, 14, _ratio)
        except OverflowError:
            with pytest.raises(OverflowError):
                _scatter(runs, 0, 14, _quotients)
        else:
            assert np.array_equal(_scatter(runs, 0, 14, _quotients), expected)


class TestSparsePipeline:
    """``truncation_report`` and ``norm_sweep`` chain band stages; the
    public dense names are views of the same stages."""

    @pytest.mark.parametrize(
        "spec",
        [two_level(Fraction(1), Fraction(2)), flat_pair()],
        ids=["two_level", "flat_pair"],
    )
    def test_report_holds_no_dense_truncation(self, spec):
        # One dense 2001 x 2001 float64 array is 30.5 MiB.
        verdict = classify(spec)
        truncation_report(spec, verdict, 10)  # imports and first-call set-up
        tracemalloc.start()
        try:
            truncation_report(spec, verdict, 1000)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    @pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "flatpair"])
    def test_dense_views_match_the_report_path(self, name, fixture_specs):
        spec = fixture_specs[name]
        verdict = classify(spec)
        tol = default_tolerance(spec)
        t = build_truncation(spec, 30, tol)
        q = commutator(t)
        report = truncation_report(spec, verdict, 30, tol)
        assert invariance_violations(t, q, tol) == list(report.invariance_violations)
        if verdict.klass.value == "near-subnormal":
            dense = largest_singular_value(transformed_shift(t, q, tol))
            assert dense == norm_sweep(spec, [30], tol)[0][1]
