"""CLI flows: exit codes, formats, schema validation, fixture round trips."""

from __future__ import annotations

import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shiftcert
from shiftcert.classifier import Criterion, VerdictClass
from shiftcert.cli import MAX_DIM, MAX_SWEEP_DIM_SUM, main, render_json

from conftest import SLOW_PLATEAU_SPEC
from test_golden import GOLDEN_DIR, ORACLE_CASES

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "report.schema.json"


@pytest.fixture(scope="module")
def schema() -> dict:
    return json.loads(SCHEMA_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory) -> Path:
    directory = tmp_path_factory.mktemp("fixtures")
    assert run_cli("examples", "--emit", str(directory)).code == 0
    return directory


class CliResult:
    def __init__(self, code: int, out: str, err: str):
        self.code = code
        self.out = out
        self.err = err


def run_cli(*argv: str) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    import contextlib

    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return CliResult(code, out.getvalue(), err.getvalue())


class TestExamples:
    def test_emit_writes_four_files(self, fixture_dir):
        names = sorted(p.name for p in fixture_dir.glob("*.json"))
        assert names == ["ex1.json", "ex2.json", "ex3.json", "flatpair.json"]

    def test_stdout_mode(self):
        result = run_cli("examples", "--which", "ex1")
        payload = json.loads(result.out)
        assert payload["ex1"]["window_values"] == ["2"]

    def test_two_level_overrides(self):
        result = run_cli("examples", "--which", "ex3", "--low", "2/3", "--high", "5/2")
        payload = json.loads(result.out)
        assert payload["ex3"]["window_values"] == ["2/3"]
        assert payload["ex3"]["right_tail"]["value"] == "5/2"

    def test_bad_levels_rejected(self):
        assert run_cli("examples", "--which", "ex3", "--low", "3", "--high", "2").code == 2


class TestClassifyCommand:
    def test_expected_verdicts(self, fixture_dir):
        expectations = {
            "ex1.json": ("near-subnormal", "flat-right-tail"),
            "ex2.json": ("near-subnormal", "strict-increase-bounded-transform"),
            "ex3.json": ("hyponormal-not-near-subnormal", "constant-left-tail"),
            "flatpair.json": ("hyponormal-not-near-subnormal", "isolated-flat-pair"),
        }
        for name, (klass, criterion) in expectations.items():
            result = run_cli(
                "classify", str(fixture_dir / name), "--format", "json"
            )
            assert result.code == 0, result.err
            verdict = json.loads(result.out)["verdict"]
            assert verdict["class"] == klass
            assert verdict["criterion"] == criterion

    def test_text_format_mentions_witnesses(self, fixture_dir):
        result = run_cli("classify", str(fixture_dir / "ex1.json"))
        assert result.code == 0
        assert "first equality k: 0" in result.out

    def test_missing_file(self):
        assert run_cli("classify", "/nonexistent/path.json").code == 2

    def test_non_utf8_file(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes('{"name": "caf\u00e9"}'.encode("latin-1"))
        result = run_cli("classify", str(bad))
        assert result.code == 2
        assert result.err.startswith("parse error: file: not UTF-8")

    def test_directory_path(self, tmp_path):
        result = run_cli("classify", str(tmp_path))
        assert result.code == 2
        assert result.err == f"error: cannot read {tmp_path}: Is a directory\n"

    def test_parse_error_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": ["2"],
                    "left_tail": {"kind": "rational", "num": ["1"], "den": ["0"]},
                    "right_tail": {"kind": "constant", "value": "2"},
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("classify", str(bad))
        assert result.code == 2
        assert "den" in result.err

    @pytest.mark.parametrize("command", ["classify", "oracle"])
    def test_oversized_rational_is_a_parse_error(self, tmp_path, command):
        spec = tmp_path / "long.json"
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": ["1" * 5001],
                    "left_tail": {"kind": "constant", "value": "1"},
                    "right_tail": {"kind": "constant", "value": "2"},
                }
            ),
            encoding="utf-8",
        )
        result = run_cli(command, str(spec))
        assert result.code == 2
        assert result.err.startswith("parse error: window_values[0]: ")
        assert f"more than {sys.get_int_max_str_digits()} digits" in result.err
        assert result.out == ""

    def test_deeply_nested_json_is_a_parse_error(self, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        result = run_cli("classify", str(deep))
        assert result.code == 2
        assert result.err == "parse error: file: invalid JSON: nested too deeply\n"
        assert result.out == ""

    @pytest.mark.parametrize(
        "field, change",
        [
            pytest.param(
                "window_values[0]",
                lambda spec: spec.update(window_values=[["1"] * 200_000]),
                id="list-as-rational",
            ),
            pytest.param(
                "spec",
                lambda spec: spec.update((f"extra{i}", 1) for i in range(100_000)),
                id="unknown-fields",
            ),
            pytest.param(
                "window_values[0]",
                lambda spec: spec.update(window_values=["1." * 250_000]),
                id="long-rational-string",
            ),
            pytest.param(
                "left_tail.kind",
                lambda spec: spec["left_tail"].update(kind="k" * 500_000),
                id="long-tail-kind",
            ),
        ],
    )
    def test_parse_errors_do_not_echo_large_input(self, tmp_path, field, change):
        payload = {
            "window_start": 0,
            "window_values": ["1"],
            "left_tail": {"kind": "constant", "value": "1"},
            "right_tail": {"kind": "constant", "value": "2"},
        }
        change(payload)
        spec = tmp_path / "large.json"
        spec.write_text(json.dumps(payload), encoding="utf-8")
        result = run_cli("classify", str(spec))
        assert result.code == 2
        assert result.err.startswith(f"parse error: {field}: ")
        assert result.err.count("\n") == 1 and len(result.err.encode()) < 200
        assert result.out == ""

    def test_degree_cap_applies_before_the_gcd(self, tmp_path):
        # A degree-50,000 tail: reducing it by its GCD would take minutes,
        # so the written degree is refused before any polynomial is built.
        # The timeout includes starting the interpreter.
        spec = tmp_path / "wide.json"
        coeffs = ["1"] * 50_001
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": ["1"],
                    "left_tail": {"kind": "rational", "num": coeffs, "den": coeffs},
                    "right_tail": {"kind": "constant", "value": "1"},
                }
            ),
            encoding="utf-8",
        )
        done = _run_fresh(
            f"import sys\nfrom shiftcert.cli import main\n"
            f"sys.exit(main(['classify', {str(spec)!r}]))",
            timeout=1.0,
        )
        assert done.returncode == 2
        assert done.stderr == "parse error: left_tail.num: degree 50000 exceeds 16\n"
        assert done.stdout == ""

    def test_degree_cap_reads_the_written_degree(self, tmp_path):
        # Trailing zeros do not count; a common factor does, although
        # reducing by it would bring the degree under the cap.
        def tail(num: list[str], den: list[str]) -> Path:
            path = tmp_path / f"tail-{len(num)}-{len(den)}.json"
            path.write_text(
                json.dumps(
                    {
                        "window_start": 0,
                        "window_values": ["2"],
                        "left_tail": {"kind": "rational", "num": num, "den": den},
                        "right_tail": {"kind": "constant", "value": "2"},
                    }
                ),
                encoding="utf-8",
            )
            return path

        padded = run_cli("classify", str(tail(["-1"] + ["0"] * 30, ["0", "1"] + ["0"] * 30)))
        assert padded.code == 0, padded.err
        # (1 - n) n^16 / ((n - 1) n^17) is -1/n once reduced.
        num = ["0"] * 16 + ["1", "-1"]
        den = ["0"] * 17 + ["-1", "1"]
        capped = run_cli("classify", str(tail(num, den)))
        assert capped.code == 2
        assert capped.err == "parse error: left_tail.num: degree 17 exceeds 16\n"

    def test_classify_walks_each_tail_once_and_replay_once_more(self, fixture_dir, monkeypatch):
        # ex2 varies on both sides: classify walks each tail once, and
        # replay checks the certificate on a fresh copy of the spec, which
        # walks it again.
        import shiftcert.weights

        walked = []
        walk_ray = shiftcert.weights.walk_ray

        def counted(fn, ray):
            walked.append(ray.kind)
            return walk_ray(fn, ray)

        monkeypatch.setattr(shiftcert.weights, "walk_ray", counted)
        assert run_cli("classify", str(fixture_dir / "ex2.json")).code == 0
        assert sorted(walked) == ["ge", "ge", "le", "le"]

    def test_validation_error_exit(self, tmp_path):
        bad = tmp_path / "unbounded.json"
        bad.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": ["1"],
                    "left_tail": {"kind": "constant", "value": "1"},
                    "right_tail": {"kind": "rational", "num": ["0", "1"], "den": ["1"]},
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("classify", str(bad))
        assert result.code == 2
        assert "unbounded" in result.err.lower() or "deg" in result.err.lower()

    def test_integer_past_the_str_limit_is_printed(self, tmp_path, schema):
        # N^2 has 5,999 digits, past Python's 4,300-digit str() limit,
        # though N itself parses.
        n = 10**2999 + 7
        spec = tmp_path / "long-level.json"
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": ["1", str(n)],
                    "left_tail": {"kind": "constant", "value": "1"},
                    "right_tail": {"kind": "constant", "value": str(n)},
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("classify", str(spec), "--format", "json")
        assert result.code == 0, result.err
        payload = json.loads(result.out)
        jsonschema.validate(payload, schema)
        points = {(p["kind"], p["index"]): p["value"] for p in payload["verdict"]["replay_points"]}
        assert points[("beta_sq", 1)] == f"1{'0' * 2997}14{'0' * 2997}49"

    def test_squared_limit_past_binary64_is_written_exactly(self, tmp_path, schema):
        # Left tail 10^200 - 1/(n - 1): its squared limit 10^400 has no
        # binary64 value, and both formats write it as the exact integer.
        big = 10**200
        spec = tmp_path / "big-limit.json"
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": [str(2 * big)],
                    "left_tail": {
                        "kind": "rational",
                        "num": [str(-big - 1), str(big)],
                        "den": ["-1", "1"],
                    },
                    "right_tail": {"kind": "constant", "value": str(2 * big)},
                }
            ),
            encoding="utf-8",
        )
        limit = "1" + "0" * 400
        result = run_cli("classify", str(spec), "--format", "json")
        assert (result.code, result.err) == (0, "")
        payload = json.loads(result.out)
        jsonschema.validate(payload, schema)
        assert payload["verdict"]["left_limit_sq"] == limit
        text = run_cli("classify", str(spec))
        assert (text.code, text.err) == (0, "")
        assert f"left transform limit (squared): {limit}\n" in text.out

    def test_report_validates_against_schema(self, fixture_dir, schema):
        for name in ("ex1.json", "ex3.json"):
            result = run_cli("classify", str(fixture_dir / name), "--format", "json")
            jsonschema.validate(json.loads(result.out), schema)

    def test_schema_enums_match_engine(self, schema):
        # A criterion or class the engine drops must leave the schema too.
        verdict = schema["definitions"]["verdict"]["properties"]
        criterion = [v for v in verdict["criterion"]["oneOf"] if "enum" in v]
        assert verdict["class"]["enum"] == [c.value for c in VerdictClass]
        assert criterion[0]["enum"] == [c.value for c in Criterion]

    def test_json_round_trip_byte_identical(self, fixture_dir):
        result = run_cli("classify", str(fixture_dir / "ex2.json"), "--format", "json")
        parsed = json.loads(result.out)
        re_emitted = json.dumps(parsed, indent=2, sort_keys=True) + "\n"
        assert re_emitted == result.out


def _no_truncation(*args, **kwargs):
    raise AssertionError("an over-ceiling dimension reached the oracle")


class TestOracleCommand:
    def test_agreement_and_schema(self, fixture_dir, schema):
        result = run_cli(
            "oracle",
            str(fixture_dir / "flatpair.json"),
            "--max-dim",
            "101",
            "--sweep",
            "10,40",
            "--format",
            "json",
        )
        assert result.code == 0, result.err
        payload = json.loads(result.out)
        jsonschema.validate(payload, schema)
        oracle = payload["oracle"]
        assert oracle["concordance"] == "agrees"
        assert oracle["invariance_violations"][0]["index"] == 1

    def test_text_concordance_line(self, fixture_dir):
        result = run_cli("oracle", str(fixture_dir / "ex1.json"), "--max-dim", "101")
        assert result.code == 0
        assert "oracle agrees with symbolic verdict" in result.out

    def test_insufficient_interior(self, fixture_dir):
        result = run_cli("oracle", str(fixture_dir / "ex2.json"), "--max-dim", "5")
        assert result.code == 0
        assert "insufficient interior" in result.out

    def test_sweep_width_too_narrow_for_the_structure_shows_no_growth(self, fixture_dir):
        # Half width 2 cannot hold ex2's structure. Its norm, 1.127 against
        # 1.903 at 32, stays in the trace, and the concordance never judges
        # the trace: a truncation's norm only rises toward the supremum.
        result = run_cli(
            "oracle", str(fixture_dir / "ex2.json"), "--max-dim", "101", "--sweep", "2,32",
            "--format", "json",
        )
        assert result.code == 0
        oracle = json.loads(result.out)["oracle"]
        assert [item["half_width"] for item in oracle["norm_trace"]] == [2, 32]
        assert oracle["concordance"] == "agrees"

    @pytest.mark.parametrize("sweep", ["6,24", "5,20"])
    def test_slow_plateau_agrees_across_a_quadrupled_sweep(self, tmp_path, sweep):
        # Norms that climb 1.160 -> 1.839 across a quadrupled width are a
        # truncation approaching the exact supremum 2, not growth.
        path = tmp_path / "slow.json"
        path.write_text(json.dumps(SLOW_PLATEAU_SPEC), encoding="utf-8")
        result = run_cli("oracle", str(path), "--sweep", sweep, "--format", "json")
        assert result.code == 0, result.out
        oracle = json.loads(result.out)["oracle"]
        assert oracle["concordance"] == "agrees"
        assert oracle["invariance_violations"] == []
        assert oracle["insufficient_interior"] is False
        widths = [item["half_width"] for item in oracle["norm_trace"]]
        assert widths == [int(w) for w in sweep.split(",")]

    def test_oracle_validates_only_through_classify(self, fixture_dir, monkeypatch):
        # The default tol comes from the certificate's modulus bound.
        def validate(spec):
            raise AssertionError("validated again")

        import shiftcert.oracle as oracle_module

        monkeypatch.setattr(oracle_module, "validate", validate)
        result = run_cli("oracle", str(fixture_dir / "ex1.json"), "--max-dim", "41")
        assert result.code == 0, result.err

    def test_min_dim_enforced(self, fixture_dir):
        assert run_cli("oracle", str(fixture_dir / "ex1.json"), "--max-dim", "3").code == 2

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1", "0"])
    def test_bad_tol_rejected(self, fixture_dir, tol):
        result = run_cli("oracle", str(fixture_dir / "ex1.json"), f"--tol={tol}")
        assert result.code == 2
        assert "--tol must be a finite positive number" in result.err
        assert result.out == ""

    def test_max_dim_ceiling(self, fixture_dir, monkeypatch):
        import shiftcert.cli as cli_module

        monkeypatch.setattr(cli_module, "truncation_report", _no_truncation)
        result = run_cli(
            "oracle", str(fixture_dir / "ex1.json"), "--max-dim", str(MAX_DIM + 1)
        )
        assert result.code == 2
        assert f"--max-dim must be at most {MAX_DIM}" in result.err
        assert result.out == ""

    def test_sweep_ceiling(self, fixture_dir, monkeypatch):
        import shiftcert.cli as cli_module

        monkeypatch.setattr(cli_module, "truncation_report", _no_truncation)
        half_width = (MAX_DIM + 1) // 2  # the first width past the ceiling
        assert 2 * half_width + 1 > MAX_DIM >= 2 * (half_width - 1) + 1
        result = run_cli(
            "oracle", str(fixture_dir / "ex1.json"), "--sweep", f"8,{half_width}"
        )
        assert result.code == 2
        assert f"above the ceiling {MAX_DIM}" in result.err
        assert result.out == ""

    def test_sweep_budget(self, fixture_dir, monkeypatch):
        # Half widths 2, 3, ...: the longest such sweep within the budget
        # reaches the oracle, and one more width is refused before it.
        import shiftcert.cli as cli_module

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        widths = [2]
        while sum(2 * h + 1 for h in widths) + 2 * (widths[-1] + 1) + 1 <= MAX_SWEEP_DIM_SUM:
            widths.append(widths[-1] + 1)
        within, over = ",".join(map(str, widths)), ",".join(map(str, widths + [widths[-1] + 1]))
        monkeypatch.setattr(cli_module, "truncation_report", reached)
        with pytest.raises(Reached):
            run_cli("oracle", str(fixture_dir / "ex1.json"), "--sweep", within)
        monkeypatch.setattr(cli_module, "truncation_report", _no_truncation)
        result = run_cli("oracle", str(fixture_dir / "ex1.json"), "--sweep", over)
        assert result.code == 2
        total = sum(2 * h + 1 for h in widths + [widths[-1] + 1])
        assert result.err == (
            f"error: sweep dimensions sum to {total}, above the budget {MAX_SWEEP_DIM_SUM}\n"
        )
        assert result.out == ""

    def test_bad_sweep_rejected(self, fixture_dir):
        result = run_cli(
            "oracle", str(fixture_dir / "ex1.json"), "--sweep", "40,10"
        )
        assert result.code == 2

    @pytest.mark.parametrize("sweep", ["4,4", "4,8,8"])
    def test_repeated_sweep_width_rejected(self, fixture_dir, monkeypatch, sweep):
        import shiftcert.cli as cli_module

        monkeypatch.setattr(cli_module, "truncation_report", _no_truncation)
        result = run_cli("oracle", str(fixture_dir / "ex1.json"), "--sweep", sweep)
        assert result.code == 2
        assert "strictly ascending" in result.err
        assert result.out == ""

    @staticmethod
    def _level_spec(tmp_path, level: int) -> Path:
        spec = tmp_path / "big.json"
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": ["1", str(level)],
                    "left_tail": {"kind": "constant", "value": "1"},
                    "right_tail": {"kind": "constant", "value": str(level)},
                }
            ),
            encoding="utf-8",
        )
        return spec

    @pytest.mark.parametrize("exponent", [160, 200, 400])
    @pytest.mark.parametrize("tol_args", [(), ("--tol", "1e-9")])
    def test_moduli_beyond_binary64_rejected(self, tmp_path, monkeypatch, exponent, tol_args):
        import shiftcert.cli as cli_module

        spec = self._level_spec(tmp_path, 10**exponent)
        assert run_cli("classify", str(spec)).code == 0
        monkeypatch.setattr(cli_module, "truncation_report", _no_truncation)
        result = run_cli("oracle", str(spec), "--max-dim", "41", *tol_args)
        assert result.code == 2
        assert result.err.startswith("error: the oracle needs squared moduli within binary64 range")
        assert result.out == ""

    @pytest.mark.parametrize(
        "low, high, magnitude",
        [(1, 10**80, 1e160), (1, 10**110, 1e220), (10**150, 2 * 10**150, None)],
        ids=["1-1e80", "1-1e110", "1e150-2e150"],
    )
    def test_invariance_magnitude_is_finite_or_named(self, tmp_path, schema, low, high, magnitude):
        # The magnitude is |d| * |beta| at the seam: its square overflows
        # binary64 in the first two cases, the value itself in the third.
        spec = tmp_path / "levels.json"
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": [str(low), str(high)],
                    "left_tail": {"kind": "constant", "value": str(low)},
                    "right_tail": {"kind": "constant", "value": str(high)},
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("oracle", str(spec), "--max-dim", "41", "--format", "json")
        if magnitude is None:
            assert result.code == 2
            assert result.err == (
                "error: oracle.invariance_violations[0].magnitude in the report "
                "is not a finite binary64 number\n"
            )
            assert result.out == ""
            return
        assert result.code == 0, result.err
        payload = json.loads(result.out)
        jsonschema.validate(payload, schema)
        (violation,) = payload["oracle"]["invariance_violations"]
        assert violation["magnitude"] == pytest.approx(magnitude, rel=1e-12)

    def test_norm_trace_survives_large_moduli(self, tmp_path):
        # ex2 scaled by 10^80: the power iteration's sums of squares pass
        # 1e308, yet the trace must scale with the moduli.
        from shiftcert.fixtures import example_two
        from shiftcert.specfile import dump_spec
        from shiftcert.weights import scale_spec

        argv = ("--max-dim", "61", "--sweep", "8,16", "--format", "json")
        traces = []
        for name, factor in (("plain", 1), ("scaled", 10**80)):
            path = tmp_path / f"{name}.json"
            dump_spec(scale_spec(example_two(), Fraction(factor)), path)
            result = run_cli("oracle", str(path), *argv)
            assert result.code == 0, result.err
            payload = json.loads(result.out)
            assert payload["oracle"]["concordance"] == "agrees"
            traces.append([item["estimate"] for item in payload["oracle"]["norm_trace"]])
        plain, scaled = traces
        assert scaled == pytest.approx([1e80 * v for v in plain], rel=1e-9)

    @pytest.mark.parametrize(
        "step, top, residual",
        [(200, 100, math.sqrt(0.5) * 1e200), (1000, 150, None)],
        ids=["g-7e199", "g-7e649"],
    )
    def test_transformed_weight_past_binary64(self, tmp_path, schema, step, top, residual):
        # Window (1, 1 + 10^-step, 10^top): d_1 is about 2 * 10^-step and
        # d_2 about 10^(2 top), so g_1^2 is about 5 * 10^(2 top + step - 1),
        # past binary64 in both cases, while every squared modulus is within
        # it. The root g_1 is within binary64 in the first case only.
        tiny = 10**step
        spec = tmp_path / "steep.json"
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": ["1", f"{tiny + 1}/{tiny}", str(10**top)],
                    "left_tail": {"kind": "constant", "value": "1"},
                    "right_tail": {"kind": "constant", "value": str(10**top)},
                }
            ),
            encoding="utf-8",
        )
        result = run_cli("oracle", str(spec), "--max-dim", "41", "--format", "json")
        if residual is None:
            assert result.code == 2
            assert result.err == (
                "error: oracle.gamma_residual in the report is not a finite binary64 number\n"
            )
            assert result.out == ""
            return
        assert result.code == 0, result.err
        payload = json.loads(result.out)
        jsonschema.validate(payload, schema)
        oracle = payload["oracle"]
        assert oracle["concordance"] == "agrees"
        # The truncation sees d_1 as null, so the residual is g_1 itself.
        assert oracle["gamma_residual"] == pytest.approx(residual, rel=1e-12)

    @pytest.mark.parametrize(
        "window, code, err",
        [
            (
                [str(10**150), str(2 * 10**150)],
                2,
                "error: oracle.invariance_violations[0].magnitude in the report "
                "is not a finite binary64 number\n",
            ),
            (
                ["1", f"{10**1000 + 1}/{10**1000}", str(10**150)],
                2,
                "error: oracle.gamma_residual in the report is not a finite binary64 number\n",
            ),
            (["1", str(10**152)], 0, ""),
        ],
        ids=["1e150-2e150", "g-7e649", "1-1e152"],
    )
    def test_overflow_prints_no_warning(self, tmp_path, window, code, err):
        # Products past binary64 become inf in silence; only the report's
        # own line names a non-finite field. Levels 1 and 10^152 overflow
        # only in the edge column of Q T, outside the report. A fresh
        # interpreter, because pytest captures warnings in-process.
        spec = tmp_path / "overflow.json"
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": window,
                    "left_tail": {"kind": "constant", "value": window[0]},
                    "right_tail": {"kind": "constant", "value": window[-1]},
                }
            ),
            encoding="utf-8",
        )
        script = f"""
import contextlib, io, sys
from shiftcert.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["oracle", {str(spec)!r}, "--max-dim", "41", "--format", "json"])
sys.exit(code)
"""
        done = _run_fresh(script)
        assert (done.returncode, done.stderr) == (code, err)

    @pytest.mark.parametrize("excess, rejected", [(0, False), (1, True)])
    def test_binary64_gate_is_exact(self, tmp_path, monkeypatch, excess, rejected):
        # isqrt(max)^2 is at most the largest double and (isqrt(max)+1)^2 is
        # above it: only the second is refused before any truncation.
        import shiftcert.cli as cli_module

        class Reached(Exception):
            pass

        def reached(*args, **kwargs):
            raise Reached

        level = math.isqrt(int(sys.float_info.max)) + excess
        spec = self._level_spec(tmp_path, level)
        monkeypatch.setattr(cli_module, "truncation_report", reached)
        if rejected:
            assert run_cli("oracle", str(spec), "--tol", "1e-9").code == 2
        else:
            with pytest.raises(Reached):
                run_cli("oracle", str(spec), "--tol", "1e-9")

    def test_verdict_content_matches_between_formats(self, monkeypatch):
        # Each golden JSON report against the text report of the same call:
        # the text states every non-null verdict value, the spec's notes
        # and, for an oracle call, the truncation's dimension.
        monkeypatch.chdir(GOLDEN_DIR)
        calls = {
            f"{p.name[: -len('.spec.json')]}.report": ("classify", p.name)
            for p in GOLDEN_DIR.glob("*.spec.json")
        }
        for case, (name, *args) in ORACLE_CASES.items():
            calls[case] = ("oracle", f"{name}.spec.json", *args)
        for case, argv in sorted(calls.items()):
            result = run_cli(*argv)
            assert (result.code, result.err) == (0, ""), case
            payload = json.loads((GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8"))
            v = payload["verdict"]
            assert result.out.startswith(f"class: {v['class']}\n"), case
            if v["criterion"] is not None:
                assert f"criterion: {v['criterion']}\n" in result.out, case
            for key in (
                "witness", "first_equality", "flat_pair_index", "left_run_end", "flat_from",
                "left_limit_sq", "right_limit_sq", "left_sup_sq", "sup_modulus",
            ):
                if v[key] is not None:
                    assert f": {v[key]}\n" in result.out, (case, key)
            assert f"annotation: {payload['source']['notes']}\n" in result.out, case
            if payload["oracle"] is not None:
                dim = 2 * payload["oracle"]["half_width"] + 1
                assert f"oracle: dim {dim}, " in result.out, case

    def test_disagreement_maps_to_exit_three(self, fixture_dir, monkeypatch):
        import shiftcert.cli as cli_module

        monkeypatch.setattr(
            cli_module, "concordance", lambda v, r: ("disagrees", ["forced"])
        )
        result = run_cli("oracle", str(fixture_dir / "ex1.json"), "--max-dim", "41")
        assert result.code == 3

    @pytest.mark.parametrize(
        "tol_args, code, agreement",
        [((), 3, "disagrees"), (("--tol", "1e-15"), 0, "agrees")],
    )
    def test_negative_diagonal_within_tol(self, tmp_path, schema, tol_args, code, agreement):
        # d_1 = (19999999999999/10^13)^2 - 2^2 is about -4e-13: negative, so
        # not hyponormal, but inside the default tol, so the truncation sees
        # no PSD failure and the oracle cannot confirm the verdict.
        spec = tmp_path / "near-zero.json"
        spec.write_text(
            json.dumps(
                {
                    "window_start": 0,
                    "window_values": ["2", "19999999999999/10000000000000", "3"],
                    "left_tail": {"kind": "constant", "value": "1"},
                    "right_tail": {"kind": "constant", "value": "3"},
                }
            ),
            encoding="utf-8",
        )
        argv = ["oracle", str(spec), "--max-dim", "41", "--sweep", "4,8", *tol_args]
        result = run_cli(*argv, "--format", "json")
        assert result.code == code
        assert result.err == ""
        payload = json.loads(result.out)
        jsonschema.validate(payload, schema)
        assert payload["verdict"]["class"] == "not-hyponormal"
        oracle = payload["oracle"]
        assert oracle["concordance"] == agreement
        assert oracle["gamma_residual"] is None
        assert oracle["norm_trace"] == []  # no conjugated operator to sweep


def _run_fresh(script: str, timeout: float | None = None) -> subprocess.CompletedProcess:
    """Run a script in a fresh interpreter that imports this shiftcert;
    ``subprocess.TimeoutExpired`` fails the test past ``timeout`` seconds."""
    src = str(Path(shiftcert.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )


class TestStandardLibraryOnly:
    def test_classify_and_examples_leave_numpy_unloaded(self, fixture_dir):
        # A fresh interpreter: this test session has imported numpy already.
        script = f"""
import contextlib, io, sys
import shiftcert, shiftcert.cli
from shiftcert.cli import main

path = {str(fixture_dir / "ex2.json")!r}
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["classify", path, "--format", "json"]) == 0
    assert main(["examples"]) == 0
numeric = sorted(m for m in sys.modules if m.split(".")[0] in ("numpy", "scipy"))
assert not numeric, numeric[:5]
# The value types generate no code at import: no dataclasses, and so no inspect.
generators = sorted(m for m in ("dataclasses", "inspect") if m in sys.modules)
assert not generators, generators
with contextlib.redirect_stdout(io.StringIO()):
    assert main(["oracle", path, "--max-dim", "41"]) == 0
assert "numpy" in sys.modules
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
"""
        done = _run_fresh(script)
        assert done.returncode == 0, done.stderr

    def test_oracle_golden_reports_without_scipy(self):
        # A None entry in sys.modules makes "import scipy" fail, as it does
        # where scipy is not installed: the oracle needs numpy alone.
        from test_golden import GOLDEN_DIR, ORACLE_CASES

        script = f"""
import contextlib, io, os, sys
sys.modules["scipy"] = None
from shiftcert.cli import main

os.chdir({str(GOLDEN_DIR)!r})
for case, (name, *args) in {ORACLE_CASES!r}.items():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["oracle", name + ".spec.json", *args, "--format", "json"]) == 0, case
    with open(case + ".json", encoding="utf-8") as golden:
        assert out.getvalue() == golden.read(), case
"""
        done = _run_fresh(script)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""

    def test_oracle_without_numpy_is_an_input_error(self, fixture_dir):
        # A None entry in sys.modules makes "import numpy" fail, as it does
        # where numpy is not installed.
        script = f"""
import sys
sys.modules["numpy"] = None
from shiftcert.cli import main
sys.exit(main(["oracle", {str(fixture_dir / "ex2.json")!r}, "--max-dim", "41"]))
"""
        done = _run_fresh(script)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error:") and "numpy" in done.stderr
        assert done.stderr.count("\n") == 1


# Report-shaped values: string-keyed objects and arrays (lists or tuples)
# over strings with non-ASCII, control and quote characters, ints of every
# size and sign, and floats including -0.0, subnormals and non-finite ones.
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(),
    st.sampled_from(["", '"', "\\", "\x00\x1f\x7f", "\u00e9\u2028\U0001f600", "</script>"]),
    st.integers(),
    st.integers(min_value=-(10**300), max_value=10**300),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.sampled_from([-0.0, 0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, math.nan]),
)
_REPORT_SHAPED = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=6), inner, max_size=4),
    ),
    max_leaves=30,
)


class TestRenderJson:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.text(max_size=6), _REPORT_SHAPED, max_size=6))
    def test_matches_json_dumps(self, report):
        assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_empty_containers_and_nesting(self):
        report = {"b": [], "a": {}, "c": [{}, [[]], ()], "d": {"y": 1, "x": [True, None]}}
        assert render_json(report) == json.dumps(report, indent=2, sort_keys=True) + "\n"

    def test_rejects_what_json_rejects(self):
        with pytest.raises(TypeError):
            render_json({"a": {1, 2}})
