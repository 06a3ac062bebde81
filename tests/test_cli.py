"""CLI flows: exit codes, formats, schema validation, fixture round trips."""

from __future__ import annotations

import io
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from shiftcert.classifier import Criterion, VerdictClass
from shiftcert.cli import MAX_DIM, main

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

    def test_squared_limit_past_binary64_is_named(self, tmp_path):
        # Left tail 10^200 - 1/(n - 1): its squared limit 10^400 has no
        # binary64 value for the report's decimal field.
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
        result = run_cli("classify", str(spec), "--format", "json")
        assert result.code == 2
        assert result.err.startswith(
            "error: the report's decimal field needs binary64: "
            "the left transform limit (squared) exceeds"
        )
        assert result.out == ""

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

    def test_verdict_content_matches_between_formats(self, fixture_dir):
        text = run_cli("classify", str(fixture_dir / "ex3.json")).out
        payload = json.loads(
            run_cli("classify", str(fixture_dir / "ex3.json"), "--format", "json").out
        )
        assert payload["verdict"]["class"] in text
        assert payload["verdict"]["criterion"] in text

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
