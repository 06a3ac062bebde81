"""Spec-file parsing, emission, and strictness."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from shiftcert import InvalidSpec, classify
from shiftcert.fixtures import FIXTURES
from shiftcert.specfile import (
    SpecFileError,
    dump_spec,
    format_rational,
    load_spec,
    parse_rational,
    spec_from_dict,
    spec_to_dict,
)


class TestRationalStrings:
    @pytest.mark.parametrize(
        "text, value",
        [
            ("2", Fraction(2)),
            ("-1/3", Fraction(-1, 3)),
            ("+7/2", Fraction(7, 2)),
            ("0", Fraction(0)),
        ],
    )
    def test_parse(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        ["1.5", "1 / 2", "a/b", "", "1/-2", "--1", "5\n", "1/2\n", "\u0663", "\uff15"],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(SpecFileError):
            parse_rational(text)

    def test_zero_denominator(self):
        with pytest.raises(SpecFileError) as excinfo:
            parse_rational("1/0")
        assert "zero denominator" in str(excinfo.value)

    @pytest.mark.parametrize("text", ["1" * 5001, "-1" + "0" * 5000, "1/" + "7" * 5001])
    def test_oversized_integer_rejected(self, text):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SpecFileError) as excinfo:
            parse_rational(text, "window_values[0]")
        assert excinfo.value.field == "window_values[0]"
        assert f"more than {limit} digits" in str(excinfo.value)

    def test_integer_at_the_digit_limit_parses(self):
        text = "9" * sys.get_int_max_str_digits()
        assert parse_rational(text) == int(text)

    @pytest.mark.parametrize("value", [Fraction(2), Fraction(-5, 7), Fraction(0)])
    def test_round_trip(self, value):
        assert parse_rational(format_rational(value)) == value


def _base_dict() -> dict:
    return {
        "window_start": 0,
        "window_values": ["2"],
        "left_tail": {"kind": "rational", "num": ["-1"], "den": ["0", "1"]},
        "right_tail": {"kind": "constant", "value": "2"},
    }


class TestSpecDicts:
    def test_parse_example_one_shape(self, ex1):
        spec, meta = spec_from_dict(_base_dict())
        assert spec == ex1
        assert meta == {}

    def test_unknown_field_rejected(self):
        payload = _base_dict()
        payload["extra"] = 1
        with pytest.raises(SpecFileError) as excinfo:
            spec_from_dict(payload)
        assert "unknown" in str(excinfo.value)

    def test_unknown_tail_field_rejected(self):
        payload = _base_dict()
        payload["right_tail"] = {"kind": "constant", "value": "2", "x": 1}
        with pytest.raises(SpecFileError):
            spec_from_dict(payload)

    def test_missing_field_rejected(self):
        payload = _base_dict()
        del payload["left_tail"]
        with pytest.raises(SpecFileError) as excinfo:
            spec_from_dict(payload)
        assert "missing" in str(excinfo.value)

    def test_zero_denominator_polynomial(self):
        payload = _base_dict()
        payload["left_tail"] = {"kind": "rational", "num": ["1"], "den": ["0"]}
        with pytest.raises(SpecFileError):
            spec_from_dict(payload)

    def test_bool_window_start_rejected(self):
        payload = _base_dict()
        payload["window_start"] = True
        with pytest.raises(SpecFileError):
            spec_from_dict(payload)

    def test_meta_passthrough(self):
        payload = _base_dict()
        payload["name"] = "sample"
        payload["notes"] = "a note"
        _, meta = spec_from_dict(payload)
        assert meta == {"name": "sample", "notes": "a note"}

    def test_fixture_round_trips(self, fixture_specs):
        for name, spec in fixture_specs.items():
            rebuilt, _ = spec_from_dict(spec_to_dict(spec, name=name))
            assert rebuilt == spec

    def test_tail_kinds_preserved(self, fixture_specs):
        payload = spec_to_dict(fixture_specs["ex2"])
        assert payload["left_tail"]["kind"] == "rational"
        assert payload["right_tail"]["num"] == ["-1", "2"]
        assert payload["right_tail"]["den"] == ["0", "1"]

    def test_zero_tail_round_trips(self):
        # A zero numerator is written as ["0"], which parses back, so the
        # reloaded spec fails validation with the original's message.
        payload = _base_dict()
        payload["left_tail"] = {"kind": "rational", "num": ["0"], "den": ["1"]}
        spec, _ = spec_from_dict(payload)
        written = spec_to_dict(spec)
        assert written["left_tail"] == {"kind": "rational", "num": ["0"], "den": ["1"]}
        rebuilt, _ = spec_from_dict(written)
        assert rebuilt == spec
        messages = []
        for candidate in (spec, rebuilt):
            with pytest.raises(InvalidSpec) as excinfo:
                classify(candidate)
            messages.append(str(excinfo.value))
        assert messages[0] == messages[1]
        assert messages[0].endswith("left tail: not strictly positive")


GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"


@pytest.mark.parametrize(
    "path", sorted(GOLDEN_DIR.glob("*.spec.json")), ids=lambda path: path.name[: -len(".spec.json")]
)
def test_golden_spec_bytes_are_written_back(path):
    """Each golden spec file is exactly what dump_spec writes for its
    loaded spec: coefficients over the denominator's leading coefficient,
    so the monic denominator form, fractional coefficients included."""
    spec, meta = load_spec(path)
    written = json.dumps(spec_to_dict(spec, **meta), indent=2, sort_keys=True) + "\n"
    assert written == path.read_text(encoding="utf-8")


class TestFiles:
    def test_dump_and_load(self, tmp_path, fixture_specs):
        path = tmp_path / "spec.json"
        dump_spec(fixture_specs["ex1"], path, name="ex1", notes="note")
        spec, meta = load_spec(path)
        assert spec == fixture_specs["ex1"]
        assert meta["name"] == "ex1"

    def test_oversized_integer_literal(self, tmp_path):
        path = tmp_path / "long.json"
        path.write_text('{"window_start": ' + "1" * 5001 + "}", encoding="utf-8")
        with pytest.raises(SpecFileError) as excinfo:
            load_spec(path)
        assert excinfo.value.field == "file"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(SpecFileError):
            load_spec(path)

    def test_fixture_registry_builds(self):
        for key, (builder, note) in FIXTURES.items():
            spec = builder()
            assert spec.window_values
            assert note
