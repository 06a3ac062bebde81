"""JSON file format for weight descriptions.

A spec file is a UTF-8 JSON object with exactly these fields:

    window_start   integer
    window_values  list of rational strings
    left_tail      {"kind": "constant", "value": <rational>} or
                   {"kind": "rational", "num": [..], "den": [..]}
    right_tail     same shape as left_tail
    name, notes    optional strings

Rational strings are bit-exact and locale-free: optional sign, digits,
optional "/denominator" (omitted denominator means 1), no whitespace. Each
integer part is held to Python's integer string conversion limit
(``sys.get_int_max_str_digits()``, 4,300 digits by default).
Polynomial coefficient lists are ascending (index i holds the coefficient
of n^i). Unknown fields are rejected.
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .polycert import RationalFunction
from .weights import ConstantTail, RationalTail, TailSpec, WeightSpec

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


class SpecFileError(ValueError):
    """A spec file failed to parse; the message carries field context."""

    def __init__(self, field: str, message: str):
        super().__init__(f"{field}: {message}")
        self.field = field


def parse_rational(text: str, field: str = "value") -> Fraction:
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise SpecFileError(field, f"malformed rational string {text!r}")
    limit = sys.get_int_max_str_digits()
    if limit and any(len(part.lstrip("+-")) > limit for part in text.split("/")):
        raise SpecFileError(field, f"an integer in the rational string has more than {limit} digits")
    if "/" in text:
        num_text, den_text = text.split("/")
        den = int(den_text)
        if den == 0:
            raise SpecFileError(field, "zero denominator")
        return Fraction(int(num_text), den)
    return Fraction(int(text))


def _decimal(n: int) -> str:
    """Decimal digits of n, of any length: ``str`` refuses integers past the
    conversion limit, so a longer one is printed as two halves."""
    try:
        return str(n)
    except ValueError:
        pass
    k = n.bit_length() * 3 // 20  # about half the decimal digits
    high, low = divmod(abs(n), 10**k)
    return ("-" if n < 0 else "") + _decimal(high) + _decimal(low).zfill(k)


def format_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return _decimal(value.numerator)
    return f"{_decimal(value.numerator)}/{_decimal(value.denominator)}"


def _require_keys(obj: dict, allowed: set[str], required: set[str], field: str) -> None:
    if not isinstance(obj, dict):
        raise SpecFileError(field, "expected a JSON object")
    unknown = set(obj) - allowed
    if unknown:
        raise SpecFileError(field, f"unknown field(s): {', '.join(sorted(unknown))}")
    missing = required - set(obj)
    if missing:
        raise SpecFileError(field, f"missing field(s): {', '.join(sorted(missing))}")


def _parse_coeffs(values: Any, field: str) -> list[Fraction]:
    if not isinstance(values, list) or not values:
        raise SpecFileError(field, "expected a non-empty list of rational strings")
    return [parse_rational(v, f"{field}[{i}]") for i, v in enumerate(values)]


def _parse_tail(obj: Any, field: str) -> TailSpec:
    _require_keys(obj, {"kind", "value", "num", "den"}, {"kind"}, field)
    kind = obj["kind"]
    if kind == "constant":
        _require_keys(obj, {"kind", "value"}, {"kind", "value"}, field)
        return ConstantTail(parse_rational(obj["value"], f"{field}.value"))
    if kind == "rational":
        _require_keys(obj, {"kind", "num", "den"}, {"kind", "num", "den"}, field)
        num = _parse_coeffs(obj["num"], f"{field}.num")
        den = _parse_coeffs(obj["den"], f"{field}.den")
        if all(c == 0 for c in den):
            raise SpecFileError(f"{field}.den", "denominator is the zero polynomial")
        return RationalTail(RationalFunction.of(num, den))
    raise SpecFileError(f"{field}.kind", f"unknown tail kind {kind!r}")


def spec_from_dict(obj: Any) -> tuple[WeightSpec, dict[str, str]]:
    """Parse a spec-file object; returns the spec and its metadata."""
    _require_keys(
        obj,
        {"window_start", "window_values", "left_tail", "right_tail", "name", "notes"},
        {"window_start", "window_values", "left_tail", "right_tail"},
        "spec",
    )
    if not isinstance(obj["window_start"], int) or isinstance(obj["window_start"], bool):
        raise SpecFileError("window_start", "expected an integer")
    values = obj["window_values"]
    if not isinstance(values, list) or not values:
        raise SpecFileError("window_values", "expected a non-empty list")
    window = tuple(
        parse_rational(v, f"window_values[{i}]") for i, v in enumerate(values)
    )
    spec = WeightSpec(
        window_start=obj["window_start"],
        window_values=window,
        left_tail=_parse_tail(obj["left_tail"], "left_tail"),
        right_tail=_parse_tail(obj["right_tail"], "right_tail"),
    )
    meta = {}
    for key in ("name", "notes"):
        if key in obj:
            if not isinstance(obj[key], str):
                raise SpecFileError(key, "expected a string")
            meta[key] = obj[key]
    return spec, meta


def _tail_to_dict(tail: TailSpec) -> dict:
    if isinstance(tail, ConstantTail):
        return {"kind": "constant", "value": format_rational(tail.value)}
    return {
        "kind": "rational",
        "num": [format_rational(c) for c in tail.fn.num.coeffs],
        "den": [format_rational(c) for c in tail.fn.den.coeffs],
    }


def spec_to_dict(spec: WeightSpec, name: str | None = None, notes: str | None = None) -> dict:
    out: dict[str, Any] = {
        "window_start": spec.window_start,
        "window_values": [format_rational(v) for v in spec.window_values],
        "left_tail": _tail_to_dict(spec.left_tail),
        "right_tail": _tail_to_dict(spec.right_tail),
    }
    if name is not None:
        out["name"] = name
    if notes is not None:
        out["notes"] = notes
    return out


def load_spec(path: str | Path) -> tuple[WeightSpec, dict[str, str]]:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        raise SpecFileError("file", f"not UTF-8: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or an over-long integer literal
        raise SpecFileError("file", f"invalid JSON: {exc}") from exc
    return spec_from_dict(obj)


def dump_spec(
    spec: WeightSpec, path: str | Path, name: str | None = None, notes: str | None = None
) -> None:
    payload = json.dumps(spec_to_dict(spec, name, notes), indent=2, sort_keys=True)
    Path(path).write_text(payload + "\n", encoding="utf-8")
