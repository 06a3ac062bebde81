"""Command-line interface: classify, oracle cross-check, fixture export.

Exit codes: 0 = classified (any class); 2 = parse or validation failure,
or an ``oracle`` run without numpy installed; 3 = a certificate the
checker rejects, or oracle disagreement. ``classify`` hands each verdict's
certificate to :func:`~shiftcert.classifier.replay`, which checks every
claim against a fresh copy of the spec without classifying again; a
rejection is an internal inconsistency and never occurs on well-formed
input. The oracle can disagree on well-formed input when the exact engine
finds a negative d_n that lies within the oracle's tol, which the
truncation cannot tell from zero, or when small moduli fall under tol and
the probe's sqrt(tol) cut, both absolute below modulus 1: ex3 scaled by
1/100 (``examples --which ex3 --low 1/100 --high 1/50``) exits 3 at
``oracle --max-dim 401``. A smaller ``--tol`` (1e-15 there) shows both.

A JSON report (``shiftcert-report/4``, ``schema/report.schema.json``)
states each fact once. Every exact value, the transform limits included,
is a rational string, so ``classify`` writes a squared limit of any size.
Nothing that another field determines is written: the text report reads
its annotation line from ``source.notes`` and the oracle's dimension
from ``2 * half_width + 1``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path
from typing import Any, Sequence

from .classifier import (
    Certificate,
    InvalidSpec,
    Verdict,
    classify,
    replay,
)
from .fixtures import FIXTURES, two_level
# default_tolerance is unused here: perfbench/spans.py wraps it in this module.
from .oracle import (  # noqa: F401
    TruncationReport,
    concordance,
    default_tolerance,
    truncation_report,
)
from .specfile import SpecFileError, dump_spec, format_rational, load_spec, spec_to_dict
# validate is unused here: perfbench/spans.py wraps it in this module.
from .weights import WeightSpec, validate  # noqa: F401

REPORT_FORMAT = "shiftcert-report/4"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

# Largest truncation dimension the oracle command accepts, for --max-dim and
# for every 2 * half_width + 1 in --sweep. An oracle call holds only band
# vectors, so memory does not bind: the largest allowed call (--max-dim 5001
# --sweep 2500 on ex2) peaks at 38 MB resident, measured on a 2-vCPU x86-64
# VM. Time does: that call takes about 5 s, most of it the norm sweep's
# power iteration, whose cost per width grows with the dimension.
MAX_DIM = 5001
# Largest sum of the dimensions 2 * half_width + 1 over a --sweep list, so a
# sweep's work is bounded: each width runs at most NORM_MAX_ITER power
# iteration steps. Worst cases at --max-dim 5001 on ex2, same VM, with the
# stopping rule switched off so that every width runs all its steps: 102 s
# for the 98 widths 2, 3, ..., 99 (sum 9996), 7.7 s for 2499,2500 (sum
# 10000). With the stopping rule: 5.1 s and 8.6 s.
MAX_SWEEP_DIM_SUM = 2 * MAX_DIM


def _certificate_to_dict(cert: Certificate) -> dict:
    left, right, sup = cert.left_limit_sq, cert.right_limit_sq, cert.left_sup_sq
    return {
        "class": cert.verdict_class.value,
        "criterion": cert.criterion.value if cert.criterion else None,
        "witness": cert.witness,
        "first_equality": cert.first_equality,
        "flat_pair_index": cert.flat_pair_index,
        "left_run_end": cert.left_run_end,
        "left_limit_sq": None if left is None else format_rational(left.value),
        "right_limit_sq": None if right is None else format_rational(right.value),
        "left_sup_sq": None if sup is None else format_rational(sup),
        "flat_from": cert.flat_from,
        "sup_modulus": format_rational(cert.sup_modulus),
        # Each run as "first..last", an open end left empty.
        "equal_runs": None if cert.equal_runs is None else [
            "..".join("" if n is None else str(n) for n in run) for run in cert.equal_runs
        ],
        "replay_points": [
            {"kind": p.kind, "index": p.index, "value": format_rational(p.value)}
            for p in cert.replay_points
        ],
    }


def _oracle_to_dict(report: TruncationReport, agreement: str, notes: list[str]) -> dict:
    return {
        "half_width": report.half_width,
        "tol": report.tol,
        "q_diag_residual": report.q_diag_residual,
        "q_offdiag_residual": report.q_offdiag_residual,
        "q_diag_max": report.q_diag_max,
        "gamma_residual": report.gamma_residual,
        "flat_zero_max": report.flat_zero_max,
        "psd_failure_index": report.psd_failure_index,
        "invariance_violations": [
            {"index": n, "magnitude": m} for n, m in report.invariance_violations
        ],
        "norm_trace": [
            {"half_width": n, "estimate": v} for n, v in report.norm_trace
        ],
        "insufficient_interior": report.insufficient_interior,
        "concordance": agreement,
        "concordance_notes": notes,
    }


def build_report(verdict: Verdict, source: dict[str, Any], oracle_part: dict | None = None) -> dict:
    return {
        "format": REPORT_FORMAT,
        "source": source,
        "verdict": _certificate_to_dict(verdict.certificate),
        "oracle": oracle_part,
    }


def render_json(report: dict) -> str:
    """``json.dumps(report, indent=2, sort_keys=True) + "\\n"``, byte for
    byte, without the standard library's pure-Python encoder, which
    ``json.dumps`` runs whenever ``indent`` is set. Keys are strings."""
    out: list[str] = []
    _render(report, "\n", out)
    out.append("\n")
    return "".join(out)


def _scalar(value: Any) -> str | None:
    """The JSON text of a string, number, boolean or None, as ``json``
    writes it; None for anything else."""
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value == math.inf:
            return "Infinity"
        if value == -math.inf:
            return "-Infinity"
        return float.__repr__(value)
    return None


def _render(value: Any, newline: str, out: list[str]) -> None:
    """Append the JSON text of ``value`` to ``out``; ``newline`` is a line
    break followed by the indentation of the line ``value`` starts on.
    Scalar members are written in place, without a call each."""
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        for key in sorted(value):
            member = value[key]
            out += (sep, _quote(key), ": ")
            text = _scalar(member)
            if text is None:
                _render(member, inner, out)
            else:
                out.append(text)
            sep = "," + inner
        out += (newline, "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        sep = "[" + inner
        for member in value:
            out.append(sep)
            text = _scalar(member)
            if text is None:
                _render(member, inner, out)
            else:
                out.append(text)
            sep = "," + inner
        out += (newline, "]")
    else:
        text = _scalar(value)
        if text is None:
            raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
        out.append(text)


def render_text(report: dict) -> str:
    v = report["verdict"]
    lines = [f"class: {v['class']}"]
    if v["criterion"]:
        lines.append(f"criterion: {v['criterion']}")
    for key, label in (
        ("witness", "witness"),
        ("first_equality", "first equality k"),
        ("flat_pair_index", "flat pair index"),
        ("left_run_end", "left run end"),
        ("flat_from", "transform flat from"),
        ("left_limit_sq", "left transform limit (squared)"),
        ("right_limit_sq", "right transform limit (squared)"),
        ("left_sup_sq", "left-ray transform bound (squared)"),
    ):
        if v[key] is not None:
            lines.append(f"{label}: {v[key]}")
    lines.append(f"modulus bound: {v['sup_modulus']}")
    o = report["oracle"]
    if o is not None:
        lines.append(
            f"oracle: dim {2 * o['half_width'] + 1}, "
            f"commutator residual {o['q_diag_residual']:.3g}, "
            f"off-diagonal {o['q_offdiag_residual']:.3g}"
        )
        if o["gamma_residual"] is not None:
            lines.append(f"oracle transform residual: {o['gamma_residual']:.3g}")
        if o["psd_failure_index"] is not None:
            lines.append(f"oracle: spec not hyponormal at index {o['psd_failure_index']}")
        for item in o["invariance_violations"]:
            lines.append(
                f"oracle invariance violation: n = {item['index']}, "
                f"magnitude {item['magnitude']:.6g}"
            )
        for item in o["norm_trace"]:
            lines.append(
                f"oracle norm at half width {item['half_width']}: {item['estimate']:.8g}"
            )
        if o["insufficient_interior"]:
            lines.append("oracle: insufficient interior")
        lines.append(f"oracle {o['concordance']} with symbolic verdict")
        for note in o["concordance_notes"]:
            lines.append(f"note: {note}")
    if "notes" in report["source"]:
        lines.append(f"annotation: {report['source']['notes']}")
    return "\n".join(lines) + "\n"


def _emit(report: dict, fmt: str, out) -> None:
    out.write(render_json(report) if fmt == "json" else render_text(report))


def _load_and_classify(path: str, err) -> tuple[WeightSpec, Verdict, dict] | int:
    try:
        spec, meta = load_spec(path)
    except FileNotFoundError:
        err.write(f"error: no such file: {path}\n")
        return EXIT_INPUT
    except SpecFileError as exc:
        err.write(f"parse error: {exc}\n")
        return EXIT_INPUT
    except OSError as exc:
        err.write(f"error: cannot read {path}: {exc.strerror}\n")
        return EXIT_INPUT
    try:
        verdict = classify(spec)
    except InvalidSpec as exc:
        for violation in exc.report.violations:
            err.write(f"validation error: {violation.detail}\n")
        return EXIT_INPUT
    return spec, verdict, meta


# The largest finite binary64 value, exactly.
_BINARY64_MAX = Fraction(sys.float_info.max)


def _beyond_binary64(value: Fraction) -> bool:
    return abs(value) > _BINARY64_MAX


def _finite(obj: Any) -> bool:
    """Whether every float in a report part is finite."""
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        obj = obj.values()
    elif not isinstance(obj, list):
        return True
    return all(map(_finite, obj))


def _non_finite(obj: Any, path: str) -> str | None:
    """Path of the first float in a report part that is not finite. The
    floats are tested first, and the path is built only when one fails."""
    if _finite(obj):
        return None
    while not isinstance(obj, float):
        if isinstance(obj, dict):
            key = next(k for k, v in obj.items() if not _finite(v))
            path += f".{key}"
        else:
            key = next(i for i, v in enumerate(obj) if not _finite(v))
            path += f"[{key}]"
        obj = obj[key]
    return path


def cmd_classify(args, out, err) -> int:
    loaded = _load_and_classify(args.path, err)
    if isinstance(loaded, int):
        return loaded
    spec, verdict, meta = loaded
    replayed = replay(verdict.certificate, spec)
    if not replayed.consistent:
        err.write(f"internal inconsistency: certificate replay failed: {replayed.detail}\n")
        return EXIT_INCONSISTENT
    report = build_report(verdict, {"path": args.path, **meta})
    _emit(report, args.format, out)
    return EXIT_OK


def cmd_oracle(args, out, err) -> int:
    if args.max_dim < 5:
        err.write("error: --max-dim must be at least 5\n")
        return EXIT_INPUT
    if args.max_dim > MAX_DIM:
        err.write(f"error: --max-dim must be at most {MAX_DIM}, got {args.max_dim}\n")
        return EXIT_INPUT
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol > 0):
        err.write(f"error: --tol must be a finite positive number, got {args.tol}\n")
        return EXIT_INPUT
    loaded = _load_and_classify(args.path, err)
    if isinstance(loaded, int):
        return loaded
    spec, verdict, meta = loaded
    if _beyond_binary64(verdict.certificate.sup_modulus**2):
        err.write(
            "error: the oracle needs squared moduli within binary64 range: "
            f"sup |beta_n|^2 exceeds {sys.float_info.max!r}\n"
        )
        return EXIT_INPUT
    half_width = (args.max_dim - 1) // 2
    sweep = None
    if args.sweep:
        try:
            sweep = [int(x) for x in args.sweep.split(",")]
        except ValueError:
            err.write(f"error: malformed sweep list {args.sweep!r}\n")
            return EXIT_INPUT
        if any(b <= a for a, b in zip(sweep, sweep[1:])) or sweep[0] < 2:
            err.write("error: sweep half-widths must be strictly ascending and >= 2\n")
            return EXIT_INPUT
        if 2 * sweep[-1] + 1 > MAX_DIM:
            err.write(
                f"error: sweep half-width {sweep[-1]} gives dimension "
                f"{2 * sweep[-1] + 1}, above the ceiling {MAX_DIM}\n"
            )
            return EXIT_INPUT
        total = sum(2 * h + 1 for h in sweep)
        if total > MAX_SWEEP_DIM_SUM:
            err.write(
                f"error: sweep dimensions sum to {total}, above the budget {MAX_SWEEP_DIM_SUM}\n"
            )
            return EXIT_INPUT
    try:
        import numpy  # noqa: F401
    except ImportError as exc:
        err.write(f"error: the oracle needs {exc.name or exc}, which cannot be imported\n")
        return EXIT_INPUT
    # tol None: the report reads the default off the certificate.
    report = truncation_report(spec, verdict, half_width, args.tol, sweep)
    agreement, notes = concordance(verdict, report)
    oracle_part = _oracle_to_dict(report, agreement, notes)
    where = _non_finite(oracle_part, "oracle")
    if where is not None:
        err.write(f"error: {where} in the report is not a finite binary64 number\n")
        return EXIT_INPUT
    payload = build_report(verdict, {"path": args.path, **meta}, oracle_part)
    _emit(payload, args.format, out)
    return EXIT_INCONSISTENT if agreement == "disagrees" else EXIT_OK


def cmd_examples(args, out, err) -> int:
    from .specfile import parse_rational

    which = list(FIXTURES) if args.which == "all" else [args.which]
    built: dict[str, tuple[WeightSpec, str]] = {}
    for key in which:
        builder, note = FIXTURES[key]
        if key == "ex3":
            try:
                spec = two_level(
                    parse_rational(args.low, "--low"),
                    parse_rational(args.high, "--high"),
                )
            except (ValueError, SpecFileError) as exc:
                err.write(f"error: {exc}\n")
                return EXIT_INPUT
        else:
            spec = builder()
        built[key] = (spec, note)
    if args.emit:
        directory = Path(args.emit)
        try:
            directory.mkdir(parents=True, exist_ok=True)
            for key, (spec, note) in built.items():
                dump_spec(spec, directory / f"{key}.json", name=key, notes=note)
        except OSError as exc:
            err.write(f"error: cannot write to {args.emit}: {exc}\n")
            return EXIT_INPUT
        out.write(f"wrote {', '.join(f'{k}.json' for k in built)} to {args.emit}\n")
    else:
        payload = {
            key: spec_to_dict(spec, name=key, notes=note)
            for key, (spec, note) in built.items()
        }
        out.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shiftcert",
        description=(
            "Classify bilateral weighted shifts (normal, near subnormal, "
            "hyponormal) with exact certificates and a matrix oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify a weight description")
    p_classify.add_argument("path", help="JSON weight description")
    p_classify.add_argument("--format", choices=("text", "json"), default="text")
    p_classify.set_defaults(func=cmd_classify)

    p_oracle = sub.add_parser("oracle", help="run the truncation oracle")
    p_oracle.add_argument("path", help="JSON weight description")
    p_oracle.add_argument("--max-dim", type=int, default=401, help="truncation dimension")
    p_oracle.add_argument("--tol", type=float, default=None, help="null-space tolerance")
    p_oracle.add_argument(
        "--sweep", default=None, help="comma-separated half widths for the norm trace"
    )
    p_oracle.add_argument("--format", choices=("text", "json"), default="text")
    p_oracle.set_defaults(func=cmd_oracle)

    p_examples = sub.add_parser("examples", help="emit the built-in fixtures")
    p_examples.add_argument(
        "--which", choices=tuple(FIXTURES) + ("all",), default="all"
    )
    p_examples.add_argument("--emit", default=None, help="directory to write files to")
    p_examples.add_argument("--low", default="1", help="two-level fixture: lower modulus")
    p_examples.add_argument("--high", default="2", help="two-level fixture: upper modulus")
    p_examples.set_defaults(func=cmd_examples)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, sys.stdout, sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
