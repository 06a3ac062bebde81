"""Command-line interface: classify, oracle cross-check, fixture export.

Exit codes: 0 = classified (any class); 2 = parse or validation failure;
3 = certificate replay failure or oracle disagreement. A replay failure
is an internal inconsistency and never occurs on well-formed input. The
oracle can disagree on well-formed input when the exact engine finds a
negative d_n that lies within the oracle's tol: the truncation cannot tell
it from zero, so it sees no hyponormality failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .classifier import (
    Certificate,
    InvalidSpec,
    StructureProfile,
    Verdict,
    classify,
    replay,
)
from .fixtures import FIXTURES, two_level
from .oracle import TruncationReport, concordance, default_tolerance, truncation_report
from .polycert import Limit
from .specfile import SpecFileError, dump_spec, format_rational, load_spec, spec_to_dict
from .weights import WeightSpec, validate

REPORT_FORMAT = "shiftcert-report/1"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INCONSISTENT = 3

# Largest truncation dimension the oracle command accepts, for --max-dim and
# for every 2 * half_width + 1 in --sweep. The oracle's public functions
# return dense dim x dim arrays, and a call keeps up to about eight of them
# alive: the largest allowed call (--max-dim 5001 --sweep 2500 on ex2) peaked
# at 1.3 GB resident, measured on a 2-vCPU x86-64 VM, against an estimated
# 1.9 GB at dim 6001.
MAX_DIM = 5001


def _limit_to_dict(limit: Limit | None) -> dict | None:
    if limit is None:
        return None
    assert limit.value is not None  # transform limits are always finite
    return {
        "kind": "finite",
        "value": format_rational(limit.value),
        "decimal": float(limit.value),
    }


def _rational_or_none(value: Fraction | None) -> str | None:
    return None if value is None else format_rational(value)


def _structure_to_dict(profile: StructureProfile | None) -> dict | None:
    if profile is None:
        return None
    return {
        "left_shape": profile.left_shape.value,
        "left_value": _rational_or_none(profile.left_value),
        "left_equalities": list(profile.left_equalities),
        "window_relations": [r.value for r in profile.window_relations],
        "right_shape": profile.right_shape.value,
        "right_value": _rational_or_none(profile.right_value),
        "right_equalities": (
            None
            if profile.right_equalities is None
            else list(profile.right_equalities)
        ),
        "first_equality": profile.first_equality,
    }


def _certificate_to_dict(cert: Certificate) -> dict:
    return {
        "class": cert.verdict_class.value,
        "criterion": cert.criterion.value if cert.criterion else None,
        "witness": cert.witness,
        "first_equality": cert.first_equality,
        "flat_pair_index": cert.flat_pair_index,
        "left_run_end": cert.left_run_end,
        "left_limit_sq": _limit_to_dict(cert.left_limit_sq),
        "right_limit_sq": _limit_to_dict(cert.right_limit_sq),
        "left_sup_sq": _rational_or_none(cert.left_sup_sq),
        "flat_from": cert.flat_from,
        "sup_modulus": format_rational(cert.sup_modulus),
        "structure": _structure_to_dict(cert.profile),
        "replay_points": [
            {"kind": p.kind, "index": p.index, "value": format_rational(p.value)}
            for p in cert.replay_points
        ],
    }


def _oracle_to_dict(report: TruncationReport, agreement: str, notes: list[str]) -> dict:
    return {
        "half_width": report.half_width,
        "dim": 2 * report.half_width + 1,
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


def build_report(
    verdict: Verdict,
    source: dict[str, Any],
    annotations: Sequence[str] = (),
    oracle_part: dict | None = None,
) -> dict:
    return {
        "format": REPORT_FORMAT,
        "source": source,
        "verdict": _certificate_to_dict(verdict.certificate),
        "oracle": oracle_part,
        "annotations": list(annotations),
    }


def render_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True) + "\n"


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
    ):
        if v[key] is not None:
            lines.append(f"{label}: {v[key]}")
    for key, label in (
        ("left_limit_sq", "left transform limit (squared)"),
        ("right_limit_sq", "right transform limit (squared)"),
    ):
        lim = v[key]
        if lim is not None:
            lines.append(f"{label}: {lim['value']} (~ {lim['decimal']:.6g})")
    if v["left_sup_sq"] is not None:
        lines.append(f"left-ray transform bound (squared): {v['left_sup_sq']}")
    lines.append(f"modulus bound: {v['sup_modulus']}")
    o = report["oracle"]
    if o is not None:
        lines.append(
            f"oracle: dim {o['dim']}, commutator residual {o['q_diag_residual']:.3g}, "
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
    for note in report["annotations"]:
        lines.append(f"annotation: {note}")
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
    report = validate(spec)
    if not report.ok:
        for violation in report.violations:
            err.write(f"validation error: {violation.detail}\n")
        return EXIT_INPUT
    verdict = classify(spec)
    return spec, verdict, meta


def _beyond_binary64(value: Fraction) -> bool:
    return abs(value) > Fraction(sys.float_info.max)


def _non_finite(obj: Any, path: str) -> str | None:
    """Path of the first float in a report part that is not finite."""
    if isinstance(obj, float):
        return None if math.isfinite(obj) else path
    if isinstance(obj, dict):
        items = [(f"{path}.{key}", value) for key, value in obj.items()]
    elif isinstance(obj, list):
        items = [(f"{path}[{i}]", value) for i, value in enumerate(obj)]
    else:
        return None
    return next(filter(None, (_non_finite(value, where) for where, value in items)), None)


def cmd_classify(args, out, err) -> int:
    loaded = _load_and_classify(args.path, err)
    if isinstance(loaded, int):
        return loaded
    spec, verdict, meta = loaded
    for side in ("left", "right"):
        limit = getattr(verdict.certificate, f"{side}_limit_sq")
        if limit is not None and _beyond_binary64(limit.value):
            err.write(
                f"error: the report's decimal field needs binary64: the {side} "
                f"transform limit (squared) exceeds {sys.float_info.max!r}\n"
            )
            return EXIT_INPUT
    replayed = replay(verdict.certificate, spec)
    if not replayed.consistent:
        err.write(f"internal inconsistency: certificate replay failed: {replayed.detail}\n")
        return EXIT_INCONSISTENT
    source = {"path": args.path, **meta}
    annotations = [meta["notes"]] if "notes" in meta else []
    report = build_report(verdict, source, annotations)
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
    tol = args.tol if args.tol is not None else default_tolerance(spec)
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
    report = truncation_report(spec, verdict, half_width, tol, sweep)
    agreement, notes = concordance(verdict, report)
    oracle_part = _oracle_to_dict(report, agreement, notes)
    where = _non_finite(oracle_part, "oracle")
    if where is not None:
        err.write(f"error: {where} in the report is not a finite binary64 number\n")
        return EXIT_INPUT
    source = {"path": args.path, **meta}
    annotations = [meta["notes"]] if "notes" in meta else []
    payload = build_report(verdict, source, annotations, oracle_part)
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
    try:
        return args.func(args, sys.stdout, sys.stderr)
    except InvalidSpec as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
