"""Golden reports: ``classify`` and ``oracle --format json`` output pinned
byte for byte.

``tests/data/golden`` holds spec files for the four built-in fixtures, four
hand-built specs for paths the random recipes miss, and twenty seeded specs
from ``conftest.random_labelled_spec``, each next to the report the CLI
printed for it (``NAME.report.json``). The fixtures, six of the seeded
specs and the four hand-built specs also carry oracle reports:
``NAME.oracle.json`` at ``--max-dim 401``, for the fixtures
``NAME.sweep.json`` at ``--max-dim 61 --sweep 8,16``, and for ``ex3`` and
``flatpair`` ``NAME.obstructed.json`` at ``--max-dim 1001``.
The CLI runs from that directory, so the report's ``source.path`` is the
bare file name and the bytes do not depend on where the checkout lives.
Classifying the golden specs also pins an upper bound on the exact
polynomial evaluations the engine spends, counted by patching
``Polynomial.__call__``, and that no polynomial GCD runs after parsing.

Regenerate, only when a report change is intended, with

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction
from pathlib import Path

import jsonschema
import pytest

from shiftcert import (
    ConstantTail,
    RationalFunction,
    RationalTail,
    WeightSpec,
    classify,
    polycert,
    replay,
    scale_spec,
)
from shiftcert.classifier import Criterion
from shiftcert.cli import main
from shiftcert.fixtures import example_two
from shiftcert.oracle import truncation_report
from shiftcert.polycert import Polynomial
from shiftcert.specfile import load_spec

from conftest import degree_sixteen_spec

GOLDEN_DIR = Path(__file__).resolve().parent / "data" / "golden"
SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "report.schema.json"
GOLDEN_SEED = 20260
GOLDEN_RANDOM_SPECS = 20
FIXTURE_NAMES = ("ex1", "ex2", "ex3", "flatpair")
# Seeded specs beside the fixtures: hyponormal but not near subnormal (00,
# 07), not hyponormal (01, the PSD-failure path), normal (06) and near
# subnormal (11, 15).
ORACLE_SPECS = FIXTURE_NAMES + (
    "random00",
    "random01",
    "random06",
    "random07",
    "random11",
    "random15",
)
# Hand-built specs with zeros and a negative d_n inside rational tails.
HAND_ORACLE_SPECS = ("lefttie", "righttie", "leftdrop", "flatstep")
# Fixtures whose oracle report is the obstructed kind at the dimension the
# benchmark's oracle-obstructed workload runs.
OBSTRUCTED_SPECS = ("ex3", "flatpair")
ORACLE_CASES: dict[str, tuple[str, ...]] = {
    **{
        f"{name}.oracle": (name, "--max-dim", "401")
        for name in ORACLE_SPECS + HAND_ORACLE_SPECS
    },
    **{
        f"{name}.sweep": (name, "--max-dim", "61", "--sweep", "8,16")
        for name in FIXTURE_NAMES
    },
    **{f"{name}.obstructed": (name, "--max-dim", "1001") for name in OBSTRUCTED_SPECS},
}


def hand_specs() -> dict[str, tuple[WeightSpec, str]]:
    half, quarter, eighth = Fraction(1, 2), Fraction(1, 4), Fraction(1, 8)
    return {
        "lefttie": (
            WeightSpec(
                -4,
                (Fraction(3),),
                RationalTail(RationalFunction.of([Fraction(-30, 11), -1, 2], [0, 0, 1])),
                ConstantTail(Fraction(3)),
            ),
            "equal pair (-6, -5) inside the left tail",
        ),
        "righttie": (
            WeightSpec(
                4,
                (half,),
                RationalTail(RationalFunction.of([-4 * quarter - eighth, quarter], [-4, 1])),
                RationalTail(RationalFunction.of([30, -11, 2], [0, 0, 1])),
            ),
            "equal pair (5, 6) inside the right tail",
        ),
        "leftdrop": (
            WeightSpec(
                0,
                (Fraction(10),),
                RationalTail(RationalFunction.of([-1, 2], [-1, 1])),
                ConstantTail(Fraction(10)),
            ),
            "moduli decrease inside the left tail",
        ),
        "flatstep": (
            WeightSpec(
                0,
                (Fraction(2), Fraction(2), Fraction(2), Fraction(3)),
                RationalTail(RationalFunction.of([2, -1], [1, -1])),
                ConstantTail(Fraction(3)),
            ),
            "flat run followed by a rise, no isolated flat pair",
        ),
    }


def _cli_json(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([*argv, "--format", "json"])
    return code, out.getvalue()


def _classify_json(spec_name: str) -> tuple[int, str]:
    return _cli_json("classify", spec_name)


def _oracle_json(case: str) -> tuple[int, str]:
    name, *args = ORACLE_CASES[case]
    return _cli_json("oracle", f"{name}.spec.json", *args)


def _golden_names() -> list[str]:
    return sorted(p.name[: -len(".spec.json")] for p in GOLDEN_DIR.glob("*.spec.json"))


def test_golden_set_is_complete():
    names = _golden_names()
    assert len(names) == 4 + len(hand_specs()) + GOLDEN_RANDOM_SPECS
    for name in names:
        assert (GOLDEN_DIR / f"{name}.report.json").is_file(), name
    for case in ORACLE_CASES:
        assert (GOLDEN_DIR / f"{case}.json").is_file(), case


@pytest.mark.parametrize("name", _golden_names())
def test_report_bytes_match(name, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    code, out = _classify_json(f"{name}.spec.json")
    assert code == 0
    expected = (GOLDEN_DIR / f"{name}.report.json").read_text(encoding="utf-8")
    assert out == expected


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_oracle_report_bytes_match(case, monkeypatch):
    monkeypatch.chdir(GOLDEN_DIR)
    code, out = _oracle_json(case)
    assert code == 0
    expected = (GOLDEN_DIR / f"{case}.json").read_text(encoding="utf-8")
    assert out == expected


# The schema declares draft-07; perfbench/run.py validates under 2020-12.
@pytest.mark.parametrize("validator", ["Draft7Validator", "Draft202012Validator"])
def test_every_golden_report_validates_against_the_schema(validator):
    check = getattr(jsonschema, validator)(json.loads(SCHEMA_PATH.read_text(encoding="utf-8")))
    reports = [p for p in sorted(GOLDEN_DIR.glob("*.json")) if not p.name.endswith(".spec.json")]
    assert len(reports) == len(_golden_names()) + len(ORACLE_CASES)
    for path in reports:
        errors = list(check.iter_errors(json.loads(path.read_text(encoding="utf-8"))))
        assert not errors, (path.name, errors[0].message)


# Exact polynomial evaluations that classifying every golden spec takes:
# validation walks each varying tail once, and every other ray fact of the
# classification is read off that walk. A change that walks more must say
# why and raise this.
GOLDEN_CLASSIFY_EVALS = 276


def test_classify_walk_count(monkeypatch):
    evaluate = Polynomial.__call__
    count = 0

    def counted(poly, x):
        nonlocal count
        count += 1
        return evaluate(poly, x)

    specs = [load_spec(GOLDEN_DIR / f"{name}.spec.json")[0] for name in _golden_names()]
    monkeypatch.setattr(Polynomial, "__call__", counted)
    for spec in specs:
        classify(spec)
    assert 0 < count <= GOLDEN_CLASSIFY_EVALS


# Exact polynomial evaluations that replaying every golden certificate
# takes: the checker walks each varying tail of a fresh copy of the spec
# once and evaluates the moduli around the window and at the cited
# indices; the gamma supremum of a flat-tail verdict is bounded from those
# values and one Descartes check. A change that evaluates more must say
# why and raise this.
GOLDEN_REPLAY_EVALS = 268


def test_replay_evaluation_count(monkeypatch):
    evaluate = Polynomial.__call__
    count = 0

    def counted(poly, x):
        nonlocal count
        count += 1
        return evaluate(poly, x)

    specs = [load_spec(GOLDEN_DIR / f"{name}.spec.json")[0] for name in _golden_names()]
    certificates = [classify(spec).certificate for spec in specs]
    monkeypatch.setattr(Polynomial, "__call__", counted)
    for spec, cert in zip(specs, certificates):
        assert replay(cert, spec).consistent
    assert 0 < count <= GOLDEN_REPLAY_EVALS


# left_sup_sq of degree_sixteen_spec, as the GCD-reduced gamma form gave it.
DEGREE_SIXTEEN_LEFT_SUP_SQ = Fraction(
    int(
        "5409612048744529615528437408571498590626098050312440315932168952"
        "2161063264234846970343556912011399827425349924766725710291409913"
        "7129479913437291318081380818251767841536873919000023111648593653"
        "1971479275458719348096554898224275150685052705051089392919785729"
        "446307784479660558136791"
    ),
    int(
        "1618999893887612465361622336918471397819536898017677383747210948"
        "5920952154701377406395785252424389126008147386786854752933266215"
        "9569895973583959520052126723776841412340880097650340392821228464"
        "574549350264015222936254109292953600"
    ),
)


def test_engine_never_reduces(monkeypatch):
    """After parsing, classify, replay, the oracle and scaling build every
    derived form as an unreduced product: no polynomial GCD runs."""
    specs = {name: load_spec(GOLDEN_DIR / f"{name}.spec.json")[0] for name in _golden_names()}
    wide = degree_sixteen_spec()
    calls = 0
    gcd = polycert.poly_gcd

    def counted(a, b):
        nonlocal calls
        calls += 1
        return gcd(a, b)

    monkeypatch.setattr(polycert, "poly_gcd", counted)
    for spec in [*specs.values(), wide]:
        verdict = classify(spec)
        assert replay(verdict.certificate, spec).consistent
    assert verdict.certificate.criterion == Criterion.FLAT_TAIL
    assert verdict.certificate.left_sup_sq == DEGREE_SIXTEEN_LEFT_SUP_SQ
    truncation_report(specs["ex2"], classify(specs["ex2"]), 40, sweep=[10, 40])
    # Scaling a parsed (canonical) tail by a nonzero constant keeps it so.
    scaled = scale_spec(example_two(), Fraction(3, 2)).right_tail.fn
    assert calls == 0
    fn = example_two().right_tail.fn
    assert scaled == RationalFunction.of([Fraction(3, 2) * c for c in fn.num.ints], fn.den.ints)


def regenerate() -> None:
    from conftest import random_labelled_spec

    from shiftcert.fixtures import FIXTURES
    from shiftcert.specfile import dump_spec

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stale in GOLDEN_DIR.glob("*.json"):
        stale.unlink()
    specs = {key: (builder(), note) for key, (builder, note) in FIXTURES.items()}
    specs.update(hand_specs())
    rng = random.Random(GOLDEN_SEED)
    for i in range(GOLDEN_RANDOM_SPECS):
        spec, klass, _ = random_labelled_spec(rng)
        specs[f"random{i:02d}"] = (spec, f"seeded {klass.value} recipe")
    os.chdir(GOLDEN_DIR)
    for name, (spec, note) in specs.items():
        dump_spec(spec, f"{name}.spec.json", name=name, notes=note)
        code, out = _classify_json(f"{name}.spec.json")
        assert code == 0, name
        Path(f"{name}.report.json").write_text(out, encoding="utf-8")
    for case in ORACLE_CASES:
        code, out = _oracle_json(case)
        assert code == 0, case
        Path(f"{case}.json").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    regenerate()
