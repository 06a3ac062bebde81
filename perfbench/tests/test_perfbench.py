"""Self-tests of the benchmark: seeded inputs, promised verdicts, exact metrics.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent
ROOT = PERFBENCH.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from run import Reference, tail_percentile  # noqa: E402
from shiftcert import classify, validate  # noqa: E402
from shiftcert.specfile import load_spec  # noqa: E402
from spans import Span, aggregate, self_times  # noqa: E402


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_bytes(workload, tmp_path):
    a = workloads.write_round(workloads.build_round(workload, 7), tmp_path / "a")
    b = workloads.write_round(workloads.build_round(workload, 7), tmp_path / "b")
    c = workloads.write_round(workloads.build_round(workload, 8), tmp_path / "c")
    assert a and len(a) == len(b)
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


def _check_promises(workload: str, seed: int, tmp_path: Path) -> None:
    ops = workloads.build_round(workload, seed)
    for op, path in zip(ops, workloads.write_round(ops, tmp_path)):
        spec, _meta = load_spec(path)
        if op.expect.klass is None:
            details = [v.detail for v in validate(spec).violations]
            assert any(op.expect.violation in d for d in details), (op.name, details)
            continue
        verdict = classify(spec)
        criterion = verdict.criterion.value if verdict.criterion else None
        assert (verdict.klass.value, criterion) == (op.expect.klass, op.expect.criterion), op.name


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_corpus_specs_get_their_family_class(seed, tmp_path):
    _check_promises("corpus", seed, tmp_path)


@pytest.mark.parametrize("workload", ["far-roots", "oracle-bounded", "oracle-obstructed"])
def test_other_workload_specs_get_their_promised_class(workload, tmp_path):
    _check_promises(workload, 1, tmp_path)


def test_corpus_mixes_every_family_and_a_tenth_invalid():
    ops = workloads.build_round("corpus", 1)
    invalid = [op for op in ops if op.expect.klass is None]
    assert abs(len(invalid) / len(ops) - 0.1) < 0.01
    kinds = {op.name.rsplit("-", 1)[0] for op in ops}
    assert kinds == set(workloads.FAMILIES) | set(workloads.INVALID_KINDS)


def test_far_roots_ladder_spans_the_k_range():
    ks = sorted(int(op.name[1:].split("-")[0]) for op in workloads.build_round("far-roots", 3))
    assert ks[0] >= workloads.K_MIN and ks[-1] <= workloads.K_MAX
    assert ks[-1] > 0.9 * workloads.K_MAX and ks[0] < 1.1 * workloads.K_MIN


def test_tail_percentile_leaves_ten_of_the_count_beyond_it():
    samples = [float(i) for i in range(1, 1001)]
    assert tail_percentile(samples, 1000) == (99.0, 990.0)
    assert tail_percentile(samples, 240) == (95.0, 950.0)
    assert tail_percentile(samples, 20) == (50.0, 500.0)
    assert tail_percentile(samples, 19) == (100.0, 1000.0)


def test_self_time_subtracts_direct_children_only():
    spans = [
        Span(0, None, "cli.main", 0.0, 10.0),
        Span(1, 0, "classifier.classify", 1.0, 7.0),
        Span(2, 1, "polycert.sign_on_ray", 2.0, 5.0),
        Span(3, 0, "cli.render", 8.0, 9.0),
    ]
    assert self_times(spans) == [3.0, 3.0, 3.0, 1.0]
    agg = aggregate(spans)
    assert agg["classifier.classify"] == {"calls": 1, "total_s": 6.0, "self_s": 3.0}


def test_reference_worker_exits_as_the_program_should(tmp_path):
    ops = workloads.build_round("corpus", 3)[:24]
    paths = workloads.write_round(ops, tmp_path)
    reference = Reference()
    try:
        for op, path in zip(ops, paths):
            rc, elapsed = reference.call(op.argv(path))
            assert rc == (2 if op.expect.klass is None else 0), op.name
            assert elapsed > 0
        assert reference.setup() > 0
    finally:
        reference.close()
    assert reference.proc.returncode == 0


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_norm_error_and_counts_repeat_exactly_across_runs():
    args = ("--workload", "oracle-bounded", "--seed", "5", "--seconds", "0", "--trace", "1")
    runs = []
    for _ in range(2):
        out = _run(ROOT, *args)
        assert out.returncode == 0, out.stderr
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
    first, second = runs
    assert set(first) == {m["name"] for m in BENCHMARK["per_layer"]}
    assert first["oracle.norm_rel_err_max"]["value"] > 0
    exact = [k for k, v in first.items() if v["unit"] in ("count", "bytes", "flop")] + ["oracle.norm_rel_err_max"]
    assert "polycert.exact_evals" in exact
    assert {k: first[k] for k in exact} == {k: second[k] for k in exact}


def test_untraced_run_prints_every_gated_metric():
    out = _run(ROOT, "--workload", "corpus", "--seed", "2", "--seconds", "0", "--trace", "0")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    for metric in BENCHMARK["end_to_end"]:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"] and got["value"] > 0


def test_fails_without_printing_outside_a_checkout(tmp_path):
    shutil.copytree(PERFBENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    out = _run(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout == ""
