"""shiftcert benchmark: one closed-loop client driving the CLI in-process.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout. The benchmark imports the package
from ``src/`` of that checkout, writes its seeded spec files to a private
directory under ``.perfbench-work/`` (removed on exit) and calls
``shiftcert.cli.main`` once per operation, the next call only after the
previous one returned. It repeats the workload's round of operations until
``--seconds`` have passed, always finishing a round, so every run measures
the same mix. With ``--trace 0`` each call is paired with the same call to
a frozen reference copy of shiftcert (``perfbench/reference``, run by
``refworker.py`` in a child process, never at the same time), and the
timing metrics are the program's times over the reference's: the shared
host's speed changes hit both sides of a pair alike and cancel. Every
output is checked; the last stdout line is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``). The line before
it is a summary with the raw times and the run environment. See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCHEMA = ROOT / "schema" / "report.schema.json"

# The program, the reference and every set-up interpreter share one CPU:
# the host's CPUs need not run at the same speed, and a pair split across
# two of them would time the CPUs, not the code. One CPU, one BLAS thread.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed this many times before the measured rounds and as many
# after, so its median spans the run rather than one moment of it.
SETUP_REPS_EACH_SIDE = 4
# The reference's set-up time on the machine the benchmark was defined on
# (2-vCPU Xeon VM, Python 3.11, numpy 2.4, scipy 1.17). setup_s is the
# program's set-up time over the reference's, paired, times this: set-up
# time at that machine's speed, whatever the speed of the host this minute.
REF_SETUP_S = 0.44
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def fail(message: str) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return 2


def tail_percentile(samples: list[float], count: int) -> tuple[float, float]:
    """(percentile, value) of the latency tail.

    The percentile is the highest on the ladder that leaves at least ten of
    `count` samples beyond it, or the maximum when `count` is under twenty.
    `count` is the number of calls every run makes at least (round size
    times the workload's minimum rounds), not the number this run made, so
    the percentile is the same however many rounds a run fits in.
    """
    percentile = 100.0
    for p in TAIL_LADDER:
        if count - math.ceil(p * count / 100) >= TAIL_BEYOND:
            percentile = p
            break
    ordered = sorted(samples)
    return percentile, ordered[max(0, math.ceil(percentile * len(ordered) / 100) - 1)]


def measure_setup(reps: int, reference: Reference | None = None) -> tuple[list[float], list[float]]:
    """Wall times of fresh interpreters importing shiftcert and shiftcert.cli,
    each paired with the reference's, in alternating order."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    argv = [sys.executable, "-c", "import shiftcert, shiftcert.cli"]
    times, ref_times = [], []
    for rep in range(reps):
        if reference is not None and rep % 2:
            ref_times.append(reference.setup())
        start = time.perf_counter()
        subprocess.run(argv, env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - start)
        if reference is not None and not rep % 2:
            ref_times.append(reference.setup())
    return times, ref_times


class Reference:
    """The frozen reference shiftcert, driven one call at a time in a child."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "refworker.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            text=True,
        )

    def _ask(self, request: dict) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, argv: list[str]) -> tuple[int | None, float]:
        answer = self._ask({"argv": argv})
        return answer["rc"], answer["elapsed"]

    def setup(self) -> float:
        return self._ask({"setup": True})["elapsed"]

    def close(self) -> None:
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


def blas_threads_in_use() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if not found."""
    with open("/proc/self/maps", encoding="utf-8") as maps:
        libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment(seed: int, tail_p: float, inputs: int, rounds: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_pinned": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "git_commit": git_commit(),
        "seed": seed,
        "tail_percentile": tail_p,
        "tail_samples": inputs * rounds,  # every timed call of the run
        "rounds": rounds,
        "client": "closed loop, 1 client, in-process",
    }


class Runner:
    """Drives the CLI over one workload round and checks every output."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        import workloads
        from shiftcert.cli import main

        self.main = main
        self.workdir = workdir
        self.ops = workloads.build_round(workload, seed)
        self.paths = workloads.write_round(self.ops, workdir / "specs")
        self.first_output: dict[int, str] = {}
        self.failures: list[str] = []

    def call(self, argv: list[str]) -> tuple[int | None, str, str, float, str | None]:
        out, err = io.StringIO(), io.StringIO()
        error = None
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(argv)
        except Exception:  # an uncaught exception is a failed operation
            rc, error = None, traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - start
        return rc, out.getvalue(), err.getvalue(), elapsed, error

    def check(self, i: int, rc, stdout: str, stderr: str, error: str | None) -> str | None:
        """None if the output is what the op's generator promised."""
        op = self.ops[i]
        expect = op.expect
        if error is not None:
            return f"uncaught exception: {error.strip().splitlines()[-1]}"
        if expect.klass is None:
            if rc != 2:
                return f"invalid spec exited {rc}, expected 2"
            if expect.violation not in stderr:
                return f"missing named violation {expect.violation!r}: {stderr.strip()!r}"
            return None
        if rc != 0:
            return f"exit code {rc}: {stderr.strip()[:200]!r}"
        try:
            problem = self._check_report(op, json.loads(stdout))
        except (ValueError, KeyError, TypeError) as exc:
            return f"malformed report: {exc!r}"
        if self.first_output.setdefault(i, stdout) != stdout:
            return "report differs from the first report for the same spec"
        return problem

    @staticmethod
    def _check_report(op, report: dict) -> str | None:
        expect = op.expect
        verdict = report["verdict"]
        if (verdict["class"], verdict["criterion"]) != (expect.klass, expect.criterion):
            return f"verdict {verdict['class']}/{verdict['criterion']}, expected {expect.klass}/{expect.criterion}"
        if op.command == "oracle":
            oracle = report["oracle"]
            if oracle["concordance"] != "agrees":
                return f"concordance {oracle['concordance']}: {oracle['concordance_notes']}"
            if "--sweep" in op.extra_args:
                sweep = op.extra_args[op.extra_args.index("--sweep") + 1]
                widths = [item["half_width"] for item in oracle["norm_trace"]]
                if widths != [int(x) for x in sweep.split(",")]:
                    return f"norm trace at {widths}, expected {sweep}"
        return None

    def run_reference(self, i: int, reference: Reference) -> float:
        """The reference's time on op i; it must exit as the program should."""
        expected = 2 if self.ops[i].expect.klass is None else 0
        rc, elapsed = reference.call(self.ops[i].argv(self.paths[i]))
        if rc != expected:
            raise RuntimeError(f"reference exited {rc} on {self.ops[i].name}, expected {expected}")
        return elapsed

    def run_op(self, i: int, tracer=None) -> tuple[float, bool, int]:
        argv = self.ops[i].argv(self.paths[i])
        if tracer is None:
            rc, out, err, elapsed, error = self.call(argv)
        else:
            with tracer.active(), tracer.span("cli.main"):
                rc, out, err, elapsed, error = self.call(argv)
        problem = self.check(i, rc, out, err, error)
        if problem is not None:
            self.failures.append(f"{self.ops[i].name}: {problem}")
        return elapsed, problem is None, len(out.encode())

    def warm_up(self, workload: str, reference: Reference | None = None) -> None:
        """Untimed: load every code path once at small sizes, in the program
        and in the reference."""
        from shiftcert.fixtures import FIXTURES
        from shiftcert.specfile import dump_spec

        directory = self.workdir / "warm"
        directory.mkdir()
        for key, (builder, _note) in FIXTURES.items():
            path = directory / f"{key}.json"
            dump_spec(builder(), path)
            calls = [["classify", str(path), "--format", "json"]]
            if workload.startswith("oracle"):
                calls.append(["oracle", str(path), "--max-dim", "61", "--sweep", "8,16", "--format", "json"])
            for argv in calls:
                self.call(argv)
                if reference is not None:
                    reference.call(argv)

    def post_checks(self) -> tuple[int, float | None]:
        """Outside the timed region: schema-validate each distinct report and
        recompute every reported norm. Returns (failed ops, norm_rel_err_max)."""
        import jsonschema

        validator = jsonschema.Draft202012Validator(json.loads(SCHEMA.read_text()))
        failed = 0
        worst: float | None = None
        for i, stdout in sorted(self.first_output.items()):
            report = json.loads(stdout)
            errors = list(validator.iter_errors(report))
            if errors:
                failed += 1
                self.failures.append(f"{self.ops[i].name}: schema: {errors[0].message}")
            oracle = report.get("oracle")
            if oracle and oracle["norm_trace"]:
                err = norm_rel_err(self.paths[i], oracle)
                if err is None:
                    failed += 1
                    self.failures.append(f"{self.ops[i].name}: conjugated truncation is not a single subdiagonal")
                else:
                    worst = err if worst is None else max(worst, err)
        return failed, worst


def norm_rel_err(path: Path, oracle: dict) -> float | None:
    """Largest |estimate - ||S|| | / ||S|| over the report's norm trace.

    S is the conjugated truncation the oracle's own public functions
    return; it has a single subdiagonal, so ||S|| is exactly its largest
    absolute subdiagonal entry. None if S has any other nonzero entry.
    """
    import numpy as np
    from shiftcert.oracle import build_truncation, commutator, transformed_shift
    from shiftcert.specfile import load_spec

    spec, _meta = load_spec(path)
    worst = 0.0
    for item in oracle["norm_trace"]:
        t = build_truncation(spec, item["half_width"], oracle["tol"])
        s = transformed_shift(t, commutator(t), oracle["tol"])
        subdiagonal = np.diagonal(s, offset=-1)
        if np.count_nonzero(s) != np.count_nonzero(subdiagonal):
            return None
        exact = float(np.abs(subdiagonal).max())
        worst = max(worst, abs(item["estimate"] - exact) / exact)
    return worst


def measure(runner: Runner, seconds: float, min_rounds: int, tracer=None, reference=None) -> dict:
    """Whole rounds until `seconds` have passed, and at least `min_rounds`.

    Untraced: each op runs once per round, paired with the reference on
    the same input, back to back with the order alternating. Traced: each
    op runs untraced and traced back to back (order alternating), so the
    pair gives the tracing overhead on identical input; one round
    suffices. Latencies are kept per op, so each input's repeats can be
    compared.
    """
    n = len(runner.ops)
    latencies: list[list[float]] = [[] for _ in range(n)]
    traced: list[list[float]] = [[] for _ in range(n)]
    ref: list[list[float]] = [[] for _ in range(n)]
    report_bytes = [0] * n
    ok = attempted = rounds = 0
    first_round_spans = first_round_counts = None
    if tracer is not None:
        min_rounds = 1
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        for i in range(n):
            first = (i + rounds) % 2 == 0
            if tracer is not None:
                modes = (None, tracer) if first else (tracer, None)
            else:
                modes = (None,)
            if reference is not None and not first:
                ref[i].append(runner.run_reference(i, reference))
            for t in modes:
                elapsed, good, size = runner.run_op(i, t)
                ok += good
                attempted += 1
                report_bytes[i] = size
                (latencies if t is None else traced)[i].append(elapsed)
            if reference is not None and first:
                ref[i].append(runner.run_reference(i, reference))
        rounds += 1
        if tracer is not None and first_round_spans is None:
            first_round_spans = len(tracer.spans)
            first_round_counts = dict(vars(tracer.counters))
    return {
        "latencies": latencies,
        "traced": traced,
        "ref": ref,
        "ok": ok,
        "attempted": attempted,
        "rounds": rounds,
        "report_bytes": report_bytes,
        "first_round_spans": first_round_spans,
        "first_round_counts": first_round_counts,
    }


def end_to_end(m: dict, setup: list[float], ref_setup: list[float], norm_err, workload: str):
    """Gated metrics: the program's times over the reference's on the same
    inputs, each side pooled over every call of the run. Raw times go to
    the summary."""
    cur = [t for samples in m["latencies"] for t in samples]
    ref = [t for samples in m["ref"] for t in samples]
    tail_p, tail_v = tail_percentile(cur, m["tail_count"])
    ref_tail = tail_percentile(ref, m["tail_count"])[1]
    p50, ref_p50 = statistics.median(cur), statistics.median(ref)
    throughput = m["ok"] / sum(cur)
    setup_ratio = statistics.median(a / b for a, b in zip(setup, ref_setup))
    peak_rss = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics = {
        "setup_s": (setup_ratio * REF_SETUP_S, "s"),
        "throughput_vs_ref": (sum(ref) / sum(cur), "ratio"),
        "latency_p50_vs_ref": (p50 / ref_p50, "ratio"),
        "latency_tail_vs_ref": (tail_v / ref_tail, "ratio"),
        "peak_rss_mb": peak_rss,
    }
    raw = {
        "setup_s": (statistics.median(setup), "s"),
        "calls_per_s": (throughput, "1/s"),
        "call_latency_ms_p50": (p50 * 1e3, "ms"),
        "call_latency_ms_tail": (tail_v * 1e3, "ms"),
        "ref_setup_s": (statistics.median(ref_setup), "s"),
        "ref_calls_per_s": (len(ref) / sum(ref), "1/s"),
        "ref_call_latency_ms_p50": (ref_p50 * 1e3, "ms"),
        "ref_call_latency_ms_tail": (ref_tail * 1e3, "ms"),
    }
    # The user-facing names, in raw time; None where the workload does not
    # exercise one.
    oracle = workload.startswith("oracle")
    named = {
        "setup_s": raw["setup_s"],
        "specs_per_s": (None if oracle else throughput, "1/s"),
        "spec_latency_ms_p50": (None if oracle else p50 * 1e3, "ms"),
        "spec_latency_ms_tail": (None if oracle else tail_v * 1e3, "ms"),
        "oracle_checks_per_min": (throughput * 60 if oracle else None, "1/min"),
        "oracle_s_p50": (p50 if oracle else None, "s"),
        "norm_rel_err_max": (norm_err, "ratio"),
        "peak_rss_mb": peak_rss,
        "failed_ratio": (m["failed"] / m["attempted"], "ratio"),
    }
    return metrics, raw, named, tail_p


def per_layer(round_len: int, m: dict, tracer, norm_err) -> dict:
    """Times are means over every traced call (ms/op); counts are over the
    first round, so they repeat exactly for a seed."""
    from spans import aggregate, self_times

    spans = tracer.spans
    n = sum(len(samples) for samples in m["traced"])
    per_op = 1e3 / n
    agg = aggregate(spans)
    first = aggregate(spans[: m["first_round_spans"]])
    counts = m["first_round_counts"]

    def self_ms(name: str) -> float:
        return agg.get(name, {}).get("self_s", 0.0) * per_op

    def total_ms(name: str) -> float:
        return agg.get(name, {}).get("total_s", 0.0) * per_op

    def first_calls(name: str) -> int:
        return int(first.get(name, {}).get("calls", 0))

    classify_top = sum(
        s.end - s.start
        for s in spans
        if s.name == "classifier.classify" and s.parent is not None and spans[s.parent].name == "cli.main"
    ) * per_op
    replay_ms = total_ms("classifier.replay")
    traced_total = sum(s.end - s.start for s in spans if s.parent is None)
    layer_self: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        layer = span.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own

    metrics = {
        "polycert.sign_on_ray.self_ms": (self_ms("polycert.sign_on_ray"), "ms/op"),
        "polycert.sup_on_ray.self_ms": (self_ms("polycert.sup_on_ray"), "ms/op"),
        "polycert.exact_evals": (counts["exact_evals"], "count"),
        "polycert.exact_evals_per_spec": (counts["exact_evals"] / round_len, "count"),
        "polycert.cutoff_max": (counts["cutoff_max"], "count"),
        "polycert.ray_root_free_cutoff.calls": (counts["cutoff_calls"], "count"),
        "weights.validate.calls_per_spec": (counts["validate_calls"] / round_len, "count"),
        "weights.validate.self_ms": (self_ms("weights.validate"), "ms/op"),
        "weights.validate.reject_ratio": (
            counts["validate_rejects"] / counts["validate_calls"] if counts["validate_calls"] else 0.0,
            "ratio",
        ),
        "shiftcalc.commutator_diagonal.calls_per_spec": (
            first_calls("shiftcalc.commutator_diagonal") / round_len,
            "count",
        ),
        "shiftcalc.transformed_weights.calls_per_spec": (
            first_calls("shiftcalc.transformed_weights") / round_len,
            "count",
        ),
        "shiftcalc.transformed_weights.self_ms": (self_ms("shiftcalc.transformed_weights"), "ms/op"),
        "shiftcalc.bounded_on_left_ray.self_ms": (self_ms("shiftcalc.bounded_on_left_ray"), "ms/op"),
        "classifier.check_hyponormal.self_ms": (self_ms("classifier.check_hyponormal"), "ms/op"),
        "classifier.classify.ms": (classify_top, "ms/op"),
        "classifier.replay.ms": (replay_ms, "ms/op"),
        "classifier.replay_over_classify": (replay_ms / classify_top if classify_top else 0.0, "ratio"),
        "specfile.load_spec.ms": (total_ms("specfile.load_spec"), "ms/op"),
        "cli.build_report.self_ms": (self_ms("cli.build_report"), "ms/op"),
        "cli.render.self_ms": (self_ms("cli.render"), "ms/op"),
        "cli.report_bytes": (statistics.mean(m["report_bytes"]), "bytes"),
        "oracle.largest_singular_value.self_ms": (self_ms("oracle.largest_singular_value"), "ms/op"),
        "oracle.norm_sweep.ms": (total_ms("oracle.norm_sweep"), "ms/op"),
        "oracle.invariance_violations.self_ms": (self_ms("oracle.invariance_violations"), "ms/op"),
        "oracle.null_indices_probed": (counts["null_indices_probed"], "count"),
        "oracle.build_truncation.self_ms": (self_ms("oracle.build_truncation"), "ms/op"),
        "oracle.commutator.self_ms": (self_ms("oracle.commutator"), "ms/op"),
        "oracle.spectral_roots.self_ms": (self_ms("oracle.psd_root") + self_ms("oracle.pinv_root"), "ms/op"),
        "oracle.transformed_shift.self_ms": (self_ms("oracle.transformed_shift"), "ms/op"),
        "oracle.truncations_built": (counts["truncations_built"], "count"),
        "oracle.dense_bytes_computed": (counts["dense_bytes"], "bytes"),
        "oracle.matmul_flops_computed": (counts["matmul_flops"], "flop"),
        "oracle.concordance.self_ms": (self_ms("oracle.concordance"), "ms/op"),
        "oracle.norm_rel_err_max": (norm_err or 0.0, "ratio"),
    }
    for name in ("oracle.largest_singular_value", "oracle.invariance_violations"):
        metrics[f"{name}.self_share"] = (agg.get(name, {}).get("self_s", 0.0) / traced_total, "ratio")
    for layer in ("specfile", "weights", "polycert", "shiftcalc", "classifier", "oracle", "cli"):
        metrics[f"{layer}.self_share"] = (layer_self.get(layer, 0.0) / traced_total, "ratio")
    best_traced = sum(min(samples) for samples in m["traced"])
    best_plain = sum(min(samples) for samples in m["latencies"])
    metrics["trace.overhead_pct"] = ((best_traced / best_plain - 1) * 100, "%")
    metrics["trace.spans_per_op"] = (len(spans) / n, "count")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "shiftcert" / "__init__.py").is_file() or not SCHEMA.is_file():
        return fail(f"no shiftcert source tree at {ROOT}; run from a full checkout")
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})  # inherited by every child
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads
    import shiftcert

    if Path(shiftcert.__file__).resolve().parent != (SRC / "shiftcert").resolve():
        return fail(f"imported shiftcert from {shiftcert.__file__}, not from {SRC}")
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")

    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # still clean up
    reference = None
    try:
        runner = Runner(args.workload, args.seed, workdir)
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
        else:
            reference = Reference()
            measure_setup(1)  # untimed: fills the bytecode caches
            setup, ref_setup = measure_setup(SETUP_REPS_EACH_SIDE, reference)
        runner.warm_up(args.workload, reference)
        m = measure(runner, args.seconds, workloads.MIN_ROUNDS[args.workload], tracer, reference)
        if not args.trace:
            more, more_ref = measure_setup(SETUP_REPS_EACH_SIDE, reference)
            setup += more
            ref_setup += more_ref
        schema_failed, norm_err = runner.post_checks()
    finally:
        if reference is not None:
            reference.close()
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    failed = m["failed"] = m["attempted"] - m["ok"] + schema_failed
    m["tail_count"] = len(runner.ops) * workloads.MIN_ROUNDS[args.workload]
    for line in runner.failures[:10]:
        sys.stderr.write(f"FAILED {line}\n")

    if args.trace:
        metrics = per_layer(len(runner.ops), m, tracer, norm_err)
        tail_p = tail_percentile([t for x in m["latencies"] for t in x], m["tail_count"])[0]
        summary = {"workload": args.workload, "mode": "traced"}
    else:
        metrics, raw, named, tail_p = end_to_end(m, setup, ref_setup, norm_err, args.workload)
        summary = {
            "workload": args.workload,
            "mode": "untraced",
            "raw": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
            "end_to_end": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        }
    summary["env"] = environment(args.seed, tail_p, len(runner.ops), m["rounds"])
    print(json.dumps(summary, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": m["attempted"],
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
