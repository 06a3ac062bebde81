"""The benchmark's tracer wraps names where shiftcert's modules bind them.

``perfbench/spans.py`` lists, per calling module, the public names it
replaces during a traced run. A refactor that drops one of those imports
would make ``--trace 1`` fail at start-up, so every listed name must still
resolve in its caller, to the object its defining module exports.

The tracer and the benchmark's norm check also read the oracle's results as
dense 2-D arrays (``Truncation.matrix.nbytes``, ``.shape``, ``.nbytes``,
``np.diagonal``, ``np.count_nonzero``), so one traced oracle call must
still count its truncations and yield an exact norm to compare against.
"""

from __future__ import annotations

import contextlib
import importlib
import importlib.util
import io
import json
import sys
from pathlib import Path

from shiftcert.cli import main
from shiftcert.fixtures import example_one, example_two
from shiftcert.oracle import build_truncation
from shiftcert.shiftcalc import commutator_diagonal, transformed_weights
from shiftcert.specfile import dump_spec
from shiftcert.weights import RationalTail

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    """Load perfbench/<name>.py by path, without putting perfbench on sys.path."""
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve their module by name
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def test_every_binding_resolves_in_its_caller():
    bindings = _load("spans").BINDINGS
    assert bindings
    for caller, names in bindings.items():
        module = importlib.import_module(f"shiftcert.{caller}")
        for qualified in names:
            defining, attr = qualified.split(".", 1)
            assert hasattr(module, attr), f"shiftcert.{caller} no longer binds {attr}"
            source = importlib.import_module(f"shiftcert.{defining}")
            assert getattr(module, attr) is getattr(source, attr), qualified


def test_traced_oracle_call_keeps_the_dense_result_contract(tmp_path):
    tracer = _load("spans").Tracer()
    path = tmp_path / "ex1.json"
    dump_spec(example_one(), path)
    out = io.StringIO()
    argv = ["oracle", str(path), "--max-dim", "61", "--sweep", "8,16", "--format", "json"]
    with tracer.active(), contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0
    assert tracer.counters.truncations_built == 2  # the report's plus one for the sweep
    err = _load("run").norm_rel_err(path, json.loads(out.getvalue())["oracle"])
    assert isinstance(err, float)
    assert err < 1e-6


def test_traced_exact_evaluations_seed_each_long_tail_range(tmp_path, requested_indices):
    """``polycert.exact_evals`` counts calls of ``Polynomial.__call__``: a
    long rational-tail range is evaluated by running sums seeded by Horner
    at deg + 1 indices per polynomial, whatever its length. Every index
    that lies on a rational tail is still requested once."""
    spec = example_two()  # rational tails on both sides, each range long
    half_width = 30
    tails = (spec.left_tail, spec.right_tail)
    horner = sum(len(tail.fn.num.ints) + len(tail.fn.den.ints) for tail in tails)

    def rational_indices(start: int, stop: int) -> int:
        return sum(
            isinstance(spec.left_tail if n < spec.window_start else spec.right_tail, RationalTail)
            for n in range(start, stop)
            if not spec.window_start <= n <= spec.window_end
        )

    spans = _load("spans")
    tracer = spans.Tracer()
    with tracer.active():
        build_truncation(spec, half_width, 1e-9)
    assert tracer.counters.exact_evals == horner
    assert requested_indices.count == rational_indices(-half_width, half_width)

    tw = transformed_weights(spec, commutator_diagonal(spec))
    tracer = spans.Tracer()
    requested_indices.count = 0
    with tracer.active():
        tw.pairs_sq(-half_width, half_width)
    assert tracer.counters.exact_evals == horner
    # pairs_sq reads one modulus past each end of its range.
    assert requested_indices.count == rational_indices(-half_width - 1, half_width + 1)

    # Through the CLI: a wider truncation requests one pair per extra
    # rational-tail index, evaluated once for the matrix and read again by
    # the residuals, and adds no Horner evaluation.
    path = tmp_path / "ex2.json"
    dump_spec(spec, path)
    counts, requested = [], []
    for dim in (41, 241):
        tracer = spans.Tracer()
        requested_indices.count = 0
        with tracer.active(), contextlib.redirect_stdout(io.StringIO()):
            assert main(["oracle", str(path), "--max-dim", str(dim)]) == 0
        counts.append(tracer.counters.exact_evals)
        requested.append(requested_indices.count)
    assert counts[1] == counts[0]
    assert requested[1] - requested[0] == rational_indices(-120, 120) - rational_indices(-20, 20)
