"""Spans around calls into shiftcert's layers, recorded from outside.

The tracer never edits the package. It replaces a public name in the
namespace of the module that calls it (``shiftcert.classifier.sign_on_ray``
is the name ``classify`` resolves, so that is the one wrapped) for the
duration of a ``with tracer.active():`` block, and restores every original
on exit. Outside that block the package runs untouched.

A span is (id, parent id, name, start, end). Spans nest on a stack, so a
layer's self time is its duration minus the durations of its direct
children. Counters sit at the same boundaries.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

# Caller module -> public names it binds, as "defining_module.name".
BINDINGS: dict[str, tuple[str, ...]] = {
    "cli": (
        "specfile.load_spec",
        "weights.validate",
        "classifier.classify",
        "classifier.replay",
        "oracle.default_tolerance",
        "oracle.truncation_report",
        "oracle.concordance",
        "cli.build_report",
        "cli.render_json",
        "cli.render_text",
    ),
    "classifier": (
        "weights.validate",
        "polycert.sign_on_ray",
        "polycert.ray_root_free_cutoff",
        "shiftcalc.commutator_diagonal",
        "shiftcalc.transformed_weights",
        "shiftcalc.bounded_on_left_ray",
        "classifier.check_hyponormal",
        "classifier.classify",
    ),
    "weights": ("polycert.sign_on_ray", "polycert.sup_on_ray"),
    "shiftcalc": ("polycert.ray_root_free_cutoff",),
    "polycert": ("polycert.ray_root_free_cutoff",),
    "oracle": (
        "weights.validate",
        "shiftcalc.commutator_diagonal",
        "shiftcalc.transformed_weights",
        "oracle.build_truncation",
        "oracle.commutator",
        "oracle.mask_truncation_edge",
        "oracle.psd_root",
        "oracle.pinv_root",
        "oracle.transformed_shift",
        "oracle.invariance_violations",
        "oracle.largest_singular_value",
        "oracle.norm_sweep",
    ),
}

# Span names whose output is a renderer, folded into one "cli.render" layer.
RENDER = {"cli.render_json": "cli.render", "cli.render_text": "cli.render"}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0


@dataclass
class Counters:
    exact_evals: int = 0
    cutoff_calls: int = 0
    cutoff_max: int = 0
    validate_calls: int = 0
    validate_rejects: int = 0
    truncations_built: int = 0
    dense_bytes: int = 0  # nbytes of dense matrices the oracle returns
    matmul_flops: int = 0  # 2*m*n*k per dense product, from the dims
    null_indices_probed: int = 0


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    counters: Counters = field(default_factory=Counters)
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, qualified: str, fn):
        name = RENDER.get(qualified, qualified)
        tracer = self

        def traced(*args, **kwargs):
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer._count(qualified, args, result)
            return result

        return traced

    def _count(self, qualified: str, args, result) -> None:
        c = self.counters
        if qualified == "polycert.ray_root_free_cutoff":
            c.cutoff_calls += 1
            c.cutoff_max = max(c.cutoff_max, result)
        elif qualified == "weights.validate":
            c.validate_calls += 1
            c.validate_rejects += not result.ok
        elif qualified == "oracle.build_truncation":
            c.truncations_built += 1
            c.dense_bytes += result.matrix.nbytes
        elif qualified in ("oracle.commutator", "oracle.transformed_shift"):
            dim = result.shape[0]
            c.matmul_flops += 2 * 2 * dim**3  # two dense dim x dim products
            c.dense_bytes += result.nbytes
        elif qualified in ("oracle.mask_truncation_edge", "oracle.psd_root", "oracle.pinv_root"):
            c.dense_bytes += result.nbytes
        elif qualified == "oracle.invariance_violations":
            t, q, tol = args[:3]
            rows = [t.row_of(n) for n in t.interior()]
            probed = int(np.count_nonzero(np.abs(np.diagonal(q)[rows]) <= tol))
            c.null_indices_probed += probed
            c.matmul_flops += probed * 2 * q.shape[0] ** 2  # one matvec each

    @contextlib.contextmanager
    def active(self):
        """Install every wrapper, plus the exact-evaluation counter."""
        from shiftcert.polycert import Polynomial

        saved = []
        for caller, names in BINDINGS.items():
            module = importlib.import_module(f"shiftcert.{caller}")
            for qualified in names:
                attr = qualified.split(".", 1)[1]
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(qualified, original))
        evaluate = Polynomial.__call__
        counters = self.counters

        def counted(poly, x):
            counters.exact_evals += 1
            return evaluate(poly, x)

        Polynomial.__call__ = counted
        try:
            yield
        finally:
            Polynomial.__call__ = evaluate
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Per span: duration minus the durations of its direct children."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.end - s.start
    return own


def aggregate(spans: list[Span]) -> dict[str, dict[str, float]]:
    """name -> {"calls", "total_s" (inclusive), "self_s"}."""
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for span, own in zip(spans, self_times(spans)):
        entry = out[span.name]
        entry["calls"] += 1
        entry["total_s"] += span.end - span.start
        entry["self_s"] += own
    return dict(out)
