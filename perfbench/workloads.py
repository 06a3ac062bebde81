"""Seeded workload generation: spec files plus the outcome each must reach.

Every workload is a fixed list of operations (a *round*) built from the
seed alone. The runner repeats the round, so the mix a run measures does
not depend on how many operations fit in the measured time. The seed
moves the inputs (coefficients, K values, levels, order) without changing
their cost profile, so runs with different seeds measure the same work.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from shiftcert import ConstantTail, RationalFunction, RationalTail, WeightSpec
from shiftcert.fixtures import example_one, example_two, flat_pair, two_level
from shiftcert.shiftcalc import commutator_diagonal, sup_sq_global, transformed_weights
from shiftcert.specfile import spec_to_dict

NEAR = "near-subnormal"
HNNS = "hyponormal-not-near-subnormal"
NOT_HYPO = "not-hyponormal"
NORMAL = "normal"

ORACLE_BOUNDED_ARGS = ("--max-dim", "1001", "--sweep", "125,250,500")
ORACLE_OBSTRUCTED_ARGS = ("--max-dim", "1001")

CORPUS_PER_FAMILY = 36
CORPUS_INVALID = 24  # one in ten of the pool
OBSTRUCTED_SEEDED = 3  # seeded two-level and flat-pair specs each, per round
FAR_ROOTS_LADDER = 6  # K steps per round, log-spaced over [K_MIN, K_MAX]
K_MIN, K_MAX = 100, 5000
ISOLATION_REACH = 40  # indices either side of the window searched for a rival top

# Rounds a run repeats at least, so every input has repeats.
MIN_ROUNDS = {"corpus": 2, "far-roots": 3, "oracle-bounded": 3, "oracle-obstructed": 5}


@dataclass(frozen=True)
class Expect:
    """What a correct CLI call returns for one spec.

    ``klass``/``criterion`` are the verdict the family promises; for an
    invalid spec ``klass`` is None and ``violation`` is a substring the
    named validation error must contain (exit code 2).
    """

    klass: str | None
    criterion: str | None = None
    violation: str | None = None


@dataclass(frozen=True)
class Op:
    """One CLI call of the round: argv after the spec path, and its check."""

    name: str
    command: str  # "classify" | "oracle"
    spec: dict
    expect: Expect
    extra_args: tuple[str, ...] = ()

    def argv(self, path: Path) -> list[str]:
        return [self.command, str(path), *self.extra_args, "--format", "json"]


def _frac(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(1, 6), rng.randint(1, 6))


def _rising_left_tail(rng: random.Random, start: int) -> RationalTail:
    """c + b/(s - n), s >= start: positive and strictly increasing on n < start."""
    c = _frac(rng) + Fraction(1, 2)
    b = _frac(rng)
    s = start + rng.randint(0, 3)
    # c + b/(s - n) = (c*s - c*n + b) / (s - n); store with monic denominator.
    return RationalTail(RationalFunction.of([-(c * s + b), c], [-s, 1]))


def _rising_right_tail(rng: random.Random, end: int, floor: Fraction) -> RationalTail:
    """c - b/(n - s), s <= end: strictly increasing on n > end, above floor."""
    b = _frac(rng)
    s = end - rng.randint(0, 3)
    c = floor + b / (end + 1 - s) + _frac(rng)
    return RationalTail(RationalFunction.of([-(c * s) - b, c], [-s, 1]))


def _ascending(rng: random.Random, base: Fraction, length: int) -> tuple[Fraction, ...]:
    values, current = [], base
    for _ in range(length):
        current += _frac(rng)
        values.append(current)
    return tuple(values)


def strict_spec(rng: random.Random) -> WeightSpec:
    start = rng.randint(-3, 3)
    left = _rising_left_tail(rng, start)
    window = _ascending(rng, left.fn(start - 1), rng.randint(1, 5))
    right = _rising_right_tail(rng, start + len(window) - 1, window[-1])
    return WeightSpec(start, window, left, right)


def flat_tail_spec(rng: random.Random) -> WeightSpec:
    start = rng.randint(-3, 3)
    left = _rising_left_tail(rng, start)
    rising = _ascending(rng, left.fn(start - 1), rng.randint(1, 3))
    window = rising + (rising[-1],) * rng.randint(0, 2)
    return WeightSpec(start, window, left, ConstantTail(window[-1]))


def flat_pair_spec(rng: random.Random, constant_right: bool | None = None) -> WeightSpec:
    start = rng.randint(-3, 3)
    left = _rising_left_tail(rng, start)
    rising = _ascending(rng, left.fn(start - 1), rng.randint(1, 2))
    top = rising[-1] + _frac(rng)
    window = rising + (rising[-1], top)
    if constant_right is None:
        constant_right = rng.random() < 0.5
    if constant_right:
        right = ConstantTail(top)
    else:
        right = _rising_right_tail(rng, start + len(window) - 1, top)
    return WeightSpec(start, window, left, right)


def two_level_spec(rng: random.Random) -> WeightSpec:
    low = _frac(rng)
    high = low + _frac(rng)
    window = (low,) * rng.randint(1, 3) + (high,) * rng.randint(0, 2)
    return WeightSpec(rng.randint(-3, 3), window, ConstantTail(low), ConstantTail(high))


def normal_spec(rng: random.Random) -> WeightSpec:
    c = _frac(rng)
    window = (c,) * rng.randint(1, 5)
    return WeightSpec(rng.randint(-3, 3), window, ConstantTail(c), ConstantTail(c))


def not_hyponormal_spec(rng: random.Random) -> WeightSpec:
    spec = strict_spec(rng)
    drop = spec.window_values[0] / (1 + _frac(rng))
    return WeightSpec(
        spec.window_start,
        spec.window_values[:4] + (drop,),
        spec.left_tail,
        spec.right_tail,
    )


FAMILIES = {
    "strict": (strict_spec, Expect(NEAR, "strict-increase-bounded-transform")),
    "flat-tail": (flat_tail_spec, Expect(NEAR, "flat-right-tail")),
    "flat-pair": (flat_pair_spec, Expect(HNNS, "isolated-flat-pair")),
    "two-level": (two_level_spec, Expect(HNNS, "constant-left-tail")),
    "normal": (normal_spec, Expect(NORMAL, None)),
    "not-hyponormal": (not_hyponormal_spec, Expect(NOT_HYPO, None)),
}


def _invalid_spec(rng: random.Random, kind: str) -> tuple[dict, Expect]:
    """A spec that must exit 2 with the named validation error."""
    spec = strict_spec(rng)
    body = spec_to_dict(spec)
    if kind == "zero-weight":
        i = rng.randrange(len(spec.window_values))
        body["window_values"][i] = "0"
        return body, Expect(None, violation=f"zero weight at n = {spec.window_start + i}")
    if kind == "tail-pole":
        pole = spec.window_start - 1 - rng.randint(0, 5)
        body["left_tail"] = {"kind": "rational", "num": [str(rng.randint(1, 6))], "den": [str(-pole), "1"]}
        return body, Expect(None, violation=f"left tail denominator vanishes at n = {pole}")
    body["right_tail"] = {
        "kind": "rational",
        "num": [str(rng.randint(1, 6)), "0", str(rng.randint(1, 6))],
        "den": ["0", "1"],
    }
    return body, Expect(None, violation="right tail deg(num) > deg(den)")


INVALID_KINDS = ("zero-weight", "tail-pole", "unbounded-tail")


def corpus_round(rng: random.Random) -> list[Op]:
    ops = []
    for family, (make, expect) in FAMILIES.items():
        for i in range(CORPUS_PER_FAMILY):
            ops.append(Op(f"{family}-{i}", "classify", spec_to_dict(make(rng)), expect))
    for i in range(CORPUS_INVALID):
        kind = INVALID_KINDS[i % len(INVALID_KINDS)]
        body, expect = _invalid_spec(rng, kind)
        ops.append(Op(f"{kind}-{i}", "classify", body, expect))
    rng.shuffle(ops)
    return ops


def far_roots_spec(k: int, mirrored: bool) -> WeightSpec:
    """ex2 with K/n^2 added to its right tail, or the left-hand mirror."""
    if not mirrored:
        return WeightSpec(
            window_start=0,
            window_values=(Fraction(2, 3),),
            left_tail=RationalTail(RationalFunction.of([-1], [-1, 1])),
            right_tail=RationalTail(RationalFunction.of([k, -1, 2], [0, 0, 1])),
        )
    return WeightSpec(
        window_start=0,
        window_values=(Fraction(3),),
        left_tail=RationalTail(RationalFunction.of([k, 1, 2], [0, 0, 1])),
        right_tail=ConstantTail(Fraction(3)),
    )


def far_roots_round(rng: random.Random) -> list[Op]:
    """One log-spaced K ladder, alternate steps mirrored; the seed jitters
    each step by under 5% of the step ratio and shuffles the order."""
    span = FAR_ROOTS_LADDER - 1 + 0.05
    ops = []
    for i in range(FAR_ROOTS_LADDER):
        u = (i + 0.05 * rng.random()) / span
        k = round(K_MIN * (K_MAX / K_MIN) ** u)
        mirrored = i % 2 == 1
        spec = far_roots_spec(k, mirrored)
        ops.append(
            Op(f"K{k}{'-mirror' if mirrored else ''}", "classify", spec_to_dict(spec), Expect(NOT_HYPO, None))
        )
    rng.shuffle(ops)
    return ops


def isolated_top_strict_spec(rng: random.Random) -> WeightSpec:
    """A strict-increase spec whose largest transformed weight is isolated:
    at least twice every other g_n^2 and both tail limits.

    The oracle's norm iteration converges fast on an isolated top and
    slowly on a clustered one (top reached only in the limit), a factor of
    ten in cost. ex2 carries the clustered case in every round; drawing the
    seeded specs from one side keeps the round's cost independent of the
    seed.
    """
    while True:
        spec = strict_spec(rng)
        tw = transformed_weights(spec, commutator_diagonal(spec))
        lo, hi = spec.window_start - ISOLATION_REACH, spec.window_end + ISOLATION_REACH
        values = sorted(
            [tw.value_sq(n) for n in range(lo, hi + 1)]
            + [tw.left_limit_sq.value, tw.right_limit_sq.value]
        )
        if values[-1] >= 2 * values[-2] and values[-1] == sup_sq_global(tw):
            return spec


def oracle_bounded_round(rng: random.Random) -> list[Op]:
    expect_flat = Expect(NEAR, "flat-right-tail")
    expect_strict = Expect(NEAR, "strict-increase-bounded-transform")
    ops = [
        Op("ex1", "oracle", spec_to_dict(example_one()), expect_flat, ORACLE_BOUNDED_ARGS),
        Op("ex2", "oracle", spec_to_dict(example_two()), expect_strict, ORACLE_BOUNDED_ARGS),
    ]
    for i in range(3):
        spec = isolated_top_strict_spec(rng)
        ops.append(Op(f"strict-{i}", "oracle", spec_to_dict(spec), expect_strict, ORACLE_BOUNDED_ARGS))
    rng.shuffle(ops)
    return ops


def oracle_obstructed_round(rng: random.Random) -> list[Op]:
    low = _frac(rng)
    high = low + _frac(rng)
    expect_left = Expect(HNNS, "constant-left-tail")
    expect_pair = Expect(HNNS, "isolated-flat-pair")
    ops = [
        Op("ex3", "oracle", spec_to_dict(two_level(low, high)), expect_left, ORACLE_OBSTRUCTED_ARGS),
        Op("flatpair", "oracle", spec_to_dict(flat_pair()), expect_pair, ORACLE_OBSTRUCTED_ARGS),
    ]
    for i in range(OBSTRUCTED_SEEDED):
        ops.append(Op(f"two-level-{i}", "oracle", spec_to_dict(two_level_spec(rng)), expect_left, ORACLE_OBSTRUCTED_ARGS))
        spec = flat_pair_spec(rng, constant_right=True)
        ops.append(Op(f"flat-pair-{i}", "oracle", spec_to_dict(spec), expect_pair, ORACLE_OBSTRUCTED_ARGS))
    rng.shuffle(ops)
    return ops


ROUNDS = {
    "corpus": corpus_round,
    "far-roots": far_roots_round,
    "oracle-bounded": oracle_bounded_round,
    "oracle-obstructed": oracle_obstructed_round,
}


WORKLOADS = tuple(ROUNDS)


def build_round(workload: str, seed: int) -> list[Op]:
    return ROUNDS[workload](random.Random(f"{workload}:{seed}"))


def write_round(ops: list[Op], directory: Path) -> list[Path]:
    """Write each op's spec file; byte-stable for a given round."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, op in enumerate(ops):
        path = directory / f"{i:04d}-{op.name}.json"
        path.write_text(json.dumps(op.spec, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return paths
