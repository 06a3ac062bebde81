"""Built-in weight-sequence fixtures.

Four canonical shifts, one per corner of the decision surface:

* ``ex1``      -- moduli 1/|n| on the left, 2 from index 0 on: strict
  increase into a flat tail, near subnormal.
* ``ex2``      -- moduli rising through 2/3 toward 2 on the right, strictly
  increasing everywhere: near subnormal with transformed weights tending
  to 2.
* ``ex3``      -- two-level shift (1 up to index 0, 2 afterwards): constant
  left ray, hyponormal but not near subnormal.
* ``flatpair`` -- an isolated equal pair between strict increases:
  hyponormal but not near subnormal by the local obstruction.

ex3 and flatpair are answers to Hilbert space problem 160 (hyponormal
operators that are not subnormal).
"""

from __future__ import annotations

from fractions import Fraction

from .polycert import RationalFunction
from .weights import ConstantTail, RationalTail, WeightSpec

# Left-tail closed forms store the modulus: -1/n is |1/n| on n <= -1.
_MINUS_ONE_OVER_N = RationalFunction.of([-1], [0, 1])
_MINUS_ONE_OVER_N_MINUS_1 = RationalFunction.of([-1], [-1, 1])
_TWO_MINUS_ONE_OVER_N = RationalFunction.of([-1, 2], [0, 1])


def example_one() -> WeightSpec:
    """Moduli 1/|n| for n <= -1, then constant 2."""
    return WeightSpec(
        window_start=0,
        window_values=(Fraction(2),),
        left_tail=RationalTail(_MINUS_ONE_OVER_N),
        right_tail=ConstantTail(Fraction(2)),
    )


def example_two() -> WeightSpec:
    """Moduli 1/|n-1| for n <= -1, 2/3 at 0, then 2 - 1/n."""
    return WeightSpec(
        window_start=0,
        window_values=(Fraction(2, 3),),
        left_tail=RationalTail(_MINUS_ONE_OVER_N_MINUS_1),
        right_tail=RationalTail(_TWO_MINUS_ONE_OVER_N),
    )


def two_level(low: Fraction = Fraction(1), high: Fraction = Fraction(2)) -> WeightSpec:
    """Constant ``low`` through index 0, constant ``high`` from index 1."""
    if not 0 < low < high:
        raise ValueError("two-level shift needs 0 < low < high")
    return WeightSpec(
        window_start=0,
        window_values=(low,),
        left_tail=ConstantTail(low),
        right_tail=ConstantTail(high),
    )


def flat_pair() -> WeightSpec:
    """Moduli 1/|n| on the left, then 2, 2, 3, 3, ... (equal pair at 0-1)."""
    return WeightSpec(
        window_start=0,
        window_values=(Fraction(2), Fraction(2), Fraction(3)),
        left_tail=RationalTail(_MINUS_ONE_OVER_N),
        right_tail=ConstantTail(Fraction(3)),
    )


NOTE_NOT_SUBNORMAL = (
    "Known to be near subnormal; reported in the literature as not "
    "subnormal (subnormality testing is outside this tool's scope)."
)
NOTE_PROBLEM_160 = (
    "Hyponormal but not near subnormal: an answer to Hilbert space "
    "problem 160."
)
NOTE_MODULUS = (
    "Left-tail closed forms store the modulus of the underlying weights "
    "(-1/n is |1/n| on n <= -1)."
)

FIXTURES: dict[str, tuple] = {
    "ex1": (example_one, f"{NOTE_NOT_SUBNORMAL} {NOTE_MODULUS}"),
    "ex2": (example_two, f"{NOTE_NOT_SUBNORMAL} Left-tail closed form stores the modulus of the underlying weights."),
    "ex3": (two_level, NOTE_PROBLEM_160),
    "flatpair": (flat_pair, f"{NOTE_PROBLEM_160} {NOTE_MODULUS}"),
}
