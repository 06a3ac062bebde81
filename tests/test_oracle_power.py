"""A wrong class makes the oracle disagree (ROADMAP item 26).

Over the small scope (conftest's ``small_scope_spec``), each spec that
classifies gets one truncation report at half width 30; its verdict is then
relabelled with every other class, and wherever the interior is sufficient
``concordance`` must read ``disagrees``. The one relabelling allowed to
agree is a normal spec labelled near subnormal: a normal operator is
subnormal, so its truncation shows neither a PSD failure nor an invariance
violation (README's oracle paragraph).

The suite checks every 101st spec. To check the whole scope, run

    PYTHONPATH=src python tests/test_oracle_power.py
"""

from __future__ import annotations

import sys

from shiftcert import classify
from shiftcert.classifier import InvalidSpec, VerdictClass
from shiftcert.oracle import concordance, truncation_report

from conftest import SMALL_SCOPE_SIZE, small_scope_spec

HALF_WIDTH = 30
STRIDE = 101
# A true class and a label the oracle cannot tell from it.
OVERLAP = (VerdictClass.NORMAL, VerdictClass.NEAR_SUBNORMAL)


def relabellings_that_agree(i: int) -> tuple[bool, list[str]]:
    """Whether spec i classifies, and each wrong label that agrees with
    its truncation where the interior is sufficient, as "i: class as
    label"."""
    spec = small_scope_spec(i)
    try:
        verdict = classify(spec)
    except InvalidSpec:
        return False, []
    report = truncation_report(spec, verdict, HALF_WIDTH)
    if report.insufficient_interior:
        return True, []
    agreed = []
    for label in VerdictClass:
        if label is verdict.klass or (verdict.klass, label) == OVERLAP:
            continue
        agreement, _notes = concordance(verdict._replace(klass=label), report)
        if agreement != "disagrees":
            agreed.append(f"{i}: {verdict.klass.value} as {label.value} {agreement}")
    return True, agreed


def check(indices: range) -> tuple[int, list[str]]:
    """The number of specs that classify, and every wrong label that agrees."""
    classified, agreed = 0, []
    for i in indices:
        ok, wrong = relabellings_that_agree(i)
        classified += ok
        agreed += wrong
    return classified, agreed


def test_every_wrong_label_disagrees_on_a_stride():
    classified, agreed = check(range(0, SMALL_SCOPE_SIZE, STRIDE))
    assert classified > 900
    assert not agreed, "\n".join(agreed)


def main() -> int:
    classified, agreed = check(range(SMALL_SCOPE_SIZE))
    print("\n".join(agreed))
    print(f"{classified} specs classified; {len(agreed)} wrong labels agree")
    return 1 if agreed else 0


if __name__ == "__main__":
    sys.exit(main())
