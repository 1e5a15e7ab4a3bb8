"""
Joint-distribution recoverability and its closed-form formula
=============================================================

The graphical test looks for a partially observed cluster that is adjacent
to its own missingness vertex or joined to it by an all-collider path. When
it passes, the joint is a quotient of manifest quantities; when it fails,
two models witness the ambiguity.
"""

import numpy as np

from mcdmg import (
    check_joint,
    construct_witness,
    equal_manifest_pair,
    exact_tables,
    fixture_text,
    markov_blanket,
    parse_graph,
)
from mcdmg.expressions import render

fig2b = parse_graph(fixture_text("fig2b"))
verdict = check_joint(fig2b)
print("fig2b recoverable:", verdict.recoverable)
print("formula:", render(verdict.formula))
print("blanket of R_CY:", markov_blanket(fig2b, "R_CY"))

fig3 = parse_graph(fixture_text("fig3"))
verdict3 = check_joint(fig3)
print("\nfig3 recoverable:", verdict3.recoverable)
for v in verdict3.violations:
    print(f"violation: {v.cluster} [{v.reason}] via {v.witness.text()}")

# A variable-level witness realizes the violation and stays compatible.
witness = construct_witness(fig3, verdict3.violations[0])
print("\nwitness bidirected edges:", sorted(witness.bidirected))


def show_pair(witness):
    """Two parameterizations, identical manifests, different joints: nothing
    computable from observed data can tell them apart."""
    s1, s2 = equal_manifest_pair(witness, seed=0)
    j1, m1 = exact_tables(s1)
    j2, m2 = exact_tables(s2)
    print("max |manifest1 - manifest2| =", float(np.max(np.abs(m1.probs - m2.probs))))
    print("max |joint1    - joint2|    =", float(np.max(np.abs(j1.probs - j2.probs))))


show_pair(witness)

# Every edge between a variable and its indicator is realized by the same
# rule: here the indicator causes the variable (R_CX -> CX), so R_CX holds
# P(r) and CX reads R_CX.
inward = parse_graph(
    'graph "inward" class=cm-c-dmg {\n'
    "  cluster CX { vars X1 }\n"
    "  cluster CW { vars W1 }\n"
    "  rvar R_CX for CX\n"
    "  edge CX -> CW\n"
    "  edge R_CX -> CX\n"
    "}\n"
)
violation = check_joint(inward).violations[0]
print(f"\ninward violation: {violation.cluster} [{violation.reason}] via {violation.witness.text()}")
show_pair(construct_witness(inward, violation))
