"""
The exact oracle: discrete models, manifest tables, and classical identities
============================================================================

Everything the library claims is checked against full enumeration of small
structural causal models: no sampling, no tolerance wider than 1e-9.
"""

import numpy as np

from mcdmg import (
    Budget,
    Grounding,
    check_joint,
    enumerate_compatible,
    exact_tables,
    fixture_text,
    interventional_table,
    parse_graph,
    random_scm,
)
from mcdmg.oracle import check, scm_from_cpts

fig2b = parse_graph(fixture_text("fig2b"))
madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
scm = random_scm(madmg, seed=7)
joint, manifest = exact_tables(scm)
print("joint columns:   ", joint.variables)
print("manifest columns:", manifest.variables)
print("total mass:      ", joint.total(), manifest.total())

# The recovery formula reproduces the true joint cell by cell.
formula = check_joint(fig2b).formula
grounding = Grounding.from_scm(scm, abstract=fig2b)
atoms, errors = check(formula, scm, grounding)
print("max |formula - truth| =", max(errors.values()), "over", len(errors), "cells")

# Listwise deletion is exact under MCAR and biased under self-masking.
mask = parse_graph(
    'graph "mask" class=m-admg {\n  var X\n  rvar R_X for X\n  edge X -> R_X\n}\n'
)
selfmask = scm_from_cpts(
    mask,
    {
        "X": ((), np.array([0.5, 0.5])),
        "R_X": (("X",), np.array([[0.9, 0.1], [0.2, 0.8]])),
    },
)
j, m = exact_tables(selfmask)
listwise = m.prob({"X*": 1, "R_X": 0}) / m.prob({"R_X": 0})
print("\nself-masking: P(X=1) =", j.prob({"X": 1}), " listwise =", round(listwise, 4))

# Macro interventions must assign the whole cluster.
do = dict(zip(madmg.clustering.members("CX"), (1, 0)))
t = interventional_table(scm, do)
print("\nP(CY | do(CX=(1,0))) first cells:",
      [round(t.prob(dict(zip(madmg.clustering.members('CY'), v))), 4)
       for v in ((0, 0), (0, 1))])
