import itertools

import numpy as np
import pytest

from mcdmg import (
    Budget,
    Clustering,
    Grounding,
    enumerate_compatible,
    equal_manifest_pair,
    evaluate,
    evaluate_interventional,
    exact_tables,
    fixture_text,
    interventional_table,
    parse_graph,
    random_scm,
)
from mcdmg import check_joint, construct_witness, recover_effect
from mcdmg.errors import (
    DomainTooLarge,
    EvaluationError,
    PartialClusterAssignment,
    PositivityError,
)
from mcdmg.expressions import proxy, rzero, term, val
from mcdmg.oracle import check, evaluate_all, extended_table, free_atoms, scm_from_cpts


def mk(src):
    return parse_graph(src)


MCAR_SRC = (
    'graph "mcar" class=m-admg {\n'
    "  var X\n  var Y\n  rvar R_X for X\n  edge X -> Y\n}\n"
)
MAR_SRC = (
    'graph "mar" class=m-admg {\n'
    "  var Z\n  var X\n  rvar R_X for X\n  edge Z -> X\n  edge Z -> R_X\n}\n"
)
SELFMASK_SRC = (
    'graph "mask" class=m-admg {\n'
    "  var X\n  rvar R_X for X\n  edge X -> R_X\n}\n"
)


def test_random_scm_deterministic():
    g = mk(MCAR_SRC)
    a = random_scm(g, seed=11)
    b = random_scm(g, seed=11)
    for na, nb in zip(a.nodes, b.nodes):
        assert na.name == nb.name and np.array_equal(na.cpt, nb.cpt)
    c = random_scm(g, seed=12)
    assert any(not np.array_equal(x.cpt, y.cpt) for x, y in zip(a.nodes, c.nodes))


def test_cpt_rows_normalized():
    g = mk(MAR_SRC)
    scm = random_scm(g, seed=1)
    for node in scm.nodes:
        rows = node.cpt.reshape(-1, node.card)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert rows.min() >= 1e-3 - 1e-15


def test_domain_guard():
    names = "\n".join(f"  var V{i}" for i in range(25))
    g = mk(f'graph "big" class=admg {{\n{names}\n}}\n')
    with pytest.raises(DomainTooLarge):
        random_scm(g, seed=0)


def test_tables_conserve_mass():
    g = mk(MAR_SRC)
    scm = random_scm(g, seed=5)
    joint, manifest = exact_tables(scm)
    assert abs(joint.total() - 1.0) < 1e-12
    assert abs(manifest.total() - 1.0) < 1e-12
    # marginalization routes agree
    assert abs(manifest.marginal(("Z",)).probs.sum() - 1.0) < 1e-12


def test_eq1_determinism():
    g = mk(MAR_SRC)
    scm = random_scm(g, seed=5)
    ext = extended_table(scm)
    x = ext.axis("X")
    xs = ext.axis("X*")
    r = ext.axis("R_X")
    probs = ext.probs
    for ix in range(2):
        for ixs in range(3):
            for ir in range(2):
                idx = [slice(None)] * len(ext.variables)
                idx[x], idx[xs], idx[r] = ix, ixs, ir
                mass = probs[tuple(idx)].sum()
                if ir == 0 and ixs != ix:
                    assert mass == 0.0
                if ir == 1 and ixs != 2:
                    assert mass == 0.0


def test_mcar_identity():
    g = mk(MCAR_SRC)
    for seed in range(20):
        scm = random_scm(g, seed=seed)
        joint, manifest = exact_tables(scm)
        for x in range(2):
            for y in range(2):
                full = joint.prob({"X": x, "Y": y})
                cc = manifest.prob({"X*": x, "Y": y, "R_X": 0}) / manifest.prob(
                    {"R_X": 0}
                )
                assert abs(full - cc) <= 1e-9


def test_mar_identity():
    g = mk(MAR_SRC)
    for seed in range(20):
        scm = random_scm(g, seed=seed)
        joint, manifest = exact_tables(scm)
        for z in range(2):
            for x in range(2):
                want = joint.prob({"X": x, "Z": z}) / joint.prob({"Z": z})
                got = manifest.prob({"X*": x, "Z": z, "R_X": 0}) / manifest.prob(
                    {"Z": z, "R_X": 0}
                )
                assert abs(want - got) <= 1e-9


def self_masking_scm():
    g = mk(SELFMASK_SRC)
    cpts = {
        "X": ((), np.array([0.5, 0.5])),
        "R_X": (("X",), np.array([[0.9, 0.1], [0.2, 0.8]])),
    }
    return g, scm_from_cpts(g, cpts)


def test_self_masking_bias():
    g, scm = self_masking_scm()
    joint, manifest = exact_tables(scm)
    listwise = manifest.prob({"X*": 1, "R_X": 0}) / manifest.prob({"R_X": 0})
    truth = joint.prob({"X": 1})
    assert abs(listwise - truth) >= 1e-2


def test_interventional_no_edges():
    g = mk('graph "two" class=admg {\n  var A\n  var B\n}\n')
    scm = random_scm(g, seed=2)
    t = interventional_table(scm, {"A": 1})
    joint, _ = exact_tables(scm)
    for b in range(2):
        assert abs(t.prob({"B": b}) - joint.prob({"B": b})) < 1e-12


def test_interventional_chain_matches_conditional():
    g = mk('graph "chain" class=admg {\n  var X\n  var Y\n  edge X -> Y\n}\n')
    scm = random_scm(g, seed=3)
    joint, _ = exact_tables(scm)
    t = interventional_table(scm, {"X": 1})
    for y in range(2):
        cond = joint.prob({"X": 1, "Y": y}) / joint.prob({"X": 1})
        assert abs(t.prob({"Y": y}) - cond) < 1e-12


def test_partial_cluster_assignment(fig2b):
    madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
    scm = random_scm(madmg, seed=0)
    members = madmg.clustering.members("CX")
    with pytest.raises(PartialClusterAssignment):
        interventional_table(scm, {members[0]: 1})


def test_evaluate_marginal():
    g = mk('graph "one" class=admg {\n  var A\n}\n')
    scm = random_scm(g, seed=9)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, Clustering.from_dict({"CA": ["A"]}))
    p = evaluate(term([val("CA")]), manifest, gr, {val("CA"): (1,)})
    joint, _ = exact_tables(scm)
    assert abs(p - joint.prob({"A": 1})) < 1e-12


def test_evaluate_rejects_masked_true_symbol(fig2b):
    madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
    scm = random_scm(madmg, seed=0)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, abstract=fig2b)
    with pytest.raises(EvaluationError):
        evaluate(term([val("CX")]), manifest, gr, {val("CX"): (0, 0)})


def test_evaluate_rejects_do_terms(fig2b):
    madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
    scm = random_scm(madmg, seed=0)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, abstract=fig2b)
    e = term([val("CZ")], do=[val("CX")])
    with pytest.raises(EvaluationError):
        evaluate(e, manifest, gr, {val("CZ"): (0, 0), val("CX"): (0, 0)})


def test_positivity_error():
    g = mk('graph "z" class=admg {\n  var A\n  var B\n}\n')
    cpts = {
        "A": ((), np.array([1.0, 0.0])),
        "B": ((), np.array([0.5, 0.5])),
    }
    scm = scm_from_cpts(g, cpts)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, Clustering.from_dict({"CA": ["A"], "CB": ["B"]}))
    with pytest.raises(PositivityError):
        evaluate(
            term([val("CB")], cond=[val("CA")]),
            manifest,
            gr,
            {val("CB"): (0,), val("CA"): (1,)},
        )


def test_theorem_formula_on_mcar_manifest():
    src = (
        'graph "m1" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n  cluster CY { vars Y1 }\n"
        "  rvar R_CX for CX\n  edge CX -> CY\n"
        "}\n"
    )
    abstract = mk(src)
    verdict = check_joint(abstract)
    assert verdict.recoverable
    for madmg in itertools.islice(enumerate_compatible(abstract, budget=Budget(1, 4)), 3):
        for seed in range(10):
            scm = random_scm(madmg, seed=seed)
            _, errors = check(verdict.formula, scm, Grounding.from_scm(scm, abstract=abstract))
            assert errors and max(errors.values()) <= 1e-9


def test_fig3_effect_formula_equals_interventional(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    witness = construct_witness(fig3, check_joint(fig3).violations[0])
    scm = random_scm(witness, seed=4)
    gr = Grounding.from_scm(scm, abstract=fig3)
    atoms, errors = check(d.result, scm, gr, effect=("CX", "CY"))
    assert atoms == (proxy("CY"), val("CX"))
    assert errors and max(errors.values()) <= 1e-9


def test_interventional_evaluator_matches_tables(fig3):
    witness = construct_witness(fig3, check_joint(fig3).violations[0])
    scm = random_scm(witness, seed=8)
    gr = Grounding.from_scm(scm, abstract=fig3)
    e = term([val("CY")], do=[val("CX")])
    env = {val("CY"): (1, 0), val("CX"): (0, 1)}
    got = evaluate_interventional(e, scm, gr, env)
    t = interventional_table(scm, dict(zip(gr.members("CX"), (0, 1))), gr.clustering)
    want = t.prob(dict(zip(gr.members("CY"), (1, 0))))
    assert abs(got - want) < 1e-12


def test_equal_manifest_pair(fig3):
    witness = construct_witness(fig3, check_joint(fig3).violations[0])
    s1, s2 = equal_manifest_pair(witness, seed=0)
    j1, m1 = exact_tables(s1)
    j2, m2 = exact_tables(s2)
    assert float(np.max(np.abs(m1.probs - m2.probs))) <= 1e-9
    assert float(np.max(np.abs(j1.probs - j2.probs))) >= 1e-2
    # strict positivity over complete cases (R=0, proxies at non-NA levels)
    for m, scm in ((m1, s1), (m2, s2)):
        proxies = {scm.proxy_name(v): scm.card(v) for v in scm.variables if scm.masked(v)}
        idx = []
        for name, card in zip(m.variables, m.cards):
            if name in scm.indicators:
                idx.append(0)
            elif name in proxies:
                idx.append(slice(0, proxies[name]))
            else:
                idx.append(slice(None))
        assert float(m.probs[tuple(idx)].min()) > 0.0


def test_example2_formula_matches_interventional(fig2b):
    d = recover_effect(fig2b, {"CX"}, {"CY"})
    for madmg in itertools.islice(enumerate_compatible(fig2b, budget=Budget(2, 9)), 3):
        for seed in range(5):
            scm = random_scm(madmg, seed=seed)
            gr = Grounding.from_scm(scm, abstract=fig2b)
            atoms, errors = check(d.result, scm, gr, effect=("CX", "CY"))
            assert atoms == (proxy("CX"), proxy("CY"))
            assert errors and max(errors.values()) <= 1e-9


@pytest.mark.parametrize(
    "edge",
    ["edge CX -> R_CX", "edge CX <-> R_CX"],
    ids=["direct-selfmask", "latent-selfmask"],
)
def test_equal_manifest_pair_selfmask_motifs(edge):
    src = (
        'graph "adj" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n"
        "  cluster CW { vars W1 }\n"
        "  rvar R_CX for CX\n"
        "  edge CX -> CW\n"
        f"  {edge}\n"
        "}\n"
    )
    g = parse_graph(src)
    verdict = check_joint(g)
    assert not verdict.recoverable
    witness = construct_witness(g, verdict.violations[0])
    s1, s2 = equal_manifest_pair(witness, seed=0)
    j1, m1 = exact_tables(s1)
    j2, m2 = exact_tables(s2)
    assert float(np.max(np.abs(m1.probs - m2.probs))) <= 1e-9
    assert float(np.max(np.abs(j1.probs - j2.probs))) >= 1e-2


# Wrong formulas: the complete-case joint on fig2b (R_CX, R_CY depend on CZ),
# fig3's CX -> CY effect read off without adjusting for the confounder CZ, and
# one that ignores the treatment altogether.
COMPLETE_CASE = term([proxy("CX"), proxy("CY"), val("CZ")], cond=[rzero("R_CX"), rzero("R_CY")])
UNADJUSTED = term([proxy("CY")], cond=[val("CX"), rzero("R_CY")])
NO_TREATMENT = term([proxy("CY")], cond=[rzero("R_CY")])


def _hand_errors(expr, scm, grounding, treatment=None):
    """``check`` written out cell by cell, indexing the dense truth table."""
    joint, manifest = exact_tables(scm)
    atoms, cells = evaluate_all(expr, manifest, grounding)
    out = {}
    for env_vals, got in cells.items():
        env = dict(zip(atoms, env_vals))
        given = [v for a, v in env.items() if a.ref == treatment]
        for tv in given or (grounding.domain(treatment) if treatment else [None]):
            if treatment:
                do = dict(zip(grounding.members(treatment), tv))
                table = interventional_table(scm, do, grounding.clustering)
            else:
                table = joint
            index = [slice(None)] * len(table.variables)
            for a, vals in env.items():
                if a.ref != treatment:
                    for var, value in zip(grounding.members(a.ref), vals):
                        index[table.variables.index(var)] = value
            key = env_vals if given or not treatment else env_vals + (tv,)
            out[key] = abs(got - float(table.probs[tuple(index)].sum()))
    return out


@pytest.mark.parametrize(
    "name, expr, effect",
    [
        ("fig2b", COMPLETE_CASE, None),
        ("fig3", UNADJUSTED, ("CX", "CY")),
        ("fig3", NO_TREATMENT, ("CX", "CY")),
    ],
    ids=["joint", "effect", "effect-treatment-unmentioned"],
)
def test_check_matches_hand_computation(name, expr, effect):
    g = parse_graph(fixture_text(name))
    madmg = next(iter(enumerate_compatible(g, budget=Budget(2, 10))))
    scm = random_scm(madmg, seed=3)
    gr = Grounding.from_scm(scm, abstract=g)
    atoms, errors = check(expr, scm, gr, effect)
    want = _hand_errors(expr, scm, gr, effect and effect[0])
    assert {a.ref for a in atoms} == {a.ref for a in free_atoms(expr)} | set(effect or ())
    assert errors.keys() == want.keys() and len(errors) > 1
    assert max(want.values()) > 1e-3  # the comparison is not between zeros
    for key, err in want.items():
        assert errors[key] == pytest.approx(err, abs=1e-12)


@pytest.mark.parametrize(
    "name, expr, effect",
    [("fig2b", COMPLETE_CASE, None), ("fig3", UNADJUSTED, ("CX", "CY"))],
    ids=["complete-case-joint", "unadjusted-effect"],
)
def test_check_flags_wrong_formulas(name, expr, effect):
    g = parse_graph(fixture_text(name))
    for madmg in itertools.islice(enumerate_compatible(g, budget=Budget(2, 10)), 5):
        for seed in range(3):
            scm = random_scm(madmg, seed=seed)
            _, errors = check(expr, scm, Grounding.from_scm(scm, abstract=g), effect)
            assert max(errors.values()) > 1e-3
