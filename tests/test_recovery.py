import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mcdmg import (
    GraphClass,
    check_joint,
    construct_witness,
    enumerate_paths,
    is_compatible,
    markov_blanket,
    parse_graph,
)
from mcdmg.errors import PreconditionError, WrongGraphClass
from mcdmg.expressions import Product, Quotient, Term, proxy, render, rzero, terms_of, val
from mcdmg.graphs import as_cluster_graph
from mcdmg.recovery import _violations
from tests_support import indicator_out_text, random_cluster_text


def test_fig2b_recoverable(fig2b):
    v = check_joint(fig2b)
    assert v.recoverable and not v.violations and v.formula is not None


def test_fig3_not_recoverable(fig3):
    v = check_joint(fig3)
    assert not v.recoverable and v.formula is None
    assert len(v.violations) == 1
    viol = v.violations[0]
    assert viol.cluster == "CY" and viol.reason == "collider_path"
    assert viol.witness.text() == "CY <-> CZ <-> R_CY"


def test_neighbor_violation():
    src = (
        'graph "adj" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n"
        "  rvar R_CX for CX\n"
        "  edge CX -> R_CX\n"
        "}\n"
    )
    g = parse_graph(src)
    v = check_joint(g)
    assert not v.recoverable
    assert v.violations[0].reason == "neighbor"


def test_precondition_r_self_loop():
    src = (
        'graph "p" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n"
        "  rvar R_CX for CX\n"
        "  edge R_CX -> R_CX\n"
        "}\n"
    )
    g = parse_graph(src)  # legal syntax: the side condition is query-time
    with pytest.raises(PreconditionError):
        check_joint(g)


def test_precondition_r_r_edge():
    src = (
        'graph "p" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n"
        "  cluster CY { vars Y1 }\n"
        "  rvar R_CX for CX\n"
        "  rvar R_CY for CY\n"
        "  edge R_CX <-> R_CY\n"
        "}\n"
    )
    g = parse_graph(src, validate=False)
    with pytest.raises(PreconditionError):
        check_joint(g)


def test_wrong_class(fig1c):
    with pytest.raises(WrongGraphClass):
        check_joint(fig1c)


def test_markov_blankets_fig2b(fig2b):
    mb_x = markov_blanket(fig2b, "R_CX")
    assert mb_x.observed == ("CZ",) and mb_x.missing == ()
    mb_y = markov_blanket(fig2b, "R_CY")
    assert mb_y.observed == ("CZ",)
    # the district's parent CX joins the blanket (exactness is oracle-checked)
    assert mb_y.missing == ("CX",)


def test_markov_blanket_isolated():
    src = (
        'graph "iso" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n"
        "  rvar R_CX for CX\n"
        "}\n"
    )
    g = parse_graph(src)
    mb = markov_blanket(g, "R_CX")
    assert mb.observed == () and mb.missing == () and mb.sibling_indicators == ()


def test_district_sibling_indicators():
    src = (
        'graph "sib" class=cm-c-dmg {\n'
        "  cluster CA { vars A1 }\n"
        "  cluster CB { vars B1 }\n"
        "  cluster CC { vars C1 }\n"
        "  rvar R_CB for CB\n"
        "  rvar R_CC for CC\n"
        "  edge CA <-> R_CB\n"
        "  edge CA <-> R_CC\n"
        "}\n"
    )
    g = parse_graph(src)
    mb = markov_blanket(g, "R_CC")
    assert mb.sibling_indicators == ("R_CB",)
    v = check_joint(g)
    assert v.recoverable
    # the later factor conditions on the earlier sibling's literal
    factors = [t for t in terms_of(v.formula.den)]
    by_outcome = {next(iter(t.outcomes)).ref: t for t in factors}
    assert rzero("R_CB") in by_outcome["R_CC"].cond
    assert rzero("R_CC") not in by_outcome["R_CB"].cond


def test_formula_shape_fig2b(fig2b):
    f = check_joint(fig2b).formula
    assert isinstance(f, Quotient)
    assert isinstance(f.num, Term)
    assert f.num.outcomes == {
        proxy("CX"),
        proxy("CY"),
        val("CZ"),
        rzero("R_CX"),
        rzero("R_CY"),
    }
    assert isinstance(f.den, Product) and len(f.den.factors) == 2
    fx, fy = sorted(f.den.factors, key=lambda t: sorted(t.outcomes))
    assert fx.outcomes == {rzero("R_CX")} and fx.cond == {val("CZ")}
    assert fy.outcomes == {rzero("R_CY")}
    assert fy.cond == {val("CZ"), proxy("CX"), rzero("R_CX")}


def test_formula_text_round(fig2b):
    f = check_joint(fig2b).formula
    assert "P(c_CX*, c_CY*, c_CZ, R_CX=0, R_CY=0)" in render(f)


def test_witness_fig3(fig3):
    v = check_joint(fig3)
    w = construct_witness(fig3, v.violations[0])
    assert w.graph_class is GraphClass.MADMG
    assert is_compatible(w, fig3).compatible
    # the violating collider path is realized over representatives
    assert ("Y1", "Z1") in w.bidirected or ("Z1", "Y1") in w.bidirected
    assert ("R_Y1", "Z1") in w.bidirected or ("Z1", "R_Y1") in w.bidirected
    # non-recoverable at variable level by the same criterion
    promoted = as_cluster_graph(w)
    assert not check_joint(promoted).recoverable


def test_witness_neighbor_case():
    src = (
        'graph "adj" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n"
        "  rvar R_CX for CX\n"
        "  edge CX -> R_CX\n"
        "}\n"
    )
    g = parse_graph(src)
    v = check_joint(g)
    w = construct_witness(g, v.violations[0])
    assert ("X1", "R_X1") in w.directed
    assert is_compatible(w, g).compatible
    assert not check_joint(as_cluster_graph(w)).recoverable


def test_witness_fig2b_style_cycles(fig2b):
    # a graph with a 2-cycle needs the second variable to break the cycle
    src = (
        'graph "cyc" class=cm-c-dmg {\n'
        "  cluster CA { vars A1, A2 }\n"
        "  cluster CB { vars B1, B2 }\n"
        "  rvar R_CA for CA\n"
        "  edge CA -> CB\n"
        "  edge CB -> CA\n"
        "  edge CA -> R_CA\n"
        "}\n"
    )
    g = parse_graph(src)
    v = check_joint(g)
    w = construct_witness(g, v.violations[0])
    assert is_compatible(w, g).compatible


def test_witness_declares_every_indicator_owner():
    # R_A2's owner is not CA's representative; it still needs a witness variable
    src = (
        'graph "owners" class=m-c-dmg {\n'
        "  cluster CA { vars A1, A2 }\n"
        "  cluster CB { vars B1 }\n"
        "  rvar R_A1 for A1\n"
        "  rvar R_A2 for A2\n"
        "  edge CA -> R_A1\n"
        "  edge CB -> R_A2\n"
        "}\n"
    )
    g = parse_graph(src)
    v = check_joint(g)
    w = construct_witness(g, v.violations[0])
    assert w.variables == ("A1", "A2", "B1")
    assert ("A1", "R_A1") in w.directed and ("B1", "R_A2") in w.directed
    assert is_compatible(w, g).compatible


def test_witness_realizes_a_cycle_into_an_indicator_from_a_source():
    # Z1 -> R_X1 would close R_X1 -> Z1 -> R_X1: a fresh CZ variable with no
    # incoming edge realizes CZ -> R_CX instead
    src = (
        'graph "rout" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n"
        "  cluster CZ { vars Z1 }\n"
        "  rvar R_CX for CX\n"
        "  edge R_CX -> CZ\n"
        "  edge CZ -> R_CX\n"
        "  edge CX <-> CZ\n"
        "}\n"
    )
    g = parse_graph(src)
    v = check_joint(g)
    assert v.violations[0].witness.text() == "CX <-> CZ <- R_CX"
    w = construct_witness(g, v.violations[0])
    assert w.clustering.members("CZ") == ("Z1", "CZ_2")
    assert ("R_X1", "Z1") in w.directed and ("CZ_2", "R_X1") in w.directed
    assert ("Z1", "R_X1") not in w.directed
    assert is_compatible(w, g).compatible
    assert not check_joint(as_cluster_graph(w)).recoverable


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_witnesses_of_graphs_with_indicator_children(rng):
    """Every violation of a graph whose indicators may have children has a
    compatible witness that is not recoverable either."""
    g = parse_graph(indicator_out_text(rng))
    for violation in check_joint(g).violations:
        w = construct_witness(g, violation)
        assert is_compatible(w, g).compatible
        assert not check_joint(as_cluster_graph(w)).recoverable


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([random_cluster_text, indicator_out_text]), st.randoms(use_true_random=False), st.booleans())
@example(indicator_out_text, random.Random(14), False)
@example(indicator_out_text, random.Random(14), True)
def test_violations_match_the_all_collider_paths(text, rng, on_witness):
    """`_violations` names an indicator exactly when a simple path joins its
    owner to it whose interior vertices are all substantive colliders, and
    its path is one of the shortest of them; on cluster graphs and on the
    witnesses (m-ADMGs) of their violations alike. The two examples have an
    active path through another indicator, which must be cut off."""
    g = parse_graph(text(rng))
    if g.graph_class is GraphClass.CDMG:
        return
    if on_witness:
        violations = check_joint(g).violations
        if not violations:
            return
        g = construct_witness(g, violations[0])
    found = {v.indicator: v for v in _violations(g)}
    assert list(found) == sorted(found)
    substantive = set(g.substantive)
    for r in g.indicators:
        owner = g.owner_cluster(r)
        reference = [
            p
            for p in enumerate_paths(g, owner, r, len(g.vertices))
            if all(p.is_collider(i) and p.vertices[i] in substantive for i in p.interior())
        ]
        assert (r in found) == bool(reference)
        if reference:
            v = found[r]
            v.witness.check_in(g)
            assert v.witness in reference and len(v.witness) == len(reference[0])
            assert v.cluster == owner and v.reason == ("neighbor" if len(v.witness) == 1 else "collider_path")


def test_determinism(fig2b, fig3):
    a = check_joint(fig2b).to_json()
    b = check_joint(fig2b).to_json()
    assert a == b
    assert check_joint(fig3).to_json() == check_joint(fig3).to_json()


def test_mechanism_transfer_m_to_cm(fig2a, fig2b):
    # joint recoverability at the merged level implies it at the finer level
    assert check_joint(fig2b).recoverable
    assert check_joint(fig2a).recoverable


def test_transfer_on_random_graphs():
    import random

    from mcdmg import Clustering, Kind, MixedGraph, Vertex, merge_indicators

    rng = random.Random(5)
    checked = 0
    for trial in range(400):
        k = rng.randint(2, 3)
        clusters = [f"C{i}" for i in range(k)]
        members = {c: [f"{c}v1", f"{c}v2"] for c in clusters}
        verts = [Vertex(c, Kind.CLUSTER) for c in clusters]
        rvars = []
        for c in clusters:
            for v in members[c]:
                if rng.random() < 0.4:
                    rvars.append((f"R_{v}", v))
        if not rvars:
            continue
        verts += [Vertex(r, Kind.INDICATOR, o) for r, o in rvars]
        directed = set()
        bidirected = set()
        for a in clusters:
            for b in clusters:
                if a != b and rng.random() < 0.3:
                    directed.add((a, b))
        for a in clusters:
            for r, _ in rvars:
                if rng.random() < 0.25:
                    directed.add((a, r))
                if rng.random() < 0.2:
                    bidirected.add(tuple(sorted((a, r))))
        g = MixedGraph.build(
            "rnd",
            GraphClass.MCDMG,
            verts,
            directed,
            bidirected,
            clustering=Clustering.from_dict(members),
        )
        from mcdmg.graphs import validate

        if validate(g):
            continue
        cm = merge_indicators(g)
        checked += 1
        if check_joint(cm).recoverable:
            assert check_joint(g).recoverable, (sorted(directed), sorted(bidirected))
    assert checked >= 100


def test_mlevel_formula_matches_oracle(fig2a):
    import itertools

    from mcdmg import Budget, Grounding, enumerate_compatible, random_scm
    from mcdmg.oracle import check

    verdict = check_joint(fig2a)
    assert verdict.recoverable
    for madmg in itertools.islice(
        enumerate_compatible(fig2a, budget=Budget(2, 10)), 4
    ):
        for seed in range(6):
            scm = random_scm(madmg, seed=seed)
            _, errors = check(verdict.formula, scm, Grounding.from_scm(scm, abstract=fig2a))
            assert errors and max(errors.values()) <= 1e-9


def test_classify_mlevel(fig2a):
    from mcdmg import classify_mechanism

    assert classify_mechanism(fig2a, "R_Y1") == "MNAR"
    assert classify_mechanism(fig2a, "R_X1") == "MAR"
    assert classify_mechanism(fig2a, "R_X2") == "MCAR"
