import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcdmg import (
    Clustering,
    GraphClass,
    Kind,
    MixedGraph,
    Vertex,
    as_cluster_graph,
    classify_mechanism,
    emit_graph,
    emit_json,
    parse_graph,
    validate,
)
from mcdmg.errors import ParseError, UnknownVertex, ValidationError, WrongGraphClass
from mcdmg.graphs import closure, topological_order
from tests_support import graph_hashes, random_cluster_text


def test_parse_fig2b_structure(fig2b):
    assert fig2b.graph_class is GraphClass.CMCDMG
    assert sorted(fig2b.clusters) == ["CX", "CY", "CZ"]
    assert sorted(fig2b.indicators) == ["R_CX", "R_CY"]
    # proxies are implicit in the file, explicit in memory
    assert sorted(fig2b.proxies) == ["CX*", "CY*"]
    assert ("CX", "CX*") in fig2b.directed
    assert ("R_CX", "CX*") in fig2b.directed
    assert validate(fig2b) == []


def test_empty_cluster_rejected():
    src = 'graph "bad" class=cm-c-dmg {\n  cluster CX { }\n}\n'
    with pytest.raises(ValidationError):
        parse_graph(src)


def test_proxy_with_child_rejected():
    src = (
        'graph "bad" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n"
        "  cluster CY { vars Y1 }\n"
        "  rvar R_CX for CX\n"
        "  edge CX* -> CY\n"
        "}\n"
    )
    with pytest.raises(ValidationError) as exc:
        parse_graph(src)
    assert any(v.code == "proxy-has-child" for v in exc.value.violations)


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_graph('graph "x" class=admg {\n  vertex A\n}\n')
    assert exc.value.line == 2


def test_unknown_class():
    with pytest.raises(ParseError):
        parse_graph('graph "x" class=pdag {\n}\n')


def test_acyclic_violation_in_madmg():
    src = 'graph "c" class=m-admg {\n  var X\n  var Y\n  edge X -> Y\n  edge Y -> X\n}\n'
    g = parse_graph(src, validate=False)
    codes = [v.code for v in validate(g)]
    assert "acyclicity" in codes


def test_cluster_self_loop_is_fine(fig2b):
    assert ("CX", "CX") in fig2b.directed
    assert validate(fig2b) == []


def test_emit_parse_round_trip(fig2a, fig2b, fig3, fig1a, fig1c):
    for g in (fig2a, fig2b, fig3, fig1a, fig1c):
        again = parse_graph(emit_graph(g))
        assert again.graph_class is g.graph_class
        assert {v.id for v in again.vertices} == {v.id for v in g.vertices}
        assert again.directed == g.directed
        assert again.bidirected == g.bidirected


def test_emit_json_shape(fig2b):
    d = emit_json(fig2b)
    assert d["class"] == "cm-c-dmg"
    assert ["CZ", "R_CX"] in d["directed"]
    assert d["clusters"]["CX"] == ["X1", "X2"]


def test_indicator_proxy_pairing(fig2a):
    for r in fig2a.indicators:
        owner = fig2a.vertex(r).owner
        assert fig2a.proxy_by_owner[owner] == f"{owner}*"
    assert len(fig2a.proxies) == len(fig2a.indicators)


def test_owner_cluster(fig2a, fig2b):
    assert fig2a.owner_cluster("R_X1") == "CX"
    assert fig2b.owner_cluster("R_CY") == "CY"
    assert fig2b.indicators_of_cluster("CX") == ("R_CX",)
    assert fig2a.indicators_of_cluster("CY") == ("R_Y1", "R_Y2")


def test_observed_split(fig2b, fig3):
    assert fig2b.partially_observed == ("CX", "CY")
    assert fig2b.fully_observed == ("CZ",)
    assert fig3.partially_observed == ("CY",)
    assert set(fig3.fully_observed) == {"CX", "CZ"}


def test_classify_isolated_indicator():
    src = (
        'graph "iso" class=m-admg {\n'
        "  var X\n  var Y\n  rvar R_X for X\n  edge X -> Y\n}\n"
    )
    g = parse_graph(src)
    assert classify_mechanism(g, "R_X") == "MCAR"


def test_classify_mar():
    src = (
        'graph "mar" class=m-admg {\n'
        "  var V\n  var X\n  rvar R_X for X\n  edge V -> X\n  edge V -> R_X\n}\n"
    )
    g = parse_graph(src)
    assert classify_mechanism(g, "R_X") == "MAR"


def test_classify_fig2b_mnar(fig2b):
    assert classify_mechanism(fig2b, "R_CY") == "MNAR"


def test_classify_rejects_non_indicator(fig2b):
    with pytest.raises(UnknownVertex):
        classify_mechanism(fig2b, "CX")


def test_classify_rejects_plain_cdmg(fig1c):
    with pytest.raises(WrongGraphClass):
        classify_mechanism(fig1c, "CX")


def test_promotion_trivial_clustering():
    src = (
        'graph "m" class=m-admg {\n'
        "  var A\n  var B\n  rvar R_B for B\n  edge A -> B\n  edge A -> R_B\n}\n"
    )
    g = parse_graph(src)
    c = as_cluster_graph(g)
    assert c.graph_class is GraphClass.MCDMG
    assert validate(c) == []
    assert c.clustering.members("A") == ("A",)
    assert ("A", "R_B") in c.directed


def test_duplicate_indicator_rejected():
    g = MixedGraph.build(
        "dup",
        GraphClass.MADMG,
        [
            Vertex("X", Kind.VARIABLE),
            Vertex("R_X", Kind.INDICATOR, "X"),
            Vertex("S_X", Kind.INDICATOR, "X"),
        ],
    )
    assert any(v.code == "duplicate-owner" for v in validate(g))


def test_clustering_partition_errors():
    with pytest.raises(Exception):
        Clustering.from_dict({"A": ["X"], "B": ["X"]}).check_partition()


# -- walk helpers --------------------------------------------------------------

NODES = [f"v{i}" for i in range(7)]
digraphs = st.lists(st.tuples(st.sampled_from(NODES), st.sampled_from(NODES)), max_size=20)


def _reach(start, edges):
    """Brute-force fixpoint of one-step expansion along ``edges``."""
    reach = set(start)
    while True:
        more = {b for a, b in edges if a in reach} - reach
        if not more:
            return frozenset(reach)
        reach |= more


@given(digraphs)
def test_topological_order_properties(edges):
    order, unplaced = topological_order(NODES, edges)
    assert sorted(order + unplaced) == NODES and list(unplaced) == sorted(unplaced)
    pos = {n: i for i, n in enumerate(order)}
    for a, b in edges:
        if b in pos:
            assert a in pos and pos[a] < pos[b]
    placed = set()
    for n in order:
        ready = [m for m in NODES if m not in placed and all(a in placed for a, b in edges if b == m)]
        assert n == min(ready)
        placed.add(n)
    on_cycle = {a for a, b in edges if a in _reach({b}, edges)}
    assert set(unplaced) == _reach(on_cycle, edges)


@given(digraphs, st.sets(st.sampled_from(NODES)))
def test_closure_is_the_fixpoint(edges, start):
    assert closure(start, lambda v: [b for a, b in edges if a == v]) == _reach(start, edges)


@given(st.randoms(use_true_random=False))
def test_emit_parse_round_trip_random(rng):
    g = parse_graph(random_cluster_text(rng))
    assert parse_graph(emit_graph(g)) == g


def test_graph_layer_matches_golden_hashes():
    """Adjacency, mutilation, emitters, projection, merging, promotion, the
    joint verdicts, witnesses and the compatible graphs' CPTs on the fixtures
    and 200 random graphs (`tests_support.graph_hashes` regenerates it)."""
    golden = json.loads((Path(__file__).parent / "golden_graphs.json").read_text())
    assert graph_hashes() == golden
