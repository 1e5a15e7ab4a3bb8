import hashlib
import itertools
import random

import pytest

from mcdmg import (
    Budget,
    Clustering,
    GraphClass,
    Kind,
    MixedGraph,
    Vertex,
    emit_graph,
    enumerate_compatible,
    fixture_text,
    is_compatible,
    merge_indicators,
    parse_graph,
    project,
)
from mcdmg import abstraction
from mcdmg.abstraction import _canon_indicator_names
from mcdmg.errors import BudgetTooSmall, InvalidBudget, InvalidClustering, McdmgError, WrongGraphClass
from mcdmg.graphs import validate
from tests_support import THIRTEEN_EDGES, indicator_out_text, random_cluster_text, reference_over_members


def test_project_fig1a_gives_fig1c(fig1a, fig1c):
    pr = project(fig1a, fig1c.clustering, GraphClass.CDMG)
    assert pr.directed == fig1c.directed
    assert pr.bidirected == fig1c.bidirected


def test_project_identity_clustering(fig1a):
    cl = Clustering.from_dict({v: [v] for v in fig1a.variables})
    pr = project(fig1a, cl, GraphClass.CDMG)
    assert {(a, b) for a, b in pr.directed} == set(fig1a.directed)


def test_project_missingness_levels(fig2a, fig2b):
    src = (
        'graph "m" class=m-admg {\n'
        "  var Z1\n  var Y1\n  rvar R_Y1 for Y1\n"
        "  edge Z1 <-> R_Y1\n  edge Z1 -> Y1\n}\n"
    )
    madmg = parse_graph(src)
    cl = Clustering.from_dict({"CZ": ["Z1"], "CY": ["Y1"]})
    m_level = project(madmg, cl, GraphClass.MCDMG)
    assert ("<->", "CZ", "R_Y1") in _canon_indicator_names(m_level)
    cm_level = project(madmg, cl, GraphClass.CMCDMG)
    assert ("<->", "CZ", "R_CY") in _canon_indicator_names(cm_level)


def test_project_rejects_bad_clustering(fig1a):
    with pytest.raises(InvalidClustering):
        project(fig1a, Clustering.from_dict({"C": ["Z1"]}), GraphClass.CDMG)


def test_merge_indicators_fig2a_is_fig2b(fig2a, fig2b):
    merged = merge_indicators(fig2a)
    assert merged.graph_class is GraphClass.CMCDMG
    assert _canon_indicator_names(merged) == _canon_indicator_names(fig2b)
    assert {merged.owner_cluster(r) for r in merged.indicators} == {"CX", "CY"}


def test_merge_trivial_indicator_grouping():
    src = (
        'graph "t" class=m-c-dmg {\n'
        "  cluster CA { vars A1 }\n  cluster CB { vars B1 }\n"
        "  rvar R_A1 for A1\n  edge CA -> CB\n  edge CB -> R_A1\n}\n"
    )
    g = parse_graph(src)
    merged = merge_indicators(g)
    assert len(merged.indicators) == 1
    assert ("CB", merged.indicators[0]) in merged.directed


def test_merge_requires_mcdmg(fig2b):
    with pytest.raises(WrongGraphClass):
        merge_indicators(fig2b)


def test_compatibility_fig1(fig1a, fig1b, fig1c):
    assert is_compatible(fig1a, fig1c).compatible
    assert is_compatible(fig1b, fig1c).compatible


def test_incompatible_forbidden_edge(fig1c):
    src = (
        'graph "bad" class=admg {\n'
        "  var Z1\n  var Z2\n  var X1\n  var X2\n  var Y1\n  var Y2\n"
        "  edge Z1 -> Z2\n  edge Z1 -> X1\n  edge X1 -> X2\n  edge X1 -> Z2\n"
        "  edge X2 -> Y1\n  edge Y1 -> Y2\n"
        "  edge Z1 -> Y1\n"  # CZ -> CY is not licensed by fig1c
        "}\n"
    )
    bad = parse_graph(src)
    report = is_compatible(bad, fig1c)
    assert not report.compatible
    assert ("->", "CZ", "CY") in report.forbidden_edges


def test_incompatible_unrealized_edge(fig1c):
    src = (
        'graph "thin" class=admg {\n'
        "  var Z1\n  var Z2\n  var X1\n  var X2\n  var Y1\n  var Y2\n"
        "  edge Z1 -> Z2\n  edge Z1 -> X1\n  edge X1 -> X2\n  edge X1 -> Z2\n"
        "  edge Y1 -> Y2\n"
        "}\n"
    )
    thin = parse_graph(src)
    report = is_compatible(thin, fig1c)
    assert not report.compatible
    assert ("->", "CX", "CY") in report.missing_realizations


def test_intra_cluster_bidirected_is_forbidden(fig1c):
    src = (
        'graph "conf" class=admg {\n'
        "  var Z1\n  var Z2\n  var X1\n  var X2\n  var Y1\n  var Y2\n"
        "  edge Z1 -> Z2\n  edge Z1 -> X1\n  edge X1 -> X2\n  edge X1 -> Z2\n"
        "  edge X2 -> Y1\n  edge Y1 -> Y2\n"
        "  edge Y1 <-> Y2\n"
        "}\n"
    )
    g = parse_graph(src)
    report = is_compatible(g, fig1c)
    assert not report.compatible
    assert ("<->", "Y1", "Y2") in report.forbidden_edges


def test_indicator_mismatch_reported(fig2b):
    # no indicators at all: the R-vertices of fig2b have no realization
    src = (
        'graph "nor" class=admg {\n'
        "  var Z1\n  var Z2\n  var X1\n  var X2\n  var Y1\n  var Y2\n"
        "  edge Z1 -> Z2\n  edge Z1 -> X1\n  edge X1 -> Z2\n  edge X1 -> X2\n"
        "  edge X1 -> Y1\n  edge Y1 -> Y2\n"
        "}\n"
    )
    g = parse_graph(src)
    report = is_compatible(g, fig2b)
    assert not report.compatible
    assert any(e[0] == "rvar" for e in report.missing_realizations)


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------


def two_cluster_one_edge():
    return parse_graph(
        'graph "ab" class=c-dmg {\n'
        "  cluster CA { vars A1, A2 }\n"
        "  cluster CB { vars B1, B2 }\n"
        "  edge CA -> CB\n"
        "}\n"
    )


def brute_force_count(abstract, max_vars):
    """Independent oracle: generate every labeled graph, filter by is_compatible."""
    count = 0
    seen = []
    for na in range(1, max_vars + 1):
        for nb in range(1, max_vars + 1):
            a_vars = [f"A{i+1}" for i in range(na)]
            b_vars = [f"B{i+1}" for i in range(nb)]
            cl = Clustering.from_dict({"CA": a_vars, "CB": b_vars})
            pairs = [(x, y) for x in a_vars + b_vars for y in a_vars + b_vars if x != y]
            for mask in range(1 << len(pairs)):
                directed = [e for i, e in enumerate(pairs) if mask >> i & 1]
                g = MixedGraph.build(
                    "cand",
                    GraphClass.ADMG,
                    [Vertex(v, Kind.VARIABLE) for v in a_vars + b_vars],
                    directed=directed,
                    clustering=cl,
                )
                from mcdmg.graphs import validate

                if validate(g):
                    continue
                if is_compatible(g, abstract, cl).compatible:
                    count += 1
                    seen.append(g)
    return count, seen


def test_enumeration_matches_brute_force():
    abstract = two_cluster_one_edge()
    want, _ = brute_force_count(abstract, 2)
    got = list(
        enumerate_compatible(abstract, budget=Budget(2, 8), canonicalize=False)
    )
    assert len(got) == want
    # every stream element projects back onto the abstract graph exactly
    for g in got:
        assert is_compatible(g, abstract, g.clustering).compatible
    # and is canonical-filterable to a smaller orbit set
    canon = list(enumerate_compatible(abstract, budget=Budget(2, 8)))
    assert len(canon) <= len(got)


def test_enumeration_single_compatible():
    abstract = parse_graph(
        'graph "one" class=c-dmg {\n  cluster CA { vars A1 }\n}\n'
    )
    got = list(enumerate_compatible(abstract, budget=Budget(1, 4)))
    assert len(got) == 1
    assert got[0].directed == frozenset()


def test_budget_too_small_for_self_loop():
    abstract = parse_graph(
        'graph "loop" class=c-dmg {\n  cluster CA { vars A1 }\n  edge CA -> CA\n}\n'
    )
    with pytest.raises(BudgetTooSmall):
        enumerate_compatible(abstract, budget=Budget(1, 4))


@pytest.mark.parametrize(
    "bounds,field",
    [(("a", 5), "max_vars_per_cluster"), ((2.5, 10), "max_vars_per_cluster"),
     ((None, 10), "max_vars_per_cluster"), ((2, 10.5), "max_edges"), ((2, "10"), "max_edges")],
)
def test_budget_refuses_a_bound_that_is_not_an_integer(bounds, field):
    with pytest.raises(InvalidBudget, match=field) as raised:
        Budget(*bounds)
    assert isinstance(raised.value, (McdmgError, ValueError))
    with pytest.raises(InvalidBudget, match=field):
        Budget()._replace(**dict(zip(Budget._fields, bounds)))


def test_budget_takes_what_operator_index_takes(fig2b):
    assert Budget(True, 3) == Budget(1, 3) and type(Budget(True, 3).max_vars_per_cluster) is int
    assert Budget(max_edges=5) == (2, 5)
    # zero and negative bounds are integers: they leave no graph
    for bounds in ((0, 10), (2, 0), (-1, 10)):
        with pytest.raises(BudgetTooSmall):
            enumerate_compatible(fig2b, budget=Budget(*bounds))


def test_enumeration_refuses_ill_typed_arguments(fig2b):
    # a budget passed where the clustering goes, and a bare tuple of bounds
    with pytest.raises(InvalidClustering, match="clustering must be a Clustering, not Budget"):
        enumerate_compatible(fig2b, Budget(2, 12))
    with pytest.raises(InvalidBudget, match=r"budget must be a Budget, not \(2, 12\)"):
        enumerate_compatible(fig2b, budget=(2, 12))
    assert next(enumerate_compatible(fig2b, fig2b.clustering, Budget(2, 12)))


def test_more_abstract_edges_than_the_budget_allows():
    # each abstract edge needs at least one realization, so 13 > 12 edges
    # fails before any realization is tried
    with pytest.raises(BudgetTooSmall):
        enumerate_compatible(parse_graph(THIRTEEN_EDGES), budget=Budget(2, 12))


def test_enumeration_contains_fig1a_and_fig1b(fig1a, fig1b, fig1c):
    sig_a = (frozenset(fig1a.directed), frozenset(fig1a.bidirected))
    sig_b = (frozenset(fig1b.directed), frozenset(fig1b.bidirected))
    found = set()
    for g in enumerate_compatible(fig1c, budget=Budget(2, 8), canonicalize=False):
        found.add((frozenset(g.directed), frozenset(g.bidirected)))
    assert sig_a in found
    assert sig_b in found


# sha256 of the emit_graph texts of a stream prefix, made before size tuples
# that leave a looped cluster one member were skipped, and fig1c's canonical
# one again when c-dmgs began to be canonicalized:
# (fixture, max vars, max edges, prefix length, canonicalize) -> digest
STREAM_PREFIXES = {
    ("fig1c", 3, 6, 240, True): "25b3ff5e7feb30a2a10aa9482f1c23f0ea4cb49fc24602ae228568b993d28e5b",
    ("fig1c", 3, 6, 240, False): "114e9794af88718ebffc1a1565cc61560d9f7e2c3dac96c8df9b714f8ee3f290",
    ("fig2a", 3, 12, 25, True): "05c8b9bc2aab44237c8a9a9a87c1b293e381cfa1eab8491055d9e78c423c463a",
    ("fig2a", 3, 12, 25, False): "05c8b9bc2aab44237c8a9a9a87c1b293e381cfa1eab8491055d9e78c423c463a",
    ("fig2b", 2, 9, 800, True): "2f44f3db6741704dab4cdfa590e01d969d03b58a89bd6d5506605ce322c07acf",
    ("fig2b", 2, 9, 800, False): "f32cc83a5b0e86aed609bb9e64d82024e7e543b0f89d2af8ca53c555beceb75d",
    ("fig3", 3, 12, 1400, True): "96b05c9c014fa2da1426dd23367baba39870e5d458f37ea2396ad6bc7f69e37c",
    ("fig3", 3, 12, 1400, False): "a60742d9110773e7457e2b207b984a0dcdfdd455fdfc33ed771611d6b3bbda4d",
}


@pytest.mark.parametrize("spec", sorted(STREAM_PREFIXES), ids=lambda s: "-".join(map(str, s)))
def test_enumeration_stream_prefixes_are_pinned(spec):
    name, max_vars, max_edges, n, canonicalize = spec
    abstract = parse_graph(fixture_text(name))
    stream = enumerate_compatible(abstract, budget=Budget(max_vars, max_edges), canonicalize=canonicalize)
    digest = hashlib.sha256()
    for g in itertools.islice(stream, n):
        digest.update(emit_graph(g).encode())
    assert digest.hexdigest() == STREAM_PREFIXES[spec]


# count and sha256 of the emit_graph texts of a whole class, made with the
# materialized product: (fixture, max vars, max edges, canonicalize) -> pin
WHOLE_STREAMS = {
    ("fig1c", 2, 8, False): (1712, "2296ba62841b44bf8cba85906eaaca972b7abbbbfdd698d74ade9783c7dec0ff"),
    ("fig2b", 2, 9, True): (3104, "b18494f9abe50a41cd24fbb9111da3ab3ae208ba9e183fe8a18a0523e9b7190b"),
}


@pytest.mark.parametrize("spec", sorted(WHOLE_STREAMS), ids=lambda s: "-".join(map(str, s)))
def test_whole_streams_are_pinned(spec):
    name, max_vars, max_edges, canonicalize = spec
    abstract = parse_graph(fixture_text(name))
    digest = hashlib.sha256()
    count = 0
    for g in enumerate_compatible(abstract, budget=Budget(max_vars, max_edges), canonicalize=canonicalize):
        digest.update(emit_graph(g).encode())
        count += 1
    assert (count, digest.hexdigest()) == WHOLE_STREAMS[spec]


def _orbit(g):
    """The least edge set over every within-cluster renaming of ``g``'s members."""
    clusters = [vs for _, vs in g.clustering.clusters]
    keys = []
    for images in itertools.product(*map(itertools.permutations, clusters)):
        name = {v: w for vs, ws in zip(clusters, images) for v, w in zip(vs, ws)}
        name.update({r: g.indicator_by_owner[name[g.vertex(r).owner]] for r in g.indicators})
        directed = tuple(sorted((name[a], name[b]) for a, b in g.declared_directed))
        bidirected = tuple(sorted(tuple(sorted((name[a], name[b]))) for a, b in g.bidirected))
        keys.append((directed, bidirected))
    return g.clustering.clusters, min(keys)


@pytest.mark.parametrize("name, count", [("fig1c", 214), ("fig2b", 448)])
def test_canonical_streams_keep_one_graph_per_orbit(name, count):
    # a c-dmg and a cm-c-dmg: no indicator names a member of either
    abstract = parse_graph(fixture_text(name))
    budget = Budget(2, 8)
    canonical = [_orbit(g) for g in enumerate_compatible(abstract, budget=budget)]
    labeled = {_orbit(g) for g in enumerate_compatible(abstract, budget=budget, canonicalize=False)}
    assert len(canonical) == len(set(canonical)) == count
    assert set(canonical) == labeled


def _stream_texts(abstract, budget, canonicalize, n):
    """The first ``n`` graphs of a stream as emit_graph texts, or None."""
    try:
        stream = enumerate_compatible(abstract, budget=budget, canonicalize=canonicalize)
    except BudgetTooSmall:
        return None
    return [emit_graph(g) for g in itertools.islice(stream, n)]


def test_enumeration_matches_the_materialized_product(monkeypatch):
    edgeless = parse_graph('graph "e" class=c-dmg {\n  cluster CA { vars A1 }\n}\n')
    cases = [(edgeless, Budget(2, 0)), (edgeless, Budget(2, -1))]
    rng = random.Random(20261020)
    for i in range(40):
        g = parse_graph((random_cluster_text, indicator_out_text)[i % 2](rng))
        cases += [(g, Budget(1, 3)), (g, Budget(2, 6)), (g, Budget(2, 0))]
    streams = []
    for g, budget in cases:
        for canonicalize in (True, False):
            got = _stream_texts(g, budget, canonicalize, 60)
            with monkeypatch.context() as patch:
                patch.setattr(abstraction, "_enumerate_over_members", reference_over_members)
                want = _stream_texts(g, budget, canonicalize, 60)
            assert got == want, (emit_graph(g), budget, canonicalize)
            streams.append(want)
    # an edge-less graph has one graph per size tuple at zero edges, none below
    assert len(streams[0]) == 2 and streams[2] is None
    assert sum(map(bool, streams)) >= 50


@pytest.mark.parametrize("name", ["fig1c", "fig2b", "fig3"])
def test_looped_clusters_start_at_two_members(monkeypatch, name):
    calls = []
    real = abstraction._enumerate_over_members

    def counted(abstract, members, budget, canonicalize):
        calls.append(members)
        return real(abstract, members, budget, canonicalize)

    monkeypatch.setattr(abstraction, "_enumerate_over_members", counted)
    first = next(enumerate_compatible(parse_graph(fixture_text(name)), budget=Budget(99, 12)))
    # every cluster of these fixtures has a self-loop, so the first size tuple
    # tried gives each cluster two members, and it yields
    assert len(calls) == 1
    assert [len(vs) for _, vs in first.clustering.clusters] == [2, 2, 2]


def test_enumeration_deterministic(fig2b):
    first = list(itertools.islice(enumerate_compatible(fig2b, budget=Budget(2, 9)), 6))
    second = list(itertools.islice(enumerate_compatible(fig2b, budget=Budget(2, 9)), 6))
    assert [g.directed for g in first] == [g.directed for g in second]
    assert [g.bidirected for g in first] == [g.bidirected for g in second]


def test_enumerated_graphs_are_valid_madmgs(fig2b):
    from mcdmg.graphs import validate

    for g in itertools.islice(enumerate_compatible(fig2b, budget=Budget(2, 9)), 10):
        assert g.graph_class is GraphClass.MADMG
        assert validate(g) == []
        # all variables of partially observed clusters carry indicators
        for c in ("CX", "CY"):
            for v in g.clustering.members(c):
                assert v in g.indicator_by_owner


def test_merge_loses_direction_specificity():
    # C -> R_X2 only; after merging the cluster indicator absorbs the edge
    src = (
        'graph "loss" class=m-c-dmg {\n'
        "  cluster CL { vars L1 }\n"
        "  cluster CX { vars X1, X2 }\n"
        "  rvar R_X1 for X1\n"
        "  rvar R_X2 for X2\n"
        "  edge CL -> R_X2\n"
        "}\n"
    )
    g = parse_graph(src)
    cm = merge_indicators(g)
    assert len(cm.indicators_of_cluster("CX")) == 1
    rid = cm.indicators_of_cluster("CX")[0]
    assert ("CL", rid) in cm.directed


def test_prop1_inclusion_fig2a(fig2a, fig2b):
    merged = merge_indicators(fig2a)
    for g in itertools.islice(
        enumerate_compatible(fig2a, budget=Budget(2, 10), canonicalize=False), 25
    ):
        assert is_compatible(g, merged).compatible


def test_edges_out_of_indicators_are_realized_and_sound():
    """Graphs with edges out of indicators enumerate to compatible m-ADMGs,
    and their joint formulas and derived effects agree with the oracle."""
    import random

    from mcdmg import Derivation, Grounding, check_joint, random_scm, recover_effect
    from mcdmg.oracle import check

    rng = random.Random(20261019)
    indicator_out = joint_checks = effect_checks = 0
    for _ in range(150):
        g = parse_graph(indicator_out_text(rng))
        indicator_out += any(a in g.indicators for a, _ in g.declared_directed)
        try:
            stream = enumerate_compatible(g, budget=Budget(2, 10))
        except BudgetTooSmall:
            continue
        madmgs = list(itertools.islice(stream, 3))
        for m in madmgs:
            assert validate(m) == [] and m.graph_class is GraphClass.MADMG
            assert is_compatible(m, g).compatible
        verdict = check_joint(g)
        effects = []
        for t, o in itertools.permutations(sorted(g.clusters), 2):
            d = recover_effect(g, {t}, {o}, depth=5)
            if isinstance(d, Derivation):
                effects.append((d.result, (t, o)))
        if verdict.recoverable:
            effects.append((verdict.formula, None))
        for m in madmgs:
            for seed in range(3):
                scm = random_scm(m, seed=seed)
                grounding = Grounding.from_scm(scm, abstract=g)
                for expr, effect in effects:
                    _, errors = check(expr, scm, grounding, effect=effect)
                    assert errors and max(errors.values()) <= 1e-9, (emit_graph(g), effect)
                    joint_checks += effect is None
                    effect_checks += effect is not None
    assert indicator_out >= 50 and joint_checks >= 50 and effect_checks >= 200
