import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcdmg import (
    GraphClass,
    Kind,
    MixedGraph,
    MutilationSpec,
    Vertex,
    Walk,
    active_path,
    ancestors,
    d_separated,
    d_separated_by_paths,
    descendants,
    enumerate_paths,
    mutilate,
    parse_graph,
    primary_path,
)
from mcdmg.errors import EmptyWalk, OverlappingSets, PreconditionError, UnknownVertex
from mcdmg.separation import ancestor_mask, path_blocked, reaches


def test_descendants_fig3_mutilated(fig3):
    cut = mutilate(fig3, MutilationSpec.of(overline={"CX"}))
    assert descendants(cut, {"CZ"}) == {"CZ"}


def test_descendants_empty(fig3):
    assert descendants(fig3, set()) == frozenset()


def test_descendants_fig2b(fig2b):
    got = descendants(fig2b, {"CX"})
    non_proxy = {v for v in got if fig2b.kind(v) is not Kind.PROXY}
    # R_CX is reachable through CX -> CZ -> R_CX
    assert non_proxy == {"CX", "CY", "CZ", "R_CX"}
    assert {"CX*", "CY*"} <= got


def test_descendants_unknown(fig3):
    with pytest.raises(UnknownVertex):
        descendants(fig3, {"nope"})


def test_mutilate_fig3_overline(fig3):
    cut = mutilate(fig3, MutilationSpec.of(overline={"CX"}))
    assert ("CZ", "CX") not in cut.directed
    assert ("CX", "CX") not in cut.directed
    assert ("CX", "CY") in cut.directed


def test_mutilate_identity(fig3):
    assert mutilate(fig3, MutilationSpec.of()) is fig3


def test_mutilate_keeps_proxy_edges(fig2b):
    cut = mutilate(fig2b, MutilationSpec.of(underline={"CX"}))
    assert ("CX", "CY") not in cut.directed
    assert ("CX", "CZ") not in cut.directed
    assert ("CX", "CX") not in cut.directed
    assert ("CX", "CX*") in cut.directed


def test_mutilate_overline_removes_bidirected(fig3):
    cut = mutilate(fig3, MutilationSpec.of(overline={"CZ"}))
    assert not any("CZ" in e for e in cut.bidirected)
    assert ("CZ", "CX") in cut.directed  # outgoing stays


def test_primary_path_shortcut():
    w = Walk(("A", "B", "A", "C"), ("->", "->", "->"))
    p = primary_path(w)
    assert p.vertices == ("A", "C") and p.edges == ("->",)


def test_primary_path_fixed_point():
    w = Walk(("A", "B", "C"), ("->", "<->"))
    assert primary_path(w) == w


def test_primary_path_mark_inheritance():
    w = Walk(("A", "B", "C", "B", "D"), ("<->", "<-", "->", "->"))
    p = primary_path(w)
    assert p.vertices == ("A", "B", "D")
    assert p.edges == ("<->", "->")


def test_empty_walk_rejected():
    with pytest.raises(EmptyWalk):
        Walk((), ())


def test_dsep_examples(fig2b, fig3):
    cut = mutilate(fig2b, MutilationSpec.of(overline={"CX"}))
    assert d_separated(cut, {"CY"}, {"R_CY"}, {"CX"})
    assert not d_separated(fig3, {"CY"}, {"R_CY"}, set())


def test_dsep_edgeless():
    g = MixedGraph.build(
        "e", GraphClass.ADMG, [Vertex("A", Kind.VARIABLE), Vertex("B", Kind.VARIABLE)]
    )
    assert d_separated(g, {"A"}, {"B"}, set())


def test_dsep_overlap_rejected(fig3):
    with pytest.raises(OverlappingSets):
        d_separated(fig3, {"CX"}, {"CX"}, set())


def test_dsep_refuses_a_bare_string(fig2b):
    # read as sets of characters, "CX" and "CY" would name the vertices C, X and Y
    for query in (d_separated, active_path, d_separated_by_paths):
        with pytest.raises(PreconditionError, match="X .* not the string 'CX'"):
            query(fig2b, "CX", "CY", ())
    with pytest.raises(PreconditionError, match="Z .* not the string 'CZ'"):
        d_separated(fig2b, {"CX"}, {"CY"}, "CZ")


def test_active_path_is_simple(fig3):
    w = active_path(fig3, {"CY"}, {"R_CY"}, set())
    assert w is not None and w.is_path()
    w.check_in(fig3)


def test_enumerate_paths_fig3(fig3):
    paths = enumerate_paths(fig3, "CY", "R_CY", 4)
    texts = {p.text() for p in paths}
    assert texts == {"CY <-> CZ <-> R_CY", "CY <- CX <- CZ <-> R_CY"}


def test_enumerate_paths_trivia(fig3):
    g = MixedGraph.build(
        "d",
        GraphClass.ADMG,
        [Vertex("A", Kind.VARIABLE), Vertex("B", Kind.VARIABLE), Vertex("C", Kind.VARIABLE)],
        directed=[("A", "B")],
    )
    assert enumerate_paths(g, "A", "C", 5) == []
    single = enumerate_paths(g, "A", "B", 5)
    assert len(single) == 1 and len(single[0]) == 1


from tests_support import (  # noqa: E402
    all_small_graphs,
    random_cluster_text,
    random_graph,
    random_query,
    random_walk,
    reference_active_path,
)


def test_walk_engine_matches_path_oracle_exhaustive_two_vertices():
    for g in all_small_graphs(2):
        assert d_separated(g, {"V0"}, {"V1"}, set()) == d_separated_by_paths(
            g, {"V0"}, {"V1"}, set()
        )


def test_walk_engine_matches_path_oracle_random_medium():
    rng = random.Random(20240917)
    for _ in range(250):
        n = rng.randint(4, 7)
        g = random_graph(rng, n)
        X, Y, Z = random_query(rng, g)
        assert d_separated(g, X, Y, Z) == d_separated_by_paths(g, X, Y, Z), (
            sorted(g.directed),
            sorted(g.bidirected),
            (X, Y, Z),
        )


def test_dsep_symmetry_random():
    rng = random.Random(7)
    for _ in range(300):
        g = random_graph(rng, rng.randint(3, 6))
        X, Y, Z = random_query(rng, g)
        assert d_separated(g, X, Y, Z) == d_separated(g, Y, X, Z)


def test_mutilation_monotone_random():
    rng = random.Random(13)
    for _ in range(200):
        g = random_graph(rng, rng.randint(3, 6))
        vs = [v.id for v in g.vertices]
        spec = MutilationSpec.of(
            {v for v in vs if rng.random() < 0.3},
            {v for v in vs if rng.random() < 0.3},
        )
        cut = mutilate(g, spec)
        assert cut.directed <= g.directed
        assert cut.bidirected <= g.bidirected


def test_primary_path_properties_bulk():
    rng = random.Random(99)
    seen_all_collider = 0
    walks = 0
    while walks < 10_000:
        g = random_graph(rng, rng.randint(3, 6))
        for _ in range(10):
            w = random_walk(rng, g)
            if w is None:
                continue
            walks += 1
            p = primary_path(w)
            assert p.is_path()
            assert primary_path(p) == p
            assert p.vertices[0] == w.vertices[0]
            assert p.vertices[-1] == w.vertices[-1]
            interior = w.interior()
            if interior and all(w.is_collider(i) for i in interior):
                seen_all_collider += 1
                assert all(p.is_collider(i) for i in p.interior())
    assert seen_all_collider >= 300


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_active_path_witness_properties(rng):
    """On random cluster graphs the witness is a simple, unblocked path of the
    graph from X to Y, and there is none exactly when every path is blocked."""
    g = parse_graph(random_cluster_text(rng))
    X, Y, Z = random_query(rng, g)
    w = active_path(g, X, Y, Z)
    assert (w is None) == d_separated_by_paths(g, X, Y, Z)
    if w is not None:
        assert w.is_path() and w.vertices[0] in X and w.vertices[-1] in Y
        w.check_in(g)  # consecutive vertices are joined by the recorded edge
        assert not path_blocked(g, w, Z)


@settings(max_examples=150, deadline=None)
@given(st.randoms(use_true_random=False))
def test_active_path_matches_reference_on_mutilations(rng):
    """The witness over index positions has the tokens of the frozenset
    search's witness, on random cluster graphs and their mutilations; with
    the mutilation passed to `active_path` and read as masks, it is the
    witness on the graph `mutilate` builds."""
    g = parse_graph(random_cluster_text(rng))
    mutilable = sorted(v for v in g.ids if g.kind(v) is not Kind.PROXY)
    for _ in range(4):
        spec = MutilationSpec.of(
            {v for v in mutilable if rng.random() < 0.3},
            {v for v in mutilable if rng.random() < 0.3},
        )
        cut = mutilate(g, spec)
        for _ in range(5):
            X, Y, Z = random_query(rng, cut)
            want = reference_active_path(cut, X, Y, Z)
            for got in (active_path(cut, X, Y, Z), active_path(g, X, Y, Z, spec)):
                assert (want is None and got is None) or got.tokens() == want.tokens(), (X, Y, Z)


@settings(max_examples=100, deadline=None)
@given(st.randoms(use_true_random=False))
def test_active_path_refuses_a_mutilation_as_mutilate_does(rng):
    """A mutilation naming a proxy or an unknown vertex is refused with the
    error of mutilate-then-search, and before a bad vertex set is."""
    g = parse_graph(random_cluster_text(rng))
    names = sorted(g.ids | {"nope"}) if rng.random() < 0.3 else sorted(g.ids)
    spec = MutilationSpec.of(
        {v for v in names if rng.random() < 0.15},
        {v for v in names if rng.random() < 0.15},
    )
    X, Y, Z = random_query(rng, g)
    if rng.random() < 0.3:
        X = X | {"zz"}  # an unknown vertex in X, refused after the mutilation

    def outcome(search):
        try:
            w = search()
        except (UnknownVertex, OverlappingSets) as exc:
            return type(exc), str(exc)
        return None if w is None else w.tokens()

    masks = outcome(lambda: active_path(g, X, Y, Z, spec))
    assert masks == outcome(lambda: active_path(mutilate(g, spec), X, Y, Z))


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_masks_match_the_mutilated_graph(rng):
    """The mask engine, in both directions and with a mutilation passed as
    masks, agrees with the path oracle on the graph `mutilate` builds, and
    its ancestor closure with that graph's."""
    g = parse_graph(random_cluster_text(rng))
    mutilable = sorted(v for v in g.ids if g.kind(v) is not Kind.PROXY)
    over = {v for v in mutilable if rng.random() < 0.3}
    under = {v for v in mutilable if rng.random() < 0.3}
    X, Y, Z = random_query(rng, g)
    cut = mutilate(g, MutilationSpec.of(over, under))
    ix = g.index
    xs, ys, zs, o, u = (ix.mask(s) for s in (X, Y, Z, over, under))
    connected = not d_separated_by_paths(cut, X, Y, Z)
    assert reaches(ix, xs, ys, zs, o, u) == reaches(ix, ys, xs, zs, o, u) == connected
    assert ancestor_mask(ix, zs, o, u) == ix.mask(ancestors(cut, Z))


def test_masks_keep_the_proxy_edge_of_an_underlined_vertex(fig3):
    # CY -> CY* is the only path left open given CX and R_CY
    ix = fig3.index
    args = ix.mask({"CX", "R_CY"}), 0, ix.mask({"CY"})
    assert reaches(ix, ix.mask({"CY"}), ix.mask({"CY*"}), *args)
    assert reaches(ix, ix.mask({"CY*"}), ix.mask({"CY"}), *args)
