import functools
import json
import random
from collections import deque
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from mcdmg import (
    Derivation,
    GraphClass,
    MixedGraph,
    MutilationSpec,
    NotDerived,
    active_path,
    ancestors,
    as_cluster_graph,
    d_separated,
    d_separated_by_paths,
    fixture_text,
    mutilate,
    parse_graph,
    recover_effect,
    replay,
    rule_applicable,
)
from mcdmg import docalc, separation
from mcdmg.docalc import residual_masked_symbols
from mcdmg.errors import (
    DepthNonPositive,
    McdmgError,
    OverlappingSets,
    PreconditionError,
    UnknownRule,
    UnknownVertex,
)
from mcdmg.expressions import (
    One,
    Product,
    Quotient,
    Sum,
    Term,
    _children,
    canonical,
    proxy,
    render,
    rzero,
    term,
    terms_of,
    val,
)
from test_expressions import atoms, exprs, terms
from tests_support import (
    FIXTURE_QUERIES,
    indicator_out_text,
    random_cluster_text,
    reference_holds,
    reference_replay,
    reference_statement,
    replace_term,
    search_hashes,
    unknown_symbol_queries,
)


def test_rule1_insert_ry_fig2b(fig2b):
    cert = rule_applicable(fig2b, "R1", {"CY"}, {"R_CY"}, {"CX"}, set())
    assert cert.holds
    assert cert.overline == ("CX",)


def test_rule2_fig3(fig3):
    cert = rule_applicable(fig3, "R2", {"CY*"}, {"CX"}, set(), {"R_CY", "CZ"})
    assert cert.holds
    assert cert.underline == ("CX",)


def test_rule3_fig3(fig3):
    cert = rule_applicable(fig3, "R3", {"CZ"}, {"CX"}, set(), {"R_CY"})
    assert cert.holds
    # CX is a non-ancestor of R_CY, so it lands in the overline set
    assert cert.overline == ("CX",)


def test_rule3_ancestor_case(fig3):
    # CX is an ancestor of CY, so X(W) is empty and the graph is unmutilated
    cert = rule_applicable(fig3, "R3", {"CZ"}, {"CX"}, set(), {"CY"})
    assert cert.overline == ()


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False), st.sampled_from(["R1", "R2", "R3"]))
def test_mask_certificates_match_the_mutilated_graph(rng, rule):
    """The certificate, decided on edge masks, agrees with the path oracle
    on the graph `mutilate` builds for the recorded overline and underline."""
    g = parse_graph(random_cluster_text(rng))
    movable = sorted(g.clusters) + (sorted(g.indicators) if rule == "R1" else [])
    X = set(rng.sample(movable, rng.randint(1, min(2, len(movable)))))
    Z = {c for c in g.clusters if c not in X and rng.random() < 0.4}
    rest = sorted(g.ids - X - Z)
    Y = set(rng.sample(rest, rng.randint(1, min(2, len(rest))))) if rest else set()
    W = {v for v in rest if v not in Y and rng.random() < 0.3}
    cert = rule_applicable(g, rule, Y, X, Z, W)
    if rule == "R3":
        above_w = ancestors(mutilate(g, MutilationSpec.of(overline=Z)), W)
        assert cert.overline == tuple(sorted(Z | {x for x in X if x not in above_w}))
    cut = mutilate(g, MutilationSpec.of(cert.overline, cert.underline))
    assert cert.holds == d_separated_by_paths(cut, Y, X, Z | W)
    for graph in (g, cut):
        assert d_separated(graph, Y, X, Z | W) == (active_path(graph, Y, X, Z | W) is None)


@pytest.mark.parametrize(
    "rule,Y,X,Z,W,holds",
    [
        # CY is underlined; its edge into the proxy CY* survives, and is the
        # only path left open
        ("R2", {"CY*"}, {"CY"}, set(), {"CX", "R_CY"}, False),
        # CZ is overlined, and so loses CZ <-> CY and CZ <-> R_CY
        ("R1", {"CY"}, {"R_CY"}, {"CZ"}, set(), True),
    ],
)
def test_mask_mutilation_keeps_proxy_edges_and_cuts_bidirected(fig3, rule, Y, X, Z, W, holds):
    cert = rule_applicable(fig3, rule, Y, X, Z, W)
    cut = mutilate(fig3, MutilationSpec.of(cert.overline, cert.underline))
    assert cert.holds is holds is d_separated_by_paths(cut, Y, X, Z | W)


@pytest.mark.parametrize("name", ["fig2a", "fig3"])
def test_search_builds_no_mutilated_graph(name, request, monkeypatch):
    g = request.getfixturevalue(name)

    def refuse(*args, **kwargs):
        raise AssertionError("a graph was built during the search")

    monkeypatch.setattr(separation, "mutilate", refuse)
    monkeypatch.setattr(MixedGraph, "__init__", refuse)
    d = recover_effect(g, {"CX"}, {"CY"})
    assert isinstance(d, Derivation) and replay(g, d).ok


def test_rule_rejects_overlap(fig2b):
    with pytest.raises(OverlappingSets):
        rule_applicable(fig2b, "R1", {"CY"}, {"CY"}, set(), set())


def test_rule_rejects_indicator_intervention(fig2b):
    with pytest.raises(UnknownVertex):
        rule_applicable(fig2b, "R2", {"CY"}, {"R_CY"}, set(), set())


EXAMPLE2_RESULT = term(
    [proxy("CY")], cond=[proxy("CX"), rzero("R_CX"), rzero("R_CY")]
)

EXAMPLE3_RESULT = Sum(
    val("CZ"),
    Product(
        (
            term([proxy("CY")], cond=[val("CX"), val("CZ"), rzero("R_CY")]),
            term([val("CZ")], cond=[rzero("R_CY")]),
        )
    ),
)


def test_recover_effect_fig2b(fig2b):
    d = recover_effect(fig2b, {"CX"}, {"CY"}, depth=12)
    assert isinstance(d, Derivation)
    assert canonical(d.result) == canonical(EXAMPLE2_RESULT)
    assert len(d.steps) <= 12
    assert residual_masked_symbols(fig2b, d.result) == ()


def test_recover_effect_fig3(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"}, depth=12)
    assert isinstance(d, Derivation)
    assert canonical(d.result) == canonical(EXAMPLE3_RESULT)
    # CX is fully observed in fig3: it may stay a true symbol
    assert residual_masked_symbols(fig3, d.result) == ()


def test_recover_effect_trivial_chain():
    g = parse_graph(
        'graph "chain" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n  cluster CY { vars Y1 }\n  edge CX -> CY\n}\n"
    )
    d = recover_effect(g, {"CX"}, {"CY"})
    assert isinstance(d, Derivation)
    assert canonical(d.result) == canonical(term([val("CY")], cond=[val("CX")]))


def test_recover_effect_unblockable():
    # latent confounding with a masked treatment that censors itself
    g = parse_graph(
        'graph "stuck" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n  cluster CY { vars Y1 }\n"
        "  rvar R_CY for CY\n"
        "  edge CX -> CY\n  edge CX <-> CY\n  edge CY <-> R_CY\n"
        "}\n"
    )
    out = recover_effect(g, {"CX"}, {"CY"}, depth=6)
    assert isinstance(out, NotDerived)
    assert out.depth == 6 and out.states_explored > 0


def test_recover_effect_refuses_a_bare_string(fig2b):
    # read as a set of characters, "CX" would fail on the vertex 'C'
    with pytest.raises(PreconditionError, match="treatment .* not the string 'CX'"):
        recover_effect(fig2b, "CX", "CY")
    with pytest.raises(PreconditionError, match="outcome .* not the string 'CY'"):
        recover_effect(fig2b, {"CX"}, "CY")


def test_rule_applicable_refuses_a_bare_string(fig2b):
    # read as sets of characters, "CY" and "CX" would overlap in 'C'
    with pytest.raises(PreconditionError, match="Y .* not the string 'CY'"):
        rule_applicable(fig2b, "R2", "CY", "CX", (), ())
    with pytest.raises(PreconditionError, match="W .* not the string 'R_CY'"):
        rule_applicable(fig2b, "R1", {"CY"}, {"CX"}, (), "R_CY")


def test_depth_validation(fig2a, fig2b):
    # a float depth used to lift the bound: on fig2a, depth=3.5 returned 7 steps
    for g, depth in ((fig2b, 0), (fig2b, -1), (fig2a, 3.5), (fig2a, "3"), (fig2a, None)):
        with pytest.raises(DepthNonPositive, match="depth must be an integer >= 1"):
            recover_effect(g, {"CX"}, {"CY"}, depth=depth)


def test_depth_accepts_a_numpy_integer(fig2a):
    np = pytest.importorskip("numpy")
    for depth in (3, 8):
        want = recover_effect(fig2a, {"CX"}, {"CY"}, depth=depth).to_json()
        got = recover_effect(fig2a, {"CX"}, {"CY"}, depth=np.int64(depth)).to_json()
        assert json.dumps(got) == json.dumps(want)


def test_search_determinism(fig3):
    a = recover_effect(fig3, {"CX"}, {"CY"}).to_json()
    b = recover_effect(fig3, {"CX"}, {"CY"}).to_json()
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_depth_monotonicity(fig3):
    shallow = recover_effect(fig3, {"CX"}, {"CY"}, depth=5)
    deep = recover_effect(fig3, {"CX"}, {"CY"}, depth=12)
    assert isinstance(shallow, Derivation) and isinstance(deep, Derivation)
    assert shallow.to_json()["steps"] == deep.to_json()["steps"]


def test_replay_own_graph(fig2b, fig3):
    for g in (fig2b, fig3):
        d = recover_effect(g, {"CX"}, {"CY"})
        assert replay(g, d).ok


def test_replay_across_graphs(fig2b, fig3):
    d = recover_effect(fig2b, {"CX"}, {"CY"})
    result = replay(fig3, d)
    assert not result.ok
    # the first failing step is the do-exchange: the back-door path through
    # CZ <-> CY is open on fig3
    failing = d.steps[result.failed_at - 1]
    assert failing.rule == "R2"


def test_replay_empty_derivation(fig2b):
    d = Derivation(fig2b.name, canonical(term([val("CZ")])), ())
    assert replay(fig2b, d).ok


def test_replay_json_round_trip(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    again = Derivation.from_json(json.loads(json.dumps(d.to_json())))
    assert replay(fig3, again).ok


def _tampered(d, i, **changes):
    steps = list(d.steps)
    steps[i - 1] = steps[i - 1]._replace(**changes)
    return d._replace(steps=tuple(steps))


def test_replay_rejects_a_step_that_does_not_continue(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    bad = _tampered(d, 3, before=d.steps[1].before)
    assert replay(fig3, bad).to_json() == {
        "ok": False,
        "failed_at": 3,
        "reason": "step does not continue the previous expression",
    }


def test_replay_rejects_a_rewrite_that_is_no_candidate(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    # step 2 is a ProxyEq1 substitution; its result is replaced by its input
    assert d.steps[1].rule == "ProxyEq1"
    bad = _tampered(d, 2, after=d.steps[1].before)
    assert replay(fig3, bad).to_json() == {
        "ok": False,
        "failed_at": 2,
        "reason": "rewrite is not canonical-form-checkable",
    }


def test_replay_rejects_a_certificate_of_another_move(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    # the R2 step's certificate holds on fig3 but does not justify the R1 step
    assert (d.steps[0].rule, d.steps[3].rule) == ("R1", "R2")
    bad = _tampered(d, 1, certificate=d.steps[3].certificate)
    assert replay(fig3, bad).to_json() == {
        "ok": False,
        "failed_at": 1,
        "reason": "rewrite is not canonical-form-checkable",
    }


def test_replay_rejects_an_unknown_rule(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    assert d.steps[0].certificate is not None
    bad = _tampered(d, 1, certificate=d.steps[0].certificate._replace(rule="R9"))
    assert replay(fig3, bad).to_json() == {
        "ok": False,
        "failed_at": 1,
        "reason": "unknown rule 'R9'",
    }


@pytest.mark.parametrize(
    "field,value",
    [("holds", False), ("holds", "yes"), ("overline", ["CY", "R_CY"]), ("underline", ["CZ"])],
)
def test_replay_rejects_a_certificate_that_differs_from_the_computed_one(fig3, field, value):
    """The statement (rule, y, x, z, w) still holds on fig3; another field of
    the recorded certificate is changed."""
    doc = recover_effect(fig3, {"CX"}, {"CY"}).to_json()
    doc["steps"][0]["certificate"][field] = value
    assert replay(fig3, Derivation.from_json(doc)).to_json() == {
        "ok": False,
        "failed_at": 1,
        "reason": "recorded R1 certificate differs from the one computed on fig3",
    }


def test_replay_rejects_an_unobservable_result(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    cut = d._replace(steps=d.steps[:2])
    assert render(cut.result) == "P(c_CY* | do(c_CX), R_CY=0)"
    assert replay(fig3, cut).to_json() == {
        "ok": False,
        "failed_at": 2,
        "reason": "result is not observable on fig3",
    }


def test_replay_fails_an_empty_derivation_of_an_unobservable_query_at_0(fig3):
    # no step to blame: failed_at 0 names the query itself
    d = Derivation(fig3.name, canonical(term([val("CY")], do=[val("CX")])), ())
    assert replay(fig3, d).to_json() == {
        "ok": False,
        "failed_at": 0,
        "reason": "result is not observable on fig3",
    }


@pytest.mark.parametrize("query,reason", unknown_symbol_queries())
def test_replay_rejects_a_symbol_the_graph_lacks(fig3, query, reason):
    d = Derivation(fig3.name, canonical(query), ())
    assert replay(fig3, d).to_json() == {"ok": False, "failed_at": 0, "reason": reason}


def test_unknown_rule_is_checked_first(fig3):
    # overlapping sets and an unknown vertex would each be refused too
    with pytest.raises(UnknownRule, match="unknown rule 'R9'") as info:
        rule_applicable(fig3, "R9", {"CY"}, {"CY"}, {"nope"}, set())
    assert isinstance(info.value, McdmgError) and isinstance(info.value, ValueError)


REPLAY_MATRIX = {
    ("fig2a", "fig2a"): (True, None, ""),
    ("fig2a", "fig2b"): (False, 1, "unknown vertex 'R_Y1'"),
    ("fig2a", "fig3"): (False, 1, "unknown vertex 'R_Y1'"),
    ("fig2b", "fig2a"): (False, 1, "unknown vertex 'R_CY'"),
    ("fig2b", "fig2b"): (True, None, ""),
    ("fig2b", "fig3"): (False, 2, "R2 certificate fails on fig3"),
    ("fig3", "fig2a"): (False, 1, "unknown vertex 'R_CY'"),
    ("fig3", "fig2b"): (False, 5, "R3 certificate fails on fig2b"),
    ("fig3", "fig3"): (True, None, ""),
}


@pytest.mark.parametrize("made_on,replayed_on", sorted(REPLAY_MATRIX))
def test_replay_verdict_matrix(made_on, replayed_on, request):
    d = recover_effect(request.getfixturevalue(made_on), {"CX"}, {"CY"})
    ok, failed_at, reason = REPLAY_MATRIX[made_on, replayed_on]
    got = replay(request.getfixturevalue(replayed_on), d).to_json()
    assert got == {"ok": ok, "failed_at": failed_at, "reason": reason}


@pytest.mark.parametrize("name", ["fig2a", "fig2b", "fig3"])
def test_replay_checks_each_certificate_once(name, request, monkeypatch):
    g = request.getfixturevalue(name)
    d = recover_effect(g, {"CX"}, {"CY"})
    calls = []

    def counted(*args):
        calls.append(args)
        return rule_applicable(*args)

    monkeypatch.setattr(docalc, "rule_applicable", counted)
    assert replay(g, d).ok
    assert len(calls) == sum(s.certificate is not None for s in d.steps) > 0


def test_replay_takes_moves_from_an_observable_state(fig3):
    """A derivation may go on from an observable expression, which has no
    unobservable term to span: each legal move from fig3's observable
    P(CX, CZ), all of whose results are observable, replays."""
    query = canonical(term([val("CX"), val("CZ")]))
    replayed = 0
    for rule, params, statement, new, path in _moves(fig3, query):
        cert = None if statement is None else _validated_certificate(fig3, statement)
        if cert is not None and not cert.holds:
            continue
        after = docalc._successor(query, path, new)
        d = Derivation("fig3", query, (docalc.Step(rule, params, query, after, cert),))
        assert docalc._observable(fig3, after) and replay(fig3, d).ok
        replayed += 1
    assert replayed


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_found_derivations_replay_on_their_graph(rng, indicator_out):
    g = parse_graph((indicator_out_text if indicator_out else random_cluster_text)(rng))
    treatment, outcome = rng.sample(sorted(g.clusters), 2)
    d = recover_effect(g, {treatment}, {outcome}, depth=4)
    if isinstance(d, Derivation):
        assert replay(g, d).ok


def test_certificates_recorded(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    rules = [s.rule for s in d.steps]
    assert rules.count("R1") >= 1 and "R2" in rules and "R3" in rules
    for s in d.steps:
        if s.rule in ("R1", "R2", "R3"):
            assert s.certificate is not None and s.certificate.holds
        else:
            assert s.certificate is None


MASKED_ADJUSTMENT_SRC = (
    'graph "madj" class=cm-c-dmg {\n'
    "  cluster C0 { vars A1, A2 }\n"
    "  cluster C1 { vars B1, B2 }\n"
    "  cluster C2 { vars D1, D2 }\n"
    "  rvar R_C1 for C1\n"
    "  rvar R_C2 for C2\n"
    "  edge C0 -> C2\n"
    "  edge C1 -> C2\n"
    "  edge C0 <-> C1\n"
    "  edge C0 <-> R_C1\n"
    "}\n"
)


def test_adjustment_over_masked_cluster_is_sound():
    """Deriving through a partially observed adjustment set sums over a
    bound symbol whose proxy alias must stay captured by the binder."""
    import itertools

    from mcdmg import Budget, Grounding, enumerate_compatible, random_scm
    from mcdmg.oracle import check

    g = parse_graph(MASKED_ADJUSTMENT_SRC)
    d = recover_effect(g, {"C0"}, {"C2"}, depth=10)
    assert isinstance(d, Derivation)
    for madmg in itertools.islice(enumerate_compatible(g, budget=Budget(2, 12)), 2):
        for seed in (1, 2):
            scm = random_scm(madmg, seed=seed)
            gr = Grounding.from_scm(scm, abstract=g)
            atoms, errors = check(d.result, scm, gr, effect=("C0", "C2"))
            # the formula is a function of treatment and outcome alone
            assert sorted(a.ref for a in atoms) == ["C0", "C2"]
            assert errors and max(errors.values()) <= 1e-9


def test_random_derivations_sound_against_oracle():
    import itertools
    import random as _random

    from mcdmg import (
        Budget,
        Clustering,
        GraphClass,
        Grounding,
        Kind,
        MixedGraph,
        Vertex,
        enumerate_compatible,
        random_scm,
    )
    from mcdmg.errors import BudgetTooSmall
    from mcdmg.graphs import validate
    from mcdmg.oracle import check

    rng = _random.Random(9001)
    derived = 0
    for _ in range(60):
        k = rng.randint(2, 3)
        clusters = [f"C{i}" for i in range(k)]
        members = {c: [f"{c}a", f"{c}b"] for c in clusters}
        verts = [Vertex(c, Kind.CLUSTER) for c in clusters]
        rvars = [(f"R_{c}", c) for c in clusters if rng.random() < 0.5]
        verts += [Vertex(r, Kind.INDICATOR, o) for r, o in rvars]
        directed, bidirected = set(), set()
        for a in clusters:
            for b in clusters:
                if a != b and rng.random() < 0.35:
                    directed.add((a, b))
        for a in clusters:
            for r, o in rvars:
                if a != o and rng.random() < 0.25:
                    directed.add((a, r))
                if rng.random() < 0.15:
                    bidirected.add(tuple(sorted((a, r))))
        for i, a in enumerate(clusters):
            for b in clusters[i + 1 :]:
                if rng.random() < 0.2:
                    bidirected.add((a, b))
        g = MixedGraph.build(
            "rnd",
            GraphClass.CMCDMG,
            verts,
            directed,
            bidirected,
            clustering=Clustering.from_dict(members),
        )
        if validate(g):
            continue
        treat, outc = rng.sample(clusters, 2)
        d = recover_effect(g, {treat}, {outc}, depth=10)
        if isinstance(d, NotDerived):
            continue
        derived += 1
        try:
            madmg = next(iter(enumerate_compatible(g, budget=Budget(2, 12))))
        except BudgetTooSmall:
            continue
        scm = random_scm(madmg, seed=1)
        gr = Grounding.from_scm(scm, abstract=g)
        atoms, errors = check(d.result, scm, gr, effect=(treat, outc))
        assert sorted(a.ref for a in atoms) == sorted([treat, outc])
        assert errors and max(errors.values()) <= 1e-9, (sorted(directed), sorted(bidirected))
    assert derived >= 25


def test_search_matches_golden_hashes():
    """The search's JSON on the fixtures and 60 random graphs, pinned as made
    by the memo-free search (`tests_support.search_hashes` regenerates it)."""
    golden = json.loads((Path(__file__).parent / "golden_search.json").read_text())
    assert search_hashes() == golden


def _node_at(e, path):
    """The node the child positions ``path`` lead to from ``e``."""
    for i in path:
        e = _children(e)[i]
    return e


def _moves(g, e):
    """Every candidate move of ``e`` on ``g`` as ``(rule, params, statement,
    new, path)``, listed by `_rewrites` without a memo and without the
    last-level skips."""
    observable = lambda t: docalc._term_observable(g, t)
    candidates = lambda x: docalc._candidates(g, x)
    for rule, params, statement, new, _, path, _ in docalc._rewrites(e, candidates, observable, False):
        yield rule, params, statement, new, path


def _validated_certificate(g, statement):
    """`rule_applicable` on the vertex ids of a `_certify` statement."""
    rule, *sets = statement
    return rule_applicable(g, rule, *map(g.index.ids_of, sets))


def reference_search(g, treatment, outcome, depth):
    """Memo-free breadth-first search: every candidate of every state is
    checked afresh by `rule_applicable`, in `_rewrites` order, and each
    successor is rebuilt whole by `replace_term` and `canonical` instead of
    by `_successor`."""
    query = canonical(term(outcomes={val(outcome)}, do={val(treatment)}))
    seen, frontier, explored = {query}, deque([(query, ())]), 0
    while frontier:
        expr, steps = frontier.popleft()
        explored += 1
        if docalc._observable(g, expr):
            return Derivation(g.name, query, steps)
        if len(steps) >= depth:
            continue
        for rule, params, statement, new, path in _moves(g, expr):
            cert = None
            if statement is not None:
                cert = _validated_certificate(g, statement)
                if not cert.holds:
                    continue
            nxt = canonical(replace_term(expr, _node_at(expr, path), new))
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, steps + (docalc.Step(rule, params, expr, nxt, cert),)))
    return NotDerived(query, depth, explored)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_memoized_search_matches_reference(rng):
    g = parse_graph(random_cluster_text(rng))
    treatment, outcome = rng.sample(sorted(g.clusters), 2)
    got = recover_effect(g, {treatment}, {outcome}, depth=4)
    want = reference_search(g, treatment, outcome, 4)
    if isinstance(want, Derivation):
        assert got.to_json() == want.to_json()
    else:
        # the search expands states up to depth - 1 only: it counts what the
        # reference pops at depth - 1
        shallower = reference_search(g, treatment, outcome, 3)
        assert isinstance(got, NotDerived) and isinstance(shallower, NotDerived)
        assert got.to_json() == {**want.to_json(), "states_explored": shallower.states_explored}


def test_search_checks_each_term_once(fig2a, monkeypatch):
    """Within one search, each node's candidates are listed once, each sum
    collapses once, and each distinct statement is decided once, by the
    certificate core `_certify`; the validated `rule_applicable` is left to
    callers outside the search."""
    listed, decided, sums, offered = [], [], [], []
    candidates, certify = docalc._candidates, docalc._certify
    collapse, rewritable = docalc.collapse, docalc._rewritable

    def counted_candidates(g, x):
        listed.append(x)
        return candidates(g, x)

    def counted_certify(g, statement):
        decided.append(statement)
        return certify(g, statement)

    def counted_collapse(s):
        sums.append(s)
        return collapse(s)

    def counted_rewritable(e, *args):
        found = rewritable(e, *args)
        offered.extend(x for x in found[0] if isinstance(x, Sum))
        return found

    def refuse(*args):
        raise AssertionError("the search called the validated rule_applicable")

    monkeypatch.setattr(docalc, "_candidates", counted_candidates)
    monkeypatch.setattr(docalc, "_certify", counted_certify)
    monkeypatch.setattr(docalc, "collapse", counted_collapse)
    monkeypatch.setattr(docalc, "_rewritable", counted_rewritable)
    monkeypatch.setattr(docalc, "rule_applicable", refuse)
    assert isinstance(recover_effect(fig2a, {"CX"}, {"CY"}, depth=8), Derivation)
    assert decided and len(set(decided)) == len(decided)
    assert listed and len(set(listed)) == len(listed)
    assert sums and len(set(sums)) == len(sums)

    # fig2a's search meets each sum in one state only; on the sixth random
    # graph of the golden corpus sums recur, and still collapse once each
    # (a sum off the span at the last level is not collapsed at all)
    g, treatment, outcome = _golden_random_query(6)
    for found in (listed, decided, sums, offered):
        found.clear()
    recover_effect(g, {treatment}, {outcome}, depth=5)
    assert len(offered) > len(set(offered)) >= len(sums) == len(set(sums)) > 0
    assert decided and len(set(decided)) == len(decided)
    assert len(set(listed)) == len(listed)


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_search_certificates_equal_rule_applicable(rng, indicator_out):
    """Every certificate a search `Step` carries, decided by the mask core,
    equals what the validated `rule_applicable` gives for its statement, in
    every field."""
    g = parse_graph((indicator_out_text if indicator_out else random_cluster_text)(rng))
    treatment, outcome = rng.sample(sorted(g.clusters), 2)
    d = recover_effect(g, {treatment}, {outcome}, depth=4)
    for step in getattr(d, "steps", ()):
        c = step.certificate
        if c is not None:
            assert c == rule_applicable(g, c.rule, c.y, c.x, c.z, c.w)


@settings(max_examples=25, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_certificate_core_matches_rule_applicable_on_every_candidate(rng, indicator_out):
    """For every do-calculus candidate of every state within two moves of the
    query, the certificate `_certify` decides for the statement the search
    lists is the one `rule_applicable` gives for the id-level reference
    statement (`reference_statement`), whether it holds or not, and it holds
    exactly when every simple path of the mutilated graph is blocked."""
    g = parse_graph((indicator_out_text if indicator_out else random_cluster_text)(rng))
    treatment, outcome = rng.sample(sorted(g.clusters), 2)
    checked = 0
    for e in _states_within(g, treatment, outcome, 2):
        for rule, params, statement, _, path in _moves(g, e):
            if statement is None:
                continue
            sets = reference_statement(g, _node_at(e, path), rule, params)
            cert = docalc._certify(g, statement)
            assert cert == rule_applicable(g, rule, *sets)
            assert cert.holds == reference_holds(g, rule, *sets)
            checked += 1
    assert checked


@pytest.mark.parametrize(
    "rule,Y,X,Z,W,error,message",
    [
        ("R1", {"CY"}, {"CY"}, set(), set(), OverlappingSets, "rule sets must be pairwise disjoint"),
        ("R2", {"CY"}, {"R_CY"}, set(), set(), UnknownVertex, "indicator 'R_CY' cannot be intervened on"),
        ("R3", {"CY"}, {"R_CY"}, set(), set(), UnknownVertex, "indicator 'R_CY' cannot be intervened on"),
        ("R1", {"CY"}, {"CX"}, {"R_CY"}, set(), UnknownVertex, "indicator 'R_CY' cannot be intervened on"),
        ("R1", {"CY"}, {"CX"}, {"CY*"}, set(), UnknownVertex, "proxy 'CY*' cannot be mutilated"),
        ("R2", {"CY"}, {"CX*"}, set(), set(), UnknownVertex, "proxy 'CX*' cannot be mutilated"),
        ("R3", {"CY"}, {"CX"}, {"CX*"}, set(), UnknownVertex, "proxy 'CX*' cannot be mutilated"),
    ],
)
def test_certificate_core_keeps_every_refusal(fig2b, rule, Y, X, Z, W, error, message):
    """The mask core refuses what `rule_applicable` refuses, with the same
    message."""
    statement = (rule, *(fig2b.index.mask(s) for s in (Y, X, Z, W)))
    for check in (lambda: rule_applicable(fig2b, rule, Y, X, Z, W), lambda: docalc._certify(fig2b, statement)):
        with pytest.raises(error) as info:
            check()
        assert str(info.value) == message


def _golden_random_query(k):
    """The k-th (1-based) random graph of the golden search corpus, with its
    (treatment, outcome)."""
    rng = random.Random(20261018)
    for _ in range(k):
        g = parse_graph(random_cluster_text(rng))
        treatment, outcome = rng.sample(sorted(g.clusters), 2)
    return g, treatment, outcome


def test_search_makes_a_step_only_for_kept_states(fig2a, monkeypatch):
    """A `Step` is made for each successor not already seen that is kept
    (within depth moves of the query) or returned (observable), and for no
    duplicate: counted against the successors `_successor` builds."""
    made, counts = [], {"kept": 0, "all": 0}
    step, successor = docalc.Step, docalc._successor

    def counted_step(*args):
        made.append(args)
        return step(*args)

    def counted_successor(expr, path, new):
        nxt = successor(expr, path, new)
        if not depth_of:
            depth_of[expr] = 0  # the query, the first state expanded
        counts["all"] += 1
        if nxt not in depth_of:
            depth_of[nxt] = depth_of[expr] + 1
            counts["kept"] += depth_of[nxt] < depth or docalc._observable(graph, nxt)
        return nxt

    monkeypatch.setattr(docalc, "Step", counted_step)
    monkeypatch.setattr(docalc, "_successor", counted_successor)
    g, treatment, outcome = _golden_random_query(6)
    for graph, t, o, depth in ((fig2a, "CX", "CY", 8), (g, treatment, outcome, 5)):
        depth_of = {}
        made.clear()
        counts.update(kept=0, all=0)
        recover_effect(graph, {t}, {o}, depth=depth)
        assert len(made) == counts["kept"] < counts["all"]


# trees with equal subtrees in several places, so that the node a rewrite
# replaces may have later equal occurrences
_t = term([val("A")], cond=[val("B")])
_repeating = st.one_of(
    exprs,
    st.builds(lambda x: Product((x, x)), exprs),
    st.builds(lambda a, x: Product((Sum(a, x), Sum(a, x))), atoms, exprs),
    st.builds(lambda a, x: Quotient(Sum(a, Product((x, _t))), Product((_t, Sum(a, x)))), atoms, exprs),
)


@settings(max_examples=300, deadline=None)
@given(_repeating, exprs, st.data())
def test_successor_matches_whole_rebuild(e, new, data):
    c = canonical(e)
    firsts = {}
    for path, x in _paths(c):
        firsts.setdefault(x, path)
    old = data.draw(st.sampled_from(list(firsts)))
    assert docalc._successor(c, firsts[old], canonical(new)) == canonical(replace_term(c, old, new))


def _paths(e, path=()):
    """``(path, node)`` for every node of the tree, in pre-order."""
    yield path, e
    for i, sub in enumerate(_children(e)):
        yield from _paths(sub, (*path, i))


@settings(max_examples=300, deadline=None)
@given(_repeating, terms, terms, exprs, st.data())
def test_rewritable_paths_lead_to_first_occurrences(e, a, b, other, data):
    """Each node `_rewritable` offers, terms first and then sums, maps to the
    path of its first pre-order occurrence, and `_successor` along that path
    is the whole-tree rebuild: for a product that must be flattened, for
    ``One``, which drops a factor, and for any other canonical tree."""
    c = canonical(e)
    firsts = {}
    for path, x in _paths(c):
        firsts.setdefault(x, path)
    paths = docalc._rewritable(c, _no_do)[0]
    offered = [x for x in firsts if isinstance(x, Term)] + [x for x in firsts if isinstance(x, Sum)]
    assert list(paths) == offered
    assert paths == {x: firsts[x] for x in paths}
    if not paths:  # the tree is One
        return
    old = data.draw(st.sampled_from(list(paths)))
    product = canonical(Product((a, b)))
    assert isinstance(product, Product)
    for new in (product, One(), canonical(other)):
        got = docalc._successor(c, paths[old], new)
        assert got == canonical(replace_term(c, old, new))


# numerator and denominator differ in one term, which no `exprs` tree holds
_d = term([val("D")])
_d_given_a = term([val("D")], cond=[val("A")])


@settings(max_examples=100, deadline=None)
@given(exprs, exprs, atoms)
def test_successor_reduces_a_quotient_whose_sides_meet(x, y, a):
    """Rewriting the numerator's one differing term makes it equal to the
    denominator: the quotient becomes ``One``, and the nodes above it are
    rebuilt around that."""
    q = Quotient(Product((x, _d)), Product((x, _d_given_a)))
    for e, expected in ((q, One()), (Sum(a, q), Sum(a, One())), (Product((y, q)), canonical(y))):
        c = canonical(e)
        got = docalc._successor(c, docalc._rewritable(c, _no_do)[0][_d], _d_given_a)
        assert got == expected == canonical(replace_term(c, _d, _d_given_a))



def _states_within(g, treatment, outcome, depth):
    """Every state within ``depth`` legal moves of the query, in breadth-first
    order."""
    query = canonical(term(outcomes={val(outcome)}, do={val(treatment)}))
    states, frontier = {query: None}, [query]
    for _ in range(depth):
        frontier = [
            docalc._successor(e, path, new)
            for e in frontier
            for _, _, statement, new, path in _moves(g, e)
            if statement is None or _validated_certificate(g, statement).holds
        ]
        frontier = list(dict.fromkeys(nxt for nxt in frontier if nxt not in states))
        states.update(dict.fromkeys(frontier))
    return list(states)


def _assert_span_predicate(e, observable, rewrites):
    """For each ``(path, new)`` rewrite of ``e``: when `_on_span` rules it out,
    the successor has a term that is not ``observable``; when it judges by
    the replacement (no quotient above the path), the successor is
    observable exactly when every term of ``new`` is. Returns how often it
    judged by the replacement."""
    nodes, span, quotient = docalc._rewritable(e, observable)
    assert span is not None, "a state the search expands has an unobservable term"
    judged = 0
    for path, new in rewrites:
        on_span = docalc._on_span(path, span, quotient)
        successor_observable = all(map(observable, terms_of(docalc._successor(e, path, new))))
        if on_span is False:
            assert not successor_observable
        elif on_span:
            judged += 1
            assert successor_observable == all(map(observable, terms_of(new)))
    return judged


def _unobservable_paths(e, observable):
    return [path for path, x in _paths(e) if isinstance(x, Term) and not observable(x)]


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.booleans())
def test_last_level_filter_skips_only_unobservable_successors(rng, indicator_out):
    """The span predicate, on every rewrite of every state within three
    moves of the query, legal or not, on graphs from both generators."""
    g = parse_graph((indicator_out_text if indicator_out else random_cluster_text)(rng))
    treatment, outcome = rng.sample(sorted(g.clusters), 2)
    observable = lambda t: docalc._term_observable(g, t)
    for e in _states_within(g, treatment, outcome, 3):
        if not _unobservable_paths(e, observable):
            continue  # a goal: the search returns it and expands nothing
        rewrites = [(path, new) for *_, new, path in _moves(g, e)]
        _assert_span_predicate(e, observable, rewrites)


# the predicate holds for any per-term predicate; this one calls a term
# observable when it has no do-set, so `_u` is not
_u = term([val("U")], do=[val("V")])


def _no_do(t):
    return not t.do


@settings(max_examples=300, deadline=None)
@given(_repeating)
def test_span_is_the_common_prefix_of_unobservable_terms(e):
    """`_rewritable`'s span is the longest prefix of every path to a term
    that is not observable, and its quotient the depth of the first quotient
    along that prefix, end included."""
    c = canonical(e)
    paths = _unobservable_paths(c, _no_do)
    _, span, quotient = docalc._rewritable(c, _no_do)
    if not paths:
        assert span is quotient is None
        return
    n = 0
    while all(len(p) > n and p[n] == paths[0][n] for p in paths):
        n += 1
    assert span == paths[0][:n]
    depths = [k for k in range(len(span) + 1) if isinstance(_node_at(c, span[:k]), Quotient)]
    assert quotient == (depths[0] if depths else None)


@settings(max_examples=100, deadline=None)
@given(exprs, exprs, atoms, exprs)
def test_last_level_filter_builds_a_quotient_whose_sides_meet(x, y, a, other):
    """Rewriting the numerator's one differing term turns the quotient into
    ``One`` and drops its unobservable terms, so the span predicate must
    leave it to the rebuilt successor; any other rewrite it rules out is
    unobservable too, and any it judges by the replacement is judged
    right."""
    q = Quotient(Product((x, _u, _d)), Product((x, _u, _d_given_a)))
    c = canonical(q)
    nodes, span, quotient = docalc._rewritable(c, _no_do)
    assert docalc._successor(c, nodes[_d], _d_given_a) == One()
    assert docalc._on_span(nodes[_d], span, quotient) is None
    for e in (q, Sum(a, q), Product((y, q))):
        c = canonical(e)
        paths = docalc._rewritable(c, _no_do)[0]
        news = (_d_given_a, One(), canonical(other))
        _assert_span_predicate(c, _no_do, [(path, new) for path in paths.values() for new in news])


@functools.lru_cache(maxsize=None)
def _golden_derivations():
    """(graph, derivation) for every derivation of the golden search corpus
    (`tests_support.search_hashes`): the six fixtures at depth 12 and 60
    random graphs at depth 5."""
    queries = []
    for name, (treatment, outcome) in FIXTURE_QUERIES.items():
        g = parse_graph(fixture_text(name))
        if g.graph_class in (GraphClass.ADMG, GraphClass.MADMG):
            g = as_cluster_graph(g)
        queries.append((g, treatment, outcome, 12))
    rng = random.Random(20261018)
    for _ in range(60):
        g = parse_graph(random_cluster_text(rng))
        queries.append((g, *rng.sample(sorted(g.clusters), 2), 5))
    found = ((g, recover_effect(g, {t}, {o}, depth=depth)) for g, t, o, depth in queries)
    return tuple((g, d) for g, d in found if isinstance(d, Derivation))


def test_replay_makes_only_the_recorded_moves(monkeypatch):
    """Every derivation of the golden corpus replays as the listing
    reference replays it, and replay never lists a node's candidates: it
    runs the recorded rule's builder alone."""
    corpus = _golden_derivations()
    assert len(corpus) >= 30 and sum(len(d.steps) for _, d in corpus) >= 60
    want = [reference_replay(g, d) for g, d in corpus]
    rules = []
    term_moves = docalc._term_moves

    def refuse(*args):
        raise AssertionError("replay listed a node's candidates")

    def recorded_only(g, t, rule=None):
        assert rule is not None, "replay chained every rule's builder"
        rules.append(rule)
        return term_moves(g, t, rule)

    monkeypatch.setattr(docalc, "_candidates", refuse)
    monkeypatch.setattr(docalc, "_term_moves", recorded_only)
    assert [replay(g, d) for g, d in corpus] == want
    assert all(want) and rules


_RULES = ("R1", "R2", "R3", "ProxyEq1", "TotalProb", "ChainRule", "Marginalize", "R4")


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_replay_matches_reference_on_tampered_derivations(data):
    """A golden-corpus derivation with one step tampered (another step's
    params, another candidate's result, a renamed rule, an edited or moved
    certificate, two steps swapped), replayed on its own graph or another
    corpus graph, gets the listing reference's `ReplayResult`."""
    corpus = _golden_derivations()
    g, d = data.draw(st.sampled_from([(g, d) for g, d in corpus if d.steps]))
    i = data.draw(st.integers(0, len(d.steps) - 1))
    steps = list(d.steps)
    step = steps[i]
    others = [s for _, e in corpus for s in e.steps]
    kind = data.draw(st.sampled_from(("params", "after", "rule", "certificate", "order", "graph")))
    if kind == "params":
        steps[i] = step._replace(params=data.draw(st.sampled_from(others)).params)
    elif kind == "after":
        successors = [docalc._successor(step.before, path, new) for *_, new, path in _moves(g, step.before)]
        steps[i] = step._replace(after=data.draw(st.sampled_from(successors)))
    elif kind == "rule":
        steps[i] = step._replace(rule=data.draw(st.sampled_from(_RULES)))
    elif kind == "certificate":
        c = step.certificate
        certificates = [s.certificate for s in others if s.certificate is not None]
        edits = [None, data.draw(st.sampled_from(certificates))]
        if c is not None:
            other_rule = "R3" if c.rule != "R3" else "R2"
            edits += [c._replace(holds=not c.holds), c._replace(z=c.w, w=c.z), c._replace(rule=other_rule)]
        steps[i] = step._replace(certificate=data.draw(st.sampled_from(edits)))
    elif kind == "order":
        j = data.draw(st.integers(0, len(steps) - 1))
        steps[i], steps[j] = steps[j], steps[i]
    else:
        g = data.draw(st.sampled_from(corpus))[0]
    tampered = d._replace(steps=tuple(steps))
    got = replay(g, tampered)
    assert got == reference_replay(g, tampered)
    event(f"{kind}: {got.reason or 'ok'}")
