"""Shared graphs, random-graph and random-walk generators for the tests."""

from mcdmg import GraphClass, Kind, MixedGraph, Vertex, Walk


def make_graph(n, directed, bidirected):
    names = [f"V{i}" for i in range(n)]
    return MixedGraph.build(
        "rnd",
        GraphClass.CDMG,
        [Vertex(v, Kind.CLUSTER) for v in names],
        directed=directed,
        bidirected=bidirected,
        clustering=None,
    )


def random_graph(rng, n):
    names = [f"V{i}" for i in range(n)]
    directed = [(a, b) for a in names for b in names if rng.random() < (2.2 / n)]
    bidirected = [
        (a, b)
        for i, a in enumerate(names)
        for b in names[i + 1 :]
        if rng.random() < (1.2 / n)
    ]
    return make_graph(n, directed, bidirected)


def random_query(rng, g):
    vs = sorted(v.id for v in g.vertices)
    rng.shuffle(vs)
    x, y = vs[0], vs[1]
    z = {v for v in vs[2:] if rng.random() < 0.4}
    return {x}, {y}, z


def all_small_graphs(n):
    """Every mixed graph on n cluster vertices: all directed-edge subsets
    (self-loops included) crossed with all bidirected-edge subsets."""
    names = [f"V{i}" for i in range(n)]
    dir_pairs = [(a, b) for a in names for b in names]
    bi_pairs = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    for dmask in range(1 << len(dir_pairs)):
        directed = [e for i, e in enumerate(dir_pairs) if dmask >> i & 1]
        for bmask in range(1 << len(bi_pairs)):
            bidirected = [e for i, e in enumerate(bi_pairs) if bmask >> i & 1]
            yield make_graph(n, directed, bidirected)


def random_walk(rng, g, max_len=8):
    moves = {}
    for v in (x.id for x in g.vertices):
        opts = [("->", b) for b in g.children(v)] + [("<-", a) for a in g.parents(v)]
        moves[v] = sorted(opts + [("<->", u) for u in g.spouses(v)])
    start = rng.choice(sorted(x.id for x in g.vertices))
    vs, es = [start], []
    for _ in range(rng.randint(1, max_len)):
        opts = moves[vs[-1]]
        if not opts:
            break
        sym, nxt = rng.choice(opts)
        es.append(sym)
        vs.append(nxt)
    if len(vs) == 1:
        return None
    return Walk(tuple(vs), tuple(es))


def random_cluster_text(rng):
    """A random c-dmg, m-c-dmg or cm-c-dmg in the graph file format.

    2-4 clusters of 1-2 variables; directed edges (self-loops and cycles
    included) and bidirected edges between clusters; indicators on one or
    two clusters, with directed and bidirected edges from clusters but none
    between indicators, as the joint-recovery test requires.
    """
    cls = rng.choice(["c-dmg", "m-c-dmg", "cm-c-dmg"])
    n = rng.randint(2, 4)
    names = [f"C{i}" for i in range(n)]
    members = {c: [f"V{c[1:]}_{m + 1}" for m in range(rng.randint(1, 2))] for c in names}
    lines = [f'graph "rnd" class={cls} {{']
    lines += [f"  cluster {c} {{ vars {', '.join(members[c])} }}" for c in names]
    indicators = []
    if cls != "c-dmg":
        for c in rng.sample(names, rng.randint(1, 2)):
            owners = [c] if cls == "cm-c-dmg" else rng.sample(members[c], rng.randint(1, len(members[c])))
            indicators += [(f"R_{o}", o) for o in owners]
    lines += [f"  rvar {r} for {o}" for r, o in indicators]
    for a in names:
        lines += [f"  edge {a} -> {b}" for b in names if rng.random() < 0.35]
        lines += [f"  edge {a} <-> {b}" for b in names if a < b and rng.random() < 0.2]
        for r, _ in indicators:
            roll = rng.random()
            if roll < 0.3:
                lines.append(f"  edge {a} -> {r}")
            elif roll < 0.4:
                lines.append(f"  edge {a} <-> {r}")
    return "\n".join(lines + ["}"]) + "\n"


def indicator_out_text(rng):
    """A random m-c-dmg or cm-c-dmg whose indicators may have children.

    2-3 clusters of 1-2 variables, indicators on one or two clusters, and
    between each cluster and indicator no edge, ``C -> R``, ``C <-> R`` or
    ``R -> C``; no edge joins two indicators, as `check_joint` requires.
    """
    cls = rng.choice(["m-c-dmg", "cm-c-dmg"])
    names = [f"C{i}" for i in range(rng.randint(2, 3))]
    members = {c: [f"V{c[1:]}_{m + 1}" for m in range(rng.randint(1, 2))] for c in names}
    lines = [f'graph "rout" class={cls} {{']
    lines += [f"  cluster {c} {{ vars {', '.join(members[c])} }}" for c in names]
    indicators = []
    for c in rng.sample(names, rng.randint(1, 2)):
        owners = [c] if cls == "cm-c-dmg" else rng.sample(members[c], rng.randint(1, len(members[c])))
        indicators += [f"R_{o}" for o in owners]
    lines += [f"  rvar {r} for {r[2:]}" for r in indicators]
    for a in names:
        lines += [f"  edge {a} -> {b}" for b in names if rng.random() < 0.3]
        lines += [f"  edge {a} <-> {b}" for b in names if a < b and rng.random() < 0.2]
        for r in indicators:
            edges = [None, f"{a} -> {r}", f"{a} <-> {r}", f"{r} -> {a}"]
            edge = rng.choices(edges, weights=[2, 1, 1, 2])[0]
            if edge:
                lines.append(f"  edge {edge}")
    return "\n".join(lines + ["}"]) + "\n"


# A cm-c-dmg with 13 abstract edges: no realization fits under 12 edges.
THIRTEEN_EDGES = """\
graph "rnd34" class=cm-c-dmg {
  cluster CL { vars L1 }
  cluster CE { vars E1, E2 }
  cluster CG { vars G1 }
  cluster CA { vars A1, A2 }
  cluster CK { vars K1 }
  rvar R_CA for CA
  edge CE -> CG
  edge CG <-> CL
  edge CG -> CL
  edge CK -> R_CA
  edge CK <-> CA
  edge CE -> CE
  edge CK -> CE
  edge CG -> CK
  edge CE -> CK
  edge CG -> CG
  edge CL -> CA
  edge CL -> CL
  edge CA -> CA
}
"""


# An m-c-dmg whose one abstract edge has 25 realizations: 2^25 - 1 subsets.
WIDE_POOL = """\
graph "wide" class=m-c-dmg {
  cluster CX { vars X1, X2, X3, X4, X5 }
  cluster CY { vars Y1, Y2, Y3, Y4, Y5 }
  edge CX -> CY
}
"""


# (treatment, outcome) per fixture, as the derive workload queries them; the
# variable-level fixtures are promoted to one cluster per variable
FIXTURE_QUERIES = {
    "fig1a": ("X1", "Y2"),
    "fig1b": ("X1", "Y2"),
    "fig1c": ("CX", "CY"),
    "fig2a": ("CX", "CY"),
    "fig2b": ("CX", "CY"),
    "fig3": ("CX", "CY"),
}


def unknown_symbol_queries():
    """Queries of zero-step fig3 derivations with a symbol that names nothing
    of its kind in fig3 (CZ is fully observed), each with the reason replay
    fails them for at step 0."""
    from mcdmg.expressions import proxy, rzero, term, val

    return [
        (term([val("NOPE")]), "c_NOPE names no substantive vertex of fig3"),
        (term([proxy("CZ")]), "c_CZ* names no partially observed vertex of fig3"),
        (term([rzero("R_NOPE")]), "R_NOPE=0 names no indicator of fig3"),
    ]


def replace_term(e, old, new):
    """``e`` with the first occurrence of the node ``old`` (in traversal
    order), a term or any subtree such as a sum, replaced by ``new``; the
    whole tree is rebuilt. The reference that ``docalc._successor``, which
    rebuilds only the path to the node, is checked against."""
    from mcdmg.errors import UnknownVertex
    from mcdmg.expressions import _children, _rebuild

    done = [False]

    def go(x):
        if done[0]:
            return x
        if x == old:
            done[0] = True
            return new
        return _rebuild(x, [go(sub) for sub in _children(x)])

    out = go(e)
    if not done[0]:
        raise UnknownVertex("term to replace not found in expression")
    return out


def reference_statement(g, t, rule, params):
    """The separation statement ``(Y, X, Z, W)``, as sets of vertex ids, of
    the do-calculus move ``(rule, params)`` of the term ``t``. Y holds the
    outcomes, X the moved atom, Z the rest of the do-set and W the rest of
    the conditioning set, each atom standing for its `atom_vertices`. The
    reference that the masks ``docalc._term_moves`` yields are checked
    against."""
    from mcdmg.docalc import atom_vertices
    from mcdmg.expressions import rzero

    (key, value), = params
    if key == "insert":
        moved = rzero(value)
    else:
        moved = next(a for a in (t.cond if key == "drop" else t.do) if a.render() == value)
    y = set().union(*(atom_vertices(g, a) for a in t.outcomes))
    x = set(atom_vertices(g, moved))
    z = {a.ref for a in t.do} - x
    w = set()
    for a in t.cond:
        if a != moved:
            w |= atom_vertices(g, a)
    return y, x, z, w - y - x - z


def reference_holds(g, rule, Y, X, Z, W):
    """Whether a do-calculus rule's statement holds, by enumerating every
    simple path of the mutilated graph (`d_separated_by_paths`). Rule 1
    mutilates over Z; rule 2 also under X; rule 3 over Z and over the X that
    are not ancestors of W in the graph over Z."""
    from mcdmg.separation import MutilationSpec, ancestors, d_separated_by_paths, mutilate

    over, under = set(Z), set()
    if rule == "R2":
        under = set(X)
    elif rule == "R3":
        over |= set(X) - ancestors(mutilate(g, MutilationSpec.of(Z)), W)
    return d_separated_by_paths(mutilate(g, MutilationSpec.of(over, under)), Y, X, set(Z) | set(W))


def reference_active_path(g, X, Y, Z):
    """A shortest active path between X and Y given Z, or None: breadth-first
    search over (vertex id, arrival mark) states, each vertex's moves sorted.
    The reference that ``separation.active_path``, which runs the same search
    over the positions of ``MixedGraph.index``, is checked against."""
    from collections import deque

    from mcdmg.separation import HEAD, _check_sets, _mark_at_next, _mark_at_prev, _moves, ancestors

    Xs, Ys, Zs = _check_sets(g, X, Y, Z)
    open_collider = ancestors(g, Zs) if Zs else frozenset()
    prev, queue = {}, deque()
    for x in sorted(Xs):
        for sym, target in sorted(_moves(g, x)):
            state = (target, _mark_at_next(sym))
            if state not in prev:
                prev[state] = (None, x, sym)
                queue.append(state)
    while queue:
        state = queue.popleft()
        v, mark = state
        if v in Ys:
            vs, es = [v], []
            while state is not None:
                state, u, sym = prev[state]
                vs.append(u)
                es.append(sym)
            return Walk(tuple(reversed(vs)), tuple(reversed(es)))
        for sym, target in sorted(_moves(g, v)):
            if mark == HEAD and _mark_at_prev(sym) == HEAD:
                if v not in open_collider:
                    continue
            elif v in Zs:
                continue
            nxt = (target, _mark_at_next(sym))
            if nxt not in prev:
                prev[nxt] = (state, v, sym)
                queue.append(nxt)
    return None


def reference_read(table, cols, index):
    """A term's read the long way: the marginal over ``cols`` (the whole
    table summed, then copied), indexed afterwards. ``index`` is as for
    `DistTable.read`: per column a level, a ``range`` of levels or None."""
    at = tuple(
        slice(None) if i is None else slice(i.start, i.stop, i.step) if isinstance(i, range) else i
        for i in index
    )
    return table.marginal(cols).probs[at]


def search_hashes(random_graphs=60, seed=20261018):
    """sha256 of the sorted-key ``recover_effect(...).to_json()`` per query.

    The six fixtures at depth 12, then ``random_graphs`` graphs of
    ``random_cluster_text`` from ``random.Random(seed)`` at depth 5, each with
    a (treatment, outcome) pair drawn from the same generator. Regenerate the
    golden file with ``PYTHONPATH=src:tests python -c "import json,
    tests_support as t; print(json.dumps(t.search_hashes(), indent=1))"``.
    """
    import hashlib
    import json
    import random

    from mcdmg import GraphClass, as_cluster_graph, fixture_text, parse_graph, recover_effect

    def digest(g, treatment, outcome, depth):
        out = recover_effect(g, {treatment}, {outcome}, depth=depth).to_json()
        return hashlib.sha256(json.dumps(out, sort_keys=True).encode()).hexdigest()

    fixtures = {}
    for name, (treatment, outcome) in FIXTURE_QUERIES.items():
        g = parse_graph(fixture_text(name))
        if g.graph_class in (GraphClass.ADMG, GraphClass.MADMG):
            g = as_cluster_graph(g)
        fixtures[name] = digest(g, treatment, outcome, 12)
    rng = random.Random(seed)
    graphs = []
    for _ in range(random_graphs):
        g = parse_graph(random_cluster_text(rng))
        treatment, outcome = rng.sample(sorted(g.clusters), 2)
        graphs.append(digest(g, treatment, outcome, 5))
    return {"fixtures": fixtures, "random": graphs}


def graph_hashes(random_graphs=200, seed=20261018):
    """sha256 per graph and output of the graph layer, keyed by graph.

    The six fixtures, then ``random_graphs`` graphs of ``random_cluster_text``
    from ``random.Random(seed)``. Per graph: the three emitters and
    ``_edge_set``; per vertex its parents, children, spouses, district,
    descendants, ancestors and cluster indicators; 5 seeded mutilations;
    ``merge_indicators``; the first 5 ``enumerate_compatible(Budget(2, 10))``
    graphs with ``project`` at both levels, ``is_compatible``,
    ``as_cluster_graph`` and the CPTs of ``random_scm(m, 1)`` rounded to 12
    places; ``check_joint`` with a ``construct_witness`` per violation; and
    ``as_cluster_graph``. A call that raises hashes as its exception. Regenerate
    the golden file with ``PYTHONPATH=src:tests python -c "import json,
    tests_support as t; print(json.dumps(t.graph_hashes(), indent=1))"``.
    """
    import hashlib
    import itertools
    import json
    import random

    import numpy as np

    from mcdmg import (
        Budget,
        GraphClass,
        MutilationSpec,
        ancestors,
        as_cluster_graph,
        check_joint,
        construct_witness,
        descendants,
        emit_dot,
        emit_graph,
        emit_json,
        enumerate_compatible,
        fixture_text,
        is_compatible,
        merge_indicators,
        mutilate,
        parse_graph,
        project,
        random_scm,
    )
    from mcdmg.abstraction import _edge_set
    from mcdmg.errors import McdmgError

    def plain(x):
        if isinstance(x, (set, frozenset)):
            return sorted(x)
        if hasattr(x, "value"):
            return x.value
        return repr(x)

    def digest(fn):
        try:
            out = fn()
        except McdmgError as exc:
            out = f"{type(exc).__name__}: {exc}"
        return hashlib.sha256(json.dumps(out, sort_keys=True, default=plain).encode()).hexdigest()

    def adjacency(g):
        return {
            v: [g.parents(v), g.children(v), g.spouses(v), g.district(v),
                descendants(g, {v}), ancestors(g, {v}), g.indicators_of_cluster(v)]
            for v in sorted(g.ids)
        }

    def scm_cpts(m):
        return [(n.name, n.parents, np.round(n.cpt, 12).tolist()) for n in random_scm(m, 1).nodes]

    def compatible(g):
        out = []
        for m in itertools.islice(enumerate_compatible(g, budget=Budget(2, 10)), 5):
            out.append({
                "graph": emit_json(m),
                "mcdmg": digest(lambda: emit_json(project(m, m.clustering, GraphClass.MCDMG))),
                "cmcdmg": digest(lambda: emit_json(project(m, m.clustering, GraphClass.CMCDMG))),
                # the report's repr, as `plain` gave it before reports became tuples
                "compatible": digest(lambda: repr(is_compatible(m, g))),
                "promoted": digest(lambda: emit_json(as_cluster_graph(m))),
                "scm": digest(lambda: scm_cpts(m)),
            })
        return out

    def joint(g):
        verdict = check_joint(g)
        witnesses = [digest(lambda: emit_json(construct_witness(g, v))) for v in verdict.violations]
        return [verdict.to_json(), witnesses]

    spec_rng = random.Random(seed + 1)

    def mutilations(g):
        vs = sorted(set(g.ids) - set(g.proxies))
        out = []
        for _ in range(5):
            spec = MutilationSpec.of(
                {v for v in vs if spec_rng.random() < 0.3},
                {v for v in vs if spec_rng.random() < 0.3},
            )
            cut = mutilate(g, spec)
            out.append([spec.remove_incoming, spec.remove_outgoing, emit_json(cut), adjacency(cut)])
        return out

    def row(g):
        return {
            "emit": digest(lambda: [emit_graph(g), emit_json(g), emit_dot(g)]),
            "edge_set": digest(lambda: _edge_set(g)),
            "adjacency": digest(lambda: [adjacency(g), g.partially_observed, g.fully_observed]),
            "mutilate": digest(lambda: mutilations(g)),
            "merge": digest(lambda: emit_json(merge_indicators(g))),
            "compatible": digest(lambda: compatible(g)),
            "joint": digest(lambda: joint(g)),
            "promoted": digest(lambda: emit_json(as_cluster_graph(g))),
        }

    rng = random.Random(seed)
    fixtures = {name: row(parse_graph(fixture_text(name))) for name in FIXTURE_QUERIES}
    graphs = [row(parse_graph(random_cluster_text(rng))) for _ in range(random_graphs)]
    return {"fixtures": fixtures, "random": graphs}


def malformed_graph_texts():
    """Graph files the CLI must reject: an unknown keyword in fig2b, fig2b cut
    before its closing brace, and a variable-level graph with a directed cycle
    (it parses but fails validation)."""
    from mcdmg import fixture_text

    lines = fixture_text("fig2b").splitlines()
    first_edge = next(i for i, line in enumerate(lines) if line.strip().startswith("edge"))
    garbage = lines[:first_edge] + ["  frobnicate X7"] + lines[first_edge + 1 :]
    truncated = lines[: max(i for i, line in enumerate(lines) if line.strip() == "}")]
    cycle = ["V0", "V1", "V2", "V3"]
    cyclic = ['graph "cyc" class=admg {'] + [f"  var {v}" for v in cycle]
    cyclic += [f"  edge {a} -> {b}" for a, b in zip(cycle, cycle[1:] + cycle[:1])] + ["}"]
    return {
        "garbage": "\n".join(garbage) + "\n",
        "truncated": "\n".join(truncated) + "\n",
        "cyclic": "\n".join(cyclic) + "\n",
    }


def value_corpus():
    """Objects of each public value type, built the same way in every
    process: per fixture the graph, its vertices and clustering, the cluster
    graph, a mutilation, `check_joint` with its violations, walks, blankets
    and witness graphs, and `recover_effect` at depth 5 with its steps,
    certificates, expression nodes and two replays (the whole derivation and
    its first step alone); the violations of 10 random cluster graphs; then
    budgets, compatibility reports, the violations of an invalid graph,
    fig2b's first compatible graph with its SCM, tables and grounding, and
    its next two."""
    import itertools
    import random

    from mcdmg import (
        Budget,
        Derivation,
        Grounding,
        MutilationSpec,
        active_path,
        as_cluster_graph,
        check_joint,
        construct_witness,
        enumerate_compatible,
        exact_tables,
        fixture_text,
        is_compatible,
        markov_blanket,
        mutilate,
        parse_graph,
        primary_path,
        random_scm,
        recover_effect,
        replay,
        validate,
    )
    from mcdmg.errors import McdmgError
    from mcdmg.expressions import One

    out = []

    def nodes(e):
        out.append(e)
        for name in ("body", "num", "den"):
            if hasattr(e, name):
                nodes(getattr(e, name))
        for f in getattr(e, "factors", ()):
            nodes(f)

    cluster_graphs = {}
    for name, (treatment, outcome) in FIXTURE_QUERIES.items():
        g = parse_graph(fixture_text(name))
        out += [g, *g.vertices, *([g.clustering] if g.clustering else [])]
        if g.graph_class in (GraphClass.ADMG, GraphClass.MADMG):
            g = as_cluster_graph(g)
            out += [g, g.clustering]
        cluster_graphs[name] = g
        spec = MutilationSpec.of({treatment}, {outcome})
        out += [spec, MutilationSpec(), mutilate(g, spec)]
        walk = active_path(g, {treatment}, {outcome}, set())
        if walk is not None:
            out += [walk, primary_path(walk)]
        if g.graph_class in (GraphClass.MCDMG, GraphClass.CMCDMG):
            verdict = check_joint(g)
            out.append(verdict)
            if verdict.formula is not None:
                nodes(verdict.formula)
            for v in verdict.violations:
                out += [v, v.witness, construct_witness(g, v)]
            for r in g.indicators:
                try:
                    out.append(markov_blanket(g, r))
                except McdmgError:
                    pass
        d = recover_effect(g, {treatment}, {outcome}, depth=5)
        out.append(d)
        nodes(d.query)
        if isinstance(d, Derivation):
            nodes(d.result)
            for s in d.steps:
                out.append(s)
                nodes(s.before)
                nodes(s.after)
                if s.certificate is not None:
                    out.append(s.certificate)
            out += [replay(g, d), replay(g, Derivation(d.graph_name, d.query, d.steps[:1]))]
    rng = random.Random(5)
    for _ in range(10):
        g = parse_graph(random_cluster_text(rng))
        if g.graph_class in (GraphClass.MCDMG, GraphClass.CMCDMG):
            for v in check_joint(g).violations:
                out += [v, v.witness]
    out += [One(), Budget(), Budget(2, 10)]
    fig2b, fig3 = cluster_graphs["fig2b"], cluster_graphs["fig3"]
    m = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 10))))
    m3 = next(iter(enumerate_compatible(fig3, budget=Budget(2, 10))))
    out += [m, m3, is_compatible(m, fig2b), is_compatible(m, fig3), is_compatible(m3, fig2b)]
    out += validate(parse_graph(malformed_graph_texts()["cyclic"], validate=False))
    scm = random_scm(m, 0)
    out += [scm, *exact_tables(scm), Grounding.from_scm(scm, abstract=fig2b)]
    out += itertools.islice(enumerate_compatible(fig2b, budget=Budget(2, 10)), 1, 3)
    return out


def value_type_name(x):
    return f"{type(x).__module__}.{type(x).__qualname__}"


def value_repr_digests():
    """Per value type of `value_corpus`: the number of its objects and the
    sha256 of their reprs. The order of a set inside a repr follows the
    string hash seed, so the golden file holds one digest per
    ``PYTHONHASHSEED``, each computed in a process started with that seed.
    Regenerate ``golden_values.json`` only for a stated change of a type's
    repr with ``PYTHONPATH=src:tests python -c "import test_values as t;
    t.write_golden()"``."""
    import hashlib

    reprs = {}
    for x in value_corpus():
        reprs.setdefault(value_type_name(x), []).append(repr(x))
    return {
        name: {"count": len(rs), "repr": hashlib.sha256("\n".join(rs).encode()).hexdigest()}
        for name, rs in sorted(reprs.items())
    }


def reference_over_members(abstract, members, budget, canonicalize):
    """`abstraction._enumerate_over_members` by the materialized product.

    Every non-empty subset of every realization pool, their whole product
    with the first pool varying slowest, and only then the edge budget,
    acyclicity and canonicity as filters: the stream the enumerator must
    reproduce, kept as the reference to compare it against.
    """
    import itertools

    from mcdmg.abstraction import _cluster_permutations, _indicators, _is_canonical, _realizations, _realize
    from mcdmg.graphs import topological_order

    pools = _realizations(abstract, members)
    if any(not pool for pool in pools) or len(pools) > budget.max_edges:
        return
    rvars = _indicators(abstract, members)
    nodes = [v for c in sorted(members) for v in members[c]] + [r for r, _ in rvars]
    if abstract.graph_class is GraphClass.MCDMG:
        perms = [{}]
    else:
        perms = _cluster_permutations(members, {o: r for r, o in rvars})
    choice_iters = [
        [tuple(pool[i] for i in range(len(pool)) if mask >> i & 1) for mask in range(1, 1 << len(pool))]
        for pool in pools
    ]
    counter = 0
    for picks in itertools.product(*choice_iters):
        edges = [e for pick in picks for e in pick]
        if len(set(edges)) > budget.max_edges:
            continue
        directed = sorted({(a, b) for k, a, b in edges if k == "->"})
        bidirected = sorted({(a, b) for k, a, b in edges if k == "<->"})
        if topological_order(nodes, directed)[1]:
            continue
        if canonicalize and not _is_canonical(directed, bidirected, perms):
            continue
        counter += 1
        yield _realize(abstract, members, directed, bidirected, f"{abstract.name}.compat{counter}")


def reference_manifest(scm, base):
    """`oracle._manifest` pin by pin: the joint ``base`` read in the
    manifest's column order, then each masked variable replaced by its
    proxy in turn, ``proxy = x`` copied from the cells ``(v = x, R_v = 0)``
    and ``proxy = NA`` summed over ``v`` where ``R_v != 0``. The build the
    one scatter-add must reproduce, kept as the reference to compare it
    against; its result is float64 whatever the joint's dtype."""
    import math

    import numpy as np

    from mcdmg.errors import DomainTooLarge
    from mcdmg.oracle import MAX_STATES, DistTable

    def _pin(ndim, pins):
        return tuple(pins.get(i, slice(None)) for i in range(ndim))

    s = scm.structure
    masked = [v for v in s.variables if v in s.indicator_of]
    names = [v for v in s.variables if v not in s.indicator_of] + masked + list(s.indicators)
    transpose = tuple(map(s.kept.index, names))
    cards, pins = [s.cards[n] for n in names], []
    if math.prod(s.cards[n] + (n in s.indicator_of) for n in names) > MAX_STATES:
        raise DomainTooLarge(f"manifest table exceeds {MAX_STATES} cells")
    observed, missing = slice(0, 1), slice(1, None)
    for v in masked:
        x, r, k = names.index(v), names.index(s.indicator_of[v]), s.cards[v]
        names[x], cards[x] = s.proxy_of[v], k + 1
        n = len(names)
        pins.append((
            tuple(cards),
            _pin(n, {x: slice(0, k), r: observed}),
            _pin(n, {r: observed}),
            _pin(n, {r: missing}),
            x,
            _pin(n, {x: slice(k, k + 1), r: missing}),
        ))
    probs = base.probs.transpose(transpose)
    for shape, observed_dst, observed_src, missing, x, na_dst in pins:
        out = np.zeros(shape)
        out[observed_dst] = probs[observed_src]
        out[na_dst] = probs[missing].sum(axis=x, keepdims=True)
        probs = out
    return DistTable(tuple(names), tuple(cards), np.asarray(probs, order="C"))  # a copy only if no pin ran


def reference_project(madmg, clustering, level):
    """`abstraction.project` as the cluster graph built edge by edge: each
    edge's ends projected one at a time, the graph assembled and validated.
    The projection that `is_compatible` compared before it read the edge set
    straight off the variable-level edges, kept as the reference."""
    from mcdmg.abstraction import _project_endpoint, indicator_id
    from mcdmg.errors import InvalidClustering, WrongGraphClass
    from mcdmg.graphs import require_valid

    if madmg.graph_class not in (GraphClass.ADMG, GraphClass.MADMG):
        raise WrongGraphClass("projection starts from an (m-)ADMG")
    if level is GraphClass.CDMG and madmg.indicators:
        raise WrongGraphClass("an m-ADMG cannot project to a plain C-DMG")
    clustering.check_partition()
    if set(madmg.variables) != set(clustering.variables):
        raise InvalidClustering("clustering must cover exactly the graph's variables")
    directed, bidirected = set(), set()
    for a, b in madmg.declared_directed:
        directed.add((_project_endpoint(a, madmg, clustering, level), _project_endpoint(b, madmg, clustering, level)))
    for a, b in madmg.bidirected:
        pa = _project_endpoint(a, madmg, clustering, level)
        pb = _project_endpoint(b, madmg, clustering, level)
        if pa != pb:
            bidirected.add(tuple(sorted((pa, pb))))
    verts = [Vertex(c, Kind.CLUSTER) for c, _ in clustering.clusters]
    if level is GraphClass.MCDMG:
        verts += [Vertex(r, Kind.INDICATOR, madmg.vertex(r).owner) for r in madmg.indicators]
    elif level is GraphClass.CMCDMG:
        masked = sorted({clustering.cluster_of[madmg.vertex(r).owner] for r in madmg.indicators})
        verts += [Vertex(indicator_id(c), Kind.INDICATOR, c) for c in masked]
    return require_valid(
        MixedGraph.build(f"{madmg.name}@cluster", level, verts, directed, bidirected, clustering=clustering)
    )


def reference_is_compatible(madmg, abstract, clustering=None):
    """`abstraction.is_compatible` by projecting first: the cluster graph of
    `reference_project`, its edge set and indicator keys read off the graph
    and compared with the abstract graph's. The reference that the
    projection by edge sets is checked against."""
    from mcdmg.abstraction import CompatibilityReport, _canon_indicator_names, _indicator_keys, _level_of
    from mcdmg.errors import InvalidClustering

    level = _level_of(abstract)
    clustering = clustering or madmg.clustering or abstract.clustering
    if clustering is None:
        raise InvalidClustering("no clustering available")
    projected = reference_project(madmg, clustering, level)
    abstract_edges, projected_edges = _canon_indicator_names(abstract), _canon_indicator_names(projected)
    missing = sorted(abstract_edges - projected_edges)
    forbidden = sorted(projected_edges - abstract_edges)
    want, have = _indicator_keys(abstract), _indicator_keys(projected)
    missing += [("rvar", kind, owner) for kind, owner in sorted(want - have)]
    forbidden += [("rvar", kind, owner) for kind, owner in sorted(have - want)]
    for a, b in sorted(madmg.bidirected):
        ca = clustering.cluster_of.get(a)
        if ca is not None and ca == clustering.cluster_of.get(b):
            forbidden.append(("<->", a, b))
    return CompatibilityReport(tuple(missing), tuple(forbidden))


def reference_replay(g, d):
    """`docalc.replay` by listing: every candidate move of every rule on
    every rewritable node (`_rewrites` over `_candidates`, as the search
    lists them) is made, and the step must match one of them. The replay
    that `replay`, which makes the recorded rule's moves alone, is checked
    against."""
    from mcdmg.docalc import (
        ReplayResult,
        _candidates,
        _memo,
        _observable,
        _rewrites,
        _successor,
        _term_observable,
        rule_applicable,
    )
    from mcdmg.errors import OverlappingSets, UnknownRule, UnknownVertex
    from mcdmg.expressions import PROXY, RZERO, VAL, canonical, symbols_of

    current = canonical(d.query)
    refs = {
        VAL: (g.substantive, "substantive vertex"),
        PROXY: (g.partially_observed, "partially observed vertex"),
        RZERO: (g.indicators, "indicator"),
    }
    for a in sorted(symbols_of(current)):
        known, what = refs[a.kind]
        if a.ref not in known:
            return ReplayResult(False, 0, f"{a.render()} names no {what} of {g.name}")
    observable, candidates = _memo(_term_observable, g, {}), _memo(_candidates, g, {})
    for i, step in enumerate(d.steps, start=1):
        if canonical(step.before) != current:
            return ReplayResult(False, i, "step does not continue the previous expression")
        after = canonical(step.after)
        c = step.certificate
        statement = None
        try:
            if c is not None:
                computed = rule_applicable(g, c.rule, c.y, c.x, c.z, c.w)
                if not computed.holds:
                    return ReplayResult(False, i, f"{c.rule} certificate fails on {g.name}")
                if c != computed or c.holds is not True:
                    return ReplayResult(
                        False, i, f"recorded {c.rule} certificate differs from the one computed on {g.name}"
                    )
                statement = (c.rule, *map(g.index.mask, (c.y, c.x, c.z, c.w)))
            move = (step.rule, step.params, statement)
            if not any(
                (rule, params, candidate) == move and _successor(current, path, new) == after
                for rule, params, candidate, new, _, path, _ in _rewrites(current, candidates, observable, False)
            ):
                return ReplayResult(False, i, "rewrite is not canonical-form-checkable")
        except (UnknownVertex, OverlappingSets, UnknownRule) as exc:
            return ReplayResult(False, i, str(exc))
        current = after
    if not _observable(g, current):
        return ReplayResult(False, len(d.steps), f"result is not observable on {g.name}")
    return ReplayResult(True)
