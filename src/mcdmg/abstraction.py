"""Abstraction between variable-level missingness graphs and cluster graphs.

Three directions of travel:

- ``project``: collapse an (m-)ADMG onto a clustering, at variable-indicator
  (m-C-DMG) or merged-indicator (cm-C-DMG) granularity;
- ``merge_indicators``: the map from an m-C-DMG to its cm-C-DMG, merging each
  cluster's indicators into one vertex with the union of their adjacencies;
- ``enumerate_compatible``: stream every variable-level m-ADMG whose
  projection reproduces an abstract graph exactly, within a budget. The
  stream is lazy: it extends one realization pick per abstract edge at a
  time and drops a prefix as soon as it cannot complete, so memory is bounded
  by the realization pools, not by their subsets.

Compatibility is edge-set equality after projection: a cluster edge asserts
at least one realizing variable edge, and an absent cluster edge forbids all
of them. Cluster self-loops stand for intra-cluster directed edges;
intra-cluster bidirected edges have no cluster-level syntax and are therefore
unlicensed.

Realization follows one rule. A cluster is realized by its members, and an
indicator by its variable-level indicators: its own id at m level, and
``R_<v>`` for each member ``v`` of its cluster at cm level. A directed
abstract edge is realized by any directed edge ``x -> y`` with ``x != y``
between the two ends' realizations, and a bidirected one by any pair, so
edges out of an indicator are realized like any other. Enumeration and
`recovery.construct_witness` both build their graphs through `_realize`.
"""

from __future__ import annotations

import itertools
import operator
from typing import Dict, Iterator, NamedTuple, Optional, Sequence, Tuple

from .errors import BudgetTooSmall, InvalidBudget, InvalidClustering, WrongGraphClass
from .graphs import (
    Clustering,
    GraphClass,
    Kind,
    MixedGraph,
    Vertex,
    _require,
    require_valid,
    topological_order,
)

Edge = Tuple[str, str, str]  # (kind "->"|"<->", a, b)


class CompatibilityReport(NamedTuple):
    """Outcome of checking a variable-level graph against an abstract one.

    ``missing_realizations`` lists abstract edges with no variable-level
    witness; ``forbidden_edges`` lists variable-level edges (projected) that
    the abstract graph does not license, including indicator-presence
    mismatches.
    """

    missing_realizations: Tuple[Edge, ...]
    forbidden_edges: Tuple[Edge, ...]

    @property
    def compatible(self) -> bool:
        return not self.missing_realizations and not self.forbidden_edges


def _level_of(abstract: MixedGraph) -> GraphClass:
    if abstract.graph_class in (GraphClass.MCDMG, GraphClass.CMCDMG, GraphClass.CDMG):
        return abstract.graph_class
    raise WrongGraphClass(f"not an abstract cluster graph: {abstract.graph_class.value}")


def _project_endpoint(vid: str, g: MixedGraph, clustering: Clustering, level: GraphClass) -> str:
    """Map a variable-level endpoint to its cluster-level counterpart."""
    kind = g.kind(vid)
    if kind is Kind.VARIABLE:
        try:
            return clustering.cluster_of[vid]
        except KeyError:
            raise InvalidClustering(f"variable {vid!r} not covered by the clustering") from None
    if kind is Kind.INDICATOR:
        if level is GraphClass.MCDMG:
            return vid
        owner = g.vertex(vid).owner
        cluster = clustering.cluster_of.get(owner)
        if cluster is None:
            raise InvalidClustering(f"indicator owner {owner!r} is unclustered")
        return indicator_id(cluster)
    raise InvalidClustering(f"cannot project a {kind.value} vertex")


def indicator_id(owner: str) -> str:
    """The id ``R_<owner>`` of an indicator that is made, not declared."""
    return f"R_{owner}"


def project(
    madmg: MixedGraph, clustering: Clustering, level: GraphClass
) -> MixedGraph:
    """Project a variable-level (m-)ADMG onto its cluster graph.

    Cluster edges appear exactly when some member-pair edge realizes them;
    intra-cluster directed edges become self-loops; indicators are kept
    per-variable (m-C-DMG) or merged per cluster (cm-C-DMG). Intra-cluster
    bidirected edges have no image and are dropped (`is_compatible` reports
    them as forbidden).
    """
    _require("madmg", madmg, MixedGraph, WrongGraphClass)
    if madmg.graph_class not in (GraphClass.ADMG, GraphClass.MADMG):
        raise WrongGraphClass("projection starts from an (m-)ADMG")
    if level is GraphClass.CDMG and madmg.indicators:
        raise WrongGraphClass("an m-ADMG cannot project to a plain C-DMG")
    clustering.check_partition()
    covered = set(clustering.variables)
    if set(madmg.variables) != covered:
        raise InvalidClustering("clustering must cover exactly the graph's variables")

    directed = set()
    bidirected = set()
    for a, b in madmg.declared_directed:
        pa = _project_endpoint(a, madmg, clustering, level)
        pb = _project_endpoint(b, madmg, clustering, level)
        directed.add((pa, pb))
    for a, b in madmg.bidirected:
        pa = _project_endpoint(a, madmg, clustering, level)
        pb = _project_endpoint(b, madmg, clustering, level)
        if pa == pb:
            continue  # intra-cluster confounding is invisible at cluster level
        bidirected.add(tuple(sorted((pa, pb))))

    verts = [Vertex(c, Kind.CLUSTER) for c, _ in clustering.clusters]
    if level is GraphClass.MCDMG:
        verts += [
            Vertex(r, Kind.INDICATOR, madmg.vertex(r).owner) for r in madmg.indicators
        ]
    elif level is GraphClass.CMCDMG:
        masked = sorted(
            {clustering.cluster_of[madmg.vertex(r).owner] for r in madmg.indicators}
        )
        verts += [Vertex(indicator_id(c), Kind.INDICATOR, c) for c in masked]
    return require_valid(
        MixedGraph.build(
            f"{madmg.name}@cluster",
            level,
            verts,
            directed,
            bidirected,
            clustering=clustering,
        )
    )


def merge_indicators(mcdmg: MixedGraph) -> MixedGraph:
    """Abstract an m-C-DMG into its cm-C-DMG.

    Each cluster's variable-level indicators collapse into one cluster-level
    indicator inheriting the union of their adjacencies, edge types
    preserved; proxies are re-owned accordingly.
    """
    _require("mcdmg", mcdmg, MixedGraph, WrongGraphClass)
    if mcdmg.graph_class is not GraphClass.MCDMG:
        raise WrongGraphClass("merge starts from an m-c-dmg")
    clustering = mcdmg.clustering
    cluster_of = {r: clustering.cluster_of[mcdmg.vertex(r).owner] for r in mcdmg.indicators}

    def image(v: str) -> str:
        return indicator_id(cluster_of[v]) if v in cluster_of else v

    directed = {(image(a), image(b)) for a, b in mcdmg.declared_directed}
    bidirected = {tuple(sorted((image(a), image(b)))) for a, b in mcdmg.bidirected}

    verts = [Vertex(c, Kind.CLUSTER) for c in mcdmg.clusters]
    verts += [Vertex(indicator_id(c), Kind.INDICATOR, c) for c in sorted(set(cluster_of.values()))]
    return require_valid(
        MixedGraph.build(
            f"{mcdmg.name}@cm",
            GraphClass.CMCDMG,
            verts,
            directed,
            bidirected,
            clustering=clustering,
        )
    )


# ---------------------------------------------------------------------------
# Compatibility
# ---------------------------------------------------------------------------


def _edge_set(g: MixedGraph) -> frozenset:
    """Declared edges as ("->"|"<->", a, b) triples, bidirected sorted."""
    return frozenset(
        [("->", a, b) for a, b in g.declared_directed] + [("<->", a, b) for a, b in g.bidirected]
    )


def _indicator_keys(g: MixedGraph) -> frozenset:
    """Indicators keyed by owner so that names cancel out at cm level."""
    if g.graph_class is GraphClass.CMCDMG:
        return frozenset(("cluster", g.vertex(r).owner) for r in g.indicators)
    return frozenset(("variable", g.vertex(r).owner) for r in g.indicators)


def is_compatible(
    madmg: MixedGraph, abstract: MixedGraph, clustering: Optional[Clustering] = None
) -> CompatibilityReport:
    """Edge-equality compatibility of a variable-level graph with an abstract one.

    The variable-level graph is projected at the abstract graph's level and
    the two edge sets must coincide; indicator presence must match
    owner-for-owner. Intra-cluster bidirected edges are reported as forbidden.
    """
    _require("madmg", madmg, MixedGraph, WrongGraphClass)
    _require("abstract", abstract, MixedGraph, WrongGraphClass)
    if clustering is not None:
        _require("clustering", clustering, Clustering, InvalidClustering)
    level = _level_of(abstract)
    clustering = clustering or madmg.clustering or abstract.clustering
    if clustering is None:
        raise InvalidClustering("no clustering available")
    projected = project(madmg, clustering, level)

    abstract_edges = _canon_indicator_names(abstract)
    projected_edges = _canon_indicator_names(projected)
    missing = sorted(abstract_edges - projected_edges)
    forbidden = sorted(projected_edges - abstract_edges)

    want = _indicator_keys(abstract)
    have = _indicator_keys(projected)
    for kind, owner in sorted(want - have):
        missing.append(("rvar", kind, owner))
    for kind, owner in sorted(have - want):
        forbidden.append(("rvar", kind, owner))

    for a, b in sorted(madmg.bidirected):
        ca = clustering.cluster_of.get(a)
        if ca is not None and ca == clustering.cluster_of.get(b):
            forbidden.append(("<->", a, b))

    return CompatibilityReport(tuple(missing), tuple(forbidden))


def _canon_indicator_names(g: MixedGraph) -> frozenset:
    """Edge set with cm-level indicator ids rewritten to their owner key.

    The merged indicator's particular name must not matter when comparing a
    projection against a hand-written abstract graph.
    """
    if g.graph_class is not GraphClass.CMCDMG:
        return _edge_set(g)
    alias = {r: indicator_id(g.vertex(r).owner) for r in g.indicators}

    def fix(v: str) -> str:
        return alias.get(v, v)

    out = set()
    for kind, a, b in _edge_set(g):
        a, b = fix(a), fix(b)
        if kind == "<->":
            a, b = sorted((a, b))
        out.add((kind, a, b))
    return frozenset(out)


# ---------------------------------------------------------------------------
# Enumeration of compatibility classes
# ---------------------------------------------------------------------------


class _Bounds(NamedTuple):
    max_vars_per_cluster: int = 2
    max_edges: int = 24


class Budget(_Bounds):
    """Bounds that make compatibility-class enumeration finite.

    Each bound must be an integer (anything `operator.index` accepts), or
    the constructor raises InvalidBudget naming it. ``max_edges = 0`` fits
    only an abstract graph without edges: its members with no edge, one graph
    per tuple of cluster sizes. A negative ``max_edges``, a
    ``max_vars_per_cluster`` below 1, or a bound too small for the graph's
    edges leaves no graph: `enumerate_compatible` raises BudgetTooSmall.
    """

    __slots__ = ()

    def __new__(cls, max_vars_per_cluster: int = 2, max_edges: int = 24):
        bounds = (max_vars_per_cluster, max_edges)
        return super().__new__(cls, *map(_integer, cls._fields, bounds))

    @classmethod
    def _make(cls, iterable) -> "Budget":
        # `_replace` builds through here: check its bounds too
        return cls(*iterable)


def _integer(name: str, value) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidBudget(f"{name} must be an integer, not {value!r}") from None


def enumerate_compatible(
    abstract: MixedGraph,
    clustering: Optional[Clustering] = None,
    budget: Budget = Budget(),
    *,
    canonicalize: bool = True,
) -> Iterator[MixedGraph]:
    """Stream every m-ADMG compatible with an abstract graph, within budget.

    Deterministic order: cluster sizes ascend lexicographically, then one
    nonempty realization subset per abstract edge in bitmask order, the
    first abstract edge (in sorted order) varying slowest. Each graph is
    built by extension: a pick that leaves too few edges for the rest is
    skipped with its completions, and a directed cycle is cut before any
    bidirected edge is chosen, so nothing is materialized beyond one
    candidate. Acyclic at variable level. With ``canonicalize`` the stream
    keeps one labeled representative per within-cluster renaming orbit; only
    an m-c-dmg, whose indicators name its members, keeps every labeled graph.
    Every abstract edge, an edge out of an indicator included, is realized by
    the module's rule.

    Raises
    ------
    WrongGraphClass
        If ``abstract`` is not a `MixedGraph`.
    InvalidClustering
        If ``clustering`` is given and is not a `Clustering`.
    InvalidBudget
        If ``budget`` is not a `Budget`.
    BudgetTooSmall
        If no compatible graph exists within the budget (checked eagerly).
    """
    _require("abstract", abstract, MixedGraph, WrongGraphClass)
    if clustering is not None and not isinstance(clustering, Clustering):
        raise InvalidClustering(f"clustering must be a Clustering, not {clustering!r}")
    if not isinstance(budget, Budget):
        raise InvalidBudget(f"budget must be a Budget, not {budget!r}")
    it = _enumerate(abstract, clustering, budget, canonicalize)
    try:
        first = next(it)
    except StopIteration:
        raise BudgetTooSmall(
            "no compatible variable-level graph within the budget"
        ) from None
    return itertools.chain([first], it)


def _enumerate(abstract, clustering, budget, canonicalize):
    level = _level_of(abstract)
    declared = (clustering or abstract.clustering).as_dict
    top = budget.max_vars_per_cluster
    # A self-loop needs two members to be realized. An m-c-dmg's indicators
    # name its declared variables, so there each cluster keeps its declared
    # size, and none fits a budget below it.
    looped = {a for a, b in abstract.declared_directed if a == b}

    def sizes(c: str) -> range:
        if level is GraphClass.MCDMG:
            n = len(declared.get(c, ()))
            return range(n, min(n, top) + 1)
        return range(2 if c in looped else 1, top + 1)

    cluster_ids = sorted(abstract.clusters)
    for size in itertools.product(*map(sizes, cluster_ids)):
        members = {c: _members_of(declared.get(c, ()), c, n) for c, n in zip(cluster_ids, size)}
        yield from _enumerate_over_members(abstract, members, budget, canonicalize)


def _members_of(declared: Sequence[str], cluster: str, n: int) -> Tuple[str, ...]:
    """The first ``n`` declared members of a cluster, padded with ``<cluster>_<i>``."""
    pool = list(declared)
    while len(pool) < n:
        pool.append(f"{cluster}_{len(pool) + 1}")
    return tuple(pool[:n])


def _realized(abstract: MixedGraph, members: Dict[str, Sequence[str]], vid: str) -> Sequence[str]:
    """The variable-level vertices that realize an abstract vertex."""
    if abstract.kind(vid) is Kind.CLUSTER:
        return members[vid]
    if abstract.graph_class is GraphClass.CMCDMG:
        return tuple(indicator_id(v) for v in members[abstract.vertex(vid).owner])
    return (vid,)


def _realizations(abstract: MixedGraph, members: Dict[str, Tuple[str, ...]]):
    """Per abstract edge, the sorted variable-level edges that realize it."""
    pools = []
    for kind, a, b in sorted(_edge_set(abstract)):
        ra, rb = _realized(abstract, members, a), _realized(abstract, members, b)
        if kind == "->":
            pool = {("->", x, y) for x in ra for y in rb if x != y}
        else:
            pool = {("<->", *sorted((x, y))) for x in ra for y in rb}
        pools.append(sorted(pool))
    return pools


def _indicators(abstract: MixedGraph, members: Dict[str, Sequence[str]]):
    """(id, owner) of every variable-level indicator, named as in `_realized`."""
    if abstract.graph_class is GraphClass.CMCDMG:
        masked = {abstract.vertex(r).owner for r in abstract.indicators}
        return [(indicator_id(v), v) for c in sorted(masked) for v in members[c]]
    return [(r, abstract.vertex(r).owner) for r in sorted(abstract.indicators)]


def _realize(abstract, members, directed, bidirected, name: str) -> MixedGraph:
    """The m-ADMG over these cluster members, their indicators and edges."""
    clustering = Clustering(tuple((c, tuple(members[c])) for c in sorted(members)))
    verts = [Vertex(v, Kind.VARIABLE) for v in clustering.variables]
    verts += [Vertex(r, Kind.INDICATOR, owner) for r, owner in _indicators(abstract, members)]
    return require_valid(
        MixedGraph.build(name, GraphClass.MADMG, verts, directed, bidirected, clustering=clustering)
    )


def _enumerate_over_members(abstract, members, budget, canonicalize):
    pools = _realizations(abstract, members)
    if not all(pools) or len(pools) > budget.max_edges:
        return

    rvars = _indicators(abstract, members)
    nodes = [v for c in sorted(members) for v in members[c]] + [r for r, _ in rvars]
    # renaming members within a cluster is a symmetry unless indicators name them
    if abstract.graph_class is GraphClass.MCDMG:
        perms = [{}]
    else:
        perms = _cluster_permutations(members, {o: r for r, o in rvars})

    # the pools follow the sorted abstract edges, and "->" < "<->": a cycle
    # closes among the directed picks alone, so cut it before any bidirected one
    split = len(abstract.declared_directed)
    counter = 0
    for head in _picks(pools[:split], budget.max_edges - len(pools) + split):
        directed = sorted((a, b) for _, a, b in head)
        if topological_order(nodes, directed)[1]:
            continue
        for tail in _picks(pools[split:], budget.max_edges - len(head)):
            bidirected = sorted((a, b) for _, a, b in tail)
            if canonicalize and not _is_canonical(directed, bidirected, perms):
                continue
            counter += 1
            yield _realize(abstract, members, directed, bidirected, f"{abstract.name}.compat{counter}")


def _picks(pools, room):
    """One non-empty subset per pool, the first pool slowest and each in bitmask
    order, skipping a pick that leaves no edge of ``room`` for a later pool."""
    if not pools:
        yield ()
        return
    pool, rest = pools[0], pools[1:]
    for mask in range(1, 1 << len(pool)):
        if mask.bit_count() + len(rest) <= room:
            pick = tuple(e for i, e in enumerate(pool) if mask >> i & 1)
            yield from (pick + tail for tail in _picks(rest, room - len(pick)))


def _cluster_permutations(members, owner_r):
    """All within-cluster renamings as vertex-name maps (indicators follow)."""
    per_cluster = []
    for c in sorted(members):
        vs = members[c]
        per_cluster.append([dict(zip(vs, p)) for p in itertools.permutations(vs)])
    maps = []
    for combo in itertools.product(*per_cluster):
        m: Dict[str, str] = {}
        for part in combo:
            m.update(part)
        full = dict(m)
        for v, w in m.items():
            if v in owner_r and w in owner_r:
                full[owner_r[v]] = owner_r[w]
        maps.append(full)
    return maps


def _is_canonical(directed, bidirected, perms) -> bool:
    def key(mapping):
        d = sorted((mapping.get(a, a), mapping.get(b, b)) for a, b in directed)
        bi = sorted(tuple(sorted((mapping.get(a, a), mapping.get(b, b)))) for a, b in bidirected)
        return (d, bi)

    mine = key({})
    return all(mine <= key(m) for m in perms)
