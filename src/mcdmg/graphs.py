"""Mixed-graph carrier for all five graph classes.

A single immutable structure represents ADMGs, m-ADMGs, C-DMGs, m-C-DMGs and
cm-C-DMGs: vertices carry a kind (variable, cluster, missingness indicator,
proxy), edges are directed or bidirected, and cluster classes attach a
Clustering that maps cluster vertices to their member variable names.

Conventions
-----------
- Proxies are created automatically, one per indicator, named ``<owner>*``.
  A proxy's parents are its indicator and its *anchor*: the owner itself in an
  m-ADMG, or the owning cluster vertex in the cluster classes.
- Directed self-loops are stored as ordinary ``(v, v)`` edges and are only
  legal on cluster vertices.
- Everything is validated against the declared class; `validate` returns the
  violations as data, `require_valid` raises.
"""

from __future__ import annotations

import heapq
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import InvalidClustering, UnknownVertex, ValidationError, WrongGraphClass


class Kind(str, Enum):
    """What a vertex stands for."""

    VARIABLE = "variable"
    CLUSTER = "cluster"
    INDICATOR = "indicator"
    PROXY = "proxy"


class GraphClass(str, Enum):
    """Declared class of a mixed graph."""

    ADMG = "admg"
    MADMG = "m-admg"
    CDMG = "c-dmg"
    MCDMG = "m-c-dmg"
    CMCDMG = "cm-c-dmg"

    @property
    def clustered(self) -> bool:
        return self in (GraphClass.CDMG, GraphClass.MCDMG, GraphClass.CMCDMG)

    @property
    def cyclic_ok(self) -> bool:
        return self.clustered


#: Classes that carry missingness indicators.
MISSINGNESS_CLASSES = (GraphClass.MADMG, GraphClass.MCDMG, GraphClass.CMCDMG)


def _require(name: str, value, cls, error) -> None:
    """Raise ``error`` naming the argument unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise error(f"{name} must be a {cls.__name__}, not {type(value).__name__}")


class _Value:
    """Immutable value base: the fields are named by ``__match_args__``.

    A value compares equal to a value of its own type only, with the same
    fields; it hashes as its field tuple, and a copy or pickle rebuilds it
    from its fields, so nothing cached on it travels along. Subclasses set
    their fields once, in the constructor.
    """

    __slots__ = ()
    __match_args__: Tuple[str, ...] = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def _astuple(self) -> tuple:
        return tuple([getattr(self, f) for f in self.__match_args__])

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self is other or self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __reduce__(self):
        return type(self), self._astuple()


class Vertex(NamedTuple):
    """A vertex with its kind and, for indicators/proxies, its owner.

    ``owner`` is the masked variable or cluster for an indicator, and the
    shadowed variable or cluster for a proxy.
    """

    id: str
    kind: Kind
    owner: Optional[str] = None


class Clustering(_Value):
    """Partition of substantive variables into named clusters.

    Parameters
    ----------
    clusters : mapping of cluster id to an ordered tuple of variable names.
    """

    __match_args__ = ("clusters",)

    def __init__(self, clusters: Tuple[Tuple[str, Tuple[str, ...]], ...]):
        self.__dict__["clusters"] = clusters

    @staticmethod
    def from_dict(d: Mapping[str, Sequence[str]]) -> "Clustering":
        return Clustering(tuple((c, tuple(vs)) for c, vs in d.items()))

    @cached_property
    def as_dict(self) -> dict:
        return {c: vs for c, vs in self.clusters}

    @cached_property
    def variables(self) -> Tuple[str, ...]:
        return tuple(v for _, vs in self.clusters for v in vs)

    @cached_property
    def cluster_of(self) -> dict:
        owner = {}
        for c, vs in self.clusters:
            for v in vs:
                owner[v] = c
        return owner

    def members(self, cluster: str) -> Tuple[str, ...]:
        try:
            return self.as_dict[cluster]
        except KeyError:
            raise InvalidClustering(f"unknown cluster {cluster!r}") from None

    def check_partition(self) -> None:
        seen = set()
        for c, vs in self.clusters:
            if not vs:
                raise InvalidClustering(f"cluster {c!r} is empty")
            for v in vs:
                if v in seen:
                    raise InvalidClustering(f"variable {v!r} occurs in two clusters")
                seen.add(v)


class Violation(NamedTuple):
    """One violated invariant, named, with the offending vertices/edges."""

    code: str
    message: str
    subjects: Tuple[str, ...] = ()

    def __str__(self) -> str:
        where = f" [{', '.join(self.subjects)}]" if self.subjects else ""
        return f"{self.code}: {self.message}{where}"


class AdjacencyIndex(NamedTuple):
    """The adjacency over integer positions: bit ``i`` of a mask stands for
    ``ids[i]``, the i-th vertex id in sorted order, and the neighbour masks
    are indexed by position."""

    ids: Tuple[str, ...]
    bit: dict  # vertex id -> 1 << position
    parents: Tuple[int, ...]
    children: Tuple[int, ...]
    spouses: Tuple[int, ...]
    proxies: int
    indicators: int

    def mask(self, vids: Iterable[str]) -> int:
        bit = self.bit
        m = 0
        for vid in vids:
            m |= bit[vid]
        return m

    def ids_of(self, m: int) -> Tuple[str, ...]:
        """The ids a mask stands for, in sorted order."""
        ids, out = self.ids, []
        while m:
            low = m & -m
            out.append(ids[low.bit_length() - 1])
            m ^= low
        return tuple(out)


class MixedGraph(_Value):
    """Immutable mixed graph over kinded vertices.

    Directed edges are ordered pairs; bidirected edges are stored as sorted
    pairs. ``clustering`` is present for the cluster classes and optionally on
    m-ADMGs that were generated relative to a clustering.

    Adjacency and the proxy wiring are derived here and nowhere else: the
    neighbour sets of every vertex are built once per graph and returned as
    they are by `parents`, `children` and `spouses`, `index` holds the same
    sets as bitmasks, and `declared_directed` holds the directed edges
    without the edges into proxies. These derived values and the hash are
    cached in the instance ``__dict__``; the fields are set once, by the
    constructor.
    """

    __match_args__ = ("name", "graph_class", "vertices", "directed", "bidirected", "clustering")

    def __init__(
        self,
        name: str,
        graph_class: GraphClass,
        vertices: Tuple[Vertex, ...],
        directed: frozenset,
        bidirected: frozenset,
        clustering: Optional[Clustering] = None,
    ):
        self.__dict__.update(
            name=name,
            graph_class=graph_class,
            vertices=vertices,
            directed=directed,
            bidirected=bidirected,
            clustering=clustering,
        )

    @cached_property
    def _hash(self) -> int:
        return hash(self._astuple())

    def __hash__(self) -> int:
        return self._hash

    # -- construction -----------------------------------------------------

    @staticmethod
    def build(
        name: str,
        graph_class: GraphClass,
        vertices: Iterable[Vertex],
        directed: Iterable[Tuple[str, str]] = (),
        bidirected: Iterable[Tuple[str, str]] = (),
        clustering: Optional[Clustering] = None,
    ) -> "MixedGraph":
        """Assemble a graph, wiring one proxy per indicator.

        Proxies receive the id ``<owner>*``, the edges ``anchor -> proxy`` and
        ``indicator -> proxy``, and are skipped for indicators whose proxy was
        passed in explicitly.
        """
        verts = list(vertices)
        dir_edges = {(a, b) for a, b in directed}
        bi_edges = {tuple(sorted((a, b))) for a, b in bidirected}
        have_proxy = {v.owner for v in verts if v.kind is Kind.PROXY}
        ids = {v.id for v in verts}
        for v in list(verts):
            if v.kind is Kind.INDICATOR and v.owner not in have_proxy:
                pid = f"{v.owner}*"
                if pid in ids:
                    raise ValidationError(
                        [Violation("proxy-name", f"vertex id {pid!r} already taken", (pid,))]
                    )
                verts.append(Vertex(pid, Kind.PROXY, owner=v.owner))
                ids.add(pid)
                have_proxy.add(v.owner)
                anchor = _anchor_id(graph_class, v.owner, clustering)
                dir_edges.add((anchor, pid))
                dir_edges.add((v.id, pid))
        g = MixedGraph(
            name=name,
            graph_class=graph_class,
            vertices=tuple(sorted(verts, key=lambda v: v.id)),
            directed=frozenset(dir_edges),
            bidirected=frozenset(bi_edges),
            clustering=clustering,
        )
        return g

    # -- lookups ----------------------------------------------------------

    @cached_property
    def vertex_map(self) -> dict:
        return {v.id: v for v in self.vertices}

    @cached_property
    def ids(self) -> frozenset:
        return frozenset(v.id for v in self.vertices)

    def __contains__(self, vid: str) -> bool:
        return vid in self.vertex_map

    def vertex(self, vid: str) -> Vertex:
        try:
            return self.vertex_map[vid]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {vid!r}") from None

    def kind(self, vid: str) -> Kind:
        return self.vertex(vid).kind

    def of_kind(self, kind: Kind) -> Tuple[str, ...]:
        return tuple(v.id for v in self.vertices if v.kind is kind)

    @cached_property
    def indicators(self) -> Tuple[str, ...]:
        return self.of_kind(Kind.INDICATOR)

    @cached_property
    def proxies(self) -> Tuple[str, ...]:
        return self.of_kind(Kind.PROXY)

    @cached_property
    def clusters(self) -> Tuple[str, ...]:
        return self.of_kind(Kind.CLUSTER)

    @cached_property
    def variables(self) -> Tuple[str, ...]:
        return self.of_kind(Kind.VARIABLE)

    @cached_property
    def substantive(self) -> Tuple[str, ...]:
        """Cluster vertices in cluster classes, variable vertices otherwise."""
        return self.clusters if self.graph_class.clustered else self.variables

    # -- adjacency --------------------------------------------------------

    @cached_property
    def _adjacency(self) -> dict:
        """Vertex -> (parents, children, spouses), derived once per graph."""
        adj = {v.id: (set(), set(), set()) for v in self.vertices}
        for a, b in self.directed:
            adj[b][0].add(a)
            adj[a][1].add(b)
        for a, b in self.bidirected:
            adj[a][2].add(b)
            adj[b][2].add(a)
        return {v: tuple(map(frozenset, sets)) for v, sets in adj.items()}

    @cached_property
    def index(self) -> AdjacencyIndex:
        """`_adjacency` as bitmasks over the sorted vertex ids, built once per graph."""
        ids = tuple(sorted(self._adjacency))
        bit = {v: 1 << i for i, v in enumerate(ids)}
        masks = [tuple(sum(bit[u] for u in s) for s in self._adjacency[v]) for v in ids]
        parents, children, spouses = zip(*masks) if masks else ((), (), ())
        proxies = sum(bit[p] for p in self.proxies)
        indicators = sum(bit[r] for r in self.indicators)
        return AdjacencyIndex(ids, bit, parents, children, spouses, proxies, indicators)

    def _adjacent(self, vid: str) -> tuple:
        try:
            return self._adjacency[vid]
        except KeyError:
            raise UnknownVertex(f"unknown vertex {vid!r}") from None

    def parents(self, vid: str) -> frozenset:
        """Tails of the directed edges into ``vid`` (itself, on a self-loop)."""
        return self._adjacent(vid)[0]

    def children(self, vid: str) -> frozenset:
        return self._adjacent(vid)[1]

    def spouses(self, vid: str) -> frozenset:
        """Bidirected neighbours."""
        return self._adjacent(vid)[2]

    def neighbors(self, vid: str) -> frozenset:
        pa, ch, sp = self._adjacent(vid)
        return pa | ch | sp

    def district(self, vid: str) -> frozenset:
        """Connected component of ``vid`` under bidirected edges."""
        return closure((vid,), self.spouses)

    @cached_property
    def declared_directed(self) -> frozenset:
        """The directed edges a graph file states: all but the proxy wiring."""
        proxies = set(self.proxies)
        return frozenset(e for e in self.directed if e[1] not in proxies)

    # -- missingness structure ---------------------------------------------

    @cached_property
    def indicator_by_owner(self) -> dict:
        return {v.owner: v.id for v in self.vertices if v.kind is Kind.INDICATOR}

    @cached_property
    def proxy_by_owner(self) -> dict:
        return {v.owner: v.id for v in self.vertices if v.kind is Kind.PROXY}

    def owner_cluster(self, indicator: str) -> str:
        """Cluster vertex whose missingness the indicator (partly) encodes."""
        v = self.vertex(indicator)
        if v.kind is not Kind.INDICATOR:
            raise UnknownVertex(f"{indicator!r} is not an indicator")
        if self.graph_class is GraphClass.CMCDMG:
            return v.owner
        if self.graph_class is GraphClass.MCDMG:
            return self.clustering.cluster_of[v.owner]
        return v.owner  # m-ADMG: the masked variable itself

    @cached_property
    def _indicators_by_cluster(self) -> dict:
        out: dict = {}
        for r in sorted(self.indicators):
            out.setdefault(self.owner_cluster(r), []).append(r)
        return {c: tuple(rs) for c, rs in out.items()}

    def indicators_of_cluster(self, cluster: str) -> Tuple[str, ...]:
        """All indicators masking (variables of) the given substantive vertex."""
        return self._indicators_by_cluster.get(cluster, ())

    @cached_property
    def partially_observed(self) -> Tuple[str, ...]:
        """Substantive vertices with at least one indicator, sorted."""
        return tuple(sorted(self._indicators_by_cluster))

    @cached_property
    def fully_observed(self) -> Tuple[str, ...]:
        po = set(self.partially_observed)
        return tuple(s for s in self.substantive if s not in po)

    def anchor(self, proxy: str) -> str:
        """Substantive parent of a proxy (owner, or the owning cluster)."""
        v = self.vertex(proxy)
        if v.kind is not Kind.PROXY:
            raise UnknownVertex(f"{proxy!r} is not a proxy")
        return _anchor_id(self.graph_class, v.owner, self.clustering)

    def require(self, *vids: str) -> None:
        for vid in vids:
            self.vertex(vid)


def _anchor_id(graph_class: GraphClass, owner: str, clustering: Optional[Clustering]) -> str:
    if graph_class is GraphClass.MCDMG:
        if clustering is None:
            raise InvalidClustering("m-c-dmg requires a clustering")
        try:
            return clustering.cluster_of[owner]
        except KeyError:
            raise InvalidClustering(f"indicator owner {owner!r} not a clustered variable") from None
    return owner


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def validate(g: MixedGraph) -> list:
    """Check every invariant of the graph's declared class.

    Returns
    -------
    list of Violation
        Empty iff the graph is well formed. Violations are data, not errors.
    """
    _require("g", g, MixedGraph, WrongGraphClass)
    v: list = []
    ids = g.ids
    cls = g.graph_class

    for a, b in sorted(g.directed) + sorted(g.bidirected):
        for e in (a, b):
            if e not in ids:
                v.append(Violation("unknown-endpoint", f"edge endpoint {e!r} undeclared", (a, b)))
    if v:
        return v  # the checks below index adjacency by declared vertex ids

    for a, b in sorted(g.bidirected):
        if a == b:
            v.append(Violation("bidirected-self-loop", "bidirected self-loops are meaningless", (a,)))

    # vertex kinds permitted per class
    allowed = {
        GraphClass.ADMG: {Kind.VARIABLE},
        GraphClass.MADMG: {Kind.VARIABLE, Kind.INDICATOR, Kind.PROXY},
        GraphClass.CDMG: {Kind.CLUSTER},
        GraphClass.MCDMG: {Kind.CLUSTER, Kind.INDICATOR, Kind.PROXY},
        GraphClass.CMCDMG: {Kind.CLUSTER, Kind.INDICATOR, Kind.PROXY},
    }[cls]
    for vert in g.vertices:
        if vert.kind not in allowed:
            v.append(Violation("kind-not-allowed", f"{vert.kind.value} vertex in {cls.value}", (vert.id,)))

    # clustering well-formedness
    if cls.clustered:
        if g.clustering is None:
            v.append(Violation("missing-clustering", "cluster classes need member declarations"))
        else:
            try:
                g.clustering.check_partition()
            except InvalidClustering as exc:
                v.append(Violation("bad-clustering", str(exc)))
            declared = {c for c, _ in g.clustering.clusters}
            for c in g.clusters:
                if c not in declared:
                    v.append(Violation("bad-clustering", f"cluster vertex {c!r} has no member list", (c,)))
            for c in declared:
                if c not in ids:
                    v.append(Violation("bad-clustering", f"declared cluster {c!r} is not a vertex", (c,)))

    # owners resolve and are unique per owner
    seen_ind, seen_px = set(), set()
    for vert in g.vertices:
        if vert.kind in (Kind.INDICATOR, Kind.PROXY):
            pool = seen_ind if vert.kind is Kind.INDICATOR else seen_px
            if vert.owner in pool:
                v.append(Violation("duplicate-owner", f"second {vert.kind.value} for {vert.owner!r}", (vert.id,)))
            pool.add(vert.owner)
            if not _owner_ok(g, vert):
                v.append(Violation("bad-owner", f"{vert.kind.value} owner {vert.owner!r} unresolvable", (vert.id,)))

    # indicator/proxy pairing
    for owner, rid in sorted(g.indicator_by_owner.items(), key=lambda kv: str(kv[0])):
        if owner not in g.proxy_by_owner:
            v.append(Violation("missing-proxy", f"indicator {rid!r} has no proxy", (rid,)))
    for owner, pid in sorted(g.proxy_by_owner.items(), key=lambda kv: str(kv[0])):
        if owner not in g.indicator_by_owner:
            v.append(Violation("orphan-proxy", f"proxy {pid!r} has no indicator", (pid,)))

    # proxy wiring: no children, no bidirected edges, exactly two parents
    proxy_ids = set(g.proxies)
    for a, b in sorted(g.directed):
        if a in proxy_ids:
            v.append(Violation("proxy-has-child", "proxy has child", (a, b)))
        if a in proxy_ids and b in proxy_ids:
            v.append(Violation("proxy-proxy-edge", "edge joins two proxies", (a, b)))
    for a, b in sorted(g.bidirected):
        if a in proxy_ids or b in proxy_ids:
            v.append(Violation("proxy-bidirected", "proxy has bidirected edge", (a, b)))
    for pid in g.proxies:
        vert = g.vertex(pid)
        pa = g.parents(pid)
        want_r = g.indicator_by_owner.get(vert.owner)
        try:
            want_anchor = g.anchor(pid)
        except InvalidClustering:
            want_anchor = None
        if want_r is None or want_anchor is None or pa != {want_anchor, want_r}:
            v.append(Violation("proxy-parents", f"proxy {pid!r} must have exactly its anchor and indicator as parents", (pid,)))

    # self-loops only in cyclic classes, on clusters and merged indicators
    # (indicator self-loops are legal syntax; the joint-recovery test rejects
    # them at query time)
    for a, b in sorted(g.directed):
        if a == b and (
            not cls.cyclic_ok
            or (a in ids and g.kind(a) not in (Kind.CLUSTER, Kind.INDICATOR))
        ):
            v.append(Violation("self-loop", f"self-loop not allowed on {a!r} in {cls.value}", (a,)))

    # acyclicity for the acyclic classes (proxies are sinks, harmless)
    if not cls.cyclic_ok:
        loops = sorted(a for a, b in g.directed if a == b)
        cyc = loops[:1] or topological_order(ids, g.directed)[1]
        if cyc:
            v.append(Violation("acyclicity", "acyclicity violated: " + ",".join(cyc), tuple(cyc)))

    # indicator owner level per class
    if cls is GraphClass.MCDMG and g.clustering is not None:
        for rid in g.indicators:
            if g.vertex(rid).owner not in g.clustering.cluster_of:
                v.append(Violation("indicator-level", f"indicator {rid!r} must mask a clustered variable", (rid,)))
    if cls is GraphClass.CMCDMG:
        for rid in g.indicators:
            if g.vertex(rid).owner not in set(g.clusters):
                v.append(Violation("indicator-level", f"indicator {rid!r} must mask a cluster", (rid,)))
    if cls is GraphClass.MADMG:
        for rid in g.indicators:
            owner = g.vertex(rid).owner
            if owner not in ids or g.kind(owner) is not Kind.VARIABLE:
                v.append(Violation("indicator-level", f"indicator {rid!r} must mask a variable", (rid,)))

    return v


def _owner_ok(g: MixedGraph, vert: Vertex) -> bool:
    if vert.owner is None:
        return False
    if vert.owner in g.ids:
        return g.kind(vert.owner) in (Kind.VARIABLE, Kind.CLUSTER)
    if g.graph_class is GraphClass.MCDMG and g.clustering is not None:
        return vert.owner in g.clustering.cluster_of
    return False


def topological_order(nodes: Iterable[str], edges: Iterable[Tuple[str, str]]):
    """Kahn's algorithm, always placing the smallest ready node next.

    Every edge endpoint must be among ``nodes``. Returns ``(order, unplaced)``:
    the placed nodes in order, and the sorted nodes that lie on a directed
    cycle (self-loops included) or are reachable from one.
    """
    succ = {n: [] for n in nodes}
    indeg = dict.fromkeys(succ, 0)
    for a, b in edges:
        succ[a].append(b)
        indeg[b] += 1
    ready = [n for n, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        n = heapq.heappop(ready)
        order.append(n)
        for b in succ[n]:
            indeg[b] -= 1
            if indeg[b] == 0:
                heapq.heappush(ready, b)
    return tuple(order), tuple(sorted(n for n, d in indeg.items() if d > 0))


def closure(start: Iterable[str], step: Callable[[str], Iterable[str]]) -> frozenset:
    """Everything reachable from ``start`` by repeated ``step``, start included."""
    seen = set(start)
    todo = list(seen)
    while todo:
        for b in step(todo.pop()):
            if b not in seen:
                seen.add(b)
                todo.append(b)
    return frozenset(seen)


def require_valid(g: MixedGraph) -> MixedGraph:
    violations = validate(g)
    if violations:
        raise ValidationError(violations)
    return g


# ---------------------------------------------------------------------------
# Mechanism classification and promotion
# ---------------------------------------------------------------------------


def classify_mechanism(g: MixedGraph, target: str) -> str:
    """Classify an indicator's mechanism as ``"MCAR"``, ``"MAR"`` or ``"MNAR"``.

    MCAR: the indicator is d-separated from every substantive vertex given
    nothing. MAR: d-separated from the partially observed substantive vertices
    given all fully observed ones. Anything else is MNAR.
    """
    from .separation import d_separated  # local import, no cycle at module load

    _require("g", g, MixedGraph, WrongGraphClass)
    if g.graph_class not in MISSINGNESS_CLASSES:
        raise WrongGraphClass(f"classify_mechanism undefined on {g.graph_class.value}")
    if g.kind(target) is not Kind.INDICATOR:
        raise UnknownVertex(f"{target!r} is not an indicator")
    everything = frozenset(g.substantive)
    if d_separated(g, {target}, everything, frozenset()):
        return "MCAR"
    missing = frozenset(g.partially_observed)
    observed = frozenset(g.fully_observed)
    if d_separated(g, {target}, missing, observed):
        return "MAR"
    return "MNAR"


def as_cluster_graph(g: MixedGraph) -> MixedGraph:
    """Promote an (m-)ADMG to a (m-)C-DMG under the trivial clustering.

    Every variable becomes its own cluster vertex of the same name; indicators
    keep their owners. The result validates as an m-C-DMG (or C-DMG).
    """
    _require("g", g, MixedGraph, WrongGraphClass)
    if g.graph_class not in (GraphClass.ADMG, GraphClass.MADMG):
        raise WrongGraphClass("promotion starts from an (m-)ADMG")
    target = GraphClass.MCDMG if g.graph_class is GraphClass.MADMG else GraphClass.CDMG
    clustering = Clustering(tuple((v, (v,)) for v in g.variables))
    verts = [Vertex(v, Kind.CLUSTER) for v in g.variables]
    verts += [Vertex(r, Kind.INDICATOR, g.vertex(r).owner) for r in g.indicators]
    return require_valid(
        MixedGraph.build(
            g.name, target, verts, g.declared_directed, g.bidirected, clustering=clustering
        )
    )
