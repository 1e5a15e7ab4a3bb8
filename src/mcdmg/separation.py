"""Paths, walks, mutilation and d-separation on possibly-cyclic mixed graphs.

Blocking follows the path definition: a path is blocked by Z when it has a
non-collider in Z, or a collider with no descendant in Z. The production
engine is a reachability automaton over (vertex, arrival-mark) states, which
also admits walks: `reaches` decides it on the bitmask adjacency of
`MixedGraph.index`, with a mutilation passed as masks, and
`_shortest_active_path` runs it breadth-first over the same positions and
the same mutilation to return a shortest witness; `active_path` checks its
arguments and calls it. Neither builds a mutilated graph; `mutilate`
builds one for callers that need the graph itself. An exhaustive path
enumerator doubles as an independent oracle and the engines are held in
agreement with it by the test suite.

Self-loop edges can be traversed in both orientations by walks (arrowhead end
first or tail end first) and never occur on simple paths.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, Iterable, NamedTuple, Optional, Tuple

from .errors import EmptyWalk, OverlappingSets, PreconditionError, UnknownVertex, WrongGraphClass
from .graphs import AdjacencyIndex, Kind, MixedGraph, _require, _Value, closure

# Edge symbols are oriented along the traversal: "->" leaves via a tail and
# arrives via a head, "<-" the reverse, "<->" is a head at both ends.
FORWARD = "->"
BACKWARD = "<-"
BOTH = "<->"

HEAD = "head"
TAIL = "tail"


def _mark_at_prev(sym: str) -> str:
    return HEAD if sym in (BACKWARD, BOTH) else TAIL


def _mark_at_next(sym: str) -> str:
    return HEAD if sym in (FORWARD, BOTH) else TAIL


class Walk(_Value):
    """A vertex sequence with one oriented edge symbol between neighbours.

    Immutable; its length is its number of edges."""

    __slots__ = ("vertices", "edges")
    __match_args__ = __slots__

    def __init__(self, vertices: Tuple[str, ...], edges: Tuple[str, ...]):
        if not vertices:
            raise EmptyWalk("walk has no vertices")
        if len(edges) != len(vertices) - 1:
            raise EmptyWalk("edge count must be vertex count minus one")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __len__(self) -> int:
        return len(self.edges)

    def is_path(self) -> bool:
        return len(set(self.vertices)) == len(self.vertices)

    def in_mark(self, i: int) -> str:
        """Arrival mark at position i (i >= 1)."""
        return _mark_at_next(self.edges[i - 1])

    def out_mark(self, i: int) -> str:
        """Departure mark at position i (i <= len-1)."""
        return _mark_at_prev(self.edges[i])

    def is_collider(self, i: int) -> bool:
        """Collider status of the interior occurrence at position i."""
        return self.in_mark(i) == HEAD and self.out_mark(i) == HEAD

    def interior(self) -> Tuple[int, ...]:
        return tuple(range(1, len(self.vertices) - 1))

    def tokens(self) -> list:
        """Alternating vertex and edge symbols, first to last."""
        parts = [self.vertices[0]]
        for sym, v in zip(self.edges, self.vertices[1:]):
            parts += [sym, v]
        return parts

    def text(self) -> str:
        return " ".join(self.tokens())

    def check_in(self, g: MixedGraph) -> None:
        for i, sym in enumerate(self.edges):
            a, b = self.vertices[i], self.vertices[i + 1]
            ok = (
                (sym == FORWARD and (a, b) in g.directed)
                or (sym == BACKWARD and (b, a) in g.directed)
                or (sym == BOTH and tuple(sorted((a, b))) in g.bidirected)
            )
            if not ok:
                raise UnknownVertex(f"walk step {a} {sym} {b} is not an edge of the graph")


class MutilationSpec(NamedTuple):
    """Overline (remove incoming) and underline (remove outgoing) sets."""

    remove_incoming: FrozenSet[str] = frozenset()
    remove_outgoing: FrozenSet[str] = frozenset()

    @staticmethod
    def of(overline: Iterable[str] = (), underline: Iterable[str] = ()) -> "MutilationSpec":
        return MutilationSpec(frozenset(overline), frozenset(underline))

    @property
    def empty(self) -> bool:
        return not self.remove_incoming and not self.remove_outgoing


def descendants(g: MixedGraph, sources: Iterable[str]) -> FrozenSet[str]:
    """All vertices reachable from ``sources`` along directed edges, inclusive.

    Well defined under cycles: this is the fixed point of one-step expansion.
    """
    _require("g", g, MixedGraph, WrongGraphClass)
    return closure(sources, g.children)


def ancestors(g: MixedGraph, targets: Iterable[str]) -> FrozenSet[str]:
    """All vertices with a directed path into ``targets``, inclusive."""
    _require("g", g, MixedGraph, WrongGraphClass)
    return closure(targets, g.parents)


def mutilate(g: MixedGraph, spec: MutilationSpec) -> MixedGraph:
    """Remove incoming edges into overlined and outgoing from underlined vertices.

    Bidirected edges carry arrowheads, so those incident to an overlined
    vertex are removed too; underlining leaves them alone. Edges into proxies
    are definitional (the proxy mechanism is not manipulable) and survive any
    mutilation. Self-loops count as both incoming and outgoing.
    """
    _check_mutilation(g, "spec", spec)
    if spec.empty:
        return g
    over, under = spec.remove_incoming, spec.remove_outgoing
    directed = g.directed.difference(
        (a, b) for a, b in g.declared_directed if b in over or a in under
    )
    bidirected = frozenset((a, b) for a, b in g.bidirected if a not in over and b not in over)
    return MixedGraph(g.name, g.graph_class, g.vertices, directed, bidirected, g.clustering)


def _check_mutilation(g: MixedGraph, name: str, spec: MutilationSpec) -> None:
    """Refuse a non-graph, a ``spec`` (argument ``name``) of another type,
    then an unknown vertex or a proxy in it, the first in id order."""
    _require("g", g, MixedGraph, WrongGraphClass)
    _require(name, spec, MutilationSpec, PreconditionError)
    for vid in sorted(spec.remove_incoming | spec.remove_outgoing):
        if g.kind(vid) is Kind.PROXY:
            raise UnknownVertex(f"proxy {vid!r} cannot be mutilated")


# ---------------------------------------------------------------------------
# Primary paths
# ---------------------------------------------------------------------------


def primary_path(w: Walk) -> Walk:
    """Extract the path of a walk by the last-occurrence construction.

    Starting from the first vertex, repeatedly jump to the successor of the
    current vertex's last occurrence, inheriting that step's edge symbol.
    The result never repeats a vertex.
    """
    vs = w.vertices
    last = {}
    for i, v in enumerate(vs):
        last[v] = i
    out_vs = [vs[0]]
    out_es = []
    cur = vs[0]
    while last[cur] != len(vs) - 1:
        j = last[cur]
        out_es.append(w.edges[j])
        cur = vs[j + 1]
        out_vs.append(cur)
    return Walk(tuple(out_vs), tuple(out_es))


# ---------------------------------------------------------------------------
# Reachability engine
# ---------------------------------------------------------------------------


def vertex_set(name: str, ids: Iterable[str]) -> FrozenSet[str]:
    """The vertex ids an argument names. A bare string is refused: read as a
    collection, it would name one vertex per character."""
    if isinstance(ids, str):
        raise PreconditionError(f"{name} must be a collection of vertex ids, not the string {ids!r}")
    return frozenset(ids)


def _check_sets(g: MixedGraph, xs, ys, zs) -> Tuple[frozenset, frozenset, frozenset]:
    _require("g", g, MixedGraph, WrongGraphClass)
    X, Y, Z = vertex_set("X", xs), vertex_set("Y", ys), vertex_set("Z", zs)
    for vid in X | Y | Z:
        g.vertex(vid)
    if X & Y or X & Z or Y & Z:
        raise OverlappingSets("X, Y and Z must be pairwise disjoint")
    return X, Y, Z


def _moves(g: MixedGraph, v: str):
    """Oriented edge traversals leaving v: (symbol, target)."""
    for b in g.children(v):
        yield FORWARD, b
    for a in g.parents(v):
        yield BACKWARD, a
    for u in g.spouses(v):
        yield BOTH, u


def d_separated(
    g: MixedGraph, X: Iterable[str], Y: Iterable[str], Z: Iterable[str]
) -> bool:
    """True iff every path between X and Y is blocked by Z."""
    Xs, Ys, Zs = _check_sets(g, X, Y, Z)
    ix = g.index
    return not reaches(ix, ix.mask(Xs), ix.mask(Ys), ix.mask(Zs))


# The engine below is `active_path`'s search without the witness, kept as
# masks of `MixedGraph.index` (the Bayes-ball algorithm: Shachter 1998; Koller
# & Friedman 2009, Alg. 3.1). A mutilation is passed as two masks, ``over``
# and ``under``, and read edge by edge exactly as `mutilate` builds its
# graph, so no mutilated graph is made: a directed edge a -> b is gone when b
# is not a proxy and b is overlined or a underlined, a bidirected edge when
# either end is overlined; a self-loop is both an incoming and an outgoing
# edge.


def _cut(ix: AdjacencyIndex, over: int, under: int):
    """A function from a position to its (parents, children, spouses) masks
    after the mutilation."""
    pa, ch, sp, proxies = ix.parents, ix.children, ix.spouses, ix.proxies
    if not over | under:
        return lambda i: (pa[i], ch[i], sp[i])
    keep_in = proxies | ~over  # children kept by a vertex that is not underlined

    def adjacent(i: int):
        b = 1 << i
        p = pa[i] if b & proxies else 0 if b & over else pa[i] & ~under
        c = ch[i] & (proxies if b & under else keep_in)
        return p, c, 0 if b & over else sp[i] & ~over

    return adjacent


def refuse_proxies(ix: AdjacencyIndex, vertices: int) -> None:
    """`mutilate`'s refusal of a proxy, for a mask: names the first in id order."""
    proxies = vertices & ix.proxies
    if proxies:
        vid = ix.ids[(proxies & -proxies).bit_length() - 1]
        raise UnknownVertex(f"proxy {vid!r} cannot be mutilated")


def _positions(m: int):
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def ancestor_mask(ix: AdjacencyIndex, targets: int, over: int = 0, under: int = 0) -> int:
    """The vertices with a directed path into ``targets`` (inclusive) after
    the mutilation ``over``/``under``, as a mask."""
    adjacent = _cut(ix, over, under)
    seen = todo = targets
    while todo:
        new = 0
        for i in _positions(todo):
            new |= adjacent(i)[0]
        todo = new & ~seen
        seen |= todo
    return seen


def reaches(ix: AdjacencyIndex, xs: int, ys: int, zs: int, over: int = 0, under: int = 0) -> bool:
    """True iff an active path joins ``xs`` to ``ys`` given ``zs`` after the
    mutilation ``over``/``under``; the vertex sets are disjoint masks.

    Reachability over (vertex, arrival mark) states, kept as two masks: the
    vertices entered through an arrowhead and those entered through a tail.
    An endpoint in ``xs`` leaves by any edge, as a vertex entered through a
    tail does, so the search starts from ``xs`` as tail arrivals.
    """
    adjacent = _cut(ix, over, under)
    open_collider = ancestor_mask(ix, zs, over, under) if zs else 0
    heads = tails = 0
    new_heads, new_tails = 0, xs
    while new_heads | new_tails:
        if (new_heads | new_tails) & ys:
            return True
        heads |= new_heads
        tails |= new_tails
        next_heads = next_tails = 0
        for i in _positions(new_tails & ~zs):  # a non-collider: any edge out
            p, c, s = adjacent(i)
            next_heads |= c | s
            next_tails |= p
        for i in _positions(new_heads & ~zs):  # a non-collider: out by a tail
            next_heads |= adjacent(i)[1]
        for i in _positions(new_heads & open_collider):  # a collider: out by a head
            p, _, s = adjacent(i)
            next_heads |= s
            next_tails |= p
        new_heads = next_heads & ~heads
        new_tails = next_tails & ~tails
    return False


def active_path(
    g: MixedGraph,
    X: Iterable[str],
    Y: Iterable[str],
    Z: Iterable[str],
    mutilation: MutilationSpec = MutilationSpec(),
) -> Optional[Walk]:
    """A shortest active path between X and Y given Z, or None if separated.

    The mutilation is refused as `mutilate` refuses it, before the sets are
    checked; `_shortest_active_path` then searches on the masks of
    `MixedGraph.index`, so the witness is the one on the graph `mutilate`
    would build.
    """
    _check_mutilation(g, "mutilation", mutilation)
    Xs, Ys, Zs = _check_sets(g, X, Y, Z)
    ix = g.index
    over, under = ix.mask(mutilation.remove_incoming), ix.mask(mutilation.remove_outgoing)
    return _shortest_active_path(ix, ix.mask(Xs), ix.mask(Ys), ix.mask(Zs), over, under)


def _shortest_active_path(
    ix: AdjacencyIndex, xs: int, ys: int, zs: int, over: int, under: int
) -> Optional[Walk]:
    """`active_path` on masks, unchecked: a shortest active path from ``xs``
    to ``ys`` given ``zs`` after the mutilation ``over``/``under``, or None.

    Breadth-first search over (position, arrived by a head) states, each
    position's moves in (symbol, target id) order; the mutilation is read
    edge by edge, as `reaches` reads it. A shortest active walk is
    necessarily simple, so the witness is a path.
    """
    adjacent = _cut(ix, over, under)
    open_collider = ancestor_mask(ix, zs, over, under) if zs else 0

    def moves(i: int):
        p, c, s = adjacent(i)
        for sym, targets in ((FORWARD, c), (BACKWARD, p), (BOTH, s)):
            for j in _positions(targets):
                yield sym, j

    prev = {}
    queue = deque()
    for x in _positions(xs):
        for sym, j in moves(x):
            state = (j, sym != BACKWARD)
            if state not in prev:
                prev[state] = (None, x, sym)
                queue.append(state)

    while queue:
        state = queue.popleft()
        i, head = state
        if ys >> i & 1:
            return _reconstruct(ix.ids, prev, state)
        for sym, j in moves(i):
            if head and sym != FORWARD:  # a collider: in and out by a head
                if not open_collider >> i & 1:
                    continue
            elif zs >> i & 1:
                continue
            nxt = (j, sym != BACKWARD)
            if nxt not in prev:
                prev[nxt] = (state, i, sym)
                queue.append(nxt)
    return None


def _reconstruct(ids, prev, state) -> Walk:
    vs, es = [ids[state[0]]], []
    while state is not None:
        state, i, sym = prev[state]
        vs.append(ids[i])
        es.append(sym)
    return Walk(tuple(reversed(vs)), tuple(reversed(es)))


# ---------------------------------------------------------------------------
# Exhaustive path oracle
# ---------------------------------------------------------------------------


def enumerate_paths(
    g: MixedGraph,
    a: str,
    b: str,
    max_len: int,
    *,
    allow_proxy_interior: bool = False,
) -> list:
    """All simple paths between two vertices, up to ``max_len`` edges.

    Deterministic lexicographic order over (vertex, symbol) sequences. Proxy
    vertices are kept off path interiors unless asked for; self-loops never
    occur on simple paths.
    """
    _require("g", g, MixedGraph, WrongGraphClass)
    g.require(a, b)
    if a == b:
        raise OverlappingSets("endpoints must differ")
    out: list = []

    def extend(walk_vs, walk_es):
        v = walk_vs[-1]
        if v == b:
            out.append(Walk(tuple(walk_vs), tuple(walk_es)))
            return
        if len(walk_es) == max_len:
            return
        if v != a and g.kind(v) is Kind.PROXY and not allow_proxy_interior:
            return
        for sym, target in sorted(_moves(g, v), key=lambda m: (m[1], m[0])):
            if target in walk_vs:
                continue
            extend(walk_vs + [target], walk_es + [sym])

    extend([a], [])
    out.sort(key=lambda w: (len(w), w.vertices, w.edges))
    return out


def path_blocked(g: MixedGraph, path: Walk, Z: Iterable[str]) -> bool:
    """Blocking per the path definition; used as the cross-check oracle."""
    Zs = frozenset(Z)
    open_collider = ancestors(g, Zs) if Zs else frozenset()
    for i in path.interior():
        v = path.vertices[i]
        if path.is_collider(i):
            if v not in open_collider:
                return True
        elif v in Zs:
            return True
    return False


def d_separated_by_paths(
    g: MixedGraph, X: Iterable[str], Y: Iterable[str], Z: Iterable[str]
) -> bool:
    """Brute-force d-separation by enumerating every simple path."""
    Xs, Ys, Zs = _check_sets(g, X, Y, Z)
    limit = len(g.vertices)
    for x in sorted(Xs):
        for y in sorted(Ys):
            for p in enumerate_paths(g, x, y, limit, allow_proxy_interior=True):
                if not path_blocked(g, p, Zs):
                    return False
    return True
