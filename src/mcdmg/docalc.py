"""Do-calculus on cluster missingness graphs and bounded derivation search.

The three rules reduce to d-separation statements in mutilated graphs:

- Rule 1 (insert/delete observations):  Y indep X | Z,W  in  G over Z;
- Rule 2 (exchange do and see):         Y indep X | Z,W  in  G over Z under X;
- Rule 3 (delete interventions):        Y indep X | Z,W  in  G over Z, over X(W),
  where X(W) are the X-vertices that are not ancestors of any W-vertex in
  G over Z.

Each statement is decided on the graph's bitmask adjacency with the
mutilation as edge masks (`separation.reaches`); no mutilated graph is built.
`_certify` decides a statement whose sets are masks; `rule_applicable`
validates its arguments and calls it.

`recover_effect` searches breadth-first over canonical expression states,
combining the rules with proxy substitution and probability manipulations,
until the query contains no do-operator and every partially observed symbol
appears as a proxy alongside its R=0 literals. Derivations are replayable
proof objects: every step stores the rule, its parameters and the expression
before and after, and `replay` re-verifies all of it against a graph.

Each rule has one move builder (`_term_moves` chains them in the fixed rule
order; a sum's one move is Marginalize). The search is goal-directed. For
the duration of one call it lists the candidate moves of each distinct term
or sum once (`_candidates`), each with its statement as a `_certify` key of
masks and its replacement in canonical form, and it decides each distinct
statement once, when a move first needs it. One lister, `_rewrites`, makes
a state's moves for the search and for `replay`: it records the path to
each rewritable node, and the span: the longest path prefix shared by every
unobservable term, with the first quotient along it.
A rewrite can make the state observable only on the span, or below a
quotient of the span whose sides may meet; with no such quotient, the
successor is observable exactly when every term of the replacement is
(`_on_span`). A successor is rebuilt along its path only, upward, each
ancestor normalised by its own type: the other subtrees are canonical
already and are shared with the state it came from. A `Step` is made only
for a successor that was not seen before. A state at depth − 1 is expanded
last: its successors are goal-tested and never kept, so the search skips its
nodes off the span before listing their moves and decides a certificate
only for a move that can reach the goal: one whose replacement is
observable, or one below a quotient of the span.
`NotDerived.states_explored` counts the states expanded.
`replay` applies the recorded move: through the same lister it runs only
the recorded rule's builder on each rewritable node, puts only the move
with the recorded parameters and statement in canonical form, and rebuilds
it with `_successor` as the search does. It keeps no certificate: it
re-checks every one through `rule_applicable`, requires the recorded one to
equal it in every field, requires every symbol of the query to name a
vertex of the graph, and requires an observable result.
"""

from __future__ import annotations

import operator
from collections import deque
from typing import Dict, FrozenSet, Iterable, NamedTuple, Optional, Tuple, Union

from .errors import (
    DepthNonPositive,
    OverlappingSets,
    PreconditionError,
    UnknownRule,
    UnknownVertex,
    WrongGraphClass,
)
from .expressions import (
    PROXY,
    RZERO,
    VAL,
    Atom,
    Expr,
    One,
    Product,
    Quotient,
    Sum,
    Term,
    _children,
    _normal,
    _sort_key,
    _swap_proxy,
    canonical,
    chain_split,
    collapse,
    expand_total_probability,
    expr_from_json,
    expr_to_json,
    render,
    rzero,
    symbols_of,
    term,
    terms_of,
    val,
)
from .graphs import Kind, MixedGraph, _require
from .separation import ancestor_mask, reaches, refuse_proxies, vertex_set


class RuleCertificate(NamedTuple):
    """A d-separation statement in a mutilated graph, with its verdict."""

    rule: str
    y: Tuple[str, ...]
    x: Tuple[str, ...]
    z: Tuple[str, ...]
    w: Tuple[str, ...]
    overline: Tuple[str, ...]
    underline: Tuple[str, ...]
    holds: bool

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "y": list(self.y),
            "x": list(self.x),
            "z": list(self.z),
            "w": list(self.w),
            "overline": list(self.overline),
            "underline": list(self.underline),
            "holds": self.holds,
        }


def rule_applicable(
    g: MixedGraph,
    rule: str,
    Y: Iterable[str],
    X: Iterable[str],
    Z: Iterable[str],
    W: Iterable[str],
) -> RuleCertificate:
    """Check one do-calculus rule; the certificate records the mutilation.

    Y is the outcome set, X the set being inserted/exchanged/deleted, Z the
    retained interventions, W the other conditioned vertices. Indicators may
    appear in W (they are conditioned at R=0 throughout) but are never
    intervened on. Raises UnknownRule for a rule other than R1, R2 or R3
    before any other check, then WrongGraphClass if ``g`` is not a
    `MixedGraph`. The arguments are validated here and the statement is
    decided by `_certify`.
    """
    if rule not in ("R1", "R2", "R3"):
        raise UnknownRule(f"unknown rule {rule!r}")
    _require("g", g, MixedGraph, WrongGraphClass)
    sets = [vertex_set(n, s) for n, s in zip("YXZW", (Y, X, Z, W))]
    if len(frozenset().union(*sets)) < sum(map(len, sets)):
        raise OverlappingSets("rule sets must be pairwise disjoint")
    for vid in (v for s in sets for v in sorted(s)):
        g.vertex(vid)
    return _certify(g, (rule, *map(g.index.mask, sets)))


def _certify(g: MixedGraph, statement: Tuple[str, int, int, int, int]) -> RuleCertificate:
    """`rule_applicable` for a statement ``(rule, Y, X, Z, W)`` whose sets are
    masks of ``g.index``, without looking up or sorting ids.

    It refuses what `rule_applicable` refuses, with the same messages:
    overlapping sets, an intervened indicator (in Z, or in X under R2 or R3)
    and a mutilated proxy.
    """
    rule, ys, xs, zs, ws = statement
    if ys & xs or ys & zs or ys & ws or xs & zs or xs & ws or zs & ws:
        raise OverlappingSets("rule sets must be pairwise disjoint")
    ix = g.index
    for intervened in (zs, 0 if rule == "R1" else xs):
        indicators = intervened & ix.indicators
        if indicators:
            raise UnknownVertex(f"indicator {ix.ids_of(indicators)[0]!r} cannot be intervened on")
    overline, underline = zs, 0
    if rule == "R2":
        underline = xs
    elif rule == "R3":
        # the X that are not ancestors of W in the graph without edges into Z
        refuse_proxies(ix, zs)
        overline = zs | xs & ~ancestor_mask(ix, ws, zs)
    refuse_proxies(ix, overline | underline)
    holds = not reaches(ix, ys, xs, zs | ws, overline, underline)
    return RuleCertificate(rule, *map(ix.ids_of, (ys, xs, zs, ws, overline, underline)), holds)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


class Step(NamedTuple):
    rule: str
    params: Tuple[Tuple[str, str], ...]  # sorted (key, value) pairs
    before: Expr
    after: Expr
    certificate: Optional[RuleCertificate] = None

    def to_json(self) -> dict:
        out = {
            "rule": self.rule,
            "params": {k: v for k, v in self.params},
            "before": expr_to_json(self.before),
            "after": expr_to_json(self.after),
            "before_text": render(self.before),
            "after_text": render(self.after),
        }
        if self.certificate is not None:
            out["certificate"] = self.certificate.to_json()
        return out


def _vertex_ids(certificate: dict, key: str) -> Tuple[str, ...]:
    """A certificate's vertex set, which must be a JSON list of ids."""
    ids = certificate[key]
    if not isinstance(ids, list) or not all(isinstance(v, str) for v in ids):
        raise TypeError(f"certificate field {key!r} is not a list of vertex ids: {ids!r}")
    return tuple(ids)


class Derivation(NamedTuple):
    """A replayable sequence of justified rewrites from query to result."""

    graph_name: str
    query: Expr
    steps: Tuple[Step, ...]

    @property
    def result(self) -> Expr:
        return self.steps[-1].after if self.steps else self.query

    def to_json(self) -> dict:
        return {
            "graph": self.graph_name,
            "query": expr_to_json(self.query),
            "query_text": render(self.query),
            "steps": [s.to_json() for s in self.steps],
            "result": expr_to_json(self.result),
            "result_text": render(self.result),
        }

    @staticmethod
    def from_json(d: dict) -> "Derivation":
        steps = []
        for s in d["steps"]:
            cert = None
            if "certificate" in s:
                c = s["certificate"]
                sets = (_vertex_ids(c, k) for k in ("y", "x", "z", "w", "overline", "underline"))
                cert = RuleCertificate(c["rule"], *sets, c["holds"])
            steps.append(
                Step(
                    s["rule"],
                    tuple(sorted((k, v) for k, v in s["params"].items())),
                    expr_from_json(s["before"]),
                    expr_from_json(s["after"]),
                    cert,
                )
            )
        return Derivation(d["graph"], expr_from_json(d["query"]), tuple(steps))


class NotDerived(NamedTuple):
    """Search exhausted the depth bound; says nothing about recoverability.

    ``states_explored`` is the number of states the search expanded: the
    distinct states within depth − 1 moves of the query.
    """

    query: Expr
    depth: int
    states_explored: int

    def to_json(self) -> dict:
        return {
            "derived": False,
            "query": expr_to_json(self.query),
            "query_text": render(self.query),
            "depth": self.depth,
            "states_explored": self.states_explored,
        }


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------


def _term_observable(g: MixedGraph, t: Term) -> bool:
    """No do-set; a partially observed symbol appears only as its proxy, with
    its R=0 literals in the same term."""
    if t.do:
        return False
    present = t.outcomes | t.cond
    for a in present:
        if a.kind == VAL and a.ref in g.partially_observed:
            return False
        if a.kind == PROXY and not {rzero(r) for r in g.indicators_of_cluster(a.ref)} <= present:
            return False
    return True


def _observable(g: MixedGraph, e: Expr) -> bool:
    """Every term of the expression is `_term_observable`."""
    return all(_term_observable(g, t) for t in terms_of(e))


def _memo(fn, g: MixedGraph, cache: dict):
    """``fn(g, x)``, kept in ``cache`` for each distinct ``x``."""

    def get(x):
        found = cache.get(x)
        if found is None:
            found = cache[x] = fn(g, x)
        return found

    return get


def residual_masked_symbols(g: MixedGraph, e: Expr) -> Tuple[str, ...]:
    """Partially observed clusters still appearing as true-value symbols."""
    masked = set(g.partially_observed)
    out = set()
    for t in terms_of(e):
        for a in t.outcomes | t.cond:
            if a.kind == VAL and a.ref in masked:
                out.add(a.ref)
    return tuple(sorted(out))


def atom_vertices(g: MixedGraph, a: Atom) -> FrozenSet[str]:
    """Graph vertices an atom stands for in separation statements.

    Cluster proxies at m-level expand to every member proxy vertex.
    """
    if a.kind != PROXY:
        return frozenset({a.ref})
    if a.ref in g.proxy_by_owner:
        return frozenset({g.proxy_by_owner[a.ref]})
    owners = [g.vertex(r).owner for r in g.indicators_of_cluster(a.ref)]
    pids = [g.proxy_by_owner[o] for o in owners if o in g.proxy_by_owner]
    if not pids:
        raise UnknownVertex(f"{a.ref!r} has no proxy vertices")
    return frozenset(pids)


def _term_moves(g: MixedGraph, t: Term, rule: Optional[str] = None):
    """Candidate rewrites of one term, in the fixed rule order, or those of
    one ``rule`` alone.

    Yields ``(rule, params, statement, replacement)`` with ``params`` as
    sorted (key, value) pairs and ``statement`` a `_certify` key of masks
    (None for an algebraic move). They depend on the term alone: TotalProb is
    offered for every adjacent cluster the term does not mention, and
    `_rewrites` drops those that occur elsewhere in the expression. Each rule
    has one builder; the search chains them all, and `replay` calls the
    recorded step's alone.
    """
    for name, build in (
        ("R1", _observations),
        ("R2", _exchanges),
        ("R3", _deletions),
        ("ProxyEq1", _proxy_swaps),
        ("TotalProb", _total_probabilities),
        ("ChainRule", _chain_splits),
    ):
        if rule is None or rule == name:
            yield from build(g, t)


def _statement(g: MixedGraph, t: Term, rule: str, moved: Atom):
    """The `_certify` key of a do-calculus move of ``moved`` in ``t``."""
    mask = g.index.mask
    ys = mask(set().union(*(atom_vertices(g, a) for a in t.outcomes)))
    xs = mask(atom_vertices(g, moved))
    zs = mask({a.ref for a in t.do}) & ~xs
    ws = mask(set().union(*(atom_vertices(g, a) for a in t.cond if a != moved)))
    return rule, ys, xs, zs, ws & ~(ys | xs | zs)


def _observations(g: MixedGraph, t: Term):
    """R1: insert an R=0 literal for an indicator whose owner symbol is
    present, then drop a conditioned atom."""
    present_clusters = {a.ref for a in t.outcomes | t.cond if a.kind in (VAL, PROXY)}
    for r in sorted(g.indicators):
        lit = rzero(r)
        if lit in t.cond or lit in t.outcomes:
            continue
        if g.owner_cluster(r) not in present_clusters:
            continue
        yield "R1", (("insert", r),), _statement(g, t, "R1", lit), t.replace(cond=t.cond | {lit})
    for a in sorted(t.cond):
        yield "R1", (("drop", a.render()),), _statement(g, t, "R1", a), t.replace(cond=t.cond - {a})


def _exchanges(g: MixedGraph, t: Term):
    """R2: exchange one do(atom) for conditioning."""
    for a in sorted(t.do):
        yield "R2", (("observe", a.render()),), _statement(g, t, "R2", a), Term(t.outcomes, t.do - {a}, t.cond | {a})


def _deletions(g: MixedGraph, t: Term):
    """R3: delete one do(atom)."""
    for a in sorted(t.do):
        yield "R3", (("delete", a.render()),), _statement(g, t, "R3", a), t.replace(do=t.do - {a})


def _proxy_swaps(g: MixedGraph, t: Term):
    """ProxyEq1: switch a masked symbol to its proxy when licensed."""
    masked = set(g.partially_observed)
    for a in sorted(t.outcomes | t.cond):
        if a.kind == VAL and a.ref in masked:
            need = {rzero(r) for r in g.indicators_of_cluster(a.ref)}
            if need <= (t.outcomes | t.cond):
                yield "ProxyEq1", (("target", a.ref),), None, _swap_proxy(t, a.ref)


def _total_probabilities(g: MixedGraph, t: Term):
    """TotalProb: introduce an adjacent cluster into a do-carrying term."""
    if not t.do:
        return
    adjacent = set()
    for a in t.outcomes | t.do | t.cond:
        for vid in atom_vertices(g, a):
            if vid in g.ids:
                adjacent |= {n for n in g.neighbors(vid) if g.kind(n) is Kind.CLUSTER}
    mentioned = {a.ref for a in t.outcomes | t.do | t.cond}
    for c in sorted(adjacent - mentioned):
        yield "TotalProb", (("over", c),), None, expand_total_probability(t, c)


def _chain_splits(g: MixedGraph, t: Term):
    """ChainRule: split one outcome off a joint term."""
    if len(t.outcomes) > 1:
        for a in sorted(t.outcomes):
            if a.kind != RZERO:
                yield "ChainRule", (("split", a.render()),), None, chain_split(t, a)


def _node_moves(g: MixedGraph, x: Expr, rule: Optional[str] = None):
    """The uncanonical moves of a term (`_term_moves`) or of a sum
    (Marginalize, if it collapses), of every rule or of ``rule`` alone."""
    if type(x) is Term:
        yield from _term_moves(g, x, rule)
    elif rule is None or rule == "Marginalize":
        out = collapse(x)
        if out is not None:
            yield "Marginalize", (), None, out


def recover_effect(
    g: MixedGraph,
    treatment: Iterable[str],
    outcome: Iterable[str],
    depth: int = 12,
) -> Union[Derivation, NotDerived]:
    """Search for a derivation of P(outcome | do(treatment)) into observables.

    Breadth-first over canonical expression states with a fixed rule and
    parameter order, so results are deterministic and shortest. Success means
    the final expression has no do-operators and mentions partially observed
    clusters only through proxies guarded by their R=0 literals. Failure is
    reported as NotDerived: the criterion is sound, not complete. Each state
    is goal-tested once, when it is first generated; in breadth-first order
    that returns the derivation a test at pop time would.

    A state at depth − 1 is the last one expanded. Its successors are only
    goal-tested, never kept: `_rewrites` skips its nodes off the span before
    listing their moves and yields only the moves that can reach the goal
    (`_on_span`), so only their certificates are decided. So
    ``NotDerived.states_explored`` counts the states within depth − 1 moves
    of the query. ``depth`` must be an integer (anything `operator.index`
    accepts) of at least 1.

    Each distinct node's candidates (`_candidates`), each distinct
    statement's certificate (`_certify`) and each distinct term's goal test
    are computed once per call, in dicts that live as long as the search.
    """
    _require("g", g, MixedGraph, WrongGraphClass)
    try:
        depth = operator.index(depth)
    except TypeError:
        depth = 0  # not an integer: refused below
    if depth < 1:
        raise DepthNonPositive("depth must be an integer >= 1")
    ts = tuple(sorted(vertex_set("treatment", treatment)))
    os = tuple(sorted(vertex_set("outcome", outcome)))
    for name, ids in (("treatment", ts), ("outcome", os)):
        if not ids:
            raise PreconditionError(f"the {name} names no cluster")
    for vid in ts + os:
        if g.kind(vid) is not Kind.CLUSTER:
            raise UnknownVertex(f"{vid!r} is not a cluster vertex")
    both = sorted(set(ts) & set(os))
    if both:
        raise OverlappingSets(f"treatment and outcome overlap in {', '.join(both)}")
    query = canonical(term(outcomes={val(o) for o in os}, do={val(t) for t in ts}))

    observable = _memo(_term_observable, g, {})
    candidates, certify = _memo(_candidates, g, {}), _memo(_certify, g, {})
    if all(map(observable, terms_of(query))):
        return Derivation(g.name, query, ())
    seen = {query}
    frontier = deque([(query, ())])
    explored = 0
    while frontier:
        expr, steps = frontier.popleft()
        explored += 1
        last = len(steps) == depth - 1  # successors are goal-tested, never kept
        for rule, params, statement, new, new_observable, path, on_span in _rewrites(
            expr, candidates, observable, last
        ):
            cert = None if statement is None else certify(statement)
            if cert is not None and not cert.holds:
                continue
            nxt = _successor(expr, path, new)
            if nxt in seen:
                continue
            # goal test at generation: in breadth-first order the first
            # observable state generated is the first one popped
            if on_span is None:
                goal = all(map(observable, terms_of(nxt)))
            else:
                goal = on_span and new_observable
            if goal:
                return Derivation(g.name, query, steps + (Step(rule, params, expr, nxt, cert),))
            if not last:
                seen.add(nxt)
                frontier.append((nxt, steps + (Step(rule, params, expr, nxt, cert),)))
    return NotDerived(query, depth, explored)


def _rewritable(
    e: Expr, observable
) -> Tuple[Dict[Expr, Tuple[int, ...]], Optional[Tuple[int, ...]], Optional[int]]:
    """The nodes whose rewrites make successors, with where to make them,
    and the span of the unobservable terms.

    Returns ``(nodes, span, quotient)``. ``nodes`` maps each distinct term,
    then each distinct sum, to the child positions that lead from the root
    to its first pre-order occurrence. ``span`` is the longest path prefix
    shared by every occurrence of a term that is not ``observable``, and
    ``quotient`` the depth of the first `Quotient` along it (None for none;
    a quotient at the span's end counts). Both are None when every term is
    observable. `_on_span` reads them.
    """
    terms, sums = {}, {}
    span = quotient = None

    def visit(x: Expr, path: Tuple[int, ...], first_quotient):
        nonlocal span, quotient
        kind = type(x)
        if kind is Term:
            terms.setdefault(x, path)
            if not observable(x):
                if span is None:
                    span, quotient = path, first_quotient
                else:
                    n = 0
                    while n < len(span) and n < len(path) and span[n] == path[n]:
                        n += 1
                    span = span[:n]
            return
        if kind is Sum:
            sums.setdefault(x, path)
        elif kind is Quotient and first_quotient is None:
            first_quotient = len(path)
        for i, sub in enumerate(_children(x)):
            visit(sub, (*path, i), first_quotient)

    visit(e, (), None)
    if quotient is not None and quotient > len(span):
        quotient = None
    return {**terms, **sums}, span, quotient


def _on_span(path: Tuple[int, ...], span: Optional[Tuple[int, ...]], quotient: Optional[int]) -> Optional[bool]:
    """Whether a rewrite at ``path`` can make the state observable, from the
    span of its unobservable terms (`_rewritable`).

    The successor is rebuilt along ``path`` and keeps every term off it,
    unless a quotient on the path has sides that meet and becomes ``One``.
    So with no quotient of the span above ``path``: False when ``path`` is
    not a prefix of the span (an unobservable term survives the rewrite),
    True when it is, and then the successor is observable exactly when every
    term of the replacement is. None when such a quotient lies above
    ``path``, or there is no span: only the rebuilt successor can tell.
    """
    if span is None:
        return None
    if quotient is not None and quotient < len(path) and path[:quotient] == span[:quotient]:
        return None
    return span[: len(path)] == path


def _candidates(g: MixedGraph, x: Expr) -> tuple:
    """The search's moves of a node (`_node_moves`), each as ``(rule, params,
    statement, new, new_observable)``: the replacement in canonical form and
    whether every term of it is observable."""
    candidates = []
    for rule, params, statement, replacement in _node_moves(g, x):
        new = canonical(replacement)
        candidates.append((rule, params, statement, new, _observable(g, new)))
    return tuple(candidates)


def _rewrites(expr: Expr, candidates, observable, last: bool):
    """Every candidate move of a state, in the fixed rule order: the move
    listing of both `recover_effect` (``candidates`` is `_candidates`) and
    `replay` (`_recorded`, the recorded move alone).

    Yields each ``candidates(x)`` of each `_rewritable` node ``x``, with the
    path recorded for it and what `_on_span` says of that path; a later
    occurrence of an equal node would only repeat its successors. TotalProb
    moves over a cluster that occurs elsewhere in the expression are
    dropped. When the state is the ``last`` expanded, only moves that can
    reach the goal are yielded: nodes off the span are skipped unlisted.
    """
    nodes, span, quotient = _rewritable(expr, observable)
    used = None  # the clusters the state mentions, once a TotalProb move needs them
    for x, path in nodes.items():
        on_span = _on_span(path, span, quotient)
        if last and on_span is False:
            continue  # no rewrite of this node can make the state observable
        for rule, params, statement, new, new_observable in candidates(x):
            if rule == "TotalProb":
                if used is None:
                    used = {a.ref for a in symbols_of(expr)}
                if params[0][1] in used:
                    continue
            if last and on_span and not new_observable:
                continue
            yield rule, params, statement, new, new_observable, path, on_span


def _successor(expr: Expr, path: Tuple[int, ...], new: Expr) -> Expr:
    """The canonical form of ``expr`` with the node at ``path`` replaced by
    ``new``, for a canonical ``expr`` and ``new``.

    Only the nodes on the path are rebuilt, upward from the rewritten node,
    each normalised by its own type: every other subtree is canonical
    already. A product's other factors are canonical and sorted, so the new
    factor is spliced in: a product is flattened, ``One`` dropped, a lone
    factor stands alone, and the factors are sorted only when one was added.
    """
    ancestors, node = [], expr
    for i in path:
        ancestors.append(node)
        node = _children(node)[i]
    for parent, i in zip(reversed(ancestors), reversed(path)):
        kind = type(parent)
        if kind is Product:
            others = parent.factors[:i] + parent.factors[i + 1 :]
            added = new.factors if type(new) is Product else () if type(new) is One else (new,)
            if added:
                new = Product(tuple(sorted(others + added, key=_sort_key)))
            else:
                new = others[0] if len(others) == 1 else Product(others)
        elif kind is Sum:
            new = _normal(Sum(parent.bound, new))
        else:
            new = _normal(Quotient(new, parent.den) if i == 0 else Quotient(parent.num, new))
    return new


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


class ReplayResult(NamedTuple):
    ok: bool
    failed_at: Optional[int] = None  # 1-based step index; 0 for the query itself
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "failed_at": self.failed_at, "reason": self.reason}


def _recorded(g: MixedGraph, rule, params, statement):
    """A `_rewrites` lister of the recorded move: ``rule``'s builder alone
    (`_node_moves`), and only a move with the recorded parameters and statement
    is put in canonical form. Its observability is not computed (None):
    replay lists every node, as the search does below its last level."""

    def moves(x: Expr):
        for name, p, s, replacement in _node_moves(g, x, rule):
            if p == params and s == statement:
                yield name, p, s, canonical(replacement), None

    return moves


def replay(g: MixedGraph, d: Derivation) -> ReplayResult:
    """Re-verify a derivation against a graph, step by step.

    Each step must continue the previous expression and be one of that
    expression's candidate moves on ``g``: the same rule and parameters, the
    same result in canonical form and, for a do-calculus step, a recorded
    certificate equal in every field to the one `rule_applicable` computes
    for it, whose statement is the move's. The result must then be
    observable on ``g``. Returns the first failing step when the derivation
    does not carry over; an unobservable result fails at the last step, or
    at 0 when there are no steps and the query itself is not observable.

    The query fails at 0 when one of its symbols names nothing of that kind
    in ``g``: a value must name a substantive vertex, a proxy a partially
    observed one and an R=0 literal an indicator. Every step is a legal
    move, so checking the query covers the whole derivation. A step's move
    is made by its rule's builder alone (`_recorded`), on the nodes and
    paths that `_rewrites` lists for the search, with the same TotalProb
    filter, and rebuilt by `_successor`; no other rule's moves are listed.
    """
    _require("g", g, MixedGraph, WrongGraphClass)
    _require("d", d, Derivation, PreconditionError)
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
    observable = _memo(_term_observable, g, {})
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
            recorded = _recorded(g, step.rule, step.params, statement)
            if not any(
                _successor(current, path, new) == after
                for _, _, _, new, _, path, _ in _rewrites(current, recorded, observable, False)
            ):
                return ReplayResult(False, i, "rewrite is not canonical-form-checkable")
        except (UnknownVertex, OverlappingSets, UnknownRule) as exc:
            return ReplayResult(False, i, str(exc))
        current = after
    if not _observable(g, current):
        return ReplayResult(False, len(d.steps), f"result is not observable on {g.name}")
    return ReplayResult(True)

