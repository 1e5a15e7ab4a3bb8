"""Do-calculus on cluster missingness graphs and bounded derivation search.

The three rules reduce to d-separation statements in mutilated graphs:

- Rule 1 (insert/delete observations):  Y indep X | Z,W  in  G over Z;
- Rule 2 (exchange do and see):         Y indep X | Z,W  in  G over Z under X;
- Rule 3 (delete interventions):        Y indep X | Z,W  in  G over Z, over X(W),
  where X(W) are the X-vertices that are not ancestors of any W-vertex in
  G over Z.

Each statement is decided on the graph's bitmask adjacency with the
mutilation as edge masks (`separation.reaches`); no mutilated graph is built.

`recover_effect` searches breadth-first over canonical expression states,
combining the rules with proxy substitution and probability manipulations,
until the query contains no do-operator and every partially observed symbol
appears as a proxy alongside its R=0 literals. Derivations are replayable
proof objects: every step stores the rule, its parameters and the expression
before and after, and `replay` re-verifies all of it against a graph.

For the duration of one call, the search memoizes the legal moves of each
distinct term, certificates included, and the Marginalize collapse of each
distinct sum, so a term or sum met in many states is checked once. Listing
a state's rewritable nodes records the path to each, and a successor is
rebuilt along that path only, upward, each ancestor normalised by its own
type: the other subtrees are canonical already and are shared with the state
it came from. A `Step` is made only for a successor that was not seen before.
The goal test is one per-term predicate, memoized per call like the moves.
A state at depth − 1 is expanded last: its successors are goal-tested and
never kept, so the search builds one only when every term of the replacement
and every term off the rewritten path is observable, or a quotient on the
path may cancel. `NotDerived.states_explored` counts the states expanded.
`replay` lists moves and rebuilds successors along the same recorded paths
as the search, but keeps no memo: it re-checks every certificate, requires
the recorded one to equal it in every field, requires every symbol of the
query to name a vertex of the graph, and requires an observable result.
"""

from __future__ import annotations

import operator
from collections import deque
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple, Union

from .errors import (
    DepthNonPositive,
    OverlappingSets,
    PreconditionError,
    UnknownRule,
    UnknownVertex,
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
from .graphs import Kind, MixedGraph
from .separation import ancestor_mask, reaches, refuse_proxies, vertex_set


@dataclass(frozen=True)
class RuleCertificate:
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
    before any other check.
    """
    if rule not in ("R1", "R2", "R3"):
        raise UnknownRule(f"unknown rule {rule!r}")
    Ys, Xs, Zs, Ws = (tuple(sorted(vertex_set(n, s))) for n, s in zip("YXZW", (Y, X, Z, W)))
    if len({*Ys, *Xs, *Zs, *Ws}) < len(Ys) + len(Xs) + len(Zs) + len(Ws):
        raise OverlappingSets("rule sets must be pairwise disjoint")
    for vid in (*Ys, *Xs, *Zs, *Ws):
        g.vertex(vid)
    for vid in Zs:
        if g.kind(vid) is Kind.INDICATOR:
            raise UnknownVertex(f"indicator {vid!r} cannot be intervened on")
    if rule in ("R2", "R3"):
        for vid in Xs:
            if g.kind(vid) is Kind.INDICATOR:
                raise UnknownVertex(f"indicator {vid!r} cannot be intervened on")

    ix = g.index
    zs = ix.mask(Zs)
    overline, underline = Zs, ()
    if rule == "R2":
        underline = Xs
    elif rule == "R3":
        # the X that are not ancestors of W in the graph without edges into Z
        refuse_proxies(ix, zs)
        above_w = ancestor_mask(ix, ix.mask(Ws), zs)
        overline = tuple(sorted(set(Zs).union(x for x in Xs if not ix.bit[x] & above_w)))
    over, under = ix.mask(overline), ix.mask(underline)
    refuse_proxies(ix, over | under)
    holds = not reaches(ix, ix.mask(Ys), ix.mask(Xs), zs | ix.mask(Ws), over, under)
    return RuleCertificate(rule, Ys, Xs, Zs, Ws, overline, underline, holds)


# ---------------------------------------------------------------------------
# Derivations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Step:
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


@dataclass(frozen=True)
class Derivation:
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


@dataclass(frozen=True)
class NotDerived:
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


def _term_moves(g: MixedGraph, t: Term):
    """Candidate rewrites of one term, in the fixed rule order.

    Yields ``(rule, params, sep, replacement)`` with ``params`` as sorted
    (key, value) pairs. They depend on the term alone: TotalProb is offered
    for every adjacent cluster the term does not mention, and `_rewrites`
    drops those that occur elsewhere in the expression.
    """
    masked = set(g.partially_observed)

    def sep(moved_atoms):
        y = set().union(*(atom_vertices(g, a) for a in t.outcomes))
        x = set().union(*(atom_vertices(g, a) for a in moved_atoms))
        z = {a.ref for a in t.do} - x
        w = set()
        for a in t.cond:
            if a not in moved_atoms:
                w |= atom_vertices(g, a)
        return y, x, z, w - y - x - z

    # R1: insert an R=0 literal for an indicator whose owner symbol is present
    present_clusters = {a.ref for a in t.outcomes | t.cond if a.kind in (VAL, PROXY)}
    for r in sorted(g.indicators):
        lit = rzero(r)
        if lit in t.cond or lit in t.outcomes:
            continue
        if g.owner_cluster(r) not in present_clusters:
            continue
        yield "R1", (("insert", r),), sep([lit]), t.replace(cond=t.cond | {lit})
    # R1: drop a conditioned atom
    for a in sorted(t.cond):
        yield "R1", (("drop", a.render()),), sep([a]), t.replace(cond=t.cond - {a})
    # R2: exchange one do(atom) for conditioning
    for a in sorted(t.do):
        yield "R2", (("observe", a.render()),), sep([a]), Term(t.outcomes, t.do - {a}, t.cond | {a})
    # R3: delete one do(atom)
    for a in sorted(t.do):
        yield "R3", (("delete", a.render()),), sep([a]), t.replace(do=t.do - {a})
    # ProxyEq1: switch a masked symbol to its proxy when licensed
    for a in sorted(t.outcomes | t.cond):
        if a.kind == VAL and a.ref in masked:
            need = {rzero(r) for r in g.indicators_of_cluster(a.ref)}
            if need <= (t.outcomes | t.cond):
                yield "ProxyEq1", (("target", a.ref),), None, _swap_proxy(t, a.ref)
    # TotalProb: introduce an adjacent cluster into a do-carrying term
    if t.do:
        adjacent = set()
        for a in t.outcomes | t.do | t.cond:
            for vid in atom_vertices(g, a):
                if vid in g.ids:
                    adjacent |= {n for n in g.neighbors(vid) if g.kind(n) is Kind.CLUSTER}
        mentioned = {a.ref for a in t.outcomes | t.do | t.cond}
        for c in sorted(adjacent - mentioned):
            yield "TotalProb", (("over", c),), None, expand_total_probability(t, c)
    # ChainRule: split one outcome off a joint term
    if len(t.outcomes) > 1:
        for a in sorted(t.outcomes):
            if a.kind != RZERO:
                yield "ChainRule", (("split", a.render()),), None, chain_split(t, a)


def _sum_moves(s: Sum):
    """The Marginalize move of one canonical sum, if it collapses."""
    out = collapse(s)
    return [] if out is None else [("Marginalize", (), None, out)]


def _node_moves(g: MixedGraph, x: Expr):
    """Candidate rewrites of one term (`_term_moves`) or one sum (`_sum_moves`)."""
    return _term_moves(g, x) if isinstance(x, Term) else _sum_moves(x)


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
    goal-tested, never kept, and the search builds just those that
    `_may_be_goal` allows. So ``NotDerived.states_explored`` counts the
    states within depth − 1 moves of the query. ``depth`` must be an integer
    (anything `operator.index` accepts) of at least 1.

    Each distinct term's legal moves, each distinct sum's collapse and each
    distinct term's goal test are computed once per call and kept in dicts
    that live as long as the search.
    """
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

    moves, observable = _memo(_legal_moves, g, {}), _memo(_term_observable, g, {})
    if all(map(observable, terms_of(query))):
        return Derivation(g.name, query, ())
    seen = {query}
    frontier = deque([(query, ())])
    explored = 0
    while frontier:
        expr, steps = frontier.popleft()
        explored += 1
        last = len(steps) == depth - 1  # successors are goal-tested, never kept
        for rule, params, cert, new, path in _rewrites(expr, moves):
            if last and not _may_be_goal(expr, path, new, observable):
                continue
            nxt = _successor(expr, path, new)
            if nxt in seen:
                continue
            # goal test at generation: in breadth-first order the first
            # observable state generated is the first one popped
            if all(map(observable, terms_of(nxt))):
                return Derivation(g.name, query, steps + (Step(rule, params, expr, nxt, cert),))
            if not last:
                seen.add(nxt)
                frontier.append((nxt, steps + (Step(rule, params, expr, nxt, cert),)))
    return NotDerived(query, depth, explored)


def _rewritable(e: Expr) -> Dict[Expr, Tuple[int, ...]]:
    """Each distinct term, then each distinct sum, mapped to the child
    positions that lead from the root to its first pre-order occurrence:
    the nodes whose rewrites make successors, with where to make them."""
    terms, sums = {}, {}

    def visit(x: Expr, path: Tuple[int, ...]):
        if isinstance(x, Term):
            terms.setdefault(x, path)
            return
        if isinstance(x, Sum):
            sums.setdefault(x, path)
        for i, sub in enumerate(_children(x)):
            visit(sub, (*path, i))

    visit(e, ())
    return {**terms, **sums}


def _rewrites(expr: Expr, moves):
    """Every candidate move of an expression, in the fixed rule order.

    ``moves(x)`` gives the ``(rule, params, check, new)`` moves of each
    `_rewritable` node; TotalProb moves over a cluster that occurs elsewhere
    in the expression are dropped. Yields ``(rule, params, check, new,
    path)`` with ``path`` the one `_rewritable` recorded for the rewritten
    node; a Marginalize move has no check. A later occurrence of an equal
    node would only repeat the first one's successors.
    """
    used = {a.ref for a in symbols_of(expr)}
    for x, path in _rewritable(expr).items():
        for rule, params, check, new in moves(x):
            if rule != "TotalProb" or params[0][1] not in used:
                yield rule, params, check, new, path


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


def _legal_moves(g: MixedGraph, x: Expr):
    """The moves of a term or sum whose certificate holds, with the
    certificate in place of the separation statement (None for an algebraic
    move) and the replacement in canonical form."""
    out = []
    for rule, params, sep, replacement in _node_moves(g, x):
        cert = None if sep is None else rule_applicable(g, rule, *sep)
        if cert is None or cert.holds:
            out.append((rule, params, cert, canonical(replacement)))
    return out


def _may_be_goal(expr: Expr, path: Tuple[int, ...], new: Expr, observable) -> bool:
    """Whether putting ``new`` at ``path`` in ``expr`` can give an observable
    expression, judged from terms that exist already.

    The rebuild along the path keeps every subtree off it, so each of their
    terms must be ``observable``, and so must each term of ``new``. A quotient
    on the path is the exception: it becomes ``One`` when its sides meet,
    dropping terms, so below it nothing can be ruled out.
    """
    node = expr
    for i in path:
        if type(node) is Quotient:
            return True
        kids = _children(node)
        for j, sub in enumerate(kids):
            if j != i and not all(map(observable, terms_of(sub))):
                return False
        node = kids[i]
    return all(map(observable, terms_of(new)))


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReplayResult:
    ok: bool
    failed_at: Optional[int] = None  # 1-based step index; 0 for the query itself
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        return {"ok": self.ok, "failed_at": self.failed_at, "reason": self.reason}


def replay(g: MixedGraph, d: Derivation) -> ReplayResult:
    """Re-verify a derivation against a graph, step by step.

    Each step must continue the previous expression and be one of that
    expression's candidate moves on ``g``: the same rule and parameters, the
    same result in canonical form and, for a do-calculus step, a recorded
    certificate equal in every field to the one `rule_applicable` computes
    for its statement, which is checked once. The result must then be
    observable on ``g``. Returns the first failing step when the derivation
    does not carry over; an unobservable result fails at the last step, or
    at 0 when there are no steps and the query itself is not observable.

    The query fails at 0 when one of its symbols names nothing of that kind
    in ``g``: a value must name a substantive vertex, a proxy a partially
    observed one and an R=0 literal an indicator. Every step is a legal
    move, so checking the query covers the whole derivation. The moves are
    listed by `_rewrites` and rebuilt by `_successor` along the paths it
    records, as in the search.
    """
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
    for i, step in enumerate(d.steps, start=1):
        if canonical(step.before) != current:
            return ReplayResult(False, i, "step does not continue the previous expression")
        after = canonical(step.after)
        c = step.certificate
        statement = None if c is None else (c.rule, c.y, c.x, c.z, c.w)
        try:
            if c is not None:
                computed = rule_applicable(g, *statement)
                if not computed.holds:
                    return ReplayResult(False, i, f"{c.rule} certificate fails on {g.name}")
                if c != computed or c.holds is not True:
                    return ReplayResult(
                        False, i, f"recorded {c.rule} certificate differs from the one computed on {g.name}"
                    )
            if not any(
                (rule, params) == (step.rule, step.params)
                and _statement(rule, sep) == statement
                and _successor(current, path, canonical(new)) == after
                for rule, params, sep, new, path in _rewrites(current, lambda x: _node_moves(g, x))
            ):
                return ReplayResult(False, i, "rewrite is not canonical-form-checkable")
        except (UnknownVertex, OverlappingSets, UnknownRule) as exc:
            return ReplayResult(False, i, str(exc))
        current = after
    if not _observable(g, current):
        return ReplayResult(False, len(d.steps), f"result is not observable on {g.name}")
    return ReplayResult(True)


def _statement(rule: str, sep):
    """A candidate's separation statement in certificate form."""
    return None if sep is None else (rule, *(tuple(sorted(s)) for s in sep))
