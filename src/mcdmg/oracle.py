"""Exact ground truth over small discrete structural causal models.

A DiscreteSCM realizes a variable-level missingness graph: every substantive
variable and indicator gets a CPT, bidirected edges become explicit latent
parents, proxies follow deterministically (value under R=0, NA under R=1).
Everything downstream is full enumeration, no sampling: joint, manifest and
interventional distributions come out as dense probability tables, and
symbolic expressions are evaluated against them exactly.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Mapping, Optional, Tuple

import numpy as np

from .errors import (
    DomainTooLarge,
    EvaluationError,
    McdmgError,
    PartialClusterAssignment,
    PositivityError,
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
    bound_symbols,
    render,
    symbols_of,
    term,
)
from .graphs import Clustering, GraphClass, Kind, MixedGraph, topological_order

MAX_STATES = 1 << 20


@dataclass(frozen=True)
class DistTable:
    """Dense probability table over an ordered tuple of columns."""

    variables: Tuple[str, ...]
    cards: Tuple[int, ...]
    probs: np.ndarray
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        assert self.probs.shape == tuple(self.cards)

    def prob(self, assignment: Mapping[str, int]) -> float:
        """Total mass of the cells matching a partial assignment."""
        if not assignment:
            return self.total()
        cols = tuple(sorted(assignment))
        marg = self.marginal(cols)
        index = tuple(assignment[c] for c in cols)
        for c, x, k in zip(cols, index, marg.cards):
            _check_level(c, x, k)
        return float(marg.probs[index])

    def marginal(self, keep: Iterable[str]) -> "DistTable":
        keep = tuple(keep)
        if keep in self._cache:
            return self._cache[keep]
        for k in keep:
            if k not in self.variables:
                raise UnknownVertex(f"the table has no column {k!r}")
        drop = tuple(i for i, v in enumerate(self.variables) if v not in keep)
        probs = self.probs.sum(axis=drop) if drop else self.probs
        names = tuple(v for v in self.variables if v in keep)
        order = tuple(names.index(k) for k in keep)
        out = DistTable(keep, tuple(self.cards[self.variables.index(k)] for k in keep),
                        np.asarray(np.transpose(probs, order), order="C"))
        self._cache[keep] = out
        return out

    def total(self) -> float:
        if "total" not in self._cache:
            self._cache["total"] = float(self.probs.sum())
        return self._cache["total"]


def _check_level(name: str, x: int, card: int) -> None:
    if not 0 <= x < card:
        raise EvaluationError(f"{name} = {x} is outside its domain 0..{card - 1}")


@dataclass(frozen=True)
class Node:
    """One mechanism: a CPT over the node's parents (sorted order)."""

    name: str
    card: int
    parents: Tuple[str, ...]
    cpt: np.ndarray  # shape (*parent cards, card); rows sum to one


@dataclass(frozen=True)
class DiscreteSCM:
    """Exact finite-domain model for a variable-level missingness graph."""

    madmg: MixedGraph
    nodes: Tuple[Node, ...]  # topological order
    latents: Tuple[str, ...]
    seed: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def node_map(self) -> Dict[str, Node]:
        if "nodes" not in self._cache:
            self._cache["nodes"] = {n.name: n for n in self.nodes}
        return self._cache["nodes"]

    @property
    def variables(self) -> Tuple[str, ...]:
        return tuple(sorted(self.madmg.variables))

    @property
    def indicators(self) -> Tuple[str, ...]:
        return tuple(sorted(self.madmg.indicators))

    def card(self, name: str) -> int:
        return self.node_map[name].card

    def masked(self, var: str) -> bool:
        return var in self.madmg.indicator_by_owner

    def proxy_name(self, var: str) -> str:
        return self.madmg.proxy_by_owner[var]

    def indicator_name(self, var: str) -> str:
        return self.madmg.indicator_by_owner[var]


def _latent_name(a: str, b: str) -> str:
    x, y = sorted((a, b))
    return f"U_{x}_{y}"


def _topo_order(madmg: MixedGraph, latents, extra_parents):
    """`topological_order` over variables, indicators and latents."""
    names = set(madmg.variables) | set(madmg.indicators) | set(latents)
    edges = [(a, b) for b, ps in extra_parents.items() for a in ps]
    return topological_order(names, edges)


def _acyclic(cyclic) -> None:
    if cyclic:
        raise UnknownVertex("variable-level graph has a directed cycle")


def random_scm(madmg: MixedGraph, seed: int = 0) -> DiscreteSCM:
    """Seeded Dirichlet(1, ..., 1) parameterization of a variable-level graph.

    Variables and indicators are binary. Bidirected edges are materialized
    as fresh latent parents of cardinality 4. All rows are drawn from one
    ``standard_exponential`` stream, node by node in topological order, and
    normalized: the bytes ``rng.dirichlet`` would give row by row. Every CPT
    cell is floored at 1e-3 so that manifest distributions are strictly
    positive over complete cases. Raises DomainTooLarge, before drawing,
    when the largest latent join, the joint or the manifest would exceed
    ``MAX_STATES`` cells.
    """
    latents, parents = _mechanisms(madmg)
    order, cyclic = _topo_order(madmg, latents, parents)
    planned = _check_budget(madmg, latents, parents, order + cyclic)
    _acyclic(cyclic)
    shapes = [tuple(_card(p, latents) for p in parents[n]) + (_card(n, latents),) for n in order]
    draws = np.random.default_rng(seed).standard_exponential(sum(map(math.prod, shapes)))
    nodes, start = [], 0
    for name, shape in zip(order, shapes):
        g = draws[start:start + math.prod(shape)].reshape(shape)
        start += g.size
        k = shape[-1]
        cpt = g * (1.0 / g.sum(-1, keepdims=True)) * (1.0 - k * 1e-3) + 1e-3
        nodes.append(Node(name, k, parents[name], cpt))
    scm = DiscreteSCM(madmg, tuple(nodes), latents, seed)
    scm._cache[("plan", ())] = planned  # the joint's factors are the budget's, in this order
    return scm


def _check_budget(madmg: MixedGraph, latents, parents, order):
    """Refuse a graph whose exact tables would exceed ``MAX_STATES`` cells:
    the largest latent join of the joint's elimination, the joint itself
    (which bounds every CPT without a latent in its scope) and the manifest,
    where each masked variable gets an extra NA level. Returns the joint's
    `_elimination` over the mechanisms in ``order``; the largest join does
    not depend on the order."""
    card = functools.partial(_card, latents=latents)
    planned = _elimination([parents[n] + (n,) for n in order], latents, card)
    largest = planned[1]
    observables = list(madmg.variables) + list(madmg.indicators)
    if max(largest, math.prod(map(card, observables))) > MAX_STATES:
        raise DomainTooLarge(f"latent join or joint table exceeds {MAX_STATES} cells")
    levels = (card(n) + (n in madmg.indicator_by_owner) for n in observables)
    if math.prod(levels) > MAX_STATES:
        raise DomainTooLarge(f"manifest table exceeds {MAX_STATES} cells")
    return planned


def _mechanisms(madmg: MixedGraph) -> Tuple[Tuple[str, ...], Dict[str, Tuple[str, ...]]]:
    """(latents, node -> sorted parents): a mechanism per variable and
    indicator (proxies are deterministic), a latent per bidirected edge."""
    parents = {n: list(madmg.parents(n)) for n in madmg.variables + madmg.indicators}
    latents = []
    for a, b in sorted(madmg.bidirected):
        lat = _latent_name(a, b)
        parents[a].append(lat)
        parents[b].append(lat)
        parents[lat] = []
        latents.append(lat)
    return tuple(latents), {n: tuple(sorted(ps)) for n, ps in parents.items()}


def _card(name: str, latents: Tuple[str, ...]) -> int:
    """Latents have 4 levels, variables and indicators 2."""
    return 4 if name in latents else 2


def scm_from_cpts(
    madmg: MixedGraph, cpts: Mapping[str, Tuple[Tuple[str, ...], np.ndarray]], seed: int = 0
) -> DiscreteSCM:
    """Assemble an SCM from explicit (parents, cpt) pairs, topologically sorted."""
    parents = {name: list(ps) for name, (ps, _) in cpts.items()}
    latents = tuple(sorted(n for n in cpts if n not in madmg.ids))
    order, cyclic = _topo_order(madmg, latents, parents)
    _acyclic(cyclic)
    nodes = []
    for name in order:
        ps, cpt = cpts[name]
        cpt = np.asarray(cpt, dtype=float)
        nodes.append(Node(name, int(cpt.shape[-1]), tuple(ps), cpt))
    return DiscreteSCM(madmg, tuple(nodes), latents, seed)


# ---------------------------------------------------------------------------
# Exact tables
# ---------------------------------------------------------------------------


def _do_table(scm: DiscreteSCM, do_vars: Tuple[str, ...] = ()) -> DistTable:
    """The one table builder: the truncated factorization (Pearl 2009, eq.
    3.10) over variables and indicators for every assignment to ``do_vars``.

    The CPTs of the nodes not in ``do_vars`` are contracted by variable
    elimination (Koller & Friedman 2009, ch. 9): each latent, in
    ``scm.latents`` order, is summed out of the one-einsum join of the
    factors that mention it, and the factors left are multiplied into the
    kept table, which holds every do-level on its diagonal ``v = do(v)``. A
    leading column ``do(v)`` per intervened variable copies that diagonal,
    and the table is zero off it. Without ``do_vars``, the joint. Raises
    DomainTooLarge, before allocating, when the largest join or the stacked
    table would exceed ``MAX_STATES`` cells.
    """
    key = ("do", do_vars)
    if key in scm._cache:
        return scm._cache[key]
    kept = tuple(n.name for n in scm.nodes if n.name not in scm.latents)
    kept_cards = tuple(scm.card(n) for n in kept)
    do_cards = tuple(scm.card(v) for v in do_vars)
    factors = [(n.parents + (n.name,), n.cpt) for n in scm.nodes if n.name not in do_vars]
    planned = scm._cache.get(("plan", do_vars))
    plan, largest = planned or _elimination([s for s, _ in factors], scm.latents, scm.card)
    if max(largest, math.prod(do_cards + kept_cards)) > MAX_STATES:
        raise DomainTooLarge(f"do-table on {list(do_vars)} exceeds {MAX_STATES} cells")
    for lat, joined, union in plan:
        label = {n: i for i, n in enumerate(union)}
        operands = [x for i in joined for x in (factors[i][1], [label[n] for n in factors[i][0]])]
        out = tuple(n for n in union if n != lat)
        factors = [f for i, f in enumerate(factors) if i not in joined]
        factors.append((out, np.einsum(*operands, [label[n] for n in out])))
    axis = {n: i for i, n in enumerate(kept)}
    probs = np.ones(kept_cards)
    for scope, values in factors:
        # broadcast the factor onto its axes of the kept table
        src_axes = [axis[n] for n in scope]
        view_shape = [1] * len(kept)
        for a, size in zip(src_axes, values.shape):
            view_shape[a] = size
        order = sorted(range(len(scope)), key=src_axes.__getitem__)
        probs *= np.transpose(values, order).reshape(view_shape)
    n = len(do_vars)
    probs = probs.reshape((1,) * n + probs.shape)
    for i, (v, k) in enumerate(zip(do_vars, do_cards)):
        diagonal = [1] * probs.ndim
        diagonal[i] = diagonal[n + kept.index(v)] = k
        probs = probs * np.eye(k).reshape(diagonal)
    names = tuple(f"do({v})" for v in do_vars) + kept
    scm._cache[key] = DistTable(names, do_cards + kept_cards, probs)
    return scm._cache[key]


def _elimination(scopes, latents, card):
    """The elimination plan over factor scopes, computed without allocating:
    per latent, ``(latent, positions of the factors that mention it, union
    of their scopes)``; the join, the union less the latent, replaces those
    factors at the end of the list. Also the largest join's loop space, the
    product of the cards over its union."""
    plan, largest = [], 0
    for lat in latents:
        joined, rest, union = [], [], {}
        for i, scope in enumerate(scopes):
            if lat in scope:
                joined.append(i)
                union.update(dict.fromkeys(scope))
            else:
                rest.append(scope)
        union = tuple(union)
        largest = max(largest, math.prod([card(n) for n in union]))
        plan.append((lat, joined, union))
        scopes = rest + [tuple([n for n in union if n != lat])]
    return plan, largest


def _pin(ndim: int, pins: Mapping[int, slice]) -> Tuple[slice, ...]:
    return tuple(pins.get(i, slice(None)) for i in range(ndim))


def _manifest(scm: DiscreteSCM, base: DistTable) -> DistTable:
    """Replace each masked variable by its proxy, one indicator at a time.

    ``proxy = x`` takes the cells ``(v = x, R_v = 0)``; the extra level
    ``proxy = NA`` takes ``sum_v (R_v != 0)``.
    """
    names, cards, probs = list(base.variables), list(base.cards), base.probs
    for v in scm.variables:
        if not scm.masked(v):
            continue
        x, r, k = names.index(v), names.index(scm.indicator_name(v)), scm.card(v)
        out = np.zeros(probs.shape[:x] + (k + 1,) + probs.shape[x + 1:])
        observed, missing = slice(0, 1), slice(1, None)
        out[_pin(out.ndim, {x: slice(0, k), r: observed})] = probs[_pin(out.ndim, {r: observed})]
        na = probs[_pin(out.ndim, {r: missing})].sum(axis=x, keepdims=True)
        out[_pin(out.ndim, {x: slice(k, k + 1), r: missing})] = na
        names[x], cards[x], probs = scm.proxy_name(v), k + 1, out
    observed = [v for v in scm.variables if not scm.masked(v)]
    proxies = [scm.proxy_name(v) for v in scm.variables if scm.masked(v)]
    keep = tuple(observed + proxies + list(scm.indicators))
    return DistTable(tuple(names), tuple(cards), probs).marginal(keep)


def exact_tables(scm: DiscreteSCM) -> Tuple[DistTable, DistTable]:
    """(joint over substantive variables, manifest over observables).

    The manifest covers fully observed variables, proxies (with an extra NA
    level) and indicators; the true values of masked variables are summed
    out.
    """
    base = _do_table(scm)
    if "manifest" not in scm._cache:
        scm._cache["manifest"] = _manifest(scm, base)
    return base.marginal(scm.variables), scm._cache["manifest"]


def interventional_table(
    scm: DiscreteSCM,
    do: Mapping[str, int],
    clustering: Optional[Clustering] = None,
) -> DistTable:
    """Truncated-factorization joint over substantive variables under do.

    ``do`` assigns variables or indicators of the graph. Macro semantics:
    when a clustering is known, every treated cluster must be assigned in
    full.
    """
    clustering = clustering or scm.madmg.clustering
    if clustering is not None:
        for c in sorted({clustering.cluster_of[v] for v in do if v in clustering.cluster_of}):
            missing = set(clustering.members(c)) - set(do)
            if missing:
                raise PartialClusterAssignment(
                    f"cluster {c!r} is only partly assigned (missing {sorted(missing)})"
                )
    for v, x in do.items():
        if v not in scm.madmg.variables and v not in scm.madmg.indicators:
            raise UnknownVertex(f"cannot intervene on {v!r}: not a variable or indicator")
        _check_level(v, x, scm.card(v))
    do_vars = tuple(sorted(do))
    stacked = _do_table(scm, do_vars).marginal(tuple(f"do({v})" for v in do_vars) + scm.variables)
    levels = tuple(do[v] for v in do_vars)
    return DistTable(scm.variables, stacked.cards[len(do_vars):], stacked.probs[levels])


# ---------------------------------------------------------------------------
# Grounding cluster symbols onto table columns
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Grounding:
    """Maps cluster-level atoms to variable-level columns and domains."""

    clustering: Clustering
    cards: Mapping[str, int]
    indicator_of: Mapping[str, str]  # variable -> indicator id
    proxy_of: Mapping[str, str]  # variable -> proxy id
    indicator_groups: Mapping[str, Tuple[str, ...]] = field(default_factory=dict)

    @staticmethod
    def from_scm(
        scm: DiscreteSCM,
        clustering: Optional[Clustering] = None,
        abstract: Optional[MixedGraph] = None,
    ) -> "Grounding":
        """Ground against an SCM; pass the abstract graph so that its
        indicator names (whatever they are) expand to member indicators."""
        clustering = clustering or scm.madmg.clustering
        if clustering is None:
            raise EvaluationError("no clustering to ground cluster symbols against")
        cards = {v: scm.card(v) for v in scm.variables}
        groups = {}
        if abstract is not None:
            for rid in abstract.indicators:
                if abstract.graph_class is GraphClass.CMCDMG:
                    members = clustering.members(abstract.owner_cluster(rid))
                    group = tuple(
                        scm.madmg.indicator_by_owner[v]
                        for v in members
                        if v in scm.madmg.indicator_by_owner
                    )
                else:
                    owner = abstract.vertex(rid).owner
                    group = (scm.madmg.indicator_by_owner.get(owner, rid),)
                groups[rid] = group
        return Grounding(
            clustering,
            cards,
            dict(scm.madmg.indicator_by_owner),
            dict(scm.madmg.proxy_by_owner),
            groups,
        )

    def members(self, cluster: str) -> Tuple[str, ...]:
        return self.clustering.members(cluster)

    def domain(self, cluster: str):
        sizes = [self.cards[v] for v in self.members(cluster)]
        out = [()]
        for s in sizes:
            out = [t + (i,) for t in out for i in range(s)]
        return out

    def _indicator_group(self, rid: str) -> Tuple[str, ...]:
        if rid in self.indicator_groups:
            return self.indicator_groups[rid]
        if rid in set(self.indicator_of.values()):
            return (rid,)
        # cluster-level literal R_<cluster>: expand to the members' indicators
        for c, vs in self.clustering.clusters:
            if rid == f"R_{c}":
                group = tuple(self.indicator_of[v] for v in vs if v in self.indicator_of)
                if group:
                    return group
        raise EvaluationError(f"indicator literal {rid!r} matches no indicator")


# ---------------------------------------------------------------------------
# Evaluation: expressions compiled to arrays over whole cluster domains
# ---------------------------------------------------------------------------
#
# An expression compiles to one array with an axis per *scope* atom (the atoms
# it is evaluated over), in the order of ``Grounding.domain``. Inside, each
# enclosing sum appends one axis, and a term is read on the table with one
# sub-axis per cluster member. An array that does not depend on an axis has
# size 1 there. Beside the values travel error codes (0: none): per cell, the
# first error that evaluating that cell alone raises, in evaluation order
# (factors left to right, a denominator before its numerator, bound values in
# domain order). So a call raises exactly when one of its cells does.


def _first(*codes: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Cell by cell, the first non-zero code in evaluation order."""
    out = None
    for c in codes:
        if c is not None:
            out = c if out is None else np.where(out != 0, out, c)
    return out


@dataclass(frozen=True)
class _Compiled:
    values: np.ndarray  # one axis per scope atom, over its whole domain
    codes: Optional[np.ndarray]
    errors: Tuple[Exception, ...]  # code k raises errors[k - 1]
    cards: Tuple[Tuple[int, ...], ...]  # member cards of each scope atom

    def at(self, cell: Tuple[int, ...]) -> float:
        if self.codes is not None and self.codes[cell]:
            self.raise_code(self.codes[cell])
        return float(self.values[cell])

    def raise_code(self, code) -> None:
        raise self.errors[int(code) - 1].with_traceback(None)


class _Compiler:
    """Compiles one expression against a manifest table (``evaluate``) or
    against an SCM's do-tables (``evaluate_interventional`` and ``check``'s
    truth); the source's type decides which."""

    def __init__(self, source, grounding: Grounding):
        self.source, self.g = source, grounding
        self.interventional = isinstance(source, DiscreteSCM)
        self.proxies = {p: v for v, p in grounding.proxy_of.items()} if self.interventional else {}
        self.axes = []  # member cards per scope axis, sum axes last
        self.sub = []  # sub-axis -> card; the sub-axes of an axis are contiguous
        self.offset = []  # axis -> its first sub-axis
        self.errors = []

    def run(self, expr: Expr, scope: Tuple[Atom, ...]) -> _Compiled:
        for atom in scope:
            self._push(atom.ref)
        with np.errstate(divide="ignore", invalid="ignore"):
            values, codes = self._node(expr, {a: i for i, a in enumerate(scope)})
        shape = tuple(math.prod(cards) for cards in self.axes)
        if codes is not None:
            codes = np.broadcast_to(codes, shape)
        values = np.broadcast_to(values, shape)
        return _Compiled(values, codes, tuple(self.errors), tuple(self.axes))

    def _push(self, cluster: str) -> int:
        cards = tuple(self.g.cards[v] for v in self.g.members(cluster))
        self.axes.append(cards)
        self.offset.append(len(self.sub))
        self.sub.extend(cards)
        return len(self.axes) - 1

    def _pop(self) -> None:
        del self.sub[self.offset.pop():]
        self.axes.pop()

    def _ones(self) -> Tuple[int, ...]:
        return (1,) * len(self.axes)

    def _flag(self, mask, error: Exception) -> Optional[np.ndarray]:
        if not np.any(mask):
            return None
        self.errors.append(error)
        return np.where(mask, len(self.errors), 0)

    def _fail(self, error: Exception):
        error.with_traceback(None)  # the entry is cached: hold no frames
        return np.ones(self._ones()), self._flag(np.ones(self._ones(), bool), error)

    def _node(self, e: Expr, env: Mapping[Atom, int]):
        if isinstance(e, One):
            return np.ones(self._ones()), None
        if isinstance(e, Term):
            try:
                return self._term(e, env)
            except McdmgError as exc:
                return self._fail(exc)
        if isinstance(e, Product):
            out, codes = np.ones(self._ones()), None
            for f in e.factors:
                value, c = self._node(f, env)
                out, codes = out * value, _first(codes, c)
            return out, codes
        if isinstance(e, Quotient):
            den, den_codes = self._node(e.den, env)
            zero = self._flag(den <= 0.0, PositivityError("zero denominator in quotient"))
            num, num_codes = self._node(e.num, env)
            return num / den, _first(den_codes, zero, num_codes)
        if isinstance(e, Sum):
            try:
                axis = self._push(e.bound.ref)
            except McdmgError as exc:
                return self._fail(exc)
            # the proxy alias is captured by the same binder: under the R=0
            # literals both symbols denote the same bound value
            inner = {**env, e.bound: axis, Atom(PROXY, e.bound.ref): axis}
            body, codes = self._node(e.body, inner)
            size = math.prod(self.axes[axis])
            self._pop()
            total = 0.0
            for i in range(size):  # in domain order, like a running sum
                total = total + body[..., min(i, body.shape[-1] - 1)]
            if codes is not None:
                codes = _first(*(codes[..., i] for i in range(codes.shape[-1])))
            return total, codes
        raise TypeError(f"not an expression: {e!r}")

    def _axis(self, env: Mapping[Atom, int], atom: Atom) -> int:
        try:
            return env[atom]
        except KeyError:
            raise EvaluationError(f"unbound symbol {atom.render()}") from None

    def _columns(self, atom: Atom, env) -> Dict[str, Optional[int]]:
        """Column -> the sub-axis realizing one atom; None reads an
        indicator at 0."""
        if atom.kind == RZERO:
            # the abstract indicator covers all member indicators of its cluster
            return {r: None for r in self.g._indicator_group(atom.ref)}
        first = self.offset[env[atom]]
        cols = {}
        for i, v in enumerate(self.g.members(atom.ref)):
            if atom.kind == PROXY and v in self.g.proxy_of:
                cols[self.g.proxy_of[v]] = first + i
            elif atom.kind == VAL and not self.interventional and v in self.g.indicator_of:
                raise EvaluationError(f"true value of partially observed {v!r} is not observable")
            else:
                cols[v] = first + i
        return cols

    def _sources(self, cols: Mapping[str, Optional[int]]) -> Dict[str, list]:
        """Column -> the sub-axes it is read along; none reads it at 0.

        Do-tables have no proxy columns, so there a proxy at x reads the
        cells ``(v = x, R_v = 0)``.
        """
        out: Dict[str, list] = {}
        for col, sub in cols.items():
            if col in self.proxies:
                out.setdefault(self.g.indicator_of[self.proxies[col]], [])
                col = self.proxies[col]
            out.setdefault(col, []).extend(() if sub is None else (sub,))
        return out

    def _term(self, t: Term, env):
        do: Dict[str, int] = {}  # intervened variable -> sub-axis
        if t.do and not self.interventional:
            raise EvaluationError("do-terms cannot be evaluated on a plain table")
        for atom in sorted(t.do):
            first = self.offset[self._axis(env, atom)]
            for i, v in enumerate(self.g.members(atom.ref)):
                do[v] = first + i
        for atom in t.outcomes | t.cond:
            if atom.kind != RZERO:
                self._axis(env, atom)
        cond: Dict[str, int] = {}
        for atom in sorted(t.cond):
            cond.update(self._columns(atom, env))
        both = dict(cond)
        for atom in sorted(t.outcomes):
            both.update(self._columns(atom, env))
        num, den = self._sources(both), self._sources(cond)
        table = self.source
        if self.interventional:
            # one table per do-set; its do(v) columns are read along the do sub-axes
            table = _do_table(self.source, tuple(sorted(do)))
            for v, sub in do.items():
                num[f"do({v})"] = den[f"do({v})"] = [sub]
        values = self._read(table, num)
        if not cond:
            return self._merge(values), None
        den = self._read(table, den)
        flag = None
        if np.any(den <= 0.0):
            error = PositivityError(f"zero-mass conditioning stratum in {render(t)}")
            flag = self._merge(self._flag(den <= 0.0, error))
        return self._merge(values / den), flag

    def _read(self, table: DistTable, sources: Mapping[str, list]) -> np.ndarray:
        """The table's mass along the columns' sub-axes, as an array over
        every sub-axis (size 1 where it does not depend on one)."""
        if not sources:
            return np.full((1,) * len(self.sub), table.total())
        cols = tuple(sorted(sources))
        index, letters, operands = [], [], []
        for col in cols:
            subs = sources[col]
            if not subs:
                index.append(0)
                continue
            # a proxy column's NA level lies beyond the sub-axis
            index.append(slice(0, self.sub[subs[0]]))
            letters.append(subs[0])
            for s in subs[1:]:  # the same variable read twice: a diagonal
                operands += [np.eye(self.sub[s]), [subs[0], s]]
        used = sorted({s for subs in sources.values() for s in subs})
        out = np.einsum(table.marginal(cols).probs[tuple(index)], letters, *operands, used)
        return out.reshape([self.sub[k] if k in used else 1 for k in range(len(self.sub))])

    def _merge(self, arr: np.ndarray) -> np.ndarray:
        """Sub-axes -> one axis per scope atom, of size 1 where independent."""
        full, shape = [], []
        for axis, cards in enumerate(self.axes):
            dims = arr.shape[self.offset[axis]:self.offset[axis] + len(cards)]
            if all(d == 1 for d in dims):
                full.extend(dims)
                shape.append(1)
            else:
                full.extend(cards)
                shape.append(math.prod(cards))
        return np.broadcast_to(arr, full).reshape(shape)


def _compiled(expr: Expr, source, grounding: Grounding, scope: Tuple[Atom, ...]) -> _Compiled:
    """The compiled array, memoized in the table's or the SCM's cache."""
    key = ("compiled", expr, id(grounding), scope)
    hit = source._cache.get(key)  # one lookup: the tree's hash is cached on its nodes
    if hit is None:
        # the entry keeps the grounding alive, so its id is not reused
        hit = (grounding, _Compiler(source, grounding).run(expr, scope))
        source._cache[key] = hit
    return hit[1]


def _check_env(env, grounding: Grounding) -> dict:
    env = {k: tuple(v) for k, v in (env or {}).items()}
    for atom, values in env.items():
        if atom.kind != RZERO and len(values) != len(grounding.members(atom.ref)):
            raise EvaluationError(f"value arity mismatch for {atom.render()}")
    return env


def _at_env(expr: Expr, source, grounding: Grounding, env) -> float:
    """One cell of the compiled array: the env's atoms are its scope."""
    env = _check_env(env, grounding)
    scope = tuple(sorted(a for a in env if a.kind != RZERO))
    compiled = _compiled(expr, source, grounding, scope)
    cell = []
    for atom, cards in zip(scope, compiled.cards):
        index = 0  # position of the atom's values in Grounding.domain order
        for x, card in zip(env[atom], cards):
            if not 0 <= x < card:
                raise EvaluationError(f"{env[atom]} is outside the domain of {atom.render()}")
            index = index * card + x
        cell.append(index)
    return compiled.at(tuple(cell))


def evaluate(
    expr: Expr,
    table: DistTable,
    grounding: Grounding,
    env: Optional[Mapping[Atom, Tuple[int, ...]]] = None,
) -> float:
    """Evaluate a do-free expression against a manifest (or any) table.

    Every symbol must resolve to columns of the table: proxies, indicators
    and fully observed variables. A residual true-value symbol of a partially
    observed variable raises EvaluationError; zero-mass conditioning strata
    raise PositivityError.
    """
    return _at_env(expr, table, grounding, env)


def evaluate_interventional(
    expr: Expr,
    scm: DiscreteSCM,
    grounding: Grounding,
    env: Optional[Mapping[Atom, Tuple[int, ...]]] = None,
) -> float:
    """Evaluate under interventional semantics: do-sets become truncated
    factorizations of the SCM; a proxy at x reads the cells (v = x, R_v = 0)."""
    return _at_env(expr, scm, grounding, env)


def free_atoms(expr: Expr) -> Tuple[Atom, ...]:
    bound = set(bound_symbols(expr))
    bound |= {Atom(PROXY, a.ref) for a in bound if a.kind == VAL}
    free = [a for a in sorted(symbols_of(expr) - bound) if a.kind != RZERO]
    return tuple(free)


def _values(expr: Expr, source, grounding: Grounding, scope: Tuple[Atom, ...]):
    """The compiled array over the scope's whole domain; raises the error of
    its first failing cell."""
    compiled = _compiled(expr, source, grounding, scope)
    if compiled.codes is not None:
        codes = compiled.codes.reshape(-1)
        failed = np.flatnonzero(codes)
        if failed.size:
            compiled.raise_code(codes[failed[0]])
    return compiled.values


def _cells(atoms: Tuple[Atom, ...], grounding: Grounding, values: np.ndarray) -> dict:
    domains = [grounding.domain(a.ref) for a in atoms]
    return dict(zip(itertools.product(*domains), values.reshape(-1).tolist()))


def evaluate_all(expr: Expr, table_or_scm, grounding: Grounding):
    """Evaluate over the full domain of the free symbols: on a table like
    `evaluate`, on a `DiscreteSCM` like `evaluate_interventional`.

    Returns (atoms, {value-tuple-assignment: float}).
    """
    atoms = free_atoms(expr)
    values = _values(expr, table_or_scm, grounding, atoms)
    return atoms, _cells(atoms, grounding, values)


def check(
    expr: Expr,
    scm: DiscreteSCM,
    grounding: Grounding,
    effect: Optional[Tuple[str, str]] = None,
):
    """Compare a do-free formula with the SCM's truth, cell by cell.

    The formula is evaluated on the manifest over the domain of its free
    symbols. The truth is itself a term, compiled by the same evaluator on
    the SCM: with ``effect=None`` the joint ``P(c_A, c_B, ...)`` over the
    formula's clusters; with ``effect=(treatment, outcome)`` the distribution
    ``P(others | do(treatment))`` of the other clusters. A treatment or
    outcome the formula does not mention is appended to the atoms as a value
    symbol, so every one of its values is checked.

    Returns (atoms, {value-tuple-assignment: absolute error}).
    """
    atoms = free_atoms(expr)
    for ref in effect or ():
        if all(a.ref != ref for a in atoms):
            atoms += (Atom(VAL, ref),)
    _, manifest = exact_tables(scm)
    got = _values(expr, manifest, grounding, atoms)
    scope = tuple(Atom(VAL, a.ref) for a in atoms)
    treated = {a for a in scope if effect and a.ref == effect[0]}
    want = _values(term(set(scope) - treated, do=treated), scm, grounding, scope)
    return atoms, _cells(atoms, grounding, np.abs(got - want))


# ---------------------------------------------------------------------------
# Counterexample pairs: equal manifests, different joints
# ---------------------------------------------------------------------------


def equal_manifest_pair(madmg: MixedGraph, seed: int = 0) -> Tuple[DiscreteSCM, DiscreteSCM]:
    """Two SCMs on a non-recoverable graph with identical manifests.

    Handles the two violating motifs the witness construction produces: a
    variable adjacent to its own indicator (self-masking, directly or through
    a latent), and the collider chain Y <-> Z <-> R_Y. The pair agrees on
    every manifest cell and differs in the true joint by at least 1.2e-2
    somewhere; found by a seeded randomized search over base
    parameterizations (at most 300) combined with an exact perturbation of
    the masked stratum.
    """
    motif = _find_violating_motif(madmg)
    for k in range(300):
        pair = _try_pair(madmg, motif, seed + k)
        if pair is not None:
            return pair
    raise PositivityError("no counterexample pair found within the attempt budget")


def _find_violating_motif(madmg: MixedGraph):
    for r in sorted(madmg.indicators):
        owner = madmg.vertex(r).owner
        if (owner, r) in madmg.directed:
            return ("selfmask", owner, None, r)
        if owner in madmg.spouses(r):
            return ("selfmask-latent", owner, None, r)
    for r in sorted(madmg.indicators):
        owner = madmg.vertex(r).owner
        for z in sorted(madmg.spouses(r)):
            if madmg.kind(z) is not Kind.VARIABLE:
                continue
            if owner in madmg.spouses(z):
                return ("collider", owner, z, r)
    raise UnknownVertex(
        "graph has neither a self-masking adjacency nor a Y <-> Z <-> R_Y chain"
    )


def _near_identity(parent_card: int, card: int, weight: float = 0.85) -> np.ndarray:
    cpt = np.full((parent_card, card), (1.0 - weight) / max(card - 1, 1))
    for p in range(parent_card):
        cpt[p, p % card] = weight if card > 1 else 1.0
    return cpt


def _collider_cores(rng):
    """Two (y, z, r) joints equal on the observable cells, Y independent of R.

    The perturbation moves the masked stratum along a pattern with zero
    column sums (keeps P(z, R=1)) and zero row sum at y=1 (keeps the
    independence), shifting P(y, z) by exactly t.
    """
    p_y1 = rng.uniform(0.3, 0.7)
    p_r1 = rng.uniform(0.3, 0.5)
    z_given = rng.uniform(0.15, 0.85, size=(2, 2))  # P(Z=1 | y, r)
    p_y = np.array([1.0 - p_y1, p_y1])
    p_r = np.array([1.0 - p_r1, p_r1])
    core1 = np.zeros((2, 2, 2))  # (y, z, r)
    for yy in range(2):
        for rr in range(2):
            pz1 = z_given[yy, rr]
            core1[yy, 0, rr] = p_y[yy] * p_r[rr] * (1 - pz1)
            core1[yy, 1, rr] = p_y[yy] * p_r[rr] * pz1
    f = core1[:, :, 1]
    d = np.array([[-1.0, 1.0], [1.0, -1.0]])
    t = min(float(np.min(np.where(d < 0, f - 1e-3, np.inf))), 0.06)
    if t < 0.035:
        return None
    core2 = core1.copy()
    core2[:, :, 1] = f + t * d
    return (core1, core2), (p_y, p_r)


def _selfmask_cores(kind, rng):
    """Two (x, r) joints with equal P(x, R=0) cells and equal P(R=1).

    With a direct X -> R_X edge the pair trades the masking rates against
    the marginal; through a latent any perturbation of the masked stratum
    with zero total works.
    """
    p1 = rng.uniform(0.35, 0.65)
    r0, r1 = rng.uniform(0.25, 0.45, size=2)
    core1 = np.array(
        [
            [(1 - p1) * (1 - r0), (1 - p1) * r0],
            [p1 * (1 - r1), p1 * r1],
        ]
    )  # (x, r)
    if kind == "selfmask-latent":
        f = core1[:, 1]
        t = min(float(f.min() - 1e-3), 0.05)
        if t < 0.02:
            return None
        core2 = core1.copy()
        core2[:, 1] = f + t * np.array([-1.0, 1.0])
        return core1, core2
    # direct edge: R depends on X only, so model 2 must stay a product
    # P2(x) P2(R|x) with the same observable cells
    t = 0.12
    r1b = r1 + t
    p1b = p1 * (1 - r1) / (1 - r1b)
    p0b = 1 - p1b
    if not (0.05 < p1b < 0.95):
        return None
    r0b = 1 - ((1 - p1) * (1 - r0)) / p0b
    if not (0.02 < r0b < 0.98):
        return None
    core2 = np.array(
        [
            [p0b * (1 - r0b), p0b * r0b],
            [p1b * (1 - r1b), p1b * r1b],
        ]
    )
    if abs(p1b - p1) < 0.02:
        return None
    return core1, core2


def _try_pair(madmg, motif, seed):
    kind, x_or_y, z, r = motif
    rng = np.random.default_rng(seed)

    special: Dict[str, object] = {}
    if kind == "collider":
        y = x_or_y
        got = _collider_cores(rng)
        if got is None:
            return None
        (core1, core2), (p_y, p_r) = got
        lat_yz, lat_zr = _latent_name(y, z), _latent_name(z, r)
        if (madmg.spouses(y) | madmg.spouses(r)) - {z}:
            return None  # Y and R must be confounded only through Z
        leak = y

        def build(core):
            def z_cpt(ps, shape):
                cpt = np.full(shape + (2,), 0.5)
                for idx in np.ndindex(*shape) if shape else iter([()]):
                    la = idx[ps.index(lat_yz)] if lat_yz in ps else 2
                    lb = idx[ps.index(lat_zr)] if lat_zr in ps else 2
                    if la < 2 and lb < 2:
                        mass = core[la, :, lb]
                        cpt[idx] = mass / mass.sum()
                return cpt

            return {
                lat_yz: lambda ps, shape: np.concatenate([p_y, [0.0, 0.0]]),
                lat_zr: lambda ps, shape: np.concatenate([p_r, [0.0, 0.0]]),
                y: _copy_of(lat_yz),
                r: _copy_of(lat_zr),
                z: z_cpt,
            }

    else:
        x = x_or_y
        cores = _selfmask_cores(kind, rng)
        if cores is None:
            return None
        core1, core2 = cores
        leak = x
        if kind == "selfmask-latent":
            lat = _latent_name(x, r)

            def build(core):
                prior = core.reshape(-1)  # latent state = (x, r) pair
                return {
                    lat: lambda ps, shape: prior,
                    x: _copy_of(lat, lambda s: s >> 1),
                    r: _copy_of(lat, lambda s: s & 1),
                }

        else:

            def build(core):
                marg = core.sum(axis=1)
                r_given = core[:, 1] / marg

                def x_cpt(ps, shape):
                    return np.broadcast_to(marg, shape + (2,)).copy()

                def r_cpt(ps, shape):
                    xi = ps.index(x)
                    cpt = np.zeros(shape + (2,))
                    for idx in np.ndindex(*shape) if shape else iter([()]):
                        rate = r_given[idx[xi]]
                        cpt[idx] = (1 - rate, rate)
                    return cpt

                return {x: x_cpt, r: r_cpt}

    scm1 = _embed(madmg, build(core1), leak, seed)
    scm2 = _embed(madmg, build(core2), leak, seed)
    joint1, manifest1 = exact_tables(scm1)
    joint2, manifest2 = exact_tables(scm2)
    if float(np.max(np.abs(manifest1.probs - manifest2.probs))) > 1e-9:
        return None
    gap = float(np.max(np.abs(joint1.probs - joint2.probs)))
    if gap < 1.2e-2:
        return None
    return scm1, scm2


def _copy_of(source, transform=lambda s: min(s, 1)):
    """Deterministic CPT copying (a transform of) one parent's state."""

    def make(ps, shape):
        cpt = np.zeros(shape + (2,))
        si = ps.index(source)
        for idx in np.ndindex(*shape) if shape else iter([()]):
            cpt[idx + (transform(idx[si]),)] = 1.0
        return cpt

    return make


def _embed(madmg, special, leak, seed) -> DiscreteSCM:
    """Fill the remaining mechanisms with shared structure.

    Children of the leaking variable ignore it entirely (its masked value
    must not surface anywhere else); everything else follows its first
    parent near-deterministically so joint differences survive aggregation.
    """
    latents, parents = _mechanisms(madmg)
    _check_budget(madmg, latents, parents, tuple(parents))
    cpts = {}
    for name, ps in parents.items():
        shape = tuple(_card(p, latents) for p in ps)
        if name in special:
            cpt = np.asarray(special[name](ps, shape), dtype=float)
            if cpt.shape != shape + (cpt.shape[-1],):
                cpt = np.broadcast_to(cpt, shape + (cpt.shape[-1],)).copy()
        elif name in latents:
            cpt = np.full(_card(name, latents), 0.25)
        elif madmg.kind(name) is Kind.INDICATOR:
            cpt = np.broadcast_to(np.array([0.8, 0.2]), shape + (2,)).copy()
        elif leak in ps:
            cpt = np.full(shape + (2,), 0.5)
        elif ps:
            base = _near_identity(_card(ps[0], latents), 2)
            view = base.reshape((base.shape[0],) + (1,) * (len(ps) - 1) + (2,))
            cpt = np.broadcast_to(view, shape + (2,)).copy()
        else:
            cpt = np.array([0.5, 0.5])
        cpts[name] = (ps, cpt)
    return scm_from_cpts(madmg, cpts, seed)
