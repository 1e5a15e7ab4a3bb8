"""Exact ground truth over small discrete structural causal models.

A DiscreteSCM realizes a variable-level missingness graph: every substantive
variable and indicator gets a CPT, bidirected edges become explicit latent
parents, proxies follow deterministically (value under R=0, NA under R=1).
Everything downstream is full enumeration, no sampling: joint, manifest and
interventional distributions come out as dense probability tables, and
symbolic expressions are evaluated against them exactly. Each table is built
in the layout it is read in: a do-table has the joint's columns (an
intervened variable's own column is its do axis), the manifest its own.

The work splits into a structure and the numbers. What depends only on the
graph and its mechanisms (the CPT layout, the elimination plans and
broadcasts of the do-tables, the manifest's cell map, the layouts of marginals
and term reads, and each compiled term's reads) is worked out once: per variable-level graph in
`_Structure`, owned weakly by the graph, and per expression, scope and
grounding content in a bounded cache of `_Plan`s. Per SCM only the numeric
kernels run.

The module holds the tables and their evaluation only; `mcdmg.pairs` builds
the counterexample pairs on them.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import weakref
from collections import OrderedDict
from collections.abc import Mapping
from functools import cached_property
from typing import Dict, Iterable, NamedTuple, Optional, Tuple

import numpy as np

from .abstraction import indicator_id
from .errors import (
    DomainTooLarge,
    EvaluationError,
    InvalidSCM,
    InvalidSeed,
    McdmgError,
    PartialClusterAssignment,
    PositivityError,
    PreconditionError,
    UnknownVertex,
    ValidationError,
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
    bound_symbols,
    render,
    symbols_of,
    term,
)
from .graphs import Clustering, GraphClass, MixedGraph, _require, _Value, topological_order

MAX_STATES = 1 << 20
PLANS_KEPT = 512  # compiled-expression plans, least recently used dropped first
STRUCTURES_PER_GRAPH = 8  # mechanism sets per graph
DO_PLANS_KEPT = 64  # do-sets per structure


def _bounded_put(cache: OrderedDict, key, value, bound: int):
    cache[key] = value
    if len(cache) > bound:
        cache.popitem(last=False)
    return value


class DistTable(_Value):
    """Dense probability table over an ordered tuple of columns.

    A marginal sums the dropped axes of the whole table and copies the
    result to C order. A term's read (`read`) pins and slices its columns
    first and sums only the axes left of that smaller view. Both take their
    index, summed axes and transpose from `_layout`. Immutable; it compares
    its array by value and, as it holds an array, is unhashable. Its
    marginals and reads are kept in ``_cache``, which takes no part in
    ``==``, ``repr`` or a copy.
    """

    __slots__ = ("variables", "cards", "probs", "_cache")
    __match_args__ = ("variables", "cards", "probs")

    def __init__(self, variables: Tuple[str, ...], cards: Tuple[int, ...], probs: np.ndarray):
        if len(variables) != len(cards) or getattr(probs, "shape", None) != tuple(cards):
            if not hasattr(probs, "shape"):
                raise ValidationError([f"probs must be an array, not a {type(probs).__name__}"])
            raise ValidationError([f"columns {variables}, cards {cards} and shape {probs.shape} disagree"])
        _set_variables(self, variables)
        _set_cards(self, cards)
        _set_probs(self, probs)
        _set_table_cache(self, {})

    def __eq__(self, other):
        if type(other) is not DistTable:
            return NotImplemented
        return self is other or (
            self.variables == other.variables
            and self.cards == other.cards
            and np.array_equal(self.probs, other.probs)
        )

    def prob(self, assignment: Mapping[str, int]) -> float:
        """Total mass of the cells matching a partial assignment."""
        if not assignment:
            return self.total()
        cols = tuple(sorted(assignment))
        marg = self.marginal(cols)
        index = tuple(_check_level(c, assignment[c], k) for c, k in zip(cols, marg.cards))
        return float(marg.probs[index])

    def marginal(self, keep: Iterable[str]) -> "DistTable":
        keep = tuple(keep)
        out = self._cache.get(keep)
        if out is None:
            probs, cards = self._reduce(keep, (None,) * len(keep))
            out = self._cache[keep] = DistTable(keep, cards, np.asarray(probs, order="C"))
        return out

    def read(self, cols: Tuple[str, ...], index: tuple) -> np.ndarray:
        """The mass over ``cols`` with each column indexed first: per column
        ``index`` holds a level (the column is pinned there and drops out),
        a ``range`` of levels (the column is sliced to it) or None (all its
        levels). Axes in the order of the columns left, kept per (columns,
        index) as a read-only view."""
        key = (cols, index)  # a marginal's key is a tuple of names
        out = self._cache.get(key)
        if out is None:
            out = self._cache[key] = self._reduce(cols, index)[0]
            out.flags.writeable = False
        return out

    def _reduce(self, cols, index):
        at, drop, order, cards = _layout(self.variables, self.cards, cols, index)
        probs = self.probs[at]
        if drop:
            probs = probs.sum(axis=drop)
        return np.transpose(np.asarray(probs), order), cards

    def total(self) -> float:
        if "total" not in self._cache:
            self._cache["total"] = float(self.probs.sum())
        return self._cache["total"]



# the constructor sets the slots through these, faster than object.__setattr__
_set_variables, _set_cards, _set_probs, _set_table_cache = (
    getattr(DistTable, f).__set__ for f in DistTable.__slots__
)

@functools.lru_cache(maxsize=1024)
def _layout(variables, cards, cols, index):
    """`DistTable`'s one layout, once per (table columns, read columns,
    index): the index onto the table, the axes of the indexed view that are
    not read (summed out), the transpose of the rest onto the order of
    ``cols`` and their cards. A column read twice raises EvaluationError,
    one the table lacks UnknownVertex."""
    where = {}
    for c, i in zip(cols, index):
        if c not in variables:
            raise UnknownVertex(f"the table has no column {c!r}")
        if c in where:
            raise EvaluationError(f"column {c!r} is read twice")
        where[c] = i
    at, drop, names, sizes = [], [], [], {}
    for v, k in zip(variables, cards):
        i = where.get(v)
        if i is None:
            i = slice(None)
        elif isinstance(i, range):
            i = slice(i.start, i.stop, i.step)
        at.append(i)
        if not isinstance(i, slice):  # pinned: the axis drops out of the view
            continue
        if v in where:
            names.append(v)
            sizes[v] = len(range(k)[i])
        else:
            drop.append(len(names) + len(drop))
    order = tuple(names.index(c) for c in cols if c in sizes)
    return tuple(at), tuple(drop), order, tuple(sizes[c] for c in cols if c in sizes)


def _check_level(name: str, x, card: int) -> int:
    """The level ``x`` names in a column of ``card`` levels. A value equal
    to an integer names it (1.0 and True name 1); any other value, and a
    level outside 0..card-1, raise EvaluationError."""
    try:
        level = int(x)
    except (TypeError, ValueError, OverflowError):
        level = None
    if level is None or level != x:
        raise EvaluationError(f"{name} = {x!r} is not an integer level")
    if not 0 <= level < card:
        raise EvaluationError(f"{name} = {x} is outside its domain 0..{card - 1}")
    return level


class Node(NamedTuple):
    """One mechanism: a CPT over the node's parents (sorted order)."""

    name: str
    card: int
    parents: Tuple[str, ...]
    cpt: np.ndarray  # shape (*parent cards, card); rows sum to one


class DiscreteSCM(_Value):
    """Exact finite-domain model for a variable-level missingness graph.

    ``nodes`` are in topological order. Immutable; it compares its CPTs by
    value and, as they are arrays, is unhashable. Its structure and exact
    tables are kept in ``_cache``, which takes no part in ``==``, ``repr``
    or a copy.
    """

    __match_args__ = ("madmg", "nodes", "latents", "seed")

    def __init__(self, madmg: MixedGraph, nodes: Tuple[Node, ...], latents: Tuple[str, ...], seed: int):
        self.__dict__.update(madmg=madmg, nodes=nodes, latents=latents, seed=seed, _cache={})

    def __eq__(self, other):
        if type(other) is not DiscreteSCM:
            return NotImplemented
        return self is other or (
            (self.madmg, self.latents, self.seed) == (other.madmg, other.latents, other.seed)
            and len(self.nodes) == len(other.nodes)
            and all(a[:3] == b[:3] and np.array_equal(a.cpt, b.cpt) for a, b in zip(self.nodes, other.nodes))
        )

    @property
    def structure(self) -> "_Structure":
        """The structure shared by every SCM with these mechanisms."""
        s = self._cache.get("structure")
        if s is None:
            specs = tuple((n.name, n.parents, n.card) for n in self.nodes)
            s = self._cache["structure"] = _structure(self.madmg, self.latents, specs)
        return s

    @property
    def variables(self) -> Tuple[str, ...]:
        return self.structure.variables

    @property
    def indicators(self) -> Tuple[str, ...]:
        return self.structure.indicators

    def card(self, name: str) -> int:
        return self.structure.cards[name]

    def masked(self, var: str) -> bool:
        return var in self.madmg.indicator_by_owner

    def proxy_name(self, var: str) -> str:
        return self.madmg.proxy_by_owner[var]



# ---------------------------------------------------------------------------
# The structure: everything but the numbers, once per graph and mechanism set
# ---------------------------------------------------------------------------


class _Structure:
    """The part of an SCM's exact tables that its numbers do not change.

    Built once per variable-level graph and mechanism set (``specs``: per
    node in topological order its name, sorted parents and card) and shared
    by every SCM with them. It holds no array of any SCM and no reference to
    the graph, which owns it weakly (`_structure`). Everything in it is
    worked out on first use: the CPT layout of `random_scm`, the plan of each
    do-set's table, the manifest's columns and its cell map.
    """

    def __init__(self, madmg: MixedGraph, latents: Tuple[str, ...], specs):
        self.latents, self.specs = latents, specs
        self.cards = {name: k for name, _, k in specs}
        self.variables = tuple(sorted(madmg.variables))
        self.indicators = tuple(sorted(madmg.indicators))
        self.indicator_of = dict(madmg.indicator_by_owner)
        self.proxy_of = dict(madmg.proxy_by_owner)
        self.kept = tuple(name for name, _, _ in specs if name not in latents)
        self.scopes = tuple(ps + (name,) for name, ps, _ in specs)
        # the joint's elimination; its largest join does not depend on the order
        self.joint = _elimination(self.scopes, latents, self.cards.__getitem__)
        self.do_plans: OrderedDict = OrderedDict()

    def check_budget(self) -> None:
        """Refuse a graph whose exact tables would exceed ``MAX_STATES``
        cells: the largest latent join of the joint's elimination, the joint
        itself (which bounds every CPT without a latent in its scope) and the
        manifest, where each masked variable gets an extra NA level."""
        observables = self.variables + self.indicators
        if max(self.joint[1], math.prod(self.cards[n] for n in observables)) > MAX_STATES:
            raise DomainTooLarge(f"latent join or joint table exceeds {MAX_STATES} cells")
        self.manifest_columns  # raises DomainTooLarge for the manifest

    @cached_property
    def draw_layout(self):
        """`random_scm`'s CPT layout. The stream is drawn node by node in
        topological order and regrouped by row length k (None when it
        already is): the stream positions in grouped order, per k its rows'
        span of the grouped buffer, and per node its span and shape there."""
        spans, start = {}, 0
        for name, ps, k in self.specs:
            shape = tuple(self.cards[p] for p in ps) + (k,)
            spans.setdefault(k, []).append((name, ps, start, shape))
            start += math.prod(shape)
        order, groups, segments = [], [], []
        for k, nodes in sorted(spans.items()):
            first = len(order)
            for name, ps, stream_at, shape in nodes:
                segments.append((name, ps, k, len(order), len(order) + math.prod(shape), shape))
                order.extend(range(stream_at, stream_at + math.prod(shape)))
            groups.append((k, first, len(order)))
        names = [name for name, _, _ in self.specs]
        segments.sort(key=lambda seg: names.index(seg[0]))
        regroup = None if order == sorted(order) else np.array(order)
        return start, regroup, tuple(groups), tuple(segments)

    def do_plan(self, do_vars: Tuple[str, ...]) -> "_DoPlan":
        plan = self.do_plans.get(do_vars)
        if plan is None:
            plan = _bounded_put(self.do_plans, do_vars, _DoPlan(self, do_vars), DO_PLANS_KEPT)
        return plan

    @cached_property
    def manifest_columns(self):
        """The manifest's columns (observed variables, masked ones' proxies
        with an extra NA level, indicators) and cards. Raises DomainTooLarge,
        allocating nothing, when they would exceed ``MAX_STATES`` cells."""
        masked = [v for v in self.variables if v in self.indicator_of]
        cols = [v for v in self.variables if v not in self.indicator_of] + masked + list(self.indicators)
        cards = tuple(self.cards[n] + (n in self.indicator_of) for n in cols)
        if math.prod(cards) > MAX_STATES:
            raise DomainTooLarge(f"manifest table exceeds {MAX_STATES} cells")
        return tuple(self.proxy_of.get(n, n) for n in cols), cards

    @cached_property
    def manifest_map(self) -> np.ndarray:
        """Per joint cell in C order, the flat index of its manifest cell (a
        proxy at its variable's level where the indicator is 0, else at NA),
        summed from one broadcast stride term per column: no other big array."""
        names, cards = self.manifest_columns
        shape = [self.cards[n] for n in self.kept]
        level = dict(zip(self.kept, np.ix_(*(np.arange(k, dtype=np.int32) for k in shape))))
        for v, r in self.indicator_of.items():
            level[self.proxy_of[v]] = np.where(level[r] == 0, level[v], self.cards[v])
        cells, stride = np.zeros(shape, np.int32), math.prod(cards)
        for n, k in zip(names, cards):
            stride //= k
            cells += level[n] * np.int32(stride)
        return cells.reshape(-1)


_STRUCTURES: "weakref.WeakKeyDictionary[MixedGraph, OrderedDict]" = weakref.WeakKeyDictionary()


def _structures_of(madmg: MixedGraph) -> OrderedDict:
    """The structures of one graph; they go when the graph goes."""
    per_graph = _STRUCTURES.get(madmg)
    if per_graph is None:
        per_graph = _STRUCTURES[madmg] = OrderedDict()
    return per_graph


def _structure(madmg: MixedGraph, latents: Tuple[str, ...], specs) -> _Structure:
    """The one builder: the structure of the SCMs on ``madmg`` with these
    mechanisms, built on first use."""
    per_graph = _structures_of(madmg)
    key = (latents, specs)
    s = per_graph.get(key)
    if s is None:
        s = _bounded_put(per_graph, key, _Structure(madmg, latents, specs), STRUCTURES_PER_GRAPH)
    return s


def _random_structure(madmg: MixedGraph) -> _Structure:
    """`random_scm`'s structure: a mechanism per variable and indicator, a
    latent per bidirected edge (latents have 4 levels, variables and
    indicators 2), checked against the graph class, then the budget, then
    the cycle error, once per graph."""
    _require("madmg", madmg, MixedGraph, WrongGraphClass)
    per_graph = _structures_of(madmg)
    s = per_graph.get(None)
    if s is None:
        _require_variable_level(madmg)
        latents, parents = _mechanisms(madmg)
        order, cyclic = _topo_order(madmg, latents, parents)
        s = _structure(madmg, latents, tuple((n, parents[n], 4 if n in latents else 2) for n in order + cyclic))
        s.check_budget()
        _acyclic(cyclic)
        per_graph[None] = s
    return s


def _require_variable_level(madmg: MixedGraph) -> None:
    if madmg.graph_class not in (GraphClass.ADMG, GraphClass.MADMG):
        raise WrongGraphClass(
            f"the exact oracle needs a variable-level graph (admg or m-admg), not {madmg.graph_class.value}"
        )


def _require_seed(seed) -> None:
    """Raise InvalidSeed unless ``seed`` is an integer (``operator.index``) >= 0."""
    try:
        valid = operator.index(seed) >= 0
    except TypeError:
        valid = False
    if not valid:
        raise InvalidSeed(f"seed must be an integer >= 0, not {seed!r}")


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
    positive over complete cases. Raises WrongGraphClass unless given an
    (m-)ADMG, InvalidSeed unless the seed is an integer >= 0, and
    DomainTooLarge, before drawing, when the largest latent join, the joint
    or the manifest would exceed ``MAX_STATES`` cells.

    The graph's structure (mechanisms, order, budget and the stream's row
    layout) is worked out once; per seed, the rows of each length are
    normalized in one pass, each summed as ``g.sum(-1)`` sums it.
    """
    s = _random_structure(madmg)
    _require_seed(seed)
    size, regroup, groups, segments = s.draw_layout
    flat = np.random.default_rng(seed).standard_exponential(size)
    if regroup is not None:
        flat = flat[regroup]
    for k, a, b in groups:
        g = flat[a:b].reshape(-1, k)
        g *= 1.0 / g.sum(-1, keepdims=True)
        g *= 1.0 - k * 1e-3
        g += 1e-3
    nodes = tuple(Node(name, k, ps, flat[a:b].reshape(shape)) for name, ps, k, a, b, shape in segments)
    scm = DiscreteSCM(madmg, nodes, s.latents, seed)
    scm._cache["structure"] = s
    return scm


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


def scm_from_cpts(
    madmg: MixedGraph, cpts: Mapping[str, Tuple[Tuple[str, ...], np.ndarray]], seed: int = 0
) -> DiscreteSCM:
    """Assemble an SCM from explicit (parents, cpt) pairs, topologically sorted.

    Every variable and indicator needs a mechanism, and a name the graph
    does not have is a latent. A missing mechanism, one for a proxy and a
    parent without one raise UnknownVertex; a CPT whose shape is not its
    parents' cards and then its own, with an entry that is negative (or not
    a number), or with a row that does not sum to 1 within 1e-9 raises
    ValidationError.
    """
    parents = {name: tuple(ps) for name, (ps, _) in cpts.items()}
    latents = tuple(sorted(n for n in cpts if n not in madmg.ids))
    arrays = {name: np.asarray(cpt, dtype=float) for name, (_, cpt) in cpts.items()}
    cards = {name: a.shape[-1] if a.ndim else 0 for name, a in arrays.items()}
    nodes = set(madmg.variables) | set(madmg.indicators)
    for name in sorted(nodes - cpts.keys()):
        raise UnknownVertex(f"{name!r} has no mechanism")
    for name, ps in parents.items():
        if name in madmg.ids and name not in nodes:
            raise UnknownVertex(f"{name!r} is a proxy, which takes no mechanism")
        for p in ps:
            if p not in cpts:
                raise UnknownVertex(f"parent {p!r} of {name!r} has no mechanism")
        want = tuple(cards[p] for p in ps) + (cards[name],)
        if arrays[name].shape != want:
            raise ValidationError(
                [f"the CPT of {name!r} has shape {arrays[name].shape}, not (*parent cards, card) = {want}"]
            )
        if not np.all(arrays[name] >= 0.0):
            raise ValidationError([f"the CPT of {name!r} has an entry that is negative or not a number"])
        if not np.all(np.abs(arrays[name].sum(-1) - 1.0) <= 1e-9):
            raise ValidationError([f"a row of the CPT of {name!r} does not sum to 1"])
    order, cyclic = _topo_order(madmg, latents, parents)
    _acyclic(cyclic)
    specs = tuple((n, parents[n], cards[n]) for n in order)
    s = _structure(madmg, latents, specs)
    scm = DiscreteSCM(madmg, tuple(Node(n, k, ps, arrays[n]) for n, ps, k in specs), latents, seed)
    scm._cache["structure"] = s
    return scm


# ---------------------------------------------------------------------------
# Exact tables
# ---------------------------------------------------------------------------


class _DoPlan:
    """`_do_table`'s work for one do-set, but the numbers: the elimination
    steps over factor slots (the CPTs of the nodes not intervened on, in
    node order, then each join) and each left factor's transpose and
    reshape onto the kept table. Raises DomainTooLarge when the largest
    join or the kept table would exceed ``MAX_STATES`` cells."""

    def __init__(self, s: _Structure, do_vars: Tuple[str, ...]):
        card = s.cards.__getitem__
        self.names, self.cards = s.kept, tuple(map(card, s.kept))
        self.live = tuple(i for i, (name, _, _) in enumerate(s.specs) if name not in do_vars)
        factors = [(i, s.scopes[n]) for i, n in enumerate(self.live)]  # (slot, scope)
        plan, largest = s.joint if not do_vars else _elimination([f[1] for f in factors], s.latents, card)
        if max(largest, math.prod(self.cards)) > MAX_STATES:
            raise DomainTooLarge(f"do-table on {list(do_vars)} exceeds {MAX_STATES} cells")
        self.steps = []
        for lat, joined, union in plan:
            label = {n: i for i, n in enumerate(union)}
            out = tuple(n for n in union if n != lat)
            subscripts = tuple((factors[i][0], [label[n] for n in factors[i][1]]) for i in joined)
            self.steps.append((subscripts, [label[n] for n in out]))
            factors = [f for i, f in enumerate(factors) if i not in joined]
            factors.append((len(self.live) + len(self.steps) - 1, out))
        axis = {n: i for i, n in enumerate(s.kept)}
        self.broadcasts = []
        for slot, scope in factors:
            # broadcast the factor onto its axes of the kept table
            src_axes = [axis[n] for n in scope]
            view_shape = [1] * len(s.kept)
            for a, n in zip(src_axes, scope):
                view_shape[a] = card(n)
            order = sorted(range(len(scope)), key=src_axes.__getitem__)
            self.broadcasts.append((slot, order, view_shape))

    def run(self, nodes: Tuple[Node, ...]) -> DistTable:
        values = [nodes[i].cpt for i in self.live]
        for subscripts, out in self.steps:
            operands = [x for slot, labels in subscripts for x in (values[slot], labels)]
            values.append(np.einsum(*operands, out))
        probs = np.ones(self.cards)
        for slot, order, view_shape in self.broadcasts:
            probs *= np.transpose(values[slot], order).reshape(view_shape)
        return DistTable(self.names, self.cards, probs)


def _do_table(scm: DiscreteSCM, do_vars: Tuple[str, ...] = ()) -> DistTable:
    """The one table builder: the truncated factorization (Pearl 2009, eq.
    3.10) over variables and indicators for every assignment to ``do_vars``.

    The CPTs of the nodes not in ``do_vars`` are contracted by variable
    elimination (Koller & Friedman 2009, ch. 9): each latent, in
    ``scm.latents`` order, is summed out of the one-einsum join of the
    factors that mention it, and the factors left are multiplied into the
    kept table, over the joint's columns. An intervened variable's own
    column is its do axis: its slice at ``x`` is the distribution of the
    other columns under ``do(v = x)``, so the table sums to 1 per do-level,
    not in all. Without ``do_vars``, the joint. Raises DomainTooLarge,
    before allocating, when the largest join or the table would exceed
    ``MAX_STATES`` cells.

    The plan (`_DoPlan`) is worked out once per structure and do-set; per
    SCM only the einsums and products run.
    """
    key = ("do", do_vars)
    table = scm._cache.get(key)
    if table is None:
        table = scm._cache[key] = scm.structure.do_plan(do_vars).run(scm.nodes)
    return table


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


def _manifest(scm: DiscreteSCM, base: DistTable) -> DistTable:
    """Add each joint cell, in C order, into the manifest cell the
    structure's map sends it to, in the joint's dtype: ``proxy = x`` takes
    the cell ``(v = x, R_v = 0)``, ``proxy = NA`` sums ``v`` at ``R_v != 0``."""
    names, cards = scm.structure.manifest_columns
    out = np.zeros(math.prod(cards), base.probs.dtype)
    np.add.at(out, scm.structure.manifest_map, base.probs.reshape(-1))
    return DistTable(names, cards, out.reshape(cards))


def exact_tables(scm: DiscreteSCM) -> Tuple[DistTable, DistTable]:
    """(joint over substantive variables, manifest over observables).

    The manifest covers fully observed variables, proxies (with an extra NA
    level) and indicators; the true values of masked variables are summed
    out, by one scatter-add of the joint (`_manifest`). Raises InvalidSCM for
    a non-SCM, and DomainTooLarge, unallocated, for a manifest too large.
    """
    _require("scm", scm, DiscreteSCM, InvalidSCM)
    base = _do_table(scm)
    manifest = scm._cache.get("manifest")
    if manifest is None:
        manifest = scm._cache["manifest"] = _manifest(scm, base)
    return base.marginal(scm.variables), manifest


def interventional_table(
    scm: DiscreteSCM,
    do: Mapping[str, int],
    clustering: Optional[Clustering] = None,
) -> DistTable:
    """Truncated-factorization joint over substantive variables under do.

    ``do`` assigns variables or indicators of the graph. Macro semantics:
    when a clustering is known, every treated cluster must be assigned in
    full. The mass under do fills the slice where the intervened variables
    hold their levels; every other cell is 0; a non-SCM raises InvalidSCM.
    """
    _require("scm", scm, DiscreteSCM, InvalidSCM)
    _require("do", do, Mapping, PreconditionError)
    clustering = clustering or scm.madmg.clustering
    if clustering is not None:
        for c in sorted({clustering.cluster_of[v] for v in do if v in clustering.cluster_of}):
            missing = set(clustering.members(c)) - set(do)
            if missing:
                raise PartialClusterAssignment(
                    f"cluster {c!r} is only partly assigned (missing {sorted(missing)})"
                )
    level = {}
    for v, x in do.items():
        if v not in scm.madmg.variables and v not in scm.madmg.indicators:
            raise UnknownVertex(f"cannot intervene on {v!r}: not a variable or indicator")
        level[v] = _check_level(v, x, scm.card(v))
    do_vars, n = tuple(sorted(do)), len(scm.variables)
    cols = scm.variables + tuple(v for v in do_vars if v not in scm.variables)
    joint = _do_table(scm, do_vars).marginal(cols)  # one per do-set
    at = tuple(level.get(v, slice(None)) for v in cols)
    probs = np.zeros(joint.cards[:n])
    probs[at[:n]] = joint.probs[at]
    return DistTable(scm.variables, probs.shape, probs)


# ---------------------------------------------------------------------------
# Grounding cluster symbols onto table columns
# ---------------------------------------------------------------------------


class Grounding(_Value):
    """Maps cluster-level atoms to variable-level columns and domains.

    ``indicator_of`` maps a variable to its indicator id, ``proxy_of`` to
    its proxy id; ``indicator_groups`` (empty by default) maps an abstract
    indicator to the member indicators it stands for. Immutable and, as its
    fields are dicts, unhashable.
    """

    __match_args__ = ("clustering", "cards", "indicator_of", "proxy_of", "indicator_groups")
    __hash__ = None

    def __init__(
        self,
        clustering: Clustering,
        cards: Mapping[str, int],
        indicator_of: Mapping[str, str],
        proxy_of: Mapping[str, str],
        indicator_groups: Optional[Mapping[str, Tuple[str, ...]]] = None,
    ):
        self.__dict__.update(
            clustering=clustering,
            cards=cards,
            indicator_of=indicator_of,
            proxy_of=proxy_of,
            indicator_groups={} if indicator_groups is None else indicator_groups,
        )

    @staticmethod
    def from_scm(
        scm: DiscreteSCM,
        clustering: Optional[Clustering] = None,
        abstract: Optional[MixedGraph] = None,
    ) -> "Grounding":
        """Ground against an SCM (else InvalidSCM); pass the abstract graph so
        that its indicator names (whatever they are) expand to member indicators."""
        _require("scm", scm, DiscreteSCM, InvalidSCM)
        if abstract is not None:
            _require("abstract", abstract, MixedGraph, WrongGraphClass)
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

    @cached_property
    def content(self) -> "_Content":
        """Everything a compiled plan depends on, hashed once; equal
        groundings share it."""
        return _Content.of((
            self.clustering,
            tuple(sorted(self.cards.items())),
            tuple(sorted(self.indicator_of.items())),
            tuple(sorted(self.proxy_of.items())),
            tuple(sorted(self.indicator_groups.items())),
        ))

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
            if rid == indicator_id(c):
                group = tuple(self.indicator_of[v] for v in vs if v in self.indicator_of)
                if group:
                    return group
        raise EvaluationError(f"indicator literal {rid!r} matches no indicator")


class _Content:
    """A tuple key whose hash is computed once, one object per live key."""

    __slots__ = ("key", "hash", "__weakref__")
    _live: "weakref.WeakValueDictionary[tuple, _Content]" = weakref.WeakValueDictionary()

    def __init__(self, key: tuple):
        self.key, self.hash = key, hash(key)

    @classmethod
    def of(cls, key: tuple) -> "_Content":
        return cls._live.setdefault(key, cls(key))

    def __hash__(self) -> int:
        return self.hash

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, _Content) and self.key == other.key)


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
#
# `_Compiler` works out a `_Plan` once per expression, scope and grounding
# content: every shape, each term's reads and merges, and the errors that do
# not depend on the numbers. `_Plan.run` does the arithmetic on one source
# and numbers the errors as they occur, zero-mass strata included.


def _first(*codes: Optional[np.ndarray]) -> Optional[np.ndarray]:
    """Cell by cell, the first non-zero code in evaluation order."""
    out = None
    for c in codes:
        if c is not None:
            out = c if out is None else np.where(out != 0, out, c)
    return out


def _flag(errors: list, mask, error) -> Optional[np.ndarray]:
    """Codes for the cells in ``mask``, under a new error (``error()``
    makes it), or None when no cell is."""
    if not np.any(mask):
        return None
    errors.append(error())
    return np.where(mask, len(errors), 0)


class _Compiled:
    def __init__(self, values: np.ndarray, codes: Optional[np.ndarray], errors: Tuple[Exception, ...]):
        self.values = values  # one axis per scope atom, over its whole domain
        self.codes = codes
        self.errors = errors  # code k raises errors[k - 1]

    @cached_property
    def flat(self):
        """The values and the codes (or None) in cell order, as lists."""
        codes = None if self.codes is None else self.codes.reshape(-1).tolist()
        return self.values.reshape(-1).tolist(), codes

    def at(self, position: int) -> float:
        values, codes = self.flat
        if codes is not None and codes[position]:
            self.raise_code(codes[position])
        return values[position]

    def raise_code(self, code) -> None:
        raise self.errors[int(code) - 1].with_traceback(None)


class _Failed:
    """A subexpression that raises whatever the numbers: every cell fails."""

    def __init__(self, shape, error: Exception):
        error.with_traceback(None)  # the plan is cached: hold no frames
        self.shape, self.error = shape, error

    def run(self, source, errors):
        errors.append(copy.copy(self.error))  # a source's own error: raising it sets its frames
        return np.ones(self.shape), np.full(self.shape, len(errors))


class _Product:
    """A product of factors; with none, One."""

    def __init__(self, ones, factors):
        self.ones, self.factors = ones, factors

    def run(self, source, errors):
        out, codes = np.ones(self.ones), None
        for f in self.factors:
            value, c = f.run(source, errors)
            out, codes = out * value, _first(codes, c)
        return out, codes


class _Quotient:
    def __init__(self, num, den):
        self.num, self.den = num, den

    def run(self, source, errors):
        den, den_codes = self.den.run(source, errors)
        zero = _flag(errors, den <= 0.0, lambda: PositivityError("zero denominator in quotient"))
        num, num_codes = self.num.run(source, errors)
        return num / den, _first(den_codes, zero, num_codes)


class _SumOver:
    def __init__(self, body, size: int):
        self.body, self.size = body, size

    def run(self, source, errors):
        body, codes = self.body.run(source, errors)
        total = 0.0
        last = body.shape[-1] - 1
        for i in range(self.size):  # in domain order, like a running sum
            total = total + body[..., min(i, last)]
        if codes is not None:
            codes = _first(*(codes[..., i] for i in range(codes.shape[-1])))
        return total, codes


class _Read:
    """One term read: the table's mass along the columns' sub-axes, as an
    array over every sub-axis (size 1 where it does not depend on one).

    The table pins each column read at no sub-axis (an indicator at 0),
    slices each proxy's NA level off and sums only the axes left
    (`DistTable.read`). The columns are listed in the order of their
    sub-axes, so the read comes out in sub-axis order; only where two
    columns share a sub-axis, or one column is read along two (a diagonal),
    an einsum merges them."""

    def __init__(self, sub, sources: Mapping[str, list]):
        # pinned columns first; the rest by their first sub-axis
        self.cols = tuple(sorted(sources, key=lambda c: (sources[c][:1], c)))
        index, letters, operands = [], [], []
        for col in self.cols:
            subs = sources[col]
            if not subs:
                index.append(0)
                continue
            # a proxy column's NA level lies beyond the sub-axis
            index.append(range(sub[subs[0]]))
            letters.append(subs[0])
            for s in subs[1:]:  # the same variable read twice: a diagonal
                operands += [np.eye(sub[s]), [subs[0], s]]
        self.index = tuple(index)
        used = sorted({s for subs in sources.values() for s in subs})
        self.einsum = None if letters == used and not operands else (letters, *operands, used)
        self.shape = tuple(sub[k] if k in used else 1 for k in range(len(sub)))

    def run(self, table: DistTable) -> np.ndarray:
        if not self.cols:
            return np.full(self.shape, table.total())
        probs = table.read(self.cols, self.index)
        if self.einsum is not None:
            probs = np.einsum(probs, *self.einsum)
        return probs.reshape(self.shape)


class _Term:
    """A term: its numerator and conditioning reads on one table (the
    source, or the SCM's do-table of ``do_vars``), merged onto the scope
    axes; a zero-mass stratum flags its cells."""

    def __init__(self, compiler: "_Compiler", t: Term, do_vars, num, den):
        self.do_vars, self.num, self.den = do_vars, num, den
        self.ones = compiler._ones()
        self.message = f"zero-mass conditioning stratum in {render(t)}"
        if den is None:
            self.merge = compiler._merge(num.shape)
        else:
            self.merge = compiler._merge(np.broadcast_shapes(num.shape, den.shape))
            self.merge_flag = compiler._merge(den.shape)

    def run(self, source, errors):
        try:
            table = source if self.do_vars is None else _do_table(source, self.do_vars)
            values = self.num.run(table)
            den = None if self.den is None else self.den.run(table)
        except McdmgError as exc:
            return _Failed(self.ones, exc).run(source, errors)
        if den is None:
            return _merged(values, self.merge), None
        flag = _flag(errors, den <= 0.0, lambda: PositivityError(self.message))
        if flag is not None:
            flag = _merged(flag, self.merge_flag)
        return _merged(values / den, self.merge), flag


def _merged(arr: np.ndarray, merge) -> np.ndarray:
    full, shape = merge
    if arr.shape != full:
        arr = np.broadcast_to(arr, full)
    return arr.reshape(shape)


class _Plan:
    """A compiled expression but the numbers; ``run`` evaluates it on one
    source (a table, or an SCM under interventional semantics)."""

    def __init__(self, root, shape, cards):
        self.root, self.shape, self.cards = root, shape, cards

    def run(self, source) -> _Compiled:
        errors = []
        with np.errstate(divide="ignore", invalid="ignore"):
            values, codes = self.root.run(source, errors)
        if codes is not None:
            codes = np.broadcast_to(codes, self.shape)
        if values.shape != self.shape:
            values = np.broadcast_to(values, self.shape)
        return _Compiled(values, codes, tuple(errors))

    @cached_property
    def index(self) -> dict:
        """The cell index: the scope's value tuples, each atom's in the
        order ``Grounding.domain`` lists them, to their flat positions."""
        domains = [list(itertools.product(*map(range, cards))) for cards in self.cards]
        return dict(zip(itertools.product(*domains), itertools.count()))


class _Compiler:
    """Plans one expression against a table (``evaluate``) or against an
    SCM's do-tables (``evaluate_interventional`` and ``check``'s truth), for
    one scope and grounding: the sub-axes of every cluster member, each
    term's columns, index, einsum subscripts, diagonal operands and merge
    shapes, and the errors that every source would raise (unbound symbols,
    a do-term or a masked true value on a plain table, an indicator literal
    that matches no indicator). The numbers, and the positivity flags that
    depend on them, are left to `_Plan.run`. A plan whose scope domain or
    any sum body (the scope's cells times the bound symbols') would exceed
    ``MAX_STATES`` cells is refused with DomainTooLarge."""

    def __init__(self, grounding: Grounding, interventional: bool):
        self.g, self.interventional = grounding, interventional
        self.proxies = {p: v for v, p in grounding.proxy_of.items()} if interventional else {}
        self.axes = []  # member cards per scope axis, sum axes last
        self.sub = []  # sub-axis -> card; the sub-axes of an axis are contiguous
        self.offset = []  # axis -> its first sub-axis

    def plan(self, expr: Expr, scope: Tuple[Atom, ...]) -> _Plan:
        for atom in scope:
            self._push(atom.ref)
        self._budget()
        root = self._node(expr, {a: i for i, a in enumerate(scope)})
        shape = tuple(math.prod(cards) for cards in self.axes)
        return _Plan(root, shape, tuple(self.axes))

    def _push(self, cluster: str) -> int:
        cards = tuple(self.g.cards[v] for v in self.g.members(cluster))
        self.axes.append(cards)
        self.offset.append(len(self.sub))
        self.sub.extend(cards)
        return len(self.axes) - 1

    def _budget(self) -> None:
        if math.prod(self.sub) > MAX_STATES:
            raise DomainTooLarge(f"a compiled array would exceed {MAX_STATES} cells")

    def _pop(self) -> None:
        del self.sub[self.offset.pop():]
        self.axes.pop()

    def _ones(self) -> Tuple[int, ...]:
        return (1,) * len(self.axes)

    def _node(self, e: Expr, env: Mapping[Atom, int]):
        if isinstance(e, One):
            return _Product(self._ones(), ())
        if isinstance(e, Term):
            try:
                return self._term(e, env)
            except McdmgError as exc:
                return _Failed(self._ones(), exc)
        if isinstance(e, Product):
            return _Product(self._ones(), tuple(self._node(f, env) for f in e.factors))
        if isinstance(e, Quotient):
            den = self._node(e.den, env)
            return _Quotient(self._node(e.num, env), den)
        if isinstance(e, Sum):
            try:
                axis = self._push(e.bound.ref)
            except McdmgError as exc:
                return _Failed(self._ones(), exc)
            self._budget()
            # the proxy alias is captured by the same binder: under the R=0
            # literals both symbols denote the same bound value
            inner = {**env, e.bound: axis, Atom(PROXY, e.bound.ref): axis}
            body = self._node(e.body, inner)
            size = math.prod(self.axes[axis])
            self._pop()
            return _SumOver(body, size)
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

    def _term(self, t: Term, env) -> _Term:
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
        do_vars = None
        if self.interventional:
            # one table per do-set, read along the do sub-axes in the
            # intervened columns: with an outcome or proxy there, a diagonal
            do_vars = tuple(sorted(do))
            for v, sub in do.items():
                num.setdefault(v, []).append(sub)
                den.setdefault(v, []).append(sub)
        den = _Read(self.sub, den) if cond else None
        return _Term(self, t, do_vars, _Read(self.sub, num), den)

    def _merge(self, arr_shape: Tuple[int, ...]):
        """Sub-axes -> one axis per scope atom, of size 1 where independent:
        the broadcast shape and the merged shape."""
        full, shape = [], []
        for axis, cards in enumerate(self.axes):
            dims = arr_shape[self.offset[axis]:self.offset[axis] + len(cards)]
            if all(d == 1 for d in dims):
                full.extend(dims)
                shape.append(1)
            else:
                full.extend(cards)
                shape.append(math.prod(cards))
        return tuple(full), tuple(shape)


_PLANS: OrderedDict = OrderedDict()


def _plan(expr: Expr, source, grounding: Grounding, scope: Tuple[Atom, ...]) -> _Plan:
    """The plan of an expression over a scope, once per grounding content
    and kind of source; the least recently used of `PLANS_KEPT` go."""
    interventional = isinstance(source, DiscreteSCM)
    key = (expr, scope, grounding.content, interventional)
    plan = _PLANS.get(key)  # the tree's hash is cached on its nodes
    if plan is None:
        plan = _Compiler(grounding, interventional).plan(expr, scope)
        _bounded_put(_PLANS, key, plan, PLANS_KEPT)
    else:
        _PLANS.move_to_end(key)
    return plan


def _compiled(plan: _Plan, source) -> _Compiled:
    """The plan run on the source, memoized in the table's or the SCM's cache."""
    hit = source._cache.get(plan)
    if hit is None:
        hit = source._cache[plan] = plan.run(source)
    return hit


def _at_env(expr: Expr, source, grounding: Grounding, env) -> float:
    """One cell of the compiled array: the env's atoms are its scope. A read
    is one lookup on the source, for the scope, the plan's cell index and
    the compiled array, and one in that index; an env that misses either
    goes to `_read`, which raises if it is invalid."""
    try:
        scope, index, compiled = source._cache[(expr, grounding.content, *env)]
        position = index[tuple(map(tuple, map(env.__getitem__, scope)))]
    except (KeyError, TypeError):
        position, compiled = _read(expr, source, grounding, env)
    return compiled.at(position)


def _read(expr: Expr, source, grounding: Grounding, env):
    """A read that missed: the checks (``tuple`` of every value, indicator
    literals included, then each atom's arity and, once compiled, its
    domain), the compiled array and the cell's position. Kept on the source
    under the env's atoms unless it names an indicator literal, whose
    values only these checks read."""
    values = {k: tuple(v) for k, v in (env or {}).items()}
    for atom, vs in values.items():
        if atom.kind != RZERO and len(vs) != len(grounding.members(atom.ref)):
            raise EvaluationError(f"value arity mismatch for {atom.render()}")
    scope = tuple(sorted(a for a in values if a.kind != RZERO))
    plan = _plan(expr, source, grounding, scope)
    compiled = _compiled(plan, source)
    for atom, cards in zip(scope, plan.cards):
        for x, card in zip(values[atom], cards):
            if not 0 <= x < card:
                raise EvaluationError(f"{values[atom]} is outside the domain of {atom.render()}")
    cell = tuple(values[a] for a in scope)
    if cell not in plan.index:
        raise EvaluationError(f"{cell} holds a level that is not an integer")
    if env and len(scope) == len(values):
        source._cache[(expr, grounding.content, *env)] = (scope, plan.index, compiled)
    return plan.index[cell], compiled


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


@functools.lru_cache(maxsize=PLANS_KEPT)
def free_atoms(expr: Expr) -> Tuple[Atom, ...]:
    bound = set(bound_symbols(expr))
    bound |= {Atom(PROXY, a.ref) for a in bound if a.kind == VAL}
    free = [a for a in sorted(symbols_of(expr) - bound) if a.kind != RZERO]
    return tuple(free)


def _values(expr: Expr, source, grounding: Grounding, scope: Tuple[Atom, ...]):
    """The compiled array over the scope's whole domain; raises the error of
    its first failing cell."""
    compiled = _compiled(_plan(expr, source, grounding, scope), source)
    if compiled.codes is not None:
        codes = compiled.codes.reshape(-1)
        failed = np.flatnonzero(codes)
        if failed.size:
            compiled.raise_code(codes[failed[0]])
    return compiled.values


def _cells(expr: Expr, source, grounding: Grounding, scope: Tuple[Atom, ...], values) -> dict:
    index = _plan(expr, source, grounding, scope).index
    return dict(zip(index, values.reshape(-1).tolist()))


def evaluate_all(expr: Expr, table_or_scm, grounding: Grounding):
    """Evaluate over the full domain of the free symbols: on a table like
    `evaluate`, on a `DiscreteSCM` like `evaluate_interventional`.

    Returns (atoms, {value-tuple-assignment: float}).
    """
    atoms = free_atoms(expr)
    values = _values(expr, table_or_scm, grounding, atoms)
    return atoms, _cells(expr, table_or_scm, grounding, atoms, values)


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
    return atoms, _cells(expr, manifest, grounding, atoms, np.abs(got - want))
