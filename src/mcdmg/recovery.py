"""Joint-distribution recoverability on cluster missingness graphs.

The graphical test: the joint over all clusters is recoverable exactly when
no partially observed cluster is adjacent to one of its own missingness
indicators, nor connected to one by a path whose interior vertices are all
colliders and all cluster vertices: one d-separation statement per
indicator, asked of the separation engine by `_violations`. On success a
closed-form quotient is emitted; on failure a variable-level witness graph
realizes the violation, and `mcdmg.pairs` reads its motif from the
violations of that graph.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .abstraction import _members_of, _realize, _realized, is_compatible
from .errors import PreconditionError, UnknownVertex, WrongGraphClass
from .expressions import Expr, Product, Quotient, apply_proxy, canonical, rzero, term, val
from .graphs import GraphClass, Kind, MixedGraph, _require, closure
from .separation import Walk, _shortest_active_path


class MarkovBlanket(NamedTuple):
    """Blanket of an indicator split into observed and missing clusters.

    ``sibling_indicators`` are other indicators inside the same bidirected
    district; the emitted formula conditions each factor on the earlier
    siblings so the chain rule stays exact.
    """

    observed: Tuple[str, ...]
    missing: Tuple[str, ...]
    sibling_indicators: Tuple[str, ...] = ()


class Violation(NamedTuple):
    """Why a cluster breaks recoverability: adjacency or a collider path."""

    cluster: str
    indicator: str
    reason: str  # "neighbor" | "collider_path"
    witness: Walk

    def to_json(self) -> dict:
        return {
            "cluster": self.cluster,
            "indicator": self.indicator,
            "reason": self.reason,
            "witness_path": self.witness.text(),
        }


class JointVerdict(NamedTuple):
    recoverable: bool
    violations: Tuple[Violation, ...]
    formula: Optional[Expr]

    def to_json(self) -> dict:
        from .expressions import expr_to_json, render

        out = {
            "recoverable": self.recoverable,
            "violations": [v.to_json() for v in self.violations],
        }
        if self.formula is not None:
            out["formula"] = expr_to_json(self.formula)
            out["formula_text"] = render(self.formula)
        return out


def _require_missingness_cluster_graph(g: MixedGraph) -> None:
    _require("g", g, MixedGraph, WrongGraphClass)
    if g.graph_class not in (GraphClass.MCDMG, GraphClass.CMCDMG):
        raise WrongGraphClass(
            f"joint recoverability is defined on m-c-dmg/cm-c-dmg, got {g.graph_class.value}"
        )


def _check_side_conditions(g: MixedGraph) -> None:
    rs = set(g.indicators)
    for a, b in sorted(g.directed):
        if a in rs and a == b:
            raise PreconditionError(f"self-loop on indicator {a!r}")
        if a in rs and b in rs:
            raise PreconditionError(f"edge between indicators {a!r} and {b!r}")
    for a, b in sorted(g.bidirected):
        if a in rs and b in rs:
            raise PreconditionError(f"edge between indicators {a!r} and {b!r}")


# ---------------------------------------------------------------------------
# Markov blankets
# ---------------------------------------------------------------------------


def markov_blanket(g: MixedGraph, r: str) -> MarkovBlanket:
    """Markov blanket used in the denominator factor of the recovery formula.

    Around the indicator: parents, non-proxy children with their parents,
    the bidirected district and the district's parents. Exact on every
    compatible variable-level model (enforced by the oracle tests).
    """
    _require_missingness_cluster_graph(g)
    if g.kind(r) is not Kind.INDICATOR:
        raise UnknownVertex(f"{r!r} is not an indicator")

    proxies = set(g.proxies)

    members: set = set()
    members |= g.parents(r)
    kids = {c for c in g.children(r) if c not in proxies}
    members |= kids
    for k in kids:
        members |= g.parents(k)
    district = g.district(r)
    members |= district
    for d in district:
        members |= g.parents(d)
    members -= proxies
    members.discard(r)

    missing = set(g.partially_observed)
    mb_o = tuple(sorted(m for m in members if g.kind(m) is Kind.CLUSTER and m not in missing))
    mb_m = tuple(sorted(m for m in members if g.kind(m) is Kind.CLUSTER and m in missing))
    sibs = tuple(sorted(m for m in members if g.kind(m) is Kind.INDICATOR))
    return MarkovBlanket(mb_o, mb_m, sibs)


# ---------------------------------------------------------------------------
# The graphical condition
# ---------------------------------------------------------------------------


def _violations(g: MixedGraph):
    """Each indicator's violation, indicators in id order: the shortest
    active path from its owner to it given every other substantive vertex,
    with every other indicator cut off (overlined and underlined).

    A non-collider in the conditioning set blocks a path and a collider in
    it is open; a cut indicator lies on no path, and a proxy has no
    children, so it is never an open collider. The active paths are thus
    exactly the adjacencies and the all-collider substantive paths.
    Works on cluster graphs and on m-ADMGs alike.
    """
    ix = g.index
    substantive, indicators = ix.mask(g.substantive), ix.indicators
    for r in sorted(g.indicators):
        owner = g.owner_cluster(r)
        xs, ys = ix.bit[owner], ix.bit[r]
        cut = indicators & ~ys
        path = _shortest_active_path(ix, xs, ys, substantive & ~xs, cut, cut)
        if path is not None:
            yield Violation(owner, r, "neighbor" if len(path) == 1 else "collider_path", path)


def check_joint(g: MixedGraph) -> JointVerdict:
    """Decide joint recoverability and emit the recovery formula.

    Requires an m-C-DMG or cm-C-DMG without indicator self-loops or edges
    between indicators (PreconditionError otherwise).
    """
    _require_missingness_cluster_graph(g)
    _check_side_conditions(g)
    violations = tuple(_violations(g))
    if violations:
        return JointVerdict(False, violations, None)
    return JointVerdict(True, (), recovery_formula(g))


def recovery_formula(g: MixedGraph) -> Expr:
    """The quotient P(R=0, c) / prod_i P(R_i=0 | blanket, R_blanket=0).

    Emitted in proxy form so every symbol resolves against manifest tables:
    partially observed cluster values appear as proxies next to their R=0
    literals.
    """
    all_r = sorted(g.indicators)
    numerator = term(
        outcomes={val(c) for c in g.clusters} | {rzero(r) for r in all_r},
    )
    factors = []
    for r in all_r:
        mb = markov_blanket(g, r)
        cond = {val(c) for c in mb.observed} | {val(c) for c in mb.missing}
        for m in mb.missing:
            cond |= {rzero(x) for x in g.indicators_of_cluster(m)}
        cond |= {rzero(s) for s in mb.sibling_indicators if s < r}
        cond.discard(rzero(r))
        factors.append(term(outcomes={rzero(r)}, cond=cond))
    expr: Expr = Quotient(numerator, Product(tuple(factors)))
    for c in g.partially_observed:
        expr = apply_proxy(expr, c, g)
    return canonical(expr)


# ---------------------------------------------------------------------------
# Witness construction
# ---------------------------------------------------------------------------


def construct_witness(g: MixedGraph, violation: Violation) -> MixedGraph:
    """A variable-level m-ADMG realizing a violation, compatible with ``g``.

    One representative variable per cluster realizes every inter-cluster
    edge; the violating adjacency or collider path runs over those
    representatives, so the witness contains a variable adjacent to its own
    indicator or an all-collider substantive path to it. Self-looped clusters
    receive a second variable solely to realize the loop, and that second
    variable also absorbs directed edges whose representative realization
    would close a variable-level cycle (it never has outgoing edges). Such an
    edge into an indicator is realized instead from a source variable of its
    tail cluster, which never has incoming edges. A violation whose path is
    not a path of ``g`` from the indicator's cluster to the indicator is
    refused with PreconditionError.
    """
    _require_missingness_cluster_graph(g)
    _require("violation", violation, Violation, PreconditionError)
    path, indicator = violation.witness, violation.indicator
    _require("violation.witness", path, Walk, PreconditionError)
    cluster = g.owner_cluster(indicator)  # UnknownVertex unless an indicator of g
    if (path.vertices[0], path.vertices[-1]) != (cluster, indicator) or not path.is_path():
        raise PreconditionError(f"violation path {path.text()} is not a path from {cluster!r} to {indicator!r}")
    try:
        path.check_in(g)
    except UnknownVertex as exc:
        raise PreconditionError(f"violation path {path.text()}: {exc}") from None

    declared = g.clustering.as_dict
    self_looped = {a for a, b in g.directed if a == b and g.kind(a) is Kind.CLUSTER}
    members = {
        c: list(_members_of(declared.get(c, ()), c, 2 if c in self_looped else 1))
        for c in sorted(g.clusters)
    }

    # the violated cluster's representative must be the masked variable itself
    if g.graph_class is GraphClass.MCDMG:
        owner = g.vertex(indicator).owner
        pool = members[cluster]
        if owner not in pool:
            pool[1 if len(pool) > 1 else 0] = owner
        pool.sort(key=lambda v: v != owner)
        # every other indicator needs its owner as a witness variable too
        for r in g.indicators:
            pool = members[g.owner_cluster(r)]
            if g.vertex(r).owner not in pool:
                pool.append(g.vertex(r).owner)

    def image(vid: str) -> str:
        return _realized(g, members, vid)[0]  # the representative realization

    sources: dict = {}  # cluster -> its source variable

    def fresh(c: str) -> str:
        return _members_of(members[c], c, len(members[c]) + 1)[-1]

    def second(c: str) -> str:
        if len(members[c]) == 1 or members[c][1] == sources.get(c):
            members[c].insert(1, fresh(c))
        return members[c][1]

    def source(c: str) -> str:
        if c not in sources:
            sources[c] = fresh(c)
            members[c].append(sources[c])
        return sources[c]

    directed: set = set()
    bidirected: set = set()

    # violating structure first, so it is never re-routed
    steps = zip(path.vertices, path.edges, path.vertices[1:])
    ordered = [("->", b, a) if sym == "<-" else (sym, a, b) for a, sym, b in steps]
    for a, b in sorted(g.declared_directed):
        if a != b and ("->", a, b) not in ordered:
            ordered.append(("->", a, b))
    for a, b in sorted(g.bidirected):
        if ("<->", a, b) not in ordered and ("<->", b, a) not in ordered:
            ordered.append(("<->", a, b))

    for kind, a, b in ordered:
        ia, ib = image(a), image(b)
        if kind == "<->":
            bidirected.add(tuple(sorted((ia, ib))))
            continue
        if ia in closure((ib,), lambda v: [y for x, y in directed if x == v]):
            if g.kind(b) is Kind.CLUSTER:
                ib = second(b)  # second variables never get outgoing edges
            elif g.kind(a) is Kind.CLUSTER:
                ia = source(a)  # source variables never get incoming edges
            else:
                raise WrongGraphClass("cannot acyclically realize a cycle through an indicator")
        directed.add((ia, ib))
    for c in sorted(self_looped):
        directed.add((members[c][0], second(c)))

    witness = _realize(g, members, directed, bidirected, f"{g.name}.witness")
    report = is_compatible(witness, g, witness.clustering)
    if not report.compatible:
        raise AssertionError(f"witness construction incompatible: {report}")
    return witness
