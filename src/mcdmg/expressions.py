"""Symbolic probability expressions over cluster valuations.

Expressions are trees of terms, sums, products and quotients. A term is
``P(outcomes | do(interventions), conditions)`` whose atoms are cluster value
symbols (``c_CX``), proxy symbols (``c_CX*``) and indicator literals
(``R_CX=0``). Everything is immutable; ``canonical`` gives a normal form so
structural equality stands in for algebraic equality of rewrites.
"""

from __future__ import annotations

from operator import is_
from typing import FrozenSet, Iterable, NamedTuple, Optional, Tuple, Union

from .errors import (
    MissingIndicatorLiteral,
    SymbolAlreadyBound,
    UnknownVertex,
    WrongGraphClass,
)
from .graphs import GraphClass, MixedGraph, _require, _Value

VAL = "val"
PROXY = "proxy"
RZERO = "rzero"


class Atom(NamedTuple):
    """One symbol: a cluster value, its proxy, or an indicator pinned to 0.

    A named tuple, so hashing, equality and the ``(kind, ref)`` order are
    the tuple's own.
    """

    kind: str
    ref: str

    def render(self) -> str:
        if self.kind == VAL:
            return f"c_{self.ref}"
        if self.kind == PROXY:
            return f"c_{self.ref}*"
        return f"{self.ref}=0"

    def render_latex(self) -> str:
        if self.kind == VAL:
            return f"c_{{{self.ref}}}"
        if self.kind == PROXY:
            return f"c_{{{self.ref}}}^{{*}}"
        return f"{_latex_name(self.ref)}{{=}}0"


def _latex_name(vid: str) -> str:
    if "_" in vid:
        head, _, tail = vid.partition("_")
        return f"{head}_{{{tail}}}"
    return vid


def val(cluster: str) -> Atom:
    return Atom(VAL, cluster)


def proxy(cluster: str) -> Atom:
    return Atom(PROXY, cluster)


def rzero(indicator: str) -> Atom:
    return Atom(RZERO, indicator)


# The expression nodes are slotted values (`_Value`): each compares by its
# fields (``__match_args__``) with a node of its own type only, its repr
# names them, and a copy or pickle rebuilds it from them, so no hash cached
# under one process's string hashing reaches another process. Each node but
# `One` overrides ``==`` and ``hash`` to cache its hash, and a term also its
# sort key, in a slot that takes no part in ``==`` or ``repr``: a subtree
# shared between search states is hashed once, and a term's atom sets are
# sorted once. The other nodes' sort keys are rebuilt from their terms'
# keys: caching those too measured no faster and held more memory. The
# slots keep nodes free of a ``__dict__``, and the constructors, which the
# search calls most, set them through the slot descriptors (``_set_*``)
# rather than ``object.__setattr__``.
class _Node(_Value):
    __slots__ = ("_hash",)


_set_hash = _Node._hash.__set__


def _store_hash(node, parts: tuple) -> int:
    """Cache ``hash(parts)`` on the node (a hash of 0 is just recomputed)."""
    h = hash(parts)
    _set_hash(node, h)
    return h


class Term(_Node):
    """``P(outcomes | do(do_set), cond)``; all three are atom sets."""

    __slots__ = ("outcomes", "do", "cond", "_key")
    __match_args__ = ("outcomes", "do", "cond")

    def __init__(
        self,
        outcomes: FrozenSet[Atom],
        do: FrozenSet[Atom] = frozenset(),
        cond: FrozenSet[Atom] = frozenset(),
    ):
        if do & cond:
            raise SymbolAlreadyBound("a symbol cannot be both intervened and conditioned on")
        _set_outcomes(self, outcomes)
        _set_do(self, do)
        _set_cond(self, cond)
        _set_hash(self, None)
        _set_key(self, None)

    def __eq__(self, other):
        if type(other) is not Term:
            return NotImplemented
        return self is other or (
            self.outcomes == other.outcomes and self.do == other.do and self.cond == other.cond
        )

    def __hash__(self) -> int:
        return self._hash or _store_hash(self, (Term, self.outcomes, self.do, self.cond))

    def replace(self, **kw) -> "Term":
        d = {"outcomes": self.outcomes, "do": self.do, "cond": self.cond}
        d.update(kw)
        return Term(frozenset(d["outcomes"]), frozenset(d["do"]), frozenset(d["cond"]))


_set_outcomes, _set_do, _set_cond, _set_key = (getattr(Term, f).__set__ for f in Term.__slots__)


class Sum(_Node):
    """Sum of the body over all valuations of the bound cluster symbol."""

    __slots__ = ("bound", "body")
    __match_args__ = __slots__

    def __init__(self, bound: Atom, body: "Expr"):
        _set_bound(self, bound)
        _set_body(self, body)
        _set_hash(self, None)

    def __eq__(self, other):
        if type(other) is not Sum:
            return NotImplemented
        return self is other or (self.bound == other.bound and self.body == other.body)

    def __hash__(self) -> int:
        return self._hash or _store_hash(self, (Sum, self.bound, self.body))


_set_bound, _set_body = Sum.bound.__set__, Sum.body.__set__


class Product(_Node):
    __slots__ = ("factors",)
    __match_args__ = __slots__

    def __init__(self, factors: Tuple["Expr", ...]):
        _set_factors(self, factors)
        _set_hash(self, None)

    def __eq__(self, other):
        if type(other) is not Product:
            return NotImplemented
        return self is other or self.factors == other.factors

    def __hash__(self) -> int:
        return self._hash or _store_hash(self, (Product, self.factors))


_set_factors = Product.factors.__set__


class Quotient(_Node):
    __slots__ = ("num", "den")
    __match_args__ = __slots__

    def __init__(self, num: "Expr", den: "Expr"):
        _set_num(self, num)
        _set_den(self, den)
        _set_hash(self, None)

    def __eq__(self, other):
        if type(other) is not Quotient:
            return NotImplemented
        return self is other or (self.num == other.num and self.den == other.den)

    def __hash__(self) -> int:
        return self._hash or _store_hash(self, (Quotient, self.num, self.den))


_set_num, _set_den = Quotient.num.__set__, Quotient.den.__set__


class One(_Node):
    __slots__ = ()


Expr = Union[Term, Sum, Product, Quotient, One]


def term(outcomes: Iterable[Atom], do: Iterable[Atom] = (), cond: Iterable[Atom] = ()) -> Term:
    return Term(frozenset(outcomes), frozenset(do), frozenset(cond))


# ---------------------------------------------------------------------------
# Canonical form
# ---------------------------------------------------------------------------


def _sort_key(e: Expr) -> tuple:
    """The place of a factor in a canonical product."""
    if isinstance(e, Term):
        key = e._key
        if key is None:
            key = (1, tuple(sorted(e.outcomes)), tuple(sorted(e.do)), tuple(sorted(e.cond)))
            _set_key(e, key)
        return key
    if isinstance(e, One):
        return (0,)
    if isinstance(e, Product):
        return (2, tuple(map(_sort_key, e.factors)))
    if isinstance(e, Sum):
        return (3, e.bound, _sort_key(e.body))
    return (4, _sort_key(e.num), _sort_key(e.den))


def canonical(e: Expr) -> Expr:
    """Normal form: flattened sorted products, ordered sum chains, reduced units.

    A tree already in normal form is returned as it is, caches included.
    """
    if isinstance(e, (One, Term)):
        return e
    subs = _children(e)
    canon = tuple(map(canonical, subs))
    return _normal(e if all(map(is_, canon, subs)) else _rebuild(e, canon))


def _normal(e: Expr) -> Expr:
    """One level of the normal form, for a node whose children are canonical."""
    if isinstance(e, (One, Term)):
        return e
    if isinstance(e, Product):
        factors = []
        for f in e.factors:
            if isinstance(f, Product):
                factors.extend(f.factors)
            elif not isinstance(f, One):
                factors.append(f)
        factors.sort(key=_sort_key)
        if not factors:
            return One()
        if len(factors) == 1:
            return factors[0]
        if len(factors) == len(e.factors) and all(map(is_, factors, e.factors)):
            return e
        return Product(tuple(factors))
    if isinstance(e, Sum):
        body = e.body
        if isinstance(body, Sum) and body.bound < e.bound:
            return Sum(body.bound, _normal(Sum(e.bound, body.body)))
        return e
    if isinstance(e, Quotient):
        if isinstance(e.den, One):
            return e.num
        if e.num == e.den:
            return One()
        return e
    raise TypeError(f"not an expression: {e!r}")


def terms_of(e: Expr) -> Tuple[Term, ...]:
    """Every term of the tree, in canonical traversal order."""
    if isinstance(e, Term):
        return (e,)
    out: Tuple[Term, ...] = ()
    for sub in _children(e):
        out += terms_of(sub)
    return out


def symbols_of(e: Expr) -> FrozenSet[Atom]:
    if isinstance(e, Term):
        return e.outcomes | e.do | e.cond
    out = {e.bound} if isinstance(e, Sum) else set()
    for sub in _children(e):
        out |= symbols_of(sub)
    return frozenset(out)


def bound_symbols(e: Expr) -> FrozenSet[Atom]:
    out = {e.bound} if isinstance(e, Sum) else set()
    for sub in _children(e):
        out |= bound_symbols(sub)
    return frozenset(out)


def _children(e: Expr):
    if isinstance(e, Sum):
        return (e.body,)
    if isinstance(e, Product):
        return e.factors
    if isinstance(e, Quotient):
        return (e.num, e.den)
    return ()


def _rebuild(e: Expr, children) -> Expr:
    """``e`` with its ``_children`` replaced, in the same order."""
    if isinstance(e, Sum):
        return Sum(e.bound, children[0])
    if isinstance(e, Product):
        return Product(tuple(children))
    if isinstance(e, Quotient):
        return Quotient(*children)
    return e


def rewrite_terms(e: Expr, fn) -> Expr:
    """Apply ``fn`` to every term and rebuild the tree."""
    if isinstance(e, Term):
        return fn(e)
    return _rebuild(e, [rewrite_terms(sub, fn) for sub in _children(e)])


# ---------------------------------------------------------------------------
# Rewriting primitives
# ---------------------------------------------------------------------------


def indicators_for(g: MixedGraph, cluster: str) -> Tuple[str, ...]:
    """Indicator ids licensing proxy substitution for a cluster symbol."""
    if g.graph_class not in (GraphClass.MCDMG, GraphClass.CMCDMG, GraphClass.MADMG):
        raise WrongGraphClass("proxy substitution needs a missingness graph")
    rs = g.indicators_of_cluster(cluster)
    if not rs:
        raise UnknownVertex(f"{cluster!r} has no missingness indicator")
    return rs


def _swap_proxy(t: Term, target: str) -> Term:
    """The term with the target's true-value symbol read through its proxy
    in outcomes and conditions; do-sets keep the true variable."""
    tv, tp = val(target), proxy(target)
    outs = frozenset(tp if a == tv else a for a in t.outcomes)
    cond = frozenset(tp if a == tv else a for a in t.cond)
    return Term(outs, t.do, cond)


def apply_proxy(e: Expr, target: str, g: MixedGraph) -> Expr:
    """Replace a partially observed symbol by its proxy where licensed.

    Every term mentioning the target in outcomes or conditions must already
    carry all of the target's ``R=0`` literals; occurrences inside do-sets
    stay untouched (interventions set the true variable).
    """
    _require("g", g, MixedGraph, WrongGraphClass)
    need = {rzero(r) for r in indicators_for(g, target)}
    tv = val(target)

    def fix(t: Term) -> Term:
        if tv not in (t.outcomes | t.cond):
            return t
        present = t.outcomes | t.cond
        if not need <= present:
            raise MissingIndicatorLiteral(
                f"substituting {target!r} requires its R=0 literals in the same term"
            )
        return _swap_proxy(t, target)

    if not any(tv in (t.outcomes | t.cond) for t in terms_of(e)):
        raise UnknownVertex(f"{target!r} does not occur outside do-sets")
    return rewrite_terms(e, fix)


def expand_total_probability(e: Expr, over: str) -> Expr:
    """Introduce a cluster by the law of total probability.

    ``P(y | do(z), w)`` becomes ``sum_over P(y | do(z), w, over) P(over | do(z), w)``.
    The expression must be a single term and ``over`` must be fresh.
    """
    if val(over) in symbols_of(e) or proxy(over) in symbols_of(e):
        raise SymbolAlreadyBound(f"{over!r} already occurs in the expression")
    if not isinstance(e, Term):
        raise TypeError("total probability expands a single term")
    left = e.replace(cond=e.cond | {val(over)})
    right = Term(frozenset({val(over)}), e.do, e.cond)
    return Sum(val(over), Product((left, right)))


def marginalize(e: Expr) -> Expr:
    """Collapse ``sum_s`` when the bound symbol sits in the body's outcomes.

    ``sum_s P(y, s | e)`` becomes ``P(y | e)``; a bare ``sum_s P(s | e)``
    becomes one. Inverse of expansion up to canonical form. Raises
    ValueError for a sum with no closed form.
    """
    if not isinstance(e, Sum):
        raise TypeError("marginalization collapses a sum")
    body = canonical(e.body)
    out = collapse(e if body is e.body else Sum(e.bound, body))
    if out is None:
        raise ValueError("sum does not marginalize to a closed form")
    return out


def collapse(e: Sum) -> Optional[Expr]:
    """`marginalize` for a sum whose body is canonical: the closed form, or
    None when there is none."""
    s, body = e.bound, e.body
    if isinstance(body, Term):
        if s not in body.outcomes:
            return None
        rest = body.outcomes - {s}
        return body.replace(outcomes=rest) if rest else One()
    if isinstance(body, Product) and len(body.factors) == 2:
        # sum_s P(y | s, e) P(s | e) -> P(y | e): undo a total-probability step
        a, b = body.factors
        if isinstance(a, Term) and isinstance(b, Term):
            for left, right in ((a, b), (b, a)):
                if (
                    right.outcomes == {s}
                    and s in left.cond
                    and left.do == right.do
                    and left.cond - {s} == right.cond
                ):
                    return left.replace(cond=left.cond - {s})
    return None


def chain_split(t: Term, piece: Atom) -> Expr:
    """Chain rule: ``P(y, p | e) = P(y | p, e) P(p | e)``."""
    if piece not in t.outcomes or len(t.outcomes) < 2:
        raise ValueError("chain rule needs the atom among several outcomes")
    left = Term(t.outcomes - {piece}, t.do, t.cond | {piece})
    right = Term(frozenset({piece}), t.do, t.cond)
    return Product((left, right))


# ---------------------------------------------------------------------------
# Rendering and JSON
# ---------------------------------------------------------------------------


def _display_order(a: Atom):
    return (a.kind == RZERO, a.render())


def _render_term(t: Term, tex: bool) -> str:
    show = (lambda a: a.render_latex()) if tex else (lambda a: a.render())
    outs = ", ".join(show(a) for a in sorted(t.outcomes, key=_display_order))
    rhs = []
    if t.do:
        inner = ", ".join(show(a) for a in sorted(t.do, key=_display_order))
        rhs.append(f"do({inner})" if not tex else f"\\mathrm{{do}}({inner})")
    rhs += [show(a) for a in sorted(t.cond, key=_display_order)]
    if rhs:
        sep = " \\mid " if tex else " | "
        return f"P({outs}{sep}{', '.join(rhs)})"
    return f"P({outs})"


def render(e: Expr, tex: bool = False) -> str:
    if isinstance(e, One):
        return "1"
    if isinstance(e, Term):
        return _render_term(e, tex)
    if isinstance(e, Sum):
        body = render(e.body, tex)
        if tex:
            return f"\\sum_{{{e.bound.render_latex()}}} {body}"
        return f"sum_{{{e.bound.render()}}} {body}"
    if isinstance(e, Product):
        sep = " \\cdot " if tex else " * "
        return sep.join(
            f"({render(f, tex)})" if isinstance(f, (Sum, Quotient)) else render(f, tex)
            for f in e.factors
        )
    num, den = render(e.num, tex), render(e.den, tex)
    if tex:
        return f"\\frac{{{num}}}{{{den}}}"
    return f"[{num}] / [{den}]"


def latex(e: Expr) -> str:
    return render(e, tex=True)


def expr_to_json(e: Expr):
    if isinstance(e, One):
        return {"node": "one"}
    if isinstance(e, Term):
        enc = lambda atoms: sorted([a.kind, a.ref] for a in atoms)
        return {
            "node": "term",
            "outcomes": enc(e.outcomes),
            "do": enc(e.do),
            "cond": enc(e.cond),
        }
    if isinstance(e, Sum):
        return {"node": "sum", "bound": [e.bound.kind, e.bound.ref], "body": expr_to_json(e.body)}
    if isinstance(e, Product):
        return {"node": "product", "factors": [expr_to_json(f) for f in e.factors]}
    return {"node": "quotient", "num": expr_to_json(e.num), "den": expr_to_json(e.den)}


def _atom_from_json(pair) -> Atom:
    if not (
        isinstance(pair, (list, tuple))
        and len(pair) == 2
        and pair[0] in (VAL, PROXY, RZERO)
        and isinstance(pair[1], str)
    ):
        raise ValueError(f"not an atom: {pair!r}")
    return Atom(*pair)


# the fields of each JSON node, by its "node" name
_JSON_FIELDS = {
    "one": (),
    "term": ("outcomes", "do", "cond"),
    "sum": ("bound", "body"),
    "product": ("factors",),
    "quotient": ("num", "den"),
}


def expr_from_json(d) -> Expr:
    """The inverse of `expr_to_json`. Raises ValueError for anything that is
    not an expression's JSON: a node of unknown name, a missing field, a
    list of atoms or factors that is no list, or a malformed atom."""
    node = d.get("node") if isinstance(d, dict) else None
    fields = _JSON_FIELDS.get(node) if isinstance(node, str) else None
    if fields is None or not all(f in d for f in fields):
        raise ValueError(f"not an expression: {d!r}")
    if node == "one":
        return One()
    if node == "sum":
        return Sum(_atom_from_json(d["bound"]), expr_from_json(d["body"]))
    if node == "quotient":
        return Quotient(expr_from_json(d["num"]), expr_from_json(d["den"]))
    if not all(isinstance(d[f], (list, tuple)) for f in fields):
        raise ValueError(f"not an expression: {d!r}")
    if node == "term":
        dec = lambda pairs: frozenset(map(_atom_from_json, pairs))
        return Term(dec(d["outcomes"]), dec(d["do"]), dec(d["cond"]))
    return Product(tuple(map(expr_from_json, d["factors"])))
