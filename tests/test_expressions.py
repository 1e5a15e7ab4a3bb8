import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcdmg.errors import MissingIndicatorLiteral, SymbolAlreadyBound, UnknownVertex
from mcdmg.expressions import (
    PROXY,
    RZERO,
    VAL,
    Atom,
    One,
    Product,
    Quotient,
    Sum,
    Term,
    _sort_key,
    apply_proxy,
    bound_symbols,
    canonical,
    chain_split,
    expand_total_probability,
    expr_from_json,
    expr_to_json,
    latex,
    marginalize,
    proxy,
    render,
    rewrite_terms,
    rzero,
    symbols_of,
    term,
    terms_of,
    val,
)
from tests_support import replace_term


def q(outcomes=(), do=(), cond=()):
    return term(outcomes, do, cond)


def test_canonical_flattens_products():
    a = q([val("A")])
    b = q([val("B")])
    e = Product((Product((a,)), b, One()))
    c = canonical(e)
    assert isinstance(c, Product) and len(c.factors) == 2
    assert canonical(Product((b, a))) == c


def test_canonical_quotient_units():
    a = q([val("A")])
    assert canonical(Quotient(a, One())) == a
    assert canonical(Quotient(a, a)) == One()


def test_canonical_sum_order():
    body = q([val("C")], cond=[val("A"), val("B")])
    e1 = Sum(val("B"), Sum(val("A"), body))
    e2 = Sum(val("A"), Sum(val("B"), body))
    assert canonical(e1) == canonical(e2)


def test_term_do_cond_disjoint():
    with pytest.raises(SymbolAlreadyBound):
        Term(frozenset({val("Y")}), frozenset({val("X")}), frozenset({val("X")}))


def test_apply_proxy_example(fig2b):
    e = q([val("CY")], do=[val("CX")], cond=[rzero("R_CY")])
    out = apply_proxy(e, "CY", fig2b)
    assert out == q([proxy("CY")], do=[val("CX")], cond=[rzero("R_CY")])


def test_apply_proxy_missing_literal(fig2b):
    e = q([val("CY")], do=[val("CX")])
    with pytest.raises(MissingIndicatorLiteral):
        apply_proxy(e, "CY", fig2b)


def test_apply_proxy_do_untouched(fig2b):
    e = q([val("CY")], do=[val("CX")], cond=[rzero("R_CY")])
    out = apply_proxy(e, "CY", fig2b)
    assert out.do == frozenset({val("CX")})
    assert out.outcomes == frozenset({proxy("CY")})


def test_apply_proxy_no_occurrence(fig2b):
    e = q([val("CY")], cond=[rzero("R_CY")])
    with pytest.raises(UnknownVertex):
        apply_proxy(e, "CZ", fig2b)


def test_apply_proxy_m_level(fig2a):
    e = q([val("CY")], cond=[rzero("R_Y1")])
    with pytest.raises(MissingIndicatorLiteral):
        apply_proxy(e, "CY", fig2a)  # needs both R_Y1=0 and R_Y2=0
    e = q([val("CY")], cond=[rzero("R_Y1"), rzero("R_Y2")])
    assert apply_proxy(e, "CY", fig2a).outcomes == frozenset({proxy("CY")})


def test_expand_total_probability():
    e = q([proxy("CY")], do=[val("CX")], cond=[rzero("R_CY")])
    out = expand_total_probability(e, "CZ")
    assert isinstance(out, Sum) and out.bound == val("CZ")
    left, right = sorted(out.body.factors, key=render)
    assert {left, right} == {
        q([proxy("CY")], do=[val("CX")], cond=[rzero("R_CY"), val("CZ")]),
        q([val("CZ")], do=[val("CX")], cond=[rzero("R_CY")]),
    }


def test_expand_rejects_bound_symbol():
    e = q([val("CY")], cond=[val("CZ")])
    with pytest.raises(SymbolAlreadyBound):
        expand_total_probability(e, "CZ")


def test_expand_then_marginalize_round_trip():
    e = q([val("CY")], do=[val("CX")])
    expanded = expand_total_probability(e, "CZ")
    assert canonical(marginalize(expanded)) == canonical(e)


def test_marginalize_outcome_sum():
    e = Sum(val("CZ"), q([val("CY"), val("CZ")], cond=[val("CX")]))
    assert marginalize(e) == q([val("CY")], cond=[val("CX")])
    bare = Sum(val("CZ"), q([val("CZ")]))
    assert marginalize(bare) == One()


def test_chain_split():
    e = q([val("CY"), val("CZ")], cond=[val("CX")])
    out = chain_split(e, val("CZ"))
    assert canonical(out) == canonical(
        Product(
            (
                q([val("CY")], cond=[val("CX"), val("CZ")]),
                q([val("CZ")], cond=[val("CX")]),
            )
        )
    )


def test_render_and_latex():
    e = Sum(
        val("CZ"),
        Product(
            (
                q([proxy("CY")], cond=[val("CX"), rzero("R_CY"), val("CZ")]),
                q([val("CZ")], cond=[rzero("R_CY")]),
            )
        ),
    )
    text = render(e)
    assert text == (
        "sum_{c_CZ} P(c_CY* | c_CX, c_CZ, R_CY=0) * P(c_CZ | R_CY=0)"
    )
    tex = latex(e)
    assert "\\sum_{c_{CZ}}" in tex and "R_{CY}{=}0" in tex


def test_json_round_trip():
    e = Quotient(
        q([proxy("CX"), rzero("R_CX")]),
        Product((q([rzero("R_CX")], cond=[val("CZ")]), One())),
    )
    again = expr_from_json(expr_to_json(e))
    assert canonical(again) == canonical(e)


def test_canonical_congruence_numeric(fig2b):
    # structurally equal canonical forms evaluate identically on tables
    from mcdmg import Budget, Grounding, enumerate_compatible, exact_tables, random_scm
    from mcdmg.oracle import evaluate

    madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
    scm = random_scm(madmg, seed=3)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, abstract=fig2b)
    a = q([rzero("R_CX")], cond=[val("CZ")])
    e1 = Product((a, One()))
    e2 = Quotient(a, One())
    env = {val("CZ"): (0, 1)}
    assert evaluate(canonical(e1), manifest, gr, env) == evaluate(
        canonical(e2), manifest, gr, env
    )


def test_expansion_numeric_identity(fig2b):
    # expanding over an adjacent cluster and summing back changes nothing
    from mcdmg import Budget, Grounding, enumerate_compatible, exact_tables, random_scm
    from mcdmg.oracle import evaluate

    e = q([proxy("CY")], cond=[rzero("R_CY"), rzero("R_CX"), proxy("CX")])
    expanded = expand_total_probability(e, "CZ")
    madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
    for seed in range(5):
        scm = random_scm(madmg, seed=seed)
        _, manifest = exact_tables(scm)
        gr = Grounding.from_scm(scm, abstract=fig2b)
        for y in ((0, 0), (1, 0)):
            for x in ((0, 1), (1, 1)):
                env = {proxy("CY"): y, proxy("CX"): x}
                a = evaluate(e, manifest, gr, env)
                b = evaluate(expanded, manifest, gr, env)
                assert abs(a - b) <= 1e-12


# -- tree walks ----------------------------------------------------------------

atoms = st.builds(Atom, st.sampled_from([VAL, PROXY, RZERO]), st.sampled_from(["A", "B", "C"]))
terms = st.builds(
    lambda o, d, c: term(o, d, c - d),
    st.sets(atoms, min_size=1, max_size=2),
    st.sets(atoms, max_size=1),
    st.sets(atoms, max_size=2),
)
exprs = st.recursive(
    terms | st.just(One()),
    lambda sub: st.one_of(
        st.builds(Sum, atoms, sub),
        st.builds(lambda fs: Product(tuple(fs)), st.lists(sub, min_size=1, max_size=3)),
        st.builds(Quotient, sub, sub),
    ),
    max_leaves=8,
)


def _preorder(e):
    """Every node of the tree, parents before children, left to right."""
    yield e
    if isinstance(e, Sum):
        yield from _preorder(e.body)
    elif isinstance(e, Product):
        for f in e.factors:
            yield from _preorder(f)
    elif isinstance(e, Quotient):
        yield from _preorder(e.num)
        yield from _preorder(e.den)


@given(exprs)
def test_tree_walks_match_preorder(e):
    nodes = list(_preorder(e))
    ts = [x for x in nodes if isinstance(x, Term)]
    bound = {x.bound for x in nodes if isinstance(x, Sum)}
    assert terms_of(e) == tuple(ts)
    assert bound_symbols(e) == bound
    assert symbols_of(e) == bound.union(*(t.outcomes | t.do | t.cond for t in ts))


@given(exprs)
def test_identity_rewrites_keep_the_tree(e):
    assert rewrite_terms(e, lambda t: t) == e
    for x in _preorder(e):
        assert replace_term(e, x, x) == e


@given(exprs)
def test_canonical_is_idempotent(e):
    once = canonical(e)
    assert canonical(once) == once


# -- node contracts ------------------------------------------------------------


@given(exprs)
def test_equal_nodes_hash_equal(e):
    twin = expr_from_json(expr_to_json(e))  # equal, built apart, nothing cached
    hash(e)  # e's hashes are cached before it is embedded below
    assert twin == e and hash(twin) == hash(e)
    wrap = lambda x: Sum(val("A"), Product((x, q([val("B")]))))
    assert hash(wrap(e)) == hash(wrap(twin))
    assert {wrap(e): 1}[wrap(twin)] == 1


def test_cache_fields_stay_out_of_eq_repr_and_json():
    e = Sum(val("A"), Product((q([val("B")], cond=[val("A")]), q([val("A")]))))
    twin = expr_from_json(expr_to_json(e))
    hash(e)
    _sort_key(e)
    t, twin_t = e.body.factors[0], twin.body.factors[0]
    assert e._hash is not None and t._key is not None
    assert twin._hash is None and twin_t._key is None
    assert e == twin and repr(e) == repr(twin) and expr_to_json(e) == expr_to_json(twin)
    assert "_hash" not in repr(e) and "_key" not in repr(e)
    assert not any(hasattr(x, "__dict__") for x in _preorder(e))
    # a copy is rebuilt from its fields and carries no cached hash
    again = pickle.loads(pickle.dumps(e))
    assert again == e and again._hash is None


@given(st.lists(atoms))
def test_atoms_sort_by_kind_then_ref(xs):
    assert sorted(xs) == sorted(xs, key=lambda a: (a.kind, a.ref))


def test_atom_fields_and_rendering():
    a = Atom(PROXY, "C_X")
    assert (a.kind, a.ref) == (PROXY, "C_X") and a == proxy("C_X")
    assert (a.render(), a.render_latex()) == ("c_C_X*", "c_{C_X}^{*}")
    assert (val("CY").render(), val("CY").render_latex()) == ("c_CY", "c_{CY}")
    assert (rzero("R_CY").render(), rzero("R_CY").render_latex()) == ("R_CY=0", "R_{CY}{=}0")


@pytest.mark.parametrize(
    "atom",
    [["bogus", "CY"], ["val"], ["val", "CY", "CZ"], "val", ["val", 3], None],
    ids=["unknown-kind", "short", "long", "string", "non-string-ref", "null"],
)
def test_json_rejects_malformed_atoms(atom):
    doc = expr_to_json(Sum(val("CY"), q([val("CY")], cond=[val("CX")])))
    with pytest.raises(ValueError):
        expr_from_json({**doc, "bound": atom})
    with pytest.raises(ValueError):
        expr_from_json({**doc["body"], "cond": [atom]})


@pytest.mark.parametrize(
    "doc",
    [{}, [], None, "term", 5, {"node": "bogus"}, {"node": ["term"]}, {"node": "term"},
     {"node": "term", "outcomes": [["val", "CY"]], "do": [], "cond": 3},
     {"node": "product", "factors": {"node": "one"}}, {"node": "sum", "bound": ["val", "CY"]},
     {"node": "quotient", "num": {"node": "one"}, "den": {}}],
    ids=["empty", "list", "null", "string", "int", "unknown-node", "unhashable-node", "term-no-sets",
         "term-int-cond", "product-dict-factors", "sum-no-body", "quotient-empty-den"],
)
def test_json_rejects_what_is_not_an_expression(doc):
    with pytest.raises(ValueError, match="not an expression"):
        expr_from_json(doc)
