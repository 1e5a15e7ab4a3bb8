import collections
import functools
import gc
import hashlib
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mcdmg import (
    Budget,
    Clustering,
    DiscreteSCM,
    DistTable,
    Grounding,
    as_cluster_graph,
    enumerate_compatible,
    equal_manifest_pair,
    evaluate,
    evaluate_interventional,
    exact_tables,
    fixture_text,
    interventional_table,
    parse_graph,
    random_scm,
)
from mcdmg import GraphClass, Kind, MixedGraph, Vertex, oracle
from mcdmg import Derivation, markov_blanket, replay, rule_applicable
from mcdmg import check_joint, construct_witness, recover_effect
from mcdmg import (
    MutilationSpec,
    Walk,
    active_path,
    ancestors,
    apply_proxy,
    classify_mechanism,
    d_separated,
    d_separated_by_paths,
    descendants,
    emit_dot,
    emit_graph,
    emit_json,
    enumerate_paths,
    is_compatible,
    merge_indicators,
    mutilate,
    project,
    validate,
)
from mcdmg.errors import (
    BudgetTooSmall,
    DomainTooLarge,
    EvaluationError,
    InvalidClustering,
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
    proxy,
    rzero,
    term,
    val,
)
from mcdmg.oracle import (
    MAX_STATES,
    Node,
    _do_table,
    _elimination,
    check,
    evaluate_all,
    free_atoms,
    scm_from_cpts,
)
from mcdmg.pairs import _along, _fillers
from mcdmg.recovery import Violation
from tests_support import indicator_out_text, random_cluster_text, reference_manifest, reference_read


def mk(src):
    return parse_graph(src)


MCAR_SRC = (
    'graph "mcar" class=m-admg {\n'
    "  var X\n  var Y\n  rvar R_X for X\n  edge X -> Y\n}\n"
)
MAR_SRC = (
    'graph "mar" class=m-admg {\n'
    "  var Z\n  var X\n  rvar R_X for X\n  edge Z -> X\n  edge Z -> R_X\n}\n"
)
SELFMASK_SRC = (
    'graph "mask" class=m-admg {\n'
    "  var X\n  rvar R_X for X\n  edge X -> R_X\n}\n"
)


def test_random_scm_deterministic():
    g = mk(MCAR_SRC)
    a = random_scm(g, seed=11)
    b = random_scm(g, seed=11)
    for na, nb in zip(a.nodes, b.nodes):
        assert na.name == nb.name and np.array_equal(na.cpt, nb.cpt)
    c = random_scm(g, seed=12)
    assert any(not np.array_equal(x.cpt, y.cpt) for x, y in zip(a.nodes, c.nodes))


def _dirichlet_cpts(scm, seed):
    """The CPTs of ``random_scm(scm.madmg, seed)`` drawn node by node, in
    topological order, with one ``rng.dirichlet`` call each."""
    rng = np.random.default_rng(seed)
    out = []
    for node in scm.nodes:
        shape = tuple(scm.card(p) for p in node.parents)
        k = node.card
        rows = rng.dirichlet(np.ones(k), size=shape) if shape else rng.dirichlet(np.ones(k))
        out.append(np.asarray(rows, dtype=float).reshape(*shape, k) * (1.0 - k * 1e-3) + 1e-3)
    return out


def test_cpts_are_the_per_node_dirichlet_draws():
    """Byte for byte, which the golden hashes (rounded to 12 places) cannot
    see: on the fixtures' first compatible graphs and on random graphs."""
    madmgs = [mk(fixture_text(name)) for name in ("fig1a", "fig1b")]
    for name in ("fig2a", "fig2b", "fig3"):
        madmgs += _first_graphs(name)[1]
    madmgs += [m for m in map(_first_compatible, range(40)) if m is not None]
    assert len(madmgs) > 30
    for madmg in madmgs:
        for seed in (0, 1, 7, 2**31 + 5):
            scm = random_scm(madmg, seed=seed)
            want = _dirichlet_cpts(scm, seed)
            assert all(np.array_equal(n.cpt, w) for n, w in zip(scm.nodes, want)), madmg.name


GOLDEN = Path(__file__).with_name("golden_oracle.json")


def _digest(*arrays):
    h = hashlib.sha256()
    for x in arrays:
        h.update(np.round(x, 12).tobytes())
    return h.hexdigest()


def _table_digest(table):
    return _digest(table.probs) + " " + ",".join(table.variables)


def golden_oracle_hashes():
    """sha256 of the CPTs, the joint, the manifest and the CX do-table of
    the first 3 compatible graphs of fig2a/2b/3 at seeds 0-2, and of fig3's
    equal-manifest pair. Regenerate ``golden_oracle.json`` only for a stated
    change of the seed -> CPT stream:
    ``PYTHONPATH=src:tests python -c "import test_oracle as t; t.write_golden()"``.
    """
    out = {}
    for name in ("fig2a", "fig2b", "fig3"):
        g, madmgs = _first_graphs(name)
        for i, madmg in enumerate(madmgs):
            for seed in range(3):
                scm = random_scm(madmg, seed=seed)
                joint, manifest = exact_tables(scm)
                cx = tuple(sorted(madmg.clustering.members("CX")))
                out[f"{name}/{i}/{seed}"] = {
                    "cpts": _digest(*(n.cpt for n in scm.nodes)),
                    "joint": _table_digest(joint),
                    "manifest": _table_digest(manifest),
                    "do_CX": _table_digest(_do_table(scm, cx)),
                }
    fig3 = parse_graph(fixture_text("fig3"))
    witness = construct_witness(fig3, check_joint(fig3).violations[0])
    for i, scm in enumerate(equal_manifest_pair(witness, seed=0)):
        joint, manifest = exact_tables(scm)
        out[f"fig3/equal_manifest_pair/{i}"] = {
            "cpts": _digest(*(n.cpt for n in scm.nodes)),
            "joint": _table_digest(joint),
            "manifest": _table_digest(manifest),
        }
    return out


def write_golden():
    GOLDEN.write_text(json.dumps(golden_oracle_hashes(), indent=1, sort_keys=True) + "\n")


def test_oracle_tables_match_golden_hashes():
    """The seed -> CPT stream and every exact table stay byte for byte."""
    assert golden_oracle_hashes() == json.loads(GOLDEN.read_text())


GOLDEN_EVAL = Path(__file__).with_name("golden_eval.json")


def _cells_digest(read):
    """sha256 of an ``evaluate_all`` outcome: the atoms and every cell's
    float bytes, or the class and message of the error it raised."""
    try:
        atoms, cells = read()
    except McdmgError as exc:
        return f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256(repr([a.render() for a in atoms]).encode())
    for key, value in cells.items():
        h.update(repr(key).encode() + float(value).hex().encode())
    return h.hexdigest()


def golden_eval_hashes():
    """sha256 of the ``evaluate_all`` cells on the first 3 compatible graphs
    of fig2a/2b/3 at seeds 0-2: the joint formula (where recoverable) and the
    CX -> CY formula on the manifest, and every derivation step's before and
    after on the SCM. Regenerate ``golden_eval.json`` only for a stated
    change of evaluation bytes:
    ``PYTHONPATH=src:tests python -c "import test_oracle as t; t.write_golden_eval()"``.
    """
    out = {}
    for name in ("fig2a", "fig2b", "fig3"):
        g, madmgs = _first_graphs(name)
        verdict = check_joint(g)
        d = recover_effect(g, {"CX"}, {"CY"})
        for i, madmg in enumerate(madmgs):
            for seed in range(3):
                scm = random_scm(madmg, seed=seed)
                _, manifest = exact_tables(scm)
                gr = Grounding.from_scm(scm, abstract=g)
                entry = {"effect": _cells_digest(lambda: evaluate_all(d.result, manifest, gr))}
                if verdict.recoverable:
                    entry["joint"] = _cells_digest(lambda: evaluate_all(verdict.formula, manifest, gr))
                entry["steps"] = [
                    _cells_digest(lambda: evaluate_all(expr, scm, gr))
                    for step in d.steps
                    for expr in (step.before, step.after)
                ]
                out[f"{name}/{i}/{seed}"] = entry
    return out


def write_golden_eval():
    """The hashes beside the numpy version they were made with: the bytes
    of a sum depend on numpy's reduction order."""
    doc = {"numpy": np.__version__, "hashes": golden_eval_hashes()}
    GOLDEN_EVAL.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def test_evaluation_matches_golden_hashes():
    """Every evaluated cell stays the same float, byte for byte."""
    golden = json.loads(GOLDEN_EVAL.read_text())
    assert golden_eval_hashes() == golden["hashes"], (
        f"hashes recorded under numpy {golden['numpy']}, running numpy {np.__version__}"
    )


GOLDEN_PAIRS = Path(__file__).with_name("golden_pairs.json")


def _pair_digest(witness):
    """sha256 of ``equal_manifest_pair(witness, seed=0)``: each node's name,
    parents and raw CPT bytes of both SCMs, or the class and message of the
    error it raised."""
    try:
        pair = equal_manifest_pair(witness, seed=0)
    except McdmgError as exc:
        return f"{type(exc).__name__}: {exc}"
    h = hashlib.sha256()
    for scm in pair:
        for n in scm.nodes:
            h.update(repr((n.name, n.parents)).encode() + n.cpt.tobytes())
    return h.hexdigest()


# The motifs `equal_manifest_pair` realizes, each the first violation's
# path on a cm-c-dmg whose indicator R_CX is joined to CX through it.
MOTIF = (
    'graph "motif" class=cm-c-dmg {{\n'
    "  cluster CX {{ vars X1 }}\n"
    "  cluster CZ {{ vars Z1 }}\n"
    "  cluster CW {{ vars W1 }}\n"
    "  rvar R_CX for CX\n"
    "  edge CX -> CW\n"
    "{edges}"
    "}}\n"
)
MOTIF_PATHS = {
    "neighbor-out": "CX -> R_CX",
    "neighbor-latent": "CX <-> R_CX",
    "neighbor-in": "CX <- R_CX",
    "collider-latent-latent": "CX <-> CZ <-> R_CX",
    "collider-direct-direct": "CX -> CZ <- R_CX",
    "collider-latent-direct": "CX <-> CZ <- R_CX",
    "collider-direct-latent": "CX -> CZ <-> R_CX",
}


def motif_graph(path):
    """The motif graph with one edge per step of ``path``."""
    tokens = path.split()
    edges = [
        f"  edge {b} -> {a}\n" if sym == "<-" else f"  edge {a} {sym} {b}\n"
        for a, sym, b in zip(tokens[::2], tokens[1::2], tokens[2::2])
    ]
    return parse_graph(MOTIF.format(edges="".join(edges)))


def golden_pair_hashes(random_graphs=100, seed=20261018, out_graphs=100, out_seed=11):
    """sha256 of the counterexample pair of fig3's witness, of the seven
    motifs, and of the first-violation witness of every non-recoverable graph
    among ``random_graphs`` of ``random_cluster_text`` from
    ``random.Random(seed)`` and ``out_graphs`` of ``indicator_out_text`` from
    ``random.Random(out_seed)``: pairs, `PositivityError`s and
    `UnknownVertex`es. Regenerate ``golden_pairs.json`` only for a stated
    change of the pairs' bytes:
    ``PYTHONPATH=src:tests python -c "import test_oracle as t; t.write_golden_pairs()"``.
    """
    fig3 = parse_graph(fixture_text("fig3"))
    graphs = {"fig3": fig3}
    for name, path in MOTIF_PATHS.items():
        graphs[f"motif/{name}"] = motif_graph(path)
    for prefix, text, n, rng in (
        ("random", random_cluster_text, random_graphs, random.Random(seed)),
        ("rout", indicator_out_text, out_graphs, random.Random(out_seed)),
    ):
        for i in range(n):
            g = parse_graph(text(rng))
            if g.graph_class is not GraphClass.CDMG:
                graphs[f"{prefix}/{i}"] = g
    out = {}
    for name, g in graphs.items():
        verdict = check_joint(g)
        if not verdict.recoverable:
            out[name] = _pair_digest(construct_witness(g, verdict.violations[0]))
    return out


def write_golden_pairs():
    GOLDEN_PAIRS.write_text(json.dumps(golden_pair_hashes(), indent=1, sort_keys=True) + "\n")


def test_counterexample_pairs_match_golden_hashes():
    """Every counterexample pair stays byte for byte, and every failure
    keeps its class and message."""
    got = golden_pair_hashes()
    assert got == json.loads(GOLDEN_PAIRS.read_text())
    outcomes = {v.split(":")[0] if ":" in v else "pair" for v in got.values()}
    assert outcomes == {"pair", "PositivityError", "UnknownVertex"}


def test_pair_coverage_on_the_400_graph_sweeps():
    """At least 137 of the 157 first-violation witnesses of 400
    `random_cluster_text` graphs get a pair, and at least 344 of the 348 of
    400 `indicator_out_text` graphs: a lost pair fails here, while the
    golden file pins only the first 100 graphs of each generator."""
    for text, seed, least in ((random_cluster_text, 20261018, 137), (indicator_out_text, 11, 344)):
        rng, pairs = random.Random(seed), 0
        for _ in range(400):
            g = parse_graph(text(rng))
            violations = () if g.graph_class is GraphClass.CDMG else check_joint(g).violations
            if not violations:
                continue
            try:
                equal_manifest_pair(construct_witness(g, violations[0]), seed=0)
            except (PositivityError, UnknownVertex):
                continue
            pairs += 1
        assert pairs >= least, text.__name__


def test_cpt_rows_normalized():
    g = mk(MAR_SRC)
    scm = random_scm(g, seed=1)
    for node in scm.nodes:
        rows = node.cpt.reshape(-1, node.card)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)
        assert rows.min() >= 1e-3 - 1e-15


def test_domain_guard():
    names = "\n".join(f"  var V{i}" for i in range(25))
    g = mk(f'graph "big" class=admg {{\n{names}\n}}\n')
    with pytest.raises(DomainTooLarge):
        random_scm(g, seed=0)


def test_domain_guard_counts_the_manifest():
    """Ten masked binary variables: the full array has 2^20 cells, within the
    budget, but the manifest has (3 * 2)^10 = 6^10 (about 6.0e7)."""
    lines = [f"  var V{i}\n  rvar R_V{i} for V{i}" for i in range(10)]
    g = mk('graph "masked" class=m-admg {\n' + "\n".join(lines) + "\n}\n")
    with pytest.raises(DomainTooLarge, match="manifest"):
        random_scm(g, seed=0)


def test_do_tables_count_against_the_budget():
    """20 binary variables fill the budget exactly, and a do-table has the
    joint's cells, so do on two of them fits. 21 variables (an SCM that
    `random_scm` would refuse) exceed it: the do-table is refused before
    anything is built."""
    names = "\n".join(f"  var V{i}" for i in range(20))
    scm = random_scm(mk(f'graph "full" class=admg {{\n{names}\n}}\n'), seed=0)
    table = interventional_table(scm, {"V0": 0, "V1": 1})
    assert table.probs.size == MAX_STATES
    assert table.probs[0, 1].sum() == pytest.approx(1.0) and not table.probs[1].any()
    names = [f"V{i}" for i in range(21)]
    graph = mk('graph "over" class=admg {\n' + "".join(f"  var {v}\n" for v in names) + "}\n")
    over = scm_from_cpts(graph, {v: ((), np.array([0.5, 0.5])) for v in names})
    with pytest.raises(DomainTooLarge, match="do-table"):
        interventional_table(over, {"V0": 0, "V1": 1})
    assert not any(isinstance(k, tuple) and k[0] == "do" for k in over._cache)


def test_the_manifest_counts_against_the_budget(monkeypatch):
    """Nine masked binary variables that `scm_from_cpts` accepts: the joint
    has 2^18 cells, the manifest 6^9 (about 1.0e7). `exact_tables` refuses
    it, with `random_scm`'s message, before any manifest array is
    allocated."""
    lines = [f"  var V{i}\n  rvar R_V{i} for V{i}" for i in range(9)]
    g = mk('graph "masked" class=m-admg {\n' + "\n".join(lines) + "\n}\n")
    with pytest.raises(DomainTooLarge, match=f"manifest table exceeds {MAX_STATES} cells"):
        random_scm(g, seed=0)
    scm = scm_from_cpts(g, {n: ((), np.array([0.5, 0.5])) for n in g.variables + g.indicators})
    joint = _do_table(scm)  # 2^18 cells, within the budget

    def no_arrays(*args, **kwargs):
        raise AssertionError("an array allocated for a refused manifest")

    monkeypatch.setattr(np, "zeros", no_arrays)
    with pytest.raises(DomainTooLarge, match=f"manifest table exceeds {MAX_STATES} cells"):
        exact_tables(scm)
    assert joint.probs.size == 1 << 18 and "manifest" not in scm._cache


# A cm-c-dmg whose first compatible m-ADMG (Budget(2, 16)) has 6 latents and
# 2^21 node cells, but no latent join above 2^13 cells.
WIDE_LATENT_GRAPH = """\
graph "rnd130" class=cm-c-dmg {
  cluster CJ { vars J1 }
  cluster CH { vars H1, H2 }
  cluster CN { vars N1, N2 }
  cluster CF { vars F1, F2 }
  cluster CK { vars K1, K2 }
  rvar R_CN for CN
  edge CJ -> R_CN
  edge CH <-> CJ
  edge CK -> CK
  edge CF -> CF
  edge CH <-> CN
  edge CJ <-> CN
  edge CK <-> CJ
  edge CH -> CH
  edge CF <-> CJ
  edge CH <-> CF
  edge CF -> CJ
}
"""


def test_budget_counts_joins_not_the_node_space():
    """The dense product over all nodes would have 2^21 cells, beyond the
    budget; the elimination never allocates it, and the formula checks."""
    g = mk(WIDE_LATENT_GRAPH)
    madmg = next(iter(enumerate_compatible(g, budget=Budget(2, 16))))
    scm = random_scm(madmg, seed=0)
    assert math.prod(n.card for n in scm.nodes) > MAX_STATES
    want = _extended(scm, {}).marginal(_do_table(scm).variables).probs
    assert np.max(np.abs(_do_table(scm).probs - want)) <= 1e-12
    _, errors = check(check_joint(g).formula, scm, Grounding.from_scm(scm, abstract=g))
    assert errors and max(errors.values()) <= 1e-9


def test_wide_cpt_refused_before_drawing(monkeypatch):
    """V0 with 11 bidirected edges: its CPT alone has 2 * 4^11 cells, and the
    join at its first latent 4^11 * 2^2. Refused before any CPT exists."""
    lines = [f"  var V{i}" for i in range(12)] + [f"  edge V0 <-> V{i}" for i in range(1, 12)]
    g = mk('graph "wide" class=admg {\n' + "\n".join(lines) + "\n}\n")

    def no_draws(*args, **kwargs):
        raise AssertionError("CPTs drawn for a refused graph")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(DomainTooLarge, match="latent join"):
        random_scm(g, seed=0)
    with pytest.raises(DomainTooLarge, match="latent join"):
        _fillers(g, "V0")


def test_one_elimination_plan_per_scm(monkeypatch):
    """One plan per structure: the first SCM of a graph plans the joint's
    elimination once, over the mechanisms in the order the joint multiplies
    them, and a second seed of the same graph plans nothing. The joint is
    the bytes of one planned afresh."""
    calls = []
    elimination = oracle._elimination

    def counted(*args):
        calls.append(args)
        return elimination(*args)

    monkeypatch.setattr(oracle, "_elimination", counted)
    monkeypatch.setattr(oracle, "_STRUCTURES", weakref.WeakKeyDictionary())
    madmgs = _first_graphs("fig2b")[1] + _first_graphs("fig3")[1]
    madmgs += (next(iter(enumerate_compatible(mk(WIDE_LATENT_GRAPH), budget=Budget(2, 16)))),)
    for madmg in madmgs:
        calls.clear()
        scm = random_scm(madmg, seed=5)
        exact_tables(scm)
        assert len(calls) == 1
        calls.clear()
        exact_tables(random_scm(madmg, seed=6))
        assert not calls
    for madmg in madmgs:
        scm = random_scm(madmg, seed=5)
        monkeypatch.setattr(oracle, "_STRUCTURES", weakref.WeakKeyDictionary())
        fresh = DiscreteSCM(madmg, scm.nodes, scm.latents, scm.seed)
        assert np.array_equal(_do_table(fresh).probs, _do_table(scm).probs)
        assert fresh.structure is not scm.structure
    assert max(len(m.bidirected) for m in madmgs) > 1  # the plan's order matters


def _fingerprint(name, graph, seed):
    """Every exact table and compiled cell of one SCM, as sha256 hex: the
    CPTs, joint, manifest and CX do-table bytes, the CX -> CY formula (and
    fig2b's joint formula) on the manifest, each step's before and after on
    the SCM, and ``check``'s errors."""
    g, madmgs = _first_graphs(name)
    scm = random_scm(madmgs[graph], seed=seed)
    joint, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, abstract=g)
    cx = tuple(sorted(madmgs[graph].clustering.members("CX")))
    tables = [n.cpt for n in scm.nodes] + [joint.probs, manifest.probs, _do_table(scm, cx).probs]
    d = recover_effect(g, {"CX"}, {"CY"})
    exprs = [(d.result, manifest)] + [(x, scm) for step in d.steps for x in (step.before, step.after)]
    verdict = check_joint(g)
    if verdict.recoverable:
        exprs.append((verdict.formula, manifest))
    return {
        "tables": [hashlib.sha256(t.tobytes()).hexdigest() for t in tables],
        "cells": [_cells_digest(lambda: evaluate_all(x, src, gr)) for x, src in exprs],
        "check": _cells_digest(lambda: check(d.result, scm, gr, ("CX", "CY"))),
    }


def test_structures_leak_no_numbers_between_scms():
    """Graphs and seeds interleaved (A0, B0, A1, A0) in one process, sharing
    structures and plans: each SCM's bytes are those of the same SCM built
    and evaluated alone in a fresh interpreter."""
    order = [("fig2b", 0, 0), ("fig3", 1, 0), ("fig2b", 0, 1), ("fig2b", 0, 0)]
    here = [_fingerprint(*case) for case in order]
    assert here[0] == here[3] and here[0] != here[2]
    src = Path(oracle.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join((str(src), str(Path(__file__).parent)))}
    for case, got in zip(order[:3], here):
        script = f"import json, test_oracle as t; print(json.dumps(t._fingerprint{case!r}))"
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == got, case


def test_structures_go_with_their_graph():
    """A graph owns its structures weakly: once the graph and its SCMs are
    gone, so is the structure; plans do not hold it."""
    g = mk(MAR_SRC.replace('"mar"', '"mar-dropped"'))
    scm = random_scm(g, seed=0)
    clustering = Clustering.from_dict({"CZ": ["Z"], "CX": ["X"]})
    gr = Grounding(clustering, {"Z": 2, "X": 2}, {"X": "R_X"}, {"X": "X*"})
    evaluate_all(term([val("CZ")], do=[val("CX")]), scm, gr)
    structure = weakref.ref(scm.structure)
    assert g in oracle._STRUCTURES
    del g, scm
    gc.collect()
    assert structure() is None


def test_caches_keep_to_their_bounds(monkeypatch):
    """Plans, do-set plans and structures per graph stay within their
    bounds, least recently used (plans) or oldest (the others) dropped
    first, and what is dropped is rebuilt the same."""
    monkeypatch.setattr(oracle, "PLANS_KEPT", 3)
    monkeypatch.setattr(oracle, "DO_PLANS_KEPT", 2)
    monkeypatch.setattr(oracle, "STRUCTURES_PER_GRAPH", 2)
    monkeypatch.setattr(oracle, "_PLANS", collections.OrderedDict())
    g, madmgs = _first_graphs("fig2b")
    scm = random_scm(madmgs[0], seed=3)
    gr = Grounding.from_scm(scm, abstract=g)
    exprs = [term([val(c)]) for c in ("CX", "CY", "CZ")] + [term([val("CX"), val("CY")])]
    first = [evaluate_all(x, scm, gr) for x in exprs]
    assert len(oracle._PLANS) == 3
    again = evaluate_all(exprs[0], random_scm(madmgs[0], seed=3), gr)
    assert again == first[0] and len(oracle._PLANS) == 3
    for do_vars in (("X1",), ("X2",), ("Y1",)):
        _do_table(scm, do_vars)
    assert list(scm.structure.do_plans) == [("X2",), ("Y1",)]
    for k in range(3):  # a different card of the first node makes another structure
        cpts = {n.name: (n.parents, n.cpt) for n in scm.nodes}
        first = scm.nodes[0]
        cpts[first.name] = (first.parents, np.full(first.cpt.shape[:-1] + (k + 3,), 1.0 / (k + 3)))
        scm_from_cpts(madmgs[0], cpts, seed=k)
        assert len(oracle._structures_of(madmgs[0])) <= 2
    rebuilt = random_scm(madmgs[0], seed=3)
    assert all(np.array_equal(a.cpt, b.cpt) for a, b in zip(rebuilt.nodes, scm.nodes))


def test_budget_refused_before_the_cycle_error():
    """A cyclic variable-level graph (only buildable without validation) is
    refused by the budget first, and otherwise by its cycle."""
    def cyclic(n, bidirected):
        verts = [Vertex(f"V{i}", Kind.VARIABLE) for i in range(n)]
        return MixedGraph.build("cyc", GraphClass.ADMG, verts, [("V0", "V1"), ("V1", "V0")], bidirected)

    with pytest.raises(UnknownVertex, match="directed cycle"):
        random_scm(cyclic(2, ()), seed=0)
    with pytest.raises(DomainTooLarge, match="latent join"):
        random_scm(cyclic(12, [("V0", f"V{i}") for i in range(1, 12)]), seed=0)


def _fig3_scm():
    _, madmgs = _first_graphs("fig3")
    return random_scm(madmgs[0], seed=0)


@pytest.mark.parametrize(
    "read, error",
    [
        (lambda: exact_tables(random_scm(mk(MCAR_SRC)))[0].prob({"X": -1}), EvaluationError),
        (lambda: exact_tables(random_scm(mk(MCAR_SRC)))[0].prob({"X": 2}), EvaluationError),
        (lambda: exact_tables(random_scm(mk(MCAR_SRC)))[1].prob({"X*": 3}), EvaluationError),
        (lambda: exact_tables(random_scm(mk(MCAR_SRC)))[0].prob({"Q": 0}), UnknownVertex),
        (lambda: interventional_table(_fig3_scm(), {"X1": -1, "X2": -1}), EvaluationError),
        (lambda: interventional_table(_fig3_scm(), {"X1": 2, "X2": 0}), EvaluationError),
        (lambda: interventional_table(_fig3_scm(), {"Q": 0}), UnknownVertex),
        (lambda: interventional_table(_fig3_scm(), {_fig3_scm().latents[0]: 0}), UnknownVertex),
    ],
    ids=[
        "prob-negative-level",
        "prob-level-at-card",
        "prob-proxy-beyond-na",
        "prob-unknown-column",
        "do-negative-levels",
        "do-level-at-card",
        "do-unknown-node",
        "do-latent",
    ],
)
def test_out_of_domain_reads_raise(read, error):
    with pytest.raises(error):
        read()


def _fig1a_scm():
    return random_scm(parse_graph(fixture_text("fig1a")), seed=0)


@pytest.mark.parametrize("level", [1.0, True, np.float64(1.0), np.int64(1)], ids=repr)
def test_table_reads_take_a_level_equal_to_an_integer(level):
    """`prob` and `interventional_table` follow `evaluate`'s level rule: a
    value equal to 1 reads level 1."""
    scm = _fig1a_scm()
    joint, _ = exact_tables(scm)
    assert joint.prob({"X1": level}) == joint.prob({"X1": 1})
    got = interventional_table(scm, {"X1": level})
    assert got.probs.tobytes() == interventional_table(scm, {"X1": 1}).probs.tobytes()


@pytest.mark.parametrize("level", [1.5, "1", None, float("nan")], ids=repr)
def test_table_reads_refuse_a_level_that_is_not_an_integer(level):
    scm = _fig1a_scm()
    with pytest.raises(EvaluationError, match="X1 = .* is not an integer level"):
        exact_tables(scm)[0].prob({"X1": level})
    with pytest.raises(EvaluationError, match="X1 = .* is not an integer level"):
        interventional_table(scm, {"X1": level})


def test_a_column_read_twice_raises():
    """Marginals and term reads refuse a repeated column alike."""
    joint, _ = exact_tables(_fig1a_scm())
    with pytest.raises(EvaluationError, match="column 'X1' is read twice"):
        joint.marginal(("X1", "X1"))
    with pytest.raises(EvaluationError, match="column 'X1' is read twice"):
        joint.read(("X1", "Y1", "X1"), (None, 0, range(1)))


_MISSHAPEN_TABLES = """
import numpy as np
from mcdmg import DistTable
from mcdmg.errors import ValidationError
for case in [
    (("a", "b"), (3, 2), np.full((2, 2), 0.25)),
    (("a",), (2, 2), np.full((2, 2), 0.25)),
    (("a", "b"), (2,), np.full(2, 0.5)),
    (("a",), (2,), [0.5, 0.5]),
    (("a",), (2,), (0.5, 0.5)),
]:
    try:
        DistTable(*case)
    except ValidationError as exc:
        print(exc)
    else:
        print("accepted", case[:2])
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_a_misshapen_table_is_refused(flags):
    """Columns, cards and the probs shape must agree, and probs without a
    shape is refused; the check is no ``assert``, so ``python -O`` keeps it."""
    env = {**os.environ, "PYTHONPATH": str(Path(oracle.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, *flags, "-c", _MISSHAPEN_TABLES], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines == [
        "columns ('a', 'b'), cards (3, 2) and shape (2, 2) disagree",
        "columns ('a',), cards (2, 2) and shape (2, 2) disagree",
        "columns ('a', 'b'), cards (2,) and shape (2,) disagree",
        "probs must be an array, not a list",
        "probs must be an array, not a tuple",
    ]


def test_tables_and_scms_compare_their_arrays_by_value():
    """Tables and SCMs built apart from equal arrays are equal, and other
    numbers make them unequal; as they hold arrays, neither is hashable."""
    table = DistTable(("a",), (2,), np.array([0.5, 0.5]))
    assert table == DistTable(("a",), (2,), np.array([0.5, 0.5]))
    assert table != DistTable(("a",), (2,), np.array([0.25, 0.75]))
    assert table != DistTable(("b",), (2,), np.array([0.5, 0.5]))
    g = mk(MAR_SRC)
    one, again, two = random_scm(g, 1), random_scm(g, 1), random_scm(g, 2)
    assert one is not again and one == again and not one != again
    assert one != two
    assert one != DiscreteSCM(one.madmg, two.nodes, one.latents, one.seed)
    for value in (table, one):
        with pytest.raises(TypeError):
            hash(value)


def test_a_table_keeps_an_array_of_any_dtype():
    exact = np.array([Fraction(1, 2)] * 2, dtype=object)
    assert DistTable(("a",), (2,), exact).probs is exact


@st.composite
def _tables_and_reads(draw):
    """A random table (2-8 columns, cards 2-4, some of them proxies with an
    extra NA level) and a read of it: some of its columns in any order, each
    pinned at a level, sliced to a range (a proxy often to its levels
    without NA) or read whole."""
    n = draw(st.integers(2, 8))
    base = draw(st.lists(st.integers(2, 4), min_size=n, max_size=n))
    na = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    names = tuple(f"V{i}" for i in range(n))
    cards = tuple(k + extra for k, extra in zip(base, na))
    probs = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random(cards)
    cols = draw(st.permutations(names))[: draw(st.integers(1, n))]
    index = []
    for c in cols:
        i = names.index(c)
        k = cards[i]
        ranges = st.integers(0, k - 1).flatmap(
            lambda a, k=k: st.builds(range, st.just(a), st.integers(a + 1, k))
        )
        index.append(draw(st.none() | st.integers(0, k - 1) | ranges | st.just(range(base[i]))))
    return DistTable(names, cards, probs), tuple(cols), tuple(index)


@settings(max_examples=200, deadline=None)
@given(_tables_and_reads())
def test_term_reads_match_the_reference_read(case):
    """Pinning and slicing before the sum reads what the marginal, summed
    first and indexed afterwards, reads: within 1e-13, and bit for bit when
    the read pins and slices nothing. The marginal stays the whole table's
    sum over the dropped axes, bit for bit."""
    table, cols, index = case
    want = reference_read(table, cols, index)
    got = table.read(cols, index)
    assert got.shape == want.shape
    whole = all(i is None or i == range(table.cards[table.variables.index(c)]) for c, i in zip(cols, index))
    if whole:
        assert got.tobytes() == want.tobytes()
    else:
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0)
    drop = tuple(a for a, v in enumerate(table.variables) if v not in cols)
    kept = [v for v in table.variables if v in cols]
    summed = table.probs.sum(axis=drop) if drop else table.probs
    assert table.marginal(cols).probs.tobytes() == np.ascontiguousarray(
        np.transpose(summed, [kept.index(c) for c in cols])
    ).tobytes()


TERNARY_MASK_SRC = (
    'graph "ternary" class=m-admg {\n'
    "  var Z\n  var X\n  var Y\n  rvar R_X for X\n  rvar R_Y for Y\n"
    "  edge Z -> X\n  edge X -> Y\n  edge Y -> R_X\n  edge Z -> R_Y\n  edge X <-> Z\n}\n"
)
UNMASKED_ADMG_SRC = (
    'graph "plain" class=admg {\n'
    "  var A\n  var B\n  var C\n  var D\n  edge A -> B\n  edge B -> C\n  edge A <-> D\n  edge D -> C\n}\n"
)


def _dyadic(rng, shape):
    """A CPT of the given shape whose entries are multiples of 1/8."""
    eighths = rng.multinomial(8, [1 / shape[-1]] * shape[-1], size=shape[:-1])
    return eighths / 8.0


@st.composite
def _manifest_models(draw):
    """A random SCM and a dyadic one (every CPT entry a multiple of 1/8) on
    the same mechanisms: on a member of a `random_cluster_text` graph, on an
    m-ADMG whose masked X is ternary (its indicator ternary too, or not)
    and whose latent U is explicit, or on an ADMG with no mask."""
    kind = draw(st.sampled_from(["member", "ternary", "unmasked"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind == "ternary":
        g = mk(TERNARY_MASK_SRC)
        cards = {"U": 2, "Z": 2, "X": 3, "Y": 2, "R_X": draw(st.sampled_from([2, 3])), "R_Y": 2}
        parents = {"U": (), "Z": ("U",), "X": ("U", "Z"), "Y": ("X",), "R_X": ("Y",), "R_Y": ("Z",)}
        shapes = {n: (ps, tuple(cards[p] for p in ps) + (cards[n],)) for n, ps in parents.items()}
        real = scm_from_cpts(g, {n: (ps, rng.dirichlet(np.ones(k[-1]), size=k[:-1])) for n, (ps, k) in shapes.items()})
    else:
        if kind == "member":
            g = parse_graph(random_cluster_text(random.Random(draw(st.integers(0, 2**32 - 1)))))
            try:
                members = list(itertools.islice(enumerate_compatible(g, budget=Budget(2, 8)), 4))
            except McdmgError:
                assume(False)
            g = members[draw(st.integers(0, len(members) - 1))]
        else:
            g = mk(UNMASKED_ADMG_SRC)
        real = random_scm(g, seed=draw(st.integers(0, 1000)))
        shapes = {n.name: (n.parents, n.cpt.shape) for n in real.nodes}
    return real, scm_from_cpts(g, {n: (ps, _dyadic(rng, k)) for n, (ps, k) in shapes.items()})


@settings(max_examples=150, deadline=None)
@given(_manifest_models())
def test_manifest_matches_reference_build(models):
    """The one scatter-add builds the pin-by-pin manifest. On dyadic CPTs,
    whose sums are exact in any order, bit for bit, and on the same joint
    held as `Fraction`s in an object-dtype manifest equal to it. On the
    random SCM bit for bit where at most one proxy is NA (those cells sum
    their joint cells in the same order), and within a relative 1e-15
    where more are."""
    real, dyadic = models
    for scm in models:
        base = _do_table(scm)
        got, want = oracle._manifest(scm, base), reference_manifest(scm, base)
        assert (got.variables, got.cards, got.probs.dtype) == (want.variables, want.cards, want.probs.dtype)
        assert exact_tables(scm)[1].probs.tobytes() == got.probs.tobytes()
        if scm is dyadic:
            assert got.probs.tobytes() == want.probs.tobytes()
        else:
            proxies = [i for i, c in enumerate(got.variables) if c in scm.madmg.proxy_by_owner.values()]
            cell = np.indices(got.cards)
            missing = sum((cell[i] == got.cards[i] - 1 for i in proxies), np.zeros(got.cards, int))
            assert got.probs[missing <= 1].tobytes() == want.probs[missing <= 1].tobytes()
            np.testing.assert_allclose(got.probs, want.probs, rtol=1e-15, atol=0)
    exact = np.vectorize(Fraction, otypes=[object])(_do_table(dyadic).probs)
    base = DistTable(_do_table(dyadic).variables, exact.shape, exact)
    got = oracle._manifest(dyadic, base)
    assert got.probs.dtype == object and (got.probs == reference_manifest(dyadic, base).probs).all()


def test_the_manifest_map_allocates_no_index_per_column():
    """The first exact tables of a 20-variable binary chain (a joint of 2^20
    cells, 8 MB) peak below 4 times the joint's bytes: the joint, its
    sorted marginal, the int32 cell map and the manifest. An index array
    per column (``np.indices``) would take 160 MB."""
    names = [f"V{i}" for i in range(20)]
    edges = "".join(f"  edge {a} -> {b}\n" for a, b in zip(names, names[1:]))
    g = mk('graph "chain" class=admg {\n' + "".join(f"  var {v}\n" for v in names) + edges + "}\n")
    scm = random_scm(g, seed=0)
    tracemalloc.start()
    try:
        joint, manifest = exact_tables(scm)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert joint.probs.nbytes == 8 << 20 and manifest.probs.size == 1 << 20
    assert peak < 4 * joint.probs.nbytes
    assert scm.structure.manifest_map.dtype == np.int32


def test_fig2b_compatible_graphs_build(fig2b):
    for madmg in itertools.islice(enumerate_compatible(fig2b, budget=Budget(2, 10)), 20):
        _, manifest = exact_tables(random_scm(madmg, seed=0))
        assert abs(manifest.total() - 1.0) < 1e-12


def test_marginal_over_no_columns_is_the_total():
    _, manifest = exact_tables(random_scm(parse_graph(fixture_text("fig1a")), seed=0))
    empty = manifest.marginal(())
    assert (empty.variables, empty.cards, empty.probs.shape) == ((), (), ())
    assert empty.total() == manifest.prob({}) == manifest.total()


def test_tables_conserve_mass():
    g = mk(MAR_SRC)
    scm = random_scm(g, seed=5)
    joint, manifest = exact_tables(scm)
    assert abs(joint.total() - 1.0) < 1e-12
    assert abs(manifest.total() - 1.0) < 1e-12
    # marginalization routes agree
    assert abs(manifest.marginal(("Z",)).probs.sum() - 1.0) < 1e-12


def test_eq1_determinism():
    """Eq. 1 on the manifest: X* = X where R_X = 0, and X* = NA where R_X = 1.

    The manifest's cells are compared with P(z, x, r) = P(z) P(x | z) P(r | z)
    multiplied out from the CPTs of Z -> X, Z -> R_X.
    """
    g = mk(MAR_SRC)
    scm = random_scm(g, seed=5)
    _, manifest = exact_tables(scm)
    node_map = {n.name: n for n in scm.nodes}
    p_z, p_x, p_r = (node_map[n].cpt for n in ("Z", "X", "R_X"))
    m = manifest.marginal(("Z", "X*", "R_X")).probs
    na = 2
    for z in range(2):
        for x in range(2):
            assert m[z, x, 0] == pytest.approx(p_z[z] * p_x[z, x] * p_r[z, 0], abs=1e-15)
            assert m[z, x, 1] == 0.0  # no mass at X* = x, R_X = 1
        assert m[z, na, 0] == 0.0  # no mass at X* = NA, R_X = 0
        assert m[z, na, 1] == pytest.approx(p_z[z] * p_r[z, 1], abs=1e-15)


def test_mcar_identity():
    g = mk(MCAR_SRC)
    for seed in range(20):
        scm = random_scm(g, seed=seed)
        joint, manifest = exact_tables(scm)
        for x in range(2):
            for y in range(2):
                full = joint.prob({"X": x, "Y": y})
                cc = manifest.prob({"X*": x, "Y": y, "R_X": 0}) / manifest.prob(
                    {"R_X": 0}
                )
                assert abs(full - cc) <= 1e-9


def test_mar_identity():
    g = mk(MAR_SRC)
    for seed in range(20):
        scm = random_scm(g, seed=seed)
        joint, manifest = exact_tables(scm)
        for z in range(2):
            for x in range(2):
                want = joint.prob({"X": x, "Z": z}) / joint.prob({"Z": z})
                got = manifest.prob({"X*": x, "Z": z, "R_X": 0}) / manifest.prob(
                    {"Z": z, "R_X": 0}
                )
                assert abs(want - got) <= 1e-9


def self_masking_scm():
    g = mk(SELFMASK_SRC)
    cpts = {
        "X": ((), np.array([0.5, 0.5])),
        "R_X": (("X",), np.array([[0.9, 0.1], [0.2, 0.8]])),
    }
    return g, scm_from_cpts(g, cpts)


def test_self_masking_bias():
    g, scm = self_masking_scm()
    joint, manifest = exact_tables(scm)
    listwise = manifest.prob({"X*": 1, "R_X": 0}) / manifest.prob({"R_X": 0})
    truth = joint.prob({"X": 1})
    assert abs(listwise - truth) >= 1e-2


def test_interventional_no_edges():
    g = mk('graph "two" class=admg {\n  var A\n  var B\n}\n')
    scm = random_scm(g, seed=2)
    t = interventional_table(scm, {"A": 1})
    joint, _ = exact_tables(scm)
    for b in range(2):
        assert abs(t.prob({"B": b}) - joint.prob({"B": b})) < 1e-12


def test_interventional_chain_matches_conditional():
    g = mk('graph "chain" class=admg {\n  var X\n  var Y\n  edge X -> Y\n}\n')
    scm = random_scm(g, seed=3)
    joint, _ = exact_tables(scm)
    t = interventional_table(scm, {"X": 1})
    for y in range(2):
        cond = joint.prob({"X": 1, "Y": y}) / joint.prob({"X": 1})
        assert abs(t.prob({"Y": y}) - cond) < 1e-12


def test_partial_cluster_assignment(fig2b):
    madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
    scm = random_scm(madmg, seed=0)
    members = madmg.clustering.members("CX")
    with pytest.raises(PartialClusterAssignment):
        interventional_table(scm, {members[0]: 1})


def test_evaluate_marginal():
    g = mk('graph "one" class=admg {\n  var A\n}\n')
    scm = random_scm(g, seed=9)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, Clustering.from_dict({"CA": ["A"]}))
    p = evaluate(term([val("CA")]), manifest, gr, {val("CA"): (1,)})
    joint, _ = exact_tables(scm)
    assert abs(p - joint.prob({"A": 1})) < 1e-12


def test_evaluate_rejects_masked_true_symbol(fig2b):
    madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
    scm = random_scm(madmg, seed=0)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, abstract=fig2b)
    with pytest.raises(EvaluationError):
        evaluate(term([val("CX")]), manifest, gr, {val("CX"): (0, 0)})


def test_evaluate_rejects_do_terms(fig2b):
    madmg = next(iter(enumerate_compatible(fig2b, budget=Budget(2, 9))))
    scm = random_scm(madmg, seed=0)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, abstract=fig2b)
    e = term([val("CZ")], do=[val("CX")])
    with pytest.raises(EvaluationError):
        evaluate(e, manifest, gr, {val("CZ"): (0, 0), val("CX"): (0, 0)})


def test_positivity_error():
    g = mk('graph "z" class=admg {\n  var A\n  var B\n}\n')
    cpts = {
        "A": ((), np.array([1.0, 0.0])),
        "B": ((), np.array([0.5, 0.5])),
    }
    scm = scm_from_cpts(g, cpts)
    _, manifest = exact_tables(scm)
    gr = Grounding.from_scm(scm, Clustering.from_dict({"CA": ["A"], "CB": ["B"]}))
    with pytest.raises(PositivityError):
        evaluate(
            term([val("CB")], cond=[val("CA")]),
            manifest,
            gr,
            {val("CB"): (0,), val("CA"): (1,)},
        )


def test_theorem_formula_on_mcar_manifest():
    src = (
        'graph "m1" class=cm-c-dmg {\n'
        "  cluster CX { vars X1 }\n  cluster CY { vars Y1 }\n"
        "  rvar R_CX for CX\n  edge CX -> CY\n"
        "}\n"
    )
    abstract = mk(src)
    verdict = check_joint(abstract)
    assert verdict.recoverable
    for madmg in itertools.islice(enumerate_compatible(abstract, budget=Budget(1, 4)), 3):
        for seed in range(10):
            scm = random_scm(madmg, seed=seed)
            _, errors = check(verdict.formula, scm, Grounding.from_scm(scm, abstract=abstract))
            assert errors and max(errors.values()) <= 1e-9


def test_fig3_effect_formula_equals_interventional(fig3):
    d = recover_effect(fig3, {"CX"}, {"CY"})
    witness = construct_witness(fig3, check_joint(fig3).violations[0])
    scm = random_scm(witness, seed=4)
    gr = Grounding.from_scm(scm, abstract=fig3)
    atoms, errors = check(d.result, scm, gr, effect=("CX", "CY"))
    assert atoms == (proxy("CY"), val("CX"))
    assert errors and max(errors.values()) <= 1e-9


def test_interventional_evaluator_matches_tables(fig3):
    witness = construct_witness(fig3, check_joint(fig3).violations[0])
    scm = random_scm(witness, seed=8)
    gr = Grounding.from_scm(scm, abstract=fig3)
    e = term([val("CY")], do=[val("CX")])
    env = {val("CY"): (1, 0), val("CX"): (0, 1)}
    got = evaluate_interventional(e, scm, gr, env)
    t = interventional_table(scm, dict(zip(gr.members("CX"), (0, 1))), gr.clustering)
    want = t.prob(dict(zip(gr.members("CY"), (1, 0))))
    assert abs(got - want) < 1e-12


def test_evaluate_all_on_an_scm_is_interventional(fig3):
    """The source's type decides the semantics: on an SCM, every cell of
    `evaluate_all` is the `evaluate_interventional` value, do-terms included."""
    witness = construct_witness(fig3, check_joint(fig3).violations[0])
    scm = random_scm(witness, seed=8)
    gr = Grounding.from_scm(scm, abstract=fig3)
    e = term([val("CY")], do=[val("CX")])
    atoms, cells = evaluate_all(e, scm, gr)
    assert sorted(atoms) == [val("CX"), val("CY")]
    assert len(cells) == len(gr.domain("CX")) * len(gr.domain("CY"))
    for values, got in cells.items():
        want = evaluate_interventional(e, scm, gr, dict(zip(atoms, values)))
        assert abs(got - want) < 1e-12


def _assert_pair(s1, s2):
    """Equal manifests, joints at least 1e-2 apart, and manifests strictly
    positive over complete cases (R=0, proxies at non-NA levels)."""
    j1, m1 = exact_tables(s1)
    j2, m2 = exact_tables(s2)
    assert float(np.max(np.abs(m1.probs - m2.probs))) <= 1e-9
    assert float(np.max(np.abs(j1.probs - j2.probs))) >= 1e-2
    for m, scm in ((m1, s1), (m2, s2)):
        proxies = {scm.proxy_name(v): scm.card(v) for v in scm.variables if scm.masked(v)}
        idx = []
        for name, card in zip(m.variables, m.cards):
            if name in scm.indicators:
                idx.append(0)
            elif name in proxies:
                idx.append(slice(0, proxies[name]))
            else:
                idx.append(slice(None))
        assert float(m.probs[tuple(idx)].min()) > 0.0


def test_equal_manifest_pair(fig3):
    witness = construct_witness(fig3, check_joint(fig3).violations[0])
    _assert_pair(*equal_manifest_pair(witness, seed=0))


def test_example2_formula_matches_interventional(fig2b):
    d = recover_effect(fig2b, {"CX"}, {"CY"})
    for madmg in itertools.islice(enumerate_compatible(fig2b, budget=Budget(2, 9)), 3):
        for seed in range(5):
            scm = random_scm(madmg, seed=seed)
            gr = Grounding.from_scm(scm, abstract=fig2b)
            atoms, errors = check(d.result, scm, gr, effect=("CX", "CY"))
            assert atoms == (proxy("CX"), proxy("CY"))
            assert errors and max(errors.values()) <= 1e-9


@pytest.mark.parametrize("name", ["fig1c", "fig2a", "fig3"])
def test_oracle_refuses_cluster_graphs(name):
    """The oracle's SCMs live on (m-)ADMGs: a cluster graph is refused by
    class, before any mechanism or motif is looked for."""
    g = parse_graph(fixture_text(name))
    with pytest.raises(WrongGraphClass, match="variable-level"):
        random_scm(g, seed=0)
    with pytest.raises(WrongGraphClass, match="variable-level"):
        equal_manifest_pair(g, seed=0)


def _fig3_witness():
    fig3 = mk(fixture_text("fig3"))
    return construct_witness(fig3, check_joint(fig3).violations[0])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: enumerate_compatible("fig2b"), WrongGraphClass, "abstract must be a MixedGraph, not str"),
        (lambda: random_scm("fig2b"), WrongGraphClass, "madmg must be a MixedGraph, not str"),
        (lambda: random_scm(None, seed=0), WrongGraphClass, "madmg must be a MixedGraph, not NoneType"),
        (lambda: exact_tables("x"), InvalidSCM, "scm must be a DiscreteSCM, not str"),
        (lambda: Grounding.from_scm("x"), InvalidSCM, "scm must be a DiscreteSCM, not str"),
        (lambda: interventional_table(mk(MCAR_SRC), {"X": 0}), InvalidSCM, "scm must be a DiscreteSCM, not MixedGraph"),
        (
            lambda: interventional_table(random_scm(mk(MCAR_SRC)), [("X", 0)]),
            PreconditionError,
            "do must be a Mapping, not list",
        ),
        (
            lambda: Grounding.from_scm(random_scm(_fig3_witness()), abstract="x"),
            WrongGraphClass,
            "abstract must be a MixedGraph, not str",
        ),
        (lambda: check_joint("fig2b"), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: recover_effect("fig2b", {"CX"}, {"CY"}), WrongGraphClass, "g must be a MixedGraph, not str"),
        (
            lambda: construct_witness("fig3", check_joint(mk(fixture_text("fig3"))).violations[0]),
            WrongGraphClass,
            "g must be a MixedGraph, not str",
        ),
        (
            lambda: construct_witness(mk(fixture_text("fig3")), "x"),
            PreconditionError,
            "violation must be a Violation, not str",
        ),
        (
            lambda: construct_witness(mk(fixture_text("fig2b")), check_joint(mk(fixture_text("fig3"))).violations[0]),
            PreconditionError,
            "violation path CY <-> CZ <-> R_CY: walk step CY <-> CZ is not an edge of the graph",
        ),
        (
            lambda: construct_witness(
                mk(fixture_text("fig3")),
                Violation("CY", "R_CY", "collider_path", Walk(("CY", "CX", "R_CY"), ("->", "->"))),
            ),
            PreconditionError,
            "violation path CY -> CX -> R_CY: walk step CY -> CX is not an edge of the graph",
        ),
        (
            lambda: construct_witness(
                mk(fixture_text("fig3")), Violation("CZ", "R_CY", "neighbor", Walk(("CZ", "R_CY"), ("<->",)))
            ),
            PreconditionError,
            "violation path CZ <-> R_CY is not a path from 'CY' to 'R_CY'",
        ),
        (lambda: markov_blanket("fig2b", "R_CY"), WrongGraphClass, "g must be a MixedGraph, not str"),
        (
            lambda: replay("fig3", Derivation("fig3", term([val("CY")]), ())),
            WrongGraphClass,
            "g must be a MixedGraph, not str",
        ),
        (lambda: replay(mk(fixture_text("fig3")), "x"), PreconditionError, "d must be a Derivation, not str"),
        (
            lambda: rule_applicable("fig2b", "R2", {"CY"}, {"CX"}, (), ()),
            WrongGraphClass,
            "g must be a MixedGraph, not str",
        ),
        (lambda: equal_manifest_pair("x"), WrongGraphClass, "madmg must be a MixedGraph, not str"),
        (lambda: equal_manifest_pair(mk(SELFMASK_SRC), seed=-1), InvalidSeed, "seed must be an integer >= 0, not -1"),
        (lambda: equal_manifest_pair(mk(SELFMASK_SRC), seed="a"), InvalidSeed, "seed must be an integer >= 0, not 'a'"),
        (
            lambda: equal_manifest_pair(mk(SELFMASK_SRC), seed=None),
            InvalidSeed,
            "seed must be an integer >= 0, not None",
        ),
        (lambda: random_scm(mk(MCAR_SRC), seed=-1), InvalidSeed, "seed must be an integer >= 0, not -1"),
        (lambda: random_scm(mk(MCAR_SRC), seed=1.5), InvalidSeed, "seed must be an integer >= 0, not 1.5"),
        (lambda: random_scm(mk(MCAR_SRC), seed=None), InvalidSeed, "seed must be an integer >= 0, not None"),
        (lambda: d_separated("x", {"X"}, {"Y"}, ()), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: active_path("x", {"X"}, {"Y"}, ()), WrongGraphClass, "g must be a MixedGraph, not str"),
        (
            lambda: active_path(mk(fixture_text("fig3")), {"CX"}, {"CY"}, set(), "x"),
            PreconditionError,
            "mutilation must be a MutilationSpec, not str",
        ),
        (lambda: d_separated_by_paths("x", {"X"}, {"Y"}, ()), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: enumerate_paths("x", "X", "Y", 3), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: descendants("x", {"X"}), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: ancestors("x", {"X"}), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: mutilate("x", MutilationSpec()), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: mutilate(mk(fixture_text("fig3")), "x"), PreconditionError, "spec must be a MutilationSpec, not str"),
        (lambda: validate("x"), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: classify_mechanism("x", "R_X"), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: is_compatible("x", mk(fixture_text("fig3"))), WrongGraphClass, "madmg must be a MixedGraph, not str"),
        (lambda: is_compatible(mk(MCAR_SRC), "x"), WrongGraphClass, "abstract must be a MixedGraph, not str"),
        (
            lambda: is_compatible(mk(MCAR_SRC), mk(fixture_text("fig3")), "x"),
            InvalidClustering,
            "clustering must be a Clustering, not str",
        ),
        (
            lambda: project("x", Clustering.from_dict({"CX": ["X"]}), GraphClass.MCDMG),
            WrongGraphClass,
            "madmg must be a MixedGraph, not str",
        ),
        (lambda: merge_indicators("x"), WrongGraphClass, "mcdmg must be a MixedGraph, not str"),
        (lambda: as_cluster_graph("x"), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: emit_json("x"), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: emit_graph("x"), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: emit_dot("x"), WrongGraphClass, "g must be a MixedGraph, not str"),
        (lambda: apply_proxy(term([val("CX")]), "CX", "x"), WrongGraphClass, "g must be a MixedGraph, not str"),
    ],
    ids=[
        "enumerate",
        "random_scm",
        "random_scm-none",
        "exact_tables",
        "from_scm",
        "interventional",
        "interventional-do",
        "from_scm-abstract",
        "check_joint",
        "recover_effect",
        "construct_witness",
        "construct_witness-violation",
        "construct_witness-foreign-violation",
        "construct_witness-violation-not-of-g",
        "construct_witness-violation-ends",
        "markov_blanket",
        "replay",
        "replay-derivation",
        "rule_applicable",
        "pair",
        "pair-seed-negative",
        "pair-seed-str",
        "pair-seed-none",
        "random_scm-seed-negative",
        "random_scm-seed-float",
        "random_scm-seed-none",
        "d_separated",
        "active_path",
        "active_path-mutilation",
        "d_separated_by_paths",
        "enumerate_paths",
        "descendants",
        "ancestors",
        "mutilate",
        "mutilate-spec",
        "validate",
        "classify_mechanism",
        "is_compatible-madmg",
        "is_compatible-abstract",
        "is_compatible-clustering",
        "project",
        "merge_indicators",
        "as_cluster_graph",
        "emit_json",
        "emit_graph",
        "emit_dot",
        "apply_proxy",
    ],
)
def test_ill_typed_graph_and_scm_arguments_are_refused(call, error, message):
    """A graph, SCM or seed argument of the wrong type (or a negative seed)
    raises a package error naming the argument and the value or type it
    got."""
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


MCAR_CPTS = {
    "X": ((), np.array([0.5, 0.5])),
    "Y": (("X",), np.array([[0.9, 0.1], [0.2, 0.8]])),
    "R_X": ((), np.array([0.7, 0.3])),
}


@pytest.mark.parametrize(
    "change, error, node",
    [
        ({"Y": None}, UnknownVertex, "Y"),
        ({"Y": (("X", "Q"), np.full((2, 2, 2), 0.5))}, UnknownVertex, "Q"),
        ({"X*": ((), np.array([0.5, 0.5]))}, UnknownVertex, "X*"),
        ({"Y": (("X",), np.full((3, 2), 0.5))}, ValidationError, "Y"),
        ({"Y": ((), np.full((2, 2), 0.5))}, ValidationError, "Y"),
        ({"X": ((), np.float64(1.0))}, ValidationError, "X"),
    ],
    ids=["missing", "unknown-parent", "proxy", "shape", "extra-axis", "scalar"],
)
def test_scm_from_cpts_refuses_malformed_mechanisms(change, error, node):
    """A malformed mechanism raises a package error naming its node."""
    cpts = {**MCAR_CPTS, **change}
    cpts = {name: mech for name, mech in cpts.items() if mech is not None}
    with pytest.raises(error, match=re.escape(repr(node))):
        scm_from_cpts(mk(MCAR_SRC), cpts)


@pytest.mark.parametrize(
    "change, node",
    [
        ({"X": ((), np.array([0.9, 0.9]))}, "X"),
        ({"R_X": ((), np.array([-0.5, 1.5]))}, "R_X"),
        ({"Y": (("X",), np.array([[0.9, 0.1], [0.2, 0.8 + 1e-8]]))}, "Y"),
        ({"Y": (("X",), np.array([[0.9, 0.1], [np.nan, 0.8]]))}, "Y"),
    ],
    ids=["row-sum", "negative", "row-sum-off-by-1e-8", "nan"],
)
def test_scm_from_cpts_refuses_bad_numbers(change, node):
    """A negative (or NaN) entry, or a row that does not sum to 1 within
    1e-9, raises ValidationError naming its node; 1e-10 off is accepted."""
    with pytest.raises(ValidationError, match=re.escape(repr(node))):
        scm_from_cpts(mk(MCAR_SRC), {**MCAR_CPTS, **change})
    close = np.array([[0.9, 0.1], [0.2, 0.8 + 1e-10]])
    scm_from_cpts(mk(MCAR_SRC), {**MCAR_CPTS, "Y": (("X",), close)})


def test_compiled_arrays_count_against_the_budget(monkeypatch):
    """Three clusters of 1,024 cells each: a scope over all three, and the
    innermost body of sum_a sum_b sum_c P(a) P(b) P(c), would be 2^30-cell
    arrays. Each plan is refused before any array is allocated, on a table
    and on an SCM alike; one sum over one cluster fits."""
    members = {c: [f"{c[1]}{i}" for i in range(10)] for c in ("CA", "CB", "CC")}
    gr = Grounding(Clustering.from_dict(members), {v: 2 for vs in members.values() for v in vs}, {}, {})
    table = DistTable(tuple(members["CA"]), (2,) * 10, np.full((2,) * 10, 1.0 / 1024))
    graph = mk('graph "wide" class=admg {\n' + "".join(f"  var {v}\n" for v in gr.cards) + "}\n")
    scm = scm_from_cpts(graph, {v: ((), np.array([0.5, 0.5])) for v in gr.cards})
    a, b, c = (val(name) for name in members)
    assert evaluate_all(Sum(a, term([a])), table, gr)[1] == {(): pytest.approx(1.0)}
    nested = Sum(a, Sum(b, Sum(c, Product((term([a]), term([b]), term([c]))))))
    wide = term([a, b, c])

    def no_arrays(*args, **kwargs):
        raise AssertionError("an array allocated for a refused plan")

    monkeypatch.setattr(np, "ones", no_arrays)
    monkeypatch.setattr(np, "einsum", no_arrays)
    reads = [
        lambda: evaluate(nested, table, gr),
        lambda: evaluate_all(nested, table, gr),
        lambda: evaluate_interventional(nested, scm, gr),
        lambda: evaluate_all(wide, scm, gr),
        lambda: evaluate_interventional(wide, scm, gr, {a: (0,) * 10, b: (0,) * 10, c: (0,) * 10}),
    ]
    for read in reads:
        with pytest.raises(DomainTooLarge, match="compiled array"):
            read()


@given(st.data())
@settings(max_examples=80, deadline=None)
def test_along_reads_the_table_at_its_sources(data):
    """For any parents, cards and subset of sources in any order, the CPT
    has shape (parent cards..., k), and each cell is the table's row at the
    sources' states, whatever the other parents' states."""
    parents = data.draw(st.permutations([f"P{i}" for i in range(data.draw(st.integers(0, 4)))]))
    cards = {p: data.draw(st.integers(1, 3)) for p in parents}
    sources = tuple(data.draw(st.permutations(parents)))[: data.draw(st.integers(0, len(parents)))]
    k = data.draw(st.integers(1, 3))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    table = rng.random(tuple(cards[p] for p in sources) + (k,))
    cpt = _along(table, sources, tuple(parents), cards)
    assert cpt.shape == tuple(cards[p] for p in parents) + (k,)
    for states in itertools.product(*(range(cards[p]) for p in parents)):
        at = dict(zip(parents, states))
        assert np.array_equal(cpt[states], table[tuple(at[p] for p in sources)])


@pytest.mark.parametrize("path", MOTIF_PATHS.values(), ids=MOTIF_PATHS.keys())
def test_equal_manifest_pair_motifs(path):
    """Every edge between a variable and its indicator, and every two-edge
    collider with each edge directed or bidirected, gets a pair."""
    g = motif_graph(path)
    verdict = check_joint(g)
    assert not verdict.recoverable
    assert verdict.violations[0].witness.text() == path
    _assert_pair(*equal_manifest_pair(construct_witness(g, verdict.violations[0]), seed=0))


THREE_EDGE_SRC = (
    'graph "three" class=m-admg {\n'
    "  var X\n  var Z\n  var W\n  rvar R_X for X\n  edge X -> Z\n  edge Z <-> W\n  edge R_X -> W\n}\n"
)


@pytest.mark.parametrize(
    "src, message",
    [
        (MCAR_SRC, "graph has no variable adjacent to its own indicator and no collider Y *-> Z <-* R_Y"),
        (THREE_EDGE_SRC, "shortest violation X -> Z <-> W <- R_X has over two edges; no motif realizes it"),
    ],
    ids=["no-violation", "three-edges"],
)
def test_pair_says_why_there_is_no_motif(src, message):
    """Without a violation the graph has no motif; with only longer ones,
    the message names the shortest."""
    with pytest.raises(UnknownVertex, match=f"^{re.escape(message)}$"):
        equal_manifest_pair(mk(src), seed=0)


# Wrong formulas: the complete-case joint on fig2b (R_CX, R_CY depend on CZ),
# fig3's CX -> CY effect read off without adjusting for the confounder CZ, and
# one that ignores the treatment altogether.
COMPLETE_CASE = term([proxy("CX"), proxy("CY"), val("CZ")], cond=[rzero("R_CX"), rzero("R_CY")])
UNADJUSTED = term([proxy("CY")], cond=[val("CX"), rzero("R_CY")])
NO_TREATMENT = term([proxy("CY")], cond=[rzero("R_CY")])


def _hand_errors(expr, scm, grounding, treatment=None):
    """``check`` written out cell by cell, indexing the dense truth table."""
    joint, manifest = exact_tables(scm)
    atoms, cells = evaluate_all(expr, manifest, grounding)
    out = {}
    for env_vals, got in cells.items():
        env = dict(zip(atoms, env_vals))
        given = [v for a, v in env.items() if a.ref == treatment]
        for tv in given or (grounding.domain(treatment) if treatment else [None]):
            if treatment:
                do = dict(zip(grounding.members(treatment), tv))
                table = interventional_table(scm, do, grounding.clustering)
            else:
                table = joint
            index = [slice(None)] * len(table.variables)
            for a, vals in env.items():
                if a.ref != treatment:
                    for var, value in zip(grounding.members(a.ref), vals):
                        index[table.variables.index(var)] = value
            key = env_vals if given or not treatment else env_vals + (tv,)
            out[key] = abs(got - float(table.probs[tuple(index)].sum()))
    return out


@pytest.mark.parametrize(
    "name, expr, effect",
    [
        ("fig2b", COMPLETE_CASE, None),
        ("fig3", UNADJUSTED, ("CX", "CY")),
        ("fig3", NO_TREATMENT, ("CX", "CY")),
    ],
    ids=["joint", "effect", "effect-treatment-unmentioned"],
)
def test_check_matches_hand_computation(name, expr, effect):
    g = parse_graph(fixture_text(name))
    madmg = next(iter(enumerate_compatible(g, budget=Budget(2, 10))))
    scm = random_scm(madmg, seed=3)
    gr = Grounding.from_scm(scm, abstract=g)
    atoms, errors = check(expr, scm, gr, effect)
    want = _hand_errors(expr, scm, gr, effect and effect[0])
    assert {a.ref for a in atoms} == {a.ref for a in free_atoms(expr)} | set(effect or ())
    assert errors.keys() == want.keys() and len(errors) > 1
    assert max(want.values()) > 1e-3  # the comparison is not between zeros
    for key, err in want.items():
        assert errors[key] == pytest.approx(err, abs=1e-12)


@pytest.mark.parametrize(
    "name, expr, effect",
    [("fig2b", COMPLETE_CASE, None), ("fig3", UNADJUSTED, ("CX", "CY"))],
    ids=["complete-case-joint", "unadjusted-effect"],
)
def test_check_flags_wrong_formulas(name, expr, effect):
    g = parse_graph(fixture_text(name))
    for madmg in itertools.islice(enumerate_compatible(g, budget=Budget(2, 10)), 5):
        for seed in range(3):
            scm = random_scm(madmg, seed=seed)
            _, errors = check(expr, scm, Grounding.from_scm(scm, abstract=g), effect)
            assert max(errors.values()) > 1e-3


# ---------------------------------------------------------------------------
# The compiled evaluator against a per-cell reference
# ---------------------------------------------------------------------------
#
# The reference evaluates one cell at a time: it recurses over the tree with
# the symbols bound in an environment and reads each term off a dense table,
# the manifest, or under interventions a table over true values, indicators
# and proxies built here from the definition of the proxy (Eq. 1).


def _extended(scm, do):
    """Joint over true values, indicators and proxies under do: the
    mechanisms multiplied out in one einsum, with a point mass in place of
    each intervened node's CPT, then Eq. 1 for each proxy."""
    axis = {n.name: i for i, n in enumerate(scm.nodes)}
    operands = []
    for node in scm.nodes:
        if node.name in do:
            operands += [np.eye(node.card)[do[node.name]], [axis[node.name]]]
        else:
            operands += [node.cpt, [axis[p] for p in node.parents] + [axis[node.name]]]
    names = [n.name for n in scm.nodes if n.name not in scm.latents]
    probs = np.einsum(*operands, [axis[n] for n in names], optimize="greedy")
    for v in scm.variables:
        if scm.masked(v):
            k, n = scm.card(v), len(names)
            r = scm.madmg.indicator_by_owner[v]
            eq1 = np.zeros((k, scm.card(r), k + 1))
            for x in range(k):
                eq1[x, 0, x] = 1.0  # X* = X where R_X = 0
                eq1[x, 1:, k] = 1.0  # X* = NA otherwise
            axes = [names.index(v), names.index(r), n]
            probs = np.einsum(probs, list(range(n)), eq1, axes, list(range(n + 1)))
            names.append(scm.proxy_name(v))
    return DistTable(tuple(names), probs.shape, probs)


class _Reference:
    """Per-cell evaluation: recursion over the tree, one scalar per term."""

    def __init__(self, source, grounding, interventional):
        self.source, self.g, self.interventional = source, grounding, interventional
        self.tables = {}

    def cell(self, expr, env):
        if isinstance(expr, One):
            return 1.0
        if isinstance(expr, Term):
            return self.term(expr, env)
        if isinstance(expr, Product):
            out = 1.0
            for f in expr.factors:
                out *= self.cell(f, env)
            return out
        if isinstance(expr, Quotient):
            den = self.cell(expr.den, env)
            if den <= 0.0:
                raise PositivityError("zero denominator")
            return self.cell(expr.num, env) / den
        total = 0.0
        for values in self.g.domain(expr.bound.ref):
            inner = {**env, expr.bound: values, proxy(expr.bound.ref): values}
            total += self.cell(expr.body, inner)
        return total

    def lookup(self, env, atom):
        if atom not in env:
            raise EvaluationError(f"unbound {atom}")
        return env[atom]

    def term(self, t, env):
        do = {}
        if t.do and not self.interventional:
            raise EvaluationError("do-term on a plain table")
        for atom in sorted(t.do):
            do.update(zip(self.g.members(atom.ref), self.lookup(env, atom)))
        for atom in t.outcomes | t.cond:
            if atom.kind != RZERO:
                self.lookup(env, atom)
        table = self.source
        if self.interventional:
            key = tuple(sorted(do.items()))
            if key not in self.tables:
                self.tables[key] = _extended(self.source, do)
            table = self.tables[key]
        cond = {}
        for atom in sorted(t.cond):
            cond.update(self.columns(atom, env))
        both = dict(cond)
        for atom in sorted(t.outcomes):
            both.update(self.columns(atom, env))
        den = table.prob(cond) if cond else 1.0
        if den <= 0.0:
            raise PositivityError("zero-mass stratum")
        return table.prob(both) / den

    def columns(self, atom, env):
        if atom.kind == RZERO:
            return {r: 0 for r in self.g._indicator_group(atom.ref)}
        cols = {}
        for v, x in zip(self.g.members(atom.ref), env[atom]):
            if atom.kind == PROXY and v in self.g.proxy_of:
                cols[self.g.proxy_of[v]] = x
            elif atom.kind == VAL and not self.interventional and v in self.g.indicator_of:
                raise EvaluationError(f"{v} is masked")
            else:
                cols[v] = x
        return cols


def _outcome(fn):
    try:
        return fn()
    except McdmgError as exc:
        return type(exc)


def _assert_matches_reference(expr, source, gr, interventional):
    """Every cell through ``evaluate``/``evaluate_interventional`` and the
    whole domain through ``evaluate_all``, against the reference: the same
    values within 1e-12 (relative, for quotients far above 1), or the same
    exception class."""
    ref = _Reference(source, gr, interventional)
    one = evaluate_interventional if interventional else evaluate
    atoms = free_atoms(expr)
    want_all = {}
    for vals in itertools.product(*(gr.domain(a.ref) for a in atoms)):
        env = dict(zip(atoms, vals))
        want = _outcome(lambda: ref.cell(expr, env))
        got = _outcome(lambda: one(expr, source, gr, env))
        if isinstance(want, type) or isinstance(got, type):
            assert got is want, (vals, got, want)
        else:
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12), vals
        if isinstance(want_all, dict):
            want_all = want if isinstance(want, type) else {**want_all, vals: want}
    got_all = _outcome(lambda: evaluate_all(expr, source, gr))
    if isinstance(want_all, type):
        assert got_all is want_all
    else:
        assert not isinstance(got_all, type), got_all
        assert got_all[0] == atoms and got_all[1].keys() == want_all.keys()
        for vals, want in want_all.items():
            assert got_all[1][vals] == pytest.approx(want, rel=1e-12, abs=1e-12)
    return want_all


@functools.lru_cache(maxsize=None)
def _first_graphs(name, n=3):
    g = parse_graph(fixture_text(name))
    return g, tuple(itertools.islice(enumerate_compatible(g, budget=Budget(2, 10)), n))


def _degenerate(scm, names):
    """The SCM with the named mechanisms made deterministic (argmax rows), so
    that some strata have zero mass."""
    nodes = []
    for node in scm.nodes:
        cpt = node.cpt
        if node.name in names:
            cpt = (cpt == cpt.max(axis=-1, keepdims=True)).astype(float)
            cpt = cpt / cpt.sum(axis=-1, keepdims=True)
        nodes.append(Node(node.name, node.card, node.parents, cpt))
    return DiscreteSCM(scm.madmg, tuple(nodes), scm.latents, scm.seed)


CLUSTERS = ("CX", "CY", "CZ")
# indicator literals of fig2a (R_X1, R_Y2) and fig2b (R_CX, R_CY); on another
# fixture some of them match no indicator
R_LITERALS = ("R_CX", "R_CY", "R_X1", "R_Y2")
_cluster_atoms = st.builds(Atom, st.sampled_from([VAL, PROXY]), st.sampled_from(CLUSTERS))
_ref_atoms = st.one_of(_cluster_atoms, st.builds(rzero, st.sampled_from(R_LITERALS)))
_ref_terms = st.builds(
    lambda o, d, c: term(o, d, c - d),
    st.sets(_ref_atoms, min_size=1, max_size=3),
    st.sets(_cluster_atoms, max_size=1) | st.just(frozenset()),
    st.sets(_ref_atoms, max_size=2),
)
_ref_exprs = st.recursive(
    _ref_terms | st.just(One()),
    lambda sub: st.one_of(
        st.builds(Sum, _cluster_atoms, sub),
        st.builds(lambda fs: Product(tuple(fs)), st.lists(sub, min_size=1, max_size=3)),
        st.builds(Quotient, sub, sub),
    ),
    max_leaves=6,
)


# Errors in evaluation order, on an SCM whose X1 is a constant: a sum whose
# first bound values have zero mass and whose last ones do not, and a factor
# with zero-mass cells before a factor the manifest cannot answer.
_ZERO_AT_FIRST_VALUES = Sum(
    proxy("CX"),
    Quotient(
        term([proxy("CY"), proxy("CX"), rzero("R_CX"), rzero("R_CY")]),
        term([proxy("CX"), rzero("R_CX")]),
    ),
)
_ZERO_THEN_MASKED = Product(
    (Quotient(One(), term([proxy("CX"), rzero("R_CX")])), term([val("CX")]))
)


@settings(max_examples=200, deadline=None)
@example(_ZERO_AT_FIRST_VALUES, "fig2b", 0, 2, {"X1"}, False)
@example(_ZERO_THEN_MASKED, "fig2b", 0, 2, {"X1"}, False)
@given(
    _ref_exprs,
    st.sampled_from(("fig2a", "fig2b", "fig3")),
    st.integers(0, 2),
    st.integers(0, 3),
    st.sets(st.sampled_from(("X1", "Y1", "Z1", "Z2", "R_X1", "R_Y1", "R_CX", "R_CY"))),
    st.booleans(),
)
def test_compiled_evaluator_matches_per_cell_reference(
    expr, name, graph, seed, deterministic, interventional
):
    """On the manifest (where do-terms raise) or under interventions."""
    g, madmgs = _first_graphs(name)
    scm = _degenerate(random_scm(madmgs[graph], seed=seed), deterministic)
    gr = Grounding.from_scm(scm, abstract=g)
    source = scm if interventional else exact_tables(scm)[1]
    _assert_matches_reference(expr, source, gr, interventional)


@pytest.mark.parametrize(
    "name, treatment, outcome",
    [
        ("fig1a", "X1", "Y2"),
        ("fig1b", "X1", "Y2"),
        ("fig1c", "CX", "CY"),
        ("fig2a", "CX", "CY"),
        ("fig2b", "CX", "CY"),
        ("fig3", "CX", "CY"),
    ],
)
def test_interventional_evaluator_matches_reference_on_derivations(name, treatment, outcome):
    g = parse_graph(fixture_text(name))
    if g.graph_class.clustered:
        madmgs = list(itertools.islice(enumerate_compatible(g, budget=Budget(2, 10)), 2))
    else:
        madmgs, g = [g], as_cluster_graph(g)
    d = recover_effect(g, {treatment}, {outcome})
    compared = 0
    for madmg in madmgs:
        for seed in range(2):
            scm = random_scm(madmg, seed=seed)
            gr = Grounding.from_scm(scm, g.clustering, abstract=g)
            for step in d.steps:
                for expr in (step.before, step.after):
                    cells = _assert_matches_reference(expr, scm, gr, True)
                    compared += len(cells)
    assert compared > 0


@functools.lru_cache(maxsize=None)
def _effect_derivation(name):
    return recover_effect(parse_graph(fixture_text(name)), {"CX"}, {"CY"})


# the forms a cell's values may take: a tuple, a list, numpy integers
_VALUE_FORMS = (tuple, list, lambda values: tuple(np.int64(x) for x in values))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("fig2a", "fig2b", "fig3")),
    st.integers(0, 2),
    st.integers(0, 5),
    st.randoms(use_true_random=False),
    st.booleans(),
    st.none() | _ref_exprs,
)
def test_cell_reads_are_the_evaluate_all_cells(name, graph, seed, rnd, cells_first, extra):
    """Every per-cell `evaluate`/`evaluate_interventional` value is exactly
    (``==``) the matching `evaluate_all` cell, whichever is read first, with
    the env's atoms in any order and its values as tuples, lists or numpy
    integers: the CX -> CY formula on the manifest, each derivation step on
    the SCM, and a random expression on both."""
    g, madmgs = _first_graphs(name)
    scm = random_scm(madmgs[graph], seed=seed)
    manifest = exact_tables(scm)[1]
    gr = Grounding.from_scm(scm, abstract=g)
    d = _effect_derivation(name)
    reads = [(d.result, manifest, evaluate)]
    reads += [(x, scm, evaluate_interventional) for step in d.steps for x in (step.before, step.after)]
    if extra is not None:
        reads += [(extra, manifest, evaluate), (extra, scm, evaluate_interventional)]
    compared = 0
    for expr, source, one in reads:
        atoms = free_atoms(expr)
        every = _outcome(lambda: evaluate_all(expr, source, gr)) if not cells_first else None
        got = {}
        for values in itertools.product(*(gr.domain(a.ref) for a in atoms)):
            env = [(a, rnd.choice(_VALUE_FORMS)(v)) for a, v in zip(atoms, values)]
            rnd.shuffle(env)
            got[values] = _outcome(lambda: one(expr, source, gr, dict(env)))
        if cells_first:
            every = _outcome(lambda: evaluate_all(expr, source, gr))
        if isinstance(every, type):
            assert every in got.values()  # evaluate_all raises its first failing cell's error
            continue
        assert every[0] == atoms and got == every[1]
        compared += len(got)
    assert compared > 0


_FIG3_EFFECT = term([val("CY")], do=[val("CX")])
_VALID_ENV = {val("CY"): (0, 0), val("CX"): (0, 1)}


@pytest.mark.parametrize(
    "env, error, message",
    [
        ({val("CY"): (0,), val("CX"): (0, 1)}, EvaluationError, "value arity mismatch for c_CY"),
        ({val("CY"): (0, 0), val("CX"): (2, 0)}, EvaluationError, "(2, 0) is outside the domain of c_CX"),
        ({val("CY"): (0, 0), val("CX"): (0, -1)}, EvaluationError, "(0, -1) is outside the domain of c_CX"),
        ({val("CY"): (0, 0)}, EvaluationError, "unbound symbol c_CX"),
        ({**_VALID_ENV, rzero("R_CY"): 0}, TypeError, "'int' object is not iterable"),
        (None, EvaluationError, "unbound symbol c_CX"),
    ],
    ids=["arity", "out-of-domain", "negative-level", "missing-atom", "literal-not-iterable", "none"],
)
def test_invalid_envs_raise_as_before(env, error, message):
    """An invalid env raises the same class and message on a fresh SCM and
    after valid reads over the same atoms (and the same literals) filled
    its caches."""
    g, madmgs = _first_graphs("fig3")
    scm = random_scm(madmgs[0], seed=0)
    gr = Grounding.from_scm(scm, abstract=g)
    for warm in (False, True):
        with pytest.raises(error) as info:
            evaluate_interventional(_FIG3_EFFECT, scm, gr, env)
        assert str(info.value) == message, warm
        valid = {a: (0,) * len(gr.members(a.ref)) if a.kind != RZERO else () for a in env or {}}
        _outcome(lambda: evaluate_interventional(_FIG3_EFFECT, scm, gr, valid))
        want = evaluate_all(_FIG3_EFFECT, scm, gr)[1][((0, 1), (0, 0))]
        assert evaluate_interventional(_FIG3_EFFECT, scm, gr, _VALID_ENV) == want


def test_levels_that_are_not_integers():
    """A level of 1.5 raises EvaluationError (numpy's IndexError before the
    cell index); 1.0 equals 1 and reads that cell."""
    g, madmgs = _first_graphs("fig3")
    scm = random_scm(madmgs[0], seed=0)
    gr = Grounding.from_scm(scm, abstract=g)
    for warm in (False, True):
        with pytest.raises(EvaluationError, match="not an integer"):
            evaluate_interventional(_FIG3_EFFECT, scm, gr, {**_VALID_ENV, val("CX"): (0, 1.5)})
        got = evaluate_interventional(_FIG3_EFFECT, scm, gr, {**_VALID_ENV, val("CX"): (0, 1.0)})
        assert got == evaluate_interventional(_FIG3_EFFECT, scm, gr, _VALID_ENV)


def test_failing_cells_raise_as_before():
    """A masked true value on the manifest and a zero-mass stratum raise
    the same class and message on every read, beside cells that do not."""
    g, madmgs = _first_graphs("fig3")
    scm = random_scm(madmgs[0], seed=0)
    gr = Grounding.from_scm(scm, abstract=g)
    manifest = exact_tables(scm)[1]
    zero = scm_from_cpts(mk('graph "z" class=admg {\n  var A\n  var B\n}\n'), {
        "A": ((), np.array([1.0, 0.0])),
        "B": ((), np.array([0.5, 0.5])),
    })
    zero_gr = Grounding.from_scm(zero, Clustering.from_dict({"CA": ["A"], "CB": ["B"]}))
    conditional = term([val("CB")], cond=[val("CA")])
    for _ in range(2):
        with pytest.raises(EvaluationError) as info:
            evaluate(term([val("CY")]), manifest, gr, {val("CY"): (0, 0)})
        assert str(info.value) == "true value of partially observed 'Y1' is not observable"
        assert evaluate(conditional, exact_tables(zero)[1], zero_gr, {val("CB"): (1,), val("CA"): (0,)}) == 0.5
        with pytest.raises(PositivityError) as info:
            evaluate_interventional(conditional, zero, zero_gr, {val("CA"): (1,), val("CB"): (0,)})
        assert str(info.value) == "zero-mass conditioning stratum in P(c_CB | c_CA)"


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(("fig2a", "fig2b", "fig3")),
    st.integers(0, 2),
    st.integers(0, 3),
    st.sampled_from(CLUSTERS),
)
def test_do_tables_match_an_independent_product(name, graph, seed, treated):
    """Each do-level of the one-pass builder against the mechanisms multiplied
    out per assignment, in `interventional_table` and in the do-table's slice
    where each intervened variable holds its level."""
    _, madmgs = _first_graphs(name)
    scm = random_scm(madmgs[graph], seed=seed)
    members = madmgs[graph].clustering.members(treated)
    for level in itertools.product(*(range(scm.card(v)) for v in members)):
        do = dict(zip(members, level))
        want = _extended(scm, do).marginal(scm.variables).probs
        got = interventional_table(scm, do).probs
        assert np.max(np.abs(got - want)) <= 1e-12
    _assert_do_slices(scm, tuple(sorted(members)))


def _assert_do_slices(scm, do_vars):
    """The do-table has the joint's columns, and at each do-level its slice
    where the intervened variables hold their levels is, within 1e-12, the
    same slice of the mechanisms multiplied out under that do."""
    kept = tuple(n.name for n in scm.nodes if n.name not in scm.latents)
    table = _do_table(scm, do_vars)
    assert table.variables == kept
    for level in itertools.product(*(range(scm.card(v)) for v in do_vars)):
        do = dict(zip(do_vars, level))
        at = tuple(do.get(n, slice(None)) for n in kept)
        want = _extended(scm, do).marginal(kept).probs[at]
        assert np.max(np.abs(table.probs[at] - want)) <= 1e-12


@functools.lru_cache(maxsize=None)
def _first_compatible(graph_seed):
    """The first compatible m-ADMG (``Budget(2, 8)``) of the
    ``random_cluster_text`` graph of ``random.Random(graph_seed)``, or None."""
    g = parse_graph(random_cluster_text(random.Random(graph_seed)))
    try:
        return next(iter(enumerate_compatible(g, budget=Budget(2, 8))))
    except BudgetTooSmall:
        return None


# graph seeds 9, 136 and 259 give nodes with two or three latent parents, so
# that the join at one latent carries the next; 9 and 136 have indicators
@settings(max_examples=60, deadline=None)
@example(9, 0, {1, 4})
@example(136, 1, {0, 2, 5})
@example(259, 2, set())
@given(st.integers(0, 299), st.integers(0, 3), st.sets(st.integers(0, 63), max_size=3))
def test_elimination_matches_the_dense_product(graph_seed, seed, picks):
    """Each do-level of ``_do_table`` against the mechanisms multiplied out in
    one einsum, for no do, a random do-set, and a latent's child together
    with an indicator."""
    madmg = _first_compatible(graph_seed)
    assume(madmg is not None)
    scm = random_scm(madmg, seed=seed)
    kept = tuple(n.name for n in scm.nodes if n.name not in scm.latents)
    confounded = [n.name for n in scm.nodes if set(n.parents) & set(scm.latents)]
    do_sets = {(), tuple(sorted({kept[i % len(kept)] for i in picks}))}
    do_sets.add(tuple(sorted(set(confounded[:1]) | set(scm.indicators[:1]))))
    for do_vars in do_sets:
        _assert_do_slices(scm, do_vars)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 299), st.sets(st.integers(0, 63), max_size=4))
def test_do_tables_take_the_joints_layout(graph_seed, picks):
    """Whatever the do-set, the do-table has the joint's columns, cards and
    cells, and its elimination joins no more cells than the joint's: a do
    only drops factors."""
    madmg = _first_compatible(graph_seed)
    assume(madmg is not None)
    scm = random_scm(madmg, seed=0)
    s, joint = scm.structure, _do_table(scm)
    do_vars = tuple(sorted({s.kept[i % len(s.kept)] for i in picks}))
    table = _do_table(scm, do_vars)
    assert (table.variables, table.cards, table.probs.size) == (joint.variables, joint.cards, joint.probs.size)
    live = s.do_plan(do_vars).live
    assert _elimination([s.scopes[i] for i in live], s.latents, s.cards.__getitem__)[1] <= s.joint[1]
