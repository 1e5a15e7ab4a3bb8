"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Tolerances and budgets are pinned here, nothing is deferred to calibration:
verdicts and formulas are checked against exact enumeration over discrete
structural causal models at 1e-9, counterexample gaps at 1e-2, and the
separation engine against an exhaustive path oracle.
"""

import itertools
import json
import random
import subprocess
import sys
import time

import numpy as np
from mcdmg import (
    Budget,
    Derivation,
    Grounding,
    enumerate_compatible,
    equal_manifest_pair,
    exact_tables,
    fixture_path,
    is_compatible,
    parse_graph,
    random_scm,
    recover_effect,
)
from mcdmg import check_joint, construct_witness
from mcdmg.expressions import Product, Sum, canonical, proxy, rzero, term, val
from mcdmg.oracle import check, evaluate_all


def report(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mcdmg.cli", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout


def test_criterion_1_golden_verdicts():
    t0 = time.perf_counter()
    code2b, out2b = cli("check-joint", str(fixture_path("fig2b")))
    code3, out3 = cli("check-joint", str(fixture_path("fig3")))
    elapsed = time.perf_counter() - t0
    doc2b, doc3 = json.loads(out2b), json.loads(out3)
    ok = (
        code2b == 0
        and doc2b["recoverable"] is True
        and code3 == 1
        and doc3["recoverable"] is False
        and doc3["violations"][0]["witness_path"] == "CY <-> CZ <-> R_CY"
    )
    t0 = time.perf_counter()
    v2b = check_joint(parse_graph(fixture_path("fig2b").read_text()))
    v3 = check_joint(parse_graph(fixture_path("fig3").read_text()))
    in_process = time.perf_counter() - t0
    ok = ok and v2b.recoverable and not v3.recoverable and in_process < 1.0
    report(1, ok, f"verdicts golden, {in_process * 1000:.0f} ms in-process")


EXAMPLE2 = canonical(term([proxy("CY")], cond=[proxy("CX"), rzero("R_CX"), rzero("R_CY")]))
EXAMPLE3 = canonical(
    Sum(
        val("CZ"),
        Product(
            (
                term([proxy("CY")], cond=[val("CX"), val("CZ"), rzero("R_CY")]),
                term([val("CZ")], cond=[rzero("R_CY")]),
            )
        ),
    )
)


def _derivations():
    fig2b = parse_graph(fixture_path("fig2b").read_text())
    fig3 = parse_graph(fixture_path("fig3").read_text())
    d2 = recover_effect(fig2b, {"CX"}, {"CY"}, depth=12)
    d3 = recover_effect(fig3, {"CX"}, {"CY"}, depth=12)
    return (fig2b, d2), (fig3, d3)


def test_criterion_2_golden_derivations():
    t0 = time.perf_counter()
    (g2, d2), (g3, d3) = _derivations()
    elapsed = time.perf_counter() - t0
    ok = (
        isinstance(d2, Derivation)
        and canonical(d2.result) == EXAMPLE2
        and isinstance(d3, Derivation)
        and canonical(d3.result) == EXAMPLE3
        and elapsed < 10.0
    )
    report(2, ok, f"both final formulas match, {elapsed:.2f} s")


def test_criterion_3_theorem1_oracle_equivalence():
    t0 = time.perf_counter()
    fig2b = parse_graph(fixture_path("fig2b").read_text())
    formula = check_joint(fig2b).formula
    graphs = list(
        itertools.islice(enumerate_compatible(fig2b, budget=Budget(2, 10)), 20)
    )
    assert len(graphs) >= 20
    worst = 0.0
    scms = 0
    for madmg in graphs:
        for seed in range(100):
            scm = random_scm(madmg, seed=seed)
            scms += 1
            _, errors = check(formula, scm, Grounding.from_scm(scm, abstract=fig2b))
            assert errors
            worst = max(worst, *errors.values())
    elapsed = time.perf_counter() - t0
    ok = scms >= 2000 and worst <= 1e-9 and elapsed < 300.0
    report(3, ok, f"{len(graphs)} graphs x 100 SCMs, max err {worst:.2e}, {elapsed:.0f} s")


def _eval_by_cluster(expr, scm, grounding):
    """Evaluate over the domain of the free clusters, keyed by cluster ref.

    A proxy substitution step renames the atom (value -> proxy) but ranges
    over the same cluster valuations, so equality is checked per valuation.
    """
    atoms, cells = evaluate_all(expr, scm, grounding)
    refs = [a.ref for a in atoms]
    assert len(set(refs)) == len(refs)
    keyed = {tuple(v for _, v in sorted(zip(refs, vals))): got for vals, got in cells.items()}
    return sorted(refs), keyed


def test_criterion_4_per_step_soundness():
    worst = 0.0
    total_scms = 0
    for g, d in _derivations():
        assert isinstance(d, Derivation)
        madmgs = list(
            itertools.islice(enumerate_compatible(g, budget=Budget(2, 10)), 5)
        )
        scms = [
            random_scm(m, seed=s) for m in madmgs for s in range(21)
        ]
        total_scms += len(scms)
        assert len(scms) >= 100
        for scm in scms:
            grounding = Grounding.from_scm(scm, abstract=g)
            for step in d.steps:
                refs_b, before = _eval_by_cluster(step.before, scm, grounding)
                refs_a, after = _eval_by_cluster(step.after, scm, grounding)
                assert refs_b == refs_a
                for key in before:
                    worst = max(worst, abs(before[key] - after[key]))
    ok = worst <= 1e-9
    report(4, ok, f"{total_scms} SCMs, per-step max err {worst:.2e}")


def test_criterion_5_nonrecoverability_witness():
    t0 = time.perf_counter()
    fig3 = parse_graph(fixture_path("fig3").read_text())
    verdict = check_joint(fig3)
    witness = construct_witness(fig3, verdict.violations[0])
    assert is_compatible(witness, fig3).compatible
    s1, s2 = equal_manifest_pair(witness, seed=0)
    j1, m1 = exact_tables(s1)
    j2, m2 = exact_tables(s2)
    manifest_gap = float(np.max(np.abs(m1.probs - m2.probs)))
    joint_gap = float(np.max(np.abs(j1.probs - j2.probs)))
    elapsed = time.perf_counter() - t0
    ok = manifest_gap <= 1e-9 and joint_gap >= 1e-2 and elapsed < 120.0
    report(
        5,
        ok,
        f"manifest diff {manifest_gap:.1e}, joint diff {joint_gap:.3f}, {elapsed:.2f} s",
    )


def test_criterion_6_proposition_1_strictness():
    src = (
        'graph "p1" class=m-c-dmg {\n'
        "  cluster CL { vars L1 }\n"
        "  cluster CX { vars X1, X2 }\n"
        "  rvar R_X1 for X1\n"
        "  rvar R_X2 for X2\n"
        "  edge CL -> R_X2\n"
        "}\n"
    )
    fine = parse_graph(src)
    from mcdmg import merge_indicators

    coarse = merge_indicators(fine)
    fine_class = list(
        enumerate_compatible(fine, budget=Budget(2, 8), canonicalize=False)
    )
    coarse_class = [
        g
        for g in enumerate_compatible(coarse, budget=Budget(2, 8), canonicalize=False)
        if g.clustering.members("CX") == ("X1", "X2")
        and g.clustering.members("CL") == ("L1",)
    ]
    inclusion = all(is_compatible(g, coarse).compatible for g in fine_class)
    fine_sigs = {(g.directed, g.bidirected) for g in fine_class}
    strict_witnesses = [
        g
        for g in coarse_class
        if (g.directed, g.bidirected) not in fine_sigs
        and not is_compatible(g, fine).compatible
    ]
    ok = (
        inclusion
        and len(coarse_class) > len(fine_class)
        and len(strict_witnesses) >= 1
    )
    detail = (
        f"|compat(m)|={len(fine_class)}, |compat(cm)|={len(coarse_class)}, "
        f"{len(strict_witnesses)} strictness witnesses"
    )
    report(6, ok, detail)


def test_criterion_7_classical_identities():
    from mcdmg.oracle import scm_from_cpts

    mcar = parse_graph(
        'graph "mcar" class=m-admg {\n  var X\n  var Y\n  rvar R_X for X\n'
        "  edge X -> Y\n}\n"
    )
    mar = parse_graph(
        'graph "mar" class=m-admg {\n  var Z\n  var X\n  rvar R_X for X\n'
        "  edge Z -> X\n  edge Z -> R_X\n}\n"
    )
    mask = parse_graph(
        'graph "mask" class=m-admg {\n  var X\n  rvar R_X for X\n  edge X -> R_X\n}\n'
    )
    worst_mcar = worst_mar = 0.0
    for seed in range(25):
        scm = random_scm(mcar, seed=seed)
        joint, manifest = exact_tables(scm)
        for x in range(2):
            for y in range(2):
                cc = manifest.prob({"X*": x, "Y": y, "R_X": 0}) / manifest.prob(
                    {"R_X": 0}
                )
                worst_mcar = max(worst_mcar, abs(cc - joint.prob({"X": x, "Y": y})))
        scm = random_scm(mar, seed=seed)
        joint, manifest = exact_tables(scm)
        for z in range(2):
            for x in range(2):
                want = joint.prob({"X": x, "Z": z}) / joint.prob({"Z": z})
                got = manifest.prob({"X*": x, "Z": z, "R_X": 0}) / manifest.prob(
                    {"Z": z, "R_X": 0}
                )
                worst_mar = max(worst_mar, abs(want - got))
    selfmask = scm_from_cpts(
        mask,
        {
            "X": ((), np.array([0.5, 0.5])),
            "R_X": (("X",), np.array([[0.9, 0.1], [0.2, 0.8]])),
        },
    )
    joint, manifest = exact_tables(selfmask)
    bias = abs(
        manifest.prob({"X*": 1, "R_X": 0}) / manifest.prob({"R_X": 0})
        - joint.prob({"X": 1})
    )
    ok = worst_mcar <= 1e-9 and worst_mar <= 1e-9 and bias >= 1e-2
    report(
        7,
        ok,
        f"MCAR err {worst_mcar:.1e}, MAR err {worst_mar:.1e}, deletion bias {bias:.3f}",
    )


def test_criterion_8_property_suites():
    from mcdmg import d_separated, d_separated_by_paths, primary_path
    from tests_support import all_small_graphs, random_graph, random_query, random_walk

    # d-separation symmetry + walk engine vs path oracle, exhaustive n<=3
    agree = True
    checked = 0
    for g in all_small_graphs(3):
        vs = sorted(v.id for v in g.vertices)
        for x, y in itertools.combinations(vs, 2):
            rest = [v for v in vs if v not in (x, y)]
            for zmask in range(1 << len(rest)):
                Z = {rest[i] for i in range(len(rest)) if zmask >> i & 1}
                a = d_separated(g, {x}, {y}, Z)
                checked += 1
                if a != d_separated_by_paths(g, {x}, {y}, Z):
                    agree = False
                if a != d_separated(g, {y}, {x}, Z):
                    agree = False

    # seeded random sweep over 4..7 vertices
    rng = random.Random(20240917)
    for _ in range(400):
        g = random_graph(rng, rng.randint(4, 7))
        X, Y, Z = random_query(rng, g)
        checked += 1
        if d_separated(g, X, Y, Z) != d_separated_by_paths(g, X, Y, Z):
            agree = False
        if d_separated(g, X, Y, Z) != d_separated(g, Y, X, Z):
            agree = False

    # primary paths: idempotence + collider preservation on 1e4 random walks
    walks = 0
    collider_walks = 0
    pp_ok = True
    while walks < 10_000:
        g = random_graph(rng, rng.randint(3, 6))
        for _ in range(20):
            w = random_walk(rng, g)
            if w is None:
                continue
            walks += 1
            p = primary_path(w)
            if not (p.is_path() and primary_path(p) == p):
                pp_ok = False
            interior = w.interior()
            if interior and all(w.is_collider(i) for i in interior):
                collider_walks += 1
                if not all(p.is_collider(i) for i in p.interior()):
                    pp_ok = False
    ok = agree and pp_ok and collider_walks >= 300
    report(
        8,
        ok,
        f"{checked} separation checks agree, {walks} walks, "
        f"{collider_walks} all-collider walks preserved",
    )
