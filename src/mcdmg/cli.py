"""Command-line entry point wiring all modules.

Exit codes: 0 success (including positive verdicts), 1 computed negative
verdict (not recoverable, not derived, incompatible, replay failure, oracle
mismatch), 2 input or usage error. All structured output goes to stdout,
diagnostics to stderr. Outputs are byte-identical across runs for the same
inputs; ``MCDMG_SEED`` overrides the default seed.

A process loads only what its subcommand runs. At module level this file
imports what every subcommand needs to read a graph (``errors``,
``fixtures``, ``gfiles``, ``graphs``); each ``cmd_*`` imports the rest of
what it calls. So ``--help`` and usage errors load no command module, and
only ``oracle`` and ``simulate`` import numpy and the exact oracle.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import json
import math
import os
import sys
from typing import Optional

from . import fixtures
from .errors import BudgetTooSmall, InvalidSeed, McdmgError, ParseError, PreconditionError
from .gfiles import emit_dot, emit_graph, emit_json, parse_graph
from .graphs import validate

_FIXTURE_HINT = "bundled fixtures: " + ", ".join(
    f"{n}.mcg" for n in fixtures.NAMES
)

# `simulate` draws and writes this many rows at a time, so its arrays stay
# bounded whatever --rows asks for.
SIMULATE_BLOCK = 65536


def _dump(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _read_graph(path: str, validate: bool = True):
    if path in fixtures.NAMES:
        text = fixtures.fixture_text(path)
    else:
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            line = data.count(b"\n", 0, exc.start) + 1
            raise ParseError("not UTF-8 text", line, exc.start - data.rfind(b"\n", 0, exc.start)) from None
        text = text.replace("\r\n", "\n").replace("\r", "\n")  # universal newlines, as text mode reads
    return parse_graph(text, validate=validate)


def _split(arg: Optional[str]):
    return set(x for x in (arg or "").split(",") if x)


def _query(text: str):
    """``joint`` -> None; ``effect:<CX>:<CY>`` -> (CX, CY)."""
    if text == "joint":
        return None
    parts = text.split(":")
    if len(parts) == 3 and parts[0] == "effect" and parts[1] and parts[2]:
        return parts[1], parts[2]
    raise argparse.ArgumentTypeError(f"expected 'joint' or 'effect:<CX>:<CY>', got {text!r}")


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _count(text: str) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {text!r}")
    return int(text)


def _tolerance(text: str) -> float:
    tol = float(text)
    if not math.isfinite(tol) or tol < 0:
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text!r}")
    return tol


def default_seed(args_seed: Optional[int]) -> int:
    if args_seed is not None:
        return args_seed
    text = os.environ.get("MCDMG_SEED", "0")
    if not text.isdecimal():
        raise InvalidSeed(f"MCDMG_SEED must be an integer >= 0, got {text!r}")
    return int(text)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    g = _read_graph(args.file)
    if args.format == "dot":
        print(emit_dot(g), end="")
    elif args.format == "text":
        print(emit_graph(g), end="")
    else:
        _dump(emit_json(g))
    return 0


def cmd_validate(args) -> int:
    g = _read_graph(args.file, validate=False)
    violations = validate(g)
    _dump(
        {
            "valid": not violations,
            "violations": [
                {"code": v.code, "message": v.message, "subjects": list(v.subjects)}
                for v in violations
            ],
        }
    )
    return 0 if not violations else 1


def cmd_dsep(args) -> int:
    from .separation import MutilationSpec, active_path

    g = _read_graph(args.file)
    xs, ys = _split(args.x), _split(args.y)
    for flag, ids in (("--x", xs), ("--y", ys)):
        if not ids:
            raise PreconditionError(f"{flag} names no vertex")
    spec = MutilationSpec.of(_split(args.overline), _split(args.underline))
    witness = active_path(g, xs, ys, _split(args.given), spec)
    _dump(
        {
            "separated": witness is None,
            "witness_path": witness.tokens() if witness is not None else None,
        }
    )
    return 0


def cmd_abstract(args) -> int:
    from .abstraction import merge_indicators

    g = _read_graph(args.file)
    out = merge_indicators(g)
    if args.format == "dot":
        print(emit_dot(out), end="")
    elif args.format == "json":
        _dump(emit_json(out))
    else:
        print(emit_graph(out), end="")
    return 0


def cmd_compatible(args) -> int:
    from .abstraction import is_compatible

    abstract = _read_graph(args.abstract)
    madmg = _read_graph(args.madmg)
    clustering = _read_graph(args.clustering).clustering if args.clustering else None
    report = is_compatible(madmg, abstract, clustering)
    _dump(
        {
            "compatible": report.compatible,
            "missing_realizations": [list(e) for e in report.missing_realizations],
            "forbidden_edges": [list(e) for e in report.forbidden_edges],
        }
    )
    return 0 if report.compatible else 1


def cmd_enumerate(args) -> int:
    from .abstraction import Budget, enumerate_compatible

    abstract = _read_graph(args.file)
    budget = Budget(args.max_vars, args.max_edges)
    try:
        stream = enumerate_compatible(abstract, budget=budget)
        graphs = list(itertools.islice(stream, args.limit))
    except BudgetTooSmall as exc:
        _dump({"count": 0, "graphs": [], "error": str(exc)})
        return 1
    _dump({"count": len(graphs), "graphs": [emit_json(g) for g in graphs]})
    return 0


def cmd_check_joint(args) -> int:
    from .expressions import latex, render
    from .recovery import check_joint

    g = _read_graph(args.file)
    verdict = check_joint(g)
    if args.format == "latex":
        if verdict.recoverable:
            print(latex(verdict.formula))
        else:
            for v in verdict.violations:
                print(f"% not recoverable: {v.cluster} [{v.reason}] {v.witness.text()}")
    elif args.format == "text":
        print("recoverable" if verdict.recoverable else "not recoverable")
        for v in verdict.violations:
            print(f"  {v.cluster}: {v.reason} via {v.witness.text()}")
        if verdict.formula is not None:
            print(f"  {render(verdict.formula)}")
    else:
        _dump(verdict.to_json())
    return 0 if verdict.recoverable else 1


def cmd_recover_effect(args) -> int:
    from .docalc import NotDerived, recover_effect, residual_masked_symbols
    from .expressions import latex, render

    g = _read_graph(args.file)
    result = recover_effect(g, _split(args.treatment), _split(args.outcome), args.depth)
    if isinstance(result, NotDerived):
        if args.format == "json":
            _dump(result.to_json())
        else:
            print("not derived within depth", result.depth)
        return 1
    if args.format == "latex":
        lines = ["\\begin{align*}"]
        for s in result.steps:
            note = s.rule
            if s.certificate is not None:
                c = s.certificate
                cond = ", ".join(sorted(set(c.z) | set(c.w))) or "\\emptyset"
                note += (
                    f": {', '.join(c.y)} \\perp {', '.join(c.x)} \\mid {cond}"
                    f" \\text{{ in }} G[\\overline{{{ ','.join(c.overline) or '-' }}};"
                    f" \\underline{{{ ','.join(c.underline) or '-' }}}]"
                )
            lines.append(f"&= {latex(s.after)} && \\text{{{note}}} \\\\")
        lines.append("\\end{align*}")
        print("\n".join(lines))
    elif args.format == "text":
        print(render(result.query))
        for i, s in enumerate(result.steps, 1):
            print(f"  [{i}] {s.rule} {dict(s.params)} -> {render(s.after)}")
    else:
        out = result.to_json()
        out["residual_partially_observed"] = list(residual_masked_symbols(g, result.result))
        _dump(out)
    return 0


def cmd_replay(args) -> int:
    from .docalc import Derivation, replay

    g = _read_graph(args.file)
    with open(args.derivation, "r", encoding="utf-8") as fh:
        try:
            d = Derivation.from_json(json.load(fh))
        except (ValueError, LookupError, TypeError, AttributeError, RecursionError) as exc:
            print(f"error: {args.derivation} is not a derivation: {exc!r}", file=sys.stderr)
            return 2
    result = replay(g, d)
    _dump(result.to_json())
    return 0 if result.ok else 1


def cmd_oracle(args) -> int:
    from .abstraction import Budget, enumerate_compatible
    from .docalc import NotDerived, recover_effect
    from .oracle import Grounding, check, random_scm
    from .recovery import check_joint

    abstract = _read_graph(args.file)
    seed = default_seed(args.seed)
    effect = args.query

    if effect is None:
        verdict = check_joint(abstract)
        if not verdict.recoverable:
            _dump({"error": "joint not recoverable on this graph"})
            return 1
        expr = verdict.formula
    else:
        treat, outc = effect
        result = recover_effect(abstract, {treat}, {outc})
        if isinstance(result, NotDerived):
            _dump({"error": "effect not derived on this graph"})
            return 1
        expr = result.result

    graphs = list(
        itertools.islice(
            enumerate_compatible(abstract, budget=Budget(args.max_vars, args.max_edges)),
            args.graphs,
        )
    )
    failures = []
    max_err = 0.0
    for gi, madmg in enumerate(graphs):
        for s in range(args.seeds):
            scm = random_scm(madmg, seed=seed + s)
            grounding = Grounding.from_scm(scm, abstract=abstract)
            _, errors = check(expr, scm, grounding, effect)
            for env_vals, err in sorted(errors.items()):
                max_err = max(max_err, err)
                if err > args.tol:
                    failures.append(
                        {"graph": gi, "seed": seed + s, "cell": [list(v) for v in env_vals], "error": err}
                    )
    _dump(
        {
            "graphs_tested": len(graphs),
            "scms_tested": len(graphs) * args.seeds,
            "max_abs_error": max_err,
            "failures": failures[:50],
        }
    )
    return 0 if not failures else 1


def cmd_simulate(args) -> int:
    import csv

    from .abstraction import enumerate_compatible

    # the oracle before numpy: this order gives the process a lower peak RSS
    from .oracle import exact_tables, random_scm
    import numpy as np

    g = _read_graph(args.file)
    madmg = next(enumerate_compatible(g)) if g.graph_class.clustered else g
    seed = default_seed(args.seed)
    scm = random_scm(madmg, seed=seed)
    _, manifest = exact_tables(scm)
    rng = np.random.default_rng(seed)
    flat = manifest.probs.reshape(-1)
    p = flat / flat.sum()
    # the value a proxy column takes when its variable is missing, per column
    proxies = {scm.proxy_name(v): scm.card(v) for v in scm.variables if scm.masked(v)}
    na_codes = [proxies.get(col) for col in manifest.variables]

    out = open(args.out, "w", newline="") if args.out else contextlib.nullcontext(sys.stdout)
    with out as fh:
        writer = csv.writer(fh)
        writer.writerow(manifest.variables)
        # choice() reads one uniform per row, so drawing block by block
        # yields the same rows as one draw of --rows
        for start in range(0, args.rows, SIMULATE_BLOCK):
            rows = rng.choice(flat.size, size=min(SIMULATE_BLOCK, args.rows - start), p=p)
            idx = np.unravel_index(rows, manifest.probs.shape)
            for record in zip(*(col.tolist() for col in idx)):
                writer.writerow(["NA" if v == na else v for v, na in zip(record, na_codes)])
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="mcdmg",
        description="Recoverability of queries from cluster-level missingness graphs.",
        epilog=_FIXTURE_HINT,
    )
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help_, example):
        sp = sub.add_parser(name, help=help_, epilog=f"example: {example}")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("parse", cmd_parse, "parse and echo a graph file", "mcdmg parse fig2b --format dot")
    sp.add_argument("file")
    sp.add_argument("--format", choices=["json", "dot", "text"], default="json")

    sp = add("validate", cmd_validate, "list invariant violations", "mcdmg validate fig2b")
    sp.add_argument("file")

    sp = add("dsep", cmd_dsep, "d-separation query, optionally on a mutilated graph",
             "mcdmg dsep fig2b --x CY --y R_CY --given CX --overline CX")
    sp.add_argument("file")
    sp.add_argument("--x", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--given", default="")
    sp.add_argument("--overline", default="")
    sp.add_argument("--underline", default="")

    sp = add("abstract", cmd_abstract, "merge variable-level indicators per cluster",
             "mcdmg abstract fig2a")
    sp.add_argument("file")
    sp.add_argument("--format", choices=["text", "json", "dot"], default="text")

    sp = add("compatible", cmd_compatible, "check a variable-level graph against an abstract one",
             "mcdmg compatible fig1c fig1a")
    sp.add_argument("abstract")
    sp.add_argument("madmg")
    sp.add_argument("--clustering", default=None)

    sp = add("enumerate", cmd_enumerate, "stream the compatibility class within a budget",
             "mcdmg enumerate fig1c --max-vars 2 --max-edges 12 --limit 5")
    sp.add_argument("file")
    sp.add_argument("--max-vars", type=_positive_int, default=2)
    sp.add_argument("--max-edges", type=_positive_int, default=12)
    sp.add_argument("--limit", type=_count, default=100)

    sp = add("check-joint", cmd_check_joint, "joint-distribution recoverability verdict",
             "mcdmg check-joint fig2b")
    sp.add_argument("file")
    sp.add_argument("--format", choices=["json", "latex", "text"], default="json")

    sp = add("recover-effect", cmd_recover_effect, "derive a macro causal effect",
             "mcdmg recover-effect fig3 --treatment CX --outcome CY")
    sp.add_argument("file")
    sp.add_argument("--treatment", required=True)
    sp.add_argument("--outcome", required=True)
    sp.add_argument("--depth", type=int, default=12)
    sp.add_argument("--format", choices=["json", "latex", "text"], default="json")

    sp = add("replay", cmd_replay, "re-verify a derivation proof object on a graph",
             "mcdmg replay fig2b derivation.json")
    sp.add_argument("file")
    sp.add_argument("derivation")

    sp = add("oracle", cmd_oracle, "exhaustive SCM check of a verdict or derivation",
             "mcdmg oracle fig2b --graphs 5 --seeds 10 --query joint")
    sp.add_argument("file")
    sp.add_argument("--max-vars", type=_positive_int, default=2)
    sp.add_argument("--max-edges", type=_positive_int, default=12)
    sp.add_argument("--graphs", type=_positive_int, default=20)
    sp.add_argument("--seeds", type=_positive_int, default=100)
    sp.add_argument("--seed", type=_count, default=None)
    sp.add_argument("--tol", type=_tolerance, default=1e-9)
    sp.add_argument("--query", type=_query, default="joint",
                    help="'joint' or 'effect:<CX>:<CY>'")

    sp = add("simulate", cmd_simulate, "sample a dataset with NA cells from a seeded SCM",
             "mcdmg simulate fig1a --rows 20 --seed 1")
    sp.add_argument("file")
    sp.add_argument("--rows", type=_count, default=100)
    sp.add_argument("--seed", type=_count, default=None)
    sp.add_argument("--out", default=None)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (McdmgError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
