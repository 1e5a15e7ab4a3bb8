"""Layered benchmark of mcdmg: four closed-loop workloads, end to end and per layer.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload derive --seed 1 --seconds 30 --trace 0

Each workload runs in a fresh interpreter, on one CPU, with ``src`` on the
path and BLAS thread pools capped at ``nproc``; one client issues one op
after another.
``--trace 0`` measures the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracing.py``). The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give the environment, the failures, the known defects met,
and the input properties of the run. Exit status is 0 when the run
completed, also when ops failed their checks (``correct`` is then false); 1
when a worker crashed or ran out of time; 2 when the program under test is
missing.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 5  # set-ups per untraced run; setup_s is their median
TIME_LIMIT_S = 170  # a run that is not done by then fails
WORKLOADS = ("oracle_joint", "oracle_effect", "derive", "cli_cold")
# per-op component(s) each workload is expected to spend most time in
EXPECTED = {
    "oracle_joint": ("oracle.eval",),
    "oracle_effect": ("oracle.tables",),
    "derive": ("separation", "expressions", "docalc"),
    "cli_cold": ("cli.import",),
}


def child_env(seed: int, nproc: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = str(seed % 2**32)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(nproc)
    return env


def spawn(args, mode: str, env: dict, workdir: Path, deadline: float) -> dict:
    """Run the worker once; its last stdout line is its result.

    ``setup`` is the set-up time as (scaled to the reference host, raw wall).
    """
    cal = speed.calibrate()
    spawned_at = time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--mode", mode, "--spawned-at", repr(spawned_at), "--root", str(ROOT), "--workdir", str(workdir),
    ]
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=max(1.0, deadline - spawned_at))
    except subprocess.TimeoutExpired:
        raise SystemExit(f"worker ({mode}) did not finish within the run's time limit") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker ({mode}) exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    wall = res["ready"] - spawned_at
    res["setup"] = (wall * speed.scale(cal, res["cal"]), wall)
    return res


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def whole_passes(values: list, pass_size: int) -> list:
    """The values of complete passes, so that every run measures the same input mix."""
    n = len(values)
    return values[: n - n % pass_size] if n >= pass_size else values


def latency_metrics(lat: list) -> tuple:
    p90 = statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else lat[0]
    return len(lat) / sum(lat), statistics.median(lat) * 1e3, p90 * 1e3


def end_to_end(res: dict, setups: list) -> tuple:
    raw = whole_passes(res["latencies"], res["pass_size"])
    scaled = [lat * f for lat, f in zip(raw, res["scales"])]
    ops_per_s, p50, p90 = latency_metrics(scaled)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (p50, "ms"),
        "op_p90_ms": (p90, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    raw_ops, raw_p50, raw_p90 = latency_metrics(raw)
    factors = statistics.quantiles(res["scales"], n=4) if len(res["scales"]) > 1 else res["scales"] * 3
    note = (
        f"latency samples: {len(raw)} ops in {len(raw) // res['pass_size']} whole passes of "
        f"{res['pass_size']}, {len(raw) - int(0.9 * len(raw))} beyond p90\n"
        f"raw wall: setup_s {statistics.median(r for _, r in setups):.4g} s, ops_per_s {raw_ops:.4g} 1/s, "
        f"op_p50_ms {raw_p50:.4g} ms, op_p90_ms {raw_p90:.4g} ms; host speed factor quartiles "
        + " ".join(f"{f:.3f}" for f in factors)
        + f"\nsetup_s is the median of {[round(s, 4) for s, _ in setups]}"
    )
    return metrics, note


def per_layer(workload: str, res: dict) -> tuple:
    from tracing import LAYERS, Profile

    tr = res["trace"]
    prof, setup = Profile.from_json(tr["profile"]), Profile.from_json(tr["setup"])
    n = tr["ops"]
    c = prof.counts
    cli = tr.get("cli")
    startup = statistics.mean(cli["startup_s"]) if cli else res["startup_s"]
    import_s = statistics.mean(cli["import_s"]) if cli else res["import_s"]
    wall = tr["traced_s"] / n
    rule_checks = c["rule_checks"] + c["replay_rule_checks"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "cli.startup_s": (startup, "s"),
        "cli.import_s": (import_s, "s"),
        "cli.main_s": (prof.inclusive_s["cli.main"] / n, "s/op"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (prof.self_s[layer] / n, "s/op")
    harness = wall - prof.covered_s / n - ((startup + import_s) if cli else 0.0)
    m.update({
        "harness.self_s": (harness, "s/op"),
        "trace.wall_s": (wall, "s/op"),
        "trace_overhead": (tr["traced_s"] / tr["untraced_s"] - 1.0, "ratio"),
        "gfiles.calls": (prof.calls["gfiles"] / n, "1/op"),
        "graphs.calls": (prof.calls["graphs"] / n, "1/op"),
        "separation.dsep_calls": (c["dsep_calls"] / n, "1/op"),
        "separation.mutilate_calls": (c["mutilate_calls"] / n, "1/op"),
        "expressions.canonical_calls": (c["canonical_calls"] / n, "1/op"),
        "docalc.search_s": (prof.inclusive_s["docalc.search"] / n, "s/op"),
        "docalc.replay_s": (prof.inclusive_s["docalc.replay"] / n, "s/op"),
        "docalc.rule_checks": (c["rule_checks"] / n, "1/op"),
        "docalc.rule_hold_ratio": (ratio(c["rule_holds"], rule_checks), "ratio"),
        "docalc.replay_rule_checks": (c["replay_rule_checks"] / n, "1/op"),
        "docalc.states_explored": (c["states_explored"] / n, "1/op"),
        "docalc.not_derived_share": (ratio(c["not_derived"], c["effect_queries"]), "ratio"),
        "recovery.recoverable_share": (ratio(c["recoverable"], c["joint_checks"]), "ratio"),
        "abstraction.graphs_enumerated": (c["yield:enumerate_compatible"] / n, "1/op"),
        "oracle.scm_s": (prof.self_s["oracle.scm"] / n, "s/op"),
        "oracle.tables_s": (prof.self_s["oracle.tables"] / n, "s/op"),
        "oracle.eval_s": (prof.self_s["oracle.eval"] / n, "s/op"),
        "oracle.do_tables": (c["do_tables"] / n, "1/op"),
        "oracle.cells_checked": (c["cells_checked"] / n, "1/op"),
        "oracle.table_cells": (c["table_cells"] / n, "1/op"),
        "setup.wall_s": (tr["setup_wall_s"], "s"),
    })
    for layer in LAYERS:
        m[f"setup.{layer}.self_s"] = (setup.self_s[layer], "s")
    m["setup.harness.self_s"] = (tr["setup_wall_s"] - setup.covered_s, "s")
    m["setup.graphs_enumerated"] = (setup.counts["yield:enumerate_compatible"], "count")

    # per-op components of the traced wall; the expected one should be largest
    parts = {layer: prof.self_s[layer] / n for layer in LAYERS if layer not in ("oracle", "cli")}
    for group in ("scm", "tables", "eval"):
        parts[f"oracle.{group}"] = prof.self_s[f"oracle.{group}"] / n
    parts["oracle.other"] = (prof.self_s["oracle"] - sum(prof.self_s[f"oracle.{g}"] for g in ("scm", "tables", "eval"))) / n
    parts["cli.self"] = prof.self_s["cli"] / n
    if cli:
        parts["cli.startup"], parts["cli.import"] = startup, import_s
    parts["harness"] = harness
    expected = EXPECTED[workload]
    share = sum(parts[p] for p in expected) / wall
    others = max(v for p, v in parts.items() if p not in expected) / wall
    m["expected_layer.share"] = (share, "ratio")
    m["expected_layer.dominates"] = (float(share > others), "bool")
    top = sorted(parts.items(), key=lambda kv: -kv[1])[:5]
    note = (
        f"traced ops: {n}; per op {wall * 1e3:.3f} ms = layers + harness "
        f"({sum(parts.values()) * 1e3:.3f} ms accounted); expected {'+'.join(expected)} "
        f"{'dominates' if share > others else 'does NOT dominate'} at {share:.1%} "
        f"(largest other {others:.1%}); top: "
        + ", ".join(f"{p} {v / wall:.1%}" for p, v in top)
    )
    if tr.get("missing"):
        note += f"; not traced (gone from the package): {tr['missing']}"
    return {name: (float(value), unit) for name, (value, unit) in m.items()}, note


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "mcdmg" / "__init__.py").is_file():
        print(f"error: no mcdmg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = child_env(args.seed, nproc)
    workdir = ROOT / ".bench_build" / f"mcdmg-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        if args.trace:
            res = spawn(args, "trace", env, workdir, deadline)
            metrics, note = per_layer(args.workload, res)
        else:
            res = spawn(args, "measure", env, workdir, deadline)
            setups = [res["setup"]] + [spawn(args, "setup", env, workdir, deadline)["setup"] for _ in range(SETUP_RUNS - 1)]
            metrics, note = end_to_end(res, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "nproc": nproc,
        "thread_cap": nproc,
        "commit": commit(),
    }
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        info["why"] = next(w["why"] for w in bench["workloads"] if w["name"] == args.workload)
    except (OSError, ValueError, KeyError, StopIteration):
        pass
    print("run " + json.dumps(info, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(note)
    attempted, failed = res["attempted"], res["failed"]
    print(f"ops: {attempted} attempted, {failed} failed (fail_ratio {failed / attempted:.4g})")
    for message in res["failures"]:
        print(f"failed: {message}")
    for label, count in sorted(res["known_defects"].items()):
        print(f"known defect, reproduced as documented: {label} ({count} ops)")
    print("properties " + json.dumps(res["properties"], sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
