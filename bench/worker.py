"""One workload in a fresh interpreter: set-up, then a closed loop of ops.

Started by ``run.py``, never by hand. Modes:

- ``setup``: set up, print the moment set-up ended, exit;
- ``measure``: set up, then run ops untraced for ``--seconds``;
- ``trace``: set up traced, then run each op twice, untraced and traced,
  until ``--seconds`` have passed.

The last line of standard output is one JSON object for ``run.py``.
"""

import time

T_ENTRY = time.monotonic()

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
from tracing import Profile, Tracer  # noqa: E402


def run_op(wl, k, tracer=None, profile=None, cli_trace=None):
    """Run and check op ``k``; returns its latency and outcome.

    The outcome is None (passed), ``("known", label)`` or ``("failed", message)``.
    """
    clock = time.perf_counter
    if tracer is not None:
        tracer.on = True
    t0 = clock()
    try:
        result, exc = wl.op(k), None
    except Exception as e:  # an op that raises is a failed op, not a crash
        result, exc = None, e
    t1 = clock()
    if tracer is not None:
        tracer.on = False
        profile.add(tracer.collect())
    if cli_trace is not None and exc is None:
        startup, import_s, prof = wl.take_trace()
        cli_trace["startup_s"].append(startup)
        cli_trace["import_s"].append(import_s)
        profile.add(Profile.from_json(prof))
    if exc is not None:
        return t1 - t0, ("failed", f"op {k}: {type(exc).__name__}: {exc}")
    try:
        errors, known = wl.check(k, result)
    except Exception as e:  # output the check cannot read is a failed op
        errors, known = [f"check raised {type(e).__name__}: {e}"], None
    if errors:
        return t1 - t0, ("failed", f"op {k}: " + "; ".join(errors[:3]))
    return t1 - t0, ("known", known) if known else None


def peak_rss_mb(in_process: bool) -> float:
    """Peak RSS of the process running mcdmg: this one, or the largest CLI child.

    Read when the first pass ends, so that it covers the same work however
    many ops a run completes: allocator fragmentation makes it creep up by
    about 1.5 KB per op.
    """
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


def set_traced(wl, tracer, on: bool) -> None:
    """Traced ops: wrappers installed in-process, or the traced CLI launcher."""
    if tracer is None:
        wl.traced = on
    elif on:
        tracer.reinstall()
    else:
        tracer.uninstall()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    # one CPU for this process and the CLI processes it starts, so that the
    # speed calibration between ops measures the load the ops ran under
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    in_process = args.workload != "cli_cold"
    startup_s = T_ENTRY - args.spawned_at

    import_s = 0.0
    tracer = None
    if in_process:
        t0 = time.perf_counter()
        import mcdmg  # noqa: F401

        import_s = time.perf_counter() - t0
        if args.mode == "trace":
            tracer = Tracer()
            tracer.install()
            tracer.on = True

    import workloads

    t_setup = time.perf_counter()
    wl = workloads.make(args.workload, args.seed, Path(args.workdir), Path(args.root))
    ready = time.monotonic()
    out = {"ready": ready, "cal": speed.calibrate(), "startup_s": startup_s, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    latencies, scales, outcomes, trace = [], [], [], {}
    rss_mb = None
    if args.mode == "measure":
        clock = time.perf_counter
        deadline = clock() + args.seconds
        cal, cal_at = speed.calibrate(), clock()
        for k in itertools.count():
            latency, outcome = run_op(wl, k)
            latencies.append(latency)
            outcomes.append(outcome)
            if k + 1 == wl.pass_size:
                rss_mb = peak_rss_mb(in_process)
            done = clock() >= deadline
            if done or clock() - cal_at >= speed.CAL_EVERY_S:
                cal_next = speed.calibrate()
                scales += [speed.scale(cal, cal_next)] * (len(latencies) - len(scales))
                cal, cal_at = cal_next, clock()
            if done:
                break
    else:
        # each op runs untraced, then traced, so drift affects both alike
        trace["setup_wall_s"] = time.perf_counter() - t_setup
        trace["setup"] = (tracer.collect() if tracer else Profile()).to_json()
        if tracer:
            tracer.on = False
            trace["missing"] = tracer.missing
        set_traced(wl, tracer, False)
        profile, cli_trace = Profile(), None if tracer else {"startup_s": [], "import_s": []}
        trace["cli"] = cli_trace
        untraced, traced = [], []
        deadline = time.perf_counter() + args.seconds
        for k in itertools.count():
            latency, outcome = run_op(wl, k)
            untraced.append(latency)
            outcomes.append(outcome)
            set_traced(wl, tracer, True)
            latency, outcome = run_op(wl, k, tracer, profile, cli_trace)
            set_traced(wl, tracer, False)
            traced.append(latency)
            outcomes.append(outcome)
            if time.perf_counter() >= deadline:
                break
        latencies = untraced
        trace.update(untraced_s=sum(untraced), traced_s=sum(traced), ops=len(traced), profile=profile.to_json())

    failures = [o[1] for o in outcomes if o and o[0] == "failed"]
    out.update(
        latencies=latencies,
        scales=scales,
        pass_size=wl.pass_size,
        attempted=len(outcomes),
        failed=len(failures),
        failures=failures[:10],
        known_defects=dict(Counter(o[1] for o in outcomes if o and o[0] == "known")),
        peak_rss_mb=rss_mb or peak_rss_mb(in_process),
        properties=wl.properties(),
        trace=trace,
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
