"""Outside-in tracing of mcdmg, from the benchmark's own files.

Every plain function exported by ``mcdmg.__all__``, plus a few named extras,
is replaced by a timing wrapper in every ``mcdmg.*`` namespace that binds it,
so calls between the package's modules are seen too. Spans (function, start,
end, parent) are kept in memory per op with their parent links; a layer's
self time is its spans' durations minus the part covered by child spans.
Counters are read from arguments and return values only, never from inside
the program.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "cli",
    "fixtures",
    "gfiles",
    "graphs",
    "separation",
    "expressions",
    "docalc",
    "recovery",
    "abstraction",
    "oracle",
)

# Traced besides mcdmg.__all__: the evaluator the oracle loops call, the
# grounding step of criterion 3, and extended_table, which makes one table per
# `do` assignment; without it, tables made inside evaluate_interventional
# would count as evaluation time. A name that no longer exists is skipped and
# listed in `Tracer.missing`.
EXTRAS = (
    ("mcdmg.oracle", "evaluate_all"),
    ("mcdmg.oracle", "extended_table"),
    ("mcdmg.oracle", "Grounding.from_scm"),
)

ORACLE_GROUPS = {
    "random_scm": "scm",
    "equal_manifest_pair": "scm",
    "exact_tables": "tables",
    "interventional_table": "tables",
    "extended_table": "tables",
    "evaluate": "eval",
    "evaluate_all": "eval",
    "evaluate_interventional": "eval",
}


def _resolve(modname: str, dotted: str):
    obj = sys.modules.get(modname)
    owner = None
    for part in dotted.split("."):
        if obj is None:
            return None, None
        owner, obj = obj, getattr(obj, part, None)
    return owner, obj


class Tracer:
    """Span recorder with per-op aggregation by layer."""

    def __init__(self):
        self.on = False
        self.fids = array("i")
        self.parents = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = []
        self.names = []  # fid -> (layer, function name)
        self.counters = Counter()
        self.tables = {}  # id(table) -> cells, distinct tables of this op
        self.do_keys = set()
        self.missing = []
        self._patches = []  # (owner, attribute, original, wrapper)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the targets in every loaded mcdmg namespace that binds them."""
        import mcdmg

        targets = {}
        for name in mcdmg.__all__:
            fn = getattr(mcdmg, name)
            if inspect.isfunction(fn):
                targets[fn] = (fn.__module__, fn.__name__)
        for modname, dotted in EXTRAS:
            owner, fn = _resolve(modname, dotted)
            if fn is None:
                self.missing.append(f"{modname}.{dotted}")
                continue
            if inspect.isclass(owner):
                raw = inspect.getattr_static(owner, dotted.rsplit(".", 1)[1])
                wrapped = self._wrap(fn, modname, fn.__name__)
                patched = staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped
                self._patch(owner, dotted.rsplit(".", 1)[1], raw, patched)
                continue
            targets[fn] = (modname, fn.__name__)
        wrappers = {fn: self._wrap(fn, mod, name) for fn, (mod, name) in targets.items()}
        for modname, module in sorted(sys.modules.items()):
            if modname != "mcdmg" and not modname.startswith("mcdmg."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, value, wrappers[value])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    def reinstall(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def fid(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        return len(self.names) - 1

    def _wrap(self, fn, modname: str, name: str):
        layer = modname.split(".")[1] if "." in modname else "mcdmg"
        fid = self.fid(layer, name)
        hook = _HOOKS.get(name)
        tracer = self
        clock = time.perf_counter

        # a function that returns an iterator does its work as the caller
        # pulls items, so each resume is timed as a span of that function
        streams = inspect.isgeneratorfunction(fn) or "Iterator" in str(
            inspect.signature(fn).return_annotation
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            idx = tracer.open(fid, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx, clock())
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return tracer._iterate(result, fid) if streams else result

        return wrapper

    def _iterate(self, gen, fid):
        """Time each resume of a returned iterator as a span of its function."""
        clock = time.perf_counter
        while True:
            idx = self.open(fid, clock()) if self.on else -1
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                if idx >= 0:
                    self.close(idx, clock())
            if self.on:
                self.counters[f"yield:{self.names[fid][1]}"] += 1
            yield item

    def open(self, fid: int, t0: float) -> int:
        idx = len(self.fids)
        self.fids.append(fid)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.t0.append(t0)
        self.t1.append(t0)
        self.stack.append(idx)
        return idx

    def close(self, idx: int, t1: float) -> None:
        self.t1[idx] = t1
        self.stack.pop()

    def call(self, layer: str, name: str, fn, *args):
        """Run ``fn(*args)`` as one span of the given layer (e.g. cli.main)."""
        fid = self.fid(layer, name)
        idx = self.open(fid, time.perf_counter())
        try:
            return fn(*args)
        finally:
            self.close(idx, time.perf_counter())

    def inside(self, name: str) -> bool:
        return any(self.names[self.fids[i]][1] == name for i in self.stack)

    # -- aggregation -------------------------------------------------------

    def collect(self) -> "Profile":
        """Fold the spans recorded since the last call into a Profile and clear them."""
        prof = Profile()
        n = len(self.fids)
        child = [0.0] * n
        fids, parents, t0, t1, names = self.fids, self.parents, self.t0, self.t1, self.names
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += t1[i] - t0[i]
        under_replay = [False] * n
        for i in range(n):
            layer, name = names[fids[i]]
            dur = t1[i] - t0[i]
            p = parents[i]
            parent_name = names[fids[p]][1] if p >= 0 else None
            under_replay[i] = name == "replay" or (p >= 0 and under_replay[p])
            prof.self_s[layer] += dur - child[i]
            prof.calls[layer] += 1
            if p < 0:
                prof.covered_s += dur
            if layer == "oracle":
                prof.self_s["oracle." + ORACLE_GROUPS.get(name, "other")] += dur - child[i]
            if name == "recover_effect" and not under_replay[i]:
                prof.inclusive_s["docalc.search"] += dur
            elif name == "replay" and not (p >= 0 and under_replay[p]):
                prof.inclusive_s["docalc.replay"] += dur
            elif name == "main" and layer == "cli":
                prof.inclusive_s["cli.main"] += dur
            elif name == "rule_applicable":
                prof.counts["replay_rule_checks" if under_replay[i] else "rule_checks"] += 1
            elif name == "mutilate":
                prof.counts["mutilate_calls"] += 1
            elif name == "d_separated" or (name == "active_path" and parent_name != "d_separated"):
                prof.counts["dsep_calls"] += 1
            elif name == "canonical" and parent_name != "canonical":
                prof.counts["canonical_calls"] += 1
        prof.counts.update(self.counters)
        prof.counts["table_cells"] += sum(self.tables.values())
        prof.counts["do_tables"] += len(self.do_keys)
        for arr in (self.fids, self.parents, self.t0, self.t1):
            del arr[:]
        self.counters.clear()
        self.tables.clear()
        self.do_keys.clear()
        return prof


class Profile:
    """Aggregated self times, inclusive times and counts of one or more ops."""

    def __init__(self):
        self.self_s = Counter()
        self.inclusive_s = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.covered_s = 0.0

    def add(self, other: "Profile") -> None:
        self.self_s.update(other.self_s)
        self.inclusive_s.update(other.inclusive_s)
        self.calls.update(other.calls)
        self.counts.update(other.counts)
        self.covered_s += other.covered_s

    def to_json(self) -> dict:
        return {
            "self_s": dict(self.self_s),
            "inclusive_s": dict(self.inclusive_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "covered_s": self.covered_s,
        }

    @staticmethod
    def from_json(d: dict) -> "Profile":
        p = Profile()
        p.self_s.update(d["self_s"])
        p.inclusive_s.update(d["inclusive_s"])
        p.calls.update(d["calls"])
        p.counts.update(d["counts"])
        p.covered_s = d["covered_s"]
        return p


# -- counters read from return values ------------------------------------------


def _rule_applicable(tr, args, kwargs, cert):
    tr.counters["rule_holds"] += bool(cert.holds)


def _recover_effect(tr, args, kwargs, result):
    tr.counters["effect_queries"] += 1
    if hasattr(result, "states_explored"):
        tr.counters["not_derived"] += 1
        tr.counters["states_explored"] += result.states_explored


def _check_joint(tr, args, kwargs, verdict):
    tr.counters["joint_checks"] += 1
    tr.counters["recoverable"] += bool(verdict.recoverable)


def _record_tables(tr, tables):
    for t in tables:
        tr.tables[id(t)] = t.probs.size


def _exact_tables(tr, args, kwargs, result):
    _record_tables(tr, result)


def _do_table(tr, args, kwargs, table):
    _record_tables(tr, (table,))
    do = args[1] if len(args) > 1 else kwargs.get("do", ())
    if do:
        tr.do_keys.add((id(args[0]), tuple(sorted(dict(do).items()))))


def _evaluate_all(tr, args, kwargs, result):
    tr.counters["cells_checked"] += len(result[1])


def _evaluate_one(tr, args, kwargs, result):
    if not tr.inside("evaluate_all"):
        tr.counters["cells_checked"] += 1


_HOOKS = {
    "rule_applicable": _rule_applicable,
    "recover_effect": _recover_effect,
    "check_joint": _check_joint,
    "exact_tables": _exact_tables,
    "interventional_table": _do_table,
    "extended_table": _do_table,
    "evaluate_all": _evaluate_all,
    "evaluate": _evaluate_one,
    "evaluate_interventional": _evaluate_one,
}
