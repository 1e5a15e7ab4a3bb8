"""The four benchmark workloads: set-up, one timed op, and its correctness check.

Each workload is a closed loop run by one client: op ``k`` starts only after
op ``k - 1`` has finished and been checked. ``op`` is the timed region;
``check`` runs outside it and returns ``(errors, known_defect)``: an op fails
when it raised or ``errors`` is non-empty, and ``known_defect`` names a
documented defect (ROADMAP item 2) that the op reproduced as documented.

Ops come in passes of ``pass_size``. A pass visits every input of the
workload once, in a seeded order, so a statistic taken over whole passes
measures the same mix of inputs on every run.

The in-process workloads reach mcdmg only through module attributes looked up
at call time (``mcdmg.oracle.evaluate_all``), so the tracer's wrappers see
every call.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

from inputs import FIXTURES, malformed_inputs, random_cluster_graph

TOL = 1e-9
DERIVE_DEPTH = 5
DERIVE_CORPUS = 120  # random graphs per pass, besides the six fixtures
ORACLE_GRAPHS = 20


def _shares(counter: Counter) -> dict:
    """Share of ops per value of each ``property=value`` key."""
    totals = Counter()
    for key, v in counter.items():
        totals[key.split("=")[0]] += v
    return {key: v / totals[key.split("=")[0]] for key, v in sorted(counter.items())}


def _do_free(expr) -> bool:
    import mcdmg

    return all(not t.do for t in mcdmg.expressions.terms_of(expr))


def _cluster_env(refs, grounding):
    for values in itertools.product(*(grounding.domain(r) for r in refs)):
        yield dict(zip(refs, values))


class SeededPasses:
    """Maps op k to an input index; each pass visits every input once, in a seeded order."""

    def __init__(self, n: int, seed: int):
        self.n, self.rng, self.order = n, random.Random(seed), []

    def __call__(self, k: int) -> int:
        while len(self.order) <= k:
            block = list(range(self.n))
            self.rng.shuffle(block)
            self.order += block
        return self.order[k]


class OracleJoint:
    """Criterion 3: fig2b's joint formula against the true joint, one SCM per op."""

    pass_size = ORACLE_GRAPHS

    def __init__(self, seed: int, workdir: Path):
        import mcdmg

        self.seed = seed
        self.g = mcdmg.parse_graph(mcdmg.fixture_text("fig2b"))
        self.formula = mcdmg.check_joint(self.g).formula
        budget = mcdmg.Budget(2, 10)
        self.graphs = list(itertools.islice(mcdmg.enumerate_compatible(self.g, budget=budget), ORACLE_GRAPHS))
        if len(self.graphs) < ORACLE_GRAPHS:
            raise RuntimeError(f"fig2b has only {len(self.graphs)} compatible graphs")
        self.props = Counter()

    def input_of(self, k: int) -> int:
        return k % ORACLE_GRAPHS

    def op(self, k: int):
        import mcdmg

        scm = mcdmg.random_scm(self.graphs[k % ORACLE_GRAPHS], seed=self.seed + k // ORACLE_GRAPHS)
        joint, manifest = mcdmg.exact_tables(scm)
        grounding = mcdmg.Grounding.from_scm(scm, abstract=self.g)
        atoms, cells = mcdmg.oracle.evaluate_all(self.formula, manifest, grounding)
        return scm, joint, manifest, grounding, atoms, cells

    def check(self, k: int, result):
        scm, joint, manifest, grounding, atoms, cells = result
        self.props[f"manifest_cells={manifest.probs.size}"] += 1
        self.props[f"latents={len(scm.latents)}"] += 1
        errors = []
        if not cells:
            errors.append("no cells evaluated")
        for env_vals, got in cells.items():
            assign = {}
            for a, vals in zip(atoms, env_vals):
                assign.update(zip(grounding.members(a.ref), vals))
            err = abs(got - joint.prob(assign))
            if not err <= TOL:
                errors.append(f"cell {env_vals}: error {err:.3e}")
        return errors, None

    def properties(self) -> dict:
        return {"shares": _shares(self.props)}


class OracleEffect:
    """Derived CX->CY formulas of fig2a, fig2b and fig3 against interventional truth."""

    FIGS = ("fig2a", "fig2b", "fig3")
    pass_size = len(FIGS) * ORACLE_GRAPHS

    def __init__(self, seed: int, workdir: Path):
        import mcdmg

        self.seed = seed
        self.cases = []
        budget = mcdmg.Budget(2, 10)
        for name in self.FIGS:
            g = mcdmg.parse_graph(mcdmg.fixture_text(name))
            d = mcdmg.recover_effect(g, {"CX"}, {"CY"})
            if not isinstance(d, mcdmg.Derivation):
                raise RuntimeError(f"{name}: CX->CY not derived")
            graphs = list(itertools.islice(mcdmg.enumerate_compatible(g, budget=budget), ORACLE_GRAPHS))
            if len(graphs) < ORACLE_GRAPHS:
                raise RuntimeError(f"{name} has only {len(graphs)} compatible graphs")
            self.cases.append((name, g, d, graphs))
        self.props = Counter()

    def input_of(self, k: int) -> int:
        return k % self.pass_size

    def _case(self, k: int):
        case = self.cases[k % len(self.FIGS)]
        madmg = case[3][(k // len(self.FIGS)) % ORACLE_GRAPHS]
        return case, madmg, self.seed + k // self.pass_size

    def op(self, k: int):
        import mcdmg

        (name, g, d, _), madmg, seed = self._case(k)
        scm = mcdmg.random_scm(madmg, seed=seed)
        _, manifest = mcdmg.exact_tables(scm)
        grounding = mcdmg.Grounding.from_scm(scm, abstract=g)
        atoms, cells = mcdmg.oracle.evaluate_all(d.result, manifest, grounding)
        members = grounding.members("CX")
        truth = {
            tv: mcdmg.interventional_table(scm, dict(zip(members, tv)), grounding.clustering)
            for tv in grounding.domain("CX")
        }
        steps = []
        for step in d.steps:
            pair = []
            for expr in (step.before, step.after):
                free = mcdmg.oracle.free_atoms(expr)
                refs = sorted({a.ref for a in free})
                vals = {}
                for env_by_ref in _cluster_env(refs, grounding):
                    env = {a: env_by_ref[a.ref] for a in free}
                    key = tuple(env_by_ref[r] for r in refs)
                    vals[key] = mcdmg.evaluate_interventional(expr, scm, grounding, env)
                pair.append((refs, vals))
            steps.append(pair)
        return scm, manifest, grounding, atoms, cells, truth, steps

    def check(self, k: int, result):
        (name, g, d, _), _, _ = self._case(k)
        scm, manifest, grounding, atoms, cells, truth, steps = result
        self.props[f"graph={name}"] += 1
        self.props[f"manifest_cells={manifest.probs.size}"] += 1
        self.props[f"latents={len(scm.latents)}"] += 1
        self.props[f"masked={sum(scm.masked(v) for v in scm.variables)}"] += 1
        errors = []
        if not cells:
            errors.append("no cells evaluated")
        for env_vals, got in cells.items():
            tv, assign = None, {}
            for a, vals in zip(atoms, env_vals):
                if a.ref == "CX":
                    tv = vals
                else:
                    assign.update(zip(grounding.members(a.ref), vals))
            err = abs(got - truth[tv].prob(assign))
            if not err <= TOL:
                errors.append(f"{name} cell {env_vals}: error {err:.3e}")
        for i, ((refs_b, before), (refs_a, after)) in enumerate(steps, 1):
            if refs_b != refs_a or before.keys() != after.keys():
                errors.append(f"{name} step {i}: free clusters differ")
                continue
            worst = max(abs(before[key] - after[key]) for key in before)
            if not worst <= TOL:
                errors.append(f"{name} step {i}: error {worst:.3e}")
        return errors, None

    def properties(self) -> dict:
        return {"shares": _shares(self.props)}


class Derive:
    """Decide joint recoverability and one macro effect per graph; no oracle work."""

    # fixture -> (treatment, outcome); the variable-level fixtures are promoted
    # to cluster graphs with one cluster per variable
    FIXTURE_QUERIES = {
        "fig1a": ("X1", "Y2"),
        "fig1b": ("X1", "Y2"),
        "fig1c": ("CX", "CY"),
        "fig2a": ("CX", "CY"),
        "fig2b": ("CX", "CY"),
        "fig3": ("CX", "CY"),
    }
    # verdicts stated by the paper's figures
    GOLDEN_JOINT = {"fig2a": True, "fig2b": True, "fig3": False}
    GOLDEN_DERIVED = ("fig2b", "fig3")
    pass_size = len(FIXTURES) + DERIVE_CORPUS

    def __init__(self, seed: int, workdir: Path):
        import mcdmg

        self.items = []
        for name in FIXTURES:
            t, o = self.FIXTURE_QUERIES[name]
            self.items.append({"name": name, "text": mcdmg.fixture_text(name), "treatment": t, "outcome": o})
        for i in range(DERIVE_CORPUS):
            self.items.append(random_cluster_graph(i, seed * DERIVE_CORPUS + i))
        self.input_of = SeededPasses(len(self.items), seed)
        self.props = Counter()

    def _item(self, k: int) -> dict:
        return self.items[self.input_of(k)]

    def op(self, k: int):
        import mcdmg

        item = self._item(k)
        g = mcdmg.parse_graph(item["text"])
        if g.graph_class in (mcdmg.GraphClass.ADMG, mcdmg.GraphClass.MADMG):
            g = mcdmg.as_cluster_graph(g)
        out = {"g": g, "verdict": None, "witness": None, "report": None, "witness_error": None}
        if g.graph_class in (mcdmg.GraphClass.MCDMG, mcdmg.GraphClass.CMCDMG):
            verdict = out["verdict"] = mcdmg.check_joint(g)
            if not verdict.recoverable:
                try:
                    out["witness"] = mcdmg.construct_witness(g, verdict.violations[0])
                except KeyError as exc:
                    out["witness_error"] = exc
                else:
                    out["report"] = mcdmg.is_compatible(out["witness"], g)
        result = out["result"] = mcdmg.recover_effect(g, {item["treatment"]}, {item["outcome"]}, depth=DERIVE_DEPTH)
        out["replay"] = mcdmg.replay(g, result) if isinstance(result, mcdmg.Derivation) else None
        return out

    def check(self, k: int, out):
        import mcdmg

        item = self._item(k)
        name, g, verdict, result = item["name"], out["g"], out["verdict"], out["result"]
        self.props[f"class={g.graph_class.value}"] += 1
        errors, known = [], None
        if verdict is not None:
            self.props["joint_checked"] += 1
            self.props["recoverable"] += verdict.recoverable
            if name in self.GOLDEN_JOINT and verdict.recoverable != self.GOLDEN_JOINT[name]:
                errors.append(f"{name}: joint verdict {verdict.recoverable}")
            if verdict.recoverable and not _do_free(verdict.formula):
                errors.append(f"{name}: recovery formula has a do-term")
            if not verdict.recoverable:
                if out["witness_error"] is not None:
                    # ROADMAP item 2 candidate: on an m-c-dmg, construct_witness keeps
                    # indicators whose owner is not among the witness's representatives
                    if g.graph_class is mcdmg.GraphClass.MCDMG:
                        known = "construct_witness KeyError on m-c-dmg"
                    else:
                        errors.append(f"{name}: construct_witness raised {out['witness_error']!r}")
                elif not out["report"].compatible:
                    errors.append(f"{name}: witness is not compatible")
        if isinstance(result, mcdmg.Derivation):
            self.props["derived"] += 1
            if not out["replay"].ok:
                errors.append(f"{name}: replay failed at step {out['replay'].failed_at}")
            if not _do_free(result.result):
                errors.append(f"{name}: derived formula has a do-term")
            for i, step in enumerate(result.steps, 1):
                c = step.certificate
                if c is None:
                    continue
                cut = mcdmg.mutilate(g, mcdmg.MutilationSpec.of(c.overline, c.underline))
                by_paths = mcdmg.d_separated_by_paths(cut, set(c.y), set(c.x), set(c.z) | set(c.w))
                if not (c.holds and by_paths):
                    errors.append(f"{name} step {i}: certificate {c.holds}, path oracle {by_paths}")
        else:
            self.props["not_derived"] += 1
            if name in self.GOLDEN_DERIVED:
                errors.append(f"{name}: CX->CY not derived")
            if result.states_explored < 1:
                errors.append(f"{name}: NotDerived explored no state")
        return errors, known

    def properties(self) -> dict:
        p = self.props
        effects = p["derived"] + p["not_derived"]
        return {
            "shares": _shares(Counter({k: v for k, v in p.items() if k.startswith("class=")})),
            "recoverable_share": p["recoverable"] / p["joint_checked"] if p["joint_checked"] else 0.0,
            "not_derived_share": p["not_derived"] / effects if effects else 0.0,
        }


# -- cli_cold -----------------------------------------------------------------

SCHEMAS = ("graph", "dsep", "compat", "verdict", "derivation", "oracle_report")


class CliCold:
    """Each README subcommand as a fresh ``python -m mcdmg.cli`` process."""

    pass_size = 20

    def __init__(self, seed: int, workdir: Path, root: Path):
        self.root = root
        self.traced = False
        self.trace_path = workdir / "cli_trace.json"
        self.spawned_at = 0.0
        self.props = Counter()
        self._validators = None
        fixtures = root / "src" / "mcdmg" / "fixtures"
        texts = {n: (fixtures / f"{n}.mcg").read_text(encoding="utf-8") for n in FIXTURES}
        bad = {}
        for kind, text in malformed_inputs(seed, texts).items():
            bad[kind] = workdir / f"{kind}.mcg"
            bad[kind].write_text(text, encoding="utf-8")
        code, out, err = self._run(["recover-effect", "fig3", "--treatment", "CX", "--outcome", "CY"])
        if code != 0:
            raise RuntimeError(f"setup derivation failed with exit {code}: {err}")
        derivation = workdir / "fig3.derivation.json"
        derivation.write_text(out, encoding="utf-8")

        s = str(seed)
        limit = str(random.Random(seed).randint(5, 10))
        # (arguments, expected exit, check); a check reads (stdout, stderr)
        self.commands = [
            (["parse", "fig2b"], 0, self._schema("graph")),
            (["validate", "fig2b"], 0, lambda o, e: _need(json.loads(o)["valid"], "graph invalid")),
            (["dsep", "fig2b", "--x", "CY", "--y", "R_CY", "--given", "CX", "--overline", "CX"], 0,
             self._schema("dsep", lambda d: _need(d["separated"], "not separated"))),
            (["dsep", "fig3", "--x", "CY", "--y", "R_CY"], 0, self._dsep_witness),
            (["abstract", "fig2a"], 0, lambda o, e: _need("class=cm-c-dmg" in o, "no cm-c-dmg header")),
            (["compatible", "fig1c", "fig1a"], 0, self._schema("compat", lambda d: _need(d["compatible"], "incompatible"))),
            (["enumerate", "fig1c", "--max-vars", "2", "--max-edges", "12", "--limit", limit], 0, self._enumerated(int(limit))),
            (["check-joint", "fig2b"], 0, self._schema("verdict", lambda d: _need(d["recoverable"], "not recoverable"))),
            (["check-joint", "fig3"], 1, self._schema("verdict", lambda d: _need(
                d["violations"][0]["witness_path"] == "CY <-> CZ <-> R_CY", "wrong violation path"))),
            (["recover-effect", "fig3", "--treatment", "CX", "--outcome", "CY", "--format", "latex"], 0,
             lambda o, e: _need(o.startswith("\\begin{align*}"), "no align block")),
            (["recover-effect", "fig2b", "--treatment", "CX", "--outcome", "CY"], 0, self._schema("derivation")),
            (["oracle", "fig2b", "--graphs", "2", "--seeds", "2", "--seed", s], 0, self._oracle_clean),
            (["oracle", "fig3", "--graphs", "1", "--seeds", "2", "--seed", s, "--query", "effect:CX:CY"], 0, self._oracle_clean),
            (["simulate", "fig2a", "--rows", "100", "--seed", s], "simulate", None),
            (["replay", "fig3", str(derivation)], 0, lambda o, e: _need(json.loads(o)["ok"] is True, "replay not ok")),
            (["parse", str(bad["garbage"])], 2, None),
            (["check-joint", str(bad["truncated"])], 2, None),
            (["check-joint", str(bad["invalid"])], 2, None),
            (["oracle", "fig2b", "--query", "bogus"], "bad-query", None),
            (["oracle", "fig2b", "--query", "effect:CX"], "bad-query", None),
        ]
        assert len(self.commands) == self.pass_size
        self.input_of = SeededPasses(self.pass_size, seed)

    @property
    def validators(self) -> dict:
        """Schema validators, loaded at the first check so set-up stays the program's."""
        if self._validators is None:
            import jsonschema
            from referencing import Registry, Resource

            schema_dir = self.root / "src" / "mcdmg" / "schemas"
            expr = json.loads((schema_dir / "expression.schema.json").read_text())
            registry = Registry().with_resource("expression.schema.json", Resource.from_contents(expr))
            self._validators = {
                s: jsonschema.Draft202012Validator(
                    json.loads((schema_dir / f"{s}.schema.json").read_text()), registry=registry
                )
                for s in SCHEMAS
            }
        return self._validators

    def _run(self, args):
        if self.traced:
            cmd = [sys.executable, str(Path(__file__).with_name("cli_traced.py")), str(self.trace_path), *args]
        else:
            cmd = [sys.executable, "-m", "mcdmg.cli", *args]
        self.spawned_at = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=self.root, timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def take_trace(self):
        """(startup s, import s, profile) of the last traced command."""
        trace = json.loads(self.trace_path.read_text(encoding="utf-8"))
        self.trace_path.unlink()
        return trace["entry"] - self.spawned_at, trace["import_s"], trace["profile"]

    def _command(self, k: int):
        return self.commands[self.input_of(k)]

    def op(self, k: int):
        return self._run(self._command(k)[0])

    def check(self, k: int, result):
        args, expected, check = self._command(k)
        code, out, err = result
        self.props[f"command={args[0]}"] += 1
        if expected == "simulate":
            return _known_simulate(code, out, err)
        if expected == "bad-query":
            return _known_bad_query(code, err)
        errors = []
        if code != expected:
            errors.append(f"{' '.join(args)}: exit {code}, want {expected}")
        if "Traceback" in err:
            errors.append(f"{' '.join(args)}: traceback on stderr")
        if expected == 2 and "error" not in err:
            errors.append(f"{' '.join(args)}: no error message")
        if check is not None and not errors:
            try:
                known = check(out, err)
            except (ValueError, KeyError, IndexError, TypeError, AssertionError) as exc:
                errors.append(f"{' '.join(args)}: {exc!r}")
            else:
                return errors, known
        return errors, None

    def _validate(self, schema: str, doc) -> None:
        error = next(self.validators[schema].iter_errors(doc), None)
        _need(error is None, f"{schema} schema: {error.message if error else ''}")

    def _schema(self, name, then=None):
        def check(out, err):
            doc = json.loads(out)
            self._validate(name, doc)
            return then(doc) if then else None

        return check

    def _enumerated(self, limit):
        def check(out, err):
            doc = json.loads(out)
            _need(doc["count"] == limit == len(doc["graphs"]), f"count {doc['count']}, want {limit}")
            for g in doc["graphs"]:
                self._validate("graph", g)

        return check

    def _oracle_clean(self, out, err):
        doc = json.loads(out)
        self._validate("oracle_report", doc)
        _need(not doc["failures"] and doc["max_abs_error"] <= TOL, "oracle reported failures")

    def _dsep_witness(self, out, err):
        doc = json.loads(out)
        _need(doc["separated"] is False, "fig3 CY, R_CY reported separated")
        if self.validators["dsep"].is_valid(doc):
            return None
        # documented defect: the witness is a token list, the schema wants a string
        _need(isinstance(doc["witness_path"], list), "witness_path neither string nor token list")
        return "dsep witness_path is a list, schema says string"

    def properties(self) -> dict:
        return {"shares": _shares(self.props)}


def _need(cond, message):
    if not cond:
        raise AssertionError(message)


def _known_simulate(code, out, err):
    """`simulate fig2a`: documented KeyError (exit 1), or the fixed contract."""
    if code == 1 and "KeyError" in err and "Traceback" in err:
        return [], "simulate KeyError on cluster graphs"
    if code == 0 and out.count("\n") == 101 and "Traceback" not in err:
        return [], None
    if code == 2 and "Traceback" not in err and "error" in err:
        return [], None
    return [f"simulate: exit {code}, not the documented outcome"], None


def _known_bad_query(code, err):
    """`oracle --query <bad>`: documented ValueError (exit 1), or the fixed exit 2."""
    if code == 1 and "ValueError" in err and "Traceback" in err:
        return [], "oracle bad --query ValueError exit 1"
    if code == 2 and "Traceback" not in err and "error" in err:
        return [], None
    return [f"oracle bad query: exit {code}, not the documented outcome"], None


def make(name: str, seed: int, workdir: Path, root: Path):
    if name == "cli_cold":
        return CliCold(seed, workdir, root)
    return {"oracle_joint": OracleJoint, "oracle_effect": OracleEffect, "derive": Derive}[name](seed, workdir)

