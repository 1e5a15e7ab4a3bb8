"""The package's public names, and the lazy loading of its submodules and numpy."""

import ast
import contextlib
import json
import subprocess
import sys
from pathlib import Path

import mcdmg

ALL = [
    "Atom", "Budget", "Clustering", "CompatibilityReport", "Derivation", "DiscreteSCM",
    "DistTable", "GraphClass", "Grounding", "JointVerdict", "Kind", "MarkovBlanket",
    "MixedGraph", "MutilationSpec", "NotDerived", "One", "Product", "Quotient",
    "RuleCertificate", "Sum", "Term", "Vertex", "Walk", "abstraction", "active_path",
    "ancestors", "apply_proxy", "as_cluster_graph", "canonical", "check_joint",
    "classify_mechanism", "construct_witness", "d_separated", "d_separated_by_paths",
    "descendants", "docalc", "emit_dot", "emit_graph", "emit_json", "enumerate_compatible",
    "enumerate_paths", "equal_manifest_pair", "errors", "evaluate", "evaluate_interventional",
    "exact_tables", "expand_total_probability", "expr_from_json", "expr_to_json",
    "expressions", "fixture_path", "fixture_text", "fixtures", "gfiles", "graphs",
    "interventional_table", "is_compatible", "latex", "marginalize", "markov_blanket",
    "merge_indicators", "mutilate", "oracle", "pairs", "parse_graph", "primary_path", "project",
    "proxy", "random_scm", "recover_effect", "recovery", "replay", "require_valid",
    "rule_applicable", "rzero", "separation", "val", "validate",
]

ORACLE_NAMES = [
    "DiscreteSCM", "DistTable", "Grounding", "evaluate", "evaluate_interventional",
    "exact_tables", "interventional_table", "random_scm",
]

# the submodules that only some subcommands run
COMMAND_MODULES = ["abstraction", "docalc", "expressions", "oracle", "pairs", "recovery", "separation"]


def python(code, *args):
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_all_is_pinned():
    assert mcdmg.__all__ == ALL


def test_dir_lists_every_public_name():
    assert set(ALL) <= set(dir(mcdmg))


def test_star_import():
    ns = {}
    exec("from mcdmg import *", ns)
    assert set(ALL) <= set(ns)


def test_lazy_names_are_their_modules_names():
    assert mcdmg.random_scm is mcdmg.oracle.random_scm
    assert mcdmg._EXPORTS["oracle"] == tuple(ORACLE_NAMES)
    assert sorted(n for mod, names in mcdmg._EXPORTS.items() for n in (mod, *names)) == ALL
    for mod, names in mcdmg._EXPORTS.items():
        module = getattr(mcdmg, mod)
        assert module.__name__ == f"mcdmg.{mod}"
        for name in names:
            assert getattr(mcdmg, name) is getattr(module, name)
            # each row names the module that defines the name
            assert getattr(mcdmg, name).__module__ == module.__name__


def test_first_access_binds_the_whole_row():
    doc = python(
        "import json, mcdmg\n"
        "rows = {}\n"
        "for mod, names in mcdmg._EXPORTS.items():\n"
        "    before = [n for n in names if n in vars(mcdmg)]\n"
        "    getattr(mcdmg, names[-1] if names else mod)\n"
        "    after = all(n in vars(mcdmg) for n in (mod, *names))\n"
        "    rows[mod] = [before, after]\n"
        "print(json.dumps(rows))\n"
    )
    assert doc == {mod: [[], True] for mod in mcdmg._EXPORTS}


def test_unknown_attribute_raises():
    assert not hasattr(mcdmg, "no_such_name")


def test_no_check_is_an_assert():
    """``python -O`` strips ``assert`` statements, so none of the package's
    checks is one."""
    found = []
    for path in sorted(Path(mcdmg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


# The classes that may bind ``__eq__`` or ``__hash__`` beside `_Value`: the
# expression nodes cache their hash, a graph caches it, tables and SCMs
# compare their arrays by value, and `_Content` is a hashed-once key.
# ``__hash__ = None`` only takes hashing away and is not counted.
EQ_HASH_ALLOWED = {"Term", "Sum", "Product", "Quotient", "MixedGraph", "DistTable", "DiscreteSCM", "_Content"}


def test_value_methods_are_written_once():
    """Only `_Value` defines the value methods; ``==`` and ``hash`` are
    overridden on a named allowlist alone."""
    bound = []
    for path in sorted(Path(mcdmg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for stmt in cls.body:
                if isinstance(stmt, ast.FunctionDef):
                    bound.append((cls.name, stmt.name))
                elif isinstance(stmt, ast.Assign) and not (
                    isinstance(stmt.value, ast.Constant) and stmt.value.value is None
                ):
                    bound += [(cls.name, t.id) for t in stmt.targets if isinstance(t, ast.Name)]
    value_methods = {"__repr__", "__reduce__", "_astuple", "__setattr__", "__delattr__"}
    assert sorted(c for c, name in bound if name in value_methods) == ["_Value"] * len(value_methods)
    assert {c for c, name in bound if name in ("__eq__", "__hash__")} == EQ_HASH_ALLOWED | {"_Value"}


def test_imports_leave_numpy_unloaded():
    doc = python(
        "import json, sys\n"
        "import mcdmg, mcdmg.cli\n"
        "before = [m in sys.modules for m in ('numpy', 'mcdmg.oracle')]\n"
        "from mcdmg import oracle\n"
        "bound = [n in vars(mcdmg) for n in sys.argv[1:]]\n"
        "print(json.dumps({'before': before, 'loaded': 'numpy' in sys.modules, 'bound': bound}))\n",
        *ORACLE_NAMES,
    )
    assert doc["before"] == [False, False]
    # the first access binds every oracle name into the package
    assert doc["loaded"] and all(doc["bound"])


# Each graph-level subcommand, run in-process; returns [(stdout, exit code)].
_RUN_ALL = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from mcdmg import cli
results = []
for argv in json.loads(sys.argv[2]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    results.append([out.getvalue(), code])
assert "mcdmg.oracle" not in sys.modules
print(json.dumps(results))
"""


def _graph_level_argvs(tmp_path):
    """Every subcommand but ``oracle`` and ``simulate``, on fig2b and fig3."""
    from mcdmg import cli

    deriv = tmp_path / "d.json"
    with open(deriv, "w") as fh, contextlib.redirect_stdout(fh):
        assert cli.main(["recover-effect", "fig3", "--treatment", "CX", "--outcome", "CY"]) == 0
    runs = []
    for name in ("fig2b", "fig3"):
        runs += [
            ["parse", name], ["parse", name, "--format", "dot"], ["validate", name],
            ["dsep", name, "--x", "CY", "--y", "R_CY", "--given", "CX", "--overline", "CX"],
            ["abstract", name], ["compatible", name, "fig1a"],
            ["enumerate", name, "--limit", "3"], ["check-joint", name],
            ["check-joint", name, "--format", "latex"],
            ["recover-effect", name, "--treatment", "CX", "--outcome", "CY", "--depth", "5"],
            ["replay", name, str(deriv)],
        ]
    return runs


def test_graph_level_subcommands_run_without_numpy(tmp_path):
    runs = _graph_level_argvs(tmp_path)
    blocked = python(_RUN_ALL, "blocked", json.dumps(runs))
    assert blocked == python(_RUN_ALL, "open", json.dumps(runs))


# Runs CLI argv lists in-process; returns the mcdmg submodules then loaded
# and whether numpy, dataclasses and inspect are.
_LOADED_BY = """
import contextlib, io, json, sys
import mcdmg
after_import = sorted(m for m in sys.modules if m.startswith("mcdmg."))
from mcdmg import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("mcdmg."))
print(json.dumps({"after_import": after_import, "loaded": loaded,
                  **{m: m in sys.modules for m in ("numpy", "dataclasses", "inspect")}}))
"""


def test_import_mcdmg_loads_no_submodule():
    doc = python(_LOADED_BY, "[]")
    assert doc["after_import"] == [] and not doc["numpy"]


def test_parse_and_validate_load_only_the_graph_reader():
    argvs = [["parse", "fig2b"], ["parse", "fig3", "--format", "dot"], ["validate", "fig2b"]]
    doc = python(_LOADED_BY, json.dumps(argvs))
    assert doc["loaded"] == ["cli", "errors", "fixtures", "gfiles", "graphs"]
    assert not set(COMMAND_MODULES) & set(doc["loaded"]) and not doc["numpy"]


def test_help_and_usage_errors_load_no_command_module():
    argvs = [["--help"], ["oracle", "--help"], ["oracle", "fig2b", "--query", "bogus"],
             ["enumerate", "fig2b", "--max-vars", "0"], ["no-such-command"]]
    doc = python(_LOADED_BY, json.dumps(argvs))
    assert not set(COMMAND_MODULES) & set(doc["loaded"]) and not doc["numpy"]
    assert not doc["dataclasses"] and not doc["inspect"]


def test_no_subcommand_loads_dataclasses_and_only_numpy_loads_inspect(tmp_path):
    # dataclasses costs a cold process about 10 ms, with inspect, ast and
    # tokenize; numpy imports inspect itself, but not dataclasses
    doc = python(_LOADED_BY, json.dumps(_graph_level_argvs(tmp_path)))
    assert not doc["numpy"] and not doc["dataclasses"] and not doc["inspect"]
    argvs = [
        ["oracle", "fig2b", "--graphs", "1", "--seeds", "1"],
        ["oracle", "fig3", "--graphs", "1", "--seeds", "1", "--query", "effect:CX:CY"],
        ["simulate", "fig1a", "--rows", "5", "--seed", "1", "--out", str(tmp_path / "rows.csv")],
        ["simulate", "fig2b", "--rows", "5", "--out", str(tmp_path / "rows.csv")],
    ]
    doc = python(_LOADED_BY, json.dumps(argvs))
    assert doc["numpy"] and not doc["dataclasses"]
    assert {"oracle", "abstraction", "docalc", "recovery"} <= set(doc["loaded"])
