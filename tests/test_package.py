"""The package's public names, and the lazy loading of numpy and the exact oracle."""

import contextlib
import json
import subprocess
import sys

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
    "merge_indicators", "mutilate", "oracle", "parse_graph", "primary_path", "project",
    "proxy", "random_scm", "recover_effect", "recovery", "replay", "require_valid",
    "rule_applicable", "rzero", "separation", "val", "validate",
]

ORACLE_NAMES = [
    "DiscreteSCM", "DistTable", "Grounding", "equal_manifest_pair", "evaluate",
    "evaluate_interventional", "exact_tables", "interventional_table", "random_scm",
]


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


def test_lazy_names_are_the_oracle_names():
    assert mcdmg.random_scm is mcdmg.oracle.random_scm
    for name in ORACLE_NAMES:
        assert getattr(mcdmg, name) is getattr(mcdmg.oracle, name)


def test_unknown_attribute_raises():
    assert not hasattr(mcdmg, "no_such_name")


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


def test_graph_level_subcommands_run_without_numpy(tmp_path):
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
    blocked = python(_RUN_ALL, "blocked", json.dumps(runs))
    assert blocked == python(_RUN_ALL, "open", json.dumps(runs))
