"""Recoverability of queries from cluster-level missingness graphs.

The package decides whether joint distributions and macro causal effects can
be recovered from graphs that describe missingness at the granularity of
variable clusters, emits the closed-form recovery formulas, and checks every
verdict against exact enumeration over small discrete structural causal
models.
"""

import importlib as _importlib

# Each submodule and the public names it defines. `import mcdmg` loads none
# of them: a name loads its submodule on first access (PEP 562), so a caller
# compiles only the modules it uses, and only the oracle and the pairs
# built on it import numpy.
_EXPORTS = {
    "abstraction": (
        "Budget",
        "CompatibilityReport",
        "enumerate_compatible",
        "is_compatible",
        "merge_indicators",
        "project",
    ),
    "docalc": (
        "Derivation",
        "NotDerived",
        "RuleCertificate",
        "recover_effect",
        "replay",
        "rule_applicable",
    ),
    "errors": (),
    "expressions": (
        "Atom",
        "One",
        "Product",
        "Quotient",
        "Sum",
        "Term",
        "apply_proxy",
        "canonical",
        "expand_total_probability",
        "expr_from_json",
        "expr_to_json",
        "latex",
        "marginalize",
        "proxy",
        "rzero",
        "val",
    ),
    "fixtures": ("fixture_path", "fixture_text"),
    "gfiles": ("emit_dot", "emit_graph", "emit_json", "parse_graph"),
    "graphs": (
        "Clustering",
        "GraphClass",
        "Kind",
        "MixedGraph",
        "Vertex",
        "as_cluster_graph",
        "classify_mechanism",
        "require_valid",
        "validate",
    ),
    "oracle": (
        "DiscreteSCM",
        "DistTable",
        "Grounding",
        "evaluate",
        "evaluate_interventional",
        "exact_tables",
        "interventional_table",
        "random_scm",
    ),
    "pairs": ("equal_manifest_pair",),
    "recovery": (
        "JointVerdict",
        "MarkovBlanket",
        "check_joint",
        "construct_witness",
        "markov_blanket",
    ),
    "separation": (
        "MutilationSpec",
        "Walk",
        "active_path",
        "ancestors",
        "d_separated",
        "d_separated_by_paths",
        "descendants",
        "enumerate_paths",
        "mutilate",
        "primary_path",
    ),
}
# public name -> the submodule that defines it (a submodule names itself)
_HOME = {n: mod for mod, names in _EXPORTS.items() for n in (mod, *names)}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import <mod>``: the from-list handling
    # calls hasattr(package, mod), which would re-enter this hook.
    module = _importlib.import_module(f".{mod}", __name__)
    # bind every name of the submodule, so later lookups never reach this hook
    globals().update({n: getattr(module, n) for n in _EXPORTS[mod]}, **{mod: module})
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
