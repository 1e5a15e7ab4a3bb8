"""Recoverability of queries from cluster-level missingness graphs.

The package decides whether joint distributions and macro causal effects can
be recovered from graphs that describe missingness at the granularity of
variable clusters, emits the closed-form recovery formulas, and checks every
verdict against exact enumeration over small discrete structural causal
models.
"""

import importlib as _importlib

from .graphs import (
    Clustering,
    GraphClass,
    Kind,
    MixedGraph,
    Vertex,
    as_cluster_graph,
    classify_mechanism,
    require_valid,
    validate,
)
from .gfiles import emit_dot, emit_graph, emit_json, parse_graph
from .separation import (
    MutilationSpec,
    Walk,
    active_path,
    ancestors,
    d_separated,
    d_separated_by_paths,
    descendants,
    enumerate_paths,
    mutilate,
    primary_path,
)
from .abstraction import (
    Budget,
    CompatibilityReport,
    enumerate_compatible,
    is_compatible,
    merge_indicators,
    project,
)
from .recovery import JointVerdict, MarkovBlanket, check_joint, construct_witness, markov_blanket
from .expressions import (
    Atom,
    One,
    Product,
    Quotient,
    Sum,
    Term,
    apply_proxy,
    canonical,
    expand_total_probability,
    expr_from_json,
    expr_to_json,
    latex,
    marginalize,
    proxy,
    rzero,
    val,
)
from .docalc import (
    Derivation,
    NotDerived,
    RuleCertificate,
    recover_effect,
    replay,
    rule_applicable,
)
from .fixtures import fixture_path, fixture_text

# The exact oracle is the only numpy user. Its names load on first access
# (PEP 562), so graph-level work never imports numpy.
_ORACLE_NAMES = (
    "DiscreteSCM",
    "DistTable",
    "Grounding",
    "equal_manifest_pair",
    "evaluate",
    "evaluate_interventional",
    "exact_tables",
    "interventional_table",
    "random_scm",
)

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")] + ["oracle", *_ORACLE_NAMES]
)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # import_module, not ``from . import oracle``: the from-list handling
    # calls hasattr(package, "oracle"), which would re-enter this hook.
    module = _importlib.import_module(".oracle", __name__)
    # bind every name, so later lookups never reach this hook again
    globals().update({n: getattr(module, n) for n in _ORACLE_NAMES}, oracle=module)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
