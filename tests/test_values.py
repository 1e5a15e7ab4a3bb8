"""The public value types: repr, equality, hashing, copies and immutability,
pinned on a fixed corpus (`tests_support.value_corpus`)."""

import copy
import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tests_support import value_corpus, value_type_name

GOLDEN = Path(__file__).with_name("golden_values.json")
SEEDS = ("0", "1")

# types whose fields hold arrays: they compare them by value and are
# unhashable, and their copies are also compared array by array
ARRAY_TYPES = ("mcdmg.oracle.DistTable", "mcdmg.oracle.DiscreteSCM")
UNHASHABLE = ARRAY_TYPES + ("mcdmg.oracle.Grounding",)


def _reprs_under(seed):
    env = dict(os.environ, PYTHONHASHSEED=seed)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(__file__).parent), str(Path(__file__).parents[1] / "src"), env.get("PYTHONPATH", "")]
    )
    code = "import json, tests_support as t; print(json.dumps(t.value_repr_digests()))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def write_golden():
    GOLDEN.write_text(json.dumps({s: _reprs_under(s) for s in SEEDS}, indent=1, sort_keys=True) + "\n")


def test_value_reprs_match_golden():
    """Per type, the reprs of the corpus, under two string hash seeds: set
    orders inside a repr follow the element hashes."""
    golden = json.loads(GOLDEN.read_text())
    for seed in SEEDS:
        assert _reprs_under(seed) == golden[seed], seed


# every type of the package that is a value with fields, private ones aside
VALUE_TYPES = sorted(
    f"mcdmg.{name}"
    for name in (
        "abstraction.Budget", "abstraction.CompatibilityReport", "docalc.Derivation",
        "docalc.NotDerived", "docalc.ReplayResult", "docalc.RuleCertificate", "docalc.Step",
        "expressions.One", "expressions.Product", "expressions.Quotient", "expressions.Sum",
        "expressions.Term", "graphs.Clustering", "graphs.MixedGraph", "graphs.Vertex",
        "graphs.Violation", "oracle.DiscreteSCM", "oracle.DistTable", "oracle.Grounding",
        "recovery.JointVerdict", "recovery.MarkovBlanket", "recovery.Violation",
        "separation.MutilationSpec", "separation.Walk",
    )
)


def test_golden_corpus_has_every_value_type():
    assert sorted({value_type_name(x) for x in value_corpus()}) == VALUE_TYPES


def _fields(x):
    return {f: getattr(x, f) for f in type(x).__match_args__}


def _same(a, b):
    """``b`` is a twin of ``a``: same type and fields, equal, with the same
    hash. Tables and SCMs also compare their arrays one by one."""
    name = value_type_name(a)
    assert type(b) is type(a), name
    assert a == b and not a != b, name
    if name in ARRAY_TYPES:
        for f, x in _fields(a).items():
            y = getattr(b, f)
            if f == "nodes":
                x, y = [n[:3] for n in x], [n[:3] for n in y]
                assert all(np.array_equal(n.cpt, m.cpt) for n, m in zip(a.nodes, b.nodes))
            assert np.array_equal(x, y) if f == "probs" else x == y, (name, f)
    if name not in UNHASHABLE:
        assert hash(a) == hash(b), name


def _field_hash(x):
    """The hash a value type gives: its field tuple's; an expression node
    with fields puts its class first."""
    fields = tuple(_fields(x).values())
    if value_type_name(x).startswith("mcdmg.expressions.") and fields:
        return hash((type(x), *fields))
    return hash(fields)


def test_golden_corpus_values_keep_their_semantics():
    corpus = value_corpus()
    first = {}
    for x in corpus:
        name = value_type_name(x)
        first.setdefault(name, x)
        fields = _fields(x)
        # a twin rebuilt from the fields, positionally or by keyword
        _same(x, type(x)(*fields.values()))
        _same(x, type(x)(**fields))
        for twin in (pickle.loads(pickle.dumps(x)), copy.copy(x), copy.deepcopy(x)):
            _same(x, twin)
        if name in UNHASHABLE:
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == _field_hash(x), name
        field = next(iter(fields), "no_such_field")
        for assign in (
            lambda: setattr(x, field, getattr(x, field, None)),
            lambda: setattr(x, "no_such_field", 1),
            lambda: delattr(x, field),
        ):
            with pytest.raises(AttributeError):
                assign()
    # an object of another type is never equal
    for a in first.values():
        for b in first.values():
            if a is not b:
                assert not a == b and a != b, (value_type_name(a), value_type_name(b))
