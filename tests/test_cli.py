import json
import subprocess
import sys
from importlib import resources

import pytest

jsonschema = pytest.importorskip("jsonschema")

from mcdmg import Derivation, fixture_path
from tests_support import FIXTURE_QUERIES, THIRTEEN_EDGES, WIDE_POOL, malformed_graph_texts, unknown_symbol_queries


def run(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "mcdmg.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


def schema(name):
    text = resources.files("mcdmg.schemas").joinpath(name).read_text()
    return json.loads(text)


def validator(name):
    from referencing import Registry, Resource

    registry = Registry().with_resource(
        "expression.schema.json",
        Resource.from_contents(schema("expression.schema.json")),
    )
    return jsonschema.Draft202012Validator(schema(name), registry=registry)


def fig(name):
    return str(fixture_path(name))


def test_parse_json_schema():
    code, out, _ = run("parse", fig("fig2b"))
    assert code == 0
    validator("graph.schema.json").validate(json.loads(out))


def test_parse_dot():
    code, out, _ = run("parse", fig("fig2b"), "--format", "dot")
    assert code == 0
    assert "digraph" in out and "dir=both" in out


def test_parse_error_exit_2(tmp_path):
    bad = tmp_path / "bad.mcg"
    bad.write_text("nonsense\n")
    code, _, err = run("parse", str(bad))
    assert code == 2 and "error" in err


@pytest.mark.parametrize("command", ["parse", "validate", "check-joint"])
def test_graph_file_not_utf8_exit_2(tmp_path, command):
    bad = tmp_path / "bad.mcg"
    bad.write_bytes(b'graph "x" class=c-dmg {\n  \xff\xfe cluster\n}\n')
    code, out, err = run(command, str(bad))
    assert code == 2 and out == ""
    assert err == "error: line 2, col 3: not UTF-8 text\n"


def test_validate_good_and_bad(tmp_path):
    code, out, _ = run("validate", fig("fig2b"))
    assert code == 0 and json.loads(out)["valid"]
    bad = tmp_path / "cyc.mcg"
    bad.write_text(
        'graph "c" class=m-admg {\n  var X\n  var Y\n  edge X -> Y\n  edge Y -> X\n}\n'
    )
    code, out, _ = run("validate", str(bad))
    assert code == 1
    assert any(v["code"] == "acyclicity" for v in json.loads(out)["violations"])


@pytest.mark.parametrize(
    "edge", ["X -> Q", "Q -> X", "X <-> Q"], ids=["to-undeclared", "from-undeclared", "bidirected"]
)
def test_undeclared_edge_endpoint(tmp_path, edge):
    bad = tmp_path / "undeclared.mcg"
    bad.write_text(f'graph "u" class=admg {{\n  var X\n  var Y\n  edge X -> Y\n  edge {edge}\n}}\n')
    code, out, err = run("validate", str(bad))
    assert code == 1 and "Traceback" not in err
    assert [v["code"] for v in json.loads(out)["violations"]] == ["unknown-endpoint"]
    code, out, err = run("dsep", str(bad), "--x", "X", "--y", "Y")
    assert code == 2 and out == ""
    assert "error: unknown-endpoint" in err and "Traceback" not in err


def test_dsep_cli():
    code, out, _ = run(
        "dsep", fig("fig2b"), "--x", "CY", "--y", "R_CY", "--given", "CX",
        "--overline", "CX",
    )
    assert code == 0
    doc = json.loads(out)
    validator("dsep.schema.json").validate(doc)
    assert doc["separated"] is True and doc["witness_path"] is None

    code, out, _ = run("dsep", fig("fig3"), "--x", "CY", "--y", "R_CY")
    doc = json.loads(out)
    validator("dsep.schema.json").validate(doc)
    assert doc["separated"] is False
    assert doc["witness_path"][0] == "CY" and doc["witness_path"][-1] == "R_CY"


@pytest.mark.parametrize("flag", ["--x", "--y"])
@pytest.mark.parametrize("value", ["", ","], ids=["empty", "comma"])
def test_dsep_empty_set_exit_2(flag, value):
    sets = {"--x": "CY", "--y": "R_CY", flag: value}
    code, out, err = run("dsep", fig("fig2b"), *[a for kv in sets.items() for a in kv])
    assert code == 2 and out == ""
    assert err == f"error: {flag} names no vertex\n"


def test_dsep_empty_given_is_legal():
    want = run("dsep", fig("fig3"), "--x", "CY", "--y", "R_CY")
    assert run("dsep", fig("fig3"), "--x", "CY", "--y", "R_CY", "--given", ",") == want
    assert run("dsep", fig("fig3"), "--x", "CY", "--y", "R_CY", "--given", "") == want


def test_abstract_cli():
    code, out, _ = run("abstract", fig("fig2a"))
    assert code == 0
    assert 'class=cm-c-dmg' in out and "rvar R_CX for CX" in out


def test_compatible_cli():
    code, out, _ = run("compatible", fig("fig1c"), fig("fig1a"))
    assert code == 0
    doc = json.loads(out)
    validator("compat.schema.json").validate(doc)
    assert doc["compatible"]


def test_enumerate_cli():
    code, out, _ = run(
        "enumerate", fig("fig1c"), "--max-vars", "2", "--max-edges", "12",
        "--limit", "5",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 5
    validator("graph.schema.json").validate(doc["graphs"][0])


def test_enumerate_more_abstract_edges_than_budget(tmp_path):
    src = tmp_path / "thirteen.mcg"
    src.write_text(THIRTEEN_EDGES)
    code, out, err = run("enumerate", str(src), "--max-edges", "12", "--limit", "1")
    assert code == 1 and "Traceback" not in err
    doc = json.loads(out)
    assert doc["count"] == 0 and doc["graphs"] == [] and "budget" in doc["error"]


def test_check_joint_cli_golden():
    code, out, _ = run("check-joint", fig("fig2b"))
    assert code == 0
    doc = json.loads(out)
    validator("verdict.schema.json").validate(doc)
    assert doc["recoverable"]

    code, out, _ = run("check-joint", fig("fig3"))
    assert code == 1
    doc = json.loads(out)
    validator("verdict.schema.json").validate(doc)
    assert not doc["recoverable"]
    assert doc["violations"][0]["witness_path"] == "CY <-> CZ <-> R_CY"


def test_check_joint_latex():
    code, out, _ = run("check-joint", fig("fig2b"), "--format", "latex")
    assert code == 0 and "\\frac" in out


def test_recover_effect_cli(tmp_path):
    code, out, _ = run(
        "recover-effect", fig("fig3"), "--treatment", "CX", "--outcome", "CY"
    )
    assert code == 0
    doc = json.loads(out)
    validator("derivation.schema.json").validate(doc)
    assert doc["result_text"] == (
        "sum_{c_CZ} P(c_CY* | c_CX, c_CZ, R_CY=0) * P(c_CZ | R_CY=0)"
    )
    # replay the emitted proof object
    deriv = tmp_path / "d.json"
    deriv.write_text(out)
    code, out2, _ = run("replay", fig("fig3"), str(deriv))
    assert code == 0 and json.loads(out2)["ok"]
    # and watch it fail on the other graph at its R2 step
    code, out3, _ = run("replay", fig("fig2b"), str(deriv))
    assert code == 1 and not json.loads(out3)["ok"]


def _bogus_kind_derivation():
    """fig3's derivation with every ``c_CY`` atom given an unknown kind."""
    code, out, _ = run(
        "recover-effect", fig("fig3"), "--treatment", "CX", "--outcome", "CY", "--format", "json"
    )
    assert code == 0

    def swap(x):
        if x == ["val", "CY"]:
            return ["bogus", "CY"]
        if isinstance(x, list):
            return [swap(v) for v in x]
        if isinstance(x, dict):
            return {k: swap(v) for k, v in x.items()}
        return x

    doc = json.loads(out)
    assert swap(doc) != doc
    return json.dumps(swap(doc))


def test_replay_unknown_rule_exit_1(tmp_path):
    code, out, _ = run("recover-effect", fig("fig3"), "--treatment", "CX", "--outcome", "CY")
    assert code == 0
    doc = json.loads(out)
    first = next(s for s in doc["steps"] if "certificate" in s)
    first["certificate"]["rule"] = "R9"
    deriv = tmp_path / "d.json"
    deriv.write_text(json.dumps(doc))
    code, out, err = run("replay", fig("fig3"), str(deriv))
    assert code == 1 and "Traceback" not in err
    assert json.loads(out) == {
        "ok": False,
        "failed_at": doc["steps"].index(first) + 1,
        "reason": "unknown rule 'R9'",
    }


@pytest.mark.parametrize(
    "change,failed_at,reason",
    [
        ("holds", 1, "recorded R1 certificate differs from the one computed on fig3"),
        ("cut", 2, "result is not observable on fig3"),
    ],
)
def test_replay_tampered_or_cut_derivation_exit_1(tmp_path, change, failed_at, reason):
    code, out, _ = run("recover-effect", fig("fig3"), "--treatment", "CX", "--outcome", "CY")
    assert code == 0
    doc = json.loads(out)
    if change == "holds":
        doc["steps"][0]["certificate"]["holds"] = "yes"
    else:
        doc["steps"] = doc["steps"][:2]
    deriv = tmp_path / "d.json"
    deriv.write_text(json.dumps(doc))
    code, out, err = run("replay", fig("fig3"), str(deriv))
    assert code == 1 and "Traceback" not in err
    assert json.loads(out) == {"ok": False, "failed_at": failed_at, "reason": reason}


@pytest.mark.parametrize("query,reason", unknown_symbol_queries())
def test_replay_symbol_the_graph_lacks_exit_1(tmp_path, query, reason):
    deriv = tmp_path / "d.json"
    deriv.write_text(json.dumps(Derivation("fig3", query, ()).to_json()))
    code, out, err = run("replay", fig("fig3"), str(deriv))
    assert code == 1 and "Traceback" not in err
    assert json.loads(out) == {"ok": False, "failed_at": 0, "reason": reason}


def _bad_certificate_derivation(y) -> str:
    """fig3's CX -> CY derivation with the first certificate's ``y`` replaced."""
    code, out, _ = run("recover-effect", fig("fig3"), "--treatment", "CX", "--outcome", "CY")
    assert code == 0
    doc = json.loads(out)
    next(s for s in doc["steps"] if "certificate" in s)["certificate"]["y"] = y
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    ["nonsense\n", '{"graph": "x"}\n', None, [5, "CY"], "CY",
     '{"graph": "fig3", "query": {}, "steps": []}\n', '{"graph": "fig3", "query": [], "steps": []}\n',
     '{"graph": "fig3", "query": null, "steps": []}\n'],
    ids=["not-json", "no-steps", "bogus-atom-kind", "certificate-int-vertex", "certificate-string-set",
         "query-no-node", "query-list", "query-null"],
)
def test_replay_malformed_derivation_exit_2(tmp_path, text):
    deriv = tmp_path / "bad.json"
    if text is None:
        text = _bogus_kind_derivation()
    elif not isinstance(text, str) or not text.endswith("\n"):
        text = _bad_certificate_derivation(text)
    deriv.write_text(text)
    code, out, err = run("replay", fig("fig3"), str(deriv))
    assert code == 2 and out == ""
    assert "is not a derivation" in err and "Traceback" not in err


@pytest.mark.parametrize("sums", [990, 5000])
def test_replay_deeply_nested_derivation_exit_2(tmp_path, sums):
    """A query of nested sums too deep for the JSON decoder is not a
    derivation, however deep."""
    query = '{"node": "term", "outcomes": [["val", "CY"]], "do": [], "cond": []}'
    for _ in range(sums):
        query = f'{{"node": "sum", "bound": ["val", "CZ"], "body": {query}}}'
    deriv = tmp_path / "deep.json"
    deriv.write_text(f'{{"graph": "fig3", "query": {query}, "steps": []}}\n')
    code, out, err = run("replay", fig("fig3"), str(deriv))
    assert code == 2 and out == ""
    assert "is not a derivation" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "treatment,outcome,message",
    [("CX", "CX", "overlap in CX"), ("CX", "", "outcome names no cluster"),
     ("", "CY", "treatment names no cluster")],
    ids=["overlap", "empty-outcome", "empty-treatment"],
)
def test_recover_effect_malformed_query_exit_2(treatment, outcome, message):
    code, out, err = run("recover-effect", fig("fig2b"), "--treatment", treatment, "--outcome", outcome)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and "Traceback" not in err


def test_recover_effect_latex():
    code, out, _ = run(
        "recover-effect", fig("fig2b"), "--treatment", "CX", "--outcome", "CY",
        "--format", "latex",
    )
    assert code == 0
    assert "\\begin{align*}" in out and "R_{CX}{=}0" in out


def test_byte_identical_outputs():
    a = run("recover-effect", fig("fig3"), "--treatment", "CX", "--outcome", "CY")
    b = run("recover-effect", fig("fig3"), "--treatment", "CX", "--outcome", "CY")
    assert a == b
    a = run("check-joint", fig("fig2b"))
    b = run("check-joint", fig("fig2b"))
    assert a == b


def test_oracle_cli_small():
    code, out, _ = run(
        "oracle", fig("fig2b"), "--graphs", "2", "--seeds", "3", "--query", "joint"
    )
    assert code == 0
    doc = json.loads(out)
    validator("oracle_report.schema.json").validate(doc)
    assert doc["graphs_tested"] == 2 and doc["scms_tested"] == 6
    assert doc["max_abs_error"] <= 1e-9 and not doc["failures"]


@pytest.mark.parametrize(
    "args",
    [
        ["--query", "bogus"],
        ["--query", "effect:CX"],
        ["--query", "effect:CX:CY:CZ"],
        ["--graphs", "0"],
        ["--seeds", "0"],
        ["--tol", "-1"],
        ["--tol", "nan"],
        ["--tol", "inf"],
    ],
    ids=[
        "bogus", "effect-one-cluster", "effect-three-clusters", "no-graphs", "no-seeds",
        "negative-tol", "nan-tol", "inf-tol",
    ],
)
def test_oracle_bad_input_exit_2(args):
    code, out, err = run("oracle", fig("fig2b"), *args)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_simulate_cli():
    code, out, _ = run("simulate", fig("fig1a"), "--rows", "10", "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11
    assert lines[0].split(",")[0] == "X1"


def test_simulate_cluster_graph():
    # a cluster graph is sampled through its first compatible m-ADMG
    code, out, err = run("simulate", fig("fig2a"), "--rows", "100", "--seed", "1")
    assert code == 0 and "Traceback" not in err
    lines = out.splitlines()
    assert len(lines) == 101
    assert "NA" in out and "R_X1" in lines[0].split(",")


# an edge out of an indicator: the collider path CX <-> CZ <- R_X1
INDICATOR_OUT = """\
graph "rout" class=m-c-dmg {
  cluster CX { vars X1 }
  cluster CZ { vars Z1 }
  rvar R_X1 for X1
  edge R_X1 -> CZ
  edge CX <-> CZ
}
"""


def test_edge_out_of_an_indicator_enumerates_checks_and_simulates(tmp_path):
    src = tmp_path / "rout.mcg"
    src.write_text(INDICATOR_OUT)
    code, out, err = run("enumerate", str(src))
    assert code == 0 and json.loads(out)["count"] >= 1, err
    code, out, err = run("oracle", str(src), "--query", "effect:CX:CZ", "--graphs", "5", "--seeds", "20")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["failures"] == [] and doc["max_abs_error"] <= 1e-9
    code, out, err = run("simulate", str(src), "--rows", "2")
    assert code == 0 and len(out.splitlines()) == 3, err


@pytest.mark.parametrize(
    "args",
    [
        ["enumerate", fig("fig1c"), "--limit", "-1"],
        ["simulate", fig("fig1a"), "--rows", "-1"],
        ["simulate", fig("fig1a"), "--rows", "2", "--seed", "-1"],
        ["oracle", fig("fig2b"), "--graphs", "1", "--seeds", "1", "--seed", "-1"],
    ],
    ids=["enumerate-negative-limit", "simulate-negative-rows", "simulate-negative-seed",
         "oracle-negative-seed"],
)
def test_negative_count_exit_2(args):
    code, out, err = run(*args)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("value", ["abc", "-1", ""])
@pytest.mark.parametrize("command", [["simulate", "fig1a"], ["oracle", "fig2b", "--graphs", "1", "--seeds", "1"]])
def test_bad_env_seed_exit_2(command, value):
    import os

    proc = subprocess.run(
        [sys.executable, "-m", "mcdmg.cli", *command],
        capture_output=True, text=True, env=dict(os.environ, MCDMG_SEED=value),
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: MCDMG_SEED") and "Traceback" not in proc.stderr


@pytest.mark.parametrize("command", ["enumerate", "oracle"])
@pytest.mark.parametrize("flag, value", [("--max-vars", "0"), ("--max-edges", "-1")])
def test_budget_below_one_exit_2(command, flag, value):
    code, out, err = run(command, fig("fig2b"), flag, value)
    assert code == 2 and out == ""
    assert "error:" in err and "Traceback" not in err


def test_enumerate_a_wide_pool_within_a_gigabyte(tmp_path):
    """The first graph of a 25-edge pool needs none of its 2^25 - 1 subsets."""
    import resource

    path = tmp_path / "wide.mcg"
    path.write_text(WIDE_POOL)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "mcdmg.cli", "enumerate", str(path), "--max-vars", "5", "--max-edges", "40",
         "--limit", "1"],
        capture_output=True, text=True, preexec_fn=cap, timeout=30,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["count"] == 1


def test_zero_counts():
    code, out, _ = run("enumerate", fig("fig1c"), "--limit", "0")
    assert code == 0 and json.loads(out) == {"count": 0, "graphs": []}
    code, out, _ = run("simulate", fig("fig1a"), "--rows", "0")
    assert code == 0 and out.splitlines() == ["X1,X2,Y1,Y2,Z1,Z2"]


def test_simulate_blocks_match_one_draw(monkeypatch, capsys):
    """Rows drawn in blocks are the rows of one draw, across block boundaries."""
    from mcdmg import cli

    argv = ["simulate", "fig2a", "--rows", "100", "--seed", "1"]
    assert cli.main(argv) == 0
    whole = capsys.readouterr().out
    monkeypatch.setattr(cli, "SIMULATE_BLOCK", 7)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == whole
    assert len(whole.splitlines()) == 101 and "NA" in whole


def test_simulate_has_na_cells(tmp_path):
    src = tmp_path / "m.mcg"
    src.write_text(
        'graph "m" class=m-admg {\n  var X\n  rvar R_X for X\n}\n'
    )
    code, out, _ = run("simulate", str(src), "--rows", "60", "--seed", "1")
    assert code == 0
    assert "NA" in out


def test_env_seed(tmp_path, monkeypatch):
    import os
    import subprocess

    env = dict(os.environ, MCDMG_SEED="123")
    p1 = subprocess.run(
        [sys.executable, "-m", "mcdmg.cli", "simulate", fig("fig1a"), "--rows", "5"],
        capture_output=True, text=True, env=env,
    )
    p2 = subprocess.run(
        [sys.executable, "-m", "mcdmg.cli", "simulate", fig("fig1a"), "--rows", "5",
         "--seed", "123"],
        capture_output=True, text=True,
    )
    assert p1.stdout == p2.stdout


def test_help_has_examples():
    code, out, _ = run("check-joint", "--help")
    assert code == 0 and "fig2b" in out


def _cli_runs(path, deriv, t, o):
    """Every subcommand on one graph file, with small budgets."""
    yield ["parse", path]
    yield ["parse", path, "--format", "dot"]
    yield ["parse", path, "--format", "text"]
    yield ["validate", path]
    yield ["dsep", path, "--x", t, "--y", o]
    yield ["dsep", path, "--x", t, "--y", o, "--given", "R_CY", "--overline", t]
    yield ["abstract", path]
    yield ["compatible", path, fig("fig1a")]
    yield ["compatible", fig("fig1c"), path]
    yield ["enumerate", path, "--limit", "3"]
    for fmt in ("json", "latex", "text"):
        yield ["check-joint", path, "--format", fmt]
        yield ["recover-effect", path, "--treatment", t, "--outcome", o, "--depth", "5", "--format", fmt]
    yield ["replay", path, deriv]
    yield ["oracle", path, "--graphs", "1", "--seeds", "1"]
    yield ["oracle", path, "--graphs", "1", "--seeds", "1", "--query", f"effect:{t}:{o}"]
    yield ["simulate", path, "--rows", "3"]
    yield ["simulate", path, "--rows", "3", "--seed", "-1"]


@pytest.mark.parametrize("name", sorted(FIXTURE_QUERIES) + sorted(malformed_graph_texts()))
def test_cli_never_raises(name, tmp_path, capsys):
    """Each run returns 0, 1 or 2, or argparse exits 2; nothing else escapes."""
    from mcdmg import cli

    if name in FIXTURE_QUERIES:
        path, (t, o) = name, FIXTURE_QUERIES[name]
    else:
        path, (t, o) = str(tmp_path / f"{name}.mcg"), ("CX", "CY")
        (tmp_path / f"{name}.mcg").write_text(malformed_graph_texts()[name])
    deriv = tmp_path / "d.json"
    cli.main(["recover-effect", "fig3", "--treatment", "CX", "--outcome", "CY"])
    deriv.write_text(capsys.readouterr().out)
    outcomes = []
    for argv in _cli_runs(path, str(deriv), t, o):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        except Exception as exc:  # any other escape is the failure reported
            code = repr(exc)
        outcomes.append((argv, code))
    capsys.readouterr()
    assert [(argv, code) for argv, code in outcomes if code not in (0, 1, 2, ("SystemExit", 2))] == []
