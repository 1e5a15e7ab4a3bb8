"""Reading and writing the line-oriented graph file format.

::

    graph "name" class=cm-c-dmg {
      cluster CX { vars X1, X2 }   # cluster classes
      var Z1                        # admg / m-admg
      rvar R_CX for CX              # indicator; proxies are implicit
      edge CX -> CY
      edge CZ <-> R_CY
      edge CX -> CX                 # self-loop
    }

``#`` starts a comment anywhere on a line. Proxies are auto-created per
indicator and never written out. JSON and DOT emitters serve machine
consumption and external rendering.
"""

from __future__ import annotations

import re
from typing import Optional

from .errors import ParseError, ValidationError, WrongGraphClass
from .graphs import Clustering, GraphClass, Kind, MixedGraph, Vertex, _require, require_valid

_HEADER = re.compile(r'^graph\s+"(?P<name>[^"]*)"\s+class=(?P<cls>[a-z-]+)\s*\{$')
_CLUSTER = re.compile(r"^cluster\s+(?P<id>\S+)\s*\{\s*(?:vars\s+(?P<vars>[^}]*?))?\s*\}$")
_VAR = re.compile(r"^var\s+(?P<id>\S+)$")
_RVAR = re.compile(r"^rvar\s+(?P<id>\S+)\s+for\s+(?P<owner>\S+)$")
_EDGE = re.compile(r"^edge\s+(?P<a>\S+)\s*(?P<op><->|->)\s*(?P<b>\S+)$")


def parse_graph(text: str, *, validate: bool = True) -> MixedGraph:
    """Parse graph-file source into a validated MixedGraph.

    Parameters
    ----------
    text : str
        Graph file contents.
    validate : bool
        When true (default) raise ValidationError on any class invariant
        violation; proxies are always auto-created.

    Raises
    ------
    ParseError
        Malformed syntax, with line and column.
    ValidationError
        Well-formed syntax but a violated graph invariant.
    """
    name: Optional[str] = None
    gclass: Optional[GraphClass] = None
    clusters: list = []
    variables: list = []
    rvars: list = []
    directed: list = []
    bidirected: list = []
    closed = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if name is None:
            m = _HEADER.match(line)
            if not m:
                raise ParseError("expected: graph \"<name>\" class=<class> {", lineno, 1)
            name = m.group("name")
            try:
                gclass = GraphClass(m.group("cls"))
            except ValueError:
                raise ParseError(f"unknown graph class {m.group('cls')!r}", lineno, line.find("class=") + 7)
            continue
        if closed:
            raise ParseError("content after closing brace", lineno, 1)
        if line == "}":
            closed = True
            continue
        if m := _CLUSTER.match(line):
            body = m.group("vars")
            members = tuple(v.strip() for v in body.split(",")) if body else ()
            members = tuple(v for v in members if v)
            clusters.append((m.group("id"), members))
            continue
        if m := _VAR.match(line):
            variables.append(m.group("id"))
            continue
        if m := _RVAR.match(line):
            rvars.append((m.group("id"), m.group("owner")))
            continue
        if m := _EDGE.match(line):
            a, b = m.group("a"), m.group("b")
            if m.group("op") == "->":
                directed.append((a, b))
            else:
                bidirected.append((a, b))
            continue
        raise ParseError(f"unrecognised statement {line.split()[0]!r}", lineno, 1)

    if name is None or gclass is None:
        raise ParseError("empty input: missing graph header", 1, 1)
    if not closed:
        raise ParseError("missing closing brace", text.count("\n") + 1, 1)

    verts = []
    clustering = None
    if gclass.clustered:
        clustering = Clustering(tuple(clusters))
        verts += [Vertex(c, Kind.CLUSTER) for c, _ in clusters]
    else:
        for c, _ in clusters:
            raise ValidationError(
                [_v("cluster-in-admg", f"cluster {c!r} declared in {gclass.value}")]
            )
    verts += [Vertex(v, Kind.VARIABLE) for v in variables]
    verts += [Vertex(r, Kind.INDICATOR, owner) for r, owner in rvars]

    g = MixedGraph.build(
        name, gclass, verts, directed, bidirected, clustering=clustering
    )
    if validate:
        require_valid(g)
    return g


def _v(code: str, message: str):
    from .graphs import Violation

    return Violation(code, message)


def emit_graph(g: MixedGraph) -> str:
    """Write a graph back into file syntax (proxies stay implicit).

    A clustering attached to an (m-)ADMG is contextual and has no file
    syntax; it is dropped here but preserved by the JSON emitter.
    """
    _require("g", g, MixedGraph, WrongGraphClass)
    lines = [f'graph "{g.name}" class={g.graph_class.value} {{']
    if g.clustering is not None and g.graph_class.clustered:
        for c, vs in g.clustering.clusters:
            lines.append(f"  cluster {c} {{ vars {', '.join(vs)} }}")
    for v in g.variables:
        lines.append(f"  var {v}")
    for r in g.indicators:
        lines.append(f"  rvar {r} for {g.vertex(r).owner}")
    for a, b in sorted(g.declared_directed):
        lines.append(f"  edge {a} -> {b}")
    for a, b in sorted(g.bidirected):
        lines.append(f"  edge {a} <-> {b}")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_json(g: MixedGraph) -> dict:
    """JSON-ready dict: vertices with kind/owner, edge lists, class."""
    _require("g", g, MixedGraph, WrongGraphClass)
    out = {
        "class": g.graph_class.value,
        "name": g.name,
        "vertices": [
            {"id": v.id, "kind": v.kind.value, **({"owner": v.owner} if v.owner else {})}
            for v in g.vertices
        ],
        "directed": sorted([a, b] for a, b in g.directed),
        "bidirected": sorted([a, b] for a, b in g.bidirected),
    }
    if g.clustering is not None:
        out["clusters"] = {c: list(vs) for c, vs in g.clustering.clusters}
    return out


def emit_dot(g: MixedGraph) -> str:
    """GraphViz rendering: clusters boxed, bidirected edges dashed."""
    _require("g", g, MixedGraph, WrongGraphClass)
    shape = {
        Kind.CLUSTER: "box",
        Kind.VARIABLE: "ellipse",
        Kind.INDICATOR: "diamond",
        Kind.PROXY: "ellipse",
    }
    lines = [f'digraph "{g.name}" {{']
    for v in g.vertices:
        style = ', style=dotted' if v.kind is Kind.PROXY else ""
        lines.append(f'  "{v.id}" [shape={shape[v.kind]}{style}];')
    for a, b in sorted(g.directed):
        lines.append(f'  "{a}" -> "{b}";')
    for a, b in sorted(g.bidirected):
        lines.append(f'  "{a}" -> "{b}" [dir=both, style=dashed];')
    lines.append("}")
    return "\n".join(lines) + "\n"
