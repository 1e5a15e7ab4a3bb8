"""Seeded input generation for the benchmark workloads.

Everything here is a pure function of the seeds it is given, so the same
``--seed`` reproduces the same graphs, labels, queries, malformed files and
op order. The program under test only ever sees the generated text and
arguments.
"""

from __future__ import annotations

import random

FIXTURES = ("fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig3")
NAME_POOL = tuple(f"C{c}" for c in "ABDEFGHJKLMN")


def random_cluster_graph(structure_seed: int, label_seed: int) -> dict:
    """One random m-c-dmg or cm-c-dmg in the graph file format.

    ``structure_seed`` fixes the shape: 3-5 clusters of 1-2 variables, random
    directed edges (so 2-cycles and longer cycles occur), self-loops,
    bidirected edges, indicators on 1-2 masked clusters with directed and
    bidirected edges from clusters, and the (treatment, outcome) pair.
    Indicators get no edges to other indicators and no self-loops, the side
    conditions of the joint-recovery test. ``label_seed`` draws the cluster
    names and the order of the statements, so the same shape reaches the
    program under different names and in a different order.
    """
    rng = random.Random(structure_seed)
    n = rng.randint(3, 5)
    cls = rng.choice(("m-c-dmg", "cm-c-dmg"))
    sizes = [rng.randint(1, 2) for _ in range(n)]
    masked = sorted(rng.sample(range(n), rng.randint(1, 2)))
    indicators = []  # (cluster index, member index or None)
    for c in masked:
        if cls == "cm-c-dmg":
            indicators.append((c, None))
        else:
            for m in sorted(rng.sample(range(sizes[c]), rng.randint(1, sizes[c]))):
                indicators.append((c, m))
    edges = []  # (kind, a, b) over cluster indices; ("R", i) for indicator i
    p_dir = 1.0 / n
    for a in range(n):
        if rng.random() < 0.5:
            edges.append(("->", a, a))
        for b in range(n):
            if a != b and rng.random() < p_dir:
                edges.append(("->", a, b))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.8 / n:
                edges.append(("<->", a, b))
    for i in range(len(indicators)):
        for c in range(n):
            roll = rng.random()
            if roll < 0.25:
                edges.append(("->", c, ("R", i)))
            elif roll < 0.33:
                edges.append(("<->", c, ("R", i)))
    treatment, outcome = rng.sample(range(n), 2)

    lab = random.Random(label_seed)
    names = lab.sample(NAME_POOL, n)
    members = [[f"{names[c][1:]}{m + 1}" for m in range(sizes[c])] for c in range(n)]
    rnames = [
        f"R_{names[c]}" if m is None else f"R_{members[c][m]}" for c, m in indicators
    ]
    owners = [names[c] if m is None else members[c][m] for c, m in indicators]

    def vid(x):
        return rnames[x[1]] if isinstance(x, tuple) else names[x]

    clusters = [f"  cluster {names[c]} {{ vars {', '.join(members[c])} }}" for c in range(n)]
    rvars = [f"  rvar {r} for {o}" for r, o in zip(rnames, owners)]
    edge_lines = [f"  edge {vid(a)} {k} {vid(b)}" for k, a, b in edges]
    for group in (clusters, rvars, edge_lines):
        lab.shuffle(group)
    name = f"rnd{structure_seed}"
    text = "\n".join([f'graph "{name}" class={cls} {{', *clusters, *rvars, *edge_lines, "}"])
    return {
        "name": name,
        "text": text + "\n",
        "graph_class": cls,
        "clusters": n,
        "treatment": names[treatment],
        "outcome": names[outcome],
    }


def malformed_inputs(seed: int, fixture_texts: dict) -> dict:
    """Seeded malformed graph files, each of which the CLI must reject with exit 2.

    ``garbage``: a fixture with one statement replaced by an unknown keyword
    (parse error). ``truncated``: a fixture cut before its closing brace
    (parse error). ``invalid``: a variable-level graph with a directed cycle,
    which parses but fails validation.
    """
    rng = random.Random(seed)
    lines = fixture_texts[rng.choice(FIXTURES)].splitlines()
    body = [i for i, line in enumerate(lines) if line.strip().startswith(("edge", "cluster", "var"))]
    garbage = list(lines)
    garbage[rng.choice(body)] = f"  frobnicate X{rng.randint(0, 99)}"
    truncated = lines[: max(i for i, line in enumerate(lines) if line.strip() == "}")]
    cycle = [f"V{i}" for i in range(rng.randint(3, 6))]
    invalid = [f'graph "cyc{seed}" class=admg {{'] + [f"  var {v}" for v in cycle]
    invalid += [f"  edge {a} -> {b}" for a, b in zip(cycle, cycle[1:] + cycle[:1])]
    invalid.append("}")
    return {
        "garbage": "\n".join(garbage) + "\n",
        "truncated": "\n".join(truncated) + "\n",
        "invalid": "\n".join(invalid) + "\n",
    }
