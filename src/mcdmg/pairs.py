"""Counterexample pairs: two SCMs with equal manifests and different joints.

The motif is the shortest violation `recovery` finds on the variable-level
graph. It draws two *core joints*, over (x, r) for a variable and its
indicator and over (y, z, r) for a collider, that agree on every observable
cell and differ in the masked stratum. Each core becomes the *mechanisms that
realize it*, edge by edge under one rule (see `equal_manifest_pair`). Every
other node gets a *filler*, the same in both models. One helper, `_along`,
turns every table into a CPT, so both models differ only in the motif's
numbers.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .errors import PositivityError, UnknownVertex, WrongGraphClass
from .graphs import Kind, MixedGraph, _require
from .oracle import (
    DiscreteSCM,
    _latent_name,
    _random_structure,
    _require_seed,
    _require_variable_level,
    exact_tables,
    scm_from_cpts,
)
from .recovery import Violation, _violations

_NO_PAIR = "no counterexample pair found within the attempt budget"
_ONE_HOT = np.eye(2)
_FOLLOW = np.array([[0.85, 1.0 - 0.85], [1.0 - 0.85, 0.85]])  # P(child | parent's parity)


def equal_manifest_pair(madmg: MixedGraph, seed: int = 0) -> Tuple[DiscreteSCM, DiscreteSCM]:
    """Two SCMs on a non-recoverable graph with identical manifests.

    The motif is the graph's shortest violation of the joint criterion,
    which must have one or two edges: a variable X adjacent to its own
    indicator (X -> R_X, R_X -> X or X <-> R_X), or a collider
    Y *-> Z <-* R_Y whose edges into the variable Z are each -> or <->. One
    rule realizes every motif edge: a directed edge's tail holds its
    marginal and the head reads it; a bidirected edge's latent holds the
    mass that both ends read. The pair agrees on every manifest cell and
    differs in the true joint by at least 1.2e-2 somewhere; found by a
    seeded randomized search over base parameterizations (at most 300)
    combined with an exact perturbation of the masked stratum. Raises
    WrongGraphClass unless the graph is an (m-)ADMG, InvalidSeed unless the
    seed is an integer >= 0, UnknownVertex without a motif (naming the
    shortest violation when it has three or more edges) and
    PositivityError when no attempt pairs.
    """
    _require("madmg", madmg, MixedGraph, WrongGraphClass)
    _require_variable_level(madmg)
    _require_seed(seed)
    owner, r, _, path = _motif(madmg)
    fillers = _fillers(madmg, owner)
    for k in range(300):
        rng = np.random.default_rng(seed + k)
        if len(path) == 2:
            models = _collider_motif(rng, madmg, owner, path.vertices[1], r)
        else:
            models = _selfmask_motif(rng, madmg, owner, r)
        if models is None:
            continue
        scm1, scm2 = (_embed(fillers, tables, seed + k) for tables in models)
        (joint1, manifest1), (joint2, manifest2) = exact_tables(scm1), exact_tables(scm2)
        manifest_gap = np.max(np.abs(manifest1.probs - manifest2.probs))
        if manifest_gap <= 1e-9 and np.max(np.abs(joint1.probs - joint2.probs)) >= 1.2e-2:
            return scm1, scm2
    raise PositivityError(_NO_PAIR)


def _motif(madmg: MixedGraph) -> Violation:
    """The graph's first shortest violation, if it has one or two edges: a
    variable adjacent to its own indicator, else a two-edge collider path."""
    shortest = min(_violations(madmg), key=lambda v: len(v.witness), default=None)
    if shortest is None:
        raise UnknownVertex("graph has no variable adjacent to its own indicator and no collider Y *-> Z <-* R_Y")
    if len(shortest.witness) > 2:
        raise UnknownVertex(f"shortest violation {shortest.witness.text()} has over two edges; no motif realizes it")
    return shortest


def _collider_motif(rng, madmg, y, z, r):
    """Two (y, z, r) joints equal on the observable cells, Y independent of
    R, and the tables that realize them: an end with an edge -> Z holds its
    marginal; an end joined to Z by <-> copies their latent, which holds it.
    Z's CPT reads those two sources.

    The perturbation moves the masked stratum along a pattern with zero
    column sums (keeps P(z, R=1)) and zero row sum at y=1 (keeps the
    independence), shifting P(y, z) by exactly t.
    """
    p_y1 = rng.uniform(0.3, 0.7)
    p_r1 = rng.uniform(0.3, 0.5)
    z_given = rng.uniform(0.15, 0.85, size=(2, 2))  # P(Z=1 | y, r)
    p_y = np.array([1.0 - p_y1, p_y1])
    p_r = np.array([1.0 - p_r1, p_r1])
    core1 = (p_y[:, None] * p_r)[:, None, :] * np.stack([1 - z_given, z_given], axis=1)
    f = core1[:, :, 1]
    d = np.array([[-1.0, 1.0], [1.0, -1.0]])
    t = min(float(np.min(np.where(d < 0, f - 1e-3, np.inf))), 0.06)
    if t < 0.035:
        return None
    core2 = core1.copy()
    core2[:, :, 1] = f + t * d
    tables, sources = {}, []
    for end, p in ((y, p_y), (r, p_r)):
        if (end, z) in madmg.directed:
            tables[end] = ((), p)
            sources.append(end)
        else:
            lat = _latent_name(end, z)
            tables[lat] = ((), np.concatenate([p, [0.0, 0.0]]))  # latent states 2 and 3 carry no mass
            tables[end] = ((lat,), _ONE_HOT[[0, 1, 1, 1]])
            sources.append(lat)
    cards = tuple(len(tables[s][1]) for s in sources)
    given = np.full((2,) + cards + (2,), 0.5)  # per core: (Y's source, R's source, z)
    mass = np.stack([core1, core2]).transpose(0, 1, 3, 2)
    given[:, :2, :2] = mass / mass.sum(-1, keepdims=True)
    return tuple({**tables, z: (tuple(sources), z_cpt)} for z_cpt in given)


def _selfmask_motif(rng, madmg, x, r):
    """Two (x, r) joints with equal P(x, R=0) cells and equal P(R=1), and
    the tables that realize them along the edge between X and R.

    Model 2 moves t = min_x P1(x, R=1) - 1e-3 of the masked stratum from
    x=0 to x=1. Across X -> R, X holds P(x) and R reads X; across R -> X, R
    holds P(r) and X reads R; across X <-> R the latent holds the (x, r)
    pair and X and R read their halves of its state.
    """
    p1 = rng.uniform(0.35, 0.65)
    r0, r1 = rng.uniform(0.25, 0.45, size=2)
    core1 = np.array([[(1 - p1) * (1 - r0), (1 - p1) * r0], [p1 * (1 - r1), p1 * r1]])  # (x, r)
    t = core1[:, 1].min() - 1e-3  # >= 0.35 * 0.25 - 1e-3, so no draw is skipped
    core2 = core1.copy()
    core2[:, 1] += t * np.array([-1.0, 1.0])
    for tail, head, pairs in ((x, r, (core1, core2)), (r, x, (core1.T, core2.T))):
        if (tail, head) in madmg.directed:  # pairs' axes: (tail, head)
            return tuple({tail: ((), p.sum(1)), head: ((tail,), p / p.sum(1, keepdims=True))} for p in pairs)
    lat = _latent_name(x, r)  # latent state = (x, r) pair
    x_of, r_of = _ONE_HOT[[0, 0, 1, 1]], _ONE_HOT[[0, 1, 0, 1]]
    return tuple({lat: ((), core.reshape(-1)), x: ((lat,), x_of), r: ((lat,), r_of)} for core in (core1, core2))


def _along(table, sources, parents, cards) -> np.ndarray:
    """The CPT over ``parents`` (shape: their cards, then the node's states)
    that reads ``table`` (axes: ``sources``, a subset of the parents in any
    order, then the node's states) at the sources' states and ignores every
    other parent."""
    table = np.asarray(table, dtype=float)
    k = table.shape[-1:]
    order = [sources.index(p) for p in parents if p in sources] + [len(sources)]
    cpt = np.empty(tuple(cards[p] for p in parents) + k)
    cpt[...] = table.transpose(order).reshape(tuple(cards[p] if p in sources else 1 for p in parents) + k)
    return cpt


def _fillers(madmg, leak) -> DiscreteSCM:
    """The SCM with a filler mechanism at every node, built and checked once
    per witness; `_embed` puts the motif's in. Every table is read along
    its sources by `_along`.

    Latents are uniform and indicators mask at rate 0.2. Children of the
    leaking variable ignore every parent (its masked value must not surface
    anywhere else); every other node follows its first parent
    near-deterministically so joint differences survive aggregation.
    """
    s = _random_structure(madmg)
    cpts = {}
    for name, ps, k in s.specs:
        if name in s.latents:
            sources, table = (), np.full(k, 0.25)
        elif madmg.kind(name) is Kind.INDICATOR:
            sources, table = (), [0.8, 0.2]
        elif ps and leak not in ps:
            sources, table = ps[:1], _FOLLOW[np.arange(s.cards[ps[0]]) % 2]
        else:
            sources, table = (), [0.5, 0.5]
        cpts[name] = (ps, _along(table, sources, ps, s.cards))
    return scm_from_cpts(madmg, cpts)


def _embed(fillers: DiscreteSCM, special, seed) -> DiscreteSCM:
    """``fillers`` with ``special``'s mechanisms (node -> (sources, table))
    in place, each read along its sources by `_along`, on the same
    structure."""
    nodes = []
    for n in fillers.nodes:
        if n.name in special:
            sources, table = special[n.name]
            n = n._replace(cpt=_along(table, sources, n.parents, fillers.structure.cards))
        nodes.append(n)
    scm = DiscreteSCM(fillers.madmg, tuple(nodes), fillers.latents, seed)
    scm._cache["structure"] = fillers.structure
    return scm
