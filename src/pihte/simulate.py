"""Ground-truth simulator: random CBNs, sampling, and interventional truth.

Bidirected edges are expanded into explicit binary latent parents before
parameterization; samples drop the latent columns so datasets contain only
the observed variables.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .model import CausalGraph, Dataset, Grouping, Variable, code_dtype, name_key
from .factor import SparseFactor, marginalize, product, unit_factor

LATENT_DOMAIN = 2
# the families `random_cbn` draws each CPT row from
DISTS = ("dirichlet", "deterministic", "mixture")


def expand_bidirected(graph: CausalGraph):
    """Replace each bidirected edge with a fresh binary latent common parent.

    Returns (expanded graph, tuple of latent names). Latents are named
    U_<a>_<b> after their endpoints, with `_` appended until the name is free.
    """
    directed = list(graph.directed_edges)
    taken = set(graph.names)
    latents = []
    for a, b in graph.bidirected_edges:
        name = f"U_{a}_{b}"
        while name in taken:
            name += "_"
        taken.add(name)
        directed += [(name, a), (name, b)]
        latents.append(name)
    variables = graph.variables + tuple(Variable(n, LATENT_DOMAIN) for n in latents)
    return CausalGraph(variables, directed, ()), tuple(latents)


@dataclass
class CBN:
    """Fully parameterized Bayesian network over observed + latent variables."""

    graph: CausalGraph
    latents: tuple
    # name -> ndarray of shape (*parent domain sizes in `graph.parents` order, k)
    cpts: dict

    @property
    def observed(self):
        lat = set(self.latents)
        return tuple(n for n in self.graph.names if n not in lat)

    def to_json(self) -> str:
        payload = {
            "variables": [[v.name, v.domain_size] for v in self.graph.variables],
            "directed_edges": [list(e) for e in self.graph.directed_edges],
            "latents": list(self.latents),
            "cpts": {
                name: {"shape": list(arr.shape), "probs": arr.ravel().tolist()}
                for name, arr in self.cpts.items()
            },
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def _check_cpt(name, table):
    """A negative entry or a row sum off 1 by over 1e-8 (NaN too) is a ValueError."""
    if not (table.min() >= 0 and np.abs(table.sum(axis=-1) - 1.0).max() <= 1e-8):
        raise ValueError(f"the CPT of {name!r} has a negative entry or a row not summing to 1")


def _draw_cpt(rng, pshape, k, dist, alpha):
    """A CPT over `k` values, one row per parent configuration (`pshape`, the
    parents' domain sizes) in C order, each family's rows drawn in one call."""
    if dist == "mixture":  # a fair coin per row picks one of the other two families
        rows = [_draw_cpt(rng, (), k, "deterministic" if rng.random() < 0.5 else "dirichlet", alpha)
                for _ in np.ndindex(pshape)]
        return np.array(rows).reshape(pshape + (k,))
    if dist == "dirichlet":
        return rng.dirichlet(np.full(k, alpha), size=pshape)
    if dist != "deterministic":
        raise ValueError(f"unknown distribution family {dist!r}")
    return (rng.integers(k, size=pshape)[..., None] == np.arange(k)).astype(float)


def random_cbn(graph: CausalGraph, dist="dirichlet", alpha=1.0, seed=0) -> CBN:
    """Expand bidirected edges and draw every CPT from the given family, in
    `name_key` order; a CPT that `_check_cpt` rejects is a ValueError."""
    expanded, latents = expand_bidirected(graph)
    rng = np.random.default_rng(seed)
    cpts = {}
    for name in sorted(expanded.names, key=name_key):
        pshape = tuple(expanded.domain_size(p) for p in expanded.parents(name))
        cpts[name] = _draw_cpt(rng, pshape, expanded.domain_size(name), dist, alpha)
        _check_cpt(name, cpts[name])
    return CBN(expanded, latents, cpts)


def sample_dataset(cbn: CBN, n: int, seed=0) -> Dataset:
    """Ancestral sampling; returns a Dataset over the observed columns only.
    Each variable's `n` uniforms, drawn in one call, are dealt to its parent
    configurations in lexicographic order, each to its rows in row order. A
    row's value counts its CPT row's cumulative sums, divided by the last,
    that are <= its uniform: what one `Generator.choice` per configuration
    draws, down to `choice`'s ValueError on a CPT `_check_cpt` rejects."""
    rng = np.random.default_rng(seed)
    graph = cbn.graph
    cols = tuple(sorted(cbn.observed, key=name_key))
    domains = {c: graph.domain_size(c) for c in cols}
    names = cols + tuple(cbn.latents)
    draws = np.empty((len(names), n), code_dtype(max(map(graph.domain_size, names), default=1) - 1))
    drawn = dict(zip(names, draws))  # each variable's row of `draws`
    for name in graph.topological_order():
        table = cbn.cpts[name]
        _check_cpt(name, table)
        cdf = table.reshape(-1, table.shape[-1]).cumsum(axis=1)
        cdf /= cdf[:, -1:]
        config = np.zeros(n, dtype=np.int64)
        for p, size in zip(graph.parents(name), table.shape):
            config = config * size + drawn[p]
        g = Grouping(config, len(cdf))  # narrow ids: 16 bits or less sort by radix
        u = rng.random(n)
        value = np.zeros(n, dtype=draws.dtype)  # in configuration order
        for column in cdf.T:
            value += np.repeat(column, g.sizes) <= u
        drawn[name][np.argsort(g.ids, kind="stable")] = value
    return Dataset(cols, np.ascontiguousarray(draws[:len(cols)].T), domains, copy=False)


def interventional_truth(cbn: CBN, do: dict, outcome) -> SparseFactor:
    """Exact P(outcome | do(...)) by the truncated product: drops the CPTs of
    intervened variables, fixes their values, multiplies the rest, sums out
    the latents and the intervened variables, and marginalizes onto `outcome`."""
    joint = unit_factor()
    for name in sorted(cbn.graph.names, key=name_key):
        if name in do:
            continue
        scope = [cbn.graph.variable(n) for n in cbn.graph.parents(name) + (name,)]
        table = cbn.cpts[name]
        cells = map(tuple, np.argwhere(table).tolist())
        cpt = SparseFactor(scope, dict(zip(cells, table[table != 0].tolist())))
        joint = product(joint, cpt.restrict(do))
    observed = marginalize(joint, set(joint.names) - (set(cbn.observed) - set(do)))
    return marginalize(observed, set(observed.names) - set(outcome))


def total_variation(p: SparseFactor, q: SparseFactor) -> float:
    """TV distance between two factors over the same scope."""
    if p.names != q.names:
        raise ValueError(f"scope mismatch: {p.names} vs {q.names}")
    pd, qd = dict(p.items()), dict(q.items())
    return 0.5 * math.fsum(abs(pd.get(k, 0.0) - qd.get(k, 0.0)) for k in pd.keys() | qd.keys())
