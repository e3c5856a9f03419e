"""Ground-truth simulator: random CBNs, sampling, and interventional truth.

Bidirected edges are expanded into explicit binary latent parents before
parameterization; samples drop the latent columns so datasets contain only
the observed variables.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

from .model import CausalGraph, Dataset, Variable, group_rows, name_key
from .factor import SparseFactor, marginalize, product, unit_factor

LATENT_DOMAIN = 2
# the families `random_cbn` draws each CPT row from
DISTS = ("dirichlet", "deterministic", "mixture")


def expand_bidirected(graph: CausalGraph):
    """Replace each bidirected edge with a fresh binary latent common parent.

    Returns (expanded graph, tuple of latent names). Latents are named
    U_<a>_<b> after their endpoints.
    """
    variables = list(graph.variables)
    directed = list(graph.directed_edges)
    latents = []
    for a, b in graph.bidirected_edges:
        name = f"U_{a}_{b}"
        while any(v.name == name for v in variables):
            name += "_"
        variables.append(Variable(name, LATENT_DOMAIN))
        directed.append((name, a))
        directed.append((name, b))
        latents.append(name)
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


def _cond_dist(rng, k, dist, alpha):
    if dist == "mixture":  # a fair coin picks one of the other two families
        dist = "deterministic" if rng.random() < 0.5 else "dirichlet"
    if dist == "dirichlet":
        return rng.dirichlet(np.full(k, alpha))
    if dist == "deterministic":
        out = np.zeros(k)
        out[rng.integers(k)] = 1.0
        return out
    raise ValueError(f"unknown distribution family {dist!r}")


def random_cbn(graph: CausalGraph, dist="dirichlet", alpha=1.0, seed=0) -> CBN:
    """Expand bidirected edges and draw every CPT from the given family; a CPT
    row that does not sum to 1 (an overflowed Dirichlet draw) is a ValueError."""
    expanded, latents = expand_bidirected(graph)
    rng = np.random.default_rng(seed)
    cpts = {}
    for name in sorted(expanded.names, key=name_key):
        k = expanded.domain_size(name)
        parents = expanded.parents(name)
        pshape = tuple(expanded.domain_size(p) for p in parents)
        table = np.empty(pshape + (k,), dtype=float)
        for idx in itertools.product(*(range(s) for s in pshape)):
            table[idx] = _cond_dist(rng, k, dist, alpha)
        if not (np.abs(table.sum(axis=-1) - 1.0) <= 1e-8).all():  # NaN fails too
            raise ValueError(f"the CPT of {name!r} has a row that does not sum to 1")
        cpts[name] = table
    return CBN(expanded, latents, cpts)


def sample_dataset(cbn: CBN, n: int, seed=0) -> Dataset:
    """Ancestral sampling; returns a Dataset over the observed columns only.
    Each variable is drawn once per configuration of its parents, in the
    order of their `model.group_rows` record, whose `first` and `sizes`
    give each group's cells and its number of rows."""
    rng = np.random.default_rng(seed)
    samples = {}
    for name in cbn.graph.topological_order():
        parents = cbn.graph.parents(name)
        table = cbn.cpts[name]
        k = cbn.graph.domain_size(name)
        if not parents:
            samples[name] = rng.choice(k, size=n, p=table)
            continue
        pcols = np.stack([samples[p] for p in parents], axis=1)
        g = group_rows(pcols, range(len(parents)), [cbn.graph.domain_size(p) for p in parents])
        groups = np.split(np.argsort(g.ids, kind="stable"), np.cumsum(g.sizes)[:-1])
        out = np.empty(n, dtype=np.int64)
        for cfg, group in zip(pcols[g.first].tolist(), groups):  # each group's rows in row order
            out[group] = rng.choice(k, size=len(group), p=table[tuple(cfg)])
        samples[name] = out
    cols = tuple(sorted(cbn.observed, key=name_key))
    rows = np.stack([samples[c] for c in cols], axis=1)
    domains = {c: cbn.graph.domain_size(c) for c in cols}
    return Dataset(cols, rows, domains)


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
