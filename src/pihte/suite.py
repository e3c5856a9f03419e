"""Randomized cross-check instances: plug-in engine vs brute-force evaluation.

Each instance bundles a random graph, a dataset sampled from a random CBN on
it, and an estimand over the observed columns. Ratio instances use the
adjustment-style pattern whose denominator is a marginal of its numerator, so
empirical support is consistent by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import CausalGraph, Variable, name_key
from .simulate import random_cbn, sample_dataset


@dataclass
class Instance:
    seed: int
    graph: CausalGraph
    data: object
    estimand: str


def _random_graph(rng) -> CausalGraph:
    n = int(rng.integers(3, 8))
    variables = [Variable(f"V{i}", int(rng.integers(2, 4))) for i in range(n)]
    directed = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.4:
                directed.append((f"V{i}", f"V{j}"))
    bidirected = []
    for i in range(n - 1):
        if rng.random() < 0.15:
            bidirected.append((f"V{i}", f"V{i + 1}"))
    return CausalGraph(variables, directed, bidirected)


def _product_terms(rng, names):
    """Chain-like conditional terms over a shuffled variable order."""
    order = list(names)
    rng.shuffle(order)
    terms = []
    for i, v in enumerate(order):
        prior = order[:i]
        n_par = int(rng.integers(0, min(len(prior), 2) + 1))
        right = list(rng.choice(prior, size=n_par, replace=False)) if n_par else []
        body = v + ("|" + ",".join(right) if right else "")
        terms.append(f"P({body})")
        if len(terms) >= 4:
            break
    return terms


def _estimand_text(rng, names) -> str:
    kind = rng.choice(["sum_product", "nested", "ratio"], p=[0.45, 0.2, 0.35])
    names = list(names)
    if kind == "ratio" and len(names) >= 4:
        a, b, c, w = rng.choice(names, size=4, replace=False)
        return (
            f"sum[{w}](P({a},{b}|{c},{w}) P({w}))"
            f" / (sum[{w}](P({a}|{c},{w}) P({w})))"
        )
    terms = _product_terms(rng, names)
    involved = sorted(
        {n for t in terms for n in t[2:-1].replace("|", ",").split(",")},
        key=name_key,
    )
    n_bound = int(rng.integers(1, len(involved)))
    bound = list(rng.choice(involved, size=n_bound, replace=False))
    if kind == "nested" and len(bound) >= 2:
        inner, outer = bound[0], bound[1:]
        return (
            f"sum[{','.join(outer)}](P({inner}) sum[{inner}]({' '.join(terms)}))"
        )
    return f"sum[{','.join(bound)}]({' '.join(terms)})"


def make_instance(seed: int) -> Instance:
    rng = np.random.default_rng(seed)
    graph = _random_graph(rng)
    cbn = random_cbn(graph, dist="dirichlet", alpha=1.0, seed=seed)
    data = sample_dataset(cbn, n=int(rng.integers(50, 301)), seed=seed + 1)
    estimand = _estimand_text(rng, graph.names)
    return Instance(seed=seed, graph=graph, data=data, estimand=estimand)
