"""Plug-in causal-effect estimand evaluation over hypertree decompositions."""

from .model import (
    CausalGraph,
    Dataset,
    Variable,
    base_name,
    empirical_prob,
    load_dataset,
    load_graph,
    name_key,
)
from .factor import SparseFactor, invert, marginalize, product, unit_factor
from .estimand import FlatLevel, Hierarchy, ProbTerm, Product, Ratio, Sum, flatten, parse
from .decomposition import (
    Cluster,
    Hypergraph,
    TreeDecomposition,
    build_hypergraph,
    decompose,
    gyo_acyclic,
    hypertree_cover,
    load_decomposition,
    min_fill_order,
    select_root,
    tree_decomposition,
    validate,
)
from .engine import (
    EvalReport,
    brute_force_eval,
    cte,
    execute,
    pi_hte,
    plan,
    predicted_bounds,
    run_metrics,
)
from .simulate import (
    CBN,
    interventional_truth,
    random_cbn,
    sample_dataset,
    total_variation,
)

__version__ = "0.1.0"

__all__ = [
    "CausalGraph", "Dataset", "Variable", "base_name", "empirical_prob",
    "load_dataset", "load_graph", "name_key",
    "SparseFactor", "invert", "marginalize", "product", "unit_factor",
    "FlatLevel", "Hierarchy", "ProbTerm", "Product", "Ratio", "Sum",
    "flatten", "parse",
    "Cluster", "Hypergraph", "TreeDecomposition", "build_hypergraph",
    "decompose", "gyo_acyclic", "hypertree_cover", "load_decomposition",
    "min_fill_order", "select_root", "tree_decomposition", "validate",
    "EvalReport", "brute_force_eval", "cte",
    "execute", "pi_hte", "plan", "predicted_bounds", "run_metrics",
    "CBN", "interventional_truth", "random_cbn", "sample_dataset",
    "total_variation",
]
