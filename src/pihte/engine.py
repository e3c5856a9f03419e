"""Cluster-tree elimination and the level-by-level plug-in evaluator.

Evaluation has two steps. `plan` fixes the structure of each hierarchy level
from the estimand alone: its hypergraph, a tree decomposition (supplied or
computed), the width statistics and the CTE schedule. `execute` then binds
each level's probability terms to frequency tables extracted from a dataset
(primed variables read their base column), injects child denominator outputs
inverted as ordinary factors, and runs the schedule, which alone says which
tables meet where and what each message sums out. One plan serves any number
of datasets.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import factor as sf
from .decomposition import (
    Hypergraph,
    TreeDecomposition,
    build_hypergraph,
    cover_width_excluding_outputs,
    decompose,
    gyo_acyclic,
    hypertree_cover,
    select_root,
    validate,
)
from .errors import (
    DenseLimitExceeded,
    ResourceLimitExceeded,
    UnknownVariable,
    ValidationError,
)
from .estimand import FlatLevel, Hierarchy, dense_expr_eval, free_vars, prob_terms
from .model import Variable, base_name, empirical_prob, name_key

MAX_ENTRIES_ENV = "PIHTE_MAX_ENTRIES"


@dataclass(frozen=True)
class Step:
    """One cluster's turn in cluster-tree elimination."""

    cluster: int
    factors: tuple  # factor ids in name order; cte orders the products by size
    children: tuple  # child cluster ids in id order, whose messages it multiplies in
    drop: frozenset  # the variables its message sums out


def schedule(td: TreeDecomposition, scopes, free_vars, root) -> tuple:
    """The steps of one-way message passing to `root`, leaves first; `scopes`
    maps factor ids to their variables. A message keeps its edge separator and
    every output variable it holds, so outputs straddling clusters meet at the root."""
    free = frozenset(free_vars)
    adj = td.adjacency()
    parent = {root: None}
    order = [root]
    for u in order:  # BFS away from the root; `order` grows as it is walked
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)

    held = {}  # cluster -> the variables of its message
    steps = []
    for u in reversed(order):
        factors = tuple(sorted(td.clusters[u].psi, key=name_key))
        children = tuple(v for v in adj[u] if v != parent[u])
        names = set().union(*(scopes[f] for f in factors), *(held[v] for v in children))
        up = td.clusters[parent[u]].chi if parent[u] is not None else frozenset()
        keep = free | (td.clusters[u].chi & up)
        held[u] = names & keep
        steps.append(Step(u, factors, children, frozenset(names - keep)))
    return tuple(steps)


def _next_table(h, rest):
    """Which of `rest` to multiply into the running table `h` next: the first
    whose scope lies inside h's, since it cannot grow h, else the one whose
    join with h has the fewest entries, the first of equals. One left is
    taken without counting."""
    names = set(h.names)
    for i, g in enumerate(rest):
        if names.issuperset(g.names):
            return i
    if len(rest) == 1:
        return 0
    return min(range(len(rest)), key=lambda i: (sf.join_size(h, rest[i]), i))


def _join(tables, record):
    """The product of `tables`, each product handed to `record`.

    The order follows the data, as in the sort-join order of Yannakakis
    (VLDB 1981) but with exact counts in place of a cost model: start from
    the widest table (then the one with fewest entries, then the first) and
    add tables as `_next_table` picks them.
    """
    rest = list(tables)
    if not rest:
        return sf.unit_factor()
    widest = min(range(len(rest)), key=lambda i: (-len(rest[i].scope), rest[i].tightness, i))
    h = rest.pop(widest)
    while rest:
        h = record(sf.product(h, rest.pop(_next_table(h, rest))))
    return h


def cte(steps, factors, record):
    """Run a schedule: each step multiplies its ordinary tables (its bound
    factors and its children's messages) in the order `_join` picks, then
    its inverted child outputs in planned order, and sums its `drop` out.
    The inverted outputs come last so that each checks its support against
    the whole cluster's join. Returns the last (root) step's message.
    `record` is handed every table made; a step that sums nothing out passes
    its table on as it is."""
    messages = {}
    for step in steps:
        tables = [factors[f] for f in step.factors] + [messages.pop(v) for v in step.children]
        ordinary = [g for g in tables if not g.require_support]
        inverted = [g for g in tables if g.require_support]
        if not ordinary:
            ordinary, inverted = inverted[:1], inverted[1:]
        h = _join(ordinary, record)
        for g in inverted:
            h = record(sf.product(h, g))
        messages[step.cluster] = record(sf.marginalize(h, step.drop)) if step.drop else h
    return messages[steps[-1].cluster]


# -- evaluation report -----------------------------------------------------


@dataclass
class LevelStats:
    """One level's account of a run: its plan's widths, then every table
    made for it, each charged through `record`, which holds it to `cap`."""

    level_id: int
    n_vars: int
    n_factors: int
    w: int
    hw: int
    hw_no_outputs: object  # int or None when outputs are needed for coverage
    is_hypertree: bool
    k: int
    cap: object = field(default=None, repr=False)  # PIHTE_MAX_ENTRIES, or None
    t: int = 0
    max_table_entries: int = 0
    max_table_cells: int = field(default=1, repr=False)  # the largest table's dense size
    total_entries: int = 0
    wall_time: float = 0.0

    def record(self, f: sf.SparseFactor):
        """Charge `f` to this level and return it."""
        t = f.tightness
        if t > self.max_table_entries:
            self.max_table_entries = t
            self.max_table_cells = math.prod(v.domain_size for v in f.scope)
        self.total_entries += t
        if self.cap is not None and t > self.cap:
            raise ResourceLimitExceeded(f"table with {t} entries exceeds cap {self.cap}")
        return f

    def as_dict(self):
        """The reported fields: all but `cap` and `max_table_cells`."""
        return {fd.name: getattr(self, fd.name) for fd in fields(self) if fd.repr}


def _table_dict(f: sf.SparseFactor):
    return {
        "scope": [[v.name, v.domain_size] for v in f.scope],
        "entries": [[list(k), v] for k, v in f.items()],
    }


@dataclass
class EvalReport:
    result: sf.SparseFactor
    normalized: object  # SparseFactor or None
    levels: list  # LevelStats in level id order
    n_rows: int
    wall_time: float
    bounds: dict  # Plan.bounds at the largest bound table

    @property
    def _largest(self) -> LevelStats:
        """The first level, by id, that holds the run's largest table."""
        return max(self.levels, key=lambda lv: lv.max_table_entries)

    @property
    def max_table_entries(self) -> int:
        return self._largest.max_table_entries

    @property
    def total_entries(self) -> int:
        return sum(lv.total_entries for lv in self.levels)

    @property
    def density(self) -> float:
        """The largest table's entries over its own cell count."""
        return self._largest.max_table_entries / self._largest.max_table_cells

    def to_dict(self, include_timing=True):
        out = {
            "n_rows": self.n_rows,
            "max_table_entries": self.max_table_entries,
            "total_entries": self.total_entries,
            "tightness": self.bounds["t"],
            "density": self.density,
            "hierarchy_bound_exponent": self.bounds["sum_hw"],
            "levels": [lv.as_dict() for lv in self.levels],
            "bounds": self.bounds,
            "result": _table_dict(self.result),
        }
        if self.normalized is not None:
            out["normalized"] = _table_dict(self.normalized)
        if include_timing:
            out["wall_time"] = self.wall_time
        else:
            for lv in out["levels"]:
                lv.pop("wall_time", None)
        return out

    def to_json(self, include_timing=True) -> str:
        return json.dumps(self.to_dict(include_timing), indent=2, sort_keys=True)


def run_metrics(report: EvalReport):
    """One Table-style row: samples, time, max table size, tightness, density."""
    return {
        "samples": report.n_rows,
        "time": round(max(report.wall_time, 0.0), 6),
        "max_table_size": report.max_table_entries,
        "t": report.bounds["t"],
        "density": report.density,
    }


# -- plan ------------------------------------------------------------------


@dataclass(frozen=True)
class LevelPlan:
    """One level's structure, fixed by the estimand before any data is read."""

    level: FlatLevel
    hypergraph: Hypergraph
    td: TreeDecomposition
    steps: tuple  # the CTE schedule, leaves to root
    hw_no_outputs: object  # int or None when outputs are needed for coverage
    is_hypertree: bool
    supplied: bool  # td was given by the caller, not computed by decompose

    def widths(self):
        """The structural statistics `analyze` and `execute` both report."""
        return {
            "n_vars": len(self.hypergraph.nodes),
            "n_factors": len(self.hypergraph.edges),
            "w": self.td.treewidth,
            "hw": self.td.hyperwidth,
            "hw_no_outputs": self.hw_no_outputs,
            "is_hypertree": self.is_hypertree,
        }


@dataclass(frozen=True)
class Plan:
    hier: Hierarchy
    levels: dict  # level_id -> LevelPlan, in hierarchy order

    def bounds(self, t):
        """The plan's predicted bounds at tightness `t`, with `k` its largest
        domain and `n` the most variables in any of its levels."""
        lps = self.levels.values()
        return predicted_bounds(
            [{"level_id": lid, "w": lp.td.treewidth, "hw": lp.td.hyperwidth}
             for lid, lp in self.levels.items()],
            t=t,
            k=max(max(lp.hypergraph.domains.values()) for lp in lps),
            n=max(len(lp.hypergraph.nodes) for lp in lps),
        )


def plan(hier, domains, seed=0, restarts=0, decompositions=None) -> Plan:
    """Build each level's hypergraph once, decompose it once, and fix its CTE schedule.

    `domains` maps variable names to domain sizes; a primed name reads its
    base name. `decompositions` maps a level id to a supplied
    TreeDecomposition, which alone is validated here; a supplied cluster
    without a cover gets the greedy one. Raises UnknownVariable for an
    estimand variable with no domain.
    """
    decompositions = decompositions or {}
    levels = {}
    for level in hier.levels:
        names = {n for scope in level.factor_scopes for n in scope}
        undeclared = {base_name(n) for n in names} - domains.keys()
        if undeclared:
            raise UnknownVariable(
                f"estimand variable {min(undeclared, key=name_key)!r} is not declared")
        hg = build_hypergraph(level, {n: domains[base_name(n)] for n in names})
        td = decompositions.get(level.level_id)
        if td is None:
            td = decompose(hg, seed=seed, restarts=restarts)
            is_hypertree = td.hyperwidth == 1  # hw 1 exactly when alpha-acyclic
        else:
            if not all(c.cover for c in td.clusters.values()):
                greedy = hypertree_cover(td, hg).clusters
                td = replace(td, clusters={cid: c if c.cover else greedy[cid]
                                           for cid, c in td.clusters.items()})
            issues = validate(td, hg)
            if issues:
                raise ValidationError(issues)
            is_hypertree = gyo_acyclic(hg) is not None
        # with no g-edge to exclude, the level's cover is already an f-edge cover
        hw_no_outputs = (cover_width_excluding_outputs(td, hg) if level.child_outputs
                         else td.hyperwidth)
        levels[level.level_id] = LevelPlan(
            level=level,
            hypergraph=hg,
            td=td,
            steps=schedule(td, dict(hg.edges), level.free_vars,
                           select_root(td, level.free_vars)),
            hw_no_outputs=hw_no_outputs,
            is_hypertree=is_hypertree,
            supplied=level.level_id in decompositions,
        )
    return Plan(hier=hier, levels=levels)


# -- execute ---------------------------------------------------------------


def _check_inputs(p: Plan, data, do):
    """The dataset has every column the plan binds, and `do` fixes only free
    variables of the root level, inside their domains."""
    bound = {base_name(n) for lp in p.levels.values() for t in lp.level.factors
             for n in t.left + t.right}
    missing = sorted(bound - set(data.domains), key=name_key)
    if missing:
        raise UnknownVariable(f"dataset has no column {missing[0]!r}")
    root = p.levels[p.hier.root]
    free = root.level.free_vars
    for name, value in do.items():
        if name not in free:
            raise UnknownVariable(
                f"do variable {name!r} is not a free variable of the estimand "
                f"(free: {', '.join(free)})"
            )
        k = root.hypergraph.domains[name]
        if not 0 <= value < k:
            raise ValueError(f"do value {name}={value} is outside the domain 0..{k - 1}")


def execute(p: Plan, data, do=None) -> EvalReport:
    """Evaluate a plan against a dataset, children before parents.

    `do` fixes free variables of the root level to values; the result is
    then also renormalized over the remaining outputs. Every table is held
    to the PIHTE_MAX_ENTRIES cap.
    """
    do = dict(do or {})
    _check_inputs(p, data, do)
    env = os.environ.get(MAX_ENTRIES_ENV)
    try:
        cap = int(env) if env else None
    except ValueError:
        cap = 0
    if cap is not None and cap < 1:  # no table could be made
        raise ValueError(f"{MAX_ENTRIES_ENV} must be an integer >= 1, got {env!r}")
    level_stats = []
    start = time.monotonic()

    def eval_level(level_id):
        lp = p.levels[level_id]
        t0 = time.monotonic()
        stats = LevelStats(level_id, **lp.widths(), k=max(lp.hypergraph.domains.values()),
                           cap=cap)

        factors = {}
        for i, term in enumerate(lp.level.factors):
            bound = empirical_prob(data, term.left, term.right).restrict(do)
            factors[f"f{i}"] = stats.record(bound)
        for child_id, _ in lp.level.child_outputs:
            factors[f"g{child_id}"] = stats.record(sf.invert(eval_level(child_id)))
        stats.t = max(f.tightness for f in factors.values())

        out = cte(lp.steps, factors, stats.record)
        stats.wall_time = time.monotonic() - t0
        level_stats.append(stats)
        return out

    result = eval_level(p.hier.root)
    wall = time.monotonic() - start

    outcome = tuple(n for n in result.names if n not in do) if do else ()
    normalized = _renormalize(result, outcome) if outcome else None

    level_stats.sort(key=lambda lv: lv.level_id)
    return EvalReport(
        result=result,
        normalized=normalized,
        levels=level_stats,
        n_rows=data.n_rows,
        wall_time=wall,
        bounds=p.bounds(max(lv.t for lv in level_stats)),
    )


def pi_hte(hier, data, *, seed=0, restarts=0, decompositions=None, do=None) -> EvalReport:
    """Evaluate a flattened hierarchy bottom-up against a dataset: plan, then
    execute, with domains read from the dataset."""
    return execute(plan(hier, data.domains, seed, restarts, decompositions), data, do)


def _renormalize(result, outcome):
    """Divide by the per-group total over the outcome variables; a group
    whose total is zero or underflows (absent from the marginal) is dropped."""
    group = [i for i, n in enumerate(result.names) if n not in set(outcome)]
    ids, _ = sf.group_ids(result.codes[:, group])
    denom = np.bincount(ids, weights=result.values)[ids]  # as marginalize sums
    kept = np.abs(denom) >= sf.UNDERFLOW_FLOOR
    return sf.SparseFactor.trusted(result.scope, result.codes[kept],
                                   result.values[kept] / denom[kept])


# -- brute-force oracle ----------------------------------------------------


def brute_force_eval(expr, data, dense_limit=10**6) -> sf.SparseFactor:
    """Literal dense evaluation of the original (unflattened) estimand.

    Binds every probability term empirically from the same dataset and
    enumerates all assignments of the free variables. The parser admits no
    primed names, so every variable is a dataset column.
    """
    free = tuple(sorted(free_vars(expr), key=name_key))
    bindings = {}
    for term in prob_terms(expr):
        key = term.key()
        if key not in bindings:
            bindings[key] = empirical_prob(data, term.left, term.right)
    domains = data.domains

    cells = 1
    for n in free:
        cells *= domains[n]
    if cells > dense_limit:
        raise DenseLimitExceeded(f"{cells} free-variable cells exceeds {dense_limit}")

    scope = tuple(Variable(n, domains[n]) for n in free)
    entries = {}
    for key in itertools.product(*(range(domains[n]) for n in free)):
        val = dense_expr_eval(expr, bindings, dict(zip(free, key)), domains, dense_limit)
        if val != 0.0:
            entries[key] = val
    return sf.SparseFactor(scope, entries)


# -- bound prediction ------------------------------------------------------


def predicted_bounds(level_stats, t, k, n):
    """Numeric treewidth/hyperwidth bounds plus the hierarchy exponent.

    Values too large for a float are reported in log10 only.
    """
    levels = []
    for lv in level_stats:
        w, hw = lv["w"], lv["hw"]
        tw_table_log10 = (w + 1) * math.log10(k) if k > 1 else 0.0
        tw_time_log10 = tw_table_log10 + math.log10(max(n, 1))
        log_t = math.log(t) if t > 1 else 0.0
        hw_time = max(float(n), n * hw * log_t * float(t) ** hw)
        levels.append(
            {
                "level": lv["level_id"],
                "w": w,
                "hw": hw,
                "tw_table_log10": tw_table_log10,
                "tw_time_log10": tw_time_log10,
                "tw_time": 10.0 ** tw_time_log10 if tw_time_log10 < 300 else None,
                "hw_time": hw_time,
                "hw_space": float(t) ** hw,
            }
        )
    sum_hw = sum(lv["hw"] for lv in level_stats)
    max_hw = max(lv["hw"] for lv in level_stats)
    max_w = max(lv["w"] for lv in level_stats)
    hw_total_log10 = sum_hw * math.log10(t) if t > 1 else 0.0
    tw_total_log10 = max(lv["tw_table_log10"] for lv in levels)
    return {
        "levels": levels,
        "sum_hw": sum_hw,
        "max_hw": max_hw,
        "max_w": max_w,
        "t": t,
        "k": k,
        "n": n,
        "hw_bound_log10": hw_total_log10,
        "hw_bound_value": float(t) ** sum_hw if hw_total_log10 < 300 else None,
        "tw_bound_log10": tw_total_log10,
        "tighter": "hw" if hw_total_log10 <= tw_total_log10 else "tw",
    }
