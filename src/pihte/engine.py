"""Cluster-tree elimination and the level-by-level plug-in evaluator.

Evaluation has two steps. `plan` fixes the structure of each hierarchy level
from the estimand alone: its hypergraph, a tree decomposition (supplied or
computed), the width statistics and its shared `Variable`s. `execute` binds
each term to a frequency table of a dataset (`model.empirical_prob`; primed
names read their base column), checks that each child denominator output
covers the support of the level's terms, injects it inverted as an ordinary
factor, and runs the level's CTE schedule, which alone says which tables meet
where and what each message sums out. A schedule folds each cluster whose
`chi` lies inside its only child's into that child's step, so a chain of
nested clusters sums out once (chain99: 51 steps for 99 clusters, two of
them with a sum). One plan serves any number of datasets.

Each `execute` schedules what it runs, where it runs it: each level's CTE,
each support check and each nested ratio's context; `analyze` builds no
schedule. `execute` alone decides which child outputs get a support check,
by one rule: an output is checked unless `_proved` holds for it (one bound
term of its level holds its whole scope) and no level under it lost an entry
to underflow. A check makes its own all-ones copies of the terms it reads.

Bound terms, their all-ones copies for the support check and every table
made from them that stays rows of the data carry provenance (see `factor`):
their joins, marginals and `factor.matches` work on `Dataset.group` ids. On
chain99 no table builds a code matrix until the report reads the result's.
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
    DivisionInconsistency,
    ResourceLimitExceeded,
    ScopeConflict,
    UnknownVariable,
    ValidationError,
)
from .estimand import FlatLevel, Hierarchy, dense_expr_eval, free_vars, prob_terms
from .model import Variable, base_name, empirical_prob, name_key, shared_variable

MAX_ENTRIES_ENV = "PIHTE_MAX_ENTRIES"


@dataclass(frozen=True)
class Step:
    """One turn of cluster-tree elimination: a cluster and every ancestor
    folded into it (see `schedule`)."""

    cluster: int
    factors: tuple  # factor ids in name order; cte orders the products by size
    children: tuple  # its child steps' cluster ids in id order, whose messages it multiplies in
    drop: frozenset  # the variables its message sums out


def schedule(td: TreeDecomposition, scopes, free_vars, root) -> tuple:
    """The steps of one-way message passing to `root`, leaves first; `scopes`
    maps factor ids to their variables, and a factor id of a `psi` that it
    lacks is left out. A message keeps its edge separator and every output
    variable it holds, so outputs straddling clusters meet at the root.

    A cluster whose `chi` lies inside the `chi` of its only child is folded
    into that child's step, and folds chain from the root down: the step
    multiplies the folded clusters' factors too, and its message goes to the
    highest folded cluster's parent, keeping what that parent's `chi` holds
    (all outputs at the root). So a chain of nested clusters sums out once.
    Each folded factor lies inside the child's `chi` and no sibling message
    meets it, so no table grows. A step's children are the steps that run
    its cluster's children, in id order."""
    free = frozenset(free_vars)
    chi = {u: c.chi for u, c in td.clusters.items()}
    adj = td.adjacency()
    parent = {root: None}
    order = [root]
    for u in order:  # BFS away from the root; `order` grows as it is walked
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                order.append(v)
    kids = {u: [v for v in adj[u] if v != parent[u]] for u in order}

    runs = {}  # cluster -> the cluster whose step multiplies its factors
    up = {}  # step cluster -> the parent of the highest cluster it runs
    psi = {}  # step cluster -> the factor ids of every cluster it runs
    for u in reversed(order):
        only = kids[u][0] if len(kids[u]) == 1 else None
        s = runs[only] if only is not None and chi[u] <= chi[only] else u
        runs[u] = s
        up[s] = parent[u]  # walking up, the last cluster folded in is the highest
        psi[s] = psi.get(s, frozenset()) | td.clusters[u].psi

    held = {}  # step cluster -> the variables of its message
    steps = []
    for u in reversed(order):
        if runs[u] != u:
            continue
        factors = tuple(sorted(psi[u] & scopes.keys(), key=name_key))
        children = tuple(sorted(runs[v] for v in kids[u]))
        names = held.pop(children[0]) if children else set()  # the first child's, extended
        names.update(*(scopes[f] for f in factors), *(held.pop(v) for v in children[1:]))
        # names lie in u's chi or are outputs, so a name is kept exactly
        # when it is an output or the step's parent cluster holds it too
        drop = frozenset(names.difference(free, chi[up[u]] if up[u] is not None else ()))
        names -= drop
        held[u] = names
        steps.append(Step(u, factors, children, drop))
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
    """Run a schedule: each step multiplies its tables (its factors and its
    children's messages) in the order `_join` picks and sums its `drop` out.
    Returns the last (root) step's message. `record` is handed every table
    made; a step that sums nothing out passes its table on as it is."""
    messages = {}
    for step in steps:
        tables = [factors[f] for f in step.factors] + [messages.pop(v) for v in step.children]
        h = _join(tables, record)
        messages[step.cluster] = record(sf.marginalize(h, step.drop)) if step.drop else h
    return messages[steps[-1].cluster]


def _proved(scopes, scope) -> bool:
    """Whether one of `scopes` (a level's bound terms') holds `scope` (a
    child output's) whole, so that a check of that output cannot raise:
    each bound term is positive exactly on the (`do`-sliced) rows'
    projection onto its scope, and a child output built with no underflow
    drop is positive on at least the rows' projection onto its own."""
    return any(set(s).issuperset(scope) for s in scopes)


def _support(steps, terms, context, keep, hold):
    """The support of the join of `context`, if any, and the bound terms
    `steps` meets in `terms`, projected onto `keep`. The join runs over
    all-ones copies of those terms, so no underflow can hide an entry.
    `hold` is handed every table made."""
    ones = {f: sf.with_values(terms[f], np.ones(terms[f].tightness))
            for step in steps for f in step.factors}
    s = cte(steps, ones, hold)
    if context is not None:
        s = hold(sf.product(s, context))
    drop = set(s.names).difference(keep)
    return hold(sf.marginalize(s, drop)) if drop else s


def check_support(steps, terms, context, g, do, hold):
    """Raise DivisionInconsistency where the child output `g` is zero under
    a nonzero numerator: a semi-join of the level's bound terms onto g
    (Yannakakis, VLDB 1981) in the Boolean semiring of FAQ (Abo Khamis, Ngo
    & Rudra, PODS 2016).

    `steps` schedules the level's bound terms in `terms` alone, keeping g's scope.
    Below the root, `context` holds the assignments of the level's free
    variables where the terms outside its ratio's numerator are nonzero (in
    their own context): elsewhere the product holding the ratio is zero
    whatever its denominator raises. Each support row must meet one row of
    g per assignment of g's variables that the support lacks (`do` fixes
    some); the error names the first row that does not, and where g lacks it.
    """
    support = _support(steps, terms, context, g.names, hold)
    lo, hi, _, g_only = sf.matches(support, g)
    ranges = [(do[v.name],) if v.name in do else range(v.domain_size)
              for v in (g.scope[j] for j in g_only)]
    short = np.flatnonzero(hi - lo != math.prod(map(len, ranges)))
    if len(short):
        key = dict(zip(support.names, support.codes[short[0]].tolist()))
        met = set(map(tuple, g.restrict(key).codes[:, g_only].tolist()))
        lacking = next(a for a in itertools.product(*ranges) if a not in met)
        key.update(zip((g.names[j] for j in g_only), lacking))
        key = {n: key[n] for n in g.names}
        raise DivisionInconsistency(f"entry {key} has no denominator support")


# -- evaluation report -----------------------------------------------------


@dataclass
class LevelStats:
    """One level's account of a run: its plan's widths, then every table
    made for it, each charged through `record`, which holds it to `cap`."""

    level_id: int
    widths: dict  # LevelPlan.widths(), reported as fields of their own
    k: int
    cap: object = field(default=None, repr=False)  # PIHTE_MAX_ENTRIES, or None
    t: int = 0
    max_table_entries: int = 0
    max_table_cells: int = field(default=1, repr=False)  # the largest table's dense size
    total_entries: int = 0
    wall_time: float = 0.0
    dropped: int = field(default=0, repr=False)  # entries its tables lost to underflow

    def record(self, f: sf.SparseFactor):
        """Charge `f` to this level, hold it to `cap`, and return it."""
        t = f.tightness
        if t > self.max_table_entries:
            self.max_table_entries = t
            self.max_table_cells = math.prod(v.domain_size for v in f.scope)
        self.total_entries += t
        self.dropped += f.underflow_dropped
        return self.hold(f)

    def hold(self, f: sf.SparseFactor):
        """Hold `f` to `cap` without charging it, and return it."""
        if self.cap is not None and f.tightness > self.cap:
            raise ResourceLimitExceeded(f"table with {f.tightness} entries exceeds cap {self.cap}")
        return f

    def as_dict(self):
        """The reported fields, `widths` spread among them: all but `cap`
        and `max_table_cells`."""
        out = {fd.name: getattr(self, fd.name) for fd in fields(self) if fd.repr}
        out.update(out.pop("widths"))
        return out


def _table_json(f: sf.SparseFactor) -> str:
    """`f` as `json.dumps(..., indent=2, sort_keys=True)` writes the dict
    `{"entries": [[list(key), value], ...], "scope": [[name, k], ...]}` as a
    value of the report's top-level object, rendered from its arrays: ints
    as `str` does, floats as `json` does (`float.__repr__`, or `NaN` and
    `Infinity`), one `%` format per entry."""
    key = "[\n" + ",\n".join(["          %s"] * len(f.names)) + "\n        ]" if f.names else "[]"
    entry = "      [\n        " + key + ",\n        %s\n      ]"
    values = f.values.tolist()
    if not np.isfinite(f.values).all():
        values = [json.dumps(v) for v in values]
    entries = [entry % (*row, v) for row, v in zip(f.codes.tolist(), values)]
    scope = [f"      [\n        {json.dumps(v.name)},\n        {v.domain_size}\n      ]"
             for v in f.scope]
    return "".join([
        '{\n    "entries": ',
        "[\n" + ",\n".join(entries) + "\n    ]" if entries else "[]",
        ',\n    "scope": ',
        "[\n" + ",\n".join(scope) + "\n    ]" if scope else "[]",
        "\n  }",
    ])


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

    def to_json(self) -> str:
        """The report as `json.dumps(..., indent=2, sort_keys=True)` of its
        dict writes it. The rest is dumped with `null` for each table, and
        each table's text (`_table_json`) replaces its `null`: the report's
        top-level keys are its only lines indented by two spaces."""
        tables = {"result": self.result}
        if self.normalized is not None:
            tables["normalized"] = self.normalized
        out = {
            "n_rows": self.n_rows,
            "max_table_entries": self.max_table_entries,
            "total_entries": self.total_entries,
            "tightness": self.bounds["t"],
            "density": self.density,
            "hierarchy_bound_exponent": self.bounds["sum_hw"],
            "levels": [lv.as_dict() for lv in self.levels],
            "bounds": self.bounds,
            **dict.fromkeys(tables),
            "wall_time": self.wall_time,
        }
        text = json.dumps(out, indent=2, sort_keys=True)
        for key, f in tables.items():
            text = text.replace(f'\n  "{key}": null', f'\n  "{key}": {_table_json(f)}', 1)
        return text


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
    variables: dict  # name -> its shared model.Variable, for every name of the level
    td: TreeDecomposition
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
            k=max(v.domain_size for lp in lps for v in lp.variables.values()),
            n=max(len(lp.hypergraph.nodes) for lp in lps),
        )


def plan(hier, domains, seed=0, restarts=0, decompositions=None) -> Plan:
    """Build each level's hypergraph, decomposition and `Variable`s once.

    `domains` maps variable names to domain sizes; a primed name reads its
    base name. `decompositions` maps a level id to a supplied
    TreeDecomposition, which alone is validated here; a supplied cluster
    without a cover gets the greedy one. Raises UnknownVariable for an
    estimand variable with no domain.
    """
    decompositions = decompositions or {}
    levels = {}
    for level in hier.levels:
        hg = build_hypergraph(level)
        undeclared = {base_name(n) for n in hg.nodes} - domains.keys()
        if undeclared:
            raise UnknownVariable(
                f"estimand variable {min(undeclared, key=name_key)!r} is not declared")
        variables = {n: shared_variable(n, domains[base_name(n)]) for n in hg.nodes}
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
            variables=variables,
            td=td,
            hw_no_outputs=hw_no_outputs,
            is_hypertree=is_hypertree,
            supplied=level.level_id in decompositions,
        )
    return Plan(hier=hier, levels=levels)


# -- execute ---------------------------------------------------------------


def _check_inputs(p: Plan, data, do):
    """The dataset has every column the plan binds, each with the plan's
    domain (so the plan's `Variable`s stand for the data's), and `do` fixes
    only free variables of the root level, inside their domains."""
    bound = {v.column: v.domain_size for lp in p.levels.values() for v in lp.variables.values()}
    missing = sorted(bound.keys() - set(data.columns), key=name_key)
    if missing:
        raise UnknownVariable(f"dataset has no column {missing[0]!r}")
    changed = sorted((c for c, k in bound.items() if data.domains[c] != k), key=name_key)
    if changed:
        c = changed[0]
        raise ScopeConflict(f"column {c!r} has domain {data.domains[c]} in the dataset but "
                            f"{bound[c]} in the plan")
    root = p.levels[p.hier.root]
    free = root.level.free_vars
    for name, value in do.items():
        if name not in free:
            raise UnknownVariable(
                f"do variable {name!r} is not a free variable of the estimand "
                f"(free: {', '.join(free)})"
            )
        k = root.variables[name].domain_size
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
    result = _eval_level(p, p.hier.root, data, do, cap, level_stats)
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


def _eval_level(p: Plan, level_id, data, do, cap, level_stats, context=None):
    """One level's output table, its child levels evaluated first; each
    level's LevelStats is appended to `level_stats`. (A module function, not
    a closure in `execute`: a recursive closure is a reference cycle, which
    would keep the run's tables and dataset alive until the garbage
    collector runs.) A child output is checked by `check_support` before it
    is inverted unless `_proved` holds for it and no level under it lost an
    entry to underflow; a child with ratios of its own gets its context.
    Both are scheduled to the cluster that holds the child's output."""
    lp = p.levels[level_id]
    level, td, edges = lp.level, lp.td, lp.hypergraph.edges
    t0 = time.monotonic()
    stats = LevelStats(level_id, lp.widths(), cap=cap,
                       k=max(v.domain_size for v in lp.variables.values()))

    # `build_hypergraph` writes the terms' edges first, then the child outputs'
    scopes = dict(edges[:len(level.factors)])
    terms = {}
    for f, t in zip(scopes, level.factors):
        bound = empirical_prob(data, lp.variables.__getitem__, t.left, t.right, t.scope)
        terms[f] = stats.record(bound.restrict(do))
    factors = dict(terms)
    # below the root, a check keeps the level's free variables, which its context spans
    carried = set() if level_id == p.hier.root else set(level.free_vars)
    for (g, _), (child_id, scope) in zip(edges[len(scopes):], level.child_outputs):
        child_level = p.hier.level(child_id)
        root = next(cid for cid, c in td.clusters.items() if g in c.psi)
        inner = None
        if child_level.child_outputs:
            outside = {f: s for i, (f, s) in enumerate(scopes.items())
                       if i not in child_level.numerator}
            reach = schedule(td, outside, carried.union(child_level.free_vars), root)
            inner = _support(reach, terms, context, child_level.free_vars, stats.hold)
        mark = len(level_stats)
        child = _eval_level(p, child_id, data, do, cap, level_stats, inner)
        if not _proved(scopes.values(), scope) or any(lv.dropped for lv in level_stats[mark:]):
            check = schedule(td, scopes, carried.union(scope), root)
            check_support(check, terms, context, child, do, stats.hold)
        factors[g] = stats.record(sf.invert(child))
    stats.t = max(f.tightness for f in factors.values())

    steps = schedule(td, dict(edges), level.free_vars, select_root(td, level.free_vars))
    out = cte(steps, factors, stats.record)
    stats.wall_time = time.monotonic() - t0
    level_stats.append(stats)
    return out


def pi_hte(hier, data, *, seed=0, restarts=0, decompositions=None, do=None) -> EvalReport:
    """Evaluate a flattened hierarchy bottom-up against a dataset: plan, then
    execute, with domains read from the dataset."""
    return execute(plan(hier, data.domains, seed, restarts, decompositions), data, do)


def _renormalize(result, outcome):
    """Divide each entry by its group's total over the outcome variables, their
    marginal; a group absent from it (zero or underflowed) is dropped."""
    totals = sf.marginalize(result, outcome)
    lo, hi, _, _ = sf.matches(result, totals)
    kept = hi > lo
    return sf.SparseFactor.trusted(result.scope, result.codes[kept],
                                   result.values[kept] / totals.values[lo[kept]])


# -- brute-force oracle ----------------------------------------------------


def brute_force_eval(expr, data, dense_limit=10**6, do=None) -> sf.SparseFactor:
    """Literal dense evaluation of the original (unflattened) estimand.

    Binds every probability term empirically from the same dataset and
    enumerates the free variables' assignments in the `do` slice alone. The
    parser admits no primed names, so every variable is a dataset column.
    """
    do = do or {}
    free = tuple(sorted(free_vars(expr), key=name_key))
    bindings = {}
    for term in prob_terms(expr):
        key = term.key()
        if key not in bindings:
            bindings[key] = empirical_prob(data, data.variable, term.left, term.right)
    domains = data.domains

    ranges = [(do[n],) if n in do else range(domains[n]) for n in free]
    cells = math.prod(map(len, ranges))
    if cells > dense_limit:
        raise DenseLimitExceeded(f"{cells} free-variable cells exceeds {dense_limit}")

    scope = tuple(Variable(n, domains[n]) for n in free)
    entries = {}
    for key in itertools.product(*ranges):
        val = dense_expr_eval(expr, bindings, dict(zip(free, key)), domains, dense_limit)
        if val != 0.0:
            entries[key] = val
    return sf.SparseFactor(scope, entries)


# -- bound prediction ------------------------------------------------------


def predicted_bounds(level_stats, t, k, n):
    """Numeric treewidth/hyperwidth bounds plus the hierarchy exponent.

    Values past 10^300 are None, and each is still reported in its log10.
    """
    levels = []
    for lv in level_stats:
        w, hw = lv["w"], lv["hw"]
        tw_table_log10 = (w + 1) * math.log10(k) if k > 1 else 0.0
        tw_time_log10 = tw_table_log10 + math.log10(max(n, 1))
        log_t = math.log(t) if t > 1 else 0.0
        hw_space_log10 = hw * math.log10(max(t, 1))
        hw_log_t = hw * log_t  # hw_time = n * max(1, hw * ln(t) * t^hw)
        hw_time_log10 = math.log10(max(n, 1)) + (
            max(0.0, math.log10(hw_log_t) + hw_space_log10) if hw_log_t > 0 else 0.0)
        fits = hw_space_log10 < 300  # t^hw, so hw_time too, fits a float
        levels.append(
            {
                "level": lv["level_id"],
                "w": w,
                "hw": hw,
                "tw_table_log10": tw_table_log10,
                "tw_time_log10": tw_time_log10,
                "tw_time": 10.0 ** tw_time_log10 if tw_time_log10 < 300 else None,
                "hw_space_log10": hw_space_log10,
                "hw_time_log10": hw_time_log10,
                "hw_time": max(float(n), n * hw * log_t * float(t) ** hw) if fits else None,
                "hw_space": float(t) ** hw if fits else None,
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
