import dataclasses
import gc
import itertools
import json
import math
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import bind, factors_close
from pihte.cli import main
from pihte.decomposition import (
    Cluster,
    TreeDecomposition,
    build_hypergraph,
    decompose,
    select_root,
)
from pihte.engine import (
    LevelStats,
    _renormalize,
    brute_force_eval,
    check_support,
    cte,
    execute,
    pi_hte,
    plan,
    predicted_bounds,
    run_metrics,
    schedule,
)
from pihte.errors import (
    DivisionByZero,
    DivisionInconsistency,
    ResourceLimitExceeded,
    ScopeConflict,
    UnknownVariable,
    ValidationError,
)
from pihte.estimand import MAX_NESTING, ProbTerm, Product, Ratio, Sum, flatten, parse
from pihte.factor import UNDERFLOW_FLOOR, SparseFactor, product, unit_factor
from pihte.model import CausalGraph, Dataset, Variable, empirical_prob, load_graph, name_key
from pihte.simulate import random_cbn, sample_dataset
from pihte.suite import make_instance


def chain_graph(n, k=2):
    return CausalGraph(
        [Variable(f"V{i}", k) for i in range(n)],
        [(f"V{i}", f"V{i+1}") for i in range(n - 1)],
    )


def small_data(seed=0, n=200):
    cbn = random_cbn(chain_graph(3), dist="dirichlet", alpha=1.0, seed=seed)
    return sample_dataset(cbn, n, seed=seed + 1)


# -- cte -------------------------------------------------------------------


def run_cte(td, factors, free, root=None):
    """CTE over a hand-made decomposition, scheduled as `plan` schedules it."""
    root = select_root(td, free) if root is None else root
    steps = schedule(td, {fid: f.names for fid, f in factors.items()}, free, root)
    return cte(steps, factors, lambda f: f)


def test_cte_single_cluster_matches_dense():
    data = small_data()
    fa = bind(data, ("V0",))
    fb = bind(data, ("V1",), ("V0",))
    td = TreeDecomposition(
        clusters={0: Cluster(chi=frozenset({"V0", "V1"}), psi=frozenset({"f0", "f1"}),
                             cover=("f1",))},
        edges=[],
    )
    out = run_cte(td, {"f0": fa, "f1": fb}, {"V1"})
    for v1 in range(2):
        want = math.fsum(
            fa.dense_eval({"V0": v0}) * fb.dense_eval({"V0": v0, "V1": v1})
            for v0 in range(2)
        )
        assert out.dense_eval({"V1": v1}) == pytest.approx(want, rel=1e-12)


def test_cte_two_clusters_matches_dense():
    data = small_data(seed=3)
    f0 = bind(data, ("V1",), ("V0",))
    f1 = bind(data, ("V2",), ("V1",))
    td = TreeDecomposition(
        clusters={
            0: Cluster(chi=frozenset({"V0", "V1"}), psi=frozenset({"f0"}), cover=("f0",)),
            1: Cluster(chi=frozenset({"V1", "V2"}), psi=frozenset({"f1"}), cover=("f1",)),
        },
        edges=[(0, 1)],
    )
    out = run_cte(td, {"f0": f0, "f1": f1}, {"V0", "V2"})
    for v0, v2 in itertools.product(range(2), range(2)):
        want = math.fsum(
            f0.dense_eval({"V0": v0, "V1": v1}) * f1.dense_eval({"V1": v1, "V2": v2})
            for v1 in range(2)
        )
        assert out.dense_eval({"V0": v0, "V2": v2}) == pytest.approx(want, rel=1e-12)


def test_cte_root_invariance():
    data = small_data(seed=4)
    f0 = bind(data, ("V1",), ("V0",))
    f1 = bind(data, ("V2",), ("V1",))
    td = TreeDecomposition(
        clusters={
            0: Cluster(chi=frozenset({"V0", "V1"}), psi=frozenset({"f0"}), cover=("f0",)),
            1: Cluster(chi=frozenset({"V1", "V2"}), psi=frozenset({"f1"}), cover=("f1",)),
        },
        edges=[(0, 1)],
    )
    factors = {"f0": f0, "f1": f1}
    a = run_cte(td, factors, {"V0", "V2"}, root=0)
    b = run_cte(td, factors, {"V0", "V2"}, root=1)
    assert factors_close(a, b, rel=1e-9)


def test_cte_scalar_factors():
    td = TreeDecomposition(
        clusters={0: Cluster(chi=frozenset(), psi=frozenset({"f0", "f1"}), cover=())},
        edges=[],
    )
    two = SparseFactor((), {(): 2.0})
    three = SparseFactor((), {(): 3.0})
    out = run_cte(td, {"f0": two, "f1": three}, set())
    assert out.dense_eval({}) == 6.0


def test_plan_rejects_psi_naming_an_unknown_factor(capsys, tmp_path):
    """The one route by which an unbound factor id could reach CTE is a
    supplied decomposition, and `plan` refuses it before any data is read."""
    estimand = "sum[V1](P(V1|V0) P(V2|V1))"
    td = TreeDecomposition(
        clusters={0: Cluster(chi=frozenset({"V0", "V1", "V2"}),
                             psi=frozenset({"f0", "f1", "f9"}))},
        edges=[],
    )
    with pytest.raises(ValidationError, match="unknown factor f9 in psi"):
        plan(flatten(parse(estimand)), {"V0": 2, "V1": 2, "V2": 2}, decompositions={0: td})

    graph = tmp_path / "chain.graph"
    graph.write_text("var V0 2\nvar V1 2\nvar V2 2\nV0 -> V1\nV1 -> V2\n")
    data = tmp_path / "chain.csv"
    data.write_text("V0,V1,V2\n0,1,1\n1,0,1\n")
    bad = tmp_path / "bad.td"
    bad.write_text("cluster 0: chi={V0,V1,V2} psi={f0,f1,f9}\n")
    code = main(["estimate", "--graph", str(graph), "--data", str(data),
                 "--estimand", estimand, "--decomposition", str(bad)])
    assert code == 2
    assert "f9" in capsys.readouterr().err


def one_level_stats(cap=None):
    widths = {"n_vars": 1, "n_factors": 1, "w": 0, "hw": 1, "hw_no_outputs": 1,
              "is_hypertree": True}
    return LevelStats(0, widths, k=4, cap=cap)


def test_tracker_cap():
    stats = one_level_stats(cap=3)
    f = SparseFactor((Variable("A", 4),), {(i,): 1.0 for i in range(4)})
    with pytest.raises(ResourceLimitExceeded):
        stats.record(f)


def test_tracker_charges_the_level_it_is_given():
    stats = one_level_stats()
    small = SparseFactor((Variable("A", 2),), {(0,): 1.0})
    wide = SparseFactor((Variable("A", 4),), {(i,): 1.0 for i in range(3)})
    assert stats.record(wide) is wide
    stats.record(small)
    assert (stats.max_table_entries, stats.max_table_cells, stats.total_entries) == (3, 4, 4)
    assert not {"cap", "max_table_cells"} & set(stats.as_dict())


def test_tracker_env_cap(monkeypatch):
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 1), (1, 1)], {"A": 2, "B": 2})
    hier = flatten(parse("P(B|A) P(A)"))
    monkeypatch.setenv("PIHTE_MAX_ENTRIES", "2")
    with pytest.raises(ResourceLimitExceeded, match="3 entries exceeds cap 2"):
        pi_hte(hier, data)
    monkeypatch.setenv("PIHTE_MAX_ENTRIES", "3")
    assert pi_hte(hier, data).max_table_entries == 3


def test_report_totals_come_from_its_levels():
    # both levels peak at 2 entries: P(A) over 2 cells at the root, P(B)
    # over 3 in the denominator's level; density comes from the first by id
    data = Dataset(("A", "B"), [(0, 0), (1, 1)], {"A": 2, "B": 3})
    rep = pi_hte(flatten(parse("P(A) / sum[B](P(B))")), data)
    assert [(lv.level_id, lv.max_table_entries, lv.max_table_cells, lv.total_entries)
            for lv in rep.levels] == [(0, 2, 2, 5), (1, 2, 3, 3)]
    assert (rep.max_table_entries, rep.total_entries, rep.density) == (2, 8, 1.0)


# -- pi_hte ----------------------------------------------------------------


def test_pi_hte_depth_one_equals_brute_force():
    data = small_data(seed=5)
    expr = parse("sum[V1](P(V1|V0) P(V2|V1))")
    got = pi_hte(flatten(expr), data).result
    want = brute_force_eval(expr, data)
    assert factors_close(got, want, rel=1e-9)


def test_pi_hte_napkin_matches_oracle(fixture_path):
    from pihte.model import load_graph

    g = load_graph(fixture_path("napkin.graph"))
    cbn = random_cbn(g, dist="dirichlet", alpha=1.0, seed=11)
    data = sample_dataset(cbn, 1000, seed=12)
    expr = parse(open(fixture_path("napkin.estimand")).read())
    got = pi_hte(flatten(expr), data).result
    want = brute_force_eval(expr, data)
    assert factors_close(got, want, rel=1e-9)


def test_pi_hte_do_restricts_slice():
    data = small_data(seed=6)
    expr = parse("sum[V1](P(V1|V0) P(V2|V1))")
    hier = flatten(expr)
    full = pi_hte(hier, data).result
    sliced = pi_hte(hier, data, do={"V0": 1}).result
    assert all(k[full.names.index("V0")] == 1 for k, _ in sliced.items())
    for key, val in sliced.items():
        assert val == pytest.approx(dict(full.items())[key], rel=1e-12)


def test_pi_hte_normalizes_per_do_configuration():
    data = small_data(seed=7)
    expr = parse("sum[V1](P(V1|V0) P(V2|V1))")
    rep = pi_hte(flatten(expr), data, do={"V0": 0})
    assert rep.normalized is not None
    total = math.fsum(v for _, v in rep.normalized.items())
    assert total == pytest.approx(1.0, rel=1e-9)


def test_pi_hte_respects_entry_cap(monkeypatch):
    monkeypatch.setenv("PIHTE_MAX_ENTRIES", "1")
    data = small_data(seed=8, n=300)
    expr = parse("sum[V1](P(V1|V0) P(V2|V1))")
    with pytest.raises(ResourceLimitExceeded):
        pi_hte(flatten(expr), data)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_pi_hte_deterministic(seed):
    data = small_data(seed=seed)
    expr = parse("sum[V1](P(V1|V0) P(V2|V1) P(V0))")
    hier = flatten(expr)
    a = pi_hte(hier, data, seed=seed)
    b = pi_hte(hier, data, seed=seed)
    assert dict(a.result.items()) == dict(b.result.items())  # bitwise
    assert untimed(a) == untimed(b)


def untimed(report):
    """The report's JSON as a dict, without the `wall_time` keys that differ
    from run to run."""
    out = json.loads(report.to_json())
    del out["wall_time"]
    for lv in out["levels"]:
        del lv["wall_time"]
    return out


def report_dict_json(report):
    """The report as `to_json` wrote it before it rendered tables from their
    arrays: `json.dumps` of the whole dict, the reference it must match."""
    def table(f):
        return {"scope": [[v.name, v.domain_size] for v in f.scope],
                "entries": [[list(k), v] for k, v in f.items()]}

    out = {"n_rows": report.n_rows, "max_table_entries": report.max_table_entries,
           "total_entries": report.total_entries, "tightness": report.bounds["t"],
           "density": report.density, "hierarchy_bound_exponent": report.bounds["sum_hw"],
           "levels": [lv.as_dict() for lv in report.levels], "bounds": report.bounds,
           "result": table(report.result), "wall_time": report.wall_time}
    if report.normalized is not None:
        out["normalized"] = table(report.normalized)
    return json.dumps(out, indent=2, sort_keys=True)


@st.composite
def report_tables(draw):
    """A factor over up to three of a few names (some need JSON escapes),
    with any non-zero float values, 1e-300 and 1e300 among them."""
    names = draw(st.lists(st.sampled_from(["A", "V10", "V2'", 'q"\\', "é"]),
                          max_size=3, unique=True))
    scope = [Variable(n, draw(st.integers(1, 3))) for n in names]
    keys = list(itertools.product(*(range(v.domain_size) for v in scope)))
    chosen = draw(st.lists(st.sampled_from(keys), unique=True))
    value = st.one_of(st.sampled_from([1e-300, 1e300, -1e300, 0.5]),
                      st.floats().filter(bool))
    return SparseFactor(scope, {k: draw(value) for k in chosen})


@settings(max_examples=200, deadline=None)
@given(report_tables(), st.one_of(st.none(), report_tables()))
@example(unit_factor(), None)
@example(SparseFactor([Variable("A", 2)], {}), SparseFactor([Variable("A", 2)], {}))
def test_to_json_matches_json_dumps_of_the_report_dict(result, normalized):
    base = pi_hte(flatten(parse("sum[V1](P(V1|V0) P(V2|V1))")), small_data(seed=3))
    report = dataclasses.replace(base, result=result, normalized=normalized)
    assert report.to_json() == report_dict_json(report)


def test_level_stats_reported():
    data = small_data(seed=9)
    rep = pi_hte(flatten(parse("sum[V1](P(V1|V0) P(V2|V1))")), data)
    assert len(rep.levels) == 1
    lv = rep.levels[0]
    assert lv.widths["hw"] == 1 and lv.widths["is_hypertree"]
    assert lv.t <= data.n_rows
    assert rep.max_table_entries >= lv.max_table_entries


def test_one_plan_executes_like_pi_hte_on_each_dataset(fixture_path):
    from pihte.model import load_graph

    g = load_graph(fixture_path("napkin.graph"))
    hier = flatten(parse(open(fixture_path("napkin.estimand")).read()))
    structure = plan(hier, {v.name: v.domain_size for v in g.variables})
    for seed in range(3):
        cbn = random_cbn(g, dist="dirichlet", alpha=1.0, seed=seed)
        data = sample_dataset(cbn, 300 + 100 * seed, seed=seed + 10)
        got = execute(structure, data)
        want = pi_hte(hier, data)
        assert dict(got.result.items()) == dict(want.result.items())  # bitwise
        assert untimed(got) == untimed(want)


@pytest.mark.parametrize("seed", range(3))
def test_supplied_cone_td_does_not_fan_out(fixture_path, monkeypatch, seed):
    # the .td's cluster 0 holds seven tables; met in name order, f0 and f3
    # first, they built tables of 4.3-4.6 times the row count here
    from pihte.decomposition import load_decomposition
    from pihte.model import load_graph

    monkeypatch.delenv("PIHTE_MAX_ENTRIES", raising=False)
    g = load_graph(fixture_path("cone_cloud.graph"))
    hier = flatten(parse(open(fixture_path("cone_cloud.estimand")).read()))
    td = load_decomposition(fixture_path("cone_cloud.td"))
    data = sample_dataset(random_cbn(g, dist="dirichlet", alpha=10, seed=seed), 400, seed=seed)
    supplied = pi_hte(hier, data, decompositions={hier.root: td})
    assert supplied.max_table_entries <= 1.5 * data.n_rows
    assert factors_close(supplied.result, pi_hte(hier, data).result, rel=1e-12)


def test_plan_names_undeclared_variable():
    with pytest.raises(UnknownVariable, match="'Z'"):
        plan(flatten(parse("P(V0|Z)")), {"V0": 2})


def planned_cases(fixture_path):
    """(hierarchy, dataset) for chain99, chain7, the cone, napkin and suite
    instances 0-99."""
    for stem, rows in (("chain99", 200), ("chain7", 400), ("cone_cloud", 400), ("napkin", 400)):
        graph = load_graph(fixture_path(f"{stem}.graph"))
        with open(fixture_path(f"{stem}.estimand"), encoding="utf-8") as fh:
            hier = flatten(parse(fh.read()))
        yield stem, hier, sample_dataset(random_cbn(graph, dist="dirichlet", alpha=1.0, seed=3),
                                         rows, seed=4)
    for seed in range(100):
        inst = make_instance(seed)
        yield f"suite {seed}", flatten(parse(inst.estimand)), inst.data


def test_planned_bindings_equal_binding_by_names(fixture_path):
    """Every bound term of every level, bound through the plan level's
    `Variable`s as `execute` binds it, equals the term bound from its names
    alone on a fresh copy of the data (its own group memo): the same
    `Variable` objects, names, row dtype and rows, and values bit for bit;
    with and without a `do` slice on the root's first free variable."""
    for case, hier, data in planned_cases(fixture_path):
        p = plan(hier, data.domains)
        fresh = Dataset(data.columns, data.cells, data.domains)
        first = p.levels[hier.root].level.free_vars[0]
        for do in ({}, {first: min(1, data.domains[first.rstrip("'")] - 1)}):
            for lp in p.levels.values():
                assert lp.variables.keys() == set(lp.hypergraph.nodes), case
                for term in lp.level.factors:
                    got = empirical_prob(data, lp.variables.__getitem__, term.left, term.right,
                                         term.scope).restrict(do)
                    want = bind(fresh, term.left, term.right).restrict(do)
                    assert all(a is b for a, b in zip(got.scope, want.scope)), (case, term)
                    assert len(got.scope) == len(want.scope)
                    assert got.names == want.names == term.scope, (case, term)
                    assert got.rows.dtype == want.rows.dtype, (case, term)
                    assert np.array_equal(got.rows, want.rows), (case, term)
                    assert got.values.tobytes() == want.values.tobytes(), (case, term)


@pytest.mark.parametrize("stem", ["chain99", "napkin"])
def test_only_execute_binds_and_once_per_term(fixture_path, monkeypatch, capsys, stem):
    """`analyze` binds no term: the widths and bounds are the hypergraph's
    alone. One `execute` calls `empirical_prob` once per bound term of each
    level, through that level's `Variable`s and with the term's own scope."""
    import pihte.engine as engine_module

    calls = []
    real = engine_module.empirical_prob
    monkeypatch.setattr(engine_module, "empirical_prob",
                        lambda *args: calls.append(args) or real(*args))
    graph, estimand = fixture_path(f"{stem}.graph"), fixture_path(f"{stem}.estimand")
    assert main(["analyze", "--graph", graph, "--estimand-file", estimand]) == 0
    assert json.loads(capsys.readouterr().out)["levels"]
    assert calls == []

    data = sample_dataset(random_cbn(load_graph(graph), dist="dirichlet", alpha=1.0, seed=3),
                          800, seed=4)
    with open(estimand, encoding="utf-8") as fh:
        p = plan(flatten(parse(fh.read())), data.domains)
    execute(p, data)
    got = Counter((d is data, id(variable.__self__), left, right, id(names))
                  for d, variable, left, right, names in calls)
    assert got == Counter((True, id(lp.variables), t.left, t.right, id(t.scope))
                          for lp in p.levels.values() for t in lp.level.factors)


@pytest.fixture
def schedule_calls(monkeypatch):
    """Every call to `engine.schedule` from now on, as its arguments."""
    import pihte.engine as engine_module

    calls = []
    monkeypatch.setattr(engine_module, "schedule",
                        lambda *args: calls.append(args) or schedule(*args))
    return calls


# a ratio whose denominator holds a ratio of its own, so that the root's
# check also schedules the context of its child's checks. No root term holds
# its child's output {V0, V1}, so the root's check runs; P(V1|V0) holds
# level 1's child output {V0}, so that check is proved
NESTED_RATIO = "P(V2|V1) / (P(V1|V0) / (P(V0)))"


def test_analyze_builds_no_schedule(fixture_path, schedule_calls, capsys):
    assert main(["analyze", "--graph", fixture_path("chain99.graph"),
                 "--estimand-file", fixture_path("chain99.estimand")]) == 0
    assert json.loads(capsys.readouterr().out)["max_hw"] == 1
    assert schedule_calls == []


def test_estimate_schedules_each_level_and_each_check_once(
        fixture_path, schedule_calls, capsys, tmp_path):
    """napkin: two levels, and no check, since P(X,Y|R,W) holds the child's
    output {R, X}. The nested ratio: three levels, the root's check of a
    child with checks of its own, and that child's context; the child's own
    check is proved."""
    data = tmp_path / "napkin.csv"
    assert main(["simulate", "--graph", fixture_path("napkin.graph"), "--seed", "3",
                 "--rows", "400", "--out", str(data)]) == 0
    assert main(["estimate", "--graph", fixture_path("napkin.graph"), "--estimand-file",
                 fixture_path("napkin.estimand"), "--data", str(data)]) == 0
    assert len(schedule_calls) == 2
    schedule_calls.clear()
    pi_hte(flatten(parse(NESTED_RATIO)), small_data())
    assert len(schedule_calls) == 3 + 1 + 1


def test_each_run_schedules_its_own_levels_checks_and_contexts(
        fixture_path, schedule_calls, capsys):
    """The `bench` path: one plan executed on a dataset per size schedules
    each level, and each check and context, once per run."""
    assert main(["bench", "--graph", fixture_path("napkin.graph"), "--estimand-file",
                 fixture_path("napkin.estimand"), "--sizes", "200,300"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 2
    assert len(schedule_calls) == 2 * 2
    hier = flatten(parse(NESTED_RATIO))
    p = plan(hier, {"V0": 2, "V1": 2, "V2": 2})
    schedule_calls.clear()
    execute(p, small_data(0))
    execute(p, small_data(1))
    assert len(schedule_calls) == 2 * (3 + 2)


def test_check_support_runs_only_where_no_bound_term_holds_the_output(
        fixture_path, monkeypatch):
    """P(A) P(B) / P(A,B): neither term holds {A, B}, so the check runs. The
    nested ratio: the root's check runs, its child's is proved. napkin: the
    one check is proved, and no check runs."""
    import pihte.engine as engine_module

    calls = []
    monkeypatch.setattr(engine_module, "check_support",
                        lambda *args: calls.append(args) or check_support(*args))
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 0), (1, 1)], {"A": 2, "B": 2})
    pi_hte(flatten(parse("P(A) P(B) / P(A,B)")), data)
    assert len(calls) == 1
    calls.clear()
    pi_hte(flatten(parse(NESTED_RATIO)), small_data())
    assert [args[3].names for args in calls] == [("V0", "V1")]
    calls.clear()
    graph = load_graph(fixture_path("napkin.graph"))
    napkin = sample_dataset(random_cbn(graph, seed=3), 400, seed=4)
    pi_hte(flatten(parse(open(fixture_path("napkin.estimand")).read())), napkin)
    assert calls == []


def test_a_column_whose_domain_differs_from_the_plan_is_an_input_error(
        monkeypatch, capsys, tmp_path):
    """The plan's `Variable`s stand for the data's only when each bound
    column has the plan's domain; a dataset that widens one is an input
    error (exit 2) naming the column, raised before any term is bound."""
    import pihte.cli as cli
    import pihte.engine as engine_module

    estimand = "sum[V1](P(V1|V0) P(V2|V1))"
    p = plan(flatten(parse(estimand)), {"V0": 2, "V1": 2, "V2": 2})
    data = Dataset(("V0", "V1", "V2"), [(0, 0, 1), (1, 2, 0)], {"V0": 2, "V1": 3, "V2": 2})
    calls = []
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "empirical_prob", lambda *args: calls.append(args))
        with pytest.raises(ScopeConflict,
                           match="column 'V1' has domain 3 in the dataset but 2 in the plan"):
            execute(p, data)
    assert calls == []

    graph = tmp_path / "g.graph"
    graph.write_text("var V0 2\nvar V1 2\nvar V2 2\nV0 -> V1\nV1 -> V2\n", encoding="utf-8")
    monkeypatch.setattr(cli, "_load_data", lambda args, g: data)
    code = main(["estimate", "--graph", str(graph), "--estimand", estimand,
                 "--data", str(tmp_path / "unused.csv")])
    assert code == 2
    assert "column 'V1' has domain 3 in the dataset but 2 in the plan" in capsys.readouterr().err


@pytest.mark.parametrize("do, error, name", [
    ({"V1": 0}, UnknownVariable, "V1"),   # summed out, not free
    ({"Q": 0}, UnknownVariable, "Q"),     # not in the estimand
    ({"V0": 2}, ValueError, "V0"),        # outside the domain 0..1
])
def test_execute_rejects_do_outside_contract(do, error, name):
    data = small_data(seed=14)
    hier = flatten(parse("sum[V1](P(V1|V0) P(V2|V1))"))
    with pytest.raises(error, match=name):
        execute(plan(hier, data.domains), data, do)


def test_nesting_at_the_parser_limit_evaluates():
    """Sums and ratios nested MAX_NESTING deep still parse, flatten, evaluate
    and match the dense oracle."""
    n = MAX_NESTING
    names = [f"V{i}" for i in range(n + 2)]
    # each variable copies the previous one, so the dense oracle prunes every
    # zero branch and stays linear in the depth
    rows = [(v,) * len(names) for v in (0, 1, 1)]
    data = Dataset(names, rows, {name: 2 for name in names})
    sums = "".join(f"sum[V{i}](P(V{i}|V{i - 1}) " for i in range(1, n + 1))
    ratios = "P(V0) / (" * n + "P(V0)" + ")" * n
    for text in (sums + f"P(V{n + 1}|V{n})" + ")" * n, ratios):
        expr = parse(text)
        hier = flatten(expr)
        assert hier.depth == (n + 1 if text == ratios else 1)
        assert factors_close(pi_hte(hier, data).result, brute_force_eval(expr, data), rel=1e-9)


def test_density_is_largest_table_over_its_cells():
    inst = make_instance(0)
    rep = pi_hte(flatten(parse(inst.estimand)), inst.data)
    assert 0 < rep.density <= 1


def cyclic_instance(seed):
    """Data simulated on a random graph over 3-6 variables with domains of
    2-3, a free variable, and a cyclic estimand: the triangle P(a|b) P(b|c)
    P(c|a) times 0-2 random terms, none holding all of a, b and c, summed
    over every variable it uses but the free one. Every third estimand
    divides by the same body summed over all its variables too, a scalar
    that any observed row makes positive."""
    rng = random.Random(seed)
    names = [f"V{i}" for i in range(rng.randint(3, 6))]
    graph = CausalGraph([Variable(v, rng.randint(2, 3)) for v in names],
                        [(u, v) for i, u in enumerate(names) for v in names[i + 1:]
                         if rng.random() < 0.4])
    data = sample_dataset(random_cbn(graph, seed=seed), rng.randint(50, 300), seed=seed + 1)
    a, b, c = rng.sample(names, 3)
    terms = [((a,), (b,)), ((b,), (c,)), ((c,), (a,))]
    for _ in range(rng.randint(0, 2)):
        left = rng.choice(names)
        right = tuple(rng.sample([v for v in names if v != left], rng.randint(0, 2)))
        if not {a, b, c} <= {left, *right}:  # a term over the whole triangle would cover it
            terms.append(((left,), right))
    used = sorted({v for left, right in terms for v in left + right}, key=name_key)
    free = rng.choice(used)
    body = " ".join(f"P({left[0]}|{','.join(right)})" if right else f"P({left[0]})"
                    for left, right in terms)
    text = f"sum[{','.join(v for v in used if v != free)}]({body})"
    if seed % 3 == 0:
        text += f" / (sum[{','.join(used)}]({body}))"
    return data, free, text


def test_cyclic_levels_match_brute_force():
    """Min-fill, restarts, a supplied decomposition and --do slices on levels
    GYO cannot decompose, against the dense oracle."""
    for seed in range(150):
        data, free, text = cyclic_instance(seed)
        expr = parse(text)
        hier = flatten(expr)
        want = brute_force_eval(expr, data)
        hg = build_hypergraph(hier.level(hier.root))
        one_cluster = TreeDecomposition(
            {0: Cluster(frozenset(hg.nodes), frozenset(fid for fid, _ in hg.edges))}, [])
        for restarts, supplied in ((0, None), (2, None), (0, {hier.root: one_cluster})):
            p = plan(hier, data.domains, restarts=restarts, decompositions=supplied)
            if supplied is None:
                assert p.levels[hier.root].td.hyperwidth >= 2, text
            assert factors_close(execute(p, data).result, want, rel=1e-9), (
                text, restarts, supplied)
        for value in range(data.domains[free]):
            got = execute(p, data, {free: value}).result
            assert factors_close(got, want.restrict({free: value}), rel=1e-9), (text, value)


RATIO_VARS = ("A", "B", "C", "D")


def random_term(rng):
    names = rng.sample(RATIO_VARS, rng.randint(1, 3))
    cut = rng.randint(1, len(names))
    return ProbTerm(tuple(names[:cut]), tuple(names[cut:]))


def random_side(rng, depth):
    """A product of one to three parts at depth 1, one or two below, each a
    term or, at depth 1, one time in five a ratio of two sides; three times
    in ten summed over some of its free variables, or all of them."""
    parts = [Ratio(random_side(rng, depth + 1), random_side(rng, depth + 1))
             if depth < 2 and rng.random() < 0.2 else random_term(rng)
             for _ in range(rng.randint(1, 4 - depth))]
    expr = parts[0] if len(parts) == 1 else Product(tuple(parts))
    free = sorted(expr.free)
    if free and rng.random() < 0.3:
        expr = Sum(tuple(rng.sample(free, rng.randint(1, len(free)))), expr)
    return expr


def ratio_instance(rng):
    """A ratio of two random sides, three times in ten beside a term on
    either side of it, and 3-6 random rows over four binary variables."""
    expr = Ratio(random_side(rng, 1), random_side(rng, 1))
    if rng.random() < 0.3:
        term = random_term(rng)
        expr = Product((term, expr) if rng.random() < 0.5 else (expr, term))
    rows = [tuple(rng.randrange(2) for _ in RATIO_VARS) for _ in range(rng.randint(3, 6))]
    return expr, rows


def divides_by_zero(expr, data, restarts=0, do=None):
    """Whether brute force divides a nonzero by zero, once the engine is
    seen to raise DivisionInconsistency exactly then and otherwise to give
    brute force's values."""
    try:
        want = brute_force_eval(expr, data, do=do)
    except DivisionByZero:
        want = None
    try:
        got = pi_hte(flatten(expr), data, restarts=restarts, do=do).result
    except DivisionInconsistency:
        got = None
    assert (got is None) == (want is None), (expr, data.rows, restarts, do)
    assert got is None or factors_close(got, want, rel=1e-9), (expr, data.rows, restarts, do)
    return want is None


def test_ratio_estimands_match_brute_force():
    """On 2,000 random ratio estimands, nested ratios among them, the engine
    raises DivisionInconsistency exactly where brute force divides a nonzero
    by zero, and otherwise gives its values. Every tenth is also run under
    restarts, and every tenth from the fifth on a slice that fixes one free
    variable, where brute force evaluates that slice alone."""
    rng, slicer = random.Random(0), random.Random(1)
    raised = rescued = 0
    for i in range(2000):
        expr, rows = ratio_instance(rng)
        data = Dataset(RATIO_VARS, rows, {v: 2 for v in RATIO_VARS})
        whole = divides_by_zero(expr, data)
        raised += whole
        if i % 10 == 0:
            divides_by_zero(expr, data, restarts=2)
        free = sorted(expr.free)
        if i % 10 == 5 and free:
            do = {slicer.choice(free): slicer.randrange(2)}
            rescued += whole and not divides_by_zero(expr, data, do=do)
    assert 1000 < raised < 2000  # both outcomes are well represented
    assert rescued > 10  # slices that evaluate where the whole estimand raises


def test_proved_support_checks_never_raise(monkeypatch):
    """With `_proved` always false, so that every child output is checked,
    every untimed report and every DivisionInconsistency message equals the
    run with the proof on, and `check_support` runs more often: on suite
    instances 0-299 under restarts 0 and 2, whose every ratio is proved, and
    on the estimands of test_ratio_estimands_match_brute_force with its
    slices."""
    import pihte.engine as engine_module

    calls = []
    monkeypatch.setattr(engine_module, "check_support",
                        lambda *args: calls.append(args) or check_support(*args))

    def outcome(hier, data, restarts, do):
        try:
            return untimed(pi_hte(hier, data, restarts=restarts, do=do))
        except DivisionInconsistency as e:
            return str(e)

    insts = [make_instance(seed) for seed in range(300)]
    assert sum("/" in inst.estimand for inst in insts) > 80
    cases = [(flatten(parse(inst.estimand)), inst.data, r, None) for inst in insts for r in (0, 2)]
    proof_on = [outcome(*case) for case in cases]
    assert calls == []  # every ratio of the suite is proved
    rng, slicer = random.Random(0), random.Random(1)
    for i in range(2000):
        expr, rows = ratio_instance(rng)
        data = Dataset(RATIO_VARS, rows, {v: 2 for v in RATIO_VARS})
        cases.append((flatten(expr), data, 0, None))
        free = sorted(expr.free)
        if i % 10 == 5 and free:
            cases.append((flatten(expr), data, 0, {slicer.choice(free): slicer.randrange(2)}))
    proof_on += [outcome(*case) for case in cases[len(proof_on):]]
    checks_on = len(calls)
    monkeypatch.setattr(engine_module, "_proved", lambda scopes, scope: False)
    for case, want in zip(cases, proof_on):
        assert outcome(*case) == want, case
    assert len(calls) - checks_on > checks_on


# -- brute force -----------------------------------------------------------


def test_brute_force_hand_example():
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 1), (1, 1)], {"A": 2, "B": 2})
    out = brute_force_eval(parse("sum[A](P(A) P(B|A))"), data)
    # P(B=1) = P(A=0)P(B=1|A=0) + P(A=1)P(B=1|A=1) = .5*.5 + .5*1
    assert out.dense_eval({"B": 1}) == pytest.approx(0.75)
    assert out.dense_eval({"B": 0}) == pytest.approx(0.25)


def test_brute_force_do_evaluates_the_slice_alone():
    # B=2 is never observed, so the whole estimand divides by zero there
    data = Dataset(("A", "B"), [(0, 0), (1, 1), (1, 0)], {"A": 2, "B": 3})
    expr = parse("P(A) / (P(B))")
    with pytest.raises(DivisionByZero):
        brute_force_eval(expr, data)
    out = brute_force_eval(expr, data, do={"B": 1})
    assert out.names == ("A", "B")
    assert dict(out.items()) == pytest.approx({(0, 1): 1.0, (1, 1): 2.0})


def test_brute_force_single_term_is_marginal():
    data = small_data(seed=10)
    out = brute_force_eval(parse("P(V0)"), data)
    want = bind(data, ("V0",))
    assert factors_close(out, want, rel=1e-15)


# -- bounds / metrics ------------------------------------------------------


def test_predicted_bounds_chain99_log():
    stats = [{"level_id": 0, "w": 98, "hw": 1}]
    b = predicted_bounds(stats, t=10000, k=4, n=99)
    assert b["tw_bound_log10"] == pytest.approx(99 * math.log10(4), abs=1e-9)
    assert 59.5 <= b["tw_bound_log10"] <= 59.7
    assert b["sum_hw"] == 1
    assert b["hw_bound_value"] == pytest.approx(10000.0)
    assert b["tighter"] == "hw"


def test_predicted_bounds_hierarchy_exponents():
    stats = [{"level_id": 0, "w": 3, "hw": 1}, {"level_id": 1, "w": 2, "hw": 1}]
    b = predicted_bounds(stats, t=500, k=3, n=4)
    assert b["sum_hw"] == 2
    assert b["max_hw"] == 1


def test_predicted_bounds_t1_floor():
    stats = [{"level_id": 0, "w": 5, "hw": 2}]
    b = predicted_bounds(stats, t=1, k=2, n=6)
    assert b["levels"][0]["hw_time"] == 6.0


def test_run_metrics_row():
    data = small_data(seed=12)
    rep = pi_hte(flatten(parse("sum[V1](P(V1|V0) P(V2|V1))")), data)
    row = run_metrics(rep)
    assert set(row) == {"samples", "time", "max_table_size", "t", "density"}
    assert row["samples"] == data.n_rows
    assert row["time"] >= 0.0
    # intermediate joins can exceed the largest input factor's dense size
    assert row["density"] > 0


def test_total_entries_charges_each_table_once():
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 1), (1, 1)], {"A": 2, "B": 2})
    rep = pi_hte(flatten(parse("P(B|A) P(A)")), data)
    # P(B|A) has 3 entries, P(A) 2 and their product 3; no step sums anything
    # out, so no message is a new table
    assert rep.total_entries == 8
    assert rep.max_table_entries == 3


def test_empirical_prob_primed_reads_base_column():
    data = small_data(seed=13)
    f = bind(data, ("V1",), ("V0'",))
    base = bind(data, ("V1",), ("V0",))
    assert f.names == ("V0'", "V1")
    assert [v.domain_size for v in f.scope] == [v.domain_size for v in base.scope]
    assert dict(f.items()) == dict(base.items())


def test_flatten_and_pi_hte_leave_no_reference_cycle():
    # a cycle (a recursive closure) keeps a run's levels, tables and dataset
    # alive until the collector runs, which raised peak memory over many
    # queries in one process
    instances = [make_instance(seed) for seed in range(20)]
    gc.collect()
    gc.disable()
    try:
        for inst in instances:
            hier = flatten(parse(inst.estimand))
            assert hier.depth >= 1
            pi_hte(hier, inst.data)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_renormalize_drops_a_group_whose_total_underflows():
    # a result over a do variable X and the outcomes A and Y: each X value is
    # one group. Group X=1 sums to 5e-301, below the floor, though none of
    # its entries is; the others are divided by their totals as np.bincount
    # sums them, in row order
    rng = random.Random(0)
    scope = (Variable("A", 3), Variable("X", 3), Variable("Y", 4))
    entries = {k: rng.uniform(0.01, 1.0) for k in itertools.product(range(3), range(3), range(4))
               if k[1] != 1 and rng.random() < 0.8}
    entries.update({(0, 1, 2): 3e-300, (2, 1, 1): -2.5e-300})
    result = SparseFactor(scope, entries)
    got = _renormalize(result, ("A", "Y"))
    ids = result.codes[:, 1].astype(np.intp)
    want = result.values / np.bincount(ids, weights=result.values)[ids]
    kept = ids != 1
    assert abs(math.fsum(result.values[~kept])) < UNDERFLOW_FLOOR
    assert got.scope == result.scope
    assert np.array_equal(got.codes, result.codes[kept])
    assert np.array_equal(got.values, want[kept])
