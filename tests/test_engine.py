import itertools
import json
import math
import random

import pytest

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
    brute_force_eval,
    cte,
    execute,
    pi_hte,
    plan,
    predicted_bounds,
    run_metrics,
    schedule,
)
from pihte.errors import ResourceLimitExceeded, UnknownVariable, ValidationError
from pihte.estimand import MAX_NESTING, flatten, parse
from pihte.factor import SparseFactor, product, unit_factor
from pihte.model import CausalGraph, Dataset, Variable, empirical_prob, name_key
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
    fa = empirical_prob(data, ("V0",))
    fb = empirical_prob(data, ("V1",), ("V0",))
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
    f0 = empirical_prob(data, ("V1",), ("V0",))
    f1 = empirical_prob(data, ("V2",), ("V1",))
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
    f0 = empirical_prob(data, ("V1",), ("V0",))
    f1 = empirical_prob(data, ("V2",), ("V1",))
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
    assert a.allclose(b, rel=1e-9)


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
    return LevelStats(0, n_vars=1, n_factors=1, w=0, hw=1, hw_no_outputs=1,
                      is_hypertree=True, k=4, cap=cap)


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
    assert got.allclose(want, rel=1e-9)


def test_pi_hte_napkin_matches_oracle(fixture_path):
    from pihte.model import load_graph

    g = load_graph(fixture_path("napkin.graph"))
    cbn = random_cbn(g, dist="dirichlet", alpha=1.0, seed=11)
    data = sample_dataset(cbn, 1000, seed=12)
    expr = parse(open(fixture_path("napkin.estimand")).read())
    got = pi_hte(flatten(expr), data).result
    want = brute_force_eval(expr, data)
    assert got.allclose(want, rel=1e-9)


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
    assert a.to_json(include_timing=False) == b.to_json(include_timing=False)


def test_level_stats_reported():
    data = small_data(seed=9)
    rep = pi_hte(flatten(parse("sum[V1](P(V1|V0) P(V2|V1))")), data)
    assert len(rep.levels) == 1
    lv = rep.levels[0]
    assert lv.hw == 1 and lv.is_hypertree
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
        assert got.to_json(include_timing=False) == want.to_json(include_timing=False)


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
    assert supplied.result.allclose(pi_hte(hier, data).result, rel=1e-12)


def test_plan_names_undeclared_variable():
    with pytest.raises(UnknownVariable, match="'Z'"):
        plan(flatten(parse("P(V0|Z)")), {"V0": 2})


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
        assert pi_hte(hier, data).result.allclose(brute_force_eval(expr, data), rel=1e-9)


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
            assert execute(p, data).result.allclose(want, rel=1e-9), (text, restarts, supplied)
        for value in range(data.domains[free]):
            got = execute(p, data, {free: value}).result
            assert got.allclose(want.restrict({free: value}), rel=1e-9), (text, value)


# -- brute force -----------------------------------------------------------


def test_brute_force_hand_example():
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 1), (1, 1)], {"A": 2, "B": 2})
    out = brute_force_eval(parse("sum[A](P(A) P(B|A))"), data)
    # P(B=1) = P(A=0)P(B=1|A=0) + P(A=1)P(B=1|A=1) = .5*.5 + .5*1
    assert out.dense_eval({"B": 1}) == pytest.approx(0.75)
    assert out.dense_eval({"B": 0}) == pytest.approx(0.25)


def test_brute_force_single_term_is_marginal():
    data = small_data(seed=10)
    out = brute_force_eval(parse("P(V0)"), data)
    want = empirical_prob(data, ("V0",))
    assert out.allclose(want, rel=1e-15)


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
    f = empirical_prob(data, ("V1",), ("V0'",))
    base = empirical_prob(data, ("V1",), ("V0",))
    assert f.names == ("V0'", "V1")
    assert [v.domain_size for v in f.scope] == [v.domain_size for v in base.scope]
    assert dict(f.items()) == dict(base.items())
