"""Acceptance checks: one test per headline criterion, at stated tolerances."""

import json
import math
import statistics
import time

import pytest

from conftest import factors_close
from pihte.cli import main
from pihte.decomposition import decompose, load_decomposition, validate
from pihte.engine import (
    brute_force_eval,
    pi_hte,
    plan,
    predicted_bounds,
)
from pihte.estimand import flatten, parse
from pihte.factor import SparseFactor
from pihte.model import CausalGraph, Variable, base_name, load_graph
from pihte.simulate import (
    interventional_truth,
    random_cbn,
    sample_dataset,
    total_variation,
)
from pihte.suite import make_instance


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def test_criterion_1_chain7_widths(capsys, fixture_path):
    start = time.monotonic()
    code, out = run_cli(capsys, "analyze",
                        "--graph", fixture_path("chain7.graph"),
                        "--estimand-file", fixture_path("chain7.estimand"))
    elapsed = time.monotonic() - start
    assert code == 0
    rep = json.loads(out)
    assert rep["depth"] == 1
    (level,) = rep["levels"]
    assert level["hw"] == 1
    assert level["w"] == 6
    assert elapsed < 1.0


def test_criterion_2_cone_cloud_widths(capsys, fixture_path):
    start = time.monotonic()
    code, out = run_cli(capsys, "analyze",
                        "--graph", fixture_path("cone_cloud.graph"),
                        "--estimand-file", fixture_path("cone_cloud.estimand"))
    assert code == 0
    rep = json.loads(out)
    (level,) = rep["levels"]
    assert level["n_factors"] == 13
    assert level["hw"] <= 3  # heuristic tolerance

    code, out = run_cli(capsys, "analyze",
                        "--graph", fixture_path("cone_cloud.graph"),
                        "--estimand-file", fixture_path("cone_cloud.estimand"),
                        "--decomposition", fixture_path("cone_cloud.td"))
    elapsed = time.monotonic() - start
    assert code == 0
    rep = json.loads(out)
    (level,) = rep["levels"]
    assert level["supplied_decomposition"]
    assert level["hw"] == 2
    assert level["w"] == 14  # a 15-variable cluster
    assert elapsed < 5.0


def test_criterion_3_napkin_hierarchy(capsys, fixture_path):
    start = time.monotonic()
    code, out = run_cli(capsys, "analyze",
                        "--graph", fixture_path("napkin.graph"),
                        "--estimand-file", fixture_path("napkin.estimand"))
    elapsed = time.monotonic() - start
    assert code == 0
    rep = json.loads(out)
    assert rep["depth"] == 2
    assert len(rep["levels"]) == 2
    assert all(level["hw"] == 1 for level in rep["levels"])
    assert elapsed < 1.0


def test_criterion_4_oracle_suite():
    start = time.monotonic()
    for i in range(100):
        inst = make_instance(i)
        expr = parse(inst.estimand)
        got = pi_hte(flatten(expr), inst.data).result
        want = brute_force_eval(expr, inst.data)
        assert got.names == want.names, inst.estimand
        gd, wd = dict(got.items()), dict(want.items())
        for key in set(gd) | set(wd):
            a, b = gd.get(key, 0.0), wd.get(key, 0.0)
            assert abs(a - b) <= 1e-9 * max(abs(a), abs(b)), (inst.estimand, key)
    assert time.monotonic() - start < 60.0


def test_criterion_5_chain99_tightness_law(fixture_path):
    start = time.monotonic()
    graph = load_graph(fixture_path("chain99.graph"))
    hier = flatten(parse(open(fixture_path("chain99.estimand")).read()))
    cbn = random_cbn(graph, dist="dirichlet", alpha=1.0, seed=0)
    scopes = [
        tuple(sorted({base_name(n) for n in t.scope})) for t in hier.level(0).factors
    ]
    prev = None
    for size in (100, 200, 400, 800):
        data = sample_dataset(cbn, size, seed=size)
        report = pi_hte(hier, data)
        distinct = max(len(set(data.project(s))) for s in scopes)
        assert report.max_table_entries == distinct
        assert report.max_table_entries <= size  # hw=1 tightness law
        if prev is not None:
            assert report.max_table_entries <= 2 * prev  # monotone cost
        prev = report.max_table_entries
        # this dataset has all-distinct rows, reproducing max_table == samples
        assert distinct == size
    assert time.monotonic() - start < 120.0


def test_criterion_6_cone_cloud_tightness_law(fixture_path, monkeypatch):
    monkeypatch.delenv("PIHTE_MAX_ENTRIES", raising=False)
    start = time.monotonic()
    graph = load_graph(fixture_path("cone_cloud.graph"))
    hier = flatten(parse(open(fixture_path("cone_cloud.estimand")).read()))
    structure = plan(hier, {v.name: v.domain_size for v in graph.variables})
    hg = structure.levels[hier.root].hypergraph
    td = load_decomposition(fixture_path("cone_cloud.td"))
    assert validate(td, hg) == []
    cbn = random_cbn(graph, dist="dirichlet", alpha=10.0, seed=0)
    max_tables = {}
    for i, size in enumerate((100, 200, 400)):
        data = sample_dataset(cbn, size, seed=1 + i)
        report = pi_hte(hier, data, decompositions={hier.root: td})
        assert report.max_table_entries <= size * size  # hw=2 tightness law
        max_tables[size] = report.max_table_entries
    ratio = max_tables[400] / max_tables[100]
    assert 4.0 <= ratio <= 16.0
    assert time.monotonic() - start < 300.0


def test_criterion_7_truncation_convergence():
    start = time.monotonic()
    graph = CausalGraph(
        [Variable(f"V{i}", 2) for i in range(5)],
        [(f"V{i}", f"V{i+1}") for i in range(4)],
    )
    hier = flatten(parse("sum[V1,V2,V3](P(V1|V0) P(V2|V1) P(V3|V2) P(V4|V3))"))

    def worst_tv(cbn, n, seed):
        data = sample_dataset(cbn, n, seed=seed + 1000)
        res = pi_hte(hier, data).result
        out = []
        for v0 in range(2):
            truth = interventional_truth(cbn, {"V0": v0}, ["V4"])
            entries = {
                (key[1],): val
                for key, val in res.restrict({"V0": v0}).items()
            }
            est = SparseFactor((Variable("V4", 2),), entries)
            total = math.fsum(est.values)
            est = SparseFactor(est.scope, {k: v / total for k, v in est.items()})
            out.append(total_variation(est, truth))
        return max(out)

    medians = {}
    for n in (100, 10_000):
        tvs = [
            worst_tv(random_cbn(graph, dist="dirichlet", alpha=1.0, seed=s), n, s)
            for s in range(5)
        ]
        medians[n] = statistics.median(tvs)
    assert medians[10_000] < medians[100]
    assert medians[10_000] < 0.05
    assert time.monotonic() - start < 60.0


def test_criterion_8_bound_reporter():
    bounds = predicted_bounds(
        [{"level_id": 0, "w": 98, "hw": 1}], t=10_000, k=4, n=99
    )
    assert abs(bounds["tw_bound_log10"] - 59.6) <= 0.1
    assert bounds["sum_hw"] == 1
    assert bounds["hw_bound_value"] == pytest.approx(10_000.0)
    assert bounds["tighter"] == "hw"


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_9_property_suites(seed):
    """Compact cross-module property pass per seed; the full suites live in
    the per-module test files."""
    # oracle equivalence on fresh instances
    for off in range(5):
        inst = make_instance(10_000 + seed * 31 + off)
        expr = parse(inst.estimand)
        got = pi_hte(flatten(expr), inst.data, seed=seed).result
        want = brute_force_eval(expr, inst.data)
        assert factors_close(got, want, rel=1e-9)
    # decomposition validity + determinism
    import random as _random

    from pihte.decomposition import Hypergraph, validate

    rng = _random.Random(seed)
    for _ in range(10):
        n = rng.randint(3, 7)
        nodes = [f"X{i}" for i in range(n)]
        edges = []
        for i in range(rng.randint(2, 5)):
            size = rng.randint(1, min(3, n))
            edges.append((f"f{i}", tuple(sorted(rng.sample(nodes, size)))))
        covered = {v for _, s in edges for v in s}
        rest = [v for v in nodes if v not in covered]
        if rest:
            edges.append((f"f{len(edges)}", tuple(rest)))
        h = Hypergraph(tuple(edges))
        td = decompose(h, seed=seed, restarts=2)
        assert not validate(td, h)
        assert td == decompose(h, seed=seed, restarts=2)
