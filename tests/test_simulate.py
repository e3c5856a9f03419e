import csv
import io
import itertools
import math

import numpy as np
import pytest

from conftest import bind
from pihte.cli import _csv_blocks, main
from pihte.estimand import dense_expr_eval, parse, prob_terms
from pihte.factor import SparseFactor
from pihte.model import CausalGraph, Dataset, Variable, load_graph, name_key
from pihte.simulate import (
    DISTS,
    expand_bidirected,
    interventional_truth,
    random_cbn,
    sample_dataset,
    total_variation,
)


def chain(n, k=2, bidirected=()):
    return CausalGraph(
        [Variable(f"V{i}", k) for i in range(n)],
        [(f"V{i}", f"V{i+1}") for i in range(n - 1)],
        bidirected,
    )


def test_expand_bidirected_adds_binary_latents():
    g = chain(3, bidirected=[("V0", "V2")])
    expanded, latents = expand_bidirected(g)
    assert latents == ("U_V0_V2",)
    assert expanded.domain_size("U_V0_V2") == 2
    assert set(expanded.parents("V0")) == {"U_V0_V2"}
    assert "U_V0_V2" in expanded.parents("V2")
    # latents have no parents themselves
    assert expanded.parents("U_V0_V2") == ()


def test_cpt_rows_normalized():
    cbn = random_cbn(chain(4, k=3), dist="dirichlet", alpha=0.5, seed=1)
    for name, table in cbn.cpts.items():
        sums = table.sum(axis=-1)
        assert np.allclose(sums, 1.0, atol=1e-12)


def test_deterministic_family_is_one_hot():
    cbn = random_cbn(chain(3), dist="deterministic", seed=2)
    for table in cbn.cpts.values():
        flat = table.reshape(-1, table.shape[-1])
        assert ((flat == 0.0) | (flat == 1.0)).all()
        assert np.allclose(flat.sum(axis=1), 1.0)


def test_same_seed_same_cbn():
    g = chain(4, bidirected=[("V0", "V2")])
    a = random_cbn(g, dist="mixture", alpha=2.0, seed=5)
    b = random_cbn(g, dist="mixture", alpha=2.0, seed=5)
    assert a.to_json() == b.to_json()


def test_sample_dataset_excludes_latents():
    g = chain(3, bidirected=[("V0", "V2")])
    cbn = random_cbn(g, seed=4)
    data = sample_dataset(cbn, 50, seed=5)
    assert data.columns == ("V0", "V1", "V2")
    assert data.n_rows == 50


def test_sample_dataset_deterministic():
    cbn = random_cbn(chain(3), seed=6)
    assert sample_dataset(cbn, 20, seed=7).rows == sample_dataset(cbn, 20, seed=7).rows


def unique_rows_sample(cbn, n, seed):
    """Ancestral sampling as it was written with `np.unique(axis=0)`: one
    draw per distinct parent configuration, in their lexicographic order,
    for the rows holding it."""
    rng = np.random.default_rng(seed)
    samples = {}
    for name in cbn.graph.topological_order():
        parents = tuple(sorted(cbn.graph.parents(name), key=name_key))
        table, k = cbn.cpts[name], cbn.graph.domain_size(name)
        if not parents:
            samples[name] = rng.choice(k, size=n, p=table)
            continue
        pcols = np.stack([samples[p] for p in parents], axis=1)
        out = np.empty(n, dtype=np.int64)
        uniq, inverse = np.unique(pcols, axis=0, return_inverse=True)
        inverse = inverse.reshape(-1)
        for u_i, cfg in enumerate(uniq):
            mask = inverse == u_i
            out[mask] = rng.choice(k, size=int(mask.sum()), p=table[tuple(cfg)])
        samples[name] = out
    return {c: samples[c].tolist() for c in cbn.observed}


FIXTURE_GRAPHS = ["chain7", "chain99", "cone_cloud", "napkin"]


@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("name", FIXTURE_GRAPHS)
def test_sample_dataset_draws_as_unique_rows_did(fixture_path, name, dist):
    graph = load_graph(fixture_path(f"{name}.graph"))
    for seed, n in itertools.product((0, 1), (300, 3200)):
        cbn = random_cbn(graph, dist=dist, alpha=1.5, seed=seed)
        data = sample_dataset(cbn, n, seed=seed + 1)
        want = unique_rows_sample(cbn, n, seed + 1)
        assert data.columns == tuple(sorted(want, key=name_key))
        assert {c: data.cells[:, i].tolist() for i, c in enumerate(data.columns)} == want


def per_row_cpts(graph, dist, alpha, seed):
    """`random_cbn` as it was written: one draw per CPT row, in C order, of
    each variable in `name_key` order, with parents found by scanning the
    edges."""
    expanded, _ = expand_bidirected(graph)
    rng = np.random.default_rng(seed)

    def cond_dist(k):
        family = dist
        if family == "mixture":
            family = "deterministic" if rng.random() < 0.5 else "dirichlet"
        if family == "dirichlet":
            return rng.dirichlet(np.full(k, alpha))
        out = np.zeros(k)
        out[rng.integers(k)] = 1.0
        return out

    cpts = {}
    for name in sorted(expanded.names, key=name_key):
        parents = sorted((a for a, b in expanded.directed_edges if b == name), key=name_key)
        pshape = tuple(expanded.domain_size(p) for p in parents)
        k = expanded.domain_size(name)
        table = np.empty(pshape + (k,))
        for idx in itertools.product(*map(range, pshape)):
            table[idx] = cond_dist(k)
        cpts[name] = table
    return cpts


@pytest.mark.parametrize("alpha", [0.05, 1.5, 10])  # numpy draws Dirichlet another way below 0.1
@pytest.mark.parametrize("dist", DISTS)
@pytest.mark.parametrize("name", FIXTURE_GRAPHS)
def test_random_cbn_draws_as_one_draw_per_row_did(fixture_path, name, dist, alpha):
    graph = load_graph(fixture_path(f"{name}.graph"))
    cpts = random_cbn(graph, dist=dist, alpha=alpha, seed=3).cpts
    want = per_row_cpts(graph, dist, alpha, 3)
    assert list(cpts) == list(want)
    for name, table in want.items():
        assert cpts[name].dtype == table.dtype and np.array_equal(cpts[name], table), name


@pytest.mark.parametrize("row", [[-0.1, 0.6, 0.5], [0.5, 0.3, 0.3]])
def test_sample_dataset_rejects_a_negative_or_unnormalised_cpt_row(row):
    cbn = random_cbn(chain(2, k=3), seed=16)
    cbn.cpts["V1"][1] = row
    with pytest.raises(ValueError, match="V1"):
        sample_dataset(cbn, 50, seed=17)


def csv_writer_text(data):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(data.columns)
    writer.writerows(data.rows)
    return buf.getvalue()


def test_simulate_writes_what_csv_writer_writes(tmp_path):
    """Cells of one, two and three digits (domains of 3, 12 and 1,000), over
    more rows than one block of `_csv_blocks` holds."""
    graph = tmp_path / "g.graph"
    graph.write_text("var A 12\nvar B 3\nvar C 1000\nA -> B\nA -> C\nB -> C\n")
    out = tmp_path / "d.csv"
    assert main(["simulate", "--graph", str(graph), "--rows", "20000", "--seed", "5",
                 "--out", str(out)]) == 0
    data = sample_dataset(random_cbn(load_graph(str(graph)), seed=5), 20000, seed=6)
    assert [len(str(top)) for top in data.cells.max(axis=0).tolist()] == [2, 1, 3]
    want = csv_writer_text(data)
    with open(out, encoding="utf-8", newline="") as fh:
        assert fh.read() == want
    empty = Dataset((), np.empty((3, 0), dtype=int), {})
    assert "".join(_csv_blocks(empty)) == csv_writer_text(empty) == "\r\n" * 4


def test_deterministic_latent_free_chain_is_point_mass():
    cbn = random_cbn(chain(4), dist="deterministic", seed=8)
    data = sample_dataset(cbn, 30, seed=9)
    assert len(set(data.rows)) == 1


def test_root_marginal_converges():
    cbn = random_cbn(chain(2, k=3), seed=10)
    data = sample_dataset(cbn, 100_000, seed=11)
    emp = bind(data, ("V0",))
    truth = SparseFactor(
        (Variable("V0", 3),),
        {(i,): p for i, p in enumerate(cbn.cpts["V0"]) if p > 0},
    )
    assert total_variation(emp, truth) < 0.02


def test_interventional_truth_hand_check():
    # Markovian A -> B -> C: P(C|do(A=a)) = sum_B P(B|a) P(C|B)
    cbn = random_cbn(chain(3), seed=12)
    truth = interventional_truth(cbn, {"V0": 1}, ["V2"])
    for c in range(2):
        want = math.fsum(
            cbn.cpts["V1"][1][b] * cbn.cpts["V2"][b][c] for b in range(2)
        )
        assert truth.dense_eval({"V2": c}) == pytest.approx(want, rel=1e-12)


def test_interventional_truth_normalized():
    g = chain(4, bidirected=[("V1", "V3")])
    cbn = random_cbn(g, seed=13)
    truth = interventional_truth(cbn, {"V0": 0}, ["V3"])
    assert math.fsum(truth.values) == pytest.approx(1.0, rel=1e-12)


def test_do_on_irrelevant_root_keeps_marginal():
    # V0 and V1 are disconnected; do(V0) cannot move P(V1)
    g = CausalGraph([Variable("V0", 2), Variable("V1", 2)], [])
    cbn = random_cbn(g, seed=14)
    truth = interventional_truth(cbn, {"V0": 1}, ["V1"])
    for b in range(2):
        assert truth.dense_eval({"V1": b}) == pytest.approx(cbn.cpts["V1"][b])


def test_adjustment_formula_matches_truncation():
    """On a Markovian chain, the backdoor estimand evaluated with the exact
    CPT factors reproduces the truncation-formula interventional answer."""
    cbn = random_cbn(chain(4), dist="dirichlet", alpha=1.0, seed=15)
    expr = parse("sum[V1,V2](P(V1|V0) P(V2|V1) P(V3|V2))")
    bindings = {}
    for term in prob_terms(expr):
        name = term.left[0]
        parents = tuple(sorted(term.right, key=name_key))
        scope = tuple(
            Variable(v, cbn.graph.domain_size(v))
            for v in sorted(term.left + term.right, key=name_key)
        )
        entries = {}
        names = [v.name for v in scope]
        table = cbn.cpts[name]
        for key in itertools.product(*(range(v.domain_size) for v in scope)):
            a = dict(zip(names, key))
            idx = tuple(a[p] for p in parents) + (a[name],)
            if table[idx] > 0:
                entries[key] = float(table[idx])
        bindings[term.key()] = SparseFactor(scope, entries)
    domains = {f"V{i}": 2 for i in range(4)}
    for v0 in range(2):
        truth = interventional_truth(cbn, {"V0": v0}, ["V3"])
        for v3 in range(2):
            got = dense_expr_eval(expr, bindings, {"V0": v0, "V3": v3}, domains)
            assert got == pytest.approx(truth.dense_eval({"V3": v3}), abs=1e-12)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_empirical_joint_converges(seed):
    g = chain(3, bidirected=[("V0", "V2")])
    cbn = random_cbn(g, seed=seed)
    truth = interventional_truth(cbn, {}, ["V0", "V1", "V2"])
    tvs = []
    for n in (100, 100_000):
        data = sample_dataset(cbn, n, seed=seed + 50)
        emp = bind(data, ("V0", "V1", "V2"))
        tvs.append(total_variation(emp, truth))
    assert tvs[1] < tvs[0]
