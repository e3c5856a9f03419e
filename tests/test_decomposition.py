import os
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pihte.decomposition import (
    Cluster,
    Hypergraph,
    TreeDecomposition,
    build_hypergraph,
    cover_width_excluding_outputs,
    decompose,
    gyo_acyclic,
    hypertree_cover,
    load_decomposition,
    min_fill_order,
    select_root,
    tree_decomposition,
    validate,
)
from pihte.engine import plan
from pihte.errors import ParseError, UncoverableCluster
from pihte.estimand import flatten, parse
from pihte.model import base_name
from pihte.suite import make_instance


def hg(*scopes):
    edges = tuple((f"f{i}", tuple(s)) for i, s in enumerate(scopes))
    return Hypergraph(edges)


# -- GYO -------------------------------------------------------------------


def test_gyo_accepts_acyclic():
    h = hg(("A", "B"), ("B", "C"), ("C", "D"))
    td = gyo_acyclic(h)
    assert td is not None
    assert td.hyperwidth == 1
    assert not validate(td, h)


def test_gyo_rejects_cycle():
    h = hg(("A", "B"), ("B", "C"), ("A", "C"))
    assert gyo_acyclic(h) is None


def test_gyo_alpha_acyclic_triangle_with_cover():
    # the 3-edge triangle plus its covering edge is alpha-acyclic
    h = hg(("A", "B"), ("B", "C"), ("A", "C"), ("A", "B", "C"))
    td = gyo_acyclic(h)
    assert td is not None
    assert td.hyperwidth == 1


def scan_every_edge_gyo(h):
    """GYO ear removal that compares each ear with every other edge: the
    join tree's edges as sorted cluster-id pairs, or None when cyclic."""
    remaining = {fid: set(scope) for fid, scope in h.edges}
    parent = {}
    changed = True
    while changed and len(remaining) > 1:
        changed = False
        counts = Counter(n for scope in remaining.values() for n in scope)
        for fid in list(remaining):
            lonely = {n for n in remaining[fid] if counts[n] == 1}
            if lonely:
                remaining[fid] -= lonely
                changed = True
        for fid in sorted(remaining, key=lambda f: len(remaining[f])):
            witness = next((other for other in remaining
                            if other != fid and remaining[fid] <= remaining[other]), None)
            if witness is not None:
                parent[fid] = witness
                del remaining[fid]
                changed = True
    if len(remaining) > 1:
        return None
    index = {fid: i for i, (fid, _) in enumerate(h.edges)}
    return sorted(tuple(sorted((index[a], index[b]))) for a, b in parent.items())


@settings(max_examples=400, deadline=None)
@given(st.lists(st.lists(st.sampled_from("ABCDEFG"), max_size=4, unique=True),
                min_size=1, max_size=9),
       st.data())
def test_gyo_join_tree_matches_scanning_every_edge(scopes, data):
    # repeated edges, nested edges, private vertices that lonely removal
    # empties an edge of, and empty (scalar) edges all arise from these draws
    scopes += [data.draw(st.sampled_from(scopes)) for _ in range(data.draw(st.integers(0, 2)))]
    h = hg(*scopes)
    td, want = gyo_acyclic(h), scan_every_edge_gyo(h)
    assert (td is None) == (want is None)
    if td is not None:
        assert td.edges == want
        assert not validate(td, h)


def test_gyo_witness_is_the_first_superset_in_edge_order():
    # f1 empties to {} (Z is lonely) and takes the first other edge, f0;
    # f2 = {A} lies in f3, f4 and f5 and takes f3; the rest lie in f5
    h = hg(("B", "C"), ("Z",), ("A",), ("A", "C"), ("A", "B"), ("A", "B", "C"))
    want = [(0, 1), (0, 5), (2, 3), (3, 5), (4, 5)]
    assert scan_every_edge_gyo(h) == want
    assert gyo_acyclic(h).edges == want


def test_gyo_chain7_estimand(fixture_path):
    lv = flatten(parse(open(fixture_path("chain7.estimand")).read())).level(0)
    h = build_hypergraph(lv)
    td = gyo_acyclic(h)
    assert td is not None
    assert td.treewidth == 6


# -- min-fill + bucket construction ---------------------------------------


def test_min_fill_deterministic():
    h = hg(("A", "B"), ("B", "C"), ("A", "C"), ("C", "D"))
    assert min_fill_order(h) == min_fill_order(h)
    assert min_fill_order(h, random.Random(99)) == min_fill_order(h, random.Random(99))


def test_min_fill_covers_all_nodes():
    h = hg(("A", "B", "C"), ("C", "D"), ("E",))
    assert sorted(min_fill_order(h)) == ["A", "B", "C", "D", "E"]


def test_tree_decomposition_validates_on_cycle():
    h = hg(("A", "B"), ("B", "C"), ("A", "C"))
    td = hypertree_cover(tree_decomposition(h, min_fill_order(h)), h)
    assert not validate(td, h)
    assert td.hyperwidth == 2


def random_hypergraph(rng):
    n = rng.randint(3, 8)
    nodes = [f"X{i}" for i in range(n)]
    edges = []
    for i in range(rng.randint(2, 6)):
        size = rng.randint(1, min(4, n))
        edges.append((f"f{i}", tuple(sorted(rng.sample(nodes, size)))))
    # guarantee every node appears somewhere
    covered = {v for _, s in edges for v in s}
    leftovers = [v for v in nodes if v not in covered]
    if leftovers:
        edges.append((f"f{len(edges)}", tuple(leftovers)))
    return Hypergraph(tuple(edges))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_valid_on_random_hypergraphs(seed):
    rng = random.Random(seed)
    for _ in range(25):
        h = random_hypergraph(rng)
        td = decompose(h, seed=seed)
        assert not validate(td, h)
        assert td.hyperwidth >= 1
        assert td.treewidth >= 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decompose_deterministic(seed):
    rng = random.Random(seed + 1000)
    for _ in range(10):
        h = random_hypergraph(rng)
        a = decompose(h, seed=seed, restarts=3)
        b = decompose(h, seed=seed, restarts=3)
        assert a == b


def test_restarts_never_worse():
    # a restart replaces the deterministic decomposition only when strictly narrower
    rng = random.Random(7)
    for _ in range(10):
        h = random_hypergraph(rng)
        base = decompose(h, seed=0, restarts=0)
        more = decompose(h, seed=0, restarts=5)
        assert more == base or ((more.hyperwidth, more.treewidth)
                                < (base.hyperwidth, base.treewidth))


def _fixture_and_suite_hierarchies():
    """The flattened estimands of every fixture, of suite instances 0-99, and
    of two ratios: one whose root level cannot be covered without its g-edge,
    one with a scalar g-edge on a cyclic level."""
    fixtures = os.path.join(os.path.dirname(__file__), "..", "fixtures")
    texts = [open(os.path.join(fixtures, f"{stem}.estimand")).read()
             for stem in ("chain7", "chain99", "cone_cloud", "napkin")]
    texts += [make_instance(seed).estimand for seed in range(100)]
    texts += ["P(A) / P(B)", "P(A|B) P(B|C) P(C|A) / sum[W](P(W))"]
    return [flatten(parse(text)) for text in texts]


FIXTURE_AND_SUITE_HIERARCHIES = _fixture_and_suite_hierarchies()
PROPERTY_HYPERGRAPHS = {
    "random": [random_hypergraph(random.Random(seed)) for seed in range(200)],
    "fixtures_and_suite": [build_hypergraph(level) for hier in FIXTURE_AND_SUITE_HIERARCHIES
                           for level in hier.levels],
}


@pytest.mark.parametrize("restarts", [0, 2])
@pytest.mark.parametrize("family", sorted(PROPERTY_HYPERGRAPHS))
def test_computed_decompositions_are_valid_and_hw1_iff_acyclic(family, restarts):
    # decompose does not validate what it builds; this is the check that it need not
    for h in PROPERTY_HYPERGRAPHS[family]:
        td = decompose(h, seed=3, restarts=restarts)
        assert validate(td, h) == []
        assert (td.hyperwidth == 1) == (gyo_acyclic(h) is not None)
    if family != "fixtures_and_suite":
        return
    # plan reads hw_no_outputs off the computed cover when the level has no g-edge
    for hier in FIXTURE_AND_SUITE_HIERARCHIES:
        names = {base_name(n) for lv in hier.levels for s in lv.factor_scopes for n in s}
        for lp in plan(hier, dict.fromkeys(names, 2), seed=3, restarts=restarts).levels.values():
            assert lp.hw_no_outputs == cover_width_excluding_outputs(lp.td, lp.hypergraph)


def test_supplied_level_without_outputs_keeps_its_cover_width():
    # the supplied cover {f1, f2} has width 2; a greedy cover would take f0 first and need 3
    hier = flatten(parse("sum[A,B,C,D,E,F](P(A,B,C,D) P(A,B,E) P(C,D,F))"))
    td = TreeDecomposition(
        {0: Cluster(frozenset("ABCDEF"), frozenset({"f0", "f1", "f2"}), ("f1", "f2"))}, [])
    lp = plan(hier, dict.fromkeys("ABCDEF", 2), decompositions={0: td}).levels[0]
    assert (lp.td.hyperwidth, lp.hw_no_outputs) == (2, 2)


def test_cover_unreachable_variable():
    td = tree_decomposition(hg(("A", "B")), ["A", "B"])
    bad = Hypergraph((("f0", ("A",)),))
    with pytest.raises(UncoverableCluster):
        hypertree_cover(td, bad)


# -- validate --------------------------------------------------------------


def test_validate_detects_missing_factor_assignment():
    h = hg(("A", "B"), ("B", "C"))
    td = gyo_acyclic(h)
    td.clusters[0].psi = frozenset()
    issues = validate(td, h)
    assert any("condition 1" in v for v in issues)


def test_validate_detects_scope_not_contained():
    h = hg(("A", "B"))
    td = gyo_acyclic(h)
    td.clusters[0].chi = frozenset({"A"})
    issues = validate(td, h)
    assert any("condition 2" in v for v in issues)


def test_validate_detects_broken_running_intersection():
    h = hg(("A", "B"), ("B", "C"), ("C", "D"), ("B", "D"))
    td = decompose(h)
    # force a disconnect by removing B from a middle cluster if one holds it
    holders = [cid for cid, c in td.clusters.items() if "B" in c.chi]
    if len(holders) >= 3:
        mid = holders[1]
        td.clusters[mid].chi = td.clusters[mid].chi - {"B"}
        issues = validate(td, h)
        assert issues


def test_validate_detects_non_tree():
    h = hg(("A", "B"), ("B", "C"), ("C", "D"))
    td = gyo_acyclic(h)
    td.edges.append((0, 2))
    issues = validate(td, h)
    assert any("tree" in v for v in issues)


def test_validate_detects_bad_cover():
    h = hg(("A", "B"), ("B", "C"))
    td = gyo_acyclic(h)
    td.clusters[0].cover = ("f1",)
    issues = validate(td, h)
    assert any("condition 4" in v for v in issues)


# -- root selection / decomposition files ----------------------------------


def test_select_root_prefers_free_vars():
    h = hg(("A", "B"), ("B", "C"))
    td = gyo_acyclic(h)
    assert select_root(td, {"C"}) == 1
    assert select_root(td, {"A"}) == 0
    # tie broken by lowest id
    assert select_root(td, set()) == 0


def test_load_decomposition_fixture(fixture_path):
    lv = flatten(parse(open(fixture_path("cone_cloud.estimand")).read())).level(0)
    h = build_hypergraph(lv)
    td = load_decomposition(fixture_path("cone_cloud.td"))
    assert validate(td, h) == []
    assert td.hyperwidth == 2
    assert td.treewidth == 14
    assert td.n_clusters == 2


def test_load_decomposition_rejects_invalid(tmp_path):
    h = hg(("A", "B"))
    p = tmp_path / "bad.td"
    p.write_text("cluster 0: chi={A} psi={f0} cover={f0}\n")
    issues = validate(load_decomposition(p), h)
    assert any("condition 2" in v for v in issues)


def test_load_decomposition_repeated_cluster(tmp_path):
    p = tmp_path / "twice.td"
    p.write_text("cluster 0: chi={A} psi={f0}\ncluster 0: chi={A} psi={f0}\n")
    with pytest.raises(ParseError, match=r"twice\.td:2: cluster 0 defined twice"):
        load_decomposition(p)


def test_load_decomposition_reads_cover_as_a_set_in_written_order(tmp_path):
    # cover={f0, f0} on sum[A](P(A,B)) is a one-edge cover: hw 1, not 2
    p = tmp_path / "twice.td"
    p.write_text("cluster 0: chi={A,B} psi={f0} cover={f0, f0}\n")
    td = load_decomposition(p)
    assert td.clusters[0].cover == ("f0",)
    lp = plan(flatten(parse("sum[A](P(A,B))")), dict.fromkeys("AB", 2), decompositions={0: td})
    assert lp.levels[0].td.hyperwidth == 1
    p.write_text("cluster 0: chi={A,B,C} psi={f0,f1} cover={f1, f0, f1}\n")
    assert load_decomposition(p).clusters[0].cover == ("f1", "f0")


def test_load_decomposition_parse_error(tmp_path):
    p = tmp_path / "bad.td"
    p.write_text("cluster zero: chi={A}\n")
    with pytest.raises(ParseError):
        load_decomposition(p)
