"""Hypergraphs, tree decompositions, and hypertree covers.

The pipeline is: GYO reduction first (acyclic hypergraphs get a join tree
with one cover function per cluster); otherwise a greedy min-fill elimination
ordering builds a bucket tree, subsumed clusters are merged, and a greedy set
cover per cluster measures the hypertree width.
"""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

from .errors import ParseError, UncoverableCluster, UnknownVariable
from .model import name_key, open_text, statements


@dataclass(frozen=True)
class Hypergraph:
    """Variables as nodes, one hyperedge per factor scope (ids kept distinct)."""

    edges: tuple  # ((factor_id, scope_tuple), ...)

    @cached_property
    def nodes(self):  # sorted once, on first use
        return tuple(sorted(set().union(*(scope for _, scope in self.edges)), key=name_key))

    def primal_adjacency(self):
        adj = {n: set() for n in self.nodes}
        for _, scope in self.edges:
            for a in scope:
                for b in scope:
                    if a != b:
                        adj[a].add(b)
        return adj


def build_hypergraph(level) -> Hypergraph:
    """One hyperedge per level factor, child output functions included.

    ProbTerms get ids f0..fN in flattened order; the output function of child
    level c gets id g<c>.
    """
    edges = []
    for i, term in enumerate(level.factors):
        edges.append((f"f{i}", term.scope))
    for child_id, scope in level.child_outputs:
        edges.append((f"g{child_id}", tuple(sorted(scope, key=name_key))))
    return Hypergraph(tuple(edges))


@dataclass
class Cluster:
    chi: frozenset
    psi: frozenset
    cover: tuple = ()


@dataclass
class TreeDecomposition:
    clusters: dict          # id -> Cluster
    edges: list             # (u, v) pairs, u < v

    def adjacency(self):
        """Sorted neighbour ids of every cluster."""
        adj = {u: [] for u in self.clusters}
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return {u: sorted(nbrs) for u, nbrs in adj.items()}

    @property
    def treewidth(self):
        return max(len(c.chi) for c in self.clusters.values()) - 1

    @property
    def hyperwidth(self):
        return max(len(c.cover) for c in self.clusters.values())

    @property
    def n_clusters(self):
        return len(self.clusters)


# -- GYO reduction ---------------------------------------------------------


def gyo_acyclic(h: Hypergraph):
    """Ear-removal acyclicity test: the induced join tree of an acyclic
    hypergraph, or None when it is cyclic.

    The join tree keeps one cluster per original hyperedge with that edge as
    its single cover function, so hw = 1 by construction. Ears are removed
    shortest first, ties and witnesses in edge order (the order `remaining`
    keeps). A witness holds every vertex of the ear, so only the edges that
    hold the ear's least shared vertex get the full subset test, and one hash
    lookup rules out each other edge. An ear that lonely-vertex removal has
    emptied takes the first other edge.
    """
    remaining = {fid: set(scope) for fid, scope in h.edges}
    parent = {}

    changed = True
    while changed and len(remaining) > 1:
        changed = False
        counts = Counter(itertools.chain.from_iterable(remaining.values()))
        lonely = {n for n, c in counts.items() if c == 1}
        for scope in remaining.values():
            if not scope.isdisjoint(lonely):
                scope -= lonely
                changed = True
        for fid in sorted(remaining, key=lambda f: len(remaining[f])):
            ear = remaining[fid]
            least = min(ear, key=counts.__getitem__, default=None)
            witness = next((other for other, scope in remaining.items() if other != fid
                            and (least in scope or not ear) and ear <= scope), None)
            if witness is not None:
                parent[fid] = witness
                del remaining[fid]
                changed = True

    if len(remaining) > 1:
        return None

    id_to_cluster = {fid: i for i, (fid, _) in enumerate(h.edges)}
    clusters = {i: Cluster(chi=frozenset(scope), psi=frozenset([fid]), cover=(fid,))
                for i, (fid, scope) in enumerate(h.edges)}
    edges = sorted(
        tuple(sorted((id_to_cluster[a], id_to_cluster[b]))) for a, b in parent.items()
    )
    return TreeDecomposition(clusters, edges)


# -- elimination orderings -------------------------------------------------


def min_fill_order(h: Hypergraph, rng=None):
    """Greedy min-fill over the primal graph.

    Deterministic tie-breaking by (fill, degree, name); with a `random.Random`
    as `rng`, it picks at random among exact (fill, degree) ties instead.
    """
    adj = h.primal_adjacency()
    order = []
    while adj:
        scored = []
        for n, nbrs in adj.items():
            nb = list(nbrs)
            fill = 0
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    if nb[j] not in adj[nb[i]]:
                        fill += 1
            scored.append(((fill, len(nbrs)), n))
        best = min(s for s, _ in scored)
        ties = sorted((n for s, n in scored if s == best), key=name_key)
        pick = ties[rng.randrange(len(ties))] if rng is not None and len(ties) > 1 else ties[0]
        order.append(pick)
        nbrs = adj.pop(pick)
        for a in nbrs:
            adj[a].discard(pick)
            for b in nbrs:
                if a != b:
                    adj[a].add(b)
    return order


def tree_decomposition(h: Hypergraph, order) -> TreeDecomposition:
    """Bucket-elimination construction along an elimination ordering.

    One cluster per bucket ({v} plus its induced neighbors), connected to the
    bucket of the earliest-eliminated separator variable. Each factor lands in
    the bucket of its earliest-eliminated scope variable; subsumed clusters
    are merged afterwards.
    """
    missing = set(h.nodes) - set(order)
    if missing:
        raise UnknownVariable(f"ordering omits {sorted(missing, key=name_key)}")
    pos = {n: i for i, n in enumerate(order)}
    adj = h.primal_adjacency()
    for n in order:
        adj.setdefault(n, set())

    chi = {}
    parent_of = {}
    for i, v in enumerate(order):
        nbrs = {u for u in adj[v] if pos[u] > i}
        chi[i] = frozenset([v]) | nbrs
        if nbrs:
            parent_of[i] = pos[min(nbrs, key=lambda u: pos[u])]
        elif i + 1 < len(order):
            parent_of[i] = i + 1  # disconnected component: chain to keep a tree
        for a in nbrs:
            for b in nbrs:
                if a != b:
                    adj[a].add(b)

    psi = {i: set() for i in chi}
    for fid, scope in h.edges:  # an empty scope (a scalar child output) goes last
        psi[min((pos[n] for n in scope), default=len(order) - 1)].add(fid)

    clusters = {i: Cluster(chi=chi[i], psi=frozenset(psi[i])) for i in chi}
    edges = sorted(tuple(sorted((u, v))) for u, v in parent_of.items())
    return _merge_subsumed(TreeDecomposition(clusters, edges))


def _merge_subsumed(td: TreeDecomposition) -> TreeDecomposition:
    """Fold each cluster whose chi lies inside a neighbour's into that neighbour,
    lowest cluster id and then lowest neighbour id first, until none is left."""
    while True:
        adj = td.adjacency()
        pair = next(
            ((cid, nbr) for cid in sorted(td.clusters) for nbr in adj[cid]
             if td.clusters[cid].chi <= td.clusters[nbr].chi),
            None,
        )
        if pair is None:
            return td
        cid, nbr = pair
        clusters = dict(td.clusters)
        gone = clusters.pop(cid)
        clusters[nbr] = replace(clusters[nbr], psi=clusters[nbr].psi | gone.psi)
        edges = [e for e in td.edges if cid not in e]
        edges += [tuple(sorted((nbr, other))) for other in adj[cid] if other != nbr]
        td = TreeDecomposition(clusters, sorted(edges))


# -- hypertree covers ------------------------------------------------------


def hypertree_cover(td: TreeDecomposition, h: Hypergraph) -> TreeDecomposition:
    """Greedy set cover of each cluster's variables by hyperedge scopes.

    Largest residual intersection first, ties by factor id (f-edges before
    g-edges). Covers measure width only and may reuse a hyperedge across
    clusters.
    """
    scopes = {fid: frozenset(scope) for fid, scope in h.edges}
    ranked = sorted(scopes.items(), key=lambda e: (e[0][0] != "f", name_key(e[0])))
    clusters = {}
    for cid in sorted(td.clusters):
        c = td.clusters[cid]
        residual = set(c.chi)
        cover = []
        while residual:
            best, best_gain = None, 0
            for fid, scope in ranked:
                if len(scope) <= best_gain:
                    continue
                gain = len(scope & residual)
                if gain > best_gain:
                    best, best_gain = fid, gain
                    if gain == len(residual):  # no later edge can do better
                        break
            if best is None:
                raise UncoverableCluster(
                    f"cluster {cid}: variables {sorted(residual, key=name_key)} "
                    "appear in no hyperedge"
                )
            cover.append(best)
            residual -= scopes[best]
        clusters[cid] = Cluster(chi=c.chi, psi=c.psi, cover=tuple(cover))
    return TreeDecomposition(clusters, list(td.edges))


def cover_width_excluding_outputs(td: TreeDecomposition, h: Hypergraph):
    """hw when child output functions (g-edges) are not eligible as cover edges.

    Returns None when some cluster cannot be covered without them.
    """
    base_edges = tuple(e for e in h.edges if not e[0].startswith("g"))
    try:
        alt = hypertree_cover(td, Hypergraph(base_edges))
    except UncoverableCluster:
        return None
    return alt.hyperwidth


# -- validation ------------------------------------------------------------


def validate(td: TreeDecomposition, h: Hypergraph):
    """All four decomposition conditions plus tree-ness; [] means clean."""
    violations = []
    scopes = {fid: frozenset(scope) for fid, scope in h.edges}

    assigned = {}  # psi walked in name order: violations list the same under any hash seed
    for cid, c in td.clusters.items():
        for fid in sorted(c.psi, key=name_key):
            assigned.setdefault(fid, []).append(cid)
    for fid in scopes:
        where = assigned.get(fid, [])
        if len(where) != 1:
            violations.append(
                f"condition 1: factor {fid} assigned to {len(where)} clusters {sorted(where)}"
            )
    for fid in assigned:
        if fid not in scopes:
            violations.append(f"condition 1: unknown factor {fid} in psi")

    for cid, c in td.clusters.items():
        for fid in sorted(c.psi, key=name_key):
            if fid in scopes and not scopes[fid] <= c.chi:
                extra = sorted(scopes[fid] - c.chi, key=name_key)
                violations.append(
                    f"condition 2: cluster {cid} misses {extra} from scope of {fid}"
                )

    # tree-ness
    ids = set(td.clusters)
    for u, v in td.edges:
        if u not in ids or v not in ids:
            violations.append(f"tree: edge ({u},{v}) references a missing cluster")
    if len(td.edges) != max(len(ids) - 1, 0) or not _connected(ids, td.edges):
        violations.append("tree: cluster graph is not a tree")
    else:
        # running intersection only meaningful on a tree
        all_vars = set().union(*(c.chi for c in td.clusters.values()))
        for var in sorted(all_vars, key=name_key):
            holding = {cid for cid, c in td.clusters.items() if var in c.chi}
            sub_edges = [e for e in td.edges if e[0] in holding and e[1] in holding]
            if not _connected(holding, sub_edges):
                violations.append(
                    f"condition 3: clusters containing {var!r} are disconnected: "
                    f"{sorted(holding)}"
                )

    for cid, c in td.clusters.items():
        if not c.cover:
            continue
        covered = set()
        for fid in c.cover:
            if fid not in scopes:
                violations.append(f"condition 4: cluster {cid} cover uses unknown {fid}")
                continue
            covered |= scopes[fid]
        if not c.chi <= covered:
            missing = sorted(c.chi - covered, key=name_key)
            violations.append(f"condition 4: cluster {cid} cover misses {missing}")
    return violations


def _connected(nodes, edges):
    nodes = set(nodes)
    if not nodes:
        return True
    adj = {n: set() for n in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = set()
    stack = [next(iter(sorted(nodes, key=str)))]
    while stack:
        n = stack.pop()
        if n in seen:
            continue
        seen.add(n)
        stack.extend(adj[n] - seen)
    return seen == nodes


# -- pipeline --------------------------------------------------------------


def decompose(h: Hypergraph, seed: int = 0, restarts: int = 0) -> TreeDecomposition:
    """GYO join tree when acyclic; otherwise min-fill + cover, best of restarts.

    Restart r breaks min-fill ties with `random.Random(seed + 1 + r)`. The
    deterministic attempt stands unless a restart is strictly narrower in
    (hw, w); among equally narrow restarts the first wins. The result has
    hw 1 exactly when `h` is acyclic. Both constructions meet
    the four conditions by construction, so nothing built here is validated
    (the property tests check it).
    """
    join_tree = gyo_acyclic(h)
    if join_tree is not None:
        return join_tree

    rngs = [None] + [random.Random(seed + 1 + r) for r in range(restarts)]
    tds = [hypertree_cover(tree_decomposition(h, min_fill_order(h, rng)), h) for rng in rngs]
    return min(tds, key=lambda td: (td.hyperwidth, td.treewidth))


def select_root(td: TreeDecomposition, free_vars) -> int:
    """Cluster holding the most output variables, ties by id."""
    free = set(free_vars)
    return min(
        td.clusters,
        key=lambda cid: (-len(td.clusters[cid].chi & free), cid),
    )


# -- decomposition text format --------------------------------------------

_SET_RE = re.compile(r"(\w+)\s*=\s*\{([^}]*)\}")  # `name={a, b, ...}`


def load_decomposition(path) -> TreeDecomposition:
    """Parse `cluster <id>: chi={..} psi={..} cover={..}` / `edge <u> <v>` lines.
    `engine.plan` validates the result against the level it is supplied for."""
    clusters = {}
    edges = []
    with open_text(path) as fh:
        for lineno, line in statements(fh):
            if line.startswith("cluster"):
                head, _, body = line.partition(":")
                try:
                    cid = int(head.split()[1])
                except (IndexError, ValueError):
                    raise ParseError("expected `cluster <id>: ...`", path, lineno) from None
                if cid in clusters:
                    raise ParseError(f"cluster {cid} defined twice", path, lineno)
                fields = {m[1]: [s.strip() for s in m[2].split(",") if s.strip()]
                          for m in _SET_RE.finditer(body)}
                if "chi" not in fields or "psi" not in fields:
                    raise ParseError("cluster needs chi={...} and psi={...}", path, lineno)
                clusters[cid] = Cluster(
                    chi=frozenset(fields["chi"]),
                    psi=frozenset(fields["psi"]),
                    cover=tuple(dict.fromkeys(fields.get("cover", ()))),  # a set, in written order
                )
            elif line.startswith("edge"):
                parts = line.split()
                if len(parts) != 3:
                    raise ParseError("expected `edge <id> <id>`", path, lineno)
                try:
                    edges.append(tuple(sorted((int(parts[1]), int(parts[2])))))
                except ValueError:
                    raise ParseError("edge ids must be integers", path, lineno) from None
            else:
                raise ParseError(f"unrecognized line {line!r}", path, lineno)
    if not clusters:
        raise ParseError("no clusters defined", path)
    return TreeDecomposition(clusters, sorted(edges))
