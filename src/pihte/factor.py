"""Relational (zero-suppressed) factors and the algebra CTE needs.

A factor stores only non-zero assignments: a scope in the canonical variable
order, a code matrix of unique rows sorted lexicographically and a float64
value vector, so merges and serialized output are deterministic. Codes are in
the `model.code_dtype` of their largest domain (one byte each up to 256), and
every result keeps its inputs' dtype, or the wider of two. Entries are checked
where they enter from outside (`SparseFactor(scope, entries)`,
`model.Dataset`); the algebra builds its results with `SparseFactor.trusted`.
It is the join and aggregate of Yannakakis (VLDB 1981) and FAQ (Abo Khamis,
Ngo & Rudra, PODS 2016) as array kernels over sortable `int64` row keys: the
`Dataset.group` ids of the source rows between two tables of one dataset,
else `keys` (mixed-radix numbers up to 2**63, the rows' dense ids past it).
Every grouping runs through `model.group_rows`, whose `model.Grouping` holds
each group's `first` row and `sizes`. Every join finds its partners in one
place, `matches`, an index by group id or a binary search, whose runs a
product expands, `join_size` counts and the engine's support check and
renormalization read; a marginal sums each group of its kept columns. The
algebra knows nothing of ratios.

A table bound from a dataset (`model.empirical_prob`) carries provenance: the
`model.Dataset` as `data` and one source row per entry as `rows`; its names
read distinct columns, and each entry's codes are its row's cells on them.
`restrict`, `invert`, `with_values`, a marginal and a product that adds no
column to its wider operand keep it (all but the marginal with their input's
scope and `names` tuples); a general join of two such tables gets it back
when every entry it makes is a row of the data. Such a table is row
references plus values, the factorised representation of Olteanu & Zavodny
(TODS 2015): `codes` gathers a code matrix from the rows' cells only when
read. Between such tables of one dataset no key is encoded: `matches`
indexes the narrower table by the `Dataset.group` id of the wider one's
source rows when its names lie inside the wider's, and searches those ids
otherwise, and a marginal groups by them. Other tables and joins across
datasets take `keys` and `group_rows`, reading columns through
`SparseFactor.take`, which builds no code matrix.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import IncompleteAssignment, ScopeConflict, UnknownVariable
from .model import Grouping, base_name, code_dtype, group_rows, name_key

# Values whose magnitude falls below this after arithmetic are treated as an
# underflow to zero and dropped (the no-zero invariant is kept explicit).
UNDERFLOW_FLOOR = 1e-300


def keys(sizes, *parts):
    """The one key rule of the algebra: for code matrices whose columns have
    domains `sizes`, one sortable `int64` key per row, an array per part, all
    comparable, so a join encodes both its tables in one call; sorted keys are
    rows in lexicographic order. Columns whose sizes multiply to at most 2**63
    give each row its mixed-radix number, first column most significant (one
    matrix product with the place values; a column of domain 1 has place
    value 0); any other key is the dense ids of all the parts' rows together
    by `group_rows`."""
    span = math.prod(sizes)
    if span > 1 << 63:
        ids = group_rows(np.concatenate(parts), range(len(sizes)), sizes).ids.astype(np.int64)
        return np.split(ids, np.cumsum([len(p) for p in parts[:-1]]))
    # each place value is the product of the later sizes
    weights = np.array([(span := span // k) if k > 1 else 0 for k in sizes], dtype=np.int64)
    return [p.astype(np.int64) @ weights for p in parts]


def take_columns(codes, positions):
    """`codes[:, positions]` for ascending positions. A run of consecutive
    positions is a slice, a row-major view that later gathers and
    concatenations copy row by row; any other list is a fancy index, whose
    result is column-major and costs a transposing copy to concatenate."""
    positions = list(positions)
    start = positions[0] if positions else 0
    if positions == list(range(start, start + len(positions))):
        return codes[:, start:start + len(positions)]
    return codes[:, positions]


class SparseFactor:
    """Immutable sparse table: sorted unique code rows -> non-zero floats.

    `SparseFactor(scope, entries)` checks its entries as int64 and then keeps
    the codes in the `code_dtype` of the scope's largest domain; `trusted`
    keeps the dtype it is given. A table with provenance may hold no codes:
    `codes` then gathers its rows' cells on first read and keeps them."""

    __slots__ = ("scope", "names", "_codes", "values", "underflow_dropped", "data", "rows",
                 "_lookup")

    def __init__(self, scope, entries):
        """Validate a mapping of assignment tuples to non-zero values."""
        scope = tuple(scope)
        keys = list(entries)
        for key in keys:
            if len(key) != len(scope):
                raise ValueError(f"key {key} does not match scope width {len(scope)}")
        codes = np.array(keys, dtype=np.int64).reshape(len(keys), len(scope))
        values = np.array(list(entries.values()), dtype=np.float64)
        sizes = np.array([v.domain_size for v in scope], dtype=np.int64)
        bad = np.argwhere((codes < 0) | (codes >= sizes))
        if len(bad):
            row, col = bad[0]
            raise ValueError(f"{scope[col].name}={codes[row, col]} outside domain "
                             f"0..{scope[col].domain_size - 1}")
        if not values.all():
            raise ValueError("zero entries must be represented by absence")
        names = [v.name for v in scope]
        if len(set(names)) != len(names):
            raise ScopeConflict(f"repeated variable in scope {names}")
        scope, codes, first = _canonical(scope, codes.astype(code_dtype(sizes.max(initial=1) - 1)))
        self._set(scope, codes, values[first], 0)  # keys are unique, coming from a mapping

    def _set(self, scope, codes, values, underflow_dropped, data=None, rows=None, names=None):
        self.scope = scope
        self.names = names or tuple([v.name for v in scope])  # a list builds it in half the time
        self._codes = codes
        self.values = values
        self.underflow_dropped = int(underflow_dropped)
        self.data = data
        self.rows = rows
        self._lookup = None

    @classmethod
    def trusted(cls, scope, codes, values, underflow_dropped=0, data=None, rows=None, names=None):
        """A factor from arrays already in canonical form: scope in name
        order, unique in-domain rows sorted lexicographically, no zeros;
        `names`, if given, the scope's names, which its caller already holds.

        With `data`, the table has provenance: its names read distinct
        columns of that `model.Dataset` (their base names), and entry i's
        codes are the cells of row `rows[i]` on those columns, and `codes`
        may be None: the `codes` property derives them when read."""
        f = cls.__new__(cls)
        f._set(scope, codes, values, underflow_dropped, data, rows, names)
        return f

    # -- introspection -----------------------------------------------------

    @property
    def codes(self):
        """The code matrix, one row per entry. A table with provenance built
        without one gathers it here, once: the cells of its source rows on
        its columns, in the dataset's dtype."""
        if self._codes is None:
            self._codes = self.take(range(len(self.scope)))
        return self._codes

    def take(self, positions, index=slice(None)):
        """`codes[index][:, positions]`. A table without a code matrix reads
        those columns of its source rows' cells and still builds none."""
        if self._codes is not None:
            return take_columns(self._codes, positions)[index]
        data, columns = self.data, _columns(self.names)
        return take_columns(data.cells, [data.column_index(columns[i]) for i in positions])[
            self.rows[index]]

    @property
    def tightness(self) -> int:
        return len(self.values)

    def items(self):
        """(assignment tuple, value) pairs of Python ints and floats, in
        canonical order."""
        return zip(map(tuple, self.codes.tolist()), self.values.tolist())

    def __repr__(self):
        return f"SparseFactor({','.join(self.names)}; t={self.tightness})"

    # -- evaluation --------------------------------------------------------

    def dense_eval(self, assignment) -> float:
        """Value under a full assignment (mapping name -> state); absent -> 0."""
        try:
            key = tuple(assignment[v.name] for v in self.scope)
        except KeyError as exc:
            raise IncompleteAssignment(f"missing {exc.args[0]!r}") from None
        if self._lookup is None:
            self._lookup = dict(self.items())
        return self._lookup.get(key, 0.0)

    def restrict(self, partial) -> "SparseFactor":
        """Keep only entries consistent with a partial assignment (scope
        unchanged), and their source rows. It reads only the assigned
        columns, and a table without a code matrix stays without one."""
        if not partial:
            return self
        positions = [(i, partial[v.name]) for i, v in enumerate(self.scope) if v.name in partial]
        if not positions:
            return self
        keep = np.ones(len(self.values), dtype=bool)
        for i, want in positions:
            keep &= self.take([i])[:, 0] == want
        return SparseFactor.trusted(self.scope, _select(self._codes, keep), self.values[keep],
                                    data=self.data, rows=_select(self.rows, keep), names=self.names)


def _canonical(scope, codes):
    """`scope` in name order, `codes`'s columns permuted to match and its
    distinct rows sorted lexicographically, and `first`, the input row of
    each sorted row: the one sort of a table built out of canonical form."""
    order = sorted(range(len(scope)), key=lambda i: name_key(scope[i].name))
    scope = tuple([scope[i] for i in order])
    codes = codes[:, order]
    first = group_rows(codes, range(len(scope)), [v.domain_size for v in scope]).first
    return scope, codes[first], first


def _select(a, index):
    """`a[index]`, or None for None: an optional code matrix or row array."""
    return None if a is None else a[index]


def with_values(f: SparseFactor, values) -> SparseFactor:
    """f's entries with new values, one per entry, none of them zero: the
    same scope, codes (or none) and provenance."""
    return SparseFactor.trusted(f.scope, f._codes, values, data=f.data, rows=f.rows, names=f.names)


def unit_factor() -> SparseFactor:
    """The empty-scope multiplicative identity {() -> 1.0}."""
    return SparseFactor((), {(): 1.0})


def matches(f: SparseFactor, g: SparseFactor):
    """For each row of f, the run of g's rows that agree with it on their
    shared variables, in g's canonical order: for f's row i, g's rows
    `g_rows[lo[i]:hi[i]]`, or `lo[i]:hi[i]` when `g_rows` is None; `g_only`
    lists g's other columns, and a shared name whose domains differ raises
    ScopeConflict. The package's one partner search (Yannakakis, VLDB 1981).
    When both tables carry provenance from one dataset and g's names lie
    inside f's, g holds at most one row per `Dataset.group` group of its
    columns and an index finds it: `lo` is the group id of each f row's
    source row or, when g lacks some groups (after `restrict` or an
    underflow), g's row in that group by the `first` of the `Grouping` of g's
    rows, -1 where g has none; `hi` is `lo + 1` where g has one, in a dtype
    that holds the group count. Other pairs are keyed by the group ids of
    their shared columns (one dataset) or by one `keys` call at g's shared
    domains; g's keys are sorted by one stable argsort (`g_rows`) unless its
    shared columns lead its scope, and two binary searches bound each run.
    With nothing shared, each f row meets all of g."""
    if f.data is not None and g.data is f.data and set(g.names).issubset(f.names):
        groups = f.data.group(_columns(g.names))
        lo = groups.ids[f.rows]
        if len(g.values) == groups.count:  # row i of g is group i; 255 + 1 wraps in uint8
            return lo, np.add(lo, 1, dtype=code_dtype(groups.count)), None, []
        lo = Grouping(groups.ids[g.rows], groups.count).first[lo]  # g's row in it, or -1
        return lo, lo + (lo >= 0), None, []
    f_pos = {n: i for i, n in enumerate(f.names)}
    f_shared, g_shared, g_only, sizes = [], [], [], []
    for j, v in enumerate(g.scope):
        i = f_pos.get(v.name)
        if i is None:
            g_only.append(j)
            continue
        prior = f.scope[i]  # mostly v itself: scopes share `model.shared_variable`'s objects
        if prior is not v and prior.domain_size != v.domain_size:
            raise ScopeConflict(f"{v.name!r}: domain {prior.domain_size} vs {v.domain_size}")
        f_shared.append(i)
        g_shared.append(j)
        sizes.append(v.domain_size)
    if f.data is not None and g.data is f.data:
        ids = f.data.group(_columns(tuple([g.names[j] for j in g_shared]))).ids
        g_keys, probe = ids[g.rows], ids[f.rows]
    else:
        g_keys, probe = keys(sizes, g.take(g_shared), f.take(f_shared))
    g_rows = None
    if g_only and g_only[0] < len(g_shared):  # g's shared columns do not lead its scope
        g_rows = np.argsort(g_keys, kind="stable")
        g_keys = g_keys[g_rows]
    lo = np.searchsorted(g_keys, probe, "left")
    return lo, np.searchsorted(g_keys, probe, "right"), g_rows, g_only


def join_size(f: SparseFactor, g: SparseFactor) -> int:
    """The number of entries `product(f, g)` holds before underflow drops,
    counted without building it: the partners each row of the smaller
    table has in the other, which searches fewer rows than the converse."""
    small, large = (f, g) if f.tightness <= g.tightness else (g, f)
    lo, hi, _, _ = matches(small, large)
    return int((hi - lo).sum())


def product(f: SparseFactor, g: SparseFactor) -> SparseFactor:
    """The join of f and g on their shared variables over the union scope,
    each entry the product of the two it joins; an entry exists iff both
    projections do, so zero absorbs. The wider operand, else f, probes the
    other and is repeated once per partner; the other's columns follow, sorted
    in only when out of name order. When the other adds no column, the output
    is the probe rows with a partner, in order, with the probe's provenance.
    One `matches` call finds the partners; a join of two tables with
    provenance from one dataset gets it back where `_source_rows` finds each
    entry a row of the data."""
    if len(g.scope) > len(f.scope):
        f, g = g, f
    lo, hi, g_rows, g_only = matches(f, g)
    if not g_only:  # one partner at most, and f's scope is the output's
        codes, values, rows, hit = f._codes, f.values, f.rows, hi > lo
        if not hit.all():
            codes, values, lo, rows = _select(codes, hit), values[hit], lo[hit], _select(rows, hit)
        return _trusted_product(f.scope, codes, values * g.values[lo], f.data, rows, f.names)

    # output k, the j-th of f row i's, meets g's run row lo[i] + j, in g's canonical order
    count = hi - lo
    f_rows = np.repeat(np.arange(len(f.values)), count)
    rows = np.arange(len(f_rows)) + np.repeat(lo - (np.cumsum(count) - count), count)
    if g_rows is not None:
        rows = g_rows[rows]

    values = f.values[f_rows] * g.values[rows]
    extra = g.take(g_only, rows)
    source = _source_rows(f, g, g_only, f_rows, extra)
    scope = f.scope + tuple(g.scope[j] for j in g_only)
    ordered = name_key(g.names[g_only[0]]) > name_key(f.names[-1])  # f's rows, expanded, are sorted
    if ordered and source is not None:  # rows of the data, in order: no codes to build
        return _trusted_product(scope, None, values, f.data, source)
    codes = np.concatenate([f.take(range(len(f.scope)), f_rows), extra], axis=1)
    if not ordered:
        scope, codes, first = _canonical(scope, codes)
        values, source = values[first], _select(source, first)
    return _trusted_product(scope, codes, values, None if source is None else f.data, source)


def _trusted_product(scope, codes, values, data=None, rows=None, names=None) -> SparseFactor:
    """A product's canonical rows (or None, given provenance) and values,
    less the values that underflow."""
    kept = np.abs(values) >= UNDERFLOW_FLOOR
    dropped = len(values) - int(np.count_nonzero(kept))
    if dropped:
        codes, values, rows = _select(codes, kept), values[kept], _select(rows, kept)
    return SparseFactor.trusted(scope, codes, values, dropped, data, rows, names)


@functools.lru_cache(maxsize=1024)
def _columns(names):
    """The dataset columns that a tuple of names reads: their base names.
    Memoised for the last 1,024 scopes: the same scopes meet again in every
    query, and chain99 has about 150."""
    return tuple([base_name(n) for n in names])


def _source_rows(f: SparseFactor, g: SparseFactor, g_only, f_rows, extra):
    """The source rows of a general join's entries, output k extending f's
    row `f_rows[k]` by `extra[k]` on g's columns `g_only`, or None. They
    are f's source rows, when both tables carry provenance from one
    dataset, g's added columns are not f's, and every entry's `extra` are
    the cells of its source row (one array compare): then each entry is a
    row of the data. Two entries from one row of f cannot both pass the
    compare, so an output of more entries than rows fails before it."""
    data = f.data
    if data is None or g.data is not data or len(f_rows) > data.n_rows:
        return None
    columns = _columns(tuple([g.names[j] for j in g_only]))
    if not set(columns).isdisjoint(_columns(f.names)):
        return None
    rows = f.rows[f_rows]
    cells = take_columns(data.cells, [data.column_index(c) for c in columns])
    return rows if np.array_equal(cells[rows], extra) else None


def marginalize(f: SparseFactor, out_vars) -> SparseFactor:
    """Sum out `out_vars`; exact-zero results are dropped. Each group is
    summed by `np.bincount` in f's row order. f's rows are grouped on the
    kept columns, in the kept codes' order, by `Dataset.group`'s ids for a
    table with provenance, which keeps the groups' `first` rows and no
    codes, and by `group_rows` over the code matrix for any other."""
    out = set(out_vars)
    unknown = out - set(f.names)
    if unknown:
        raise UnknownVariable(f"not in scope: {sorted(unknown)}")
    if not out:
        return f
    keep = [i for i, n in enumerate(f.names) if n not in out]
    scope, names = tuple([f.scope[i] for i in keep]), tuple([f.names[i] for i in keep])
    if f.rows is None:
        g = group_rows(f.codes, keep, [v.domain_size for v in f.scope])
    else:
        g = f.data.group(_columns(names))
        g = Grouping(g.ids[f.rows], g.count)
    sums = np.bincount(g.ids, weights=f.values, minlength=g.count)
    kept = np.abs(sums) >= UNDERFLOW_FLOOR  # a group f lacks sums to 0
    first = g.first[kept]  # a row of f in each group kept
    codes = None if f.rows is not None else take_columns(f.codes, keep)[first]
    return SparseFactor.trusted(
        scope, codes, sums[kept], underflow_dropped=np.count_nonzero(g.first >= 0) - len(first),
        data=f.data, rows=_select(f.rows, first), names=names,
    )


def invert(f: SparseFactor) -> SparseFactor:
    """Entrywise reciprocal over the same support; outside it the reciprocal
    is undefined, which `engine.check_support` rules out before any product."""
    return with_values(f, 1.0 / f.values)
