"""Variables, causal graphs, datasets, and empirical probability extraction."""

from __future__ import annotations

import contextlib
import csv
import functools
import heapq
import operator
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    CycleError,
    DomainViolation,
    EmptyDataset,
    ParseError,
    UnknownVariable,
)

_NUM_RE = re.compile(r"(\d+)")


@functools.lru_cache(maxsize=None)
def name_key(name: str) -> str:
    """Natural sort key: digit runs compare numerically, primes sort after the base.

    Gives the canonical global variable order (V2 < V10, V0 < V0' < V1). The
    base name (the name without its trailing primes) breaks ties between
    names whose digit runs are equal (V01 < V1) before the primes count, so
    the order is total and priming a name never moves it past another.

    The key is one string, so sorting compares it in C. The base splits into
    text and decimal-digit runs (`\\d+`, any script's digits; `²`, a digit to
    `str.isdigit` but not to `\\d`, is text). A text run becomes
    `\\x01 text \\x00` and a digit run `\\x02 chr(len(d)) d`, with
    `d = str(int(run))` its value in ASCII digits. Then come `\\x00`, the
    base, `\\x00` and `chr(primes)`. In code-point order this is the order of
    the tuple (runs, base, primes) with each run (0, text) or (1, value):
    - text sorts before a number (`\\x01` < `\\x02`), and the `\\x00` that
      closes the runs sorts before any further run, as a shorter tuple does;
    - a text run's closing `\\x00` sorts before any character that would
      continue it, as a prefix does;
    - numbers compare by digit count and then digit by digit, which is
      numeric order for numbers without leading zeros.
    A NUL inside the base is written `\\x00\\U0010ffff`, which sorts above the
    `\\x00` that ends a run or the base and below every other character, as
    a NUL does among the name's own characters. The primes count must be
    below 0x10ffff.
    """
    base = name.rstrip("'")
    text = base.replace("\x00", "\x00\U0010ffff")
    runs = _NUM_RE.split(text)
    key = []
    for i, run in enumerate(runs):
        if i % 2:
            d = str(int(run))
            key.append(f"\x02{chr(len(d))}{d}")
        elif run:
            key.append(f"\x01{run}\x00")
    key.append(f"\x00{text}\x00{chr(len(name) - len(base))}")
    return "".join(key)


def code_dtype(top) -> np.dtype:
    """The one dtype rule for code matrices and group ids: the narrowest
    unsigned dtype that holds every value 0..top (`uint8`, `uint16` or
    `uint32`), else `int64`. numpy promotes two such dtypes to the wider, so
    what the algebra builds from them keeps the rule."""
    top = int(top)
    return np.dtype(np.uint8 if top < 1 << 8 else np.uint16 if top < 1 << 16
                    else np.uint32 if top < 1 << 32 else np.int64)


class Grouping:
    """Rows in `count` groups: `ids[i]`, row i's dense group id, read-only in
    the `code_dtype` of `count - 1`. Built on first read and kept, each as
    narrow as the row count allows: `first`, one row of each group or -1 where
    no row is (signed), and `sizes`, the rows of each group. The package's
    one scatter of rows into their groups and one count of a group's rows."""

    def __init__(self, ids, count):
        self.ids, self.count = ids.astype(code_dtype(count - 1), copy=False), count
        self.ids.flags.writeable = False
        self._first = self._sizes = None

    @property
    def first(self):
        if self._first is None:
            self._first = np.full(self.count, -1, dtype=np.min_scalar_type(-1 - len(self.ids)))
            self._first[self.ids] = np.arange(len(self.ids))  # any one row of each group
        return self._first

    @property
    def sizes(self):
        if self._sizes is None:
            sizes = np.bincount(self.ids, minlength=self.count)
            self._sizes = sizes.astype(code_dtype(len(self.ids)))
        return self._sizes


def group_rows(cells, positions, sizes, prefix=None) -> Grouping:
    """The package's one grouping: the `Grouping` of a code matrix's rows on
    its columns `positions` (`sizes[j]` column j's domain) behind the groups
    of `prefix` (default: one group of all rows), ids in lexicographic order.
    Each column of domain k adds a digit to one `int64` key behind the
    leading id (`key * k + cell`); `_dense` numbers the key's groups before
    it would pass 63 bits, and at the end. A column whose domain alone
    passes 63 bits adds the dense ids of its codes instead. Once every row
    is a group of its own, the grouping is final (`prefix` itself if no key
    was numbered)."""
    g = prefix or Grouping(np.zeros(len(cells), dtype=np.uint8), min(len(cells), 1))
    key, width = g.ids.astype(np.int64), 1
    for j in positions:
        k, column = sizes[j], cells[:, j]
        if g.count * width * k > 1 << 63:  # the key is full: number its groups first
            g, width = Grouping(*_dense(key, g.count * width)), 1
            key = g.ids.astype(np.int64)
        if g.count == len(g.ids):
            return g
        if g.count * k > 1 << 63:
            column, k = _dense(column, k)
        key *= k
        key += column
        width *= k
    return Grouping(*_dense(key, g.count * width))


def _dense(key, slots):
    """Dense ids, in order, of n non-negative integer keys below `slots`, and
    their number: up to `8 * n` slots by marking the keys in one array and a
    `cumsum` over it, in O(slots + n), more by `np.unique`, in O(n log n).
    On random keys of 800 to 12,800 rows the two meet at 6.5 to 8 slots per
    row, about 3 ns per slot against 25 ns per row (at 200 rows, near 14)."""
    if slots <= 8 * len(key):
        label = np.zeros(slots, dtype=np.intp)
        label[key] = 1
        np.cumsum(label, out=label)  # each seen key's rank, from 1
        ids = label[key]
        ids -= 1
        return ids, int(label[-1]) if slots else 0
    uniques, ids = np.unique(key, return_inverse=True)
    return ids, len(uniques)


def base_name(name: str) -> str:
    """Strip renamer primes, recovering the dataset column a variable reads."""
    return name.rstrip("'")


def sides(names, right, of):
    """`of`, one entry per name of `names` (a scope without repeats), split at
    the names outside `right` and those in it, each part in scope order: two
    slices when `right` is the scope's first names, as a chain's is."""
    if names[:len(right)] == right:
        return of[len(right):], of[:len(right)]
    right = set(right)
    return (tuple([x for n, x in zip(names, of) if n not in right]),
            tuple([x for n, x in zip(names, of) if n in right]))


@dataclass(frozen=True, order=True)
class Variable:
    name: str
    domain_size: int

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError(f"domain_size of {self.name!r} must be >= 1")
        object.__setattr__(self, "column", base_name(self.name))  # the dataset column it reads


# one shared Variable per (name, domain): the same names are bound again by
# every query, and a frozen dataclass is slow to build
shared_variable = functools.lru_cache(maxsize=None)(Variable)


class CausalGraph:
    """DAG over observed variables with bidirected confounder surrogates.

    Bidirected edges are metadata: preserved for fixtures and reporting, and
    expanded into explicit latents only by the simulator.
    """

    def __init__(self, variables, directed_edges, bidirected_edges=()):
        self.variables = tuple(variables)
        self._by_name = {v.name: v for v in self.variables}
        if len(self._by_name) != len(self.variables):
            raise ParseError("duplicate variable declaration")
        for a, b in list(directed_edges) + [tuple(e) for e in bidirected_edges]:
            for end in (a, b):
                if end not in self._by_name:
                    raise UnknownVariable(f"edge endpoint {end!r} not declared")
        self.directed_edges = tuple(tuple(e) for e in directed_edges)
        self.bidirected_edges = tuple(tuple(sorted(e, key=name_key)) for e in bidirected_edges)
        self._check_acyclic()

    def _check_acyclic(self):
        if len(self.topological_order()) != len(self.variables):
            raise CycleError("directed edges contain a cycle")

    def variable(self, name: str) -> Variable:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def domain_size(self, name: str) -> int:
        return self.variable(name).domain_size

    @property
    def names(self):
        return tuple(v.name for v in self.variables)

    @functools.cached_property
    def _parents(self):
        found = {n: [] for n in self._by_name}
        for a, b in self.directed_edges:
            found[b].append(a)
        return {n: tuple(sorted(ps, key=name_key)) for n, ps in found.items()}

    def parents(self, name: str):
        """The parents of `name` in `name_key` order (a map built on first call)."""
        return self._parents[name]

    def topological_order(self):
        """Kahn's order, taking the ready name first in `name_key` order."""
        order = []
        children = {v.name: [] for v in self.variables}
        indeg = {v.name: 0 for v in self.variables}
        for a, b in self.directed_edges:
            children[a].append(b)
            indeg[b] += 1
        ready = sorted((name_key(n), n) for n, d in indeg.items() if d == 0)  # a heap
        while ready:
            n = heapq.heappop(ready)[1]
            order.append(n)
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    heapq.heappush(ready, (name_key(c), c))
        return tuple(order)


class Dataset:
    """Integer-coded sample rows over named columns, held as one matrix
    (`cells`, one row per sample), range-checked once and kept in the
    `code_dtype` of the largest domain. Immutable: the cells are a copy of
    the rows, unless `copy=False` hands over an array in that dtype that no
    one else holds (`load_dataset`'s and `sample_dataset`'s)."""

    def __init__(self, columns, rows, domains, copy=True):
        self.columns = tuple(columns)
        self.domains = dict(domains)
        self._col_index = {c: i for i, c in enumerate(self.columns)}
        for i, c in enumerate(self.columns):
            if c not in self.domains:
                raise UnknownVariable(f"no domain for column {c!r}")
            if self._col_index[c] != i:
                raise ParseError(f"column {c!r} appears more than once")
        width = len(self.columns)
        sizes = self._sizes = [self.domains[c] for c in self.columns]  # by column index
        try:
            cells = np.asarray(rows).reshape(len(rows), width)  # no cast: int64 would truncate 1.7
        except (ValueError, OverflowError):
            cells = None
        if cells is None or (cells.dtype.kind not in "biu" and cells.size):
            for i, row in enumerate(rows):  # name the first bad row and cell
                if len(row) != width:
                    raise ParseError(f"row {i} has {len(row)} cells, expected {width}")
                for c, v in zip(self.columns, row):
                    if not isinstance(v, (int, np.integer)):
                        raise ParseError(f"row {i}, column {c!r}: cell {v!r} is not an integer")
                    if not 0 <= v < self.domains[c]:
                        raise DomainViolation(i, c, v)
            raise ParseError("dataset cells must be integers")
        if len(cells) and ((cells.max(axis=0) >= sizes).any()
                           or (cells.dtype.kind == "i" and (cells.min(axis=0) < 0).any())):
            bad = (cells < 0) | (cells >= sizes)  # built only to find the first bad cell
            i, j = np.argwhere(bad)[0]  # row-major: the cell a scan meets first
            raise DomainViolation(int(i), self.columns[j], rows[i][j])
        cells = cells.astype(code_dtype(max(sizes, default=1) - 1), copy=copy)
        cells.flags.writeable = False
        self.cells = cells
        self._groups = {(): Grouping(np.broadcast_to(np.uint8(0), len(cells)), 1)}  # see `group`
        self._ends = set()  # (length, last column) of each cached tuple but ()

    @property
    def rows(self):
        """The cells as a tuple of Python int tuples."""
        return tuple(map(tuple, self.cells.tolist()))

    @property
    def n_rows(self) -> int:
        return len(self.cells)

    def column_index(self, name: str) -> int:
        try:
            return self._col_index[name]
        except KeyError:
            raise UnknownVariable(name) from None

    def variable(self, name: str) -> Variable:
        """The shared `Variable` of a name, with its base name's column's domain."""
        return shared_variable(name, self._sizes[self.column_index(base_name(name))])

    def group(self, columns) -> Grouping:
        """The `Grouping` of the rows on `columns` (a tuple of names), ids in
        lexicographic order, memoised per tuple. A miss groups the columns
        past the longest cached prefix behind its record by `group_rows`, the
        trie over a variable order of Leapfrog Triejoin (Veldhuizen, ICDT
        2014); a tuple that splits no group shares its prefix's record. The
        search walks back from the end once, slicing a prefix only where a
        cached tuple of that length ends in the same column (`_ends`)."""
        columns = tuple(columns)
        g = self._groups.get(columns)
        if g is None:
            known = len(columns) - 1
            while known and ((known, columns[known - 1]) not in self._ends
                             or columns[:known] not in self._groups):
                known -= 1
            self._groups[columns] = g = group_rows(
                self.cells, map(self.column_index, columns[known:]), self._sizes,
                self._groups[columns[:known]])
            self._ends.add((len(columns), columns[-1]))
        return g

    def project(self, names):
        """Distinct-preserving projection: per-row tuples for the given columns."""
        idx = [self.column_index(n) for n in names]
        return list(map(tuple, self.cells[:, idx].tolist()))


def statements(lines):
    """(line number, text) of each non-blank line of a line-based file once
    it is cut at its first `#` and stripped, numbered from 1."""
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


@contextlib.contextmanager
def open_text(path, newline=None):
    """A text input opened as UTF-8 with its byte-order mark, if any, dropped;
    a byte that is not UTF-8 raises a ParseError that names the file."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte {exc.object[exc.start]:#04x} is not UTF-8 ({exc.reason})",
                         path) from None


def load_graph(path) -> CausalGraph:
    """Parse the graph text format: `var <name> <k>`, `a -> b`, `a <-> b`."""
    variables = {}  # name -> Variable, in declaration order
    directed = []
    bidirected = []
    endpoints = {}  # edge endpoint -> the first line naming it
    with open_text(path) as fh:
        for lineno, line in statements(fh):
            parts = line.split()
            if parts[0] == "var":
                if len(parts) != 3:
                    raise ParseError("expected `var <name> <domain_size>`", path, lineno)
                try:
                    k = int(parts[2])
                except ValueError:
                    raise ParseError(f"bad domain size {parts[2]!r}", path, lineno) from None
                if not 1 <= k < 2**63:  # cells and codes are checked as int64
                    raise ParseError(f"domain size must be in 1..2**63-1, got {k}", path, lineno)
                if parts[1] in variables:
                    raise ParseError(f"variable {parts[1]!r} declared twice", path, lineno)
                variables[parts[1]] = Variable(parts[1], k)
            elif len(parts) == 3 and parts[1] in ("->", "<->"):
                edges = directed if parts[1] == "->" else bidirected
                edges.append((parts[0], parts[2]))
                for end in (parts[0], parts[2]):
                    endpoints.setdefault(end, lineno)
            else:
                raise ParseError(f"unrecognized statement {line!r}", path, lineno)
    for name, lineno in endpoints.items():
        if name not in variables:
            raise UnknownVariable(f"{path}:{lineno}: edge endpoint {name!r} not declared")
    try:
        return CausalGraph(variables.values(), directed, bidirected)
    except CycleError as exc:
        raise CycleError(f"{path}: {exc}") from None


def load_dataset(path, graph: CausalGraph) -> Dataset:
    """Load a CSV of integer cells, range-checked against the graph's domains.

    An ASCII file, after a UTF-8 byte-order mark if any, is read in one pass:
    `csv` reads the header and `np.loadtxt` (numpy >= 1.23) streams the body
    into the cells' `code_dtype`, on universal newlines. Any failure there
    (an error, a warning, a row of another width, a cell out of its domain, a
    byte past ASCII, which numpy may read as a digit) reads the file again
    record by record with `csv`, whose errors name the first bad record's
    `path:line`. A cell is an integer as `int` reads it once stripped.
    """
    try:
        with open(path, encoding="ascii") as fh:
            if fh.buffer.peek(3).startswith(b"\xef\xbb\xbf"):
                fh.buffer.read(3)  # a leading byte-order mark, as `open_text` drops it
            columns = [c.strip() for c in next(filter(None, csv.reader(fh)))]
            domains = {c: graph.domain_size(c) for c in columns}
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # numpy warns on an empty body
                cells = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None,
                                   dtype=code_dtype(max(domains.values()) - 1))
        if cells.shape[1] == len(columns):
            return Dataset(columns, cells, domains, copy=False)  # nobody else holds `cells`
    except Exception:
        pass  # the records below give the error, or the cells numpy would not
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next((rec for rec in reader if rec), None)  # blank lines come as []
            if header is None:
                raise ParseError("empty file", path)
            columns = [c.strip() for c in header]
            declared = {v.name: v.domain_size for v in graph.variables}
            for i, c in enumerate(columns):
                if c not in declared:
                    raise UnknownVariable(f"{path}:{reader.line_num}: column {c!r} is not "
                                          "declared in the graph")
                if columns.index(c) != i:
                    raise ParseError(f"column {c!r} appears more than once", path,
                                     reader.line_num)
            records = [(reader.line_num, rec) for rec in reader if rec]  # a record's last line
        except csv.Error as exc:  # a cell past the field size limit; a NUL before Python 3.11
            raise ParseError(str(exc), path, reader.line_num) from None
    domains = {c: declared[c] for c in columns}
    rows = []
    for lineno, rec in records:
        try:
            rows.append(tuple(int(cell.strip()) for cell in rec))
        except ValueError:
            raise ParseError(f"non-integer cell in {rec!r}", path, lineno) from None
    for lineno, rec in records:
        if len(rec) != len(columns):
            raise ParseError(f"{len(rec)} cells, expected {len(columns)}", path, lineno)
    try:
        return Dataset(columns, rows, domains)
    except DomainViolation as exc:  # only now look up the bad row's line
        raise DomainViolation(exc.row, exc.column, exc.value, path,
                              records[exc.row][0]) from None


def empirical_prob(data: Dataset, variable, left, right=(), names=None) -> "SparseFactor":
    """The empirical table P_D(left | right): all of binding, in one call.
    `variable(n)` is name n's shared `Variable` (a plan level's, whose domains
    `engine.execute` checks against the data's, or `Dataset.variable`), and
    `names` the scope in canonical order, sorted here unless given (a
    `ProbTerm`'s `scope`). Each name reads its `Variable`'s column, so a primed
    name reads its base name's and the table keeps the term's own names.
    Raises ValueError for an empty left side or a term that reads a column
    more than once, before EmptyDataset for a dataset of no rows. The term's
    rows are grouped in scope order (`data.group`), so its `first` rows, kept
    as the table's provenance with no code matrix, list the seen entries
    sorted; each value is the term's `sizes` over its conditioning side's,
    one exact division per entry."""
    from .factor import SparseFactor

    left, right = tuple(left), tuple(right)
    if not left:
        raise ValueError("left variable set must be non-empty")
    if names is None:
        names = tuple(sorted(left + right, key=name_key))
    scope = tuple(map(variable, names))
    columns = tuple(map(operator.attrgetter("column"), scope))
    if len(set(columns)) != len(left) + len(right):
        term = ",".join(left) + ("|" + ",".join(right) if right else "")
        raise ValueError(f"term P({term}) reads a column more than once")
    if data.n_rows == 0:
        raise EmptyDataset("cannot extract probabilities from zero rows")
    # the conditioning side's columns first, in scope order: when they sort first, the
    # term's grouping extends theirs; with right empty they are the one group of all rows
    given = data.group(sides(names, right, columns)[1])
    term = data.group(columns)
    values = term.sizes / given.sizes[given.ids[term.first]]
    return SparseFactor.trusted(scope, None, values, data=data, names=names,
                                rows=term.first.astype(code_dtype(data.n_rows - 1)))
