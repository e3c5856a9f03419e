"""Variables, causal graphs, datasets, and empirical probability extraction."""

from __future__ import annotations

import csv
import functools
import itertools
import re
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
def name_key(name: str):
    """Natural sort key: digit runs compare numerically, primes sort after the base.

    Gives the canonical global variable order (V2 < V10, V0 < V0' < V1). The
    base name breaks ties between names whose digit runs are equal (V01 < V1)
    before the primes count, so the order is total and priming a name never
    moves it past another.
    """
    base = name.rstrip("'")
    parts = tuple(
        (1, int(tok)) if tok.isdigit() else (0, tok)
        for tok in _NUM_RE.split(base)
        if tok
    )
    return (parts, base, len(name) - len(base))


def base_name(name: str) -> str:
    """Strip renamer primes, recovering the dataset column a variable reads."""
    return name.rstrip("'")


@dataclass(frozen=True, order=True)
class Variable:
    name: str
    domain_size: int

    def __post_init__(self):
        if self.domain_size < 1:
            raise ValueError(f"domain_size of {self.name!r} must be >= 1")


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

    def parents(self, name: str):
        return tuple(a for a, b in self.directed_edges if b == name)

    def topological_order(self):
        order = []
        children = {v.name: [] for v in self.variables}
        indeg = {v.name: 0 for v in self.variables}
        for a, b in self.directed_edges:
            children[a].append(b)
            indeg[b] += 1
        pending = sorted((n for n, d in indeg.items() if d == 0), key=name_key)
        while pending:
            n = pending.pop(0)
            order.append(n)
            ready = []
            for c in children[n]:
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
            pending = sorted(pending + ready, key=name_key)
        return tuple(order)


class Dataset:
    """Integer-coded sample rows over named columns, held as one int64 matrix
    (`cells`, one row per sample) that is range-checked once. Immutable."""

    def __init__(self, columns, rows, domains):
        self.columns = tuple(columns)
        self.domains = dict(domains)
        self._col_index = {c: i for i, c in enumerate(self.columns)}
        for i, c in enumerate(self.columns):
            if c not in self.domains:
                raise UnknownVariable(f"no domain for column {c!r}")
            if self._col_index[c] != i:
                raise ParseError(f"column {c!r} appears more than once")
        width = len(self.columns)
        sizes = np.array([self.domains[c] for c in self.columns], dtype=np.int64)
        try:
            cells = np.array(rows).reshape(len(rows), width)  # no cast: int64 would truncate 1.7
            ok = ((cells.dtype.kind in "biu" or not cells.size)
                  and ((cells >= 0) & (cells < sizes)).all())
        except (ValueError, OverflowError):
            ok = False
        if not ok:
            for i, row in enumerate(rows):  # name the first bad row and cell
                if len(row) != width:
                    raise ParseError(f"row {i} has {len(row)} cells, expected {width}")
                for c, v in zip(self.columns, row):
                    if not isinstance(v, (int, np.integer)):
                        raise ParseError(f"row {i}, column {c!r}: cell {v!r} is not an integer")
                    if not 0 <= v < self.domains[c]:
                        raise DomainViolation(i, c, v)
            raise ParseError("dataset cells must be integers")
        cells = cells.astype(np.int64, copy=False)
        cells.flags.writeable = False
        self.cells = cells

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

    def project(self, names):
        """Distinct-preserving projection: per-row tuples for the given columns."""
        idx = [self.column_index(n) for n in names]
        return list(map(tuple, self.cells[:, idx].tolist()))


def load_graph(path) -> CausalGraph:
    """Parse the graph text format: `var <name> <k>`, `a -> b`, `a <-> b`."""
    variables = []
    directed = []
    bidirected = []
    declared = set()
    endpoints = {}  # edge endpoint -> the first line naming it
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "var":
                if len(parts) != 3:
                    raise ParseError("expected `var <name> <domain_size>`", path, lineno)
                try:
                    k = int(parts[2])
                except ValueError:
                    raise ParseError(f"bad domain size {parts[2]!r}", path, lineno) from None
                if k < 1:
                    raise ParseError(f"domain size must be >= 1, got {k}", path, lineno)
                if parts[1] in declared:
                    raise ParseError(f"variable {parts[1]!r} declared twice", path, lineno)
                declared.add(parts[1])
                variables.append(Variable(parts[1], k))
            elif len(parts) == 3 and parts[1] in ("->", "<->"):
                edges = directed if parts[1] == "->" else bidirected
                edges.append((parts[0], parts[2]))
                for end in (parts[0], parts[2]):
                    endpoints.setdefault(end, lineno)
            else:
                raise ParseError(f"unrecognized statement {line!r}", path, lineno)
    for name, lineno in endpoints.items():
        if name not in declared:
            raise UnknownVariable(f"{path}:{lineno}: edge endpoint {name!r} not declared")
    try:
        return CausalGraph(variables, directed, bidirected)
    except CycleError as exc:
        raise CycleError(f"{path}: {exc}") from None


def load_dataset(path, graph: CausalGraph) -> Dataset:
    """Load a CSV of integer cells, range-checked against the graph's domains."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", path) from None
        columns = [c.strip() for c in header]
        declared = {v.name: v.domain_size for v in graph.variables}
        for i, c in enumerate(columns):
            if c not in declared:
                raise UnknownVariable(f"{path}:{reader.line_num}: column {c!r} is not "
                                      "declared in the graph")
            if columns.index(c) != i:
                raise ParseError(f"column {c!r} appears more than once", path, reader.line_num)
        records = [(reader.line_num, rec) for rec in reader if rec]  # a record's last line
    rows = None
    if all(len(rec) == len(columns) for _, rec in records):
        try:  # one conversion over every cell; Dataset range-checks the matrix
            cells = list(map(int, itertools.chain.from_iterable(rec for _, rec in records)))
            rows = np.array(cells).reshape(len(records), len(columns))
        except ValueError:
            pass
    if rows is None:  # row by row, so the error names the line
        rows = []
        for lineno, rec in records:
            try:
                rows.append(tuple(int(cell) for cell in rec))
            except ValueError:
                raise ParseError(f"non-integer cell in {rec!r}", path, lineno) from None
        for lineno, rec in records:
            if len(rec) != len(columns):
                raise ParseError(f"{len(rec)} cells, expected {len(columns)}", path, lineno)
    domains = {c: declared[c] for c in columns}
    try:
        return Dataset(columns, rows, domains)
    except DomainViolation as exc:  # only now look up the bad row's line
        raise DomainViolation(exc.row, exc.column, exc.value, path,
                              records[exc.row][0]) from None


def empirical_prob(data: Dataset, left, right=()) -> "SparseFactor":
    """Empirical conditional table P_D(left | right) as a sparse factor.

    Names are the term's own, primed or not: each reads the column of its
    base name, and the scope is the names in canonical order. Entries exist
    only for configurations seen in the data; counts are exact integers,
    divided once per entry. With right empty this is the empirical marginal
    over `left`.
    """
    from .factor import SparseFactor, group_ids

    left = tuple(left)
    right = tuple(right)
    if not left:
        raise ValueError("left variable set must be non-empty")
    if len({base_name(n) for n in left + right}) != len(left + right):
        term = ",".join(left) + ("|" + ",".join(right) if right else "")
        raise ValueError(f"term P({term}) reads a column more than once")
    if data.n_rows == 0:
        raise EmptyDataset("cannot extract probabilities from zero rows")

    scope_names = sorted(left + right, key=name_key)
    columns = [base_name(n) for n in scope_names]
    cells = data.cells[:, [data.column_index(c) for c in columns]]
    scope = tuple(Variable(n, data.domains[c]) for n, c in zip(scope_names, columns))
    ids, first = group_ids(cells)
    codes, counts = cells[first], np.bincount(ids)
    if right:
        right_ids, _ = group_ids(codes[:, [n in right for n in scope_names]])
        denom = np.bincount(right_ids, weights=counts)[right_ids]
    else:
        denom = data.n_rows
    return SparseFactor.trusted(scope, codes, counts / denom)
