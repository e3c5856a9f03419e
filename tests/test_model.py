import contextlib
import gc
import math
import re
import sys
import tracemalloc
import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import bind
from pihte import factor, model
from pihte.cli import main
from pihte.decomposition import load_decomposition
from pihte.engine import pi_hte
from pihte.errors import (
    CycleError,
    DomainViolation,
    EmptyDataset,
    ParseError,
    UnknownVariable,
)
from pihte.factor import SparseFactor
from pihte.model import (
    CausalGraph,
    Dataset,
    Grouping,
    Variable,
    base_name,
    code_dtype,
    load_dataset,
    load_graph,
    name_key,
)
from pihte.estimand import flatten, parse
from pihte.simulate import random_cbn, sample_dataset


def test_name_key_orders_numerically():
    names = ["V10", "V2", "V0", "V0'", "V1"]
    assert sorted(names, key=name_key) == ["V0", "V0'", "V1", "V2", "V10"]


def test_name_key_primes_after_base():
    assert sorted(["V3''", "V3", "V3'"], key=name_key) == ["V3", "V3'", "V3''"]


def test_name_key_is_a_total_order():
    # V1 and V01 have equal digit runs; the base name breaks the tie before
    # the primes count, so priming never moves a name past another
    names = ["V1'", "V01", "V1", "A", "V01'", "V0"]
    want = ["A", "V0", "V01", "V01'", "V1", "V1'"]
    assert sorted(names, key=name_key) == want
    assert sorted(reversed(names), key=name_key) == want


_NUM_RE = re.compile(r"(\d+)")


def tuple_name_key(name):
    """The tuple key that `name_key` encodes as one string: the reference order."""
    base = name.rstrip("'")
    parts = tuple((1, int(tok)) if tok.isdigit() else (0, tok)
                  for tok in _NUM_RE.split(base) if tok)
    return (parts, base, len(name) - len(base))


# names as a graph file may hold them: no blanks; primes, leading zeros,
# other scripts' decimal digits, a superscript digit and control characters
NAME_CHARS = st.characters(blacklist_categories=("Cs", "Zs", "Zl", "Zp")).filter(
    lambda c: not c.isspace())
NAMES = st.text(NAME_CHARS | st.sampled_from(list("V0019'٣٠²\x00\x01\x02\x7f")),
                max_size=8)


@settings(max_examples=400, deadline=None)
@given(NAMES, NAMES)
@example("V1\x00", "V1")
@example("A\x00", "A\x01")
@example("V٣", "V3'")
@example("V01", "V1")
@example("V007''", "V7")
def test_name_key_orders_as_the_tuple_key(a, b):
    try:
        ka, kb = tuple_name_key(a), tuple_name_key(b)
    except ValueError:  # the tuple key could not read a digit that \d does not match
        ka = kb = None
    if ka is not None:
        assert (name_key(a) < name_key(b)) == (ka < kb)
    assert (name_key(a) == name_key(b)) == (a == b)


def test_name_key_sorts_names_the_tuple_key_could_not_read():
    # '²' is a digit to str.isdigit but not to \d, so int() refused it
    names = ["²", "V1²", "V0", "A"]
    assert sorted(names, key=name_key) == ["A", "V0", "V1²", "²"]


def test_simulate_reads_a_graph_with_a_superscript_name(tmp_path):
    graph = tmp_path / "sup.graph"
    graph.write_text("var ² 2\nvar A 2\n² -> A\n", encoding="utf-8")
    out = tmp_path / "sup.csv"
    assert main(["simulate", "--graph", str(graph), "--rows", "5", "--seed", "1",
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").splitlines()[0] == "A,²"


def test_base_name():
    assert base_name("V10''") == "V10"
    assert base_name("X") == "X"


def test_graph_basics():
    g = CausalGraph(
        [Variable("A", 2), Variable("B", 3)],
        [("A", "B")],
        [("B", "A")],
    )
    assert g.parents("B") == ("A",)
    assert g.domain_size("B") == 3
    assert g.topological_order() == ("A", "B")
    # bidirected edges are stored sorted
    assert g.bidirected_edges == (("A", "B"),)


def test_parents_come_in_name_order():
    """Parents follow `name_key`, not the order their edges were given."""
    names = ["V10", "B", "V2", "V0'", "X"]
    g = CausalGraph([Variable(n, 2) for n in names], [(n, "X") for n in names[:4]])
    assert g.parents("X") == ("B", "V0'", "V2", "V10")
    assert g.parents("V2") == ()
    with pytest.raises(KeyError):
        g.parents("Z")


def resorted_topological_order(graph):
    """Kahn's order as it was written: the pending names sorted again by
    `name_key` after each pop."""
    children = {n: [] for n in graph.names}
    indeg = dict.fromkeys(graph.names, 0)
    for a, b in graph.directed_edges:
        children[a].append(b)
        indeg[b] += 1
    pending = sorted((n for n, d in indeg.items() if d == 0), key=model.name_key)
    order = []
    while pending:
        n = pending.pop(0)
        order.append(n)
        ready = []
        for c in children[n]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
        pending = sorted(pending + ready, key=model.name_key)
    return tuple(order)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_topological_order_is_the_resorted_order(data):
    names = data.draw(st.lists(st.sampled_from(
        ["V0", "V01", "V1", "V2", "V10", "V0'", "V1''", "B", "X", "U_V0_V2", "a2b"]),
        unique=True, min_size=1))
    edges = data.draw(st.lists(st.tuples(st.integers(0, len(names) - 1),
                                         st.integers(0, len(names) - 1))))
    g = CausalGraph([Variable(n, 2) for n in names],
                    [(names[i], names[j]) for i, j in edges if i < j])
    assert g.topological_order() == resorted_topological_order(g)
    for name in names:
        assert g.parents(name) == tuple(sorted(
            (a for a, b in g.directed_edges if b == name), key=model.name_key))


def test_graph_cycle_rejected():
    with pytest.raises(CycleError):
        CausalGraph([Variable("A", 2), Variable("B", 2)], [("A", "B"), ("B", "A")])


def test_graph_unknown_endpoint():
    with pytest.raises(UnknownVariable):
        CausalGraph([Variable("A", 2)], [("A", "Z")])


def test_load_graph(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("# comment\nvar A 2\nvar B 3\nA -> B\nA <-> B\n")
    g = load_graph(p)
    assert g.names == ("A", "B")
    assert g.directed_edges == (("A", "B"),)
    assert g.bidirected_edges == (("A", "B"),)


def test_load_graph_largest_domain(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text(f"var A {2**63 - 1}\n")  # 2**63 is a ParseError (tests/test_cli.py)
    assert load_graph(p).variables[0].domain_size == 2**63 - 1


def test_load_graph_bad_line(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("var A 2\nA => B\n")
    with pytest.raises(ParseError):
        load_graph(p)


def test_load_graph_duplicate_var(tmp_path):
    p = tmp_path / "g.graph"
    p.write_text("var A 2\nvar A 2\n")
    with pytest.raises(ParseError):
        load_graph(p)


def test_dataset_domain_check():
    with pytest.raises(DomainViolation):
        Dataset(("A",), [(2,)], {"A": 2})


@pytest.mark.parametrize("rows, row, column, value", [
    ([(0, 0), (1, 5), (9, 9)], 1, "B", 5),
    ([(0, 0), (0, 1), (3, 7)], 2, "A", 3),
    ([(0, 1), (-1, 0)], 1, "A", -1),
    ([(0, 1), (0, 2**70)], 1, "B", 2**70),
    # integer matrices: the first bad cell in row-major order, as a loop finds it
    (np.array([(0, 1), (1, 2), (5, 0)]), 1, "B", 2),
    (np.array([(0, 1), (2**63, 7)], dtype=np.uint64), 1, "A", 2**63),
])
def test_dataset_names_first_bad_row_and_column(rows, row, column, value):
    with pytest.raises(DomainViolation) as exc:
        Dataset(("A", "B"), rows, {"A": 2, "B": 2})
    assert (exc.value.row, exc.value.column, exc.value.value) == (row, column, value)
    assert str(exc.value) == f"row {row}, column {column!r}: value {value} out of domain"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-2, 4)] * 3), max_size=8), st.booleans())
def test_first_bad_cell_matches_a_row_by_row_scan(rows, as_array):
    # the integer matrix is checked in one pass; the cell it names must be
    # the one a scan in row-major order meets first
    domains = {"A": 2, "B": 3, "C": 4}
    want = next(((i, c, v) for i, row in enumerate(rows)
                 for c, v in zip("ABC", row) if not 0 <= v < domains[c]), None)
    cells = np.array(rows, dtype=np.int64).reshape(-1, 3) if as_array else rows
    if want is None:
        assert Dataset(("A", "B", "C"), cells, domains).rows == tuple(rows)
        return
    with pytest.raises(DomainViolation) as exc:
        Dataset(("A", "B", "C"), cells, domains)
    assert (exc.value.row, exc.value.column, exc.value.value) == want


def test_dataset_rejects_non_integer_cell():
    # an int64 cast would store 1.7 as 1
    with pytest.raises(ParseError, match=r"row 0, column 'A': cell 1.7 is not an integer"):
        Dataset(("A",), [(1.7,), (0.2,)], {"A": 2})
    with pytest.raises(ParseError, match=r"row 1, column 'B': cell 0.5"):
        Dataset(("A", "B"), [(0, 1), (1, 0.5)], {"A": 2, "B": 2})


def test_dataset_ragged_row():
    with pytest.raises(ParseError, match="row 1 has 1 cells, expected 2"):
        Dataset(("A", "B"), [(0, 1), (1,)], {"A": 2, "B": 2})


def test_dataset_repeated_column():
    with pytest.raises(ParseError, match="column 'W' appears more than once"):
        Dataset(("W", "W", "X"), [(0, 1, 0)], {"W": 2, "X": 2})


def test_dataset_cells_are_one_narrow_matrix():
    d = Dataset(("A", "B"), [(0, 1), (1, 1)], {"A": 2, "B": 2})
    assert d.cells.dtype == "uint8" and d.cells.shape == (2, 2)
    assert not d.cells.flags.writeable
    assert d.rows == ((0, 1), (1, 1))
    assert all(type(c) is int for row in d.rows for c in row)


@pytest.mark.parametrize("domain, dtype", [
    (2, np.uint8), (256, np.uint8), (257, np.uint16), (65_536, np.uint16),
    (65_537, np.uint32), (2**32, np.uint32), (2**32 + 1, np.int64),
])
def test_codes_take_the_narrowest_dtype_of_the_largest_domain(domain, dtype):
    # both input boundaries, Dataset cells and SparseFactor codes, follow the
    # one rule, decided by the largest domain and not by the cells present
    assert code_dtype(domain - 1) == dtype
    d = Dataset(("A", "B"), [(0, domain - 1), (1, 0)], {"A": 2, "B": domain})
    assert d.cells.dtype == dtype
    assert d.rows == ((0, domain - 1), (1, 0))
    f = SparseFactor((Variable("A", 2), Variable("B", domain)), {(1, 0): 0.5, (0, 0): 2.0})
    assert f.codes.dtype == dtype
    assert list(f.items()) == [((0, 0), 2.0), ((1, 0), 0.5)]
    bound = bind(d, ("A",), ("B",))
    assert bound.codes.dtype == dtype  # a gather of the cells keeps their dtype
    assert list(bound.items()) == [((0, domain - 1), 1.0), ((1, 0), 1.0)]


def test_line_loaders_close_the_file_on_a_parse_error(tmp_path):
    """The graph and decomposition loaders read lines through one reader
    that cuts comments and skips blank lines, and close the file also when
    a ParseError escapes."""
    bad = tmp_path / "bad.txt"
    bad.write_text("# a comment\n\n  nonsense here  # and a comment\n")
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always", ResourceWarning)
        for load in (load_graph, load_decomposition):
            with pytest.raises(ParseError, match=r"bad\.txt:3: unrecognized \w+ 'nonsense here'"):
                load(bad)
        gc.collect()
    assert not [w for w in seen if issubclass(w.category, ResourceWarning)]


def test_load_dataset(tmp_path):
    g = CausalGraph([Variable("A", 2), Variable("B", 2)], [])
    p = tmp_path / "d.csv"
    p.write_text("A,B\n0,1\n1,0\n")
    d = load_dataset(p, g)
    assert d.n_rows == 2
    assert d.project(["B"]) == [(1,), (0,)]


@pytest.mark.parametrize("text, rows", [
    ('A,B\n"0",1\n1, 0\n', ((0, 1), (1, 0))),  # quotes and spaces around an int
    ("A,B\n\n0,1\n\n1,0\n\n", ((0, 1), (1, 0))),  # blank lines are skipped
    ("A,B\n", ()),
    ("\nA,B\n0,1\n1,0\n", ((0, 1), (1, 0))),  # blank lines before the header too
    ("\n\nA,B\n", ()),
    ("A,B\n\n\n", ()),  # a body of blank lines only: numpy warns, csv reads no rows
])
def test_load_dataset_cells(tmp_path, text, rows):
    g = CausalGraph([Variable("A", 2), Variable("B", 2)], [])
    p = tmp_path / "d.csv"
    p.write_text(text)
    assert load_dataset(p, g).rows == rows


@pytest.mark.parametrize("text, error, message", [
    pytest.param("A" * 140_000 + ",B\n0,1\n", ParseError,
                 r"d\.csv:1: field larger than field limit", id="long header field"),
    pytest.param("A,B\n0,1\n" + "1" * 140_000 + ",0\n", ParseError,
                 r"d\.csv:3: field larger than field limit", id="long body field"),
    # csv rejects a NUL before Python 3.11; later ones read it as a bad cell
    pytest.param("A,B\n0,1\n1,\x00\n", ParseError, r"d\.csv:3: ", id="NUL byte"),
    ("A,B\n0,1\n\n1,x\n", ParseError, r"d\.csv:4: non-integer cell in \['1', 'x'\]"),
    ("A,B\n0,1\n \n", ParseError, r"d\.csv:3: non-integer cell in \[' '\]"),
    ("A,B\n# note\n0,1\n", ParseError, r"d\.csv:2: non-integer cell"),
    ("A,B\n0,1\n1\n", ParseError, r"d\.csv:3: 1 cells, expected 2"),
    ("A,B\n0,1\n1\n1,x\n", ParseError, r"d\.csv:4: non-integer cell"),
    ("A,B\n0,1\n1,2\n", DomainViolation, r"d\.csv:3: column 'B': value 2 out of domain"),
    ('A,B\n"0\n",1\n1,2\n', DomainViolation, r"d\.csv:4: column 'B'"),  # a cell over two lines
    ("\nA,B\n0,1\n1,x\n", ParseError, r"d\.csv:4: non-integer cell in \['1', 'x'\]"),
    ("\n\nA,C\n", UnknownVariable, r"d\.csv:3: column 'C' is not declared"),
    ("", ParseError, r"d\.csv: empty file"),
    ("\n\n\n", ParseError, r"d\.csv: empty file"),
])
def test_load_dataset_names_the_first_bad_line(tmp_path, text, error, message):
    g = CausalGraph([Variable("A", 2), Variable("B", 2)], [])
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(error, match=message):
        load_dataset(p, g)


@st.composite
def dataset_texts(draw):
    """CSV texts under the header A,B, with LF, CRLF or lone CR line ends,
    blank lines, leading zeros and maybe no final line end: plain digit
    files and, when `odd` is drawn, quotes, spaces, empty or bad cells and
    ragged rows."""
    odd = draw(st.booleans())
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    cell = st.one_of(st.integers(0, 12).map(str), st.sampled_from(["00", "01", "010"]))
    if odd:
        cell = st.one_of(cell, st.sampled_from(['"1"', " 0", "2 ", "", "x", "-1", "1.0", "+1",
                                                "-0", "1_0", "\x1c1", "\u0661", "\u0906"]))
    rows = draw(st.lists(st.lists(cell, min_size=1 if odd else 2, max_size=3 if odd else 2),
                         max_size=6))
    lines = [""] * draw(st.integers(0, 2)) + ["A,B"]
    for row in rows:
        lines += [""] * draw(st.integers(0, 1)) + [",".join(row)]
    return "".join(line + draw(ends) for line in lines[:-1]) + lines[-1] + draw(
        st.sampled_from(["", "\n", "\r\n"]))


def load_outcome(path, graph):
    try:
        d = load_dataset(path, graph)
    except (ParseError, DomainViolation) as exc:
        return type(exc), str(exc)
    return d.columns, d.cells.tolist()


@settings(max_examples=300, deadline=None)
@given(dataset_texts())
@example("A,B\r\n0,1\r\n2,10\r\n")  # CRLF
@example("\n\r\nA,B\n\n0,1\n\n")  # blank lines before and after the header
@example("A,B\n0,1\n2,3")  # no final newline
@example("A,B\n007,0010\n")  # leading zeros
@example("A,B\r0,1\r1,0\r")  # lone CRs
@example('A,B\n"0",1\n')  # a quoted cell
@example("A,B\n0, 1\n")  # a space before a cell
@example("A,B\n0,1\n1\n")  # a ragged row
@example("A,B\n0,1\n\n3,11\n")  # B=11 is out of domain on line 4
@example("A,B\n99999999999999999999,1\n")  # past int64
@example("A,B\n")  # the header alone
@example("A,B\r\n\r\n")  # the header and a blank line
@example("A,B\n\n\n")  # a body of blank lines only
def test_load_dataset_matches_the_record_reader(tmp_path_factory, text):
    # numpy's reader streams the body, and any failure there reads the file
    # again with csv records: both must give the same cells, or the same
    # error naming the same line
    g = CausalGraph([Variable("A", 13), Variable("B", 11)], [])
    p = tmp_path_factory.getbasetemp() / "d.csv"
    p.write_bytes(text.encode())
    loadtxt, read = np.loadtxt, []

    def spy(*args, **kwargs):
        read.append(loadtxt(*args, **kwargs))
        return read[-1]

    with mock.patch.object(np, "loadtxt", spy):
        got = load_outcome(p, g)
    with mock.patch.object(np, "loadtxt", mock.Mock(side_effect=ValueError("refused"))):
        want = load_outcome(p, g)
    assert got == want
    if set(text.split("A,B", 1)[1]) <= set("0123456789,\r\n") and got[0] == ("A", "B") and got[1]:
        assert read and read[0].tolist() == got[1]  # a plain file with rows takes numpy's reader


@pytest.mark.parametrize("cell, want", [
    ("+1", [[0, 1]]),
    (" 1", [[0, 1]]),
    ("1\t", [[0, 1]]),
    ("1.0", (ParseError, "d.csv:2: non-integer cell in ['0', '1.0']")),
    ("1e0", (ParseError, "d.csv:2: non-integer cell in ['0', '1e0']")),
    ("0x1", (ParseError, "d.csv:2: non-integer cell in ['0', '0x1']")),
    ("1_0", [[0, 10]]),  # int's digit grouping
    ("\uff11", [[0, 1]]),  # a full-width 1
    ("-0", [[0, 0]]),
    ("300", (DomainViolation, "d.csv:2: column 'B': value 300 out of domain")),  # past uint8
    ("\x1c1", [[0, 1]]),  # an ASCII separator numpy cuts as whitespace
    # numpy 2.4 reads this Devanagari letter as 214 under uint8
    ("\u0906", (ParseError, "d.csv:2: non-integer cell in ['0', '\u0906']")),
])
def test_load_dataset_reads_each_cell_as_the_record_reader(tmp_path, cell, want):
    g = CausalGraph([Variable("A", 2), Variable("B", 256)], [])  # uint8 cells
    p = tmp_path / "d.csv"
    p.write_text(f"A,B\n0,{cell}\n", encoding="utf-8")
    got = load_outcome(p, g)
    with mock.patch.object(np, "loadtxt", mock.Mock(side_effect=ValueError("refused"))):
        assert load_outcome(p, g) == got
    if isinstance(want, list):
        assert got == (("A", "B"), want)
    else:
        assert got == (want[0], f"{p.parent}/{want[1]}")


def test_load_dataset_peak_memory_is_a_few_times_the_cells(tmp_path):
    # the body streams into one-byte cells: no whole text, line list or
    # int64 matrix is held beside them
    rng = np.random.default_rng(0)
    g = CausalGraph([Variable(f"V{i}", 4) for i in range(99)], [])
    p = tmp_path / "d.csv"
    body = rng.integers(0, 4, size=(20_000, 99))
    with open(p, "w") as fh:
        fh.write(",".join(g.names) + "\n")
        np.savetxt(fh, body, fmt="%d", delimiter=",")
    del body
    tracemalloc.start()
    try:
        cells = load_dataset(p, g).cells
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cells.dtype == np.uint8 and cells.shape == (20_000, 99)
    assert peak <= 8 * cells.nbytes, f"peak {peak / cells.nbytes:.1f}x the cells"


def test_load_dataset_streams_a_file_with_a_byte_order_mark(tmp_path):
    # the mark is skipped on the fast handle, so the body still streams
    g = CausalGraph([Variable("A", 3), Variable("B", 300)], [])
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(b"A,B\r\n0,299\r\n2,0\r\n\r\n1,7\r\n")
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        got = load_dataset(bom, g)
    assert loadtxt.call_count == 1
    want = load_dataset(plain, g)
    assert got.columns == want.columns == ("A", "B")
    assert got.cells.dtype == want.cells.dtype == np.uint16
    assert got.cells.tolist() == want.cells.tolist() == [[0, 299], [2, 0], [1, 7]]


def test_dataset_range_check_holds_no_cell_sized_temporary():
    # a per-column max finds a bad column, so checking and copying cells
    # that are in range costs the copy alone
    cells = np.random.default_rng(0).integers(0, 4, size=(20_000, 99)).astype(np.uint8)
    columns = tuple(f"V{i}" for i in range(99))
    domains = dict.fromkeys(columns, 4)
    tracemalloc.start()
    try:
        data = Dataset(columns, cells, domains)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(data.cells, cells) and not np.shares_memory(data.cells, cells)
    assert peak <= 1.5 * cells.nbytes, f"peak {peak / cells.nbytes:.2f}x the cells"
    cells[12_345, 67] = 4
    with pytest.raises(DomainViolation) as exc:
        Dataset(columns, cells, domains)
    assert (exc.value.row, exc.value.column, exc.value.value) == (12_345, "V67", 4)
    assert str(exc.value) == "row 12345, column 'V67': value 4 out of domain"


def test_dataset_copies_a_callers_array_and_keeps_the_loaders_own(tmp_path):
    # the caller still holds its array, so the dataset takes a copy that a
    # later write to the array does not reach
    cells = np.array([[0, 2], [1, 0]], dtype=np.uint8)
    data = Dataset(("A", "B"), cells, {"A": 2, "B": 3})
    assert data.cells.dtype == cells.dtype and not np.shares_memory(data.cells, cells)
    assert cells.flags.writeable and not data.cells.flags.writeable
    cells[0, 0] = 1
    assert data.rows == ((0, 2), (1, 0))
    # the matrix `load_dataset` reads has no other holder: it is kept, not copied
    graph = CausalGraph([Variable("A", 2), Variable("B", 3)], [])
    path = tmp_path / "d.csv"
    path.write_text("A,B\n0,2\n1,0\n", encoding="utf-8")
    read, loadtxt = [], np.loadtxt

    def keep(*args, **kwargs):
        read.append(loadtxt(*args, **kwargs))
        return read[-1]

    with mock.patch.object(np, "loadtxt", keep):
        loaded = load_dataset(path, graph)
    assert len(read) == 1 and np.shares_memory(loaded.cells, read[0])
    assert not loaded.cells.flags.writeable
    assert loaded.rows == ((0, 2), (1, 0))


def test_empirical_prob_marginal():
    d = Dataset(("A",), [(0,), (0,), (1,), (0,)], {"A": 2})
    f = bind(d, ("A",))
    assert f.dense_eval({"A": 0}) == 0.75
    assert f.dense_eval({"A": 1}) == 0.25
    assert math.isclose(math.fsum(f.values), 1.0)


def test_empirical_prob_conditional_rows_normalize():
    rows = [(0, 0), (0, 1), (0, 1), (1, 1)]
    d = Dataset(("A", "B"), rows, {"A": 2, "B": 2})
    f = bind(d, ("B",), ("A",))
    assert f.dense_eval({"A": 0, "B": 1}) == pytest.approx(2 / 3)
    assert f.dense_eval({"A": 1, "B": 1}) == 1.0
    # unseen configuration is absent, i.e. zero
    assert f.dense_eval({"A": 1, "B": 0}) == 0.0


def test_empirical_prob_tightness_bounded_by_rows():
    rows = [(i % 2, (i // 2) % 2, i % 3) for i in range(7)]
    d = Dataset(("A", "B", "C"), rows, {"A": 2, "B": 2, "C": 3})
    f = bind(d, ("A", "C"), ("B",))
    assert f.tightness <= d.n_rows


@pytest.mark.parametrize("left, right", [(("A",), ("A",)), (("A",), ("A'",)),
                                         (("A", "A'"), ())])
def test_empirical_prob_reads_each_column_once(left, right):
    d = Dataset(("A",), [(0,), (1,)], {"A": 2})
    with pytest.raises(ValueError, match="reads a column more than once"):
        bind(d, left, right)


def test_empirical_prob_empty_dataset():
    d = Dataset(("A",), [], {"A": 2})
    with pytest.raises(EmptyDataset):
        bind(d, ("A",))


# -- binding against a dict reference --------------------------------------

COLUMNS = ("A", "B", "C", "D")


@st.composite
def datasets(draw):
    """Up to 12 rows over COLUMNS in a drawn order; a domain of 10**6 makes
    `Dataset.group` sort instead of relabelling through a boolean array."""
    columns = draw(st.permutations(COLUMNS))
    domains = {c: draw(st.sampled_from([1, 2, 3, 10**6])) for c in columns}
    row = st.tuples(*(st.integers(0, min(domains[c], 3) - 1) | st.just(domains[c] - 1)
                      for c in columns))
    n = draw(st.integers(1, 12))
    rows = [draw(row)] * n if draw(st.booleans()) else draw(st.lists(row, min_size=n, max_size=n))
    return Dataset(columns, rows, domains)


@st.composite
def terms(draw):
    """(left, right) over distinct columns, some read under primed names."""
    bases = draw(st.permutations(COLUMNS))[:draw(st.integers(1, len(COLUMNS)))]
    names = tuple(b + "'" * draw(st.integers(0, 2)) for b in bases)
    cut = draw(st.integers(1, len(names)))
    return names[:cut], names[cut:]


def ref_prob(data, left, right):
    """(names, {assignment: count / conditioning count}) from the rows."""
    names = sorted(left + right, key=name_key)
    where = [data.columns.index(base_name(n)) for n in names]
    joint = Counter(tuple(row[i] for i in where) for row in data.rows)
    on_right = [n in right for n in names]
    cond = Counter(tuple(x for x, r in zip(key, on_right) if r) for key in joint.elements())
    return tuple(names), {key: count / cond[tuple(x for x, r in zip(key, on_right) if r)]
                          for key, count in joint.items()}


@settings(max_examples=150, deadline=None)
@given(datasets(), st.lists(terms(), min_size=1, max_size=6))
def test_binding_matches_dict_reference(data, seq):
    # forward then reversed: later binds hit groups cached by earlier ones, and
    # every term is bound twice against the same dataset
    for left, right in seq + seq[::-1]:
        f = bind(data, left, right)
        names, entries = ref_prob(data, left, right)
        assert f.names == names
        assert [v.domain_size for v in f.scope] == [data.domains[base_name(n)] for n in names]
        assert f.codes.dtype == data.cells.dtype == code_dtype(max(data.domains.values()) - 1)
        assert [k for k, _ in f.items()] == sorted(entries)
        assert all(value == entries[key] for key, value in f.items())  # exact

        columns = tuple(base_name(n) for n in names)
        g = data.group(columns)
        cells = [tuple(row[data.columns.index(c)] for c in columns) for row in data.rows]
        rank = {key: i for i, key in enumerate(sorted(set(cells)))}
        assert (g.ids.tolist(), g.count) == ([rank[key] for key in cells], len(rank))
        # the record's `first` and `sizes`, and those of a grouping of every
        # other row, as `restrict` leaves a table: a group no row holds has
        # first -1 and size 0
        for record, step in ((g, 1), (Grouping(g.ids[::2], g.count), 2)):
            held = Counter(cells[::step])
            assert record.sizes.tolist() == [held[key] for key in rank]
            assert [cells[::step][i] if i >= 0 else None for i in record.first.tolist()] == \
                [key if held[key] else None for key in rank]


def assert_groups_like_unique(data, columns):
    """`data.group(columns)` numbers the rows as `np.unique` over their cells
    does, and keeps its ids read-only in the narrowest unsigned dtype that
    holds them."""
    g = data.group(columns)
    ids, count = g.ids, g.count
    assert not ids.flags.writeable
    cells = data.cells[:, [data.columns.index(c) for c in columns]]
    unique, inverse = np.unique(cells, axis=0, return_inverse=True)
    assert count == len(unique)
    assert np.array_equal(ids, inverse.reshape(-1))
    want = np.uint8 if count <= 1 << 8 else np.uint16 if count <= 1 << 16 else np.uint32
    assert ids.dtype == want, columns


def test_group_ids_are_narrow_and_exact_across_dtype_limits():
    # 70,000 rows: A alone has 300 groups (past 2**8), and A,B has 70,000
    # (past 2**16), built from A's cached uint16 ids, which must be widened
    # before `ids * k`; D's domain of 10**6 takes the sorting path. C,A,B
    # adds A and B to C's ids in one relabelled key, and B,C,D adds three
    # columns to no prefix in one sorted key
    i = np.arange(70_000)
    rows = np.column_stack([i % 300, (i // 300) % 300, i % 7, (i * 13) % 10**6])
    data = Dataset(("A", "B", "C", "D"), rows, {"A": 300, "B": 300, "C": 7, "D": 10**6})
    for columns in [("C",), ("A",), ("A", "B"), ("A", "B", "C"), ("D",), ("C", "D"),
                    ("A", "C"), ("C", "A", "B"), ("B", "C", "D")]:
        assert_groups_like_unique(data, columns)
    f = bind(data, ("B", "C"), ("A",))
    names, entries = ref_prob(data, ("B", "C"), ("A",))
    assert f.names == names
    assert dict(f.items()) == entries


def test_group_of_no_columns_is_one_group():
    d = Dataset(("A",), [(1,), (0,), (1,)], {"A": 2})
    g = d.group(())
    assert (g.ids.tolist(), g.count) == ([0, 0, 0], 1)


@pytest.mark.parametrize("domain, rows, relabelled", [
    pytest.param(2, 1000, True, id="2-True"),
    pytest.param(50, 1000, False, id="50-False"),
    pytest.param(10, 1250, True, id="10-at-the-bound"),
    pytest.param(10, 1249, False, id="10-past-the-bound"),
])
def test_group_extends_a_prefix_by_several_columns_in_one_key(domain, rows, relabelled):
    """A miss after A adds B, C and D in one key of `domain`**4 slots (A
    shows every value). Over n rows, up to `8 * n` slots are relabelled by
    one `cumsum` and more are sorted by one `np.unique`: 16 slots of 1,000
    rows and 10,000 of 1,250 (10,000 at most) are relabelled, while 10,000
    slots of 1,249 rows (9,992 at most) and 50**4 of 1,000 are sorted."""
    rng = np.random.default_rng(0)
    domains = {"A": domain, "B": domain, "C": domain, "D": domain}
    data = Dataset(tuple(domains), rng.integers(0, domain, (rows, 4)), domains)
    assert data.group(("A",)).count == domain
    assert_groups_like_unique(data, ("A",))
    with mock.patch("numpy.cumsum", wraps=np.cumsum) as cumsum, \
            mock.patch("numpy.unique", wraps=np.unique) as unique, \
            calls_into(factor) as called:
        data.group(("A", "B", "C", "D"))
    assert called == []
    if relabelled:
        assert (cumsum.call_count, unique.call_count) == (1, 0)
    else:
        assert unique.call_count == 1
    assert_groups_like_unique(data, ("A", "B", "C", "D"))


@contextlib.contextmanager
def calls_into(module):
    """The names of the functions of `module` called inside the block."""
    called = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == module.__file__:
            called.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        yield called
    finally:
        sys.setprofile(None)


@pytest.mark.parametrize("prefix_groups", [2, 3])
def test_group_past_63_bits_keys_the_column_by_its_dense_ids(prefix_groups):
    """B's domain of 2**62 behind A's 2 groups is a key of exactly 2**63
    values, one int64; behind 3 groups B alone passes 63 bits, and the
    dense ids of its codes stand in for them: the one `np.unique` reads its
    codes, and a relabel of 12 slots follows. Either way the rows group as
    `np.unique` over their cells does, and nothing in `factor` is called."""
    domains = {"A": prefix_groups, "B": 2**62}
    rows = [(a, b) for a in range(prefix_groups) for b in (2**62 - 1, 0, 5, 2**61)] * 2
    data = Dataset(("A", "B"), rows, domains)
    assert_groups_like_unique(data, ("A",))
    with mock.patch("numpy.unique", wraps=np.unique) as unique, calls_into(factor) as called:
        data.group(("A", "B"))
    assert called == []
    assert unique.call_count == 1
    assert np.array_equal(unique.call_args.args[0], data.cells[:, 1]) == (prefix_groups == 3)
    assert_groups_like_unique(data, ("A", "B"))


def test_group_behind_a_prefix_that_splits_every_row_is_the_prefix():
    """Once a prefix puts every row in a group of its own, later columns
    split nothing: the longer tuple keeps the prefix's ids without a key,
    also when the prefix is met inside one miss."""
    rng = np.random.default_rng(0)
    domains = {"A": 1000, "B": 4, "C": 2**40, "D": 2**30}
    rows = np.column_stack([rng.permutation(1000), rng.integers(0, 4, (1000, 1)),
                            rng.integers(0, 2**40, (1000, 1)), rng.integers(0, 2**30, (1000, 1))])
    data = Dataset(tuple(domains), rows, domains)
    ids = data.group(("A",)).ids
    with mock.patch("numpy.cumsum", wraps=np.cumsum) as cumsum, \
            mock.patch("numpy.unique", wraps=np.unique) as unique:
        assert data.group(("A", "B", "C", "D")).ids is ids
    assert (cumsum.call_count, unique.call_count) == (0, 0)
    assert_groups_like_unique(data, ("A", "B", "C", "D"))
    # the key fills up before D, and before C: B,C and D,B,A split every row
    assert_groups_like_unique(data, ("B", "C", "D", "A"))
    assert_groups_like_unique(data, ("D", "B", "A", "C"))


def test_group_slices_a_prefix_only_where_a_cached_tuple_ends_alike():
    """The longest cached prefix is found in one walk back from the end: a
    length is sliced and looked up only where some cached tuple of that
    length ends in the same column. Each tuple asked adds one record."""
    columns = tuple(f"V{i}" for i in range(97))
    rng = np.random.default_rng(0)
    data = Dataset(columns + ("X",), rng.integers(0, 2, (300, 98)),
                   dict.fromkeys(columns + ("X",), 2))
    for i in range(1, 98):  # every prefix, as chain99's terms leave them
        data.group(columns[:i])
    data.group(("X", "V5"))
    probes = []

    class Probed(dict):
        def __contains__(self, key):
            probes.append(key)
            return super().__contains__(key)

    data._groups = Probed(data._groups)
    asked = [columns[1:], ("V4", "V5", "V6"), columns[:11] + ("X",)]
    for tuple_ in asked:
        assert_groups_like_unique(data, tuple_)
    assert probes == [("V4", "V5"), columns[:11]]
    assert len(data._groups) == 1 + 97 + 1 + len(asked)


def test_group_of_columns_of_domain_one():
    """Columns of domain 1 add no digit to the key: 70 of them are grouped
    in one step, with one relabel."""
    columns = tuple(f"V{i}" for i in range(70))
    data = Dataset(columns, [(0,) * 70] * 3, {c: 1 for c in columns})
    with mock.patch("numpy.cumsum", wraps=np.cumsum) as cumsum, \
            mock.patch("numpy.unique", wraps=np.unique) as unique:
        data.group(columns)
    assert (cumsum.call_count, unique.call_count) == (1, 0)
    assert_groups_like_unique(data, columns)


def test_chain99_terms_share_one_grouping_per_id_array(fixture_path):
    """In a chain99 `pi_hte` at 200 rows, column tuples whose rows group
    alike share one `Grouping`, and each record builds its `first` and
    `sizes` at most once, where each of the 99 terms ran its own scatter
    and two counts."""
    graph = load_graph(fixture_path("chain99.graph"))
    data = sample_dataset(random_cbn(graph, dist="dirichlet", alpha=1.0, seed=3), 200, seed=4)
    with open(fixture_path("chain99.estimand"), encoding="utf-8") as fh:
        hier = flatten(parse(fh.read()))
    built = []

    def profile(frame, event, arg):
        # a read that finds the record's slot empty builds the field
        code = frame.f_code
        if event == "call" and code.co_filename == model.__file__ and \
                code.co_name in ("first", "sizes") and \
                getattr(frame.f_locals["self"], "_" + code.co_name) is None:
            built.append((code.co_name, frame.f_locals["self"]))  # kept alive: ids stay unique

    sys.setprofile(profile)
    try:
        pi_hte(hier, data)
    finally:
        sys.setprofile(None)
    records = list(data._groups.values())
    by_ids = {id(g.ids): g for g in records}
    assert all(by_ids[id(g.ids)] is g for g in records)
    assert len(by_ids) < len(records)
    assert len({(name, id(g)) for name, g in built}) == len(built)
    assert sum(name == "first" and id(g.ids) in by_ids for name, g in built) < 99
