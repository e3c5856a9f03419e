import math

import pytest

from pihte.errors import (
    CycleError,
    DomainViolation,
    EmptyDataset,
    ParseError,
    UnknownVariable,
)
from pihte.model import (
    CausalGraph,
    Dataset,
    Variable,
    base_name,
    empirical_prob,
    load_dataset,
    load_graph,
    name_key,
)


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
])
def test_dataset_names_first_bad_row_and_column(rows, row, column, value):
    with pytest.raises(DomainViolation) as exc:
        Dataset(("A", "B"), rows, {"A": 2, "B": 2})
    assert (exc.value.row, exc.value.column, exc.value.value) == (row, column, value)


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


def test_dataset_cells_are_one_int64_matrix():
    d = Dataset(("A", "B"), [(0, 1), (1, 1)], {"A": 2, "B": 2})
    assert d.cells.dtype == "int64" and d.cells.shape == (2, 2)
    assert d.rows == ((0, 1), (1, 1))
    assert all(type(c) is int for row in d.rows for c in row)


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
])
def test_load_dataset_cells(tmp_path, text, rows):
    g = CausalGraph([Variable("A", 2), Variable("B", 2)], [])
    p = tmp_path / "d.csv"
    p.write_text(text)
    assert load_dataset(p, g).rows == rows


@pytest.mark.parametrize("text, error, message", [
    ("A,B\n0,1\n\n1,x\n", ParseError, r"d\.csv:4: non-integer cell in \['1', 'x'\]"),
    ("A,B\n0,1\n \n", ParseError, r"d\.csv:3: non-integer cell in \[' '\]"),
    ("A,B\n# note\n0,1\n", ParseError, r"d\.csv:2: non-integer cell"),
    ("A,B\n0,1\n1\n", ParseError, r"d\.csv:3: 1 cells, expected 2"),
    ("A,B\n0,1\n1\n1,x\n", ParseError, r"d\.csv:4: non-integer cell"),
    ("A,B\n0,1\n1,2\n", DomainViolation, r"d\.csv:3: column 'B': value 2 out of domain"),
    ('A,B\n"0\n",1\n1,2\n', DomainViolation, r"d\.csv:4: column 'B'"),  # a cell over two lines
])
def test_load_dataset_names_the_first_bad_line(tmp_path, text, error, message):
    g = CausalGraph([Variable("A", 2), Variable("B", 2)], [])
    p = tmp_path / "d.csv"
    p.write_text(text)
    with pytest.raises(error, match=message):
        load_dataset(p, g)


def test_empirical_prob_marginal():
    d = Dataset(("A",), [(0,), (0,), (1,), (0,)], {"A": 2})
    f = empirical_prob(d, ("A",))
    assert f.dense_eval({"A": 0}) == 0.75
    assert f.dense_eval({"A": 1}) == 0.25
    assert math.isclose(f.total(), 1.0)


def test_empirical_prob_conditional_rows_normalize():
    rows = [(0, 0), (0, 1), (0, 1), (1, 1)]
    d = Dataset(("A", "B"), rows, {"A": 2, "B": 2})
    f = empirical_prob(d, ("B",), ("A",))
    assert f.dense_eval({"A": 0, "B": 1}) == pytest.approx(2 / 3)
    assert f.dense_eval({"A": 1, "B": 1}) == 1.0
    # unseen configuration is absent, i.e. zero
    assert f.dense_eval({"A": 1, "B": 0}) == 0.0


def test_empirical_prob_tightness_bounded_by_rows():
    rows = [(i % 2, (i // 2) % 2, i % 3) for i in range(7)]
    d = Dataset(("A", "B", "C"), rows, {"A": 2, "B": 2, "C": 3})
    f = empirical_prob(d, ("A", "C"), ("B",))
    assert f.tightness <= d.n_rows


@pytest.mark.parametrize("left, right", [(("A",), ("A",)), (("A",), ("A'",)),
                                         (("A", "A'"), ())])
def test_empirical_prob_reads_each_column_once(left, right):
    d = Dataset(("A",), [(0,), (1,)], {"A": 2})
    with pytest.raises(ValueError, match="reads a column more than once"):
        empirical_prob(d, left, right)


def test_empirical_prob_empty_dataset():
    d = Dataset(("A",), [], {"A": 2})
    with pytest.raises(EmptyDataset):
        empirical_prob(d, ("A",))
