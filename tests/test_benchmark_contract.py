"""The program surface the benchmark in perfbench/ relies on.

perfbench/ wraps pihte functions by name, calls `engine.pi_hte` with two
positional arguments, and reads a few names outside the functions it wraps;
a refactor that renames or deletes any of them would break the benchmark
silently. perfbench/tracing.py is read as source, not imported.
"""

import ast
import importlib
import os

from conftest import bind
from pihte.engine import pi_hte
from pihte.estimand import flatten, parse
from pihte.factor import marginalize, product
from pihte.model import Dataset

TRACING = os.path.join(os.path.dirname(__file__), "..", "perfbench", "tracing.py")


def traced_functions():
    with open(TRACING, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(e.elts[0].value, e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/tracing.py defines no TRACED")


def test_every_traced_function_resolves():
    traced = traced_functions()
    assert traced
    for module, function in traced:
        assert callable(getattr(importlib.import_module(f"pihte.{module}"), function)), \
            f"pihte.{module}.{function}"


def test_pi_hte_takes_hierarchy_and_data_positionally():
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 1)], {"A": 2, "B": 2})
    report = pi_hte(flatten(parse("sum[A](P(A) P(B|A))")), data)
    assert report.result.names == ("B",)
    assert report.max_table_entries >= 1


def test_names_read_outside_the_traced_functions():
    # workloads.py writes `Dataset.rows` and checks peaks by `Dataset.project`;
    # tracing.py counts `underflow_dropped` on products and marginals
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 1)], {"A": 2, "B": 2})
    assert data.rows == ((0, 0), (0, 1), (1, 1))
    assert data.project(("B", "A")) == [(0, 0), (1, 0), (1, 1)]
    joint = product(bind(data, ("A",)), bind(data, ("B",), ("A",)))
    assert joint.underflow_dropped == 0
    assert marginalize(joint, ["A"]).underflow_dropped == 0
