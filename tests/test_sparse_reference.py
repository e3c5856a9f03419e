"""The engine against a sparse reference on estimands that brute force cannot
enumerate (chain99 sums 97 variables of domain 4, the cone 16).

The reference evaluates the unflattened AST in text order with Python dicts:
a hash join per product and a dict sum per `Sum`, with every term bound by
`empirical_prob`. It uses no flattening, decomposition, schedule or array
kernel, and it follows `dense_expr_eval`'s ratio rules: 0/0 is 0, a nonzero
numerator over a zero denominator raises DivisionByZero, and a zero child of
a product beats a division error in another.
"""

import math

import pytest

from conftest import bind
from pihte.decomposition import load_decomposition
from pihte.engine import brute_force_eval, pi_hte
from pihte.errors import DivisionByZero
from pihte.estimand import ProbTerm, Product, Ratio, Sum, flatten, parse
from pihte.model import Dataset, load_graph, name_key
from pihte.simulate import random_cbn, sample_dataset

# the most entries any table of the reference may hold; a cross product in
# text order stops here instead of growing without bound
CAP = 200_000
# where a ratio divides a nonzero numerator by zero: an error unless a zero
# factor of an enclosing product masks it
POISON = None


class ReferenceTooLarge(Exception):
    """A table of the reference passed CAP entries."""


def _capped(names, rows):
    if len(rows) > CAP:
        raise ReferenceTooLarge(f"a table over {names} passed {CAP} entries")
    return names, rows


def _join(a, b):
    """The hash join of two tables: (names in name order, {key: value})."""
    (a_names, a_rows), (b_names, b_rows) = a, b
    shared = [n for n in b_names if n in a_names]
    names = tuple(sorted(set(a_names) | set(b_names), key=name_key))
    index = {}
    for key, value in b_rows.items():
        row = dict(zip(b_names, key))
        index.setdefault(tuple(row[n] for n in shared), []).append((row, value))
    out = {}
    for key, x in a_rows.items():
        row = dict(zip(a_names, key))
        for other, y in index.get(tuple(row[n] for n in shared), ()):
            full = {**row, **other}
            out[tuple(full[n] for n in names)] = POISON if POISON in (x, y) else x * y
        _capped(names, out)
    return names, out


def _extend(names, rows, extra, domains):
    """Each entry of a table over `names` at every assignment of the
    variables `extra`, keyed over `names` and `extra` together in name order."""
    out_names = tuple(sorted(set(names) | set(extra), key=name_key))
    extra = sorted(extra, key=name_key)
    grid = [()]
    for n in extra:
        grid = [g + (v,) for g in grid for v in range(domains[n])]
    out = {}
    for key, value in rows.items():
        for values in grid:
            row = {**dict(zip(names, key)), **dict(zip(extra, values))}
            out[tuple(row[n] for n in out_names)] = value
    return _capped(out_names, out)


def reference_eval(expr, data):
    """The table of `expr` over its free variables: (names, {key: value}),
    holding every nonzero value and every POISON."""
    if isinstance(expr, ProbTerm):
        f = bind(data, expr.left, expr.right)
        return f.names, dict(f.items())
    if isinstance(expr, Product):
        table = ((), {(): 1.0})
        for child in expr.children:
            table = _join(table, reference_eval(child, data))
        return table
    if isinstance(expr, Sum):
        names, rows = reference_eval(expr.child, data)
        keep = [i for i, n in enumerate(names) if n not in expr.bound]
        groups = {}
        for key, value in rows.items():
            groups.setdefault(tuple(key[i] for i in keep), []).append(value)
        out = {}
        for key, values in groups.items():
            total = POISON if POISON in values else math.fsum(values)
            if total != 0.0:
                out[key] = total
        return tuple(names[i] for i in keep), out
    if isinstance(expr, Ratio):
        num_names, num = reference_eval(expr.numerator, data)
        den_names, den = reference_eval(expr.denominator, data)
        # the assignments where the quotient is not 0/0: the numerator's
        # entries and the denominator's errors, over both scopes
        names, cells = _extend(num_names, num, set(den_names) - set(num_names), data.domains)
        errors = {k: v for k, v in den.items() if v is POISON}
        cells.update(_extend(den_names, errors, set(num_names) - set(den_names), data.domains)[1])
        out = {}
        for key in cells:
            row = dict(zip(names, key))
            x = num.get(tuple(row[n] for n in num_names), 0.0)
            y = den.get(tuple(row[n] for n in den_names), 0.0)
            if POISON in (x, y) or (y == 0.0 and x != 0.0):
                out[key] = POISON
            elif x != 0.0:
                out[key] = x / y
        return _capped(names, out)
    raise TypeError(type(expr))


def reference(text, data, do=None):
    """The reference result of an estimand text, sliced to `do`; raises
    DivisionByZero where the slice holds an error."""
    names, rows = reference_eval(parse(text), data)
    do = do or {}
    rows = {k: v for k, v in rows.items()
            if all(k[names.index(n)] == value for n, value in do.items())}
    if POISON in rows.values():
        raise DivisionByZero(f"a nonzero numerator over a zero denominator in {text[:40]!r}")
    return names, rows


def assert_agrees(got, want):
    """The engine's result holds the reference's entries, each value within
    1e-9 relative."""
    names, rows = want
    assert got.names == names
    mine = dict(got.items())
    assert mine.keys() == rows.keys()
    for key, value in rows.items():
        assert math.isclose(mine[key], value, rel_tol=1e-9, abs_tol=0.0), key


def fixture_case(fixture_path, name, rows, alpha):
    graph = load_graph(fixture_path(f"{name}.graph"))
    # the data of `pihte simulate --dist dirichlet --alpha ALPHA --seed 3`
    data = sample_dataset(random_cbn(graph, dist="dirichlet", alpha=alpha, seed=3), rows, seed=4)
    with open(fixture_path(f"{name}.estimand"), encoding="utf-8") as fh:
        return fh.read(), data


def test_chain99_matches_the_sparse_reference(fixture_path):
    text, data = fixture_case(fixture_path, "chain99", 800, alpha=1.0)
    assert_agrees(pi_hte(flatten(parse(text)), data).result, reference(text, data))


@pytest.mark.parametrize("supplied", [True, False])
def test_cone_matches_the_sparse_reference(fixture_path, supplied):
    text, data = fixture_case(fixture_path, "cone_cloud", 800, alpha=10.0)
    hier = flatten(parse(text))
    tds = {hier.root: load_decomposition(fixture_path("cone_cloud.td"))} if supplied else None
    assert_agrees(pi_hte(hier, data, decompositions=tds).result, reference(text, data))


@pytest.mark.parametrize("do", [None, {"X": 1}])
def test_napkin_matches_the_sparse_reference(fixture_path, do):
    text, data = fixture_case(fixture_path, "napkin", 800, alpha=1.0)
    got = pi_hte(flatten(parse(text)), data, do=do).result
    assert_agrees(got, reference(text, data, do))


def test_reference_follows_the_dense_ratio_rules():
    """0/0 is 0, a nonzero numerator over a zero denominator raises, and a
    zero factor of a product masks that error."""
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 0)], {"A": 2, "B": 2})
    # P(B=1 | A=1) is 0: at A=1, B=1 the quotient is 0/0
    names, rows = reference("P(A,B) / P(B|A)", data)
    assert names == ("A", "B") and (1, 1) not in rows
    assert rows[(0, 0)] == pytest.approx((1 / 3) / (1 / 2))
    # P(A=1, B=1) is 0 under P(A) / P(A,B) at A=1: 1/3 over 0
    with pytest.raises(DivisionByZero):
        reference("P(A) / P(A,B)", data)
    # the same error under a product with P(B|A), zero at A=1, B=1, is masked
    names, rows = reference("P(B|A) (P(A) / P(A,B))", data)
    assert (1, 1) not in rows and len(rows) == 3
    for text in ("P(A,B) / P(B|A)", "P(B|A) (P(A) / P(A,B))"):
        assert reference(text, data)[1] == dict(brute_force_eval(parse(text), data).items())
