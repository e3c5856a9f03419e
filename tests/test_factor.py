import json
import math

import numpy as np
import pytest
from hypothesis import example, given, note, settings, strategies as st

from conftest import bind, factors_close
from pihte import engine, factor
from pihte.errors import IncompleteAssignment, ScopeConflict, UnknownVariable
from pihte.estimand import flatten, parse
from pihte.factor import (
    SparseFactor,
    invert,
    join_size,
    keys,
    marginalize,
    matches,
    product,
    unit_factor,
    with_values,
)
from pihte.model import Dataset, Variable, code_dtype, load_graph, name_key
from pihte.simulate import random_cbn, sample_dataset


def make(scope_spec, entries):
    scope = tuple(Variable(n, k) for n, k in scope_spec)
    return SparseFactor(scope, entries)


# -- strategies ------------------------------------------------------------

names = ["A", "B", "C", "D"]


@st.composite
def factors(draw, pool=None):
    pool = pool or names
    n = draw(st.integers(0, 3))
    chosen = draw(st.permutations(pool))[:n]
    scope = [(v, draw(st.integers(2, 3))) for v in sorted(chosen)]
    sizes = [k for _, k in scope]
    keys = list(_all_keys(sizes))
    subset = draw(st.sets(st.sampled_from(keys), min_size=0, max_size=len(keys))) if keys else set()
    vals = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
    entries = {k: draw(vals) for k in sorted(subset)}
    if not scope:
        entries = {(): draw(vals)} if draw(st.booleans()) else {}
    return make(scope, entries)


def _all_keys(sizes):
    if not sizes:
        yield ()
        return
    for head in range(sizes[0]):
        for rest in _all_keys(sizes[1:]):
            yield (head,) + rest


def joint_factors():
    """Pairs of factors whose shared variables agree on domain sizes. Each
    name is kept or left out on its own, so the columns two factors share,
    or a marginal keeps, come both as a run (A,B) and scattered (A,C)."""
    domains = {"A": 2, "B": 3, "C": 2, "D": 2}

    @st.composite
    def pair(draw):
        def one():
            chosen = [v for v in names if draw(st.booleans())]
            scope = [(v, domains[v]) for v in chosen]
            sizes = [k for _, k in scope]
            keys = list(_all_keys(sizes))
            subset = draw(st.sets(st.sampled_from(keys), max_size=len(keys))) if keys else {()}
            vals = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
            return make(scope, {k: draw(vals) for k in sorted(subset)})

        return one(), one()

    return pair()


@st.composite
def contained_pairs(draw):
    """A wider and a narrower factor, the narrower scope a subset of the
    wider (either may be empty, as may either table)."""
    domains = {"A": 2, "B": 3, "C": 2, "D": 2}
    wide = [v for v in names if draw(st.booleans())]
    narrow = [v for v in wide if draw(st.booleans())]

    def table(chosen):
        keys = list(_all_keys([domains[v] for v in chosen]))
        subset = draw(st.sets(st.sampled_from(keys), max_size=len(keys)))
        vals = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
        return SparseFactor(tuple(Variable(v, domains[v]) for v in chosen),
                            {k: draw(vals) for k in sorted(subset)})

    return table(wide), table(narrow)


# -- construction ----------------------------------------------------------


def test_scope_is_canonicalized():
    f = SparseFactor((Variable("B", 2), Variable("A", 2)), {(0, 1): 0.5})
    assert f.names == ("A", "B")
    assert f.dense_eval({"A": 1, "B": 0}) == 0.5


def test_zero_entry_rejected():
    with pytest.raises(ValueError):
        make([("A", 2)], {(0,): 0.0})


def test_out_of_domain_rejected():
    with pytest.raises(ValueError):
        make([("A", 2)], {(2,): 0.5})


def test_duplicate_scope_name_rejected():
    with pytest.raises(ScopeConflict):
        SparseFactor((Variable("A", 2), Variable("A", 2)), {})


def test_dense_eval_requires_full_assignment():
    f = make([("A", 2), ("B", 2)], {(0, 0): 1.0})
    with pytest.raises(IncompleteAssignment):
        f.dense_eval({"A": 0})


def test_tightness():
    f = make([("A", 2), ("B", 3)], {(0, 0): 0.5, (1, 2): 0.5})
    assert f.tightness == 2


# -- algebra ---------------------------------------------------------------


def test_product_hand_example():
    f = make([("A", 2)], {(0,): 0.25, (1,): 0.75})
    g = make([("A", 2), ("B", 2)], {(0, 0): 1.0, (1, 1): 0.5})
    h = product(f, g)
    assert h.names == ("A", "B")
    assert h.dense_eval({"A": 0, "B": 0}) == 0.25
    assert h.dense_eval({"A": 1, "B": 1}) == 0.375
    assert h.dense_eval({"A": 0, "B": 1}) == 0.0


def test_product_domain_conflict():
    f = make([("A", 2)], {(0,): 1.0})
    g = make([("A", 3)], {(0,): 1.0})
    with pytest.raises(ScopeConflict):
        product(f, g)


def test_every_join_checks_shared_domains():
    """`matches` aligns the scopes for every join, so each caller sees a
    shared name's two domains, in either order and when each operand has a
    column of its own."""
    f = make([("A", 2), ("B", 2)], {(0, 0): 1.0})
    g = make([("A", 3), ("C", 2)], {(0, 1): 1.0})
    for x, y in ((f, g), (g, f)):
        for join in (matches, join_size, product):
            with pytest.raises(ScopeConflict, match="'A': domain"):
                join(x, y)


def test_marginalize_hand_example():
    f = make([("A", 2), ("B", 2)], {(0, 0): 0.1, (0, 1): 0.2, (1, 1): 0.3})
    m = marginalize(f, {"B"})
    assert m.names == ("A",)
    assert m.dense_eval({"A": 0}) == pytest.approx(0.3)
    assert m.dense_eval({"A": 1}) == pytest.approx(0.3)


def test_marginalize_unknown_var():
    f = make([("A", 2)], {(0,): 1.0})
    with pytest.raises(UnknownVariable):
        marginalize(f, {"Z"})


def test_invert_roundtrip():
    f = make([("A", 2)], {(0,): 0.25, (1,): 0.5})
    back = invert(invert(f))
    assert factors_close(back, f, rel=1e-12)


def test_restrict():
    f = make([("A", 2), ("B", 2)], {(0, 0): 0.1, (1, 0): 0.2, (1, 1): 0.3})
    r = f.restrict({"A": 1})
    assert r.names == ("A", "B")
    assert r.tightness == 2
    assert r.dense_eval({"A": 0, "B": 0}) == 0.0


# -- property tests --------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(joint_factors())
def test_product_commutative(pair):
    f, g = pair
    assert factors_close(product(f, g), product(g, f), rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(joint_factors(), st.sampled_from(names))
def test_product_then_marginalize_matches_dense(pair, var):
    """Sparse semantics agree with dense enumeration on small scopes."""
    f, g = pair
    h = product(f, g)
    domains = {v.name: v.domain_size for v in h.scope}
    for key in _all_keys([domains[n] for n in h.names]):
        a = dict(zip(h.names, key))
        assert h.dense_eval(a) == pytest.approx(f_eval(f, a) * f_eval(g, a), rel=1e-12)


_AB = make([("A", 2), ("B", 3)], {(0, 0): 0.5, (0, 2): 0.25, (1, 2): 2.0})


@settings(max_examples=60, deadline=None)
@given(joint_factors())
@example((make([("A", 2)], {(0,): 1.0, (1,): 3.0}), make([("C", 2)], {(1,): 0.5})))  # disjoint
@example((_AB, make([("B", 3)], {(2,): 4.0, (1,): 1.0})))  # one scope inside the other
@example((make([("B", 3)], {}), _AB))  # an empty table
@example((unit_factor(), _AB))  # the empty-scope unit
@example((make([], {}), _AB))  # the empty scope with no entry
def test_join_size_counts_the_product(pair):
    f, g = pair
    assert join_size(f, g) == join_size(g, f) == product(f, g).tightness


def f_eval(f, assignment):
    return f.dense_eval({n: assignment[n] for n in f.names})


@settings(max_examples=60, deadline=None)
@given(factors())
def test_marginalize_order_independent(f):
    if len(f.scope) < 2:
        return
    a, b = f.names[0], f.names[1]
    one = marginalize(marginalize(f, {a}), {b})
    other = marginalize(marginalize(f, {b}), {a})
    both = marginalize(f, {a, b})
    assert factors_close(one, both, rel=1e-12)
    assert factors_close(other, both, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(factors())
def test_unit_is_identity(f):
    assert factors_close(product(f, unit_factor()), f, rel=1e-15)
    assert factors_close(product(unit_factor(), f), f, rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(factors())
def test_total_preserved_by_marginalization(f):
    if not f.scope:
        return
    m = marginalize(f, {f.names[0]})
    assert math.isclose(math.fsum(m.values), math.fsum(f.values), rel_tol=1e-12, abs_tol=1e-300)


# -- the columnar backend against a dict reference -------------------------
#
# Each reference works on (names, {assignment tuple: value}) exactly as the
# algebra is defined; results must match entry for entry, in canonical order.


def ref_product(f, g):
    names = tuple(sorted(set(f.names) | set(g.names), key=name_key))
    out = {}
    for fk, fv in f.items():
        a = dict(zip(f.names, fk))
        for gk, gv in g.items():
            b = dict(zip(g.names, gk))
            if all(a[n] == b[n] for n in a.keys() & b.keys()):
                out[tuple({**a, **b}[n] for n in names)] = fv * gv
    return names, out


def ref_marginalize(f, out_vars):
    names = tuple(n for n in f.names if n not in out_vars)
    sums = {}
    for key, value in f.items():
        kept = tuple(x for n, x in zip(f.names, key) if n not in out_vars)
        sums.setdefault(kept, []).append(value)
    return names, {k: math.fsum(vs) for k, vs in sums.items()}


def ref_restrict(f, partial):
    return f.names, {k: v for k, v in f.items()
                     if all(partial.get(n, x) == x for n, x in zip(f.names, k))}


def assert_matches(got, want, rel=0.0):
    names, entries = want
    assert got.names == names
    keys = [k for k, _ in got.items()]
    assert keys == sorted(entries)  # canonical order, nothing missing or extra
    for key, value in got.items():
        assert value == pytest.approx(entries[key], rel=rel, abs=0.0)


# math.fsum is exact; the backend sums at most 18 positive float64 terms per
# group in row order, so the relative error stays below 18 * 2**-52 < 1e-14.
MARGINAL_REL = 1e-13


@settings(max_examples=80, deadline=None)
@given(joint_factors(), st.data())
def test_algebra_matches_dict_reference(pair, data):
    f, g = pair
    assert_matches(product(f, g), ref_product(f, g))
    out = set(data.draw(st.lists(st.sampled_from(f.names), unique=True))) if f.names else set()
    assert_matches(marginalize(f, out), ref_marginalize(f, out), rel=MARGINAL_REL)
    partial = {n: data.draw(st.integers(0, v.domain_size - 1))
               for n, v in zip(f.names, f.scope) if data.draw(st.booleans())}
    assert_matches(f.restrict(partial), ref_restrict(f, partial))
    assert_matches(invert(f), (f.names, {k: 1.0 / v for k, v in f.items()}))


@settings(max_examples=150, deadline=None)
@given(contained_pairs(), st.booleans())
@example((SparseFactor((Variable("A", 2),), {(0,): 1.0, (1,): 2.0}),
          SparseFactor((), {})), False)  # the narrower table is empty
@example((SparseFactor((Variable("A", 2),), {}),
          SparseFactor((), {(): 3.0})), True)  # the wider table is empty
def test_contained_product_matches_reference(pair, narrow_first):
    """One scope inside the other: the same entries, in the same order, as
    the reference, in either order."""
    wide, narrow = pair
    f, g = (narrow, wide) if narrow_first else (wide, narrow)
    assert_matches(product(f, g), ref_product(f, g))


@st.composite
def match_pairs(draw):
    """f and g whose shared columns lead g's scope, are scattered in it (g's
    first name is never shared), or are none, with the layout drawn. Domains
    fall on both sides of 256, so shared keys are one or two bytes, and
    either table may be empty."""
    pool = ["A", "B", "C", "D", "E"]
    domains = {n: draw(st.sampled_from([2, 3, 256, 300])) for n in pool}
    layout = draw(st.sampled_from(["lead", "scattered", "none"]))
    g_names = sorted(draw(st.sets(st.sampled_from(pool),
                                  min_size=2 if layout == "scattered" else 0)))
    if layout == "lead":
        shared = g_names[:draw(st.integers(min(1, len(g_names)), len(g_names)))]
    elif layout == "scattered":
        shared = [n for n in g_names[1:] if draw(st.booleans())] or g_names[-1:]
    else:
        shared = []
    f_names = sorted(shared + [n for n in pool if n not in g_names and draw(st.booleans())])

    def table(chosen):
        # 256 is 0 in one byte: a key narrower than the codes would match it to 0
        cell = [st.sampled_from([c for c in (0, 1, 2, 256, domains[n] - 1) if c < domains[n]])
                for n in chosen]
        keys = draw(st.sets(st.tuples(*cell), max_size=12))
        vals = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
        return SparseFactor(tuple(Variable(n, domains[n]) for n in chosen),
                            {k: draw(vals) for k in sorted(keys)})

    return layout, table(f_names), table(g_names)


@settings(max_examples=200, deadline=None)
@given(match_pairs())
def test_matches_agree_with_a_dict_reference(drawn):
    """Each f row's run is the g rows that agree with it on the shared
    names, in g's order; only scattered shared columns sort g."""
    layout, f, g = drawn
    assert_runs(f, g)
    assert (matches(f, g)[2] is not None) == (layout == "scattered")


def runs(f, g):
    """`matches(f, g)` as lists: each f row's partner rows of g, in g's
    canonical order, and g's other columns."""
    lo, hi, g_rows, g_only = matches(f, g)
    return [list(range(a, b)) if g_rows is None else g_rows[a:b].tolist()
            for a, b in zip(lo.tolist(), hi.tolist())], g_only


def assert_runs(f, g):
    """`matches(f, g)` gives each f row the g rows that agree with it on
    the shared names, in g's order, and lists g's other columns."""
    got, g_only = runs(f, g)
    g_keys = [k for k, _ in g.items()]
    want = []
    for key, _ in f.items():
        a = dict(zip(f.names, key))
        want.append([j for j, b in enumerate(g_keys)
                     if all(a.get(n, x) == x for n, x in zip(g.names, b))])
    assert got == want
    assert g_only == [j for j, n in enumerate(g.names) if n not in f.names]


@st.composite
def wide_pairs(draw):
    """f and g sharing 62 to 66 binary columns S0, S1, ...: their shared
    keys are mixed-radix up to 63 columns and dense ids from 64. g may add A,
    which sorts before the shared columns (so g sorts its keys and a
    product re-sorts its rows), and T after them; f may add B and U. Rows
    draw their shared cells from a few patterns, so that runs meet."""
    width = draw(st.sampled_from([62, 63, 64, 66]))
    shared = [f"S{i}" for i in range(width)]
    patterns = draw(st.lists(st.tuples(*[st.integers(0, 1)] * width), min_size=1, max_size=3))

    def table(extra):
        rows = draw(st.lists(st.tuples(st.sampled_from(patterns),
                                       st.tuples(*[st.integers(0, 1)] * len(extra))),
                             max_size=8))
        vals = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
        return make([(n, 2) for n in shared + extra],
                    {cells + own: draw(vals) for cells, own in sorted(set(rows))})

    f = table([n for n in ("B", "U") if draw(st.booleans())])
    g = table([n for n in ("A", "T") if draw(st.booleans())])
    return width, f, g


@settings(max_examples=60, deadline=None)
@given(wide_pairs(), st.data())
def test_byte_keys_agree_with_a_dict_reference(drawn, data):
    """Past 63 bits of shared domains, where keys are the rows' dense ids,
    every join and marginal has the entries, and the order, of the dict
    reference; the keys are `int64` on either side of the limit."""
    width, f, g = drawn
    codes = np.zeros((1, width), dtype=np.uint8)
    assert [k.dtype for k in keys([2] * width, codes, codes)] == [np.int64] * 2
    for x, y in ((f, g), (g, f)):
        assert_runs(x, y)
        assert_matches(product(x, y), ref_product(x, y))
    h = product(f, g)
    assert join_size(f, g) == join_size(g, f) == h.tightness
    out = set(data.draw(st.lists(st.sampled_from(("A", "B", "T", "U", "S0", "S1")),
                                 unique=True, max_size=3))) & set(h.names)
    assert_matches(marginalize(h, out), ref_marginalize(h, out), rel=MARGINAL_REL)


@pytest.mark.parametrize("top", [255, 256, 65535, 65536])
def test_canonical_order_past_one_byte(top):
    """Row order is numeric for codes of every width, not signed-byte order."""
    codes = sorted({0, 1, 127, 128, 255, top}, reverse=True)
    f = SparseFactor((Variable("B", 2), Variable("A", top + 1)),
                     {(b, a): 1.0 + a for a in codes for b in (1, 0)})
    want = sorted((a, b) for a in codes for b in (1, 0))
    assert [k for k, _ in f.items()] == want
    assert [k for k, _ in marginalize(f, {"B"}).items()] == sorted((a,) for a in codes)
    # a scope inside f's: its keys and f's projection must be encoded at one
    # width, also when the narrower table holds only codes below 256
    small = [a for a in codes if a < 256 and a != 127]
    for narrow in (SparseFactor((Variable("A", top + 1),), {(a,): 0.5 + a for a in codes[1:]}),
                   SparseFactor((Variable("A", top + 1),), {(a,): 2.0 for a in small}),
                   SparseFactor((Variable("B", 2),), {(1,): 0.25})):
        for x, y in ((f, narrow), (narrow, f)):
            assert_matches(product(x, y), ref_product(x, y))


def test_items_are_python_scalars_in_sorted_order():
    d = Dataset(("A", "B"), [(1, 0), (0, 1), (1, 1), (0, 1)], {"A": 2, "B": 2})
    for f in (bind(d, ("A",), ("B",)),
              product(bind(d, ("A",)), bind(d, ("B",), ("A",)))):
        items = list(f.items())
        assert [k for k, _ in items] == sorted(k for k, _ in items)
        assert all(type(c) is int for k, _ in items for c in k)
        assert all(type(v) is float for _, v in items)
        json.dumps(items)


def test_counts_are_python_ints():
    f = make([("A", 2)], {(0,): 1e-200, (1,): 1e-200})
    g = make([("A", 2)], {(0,): 1e-200, (1,): 1.0})
    for h in (product(f, g), marginalize(f, {"A"}), f.restrict({"A": 0}), invert(f)):
        assert type(h.tightness) is int
        assert type(h.underflow_dropped) is int
        json.dumps({"t": h.tightness, "dropped": h.underflow_dropped})


def test_underflow_drop_counts():
    f = make([("A", 3)], {(0,): 1e-200, (1,): 1e-200, (2,): 0.5})
    g = make([("A", 3)], {(0,): 1e-200, (1,): 1.0, (2,): 1e-150})
    h = product(f, g)
    assert h.underflow_dropped == 1  # 1e-400 underflows; 1e-200 and 5e-151 stay
    assert dict(h.items()) == {(1,): 1e-200, (2,): 0.5 * 1e-150}
    m = marginalize(make([("A", 3), ("B", 2)],
                         {(0, 0): 1e-301, (0, 1): 1e-301, (1, 0): 1.0, (1, 1): -1.0,
                          (2, 1): 0.25}), {"B"})
    assert m.underflow_dropped == 2  # 2e-301 is under the floor; 1 - 1 is zero
    assert dict(m.items()) == {(2,): 0.25}


# -- narrow codes -----------------------------------------------------------


def as_int64(f):
    return SparseFactor.trusted(f.scope, f.codes.astype(np.int64), f.values)


def assert_same_as_int64(got, want):
    """`got`, computed from narrow codes, equals `want`, computed from the
    same operands held as int64, entry for entry and bit for bit."""
    assert got.scope == want.scope
    assert np.array_equal(got.codes, want.codes)
    assert np.array_equal(got.values, want.values)
    assert got.underflow_dropped == want.underflow_dropped


@st.composite
def mixed_dtype_operands(draw):
    """A dataset's bound term and a factor built by `SparseFactor` over some
    of the dataset's variables. Domains fall on both sides of 256: a term
    takes the dtype of the dataset's largest domain and the factor that of
    its own scope's, so the two often hold their codes in different dtypes."""
    domains = {c: draw(st.sampled_from([2, 3, 256, 257, 300])) for c in names}
    cell = {c: st.integers(0, min(domains[c], 3) - 1) | st.just(domains[c] - 1) for c in names}
    columns = draw(st.permutations(names))
    rows = draw(st.lists(st.tuples(*(cell[c] for c in columns)), min_size=1, max_size=10))
    data = Dataset(columns, rows, domains)
    chosen = draw(st.permutations(names))
    cut = draw(st.integers(1, len(names)))
    split = draw(st.integers(1, cut))
    term = bind(data, tuple(chosen[:split]), tuple(chosen[split:cut]))
    scope = [c for c in names if draw(st.booleans())]
    keys = draw(st.sets(st.tuples(*(cell[c] for c in scope)), max_size=12))
    vals = st.floats(min_value=0.01, max_value=10.0, allow_nan=False)
    f = SparseFactor(tuple(Variable(c, domains[c]) for c in scope),
                     {k: draw(vals) for k in sorted(keys)})
    return f, term


@settings(max_examples=150, deadline=None)
@given(mixed_dtype_operands(), st.data())
def test_mixed_dtypes_match_the_int64_algebra(pair, data):
    f, g = pair
    note(f"{f.codes.dtype} x {g.codes.dtype}")
    for x, y in ((f, g), (g, f)):
        got = product(x, y)
        assert_same_as_int64(got, product(as_int64(x), as_int64(y)))
        assert got.codes.dtype in (x.codes.dtype, y.codes.dtype)  # never wider than both
        assert join_size(x, y) == join_size(as_int64(x), as_int64(y))
    h = product(f, g)
    out = set(data.draw(st.lists(st.sampled_from(h.names), unique=True))) if h.names else set()
    assert_same_as_int64(marginalize(h, out), marginalize(as_int64(h), out))
    partial = {v.name: data.draw(st.sampled_from(sorted({0, v.domain_size - 1})))
               for v in h.scope if data.draw(st.booleans())}
    assert_same_as_int64(h.restrict(partial), as_int64(h).restrict(partial))
    assert_same_as_int64(invert(h), invert(as_int64(h)))


# -- keys -------------------------------------------------------------------


def tuple_ranks(codes):
    """Each row's rank among the distinct rows, compared as Python tuples."""
    rows = list(map(tuple, codes.tolist()))
    rank = {row: i for i, row in enumerate(sorted(set(rows)))}
    return [rank[row] for row in rows]


def key_ranks(k):
    """Each key's rank among the distinct keys, in numpy's order."""
    return np.unique(k, return_inverse=True)[1].reshape(-1).tolist()


@st.composite
def code_matrices(draw):
    """Up to 12 rows over up to 4 columns whose domains multiply to either
    side of 2**63; each cell is 0, 1, about half its domain or its top."""
    sizes = draw(st.lists(st.sampled_from([1, 2, 3, 256, 300, 2**31, 2**32, 2**62, 2**63 - 1]),
                          max_size=4))
    cell = [st.sampled_from(sorted({0, min(1, k - 1), k // 2, k - 1})) for k in sizes]
    rows = draw(st.lists(st.tuples(*cell), max_size=12))
    codes = np.array(rows, dtype=code_dtype(max(sizes, default=1) - 1))
    return codes.reshape(len(rows), len(sizes)), sizes


@settings(max_examples=300, deadline=None)
@given(code_matrices())
def test_keys_order_rows_as_tuples_do(drawn):
    """Keys of up to 4 columns, whose domains multiply to either side of
    2**63, are `int64` and order and equate rows as Python tuples do,
    also across two halves encoded in one call."""
    codes, sizes = drawn
    (got,) = keys(sizes, codes)
    assert got.dtype == np.int64
    assert key_ranks(got) == tuple_ranks(codes)
    half = len(codes) // 2
    parts = keys(sizes, codes[:half], codes[half:])
    assert [len(p) for p in parts] == [half, len(codes) - half]
    assert all(p.dtype == np.int64 for p in parts)
    assert key_ranks(np.concatenate(parts)) == tuple_ranks(codes)


@pytest.mark.parametrize("sizes, mixed_radix", [
    ([2**32, 2**31], True),  # exactly 2**63: the top row is 2**63 - 1
    ([1, 2**32, 2**31], True),  # the same under a column of domain 1
    ([2**32, 2**31 + 1], False),  # just past it
    ([2**63 - 1], True),  # one int64 column
    ([2] * 63, True),
    ([2] * 64, False),
    ([1] * 64, True),  # a column of domain 1 takes place value 0, so no bit
    ([1, 2] * 40, True),  # 80 columns, 40 bits
    ([1] * 30 + [2] * 63 + [1] * 30, True),  # exactly 2**63 among columns of domain 1
    ([2] * 32 + [1] * 40 + [2] * 32, False),  # 2**64
])
def test_keys_at_the_63_bit_limit(sizes, mixed_radix):
    """Up to 2**63 a key is the row's mixed-radix number, past it the
    row's dense id; both are `int64` and order rows as tuples do."""
    rng = np.random.default_rng(0)
    rows = [[k - 1 for k in sizes], [0] * len(sizes)]
    rows += [[int(rng.choice([0, k // 2, k - 1])) for k in sizes] for _ in range(40)]
    codes = np.array(rows + rows[::3], dtype=code_dtype(max(sizes) - 1))
    (got,) = keys(sizes, codes)
    assert got.dtype == np.int64
    top = math.prod(sizes) - 1 if mixed_radix else len(set(map(tuple, rows))) - 1
    assert got[0] == top and got[1] == 0
    assert key_ranks(got) == tuple_ranks(codes)


# -- provenance ---------------------------------------------------------------


def strip(f):
    """The same table without provenance, which the algebra handles by keys."""
    return SparseFactor.trusted(f.scope, f.codes, f.values, f.underflow_dropped)


def assert_provenance_holds(f):
    """A table with provenance reads distinct columns, and each entry's
    codes are the cells of its source row on them, in the data's dtype."""
    if f.data is None:
        assert f.rows is None
        return
    columns = [n.rstrip("'") for n in f.names]
    assert len(set(columns)) == len(columns)
    assert len(f.rows) == f.tightness
    assert f.rows.dtype == code_dtype(f.data.n_rows - 1)
    cells = f.data.cells[:, [f.data.column_index(c) for c in columns]]
    assert np.array_equal(cells[f.rows.astype(np.intp)].reshape(f.codes.shape), f.codes)
    assert f.codes.dtype == f.data.cells.dtype


def assert_same_as_stripped(got, want):
    assert_provenance_holds(got)
    assert want.data is None
    assert_same_as_int64(got, want)  # scope, codes, values bit for bit, and drops


# names that read columns A-D, primed or not
primed_pool = ["A", "A'", "B", "B'", "B''", "C", "C'", "D"]


def bound_term(draw, data, names_):
    """`empirical_prob` over `names_` (distinct columns), split at random
    into its two sides, scaled near the underflow floor or not, and
    restricted by a drawn `do`, so it may lack some of its groups."""
    names_ = draw(st.permutations(names_))
    split = draw(st.integers(1, len(names_)))
    f = bind(data, tuple(names_[:split]), tuple(names_[split:]))
    scale = draw(st.sampled_from([1.0, 1e-150, 3e-300]))
    f = with_values(f, f.values * scale)
    do = {n: draw(st.integers(0, 1)) for n in f.names if draw(st.integers(0, 3)) == 0}
    return f.restrict(do)


def term_names(draw, within=None):
    """Distinct-column names from `primed_pool`, or from `within` if given."""
    pool = within if within is not None else draw(st.permutations(primed_pool))
    chosen, columns = [], set()
    for n in pool:
        if n.rstrip("'") not in columns and draw(st.booleans()):
            chosen.append(n)
            columns.add(n.rstrip("'"))
    return chosen or [pool[0]]


@st.composite
def provenance_pairs(draw):
    """Two bound terms over one random dataset; the second's names often
    lie inside the first's, so `matches` takes its index by group id."""
    domains = {c: draw(st.integers(2, 3)) for c in "ABCD"}
    rows = draw(st.lists(st.tuples(*(st.integers(0, domains[c] - 1) for c in "ABCD")),
                         min_size=1, max_size=30))
    data = Dataset(tuple("ABCD"), rows, domains)
    wide = term_names(draw)
    narrow = term_names(draw, wide if draw(st.booleans()) else None)
    return bound_term(draw, data, wide), bound_term(draw, data, narrow)


@settings(max_examples=300, deadline=None)
@given(provenance_pairs(), st.data())
def test_provenance_gives_the_keyed_algebra_bit_for_bit(pair, data):
    """`product` and `marginalize` on tables with provenance equal the same
    calls on copies without it: scope, codes, values and underflow drops."""
    f, g = pair
    assert_provenance_holds(f)
    assert_provenance_holds(g)
    for x, y in ((f, g), (g, f)):
        h = product(x, y)
        assert_same_as_stripped(h, product(strip(x), strip(y)))
        for t in (x, h):
            out = set(data.draw(st.lists(st.sampled_from(t.names), unique=True)))
            m = marginalize(t, out)
            assert_same_as_stripped(m, marginalize(strip(t), out))
            # a marginal's provenance feeds the next product as the narrower table
            assert_same_as_stripped(product(t, m), product(strip(t), strip(m)))
    assert_same_as_stripped(invert(f), invert(strip(f)))
    assert invert(f).data is f.data


def test_contained_product_gathers_partners_where_the_narrower_lacks_groups():
    data = Dataset(("A", "B"), [(0, 0), (0, 1), (1, 1), (1, 0), (1, 1), (0, 0)], {"A": 2, "B": 2})
    wide = bind(data, ("A'",), ("B",))
    narrow = bind(data, ("B",)).restrict({"B": 1})  # B=0 is gone
    assert narrow.tightness == 1 and narrow.data is data
    h = product(narrow, wide)
    assert_same_as_stripped(h, product(strip(wide), strip(narrow)))
    assert h.data is data and dict(h.items()) == {(0, 1): 1 / 3 * 0.5, (1, 1): 2 / 3 * 0.5}


@settings(max_examples=300, deadline=None)
@given(provenance_pairs())
def test_matches_with_provenance_gives_the_runs_of_the_code_matrices(pair):
    """The one partner search: tables with provenance, contained (indexed
    by group id, whether the narrower holds every group or lacks some after
    `restrict`) or not (searched by group id), meet the partners that copies
    without provenance meet by `keys`."""
    f, g = pair
    for x, y in ((f, g), (g, f)):
        assert runs(x, y) == runs(strip(x), strip(y))
    assert_runs(f, g)


@pytest.mark.parametrize("lacking", [False, True])
def test_contained_matches_past_the_last_one_byte_group_id(lacking):
    """Over exactly 256 groups the ids are `uint8`, and the run of the f
    row in group 255 ends at 256: `lo + 1` must not wrap to 0."""
    rows = [(a, a % 3) for a in range(256)] + [(255, 1), (7, 2)]
    data = Dataset(("A", "B"), rows, {"A": 256, "B": 3})
    assert data.group(("A",)).ids.dtype == np.uint8 and data.group(("A",)).count == 256
    f, g = bind(data, ("B",), ("A",)), bind(data, ("A",))
    if lacking:  # g lacks group 0
        g = SparseFactor.trusted(g.scope, None, g.values[1:], data=data, rows=g.rows[1:])
    hi = matches(f, g)[1]
    assert int(hi.max()) == (255 if lacking else 256)
    assert runs(f, g) == runs(strip(f), strip(g))
    assert join_size(f, g) == product(f, g).tightness == f.tightness - lacking


def test_restrict_keeps_provenance_and_an_empty_assignment_returns_self():
    data = Dataset(("A", "B"), [(0, 0), (1, 1), (1, 0)], {"A": 2, "B": 2})
    f = bind(data, ("A", "B"))
    assert f.restrict({}) is f
    r = f.restrict({"A": 1})
    assert r.data is data and r.rows.tolist() == [2, 1]
    assert_provenance_holds(r)


def test_general_join_gets_provenance_back_when_each_entry_is_a_row():
    # B decides C, so each (A, B) entry meets exactly the C of its own row
    rows = [(0, 0, 1), (1, 1, 0), (0, 1, 0), (1, 1, 0)]
    data = Dataset(("A", "B", "C"), rows, {"A": 2, "B": 2, "C": 2})
    f, g = bind(data, ("A", "B")), bind(data, ("C",), ("B",))
    h = product(f, g)
    assert h.data is data
    assert_same_as_stripped(h, product(strip(f), strip(g)))
    assert [k for k, _ in h.items()] == sorted(set(rows))  # the data's projection
    # its marginal and products with it then take the provenance paths
    m = marginalize(h, {"A"})
    assert m.data is data
    assert_same_as_stripped(m, marginalize(strip(h), {"A"}))


@pytest.mark.parametrize("rows, left, right", [
    # (A, B) meets two C's for B=0: four entries from two rows
    ([(0, 0, 0), (1, 0, 1)], ("A", "B"), ("B", "C")),
    # three entries from four rows, but one holds a C that its row lacks
    ([(0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 1, 1)], ("A", "B"), ("B", "C")),
    # one entry from one row, but A and A' read one column
    ([(0, 0, 0)], ("A",), ("A'", "B")),
])
def test_general_join_keeps_no_provenance_unless_each_entry_is_a_row(rows, left, right):
    data = Dataset(("A", "B", "C"), rows, {"A": 2, "B": 2, "C": 2})
    f, g = bind(data, left), bind(data, right)
    h = product(f, g)
    assert h.data is None and h.rows is None
    assert_same_as_stripped(h, product(strip(f), strip(g)))


def test_tables_of_two_datasets_are_never_gathered_together():
    domains = {"A": 2, "B": 2}
    one = Dataset(("A", "B"), [(0, 0), (1, 1), (0, 1)], domains)
    # two lacks A=0, and its A=1 row is row 2, where one holds A=0: an
    # index by one's group ids would pair every entry wrongly
    two = Dataset(("A", "B"), [(1, 0), (1, 1), (1, 0)], domains)
    wide, narrow = bind(one, ("A", "B")), bind(two, ("A",))
    for x, y in ((wide, narrow), (narrow, wide)):
        h = product(x, y)
        assert_same_as_stripped(h, product(strip(x), strip(y)))
        assert h.data is one  # the wider table's entries, with their own rows
    # a general join across datasets keeps none
    h = product(bind(one, ("A",)), bind(two, ("B",)))
    assert h.data is None
    assert_same_as_stripped(h, product(strip(bind(one, ("A",))),
                                       strip(bind(two, ("B",)))))


# -- codes read from the rows -------------------------------------------------


def lazy(f):
    """The same table with its provenance and no code matrix."""
    return SparseFactor.trusted(f.scope, None, f.values, f.underflow_dropped, f.data, f.rows)


@settings(max_examples=200, deadline=None)
@given(provenance_pairs(), st.data())
def test_codes_read_from_the_rows_equal_the_eager_ones(pair, data):
    """Each kind of table with provenance, built from tables that hold no
    code matrix, holds none either (a general join builds its own), and the
    codes it derives when read equal the eager gather of its rows' cells and
    the keyed algebra's codes, in values and dtype."""
    a, b = pair
    out = set(data.draw(st.lists(st.sampled_from(a.names), unique=True)))
    do = {n: data.draw(st.integers(0, 1)) for n in a.names if data.draw(st.booleans())}
    kinds = {
        "bound": lambda f, g: f,
        "restricted": lambda f, g: f.restrict(do),
        "inverted": lambda f, g: invert(f),
        "marginal": lambda f, g: marginalize(f, out),
        "contained product": lambda f, g: product(marginalize(f, out), f),
        "join": lambda f, g: product(f, g),
    }
    for kind, build in kinds.items():
        got = build(lazy(a), lazy(b))
        if got.data is None:  # a general join that keeps no provenance
            continue
        note(kind)
        assert got._codes is None or kind == "join"
        assert_provenance_holds(got)
        want = build(strip(a), strip(b))
        assert_same_as_int64(got, want)
        assert got.codes.dtype == want.codes.dtype


def test_restrict_reads_the_assigned_columns_of_the_rows():
    data = Dataset(("A", "B", "C"), [(0, 0, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
                   {"A": 2, "B": 2, "C": 2})
    f = bind(data, ("C", "A'"), ("B",))
    eager = strip(bind(data, ("C", "A'"), ("B",)))
    for do in ({"A'": 1}, {"B": 0, "C": 1}, {"A'": 0, "C": 0}):
        got, want = f.restrict(do), eager.restrict(do)
        assert f._codes is None and got._codes is None and got.data is data
        assert_same_as_int64(got, want)
        assert got.codes.dtype == want.codes.dtype
        assert_provenance_holds(got)
        assert dict(got.items()) == {k: v for k, v in eager.items()
                                     if all(k[f.names.index(n)] == x for n, x in do.items())}


def test_with_values_keeps_the_entries_and_builds_no_codes():
    data = Dataset(("A", "B"), [(0, 0), (1, 1), (1, 0)], {"A": 2, "B": 2})
    f = bind(data, ("A",), ("B",))
    ones = with_values(f, np.ones(f.tightness))
    assert ones._codes is None and ones.data is data and ones.rows is f.rows
    assert ones.scope == f.scope and ones.values.tolist() == [1.0] * f.tightness
    assert f._codes is None
    eager = strip(f)
    assert with_values(eager, ones.values).codes is eager.codes  # no copy


def test_chain99_builds_no_code_matrix_before_its_result_is_read(fixture_path, monkeypatch):
    """On chain99 at 800 rows every bound term, product and marginal keeps
    its provenance and builds no code matrix; only reading the result
    gathers its codes."""
    made = []

    def keep(fn):
        def wrapped(*args):
            made.append(fn(*args))
            return made[-1]
        return wrapped

    monkeypatch.setattr(engine, "empirical_prob", keep(engine.empirical_prob))
    for name in ("product", "marginalize"):
        monkeypatch.setattr(factor, name, keep(getattr(factor, name)))
    graph = load_graph(fixture_path("chain99.graph"))
    data = sample_dataset(random_cbn(graph, dist="dirichlet", alpha=1.0, seed=3), 800, seed=4)
    with open(fixture_path("chain99.estimand"), encoding="utf-8") as fh:
        report = engine.pi_hte(flatten(parse(fh.read())), data)
    assert len(made) == 99 + 98 + 2
    assert all(t.data is data and t._codes is None for t in made)
    assert_provenance_holds(report.result)


def test_chain99_encodes_no_key(fixture_path, monkeypatch):
    """On chain99 at 200 rows every table is bound from one dataset, so
    even its one general join, on 97 shared columns, is keyed by
    `Dataset.group` ids: `keys` is never called."""
    calls = []
    monkeypatch.setattr(factor, "keys", lambda *args: calls.append(args) or keys(*args))
    graph = load_graph(fixture_path("chain99.graph"))
    data = sample_dataset(random_cbn(graph, dist="dirichlet", alpha=1.0, seed=3), 200, seed=4)
    with open(fixture_path("chain99.estimand"), encoding="utf-8") as fh:
        report = engine.pi_hte(flatten(parse(fh.read())), data)
    assert calls == []
    assert report.result.tightness > 0
