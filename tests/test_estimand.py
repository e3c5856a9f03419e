import itertools
import math

import pytest

from pihte.errors import DuplicateBoundVar, EstimandSyntaxError
from pihte.estimand import (
    ProbTerm,
    Product,
    Ratio,
    Sum,
    dense_expr_eval,
    flatten,
    free_vars,
    parse,
    prob_terms,
)
from pihte.model import Dataset, empirical_prob
from pihte.suite import make_instance


# -- parsing ---------------------------------------------------------------


def test_parse_single_term():
    expr = parse("P(A|B,C)")
    assert expr == ProbTerm(("A",), ("B", "C"))


def test_parse_joint_term():
    assert parse("P(A,B)") == ProbTerm(("A", "B"), ())


def test_parse_product_and_sum():
    expr = parse("sum[B](P(A|B) P(B))")
    assert isinstance(expr, Sum)
    assert expr.bound == ("B",)
    assert isinstance(expr.child, Product)
    assert len(expr.child.children) == 2


def test_parse_ratio_with_parens():
    expr = parse("P(A) / (P(B))")
    assert isinstance(expr, Ratio)


def test_parse_ratio_bare_denominator():
    expr = parse("sum[W](P(X|W) P(W)) / sum[W](P(W))")
    assert isinstance(expr, Ratio)
    assert isinstance(expr.denominator, Sum)


def test_parse_error_position():
    with pytest.raises(EstimandSyntaxError) as exc:
        parse("P(A|)")
    assert exc.value.position == 4


def test_parse_rejects_apostrophes():
    with pytest.raises(EstimandSyntaxError):
        parse("P(A')")


def test_parse_duplicate_bound_var():
    with pytest.raises(DuplicateBoundVar):
        parse("sum[A,A](P(A))")


def test_parse_trailing_garbage():
    with pytest.raises(EstimandSyntaxError):
        parse("P(A) )")


def test_overlapping_sides_rejected():
    with pytest.raises(EstimandSyntaxError):
        parse("P(A|A)")


@pytest.mark.parametrize("text, position, name", [
    ("P(X,X)", 4, "X"),
    ("P(X|R,R)", 6, "R"),
    ("P(A) P(B) P(X|X)", 14, "X"),  # on both sides of '|'
    ("P(X,Y|Z,Y)", 8, "Y"),
])
def test_repeated_name_in_term_rejected_at_its_position(text, position, name):
    with pytest.raises(EstimandSyntaxError) as exc:
        parse(text)
    assert exc.value.position == position
    assert repr(name) in str(exc.value)


def test_parse_rejects_unused_bound_var():
    # the oracle would sum over Z and the flattened levels could not: refuse it
    for text, position, name in (("sum[B,Z](P(A|B) P(B))", 6, "Z"),
                                 ("sum[A](sum[A](P(A)))", 4, "A")):
        with pytest.raises(EstimandSyntaxError) as exc:
            parse(text)
        assert exc.value.position == position
        assert repr(name) in str(exc.value)


def test_sum_built_in_code_rejects_unused_bound_var():
    # flatten would keep B with no factor over it, and the engine would not sum over it
    with pytest.raises(EstimandSyntaxError) as exc:
        Sum(("B",), ProbTerm(("A",)))
    assert "'B'" in str(exc.value)


def test_free_vars():
    expr = parse("sum[B](P(A|B) P(B)) / (sum[C](P(C) P(D|C)))")
    assert free_vars(expr) == {"A", "D"}


def test_prob_terms_in_order():
    expr = parse("sum[B](P(A|B) P(B))")
    assert [t.key() for t in prob_terms(expr)] == ["P(A|B)", "P(B)"]


# -- flattening ------------------------------------------------------------


def test_flatten_simple_no_rename():
    h = flatten(parse("sum[B](P(A|B) P(B))"))
    assert len(h.levels) == 1
    lv = h.level(0)
    assert lv.sum_vars == ("B",)
    assert lv.free_vars == ("A",)
    assert lv.rename_map == ()


def test_flatten_hoists_nested_sums():
    h = flatten(parse("sum[B](P(B) sum[C](P(C|B) P(A|C)))"))
    lv = h.level(0)
    assert set(lv.sum_vars) == {"B", "C"}
    assert len(lv.factors) == 3


def test_flatten_renames_on_collision():
    # bound A collides with the free A of the outer factor
    h = flatten(parse("P(Z|A) sum[A](P(Z|A) P(A))"))
    lv = h.level(0)
    assert lv.sum_vars == ("A'",)
    assert lv.rename_map == (("A", "A'"),)
    keys = [t.key() for t in lv.factors]
    assert keys == ["P(Z|A)", "P(Z|A')", "P(A')"]


def test_flatten_ratio_builds_child_level():
    h = flatten(parse("sum[W](P(X,Y|R,W) P(W)) / (sum[W](P(X|R,W) P(W)))"))
    assert h.depth == 2
    root, child = h.level(0), h.level(1)
    assert root.children == [1]
    assert root.child_outputs == [(1, ("R", "X"))]
    assert child.sum_vars == ("W'",)
    assert child.free_vars == ("R", "X")
    assert [t.key() for t in child.factors] == ["P(X|R,W')", "P(W')"]


def test_flatten_chain7_shape(fixture_path):
    h = flatten(parse(open(fixture_path("chain7.estimand")).read()))
    lv = h.level(0)
    assert len(lv.factors) == 7
    assert lv.free_vars == ("V0", "V6")
    assert ("V0", "V0'") in lv.rename_map
    assert set(lv.sum_vars) == {"V1", "V2", "V3", "V4", "V5", "V0'"}


def test_flatten_cone_cloud_scopes(fixture_path):
    h = flatten(parse(open(fixture_path("cone_cloud.estimand")).read()))
    lv = h.level(0)
    assert len(lv.factors) == 13
    assert lv.free_vars == ("V0", "V4", "V10", "V14")
    scopes = {f"f{i}": set(t.scope) for i, t in enumerate(lv.factors)}
    assert scopes["f7"] == {"V0"} | {f"V{i}" for i in range(1, 10)} | {
        "V10'", "V11'", "V12'", "V13'", "V14'"
    }
    assert scopes["f8"] == {"V3", "V6", "V7", "V10'", "V11'", "V12'", "V13'"}
    assert scopes["f9"] == {"V11'", "V12'"}
    assert scopes["f12"] == {"V7", "V10'", "V11'", "V12'"}


# -- flattening soundness --------------------------------------------------


def eval_level_dense(hier, level_id, bindings, assignment, domains):
    """Independent evaluator of a flattened level: literal sum over sum_vars
    of the product of factors and inverted child outputs."""
    lv = hier.level(level_id)
    total = 0.0
    for combo in itertools.product(*(range(domains[v]) for v in lv.sum_vars)):
        local = dict(assignment)
        local.update(zip(lv.sum_vars, combo))
        val = 1.0
        for term in lv.factors:
            val *= bindings[term.key()].dense_eval(local)
            if val == 0.0:
                break
        if val != 0.0:
            for child_id, scope in lv.child_outputs:
                child_val = eval_level_dense(hier, child_id, bindings, local, domains)
                if child_val == 0.0:
                    val = 0.0
                    break
                val /= child_val
        total += val
    return total


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flattened_hierarchy_matches_original_ast(seed):
    for offset in range(6):
        inst = make_instance(seed * 100 + offset)
        expr = parse(inst.estimand)
        hier = flatten(expr)

        bindings = {}
        for lv in hier.levels:
            for term in lv.factors:
                if term.key() not in bindings:
                    bindings[term.key()] = empirical_prob(inst.data, term.left, term.right)
        for term in prob_terms(expr):
            if term.key() not in bindings:
                bindings[term.key()] = empirical_prob(inst.data, term.left, term.right)

        domains = dict(inst.data.domains)
        for name in list(domains):
            for primed in (name + "'", name + "''"):
                domains[primed] = domains[name]

        free = sorted(free_vars(expr))
        for combo in itertools.product(*(range(domains[v]) for v in free)):
            assignment = dict(zip(free, combo))
            want = dense_expr_eval(expr, bindings, assignment, domains)
            got = eval_level_dense(hier, hier.root, bindings, assignment, domains)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


def test_dense_expr_eval_zero_over_zero():
    expr = parse("P(A) / (P(B))")
    a = empirical_prob(_tiny_data(), ("A",))
    b = empirical_prob(_tiny_data(), ("B",))
    bindings = {"P(A)": a, "P(B)": b}
    # B=1 never occurs, so P(B)=0 there; A=1 also never occurs -> 0/0 = 0
    assert dense_expr_eval(expr, bindings, {"A": 1, "B": 1}, {"A": 2, "B": 2}) == 0.0


def _tiny_data():
    return Dataset(("A", "B"), [(0, 0), (0, 0)], {"A": 2, "B": 2})
