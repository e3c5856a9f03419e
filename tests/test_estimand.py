import itertools
import math

import pytest
from hypothesis import given, settings, strategies as st

from conftest import bind
from pihte.engine import brute_force_eval
from pihte.errors import DivisionByZero, DuplicateBoundVar, EstimandSyntaxError, UnusedBoundVar
from pihte.estimand import (
    _BAD_RE,
    ProbTerm,
    Product,
    Ratio,
    Sum,
    dense_expr_eval,
    flatten,
    free_vars,
    _Parser,
    parse,
    prob_terms,
)
from pihte.model import Dataset, name_key
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
    assert str(exc.value).startswith("at position 4:")


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


def test_term_built_in_code_rejects_a_name_on_both_sides():
    # no text reaches this check: the parser names the repeat where it is
    with pytest.raises(EstimandSyntaxError) as exc:
        ProbTerm(("A",), ("A",))
    assert str(exc.value) == "at position 0: variables on both sides of '|': ['A']"


@pytest.mark.parametrize("text, position, name", [
    ("P(X,X)", 4, "X"),
    ("P(X|R,R)", 6, "R"),
    ("P(A) P(B) P(X|X)", 14, "X"),  # on both sides of '|'
    ("P(X,Y|Z,Y)", 8, "Y"),
])
def test_repeated_name_in_term_rejected_at_its_position(text, position, name):
    with pytest.raises(EstimandSyntaxError) as exc:
        parse(text)
    assert str(exc.value).startswith(f"at position {position}:")
    assert repr(name) in str(exc.value)


def test_parse_rejects_unused_bound_var():
    # the oracle would sum over Z and the flattened levels could not: refuse it
    for text, position, name in (("sum[B,Z](P(A|B) P(B))", 6, "Z"),
                                 ("sum[A](sum[A](P(A)))", 4, "A")):
        with pytest.raises(EstimandSyntaxError) as exc:
            parse(text)
        assert str(exc.value).startswith(f"at position {position}:")
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


def sorted_key(term):
    """`ProbTerm.key()` as each side, sorted afresh, spells it."""
    body = ",".join(sorted(term.left, key=name_key))
    return f"P({body}|{','.join(sorted(term.right, key=name_key))})" if term.right else f"P({body})"


@pytest.mark.parametrize("left, right, key", [
    (("B", "A"), ("D", "C"), "P(A,B|C,D)"),
    (("V10", "V2'"), ("V2",), "P(V2',V10|V2)"),
    (("A", "A"), (), "P(A,A)"),  # built in code: a repeated name is kept
    (("B", "A", "B"), ("C", "C"), "P(A,B,B|C,C)"),
])
def test_key_reads_the_sorted_scope_and_keeps_a_repeated_name(left, right, key):
    term = ProbTerm(left, right)
    assert term.key() == sorted_key(term) == key


def test_key_of_every_term_is_each_side_sorted(fixture_path):
    texts = [open(fixture_path(f"{stem}.estimand"), encoding="utf-8").read()
             for stem in ("chain7", "chain99", "cone_cloud", "napkin")]
    texts += [make_instance(seed).estimand for seed in range(100)]
    for text in texts:
        expr = parse(text)
        terms = list(prob_terms(expr)) + [t for lv in flatten(expr).levels for t in lv.factors]
        assert [t.key() for t in terms] == [sorted_key(t) for t in terms]


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
                    bindings[term.key()] = bind(inst.data, term.left, term.right)
        for term in prob_terms(expr):
            if term.key() not in bindings:
                bindings[term.key()] = bind(inst.data, term.left, term.right)

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
    a = bind(_tiny_data(), ("A",))
    b = bind(_tiny_data(), ("B",))
    bindings = {"P(A)": a, "P(B)": b}
    # B=1 never occurs, so P(B)=0 there; A=1 also never occurs -> 0/0 = 0
    assert dense_expr_eval(expr, bindings, {"A": 1, "B": 1}, {"A": 2, "B": 2}) == 0.0


def _tiny_data():
    return Dataset(("A", "B"), [(0, 0), (0, 0)], {"A": 2, "B": 2})


def test_product_value_does_not_depend_on_child_order():
    # B=2 is never seen, so P(B) is 0 there and P(A) / (P(B)) divides a
    # nonzero number by zero; P(B) = 0 beside it makes the product 0 in
    # either order, as the engine's zero-suppressed join has it
    data = Dataset(("A", "B"), [(0, 0), (1, 1), (1, 0)], {"A": 2, "B": 3})
    tables = [brute_force_eval(parse(text), data)
              for text in ("P(B) (P(A) / (P(B)))", "(P(A) / (P(B))) P(B)")]
    assert tables[0].names == tables[1].names == ("A", "B")
    assert dict(tables[0].items()) == dict(tables[1].items())
    assert len(dict(tables[0].items())) == 4  # (A, B) for B in {0, 1}
    with pytest.raises(DivisionByZero):  # no zero factor beside the ratio
        brute_force_eval(parse("P(A) (P(A) / (P(B)))"), data)


# -- the parser, against its own grammar and its earlier messages -----------

# Each text with the error class, position and message the token-by-token
# parser gave, which reading each name list as one token must keep. The
# cases after the blank line have a comma list next to `P`, `sum`, `(` or
# `|`; only one right after `P(`, `[` or `|` is read as a name list, so a
# lexer that joined comma lists anywhere would get some of them wrong.
PARSE_ERRORS = [
    ("P(A,)", EstimandSyntaxError, 4, "expected a variable name, found ')'"),
    ("sum[A,]", EstimandSyntaxError, 6, "expected a variable name, found ']'"),
    ("P(A,", EstimandSyntaxError, 4, "expected a variable name, found None"),
    ("P(sum)", EstimandSyntaxError, 2, "expected a variable name, found 'sum'"),
    ("P(A|P)", EstimandSyntaxError, 4, "expected a variable name, found 'P'"),
    ("P(1A)", EstimandSyntaxError, 2, "unexpected character '1'"),
    ("P(A,) '", EstimandSyntaxError, 6, "apostrophes are reserved for the renamer"),
    ("P(A) $", EstimandSyntaxError, 5, "unexpected character '$'"),
    ("P(A, B ,)", EstimandSyntaxError, 8, "expected a variable name, found ')'"),
    ("P(A|B,\n)", EstimandSyntaxError, 7, "expected a variable name, found ')'"),
    ("P(A,\t,B)", EstimandSyntaxError, 5, "expected a variable name, found ','"),
    ("P(A,B|C,) 1", EstimandSyntaxError, 10, "unexpected character '1'"),
    ("P(A1,1)", EstimandSyntaxError, 5, "unexpected character '1'"),
    ("P(A|B,B)", EstimandSyntaxError, 6, "variable 'B' repeated on one side of '|'"),
    ("P(A,A|B)", EstimandSyntaxError, 4, "variable 'A' repeated on one side of '|'"),
    ("P(A|B,A)", EstimandSyntaxError, 6, "variable 'A' on both sides of '|'"),
    ("P(A B)", EstimandSyntaxError, 4, "expected ')', found 'B'"),
    ("P()", EstimandSyntaxError, 2, "expected a variable name, found ')'"),
    ("sum[](P(A))", EstimandSyntaxError, 4, "expected a variable name, found ']'"),
    ("P(A) )", EstimandSyntaxError, 5, "trailing input ')'"),
    ("  ", EstimandSyntaxError, 2, "expected a factor, found None"),
    ("sum[A]P(A)", EstimandSyntaxError, 6, "expected '(', found 'P'"),
    ("sum[A, B](P(A))", UnusedBoundVar, 7, "sum over 'B' that its body never uses"),
    ("sum[B,A](P(A) sum[C](P(C|A)))", UnusedBoundVar, 4,
     "sum over 'B' that its body never uses"),

    ("P,P(A)", EstimandSyntaxError, 1, "expected '(', found ','"),
    ("A,B", EstimandSyntaxError, 0, "expected a factor, found 'A'"),
    ("P(A) P,B", EstimandSyntaxError, 6, "expected '(', found ','"),
    ("sum,A", EstimandSyntaxError, 3, "expected '[', found ','"),
    ("(P,A)", EstimandSyntaxError, 2, "expected '(', found ','"),
    ("P(P,A)", EstimandSyntaxError, 2, "expected a variable name, found 'P'"),
    ("P(A|B,C) |C,D", EstimandSyntaxError, 9, "trailing input '|'"),
    # a list after `P (` is read a name and a comma at a time, and the
    # position of a bad name past the first walks those tokens
    ("P (A,B,A)", EstimandSyntaxError, 7, "variable 'A' repeated on one side of '|'"),
    ("P (A, B,sum)", EstimandSyntaxError, 8, "expected a variable name, found 'sum'"),
    ("P (A,B|C,B)", EstimandSyntaxError, 9, "variable 'B' on both sides of '|'"),
    ("P (A|B, A)", EstimandSyntaxError, 8, "variable 'A' on both sides of '|'"),
    # a list after `P(`, `[` or `|` and blanks is one token
    ("P( A,B,A)", EstimandSyntaxError, 7, "variable 'A' repeated on one side of '|'"),
    ("P(A| B, A)", EstimandSyntaxError, 8, "variable 'A' on both sides of '|'"),
    ("sum[\t A, B](P(A))", UnusedBoundVar, 9, "sum over 'B' that its body never uses"),
]


def test_a_name_list_after_blanks_is_one_token():
    assert _Parser("P( A, B |\tC)sum[ D](").tokens == [
        "P", "(", " A, B", "|", "\tC", ")", "sum", "[", " D", "]", "(", None]
    assert _Parser("P (A,B)").tokens == ["P", "(", "A", ",", "B", ")", None]


@pytest.mark.parametrize("text, cls, position, message", PARSE_ERRORS)
def test_parse_error_class_position_and_message(text, cls, position, message):
    with pytest.raises(EstimandSyntaxError) as exc:
        parse(text)
    assert type(exc.value) is cls
    assert str(exc.value).startswith(f"at position {position}:")
    assert str(exc.value) == f"at position {position}: {message}"


def test_duplicate_bound_variable_message():
    with pytest.raises(DuplicateBoundVar) as exc:
        parse("sum[A,A](P(A))")
    assert str(exc.value) == "duplicate bound variable in sum['A', 'A']"


NAMES = st.sampled_from(["A", "B", "C1", "_x", "V10", "Px", "sumA", "P_", "sum0"])
BLANKS = st.text(st.sampled_from(" \t\n\r\x0b\x0c\x1c \xa0"), max_size=2)


@st.composite
def prob_terms_st(draw):
    left = draw(st.lists(NAMES, min_size=1, max_size=4, unique=True))
    right = draw(st.lists(NAMES.filter(lambda n: n not in left), max_size=3, unique=True))
    return ProbTerm(tuple(left), tuple(right))


def _extend(inner):
    summed = inner.filter(lambda e: free_vars(e)).flatmap(
        lambda e: st.lists(st.sampled_from(sorted(free_vars(e))), min_size=1, max_size=3,
                           unique=True).map(lambda bound: Sum(tuple(bound), e)))
    return st.one_of(st.lists(inner, min_size=2, max_size=3).map(lambda cs: Product(tuple(cs))),
                     st.tuples(inner, inner).map(lambda p: Ratio(*p)),
                     summed)


ASTS = st.recursive(prob_terms_st(), _extend, max_leaves=8)


def write(expr, blank):
    """Estimand text for `expr`, with `blank()` between any two tokens."""
    def names(ns):
        return f"{blank()},{blank()}".join(ns)

    def factor(e):  # what may stand in a product or as a denominator
        return f"({blank()}{write(e, blank)}{blank()})" if isinstance(e, (Product, Ratio)) else \
            write(e, blank)

    if isinstance(expr, ProbTerm):
        right = f"{blank()}|{blank()}{names(expr.right)}" if expr.right else ""
        return f"P{blank()}({blank()}{names(expr.left)}{right}{blank()})"
    if isinstance(expr, Sum):
        return f"sum{blank()}[{blank()}{names(expr.bound)}{blank()}]{blank()}(" \
               f"{blank()}{write(expr.child, blank)}{blank()})"
    if isinstance(expr, Product):
        return "".join(blank() + factor(c) for c in expr.children)
    num = expr.numerator
    num_text = factor(num) if isinstance(num, Ratio) else write(num, blank)
    return f"{num_text}{blank()}/{blank()}{factor(expr.denominator)}"


@settings(max_examples=300, deadline=None)
@given(ASTS, st.data())
def test_written_ast_parses_back_equal(expr, data):
    text = write(expr, lambda: data.draw(BLANKS))
    assert parse(text) == expr


# -- the parser against a scan-first reference -----------------------------


def scan_first_parse(text):
    """Parse with the search for a character that starts no token made
    first: the first such character is the error wherever it is, and only a
    text with none is parsed."""
    bad = _BAD_RE.search(text)
    if bad is not None:
        if bad.group() == "'":
            raise EstimandSyntaxError("apostrophes are reserved for the renamer", bad.start())
        raise EstimandSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    return _Parser(text).parse()


def outcome(parser, text):
    """The AST `parser` makes of `text`, or its error's class and message,
    which starts with the position."""
    try:
        return parser(text)
    except (EstimandSyntaxError, DuplicateBoundVar) as exc:
        return type(exc), str(exc)


# grammar tokens, names that run into digits, blanks and characters that
# start no token; joined with nothing between them, so "A" "1" reads "A1"
# and "," "1" a digit that no name character precedes
PIECES = st.sampled_from(["P", "sum", "(", ")", "[", "]", "|", ",", "/", "A", "B", "C1", "_x",
                          "0", "1", " ", "\x1c", "\xa0", "'", "$", "\u00b2", "\u00e9"])
STRAYS = st.sampled_from(["0", "1", ",", " ", "\x1c", "\xa0", "'", "$", "\u00b2", "\u00e9"])


@pytest.mark.parametrize("text", [
    "P(A,0B|C)", "P(A, 1B)", "P(A|B,1C) sum[B](P(B|C))",
    # an earlier error, then a character that starts no token: the character wins
    "P(A|A) $", "sum[A,A](P(A)) 1",
])
def test_parse_matches_scanning_first_on_known_cases(text):
    assert outcome(parse, text) == outcome(scan_first_parse, text)
    assert isinstance(outcome(parse, text), tuple)


@settings(max_examples=1000, deadline=None)
@given(st.lists(PIECES, max_size=24).map("".join))
def test_parse_matches_scanning_first_on_token_soup(text):
    assert outcome(parse, text) == outcome(scan_first_parse, text)


@settings(max_examples=500, deadline=None)
@given(ASTS, st.data())
def test_parse_matches_scanning_first_on_a_written_ast_with_strays(expr, data):
    # a well-formed text with characters put in or written over, so that
    # they land deep in name lists and after long valid prefixes
    text = write(expr, lambda: data.draw(BLANKS))
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(text)))
        cut = data.draw(st.integers(0, 1))
        text = text[:at] + data.draw(STRAYS) + text[at + cut:]
    assert outcome(parse, text) == outcome(scan_first_parse, text)
