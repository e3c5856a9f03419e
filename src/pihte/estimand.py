"""Estimand language: parsing, flattening, and the sum-product hierarchy.

Flattening hoists every summation nested under a product to the front of its
level, renaming bound variables with trailing primes whenever hoisting would
capture a name that is already in use. Each ratio denominator becomes a child
level whose inverted output function feeds back into its numerator's level.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass, field
from functools import cached_property

from .errors import (
    DenseLimitExceeded,
    DivisionByZero,
    DuplicateBoundVar,
    EstimandSyntaxError,
    UnusedBoundVar,
)
from .model import name_key

# -- AST -------------------------------------------------------------------


@dataclass(frozen=True)
class ProbTerm:
    left: tuple
    right: tuple = ()

    def __post_init__(self):  # for terms built in code; the parser reports the position
        if set(self.left) & set(self.right):
            raise EstimandSyntaxError(
                f"variables on both sides of '|': {sorted(set(self.left) & set(self.right))}", 0
            )

    @cached_property
    def scope(self):  # sorted once, on first use
        return tuple(sorted(set(self.left) | set(self.right), key=name_key))

    def key(self) -> str:
        """Canonical text form, used to bind factors to terms."""
        body = ",".join(sorted(self.left, key=name_key))
        if self.right:
            body += "|" + ",".join(sorted(self.right, key=name_key))
        return f"P({body})"


@dataclass(frozen=True)
class Product:
    children: tuple


@dataclass(frozen=True)
class Sum:
    bound: tuple
    child: object

    def __post_init__(self):  # for sums built in code; the parser reports the position
        used = free_vars(self.child)
        for name in self.bound:
            if name not in used:
                raise UnusedBoundVar(name)


@dataclass(frozen=True)
class Ratio:
    numerator: object
    denominator: object


def free_vars(expr) -> frozenset:
    if isinstance(expr, ProbTerm):
        return frozenset(expr.left) | frozenset(expr.right)
    if isinstance(expr, Product):
        out = frozenset()
        for c in expr.children:
            out |= free_vars(c)
        return out
    if isinstance(expr, Sum):
        return free_vars(expr.child) - frozenset(expr.bound)
    if isinstance(expr, Ratio):
        return free_vars(expr.numerator) | free_vars(expr.denominator)
    raise TypeError(type(expr))


def prob_terms(expr):
    """All ProbTerm nodes, in left-to-right source order."""
    if isinstance(expr, ProbTerm):
        yield expr
    elif isinstance(expr, Product):
        for c in expr.children:
            yield from prob_terms(c)
    elif isinstance(expr, Sum):
        yield from prob_terms(expr.child)
    elif isinstance(expr, Ratio):
        yield from prob_terms(expr.numerator)
        yield from prob_terms(expr.denominator)


# -- parser ----------------------------------------------------------------

# Deepest nesting of parenthesized sub-expressions (a sum's body, a grouped
# factor or a denominator). Parsing, flattening and dense evaluation recurse
# a few frames per nesting, so this keeps them inside Python's default
# recursion limit of 1000.
MAX_NESTING = 100

# Every non-blank character starts a token; `bad` catches the first that
# starts no valid one.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<ident>[A-Za-z_][A-Za-z0-9_]*)|(?P<punct>[()\[\]|,/])|(?P<bad>\S))"
)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            token = (kind, m.group(kind), m.start(kind))
            if kind == "bad":
                if token[1] == "'":
                    raise EstimandSyntaxError("apostrophes are reserved for the renamer", token[2])
                raise EstimandSyntaxError(f"unexpected character {token[1]!r}", token[2])
            self.tokens.append(token)

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, value):
        kind, val, at = self.next()
        if val != value:
            raise EstimandSyntaxError(f"expected {value!r}, found {val!r}", at)

    def parse(self):
        expr = self.expr()
        kind, val, at = self.peek()
        if kind is not None:
            raise EstimandSyntaxError(f"trailing input {val!r}", at)
        return expr

    def expr(self):
        num = self.product()
        kind, val, _ = self.peek()
        if val == "/":
            self.next()
            return Ratio(num, self.factor())
        return num

    def group(self):
        """`( expr )`, at most MAX_NESTING deep."""
        at = self.peek()[2]
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise EstimandSyntaxError(f"nesting deeper than {MAX_NESTING}", at)
        inner = self.expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def product(self):
        factors = [self.factor()]
        while True:
            kind, val, _ = self.peek()
            if kind == "ident" and val in ("P", "sum") or val == "(":
                factors.append(self.factor())
            else:
                break
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self):
        kind, val, at = self.peek()
        if val == "(":
            return self.group()
        if kind == "ident" and val == "P":
            return self.prob()
        if kind == "ident" and val == "sum":
            return self.sum()
        raise EstimandSyntaxError(f"expected a factor, found {val!r}", at)

    def prob(self):
        self.next()  # 'P'
        self.expect("(")
        left = self.varlist(distinct=True)
        right = ()
        if self.peek()[1] == "|":
            self.next()
            right = self.varlist(distinct=True, other_side=set(left))
        self.expect(")")
        return ProbTerm(left, right)

    def sum(self):
        """`sum[names](expr)`; each name bound once and used in the body."""
        self.next()  # 'sum'
        self.expect("[")
        first = self.pos
        bound = self.varlist()
        if len(set(bound)) != len(bound):
            raise DuplicateBoundVar(f"duplicate bound variable in sum{list(bound)}")
        self.expect("]")
        child = self.group()
        try:
            return Sum(bound, child)
        except UnusedBoundVar as exc:
            at = self.tokens[first + 2 * bound.index(exc.name)][2]
            raise UnusedBoundVar(exc.name, at) from None

    def varlist(self, distinct=False, other_side=()):
        """Comma-separated names; with `distinct`, each at most once and none
        from `other_side` (the left of a term's '|')."""
        names, seen = [], set()
        while True:
            kind, val, at = self.next()
            if kind != "ident" or val in ("P", "sum"):
                raise EstimandSyntaxError(f"expected a variable name, found {val!r}", at)
            if distinct and val in seen:
                raise EstimandSyntaxError(f"variable {val!r} repeated on one side of '|'", at)
            if val in other_side:
                raise EstimandSyntaxError(f"variable {val!r} on both sides of '|'", at)
            names.append(val)
            seen.add(val)
            kind, val, _ = self.peek()
            if val == ",":
                self.next()
            else:
                return tuple(names)


def parse(text: str):
    """Parse estimand text into an AST."""
    return _Parser(text).parse()


# -- flattening ------------------------------------------------------------


@dataclass
class FlatLevel:
    level_id: int
    factors: list = field(default_factory=list)        # ProbTerm, post-renaming
    child_outputs: list = field(default_factory=list)  # (child_level_id, scope tuple)
    sum_vars: tuple = ()
    free_vars: tuple = ()
    children: list = field(default_factory=list)
    rename_map: tuple = ()  # ((original, fresh), ...) in renaming order

    @property
    def factor_scopes(self):
        scopes = [t.scope for t in self.factors]
        scopes.extend(scope for _, scope in self.child_outputs)
        return scopes


@dataclass
class Hierarchy:
    levels: list
    root: int = 0

    def level(self, level_id: int) -> FlatLevel:
        return self.levels[level_id]

    @property
    def depth(self) -> int:
        def below(lid):
            lv = self.levels[lid]
            return 1 + max((below(c) for c in lv.children), default=0)

        return below(self.root)


def _fresh(name: str, used: set) -> str:
    candidate = name + "'"
    while candidate in used:
        candidate += "'"
    return candidate


def flatten(expr) -> Hierarchy:
    """Flatten an AST into its sum-product hierarchy.

    Bound variables are renamed (trailing primes) exactly when their name is
    already in use, either free anywhere in the estimand or bound by an
    already-processed summation. Ratio denominators spawn child levels;
    numerators flatten into the enclosing level.
    """
    used = set(free_vars(expr))
    levels = []
    renames = {}  # level_id -> list of pairs

    def new_level() -> FlatLevel:
        lv = FlatLevel(level_id=len(levels))
        levels.append(lv)
        renames[lv.level_id] = []
        return lv

    def walk(node, level, subst):
        if isinstance(node, ProbTerm):
            level.factors.append(
                ProbTerm(
                    tuple(subst.get(n, n) for n in node.left),
                    tuple(subst.get(n, n) for n in node.right),
                )
            )
        elif isinstance(node, Product):
            for c in node.children:
                walk(c, level, subst)
        elif isinstance(node, Sum):
            inner = dict(subst)
            hoisted = list(level.sum_vars)
            for b in node.bound:  # the parser admits no bound name its body leaves unused
                if b in used:
                    fresh = _fresh(b, used)
                    inner[b] = fresh
                    renames[level.level_id].append((b, fresh))
                else:
                    fresh = b
                used.add(fresh)
                hoisted.append(fresh)
            level.sum_vars = tuple(hoisted)
            walk(node.child, level, inner)
        elif isinstance(node, Ratio):
            walk(node.numerator, level, subst)
            child = new_level()
            level.children.append(child.level_id)
            walk(node.denominator, child, subst)
            finish(child)
            level.child_outputs.append((child.level_id, child.free_vars))
        else:
            raise TypeError(type(node))

    def finish(level):
        seen = set()
        for scope in level.factor_scopes:
            seen.update(scope)
        level.free_vars = tuple(
            sorted(seen - set(level.sum_vars), key=name_key)
        )
        level.rename_map = tuple(renames[level.level_id])

    root = new_level()
    walk(expr, root, {})
    finish(root)
    return Hierarchy(levels=levels, root=root.level_id)


# -- dense literal evaluation (flattening soundness oracle) ----------------


def dense_expr_eval(expr, bindings, assignment, domains, dense_limit=10**6):
    """Literal recursive AST evaluation at one assignment of its free variables.

    `bindings` maps ProbTerm.key() to a SparseFactor; sums enumerate their
    bound variables densely; ratios divide, with 0/0 evaluating to 0.
    """
    if isinstance(expr, ProbTerm):
        try:
            factor = bindings[expr.key()]
        except KeyError:
            raise KeyError(f"no factor bound for {expr.key()}") from None
        return factor.dense_eval(assignment)
    if isinstance(expr, Product):
        out = 1.0
        for c in expr.children:
            out *= dense_expr_eval(c, bindings, assignment, domains, dense_limit)
            if out == 0.0:
                return 0.0
        return out
    if isinstance(expr, Sum):
        cells = 1
        for b in expr.bound:
            cells *= domains[b]
        if cells > dense_limit:
            raise DenseLimitExceeded(f"{cells} cells exceeds limit {dense_limit}")
        total = []
        local = dict(assignment)
        for values in itertools.product(*(range(domains[b]) for b in expr.bound)):
            local.update(zip(expr.bound, values))
            total.append(dense_expr_eval(expr.child, bindings, local, domains, dense_limit))
        return math.fsum(total)
    if isinstance(expr, Ratio):
        num = dense_expr_eval(expr.numerator, bindings, assignment, domains, dense_limit)
        den = dense_expr_eval(expr.denominator, bindings, assignment, domains, dense_limit)
        if den == 0.0:
            if num == 0.0:
                return 0.0
            raise DivisionByZero(f"{num} / 0 at {dict(assignment)}")
        return num / den
    raise TypeError(type(expr))
