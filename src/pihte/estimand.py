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
from .model import name_key, sides

# -- AST -------------------------------------------------------------------


# Each node holds `free`, the variables it leaves free, set once when it is
# made (frozen dataclasses are written through object.__setattr__).


@dataclass(frozen=True)
class ProbTerm:
    left: tuple
    right: tuple = ()
    free: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # for terms built in code; the parser reports the position
        object.__setattr__(self, "free", frozenset((*self.left, *self.right)))
        if len(self.free) < len(self.left) + len(self.right) and set(self.left) & set(self.right):
            both = sorted(set(self.left) & set(self.right))
            raise EstimandSyntaxError(f"variables on both sides of '|': {both}", 0)

    @cached_property
    def scope(self):  # sorted once, on first use; the conditioning side often sorts first
        names = (*self.right, *self.left)
        return tuple(sorted(names if len(names) == len(self.free) else self.free, key=name_key))

    def key(self) -> str:
        """Canonical text form, used to bind factors to terms: each side in
        canonical order, read off `scope` unless a name repeats."""
        if len(self.scope) == len(self.left) + len(self.right):
            left, right = sides(self.scope, self.right, self.scope)
        else:  # built in code: the repeated name stays
            left, right = sorted(self.left, key=name_key), sorted(self.right, key=name_key)
        return f"P({','.join(left)}{'|' if right else ''}{','.join(right)})"


@dataclass(frozen=True)
class Product:
    children: tuple
    free: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "free", frozenset().union(*map(free_vars, self.children)))


@dataclass(frozen=True)
class Sum:
    bound: tuple
    child: object
    free: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):  # for sums built in code; the parser reports the position
        used = free_vars(self.child)
        for name in self.bound:
            if name not in used:
                raise UnusedBoundVar(name)
        object.__setattr__(self, "free", used.difference(self.bound))


@dataclass(frozen=True)
class Ratio:
    numerator: object
    denominator: object
    free: frozenset = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "free",
                           free_vars(self.numerator) | free_vars(self.denominator))


def free_vars(expr) -> frozenset:
    """The variables `expr` leaves free, which each node holds from when it is made."""
    if not isinstance(expr, (ProbTerm, Product, Sum, Ratio)):
        raise TypeError(type(expr))
    return expr.free


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

# The first character that starts no token: one outside the grammar's
# alphabet, or a digit that no name character precedes. (One character class
# and a look-behind, so the search skips blanks, letters and punctuation
# without trying the pattern.)
_BAD_RE = re.compile(r"[^\sA-Za-z_()\[\]|,/](?<![A-Za-z0-9_][0-9])")
# A token: a name list right after `P(`, `[` or `|`, a name, or a punctuation
# character. The parser passes those three only to read a name list, so a
# list is one token there: its names, its commas and any blanks around the
# commas (a run without blanks is read first, which is faster). Blanks and
# characters that start no token fall between the matches.
_NAME = r"[A-Za-z_][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"(?:(?<=P\()|(?<=[\[|])){_NAME}(?:,{_NAME})*(?:\s*,\s*{_NAME})*|{_NAME}"
                       r"|[()\[\]|,/]")
_KEYWORDS = frozenset(("P", "sum"))


class _Parser:
    """Recursive descent over the text's tokens, read with one `findall`:
    `i` indexes the current one, and None ends the list. A token's offset is
    looked up only when an error names it. The tokens skip any character
    that starts none, so only a text without one is parsed (see `parse`)."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _TOKEN_RE.findall(text) + [None]
        self.i = 0
        self.depth = 0

    def at(self, k, j=0):
        """The offset of token `k` or, in the name list that starts there,
        of its `j`-th name (a list walked name by name has a comma token
        after each name)."""
        if self.tokens[k] is None:
            return len(self.text)
        while j > self.tokens[k].count(","):
            j -= self.tokens[k].count(",") + 1
            k += 2
        m = next(itertools.islice(_TOKEN_RE.finditer(self.text), k, None))
        pieces = m.group().split(",")[:j + 1]
        return m.start() + len(",".join(pieces)) - len(pieces[-1].lstrip())

    def expect(self, value):
        tok = self.tokens[self.i]
        if tok != value:
            raise EstimandSyntaxError(f"expected {value!r}, found {tok!r}", self.at(self.i))
        self.i += 1

    def parse(self):
        expr = self.expr()
        tok = self.tokens[self.i]
        if tok is not None:
            raise EstimandSyntaxError(f"trailing input {tok!r}", self.at(self.i))
        return expr

    def expr(self):
        num = self.product()
        if self.tokens[self.i] == "/":
            self.i += 1
            return Ratio(num, self.factor())
        return num

    def group(self):
        """`( expr )`, at most MAX_NESTING deep."""
        self.expect("(")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise EstimandSyntaxError(f"nesting deeper than {MAX_NESTING}", self.at(self.i - 1))
        inner = self.expr()
        self.expect(")")
        self.depth -= 1
        return inner

    def product(self):
        factors = [self.factor()]
        while self.tokens[self.i] in ("P", "sum", "("):
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self):
        tok = self.tokens[self.i]
        if tok == "(":
            return self.group()
        if tok == "P":
            return self.prob()
        if tok == "sum":
            return self.sum()
        raise EstimandSyntaxError(f"expected a factor, found {tok!r}", self.at(self.i))

    def prob(self):
        self.i += 1  # 'P'
        self.expect("(")
        left = self.varlist(distinct=True)
        right = ()
        if self.tokens[self.i] == "|":
            self.i += 1
            right = self.varlist(distinct=True, other_side=set(left))
        self.expect(")")
        return ProbTerm(left, right)

    def sum(self):
        """`sum[names](expr)`; each name bound once and used in the body."""
        self.i += 1  # 'sum'
        self.expect("[")
        first = self.i
        bound = self.varlist()
        if len(set(bound)) != len(bound):
            raise DuplicateBoundVar(f"duplicate bound variable in sum{list(bound)}")
        self.expect("]")
        child = self.group()
        try:
            return Sum(bound, child)
        except UnusedBoundVar as exc:
            raise UnusedBoundVar(exc.name, self.at(first, bound.index(exc.name))) from None

    def varlist(self, distinct=False, other_side=()):
        """Comma-separated names; with `distinct`, each at most once and none
        from `other_side` (the left of a term's '|').

        A list that starts right after `P(`, `[` or `|` is one token, split
        at its commas and checked as sets; one that starts after a blank is
        read a name and a comma at a time. Only when a check fails are the
        names walked in order, to name the first offending one and where it
        is."""
        first, names, seen = self.i, [], set()
        while True:
            tok = self.tokens[self.i]
            if tok is None or tok in "()[]|,/":  # no name token is a substring of these
                raise EstimandSyntaxError(f"expected a variable name, found {tok!r}",
                                          self.at(self.i))
            part = "".join(tok.split()).split(",")
            names += part
            seen.update(part)
            if (not seen.isdisjoint(_KEYWORDS) or not seen.isdisjoint(other_side)
                    or distinct and len(seen) < len(names)):
                break
            self.i += 1
            if self.tokens[self.i] != ",":
                return tuple(names)
            self.i += 1
        seen = set()
        for j, name in enumerate(names):  # the first name that fails a check
            if name in _KEYWORDS:
                message = f"expected a variable name, found {name!r}"
            elif distinct and name in seen:
                message = f"variable {name!r} repeated on one side of '|'"
            elif name in other_side:
                message = f"variable {name!r} on both sides of '|'"
            else:
                seen.add(name)
                continue
            raise EstimandSyntaxError(message, self.at(first, j))


def parse(text: str):
    """Parse estimand text into an AST. The text's first character that
    starts no token, if it has one, is the error, wherever it is: `P(A|A) $`
    reports the `$`. It is looked for only when the tokens hold fewer
    non-blank characters than the text."""
    parser = _Parser(text)
    if len("".join("".join(parser.tokens[:-1]).split())) < len("".join(text.split())):
        bad = _BAD_RE.search(text)
        if bad.group() == "'":
            raise EstimandSyntaxError("apostrophes are reserved for the renamer", bad.start())
        raise EstimandSyntaxError(f"unexpected character {bad.group()!r}", bad.start())
    return parser.parse()


# -- flattening ------------------------------------------------------------


@dataclass
class FlatLevel:
    level_id: int
    factors: list = field(default_factory=list)        # ProbTerm, post-renaming
    child_outputs: list = field(default_factory=list)  # (child_level_id, scope tuple)
    sum_vars: tuple = ()
    free_vars: tuple = ()
    rename_map: tuple = ()  # ((original, fresh), ...) in renaming order
    numerator: range = range(0)  # the parent's factors under this level's ratio's numerator

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
        depth, frontier = 0, [self.root]
        while frontier:
            depth += 1
            frontier = [c for lid in frontier for c, _ in self.levels[lid].child_outputs]
        return depth


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
    numerators flatten into the enclosing level. A term no renaming touches
    is kept as it is, not copied.
    """
    root = FlatLevel(level_id=0)
    levels = [root]
    _walk(expr, root, {}, set(free_vars(expr)), levels)
    _finish(root)
    return Hierarchy(levels=levels, root=root.level_id)


def _walk(node, level, subst, used, levels):
    """Flatten `node` into `level` under the renaming `subst`; `used` holds
    every name taken so far, and `levels` every level made so far. (Module
    functions, not closures, so a flattening leaves no reference cycle that
    would keep its levels alive until the garbage collector runs.)"""
    if isinstance(node, ProbTerm):
        if not subst.keys().isdisjoint(node.free):
            node = ProbTerm(tuple(map(subst.get, node.left, node.left)),
                            tuple(map(subst.get, node.right, node.right)))
        level.factors.append(node)
    elif isinstance(node, Product):
        for c in node.children:
            _walk(c, level, subst, used, levels)
    elif isinstance(node, Sum):
        inner = dict(subst)
        hoisted = list(level.sum_vars)
        for b in node.bound:  # the parser admits no bound name its body leaves unused
            if b in used:
                fresh = _fresh(b, used)
                inner[b] = fresh
                level.rename_map += ((b, fresh),)
            else:
                fresh = b
            used.add(fresh)
            hoisted.append(fresh)
        level.sum_vars = tuple(hoisted)
        _walk(node.child, level, inner, used, levels)
    elif isinstance(node, Ratio):
        start = len(level.factors)
        _walk(node.numerator, level, subst, used, levels)
        child = FlatLevel(level_id=len(levels), numerator=range(start, len(level.factors)))
        levels.append(child)
        _walk(node.denominator, child, subst, used, levels)
        _finish(child)
        level.child_outputs.append((child.level_id, child.free_vars))
    else:
        raise TypeError(type(node))


def _finish(level):
    seen = set().union(*level.factor_scopes)
    level.free_vars = tuple(sorted(seen.difference(level.sum_vars), key=name_key))


# -- dense literal evaluation (flattening soundness oracle) ----------------


def dense_expr_eval(expr, bindings, assignment, domains, dense_limit=10**6):
    """Literal recursive AST evaluation at one assignment of its free variables.

    `bindings` maps ProbTerm.key() to a SparseFactor; sums enumerate their
    bound variables densely; ratios divide, with 0/0 evaluating to 0. A
    product is 0 when one of its children is 0, even where another divides
    by zero, and else raises the first child's DivisionByZero, so its value
    does not depend on the order of its children. It stops at the first
    zero child, which keeps nested sums under zero factors unevaluated.
    """
    if isinstance(expr, ProbTerm):
        try:
            factor = bindings[expr.key()]
        except KeyError:
            raise KeyError(f"no factor bound for {expr.key()}") from None
        return factor.dense_eval(assignment)
    if isinstance(expr, Product):
        out, error = 1.0, None
        for c in expr.children:
            try:
                value = dense_expr_eval(c, bindings, assignment, domains, dense_limit)
            except DivisionByZero as exc:
                error = error or exc
                continue
            if value == 0.0:  # no other child can change the product now
                return 0.0
            out *= value
        if error is not None:
            raise error
        return out
    if isinstance(expr, Sum):
        cells = math.prod(domains[b] for b in expr.bound)
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
