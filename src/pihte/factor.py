"""Relational (zero-suppressed) factors and the algebra CTE needs.

A factor stores only non-zero assignments; everything absent is zero. Scopes
are kept in the canonical global variable order so merges and serialized
output are deterministic.
"""

from __future__ import annotations

import math

from .errors import (
    DivisionInconsistency,
    IncompleteAssignment,
    ScopeConflict,
    UnknownVariable,
)
from .model import Variable, name_key

# Values whose magnitude falls below this after arithmetic are treated as an
# underflow to zero and dropped (the no-zero invariant is kept explicit).
UNDERFLOW_FLOOR = 1e-300


class SparseFactor:
    """Immutable sparse table: sorted assignment tuples -> non-zero floats."""

    __slots__ = ("scope", "_entries", "_sorted_keys", "require_support", "underflow_dropped")

    def __init__(self, scope, entries, require_support=False, underflow_dropped=0):
        scope = tuple(scope)
        order = sorted(range(len(scope)), key=lambda i: name_key(scope[i].name))
        if order != list(range(len(scope))):
            # canonicalize the caller's ordering
            scope_sorted = tuple(scope[i] for i in order)
            entries = {tuple(k[i] for i in order): v for k, v in entries.items()}
            scope = scope_sorted
        names = [v.name for v in scope]
        if len(set(names)) != len(names):
            raise ScopeConflict(f"repeated variable in scope {names}")
        for key, value in entries.items():
            if len(key) != len(scope):
                raise ValueError(f"key {key} does not match scope width {len(scope)}")
            for v, comp in zip(scope, key):
                if not 0 <= comp < v.domain_size:
                    raise ValueError(f"{v.name}={comp} outside domain 0..{v.domain_size - 1}")
            if value == 0.0:
                raise ValueError("zero entries must be represented by absence")
        self.scope = scope
        self._entries = dict(entries)
        self._sorted_keys = sorted(self._entries)
        self.require_support = require_support
        self.underflow_dropped = underflow_dropped

    # -- introspection -----------------------------------------------------

    @property
    def names(self):
        return tuple(v.name for v in self.scope)

    @property
    def tightness(self) -> int:
        return len(self._entries)

    @property
    def density(self) -> float:
        cells = 1.0
        for v in self.scope:
            cells *= v.domain_size
        return len(self._entries) / cells

    def items(self):
        for key in self._sorted_keys:
            yield key, self._entries[key]

    def total(self) -> float:
        return math.fsum(self._entries.values())

    def __eq__(self, other):
        if not isinstance(other, SparseFactor):
            return NotImplemented
        return self.scope == other.scope and self._entries == other._entries

    def __repr__(self):
        return f"SparseFactor({','.join(self.names)}; t={self.tightness})"

    def allclose(self, other, rel=1e-9, abs_tol=0.0):
        if self.names != other.names:
            return False
        keys = set(self._entries) | set(other._entries)
        for k in keys:
            a = self._entries.get(k, 0.0)
            b = other._entries.get(k, 0.0)
            if abs(a - b) > max(rel * max(abs(a), abs(b)), abs_tol):
                return False
        return True

    # -- evaluation --------------------------------------------------------

    def dense_eval(self, assignment) -> float:
        """Value under a full assignment (mapping name -> state); absent -> 0."""
        try:
            key = tuple(assignment[v.name] for v in self.scope)
        except KeyError as exc:
            raise IncompleteAssignment(f"missing {exc.args[0]!r}") from None
        return self._entries.get(key, 0.0)

    def restrict(self, partial) -> "SparseFactor":
        """Keep only entries consistent with a partial assignment (scope unchanged)."""
        positions = [(i, partial[v.name]) for i, v in enumerate(self.scope) if v.name in partial]
        if not positions:
            return self
        kept = {k: val for k, val in self._entries.items()
                if all(k[i] == want for i, want in positions)}
        return SparseFactor(self.scope, kept, self.require_support)

    def rename(self, mapping) -> "SparseFactor":
        """Rename scope variables; entries are re-sorted into canonical order."""
        scope = tuple(Variable(mapping.get(v.name, v.name), v.domain_size) for v in self.scope)
        return SparseFactor(scope, dict(self._entries), self.require_support)


def unit_factor() -> SparseFactor:
    """The empty-scope multiplicative identity {() -> 1.0}."""
    return SparseFactor((), {(): 1.0})


def _merged_scope(f: SparseFactor, g: SparseFactor):
    by_name = {v.name: v for v in f.scope}
    for v in g.scope:
        prior = by_name.get(v.name)
        if prior is not None and prior.domain_size != v.domain_size:
            raise ScopeConflict(
                f"{v.name!r}: domain {prior.domain_size} vs {v.domain_size}"
            )
        by_name.setdefault(v.name, v)
    return tuple(sorted(by_name.values(), key=lambda v: name_key(v.name)))


def product(f: SparseFactor, g: SparseFactor) -> SparseFactor:
    """Sort-merge join on the shared variables; output keyed on the union scope.

    An output entry exists iff both projections exist, so multiplication is
    absorbing relative to zero. If one operand is flagged `require_support`
    (an inverted denominator output), any partner entry falling outside its
    support means a nonzero numerator over a zero denominator.
    """
    scope = _merged_scope(f, g)
    shared = [v.name for v in scope if v.name in set(f.names) & set(g.names)]

    def keyed(fac):
        pos = {n: i for i, n in enumerate(fac.names)}
        spos = [pos[n] for n in shared]
        out = [(tuple(k[i] for i in spos), k, v) for k, v in fac.items()]
        out.sort(key=lambda t: t[0])
        return out

    fe, ge = keyed(f), keyed(g)
    f_pos = {n: i for i, n in enumerate(f.names)}
    g_pos = {n: i for i, n in enumerate(g.names)}
    slots = [
        (0, f_pos[v.name]) if v.name in f_pos else (1, g_pos[v.name])
        for v in scope
    ]

    entries = {}
    dropped = 0
    i = j = 0
    while i < len(fe) and j < len(ge):
        si, sj = fe[i][0], ge[j][0]
        if si < sj:
            if g.require_support:
                raise DivisionInconsistency(
                    f"entry {dict(zip(f.names, fe[i][1]))} has no denominator support"
                )
            i += 1
        elif sj < si:
            if f.require_support:
                raise DivisionInconsistency(
                    f"entry {dict(zip(g.names, ge[j][1]))} has no denominator support"
                )
            j += 1
        else:
            i2 = i
            while i2 < len(fe) and fe[i2][0] == si:
                i2 += 1
            j2 = j
            while j2 < len(ge) and ge[j2][0] == si:
                j2 += 1
            for _, fk, fv in fe[i:i2]:
                for _, gk, gv in ge[j:j2]:
                    val = fv * gv
                    if abs(val) < UNDERFLOW_FLOOR:
                        dropped += 1
                        continue
                    key = tuple(fk[p] if side == 0 else gk[p] for side, p in slots)
                    entries[key] = val
            i, j = i2, j2
    if g.require_support and i < len(fe):
        raise DivisionInconsistency(
            f"entry {dict(zip(f.names, fe[i][1]))} has no denominator support"
        )
    if f.require_support and j < len(ge):
        raise DivisionInconsistency(
            f"entry {dict(zip(g.names, ge[j][1]))} has no denominator support"
        )
    return SparseFactor(scope, entries, underflow_dropped=dropped)


def marginalize(f: SparseFactor, out_vars) -> SparseFactor:
    """Sum out `out_vars`; exact-zero results are dropped."""
    out = set(out_vars)
    unknown = out - set(f.names)
    if unknown:
        raise UnknownVariable(f"not in scope: {sorted(unknown)}")
    if not out:
        return f
    keep = [i for i, v in enumerate(f.scope) if v.name not in out]
    scope = tuple(f.scope[i] for i in keep)
    sums = {}
    for key, value in f.items():
        new_key = tuple(key[i] for i in keep)
        sums.setdefault(new_key, []).append(value)
    entries = {}
    dropped = 0
    for key, values in sums.items():
        total = math.fsum(values)
        if total == 0.0 or abs(total) < UNDERFLOW_FLOOR:
            dropped += 1
            continue
        entries[key] = total
    return SparseFactor(scope, entries, underflow_dropped=dropped)


def invert(f: SparseFactor) -> SparseFactor:
    """Entrywise reciprocal over the same support, flagged `require_support`:
    a partner entry outside that support is a nonzero over a zero."""
    return SparseFactor(
        f.scope, {k: 1.0 / v for k, v in f._entries.items()}, require_support=True
    )


# -- debug serialization (test fixtures) ----------------------------------

def dumps(f: SparseFactor) -> str:
    """One header line `scope: a,b,...` then one `v1,v2,...=value` line per entry."""
    lines = ["scope: " + ",".join(f"{v.name}:{v.domain_size}" for v in f.scope)]
    for key, value in f.items():
        lines.append(",".join(str(c) for c in key) + "=" + repr(value))
    return "\n".join(lines) + "\n"


def loads(text: str) -> SparseFactor:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    header = lines[0]
    if not header.startswith("scope:"):
        raise ValueError("missing scope header")
    spec = header[len("scope:"):].strip()
    scope = []
    if spec:
        for part in spec.split(","):
            name, k = part.split(":")
            scope.append(Variable(name.strip(), int(k)))
    entries = {}
    for line in lines[1:]:
        key_s, _, val_s = line.partition("=")
        key = tuple(int(c) for c in key_s.split(",")) if key_s.strip() else ()
        entries[key] = float(val_s)
    return SparseFactor(tuple(scope), entries)
