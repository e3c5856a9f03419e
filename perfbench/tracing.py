"""Spans around pihte's public functions, recorded from outside the program.

`Tracer.install()` replaces each traced function with a wrapper in every
module that looks the function up by name (``cli`` and ``engine`` import
``decompose``, ``empirical_prob`` and others with ``from ... import``), so
the wrapper sees every call whichever module makes it. `uninstall()` puts
the originals back. Spans stay in memory until `write_jsonl`.

A span is ``[name, start, end, parent, phase, query, counts]``: ``parent``
is the index of the enclosing span or -1, ``phase`` is ``setup``, ``query``
or ``check``, and ``counts`` holds the sizes seen at that boundary.
"""

from __future__ import annotations

import json
import time

NAME, START, END, PARENT, PHASE, QUERY, COUNTS = range(7)


def _product_counts(args, out):
    f, g = args[0], args[1]
    return {
        "entries_in": f.tightness + g.tightness,
        "entries_out": out.tightness,
        "fanout": out.tightness / max(f.tightness, g.tightness, 1),
        "underflow_dropped": out.underflow_dropped,
    }


def _marginalize_counts(args, out):
    counts = {"entries_in": args[0].tightness, "entries_out": out.tightness}
    if out is not args[0]:  # summing out nothing returns the input itself
        counts["underflow_dropped"] = out.underflow_dropped
    return counts


def _empirical_counts(args, out):
    return {"rows_scanned": args[0].n_rows, "entries_out": out.tightness}


def _width_counts(args, out):
    return {"hw": out.hyperwidth, "w": out.treewidth}


# (module, function, counter) for every traced public function; its spans are
# named "<module>.<function>".
TRACED = (
    ("estimand", "parse", None),
    ("estimand", "flatten", None),
    ("decomposition", "decompose", _width_counts),
    ("decomposition", "gyo_acyclic", None),
    ("decomposition", "cover_width_excluding_outputs", None),
    ("decomposition", "load_decomposition", _width_counts),
    ("decomposition", "validate", None),
    ("model", "empirical_prob", _empirical_counts),
    ("model", "load_dataset", None),
    ("model", "load_graph", None),
    ("factor", "product", _product_counts),
    ("factor", "marginalize", _marginalize_counts),
    ("factor", "invert", None),
    ("engine", "pi_hte", None),
    ("engine", "cte", None),
    ("engine", "brute_force_eval", None),
    ("cli", "main", None),
    ("simulate", "random_cbn", None),
    ("simulate", "sample_dataset", None),
    ("suite", "make_instance", None),
)
MODULES = ("estimand", "decomposition", "model", "factor", "engine", "cli",
           "simulate", "suite")


class Tracer:
    """Records one span per call of each traced pihte function."""

    def __init__(self, pihte):
        self.pihte = pihte
        self.spans = []
        self._stack = []
        self._patches = []
        self.phase = None
        self.query = None
        self.t0 = time.perf_counter()

    def _wrap(self, name, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1,
                    self.phase, self.query, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if counter is not None:
                span[COUNTS] = counter(args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, phase, query=None):
        """Wrap every traced function until `uninstall`; spans get this tag."""
        self.phase, self.query = phase, query
        modules = [getattr(self.pihte, m) for m in MODULES]
        for home, attr, counter in TRACED:
            original = getattr(getattr(self.pihte, home), attr)
            wrapper = self._wrap(f"{home}.{attr}", original, counter)
            for mod in modules:
                if getattr(mod, attr, None) is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
        cls = self.pihte.factor.SparseFactor
        init = cls.__init__
        self._patches.append((cls, "__init__", init))
        cls.__init__ = self._wrap("factor.SparseFactor.init", init, None)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        self.phase = self.query = None

    def write_jsonl(self, path):
        """One span per line, so a span's id is its line number from 0 and
        `parent` names a line; times are seconds since the tracer was made."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                rec = {"name": span[NAME],
                       "start": round(span[START] - self.t0, 7),
                       "end": round(span[END] - self.t0, 7), "parent": span[PARENT],
                       "phase": span[PHASE], "query": span[QUERY]}
                if span[COUNTS]:
                    rec.update(span[COUNTS])
                fh.write(json.dumps(rec) + "\n")


def self_times(spans):
    """Each span's duration minus the time its direct children cover.

    Calls run on one thread, so children of one span never overlap.
    """
    child = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child[span[PARENT]] += span[END] - span[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


def layer_metrics(spans, n_queries, rows_of):
    """Per-layer numbers from the spans of one traced run.

    Additive query figures (seconds, calls, entries) are means per traced
    query; set-up figures are per traced set-up (there is one); the oracle is
    timed per call. `.s` is inclusive time of the outermost call of a
    function, `.self_s` excludes the traced functions it calls.
    `rows_of(query)` gives the row count of that query's data, or None.
    Returns the metrics and each query's largest product/marginalize output.
    """
    selfs = self_times(spans)
    total, self_total, calls, counts = {}, {}, {}, {}
    maxima = {"fanout": 0.0, "hw": 0, "w": 0}
    peak_by_query = {}
    oracle_calls = 0
    for i, span in enumerate(spans):
        name, phase = span[NAME], span[PHASE]
        if name == "engine.brute_force_eval":
            oracle_calls += 1
        elif phase != "query" and not name.startswith(("simulate.", "suite.")):
            continue
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + selfs[i]
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] != name:
            p = spans[p][PARENT]
        if p < 0:  # not nested in another call of the same function
            total[name] = total.get(name, 0.0) + span[END] - span[START]
        for key, value in (span[COUNTS] or {}).items():
            if key in maxima:
                maxima[key] = max(maxima[key], value)
                continue
            counts[(name, key)] = counts.get((name, key), 0) + value
            if key == "entries_out" and name in ("factor.product", "factor.marginalize"):
                q = span[QUERY]
                peak_by_query[q] = max(peak_by_query.get(q, 0), value)

    nq = max(n_queries, 1)
    out = {}
    timed_and_counted = (
        "factor.product", "factor.marginalize", "factor.SparseFactor.init",
        "model.empirical_prob", "decomposition.decompose", "decomposition.gyo_acyclic",
        "decomposition.cover_width_excluding_outputs",
        "decomposition.load_decomposition", "decomposition.validate")
    for name in timed_and_counted + ("factor.invert", "model.load_dataset",
                                     "estimand.parse", "estimand.flatten"):
        out[name + ".s"] = total.get(name, 0.0) / nq
    for name in timed_and_counted:
        out[name + ".calls"] = calls.get(name, 0) / nq
    for name, key in (("factor.product", "entries_in"), ("factor.product", "entries_out"),
                      ("factor.marginalize", "entries_in"),
                      ("factor.marginalize", "entries_out"),
                      ("model.empirical_prob", "rows_scanned"),
                      ("model.empirical_prob", "entries_out")):
        out[f"{name}.{key}"] = counts.get((name, key), 0) / nq
    out["factor.product.fanout_max"] = maxima["fanout"]
    out["factor.underflow_dropped"] = sum(
        v for (_, key), v in counts.items() if key == "underflow_dropped") / nq
    out["decomposition.max_hw"] = maxima["hw"]
    out["decomposition.max_w"] = maxima["w"]
    for name in ("engine.pi_hte", "engine.cte", "cli.main"):
        out[name + ".self_s"] = self_total.get(name, 0.0) / nq
    out["engine.brute_force_eval.s"] = (
        total.get("engine.brute_force_eval", 0.0) / max(oracle_calls, 1))
    for name in ("simulate.random_cbn", "simulate.sample_dataset", "suite.make_instance"):
        out[name + ".s"] = total.get(name, 0.0)
    ratios = [peak / rows_of(q) for q, peak in peak_by_query.items() if rows_of(q)]
    out["engine.peak_over_rows"] = max(ratios, default=0.0)
    return out, peak_by_query
