"""Command-line interface: analyze, estimate, oracle, simulate, bench."""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import engine, simulate, suite
from .decomposition import load_decomposition
from .errors import (
    DenseLimitExceeded,
    DivisionByZero,
    DivisionInconsistency,
    EmptyDataset,
    PihteError,
    ResourceLimitExceeded,
)
from .estimand import flatten, parse
from .model import load_dataset, load_graph, open_text

EXIT_INPUT = 2
EXIT_INCONSISTENT = 3
EXIT_RESOURCE = 4
EXIT_MISMATCH = 5

_INPUT_ERRORS = (
    FileNotFoundError,
    IsADirectoryError,
    PermissionError,
    ValueError,
    KeyError,
)


def _read_estimand(args) -> str:
    if getattr(args, "estimand", None):
        return args.estimand
    if getattr(args, "estimand_file", None):
        with open_text(args.estimand_file) as fh:
            return fh.read()
    raise ValueError("an estimand is required (--estimand or --estimand-file)")


def _parse_do(text):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        name, _, value = part.partition("=")
        name = name.strip()
        if not name or not value.strip():
            raise ValueError(f"bad --do item {part!r}, expected VAR=value")
        if name in out:
            raise ValueError(f"--do fixes {name!r} more than once")
        try:
            out[name] = int(value)
        except ValueError:
            raise ValueError(f"--do {name}={value.strip()} is not an integer value") from None
    return out


def _emit(text, out_path):
    """Write `text`, one string or an iterator of strings each written as it
    is made, to `out_path`, or to stdout, where it ends with a newline."""
    chunks = [text] if isinstance(text, str) else text
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
    else:
        last = ""
        for last in chunks:
            sys.stdout.write(last)
        # flushed here, so that a closed stdout fails inside `main`, not at exit
        print(end="" if last.endswith("\n") else "\n", flush=True)


def _load_data(args, graph):
    """The --data dataset, which must hold a row to bind or bound any table."""
    data = load_dataset(args.data, graph)
    if data.n_rows == 0:
        raise EmptyDataset(f"{args.data}: no probability can be read from zero rows")
    return data


def _plan(args, hier, graph):
    """The one plan every subcommand runs or reports: the graph's domains,
    --seed, --restarts, and --decomposition for the root level."""
    if args.restarts < 0:
        raise ValueError(f"--restarts must be >= 0, got {args.restarts}")
    supplied = {}
    if args.decomposition:
        supplied[hier.root] = load_decomposition(args.decomposition)
    domains = {v.name: v.domain_size for v in graph.variables}
    return engine.plan(hier, domains, args.seed, args.restarts, supplied)


def cmd_analyze(args) -> int:
    hier = flatten(parse(_read_estimand(args)))
    graph = load_graph(args.graph)
    start = time.monotonic()
    p = _plan(args, hier, graph)
    levels_out = [
        {
            "level": lp.level.level_id,
            **lp.widths(),
            "factors": [t.key() for t in lp.level.factors]
            + [f"output(level {c})" for c, _ in lp.level.child_outputs],
            "sum_vars": list(lp.level.sum_vars),
            "free_vars": list(lp.level.free_vars),
            "rename_map": [list(pair) for pair in lp.level.rename_map],
            "children": [c for c, _ in lp.level.child_outputs],
            "n_clusters": lp.td.n_clusters,
            "supplied_decomposition": lp.supplied,
        }
        for lp in p.levels.values()
    ]
    bounds = p.bounds(_load_data(args, graph).n_rows if args.data else 1)
    report = {
        "depth": hier.depth,
        "levels": levels_out,
        "max_hw": bounds["max_hw"],
        "max_w": bounds["max_w"],
        "bounds": bounds,
        "wall_time": round(time.monotonic() - start, 6),
    }
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return 0


def cmd_estimate(args) -> int:
    graph = load_graph(args.graph)
    data = _load_data(args, graph)
    hier = flatten(parse(_read_estimand(args)))
    report = engine.execute(_plan(args, hier, graph), data, _parse_do(args.do))
    if args.format == "csv":
        _emit(_metrics_csv([engine.run_metrics(report)]), args.out)
    else:
        _emit(report.to_json(), args.out)
    return 0


def _metrics_csv(rows) -> str:
    """`engine.run_metrics` rows as CSV under one header line, with time in
    seconds to three decimals."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]))
    writer.writeheader()
    for row in rows:
        writer.writerow(dict(row, time=f"{row['time']:.3f}"))
    return buf.getvalue()


def _max_discrepancy(a, b):
    ad, bd = dict(a.items()), dict(b.items())
    max_abs = max_rel = 0.0
    for k in ad.keys() | bd.keys():
        x, y = ad.get(k, 0.0), bd.get(k, 0.0)
        diff = abs(x - y)
        max_abs = max(max_abs, diff)
        denom = max(abs(x), abs(y))
        if denom:
            max_rel = max(max_rel, diff / denom)
    return max_abs, max_rel


def cmd_oracle(args) -> int:
    if args.suite is not None and args.suite < 1:
        raise ValueError(f"--suite must be >= 1, got {args.suite}")
    if not 0 <= args.tolerance < math.inf:
        raise ValueError(f"--tolerance must be finite and >= 0, got {args.tolerance}")
    if args.dense_limit < 1:
        raise ValueError(f"--dense-limit must be >= 1, got {args.dense_limit}")
    if args.suite is not None:
        for option in ("--graph", "--data", "--estimand", "--estimand-file", "--do",
                       "--decomposition"):
            if getattr(args, option[2:].replace("-", "_")):
                raise ValueError(f"{option} does not apply to --suite: "
                                 "each instance has its own estimand")
        cases = (suite.make_instance(args.seed + i) for i in range(args.suite))
    else:
        if not args.graph or not args.data:
            raise ValueError("oracle needs --graph and --data unless --suite is used")
        graph = load_graph(args.graph)
        data = _load_data(args, graph)
        cases = [suite.Instance(args.seed, graph, data, _read_estimand(args))]

    failures = []
    worst_abs = worst_rel = 0.0
    for case in cases:
        expr = parse(case.estimand)
        do = _parse_do(args.do)  # after the estimand, whose syntax error is named first
        # a zero denominator is an outcome to compare: both sides raising agree
        raised = {}
        try:
            got = engine.execute(_plan(args, flatten(expr), case.graph), case.data, do).result
        except DivisionInconsistency as exc:
            raised["engine"] = exc
        try:
            want = engine.brute_force_eval(expr, case.data, args.dense_limit, do)
        except DivisionByZero as exc:
            raised["brute force"] = exc
        if len(raised) == 1:
            (side, exc), = raised.items()
            print(f"error: {side} alone raised: {exc}", file=sys.stderr)
            failures.append({"seed": case.seed, "estimand": case.estimand,
                             "raised": side, "error": str(exc)})
            continue
        if raised:
            if args.suite is None:
                raise raised["engine"]  # exit 3, as `estimate` does
            continue
        max_abs, rel = _max_discrepancy(got, want)
        worst_abs = max(worst_abs, max_abs)
        worst_rel = max(worst_rel, rel)
        if rel > args.tolerance:
            failures.append({"seed": case.seed, "estimand": case.estimand, "rel": rel})
    if args.suite is not None:
        report = {"instances": args.suite, "failures": failures}
    else:
        report = {"max_abs_discrepancy": worst_abs, "pass": not failures}
    report.update(max_rel_discrepancy=worst_rel, tolerance=args.tolerance)
    _emit(json.dumps(report, indent=2, sort_keys=True), args.out)
    return EXIT_MISMATCH if failures else 0


def _random_cbn(args, graph):
    """The CBN `simulate` and `bench` draw under --dist, --alpha and --seed."""
    if args.dist in ("dirichlet", "mixture") and not 0 < args.alpha < math.inf:
        raise ValueError(f"--alpha must be positive and finite under --dist {args.dist}, "
                         f"got {args.alpha}")
    try:
        return simulate.random_cbn(graph, dist=args.dist, alpha=args.alpha, seed=args.seed)
    except ValueError as exc:
        raise ValueError(f"--alpha {args.alpha} under --dist {args.dist}: {exc}") from None


def _csv_blocks(data):
    """The dataset as `csv.writer` writes it, yielded as the header, then one
    string per block of rows: each row's cells joined by "," and ended by
    "\\r\\n". Each block is one byte matrix with `width + 1` slots per
    cell, for the digits of the largest cell and a ","; unused leading digits
    and the last cell's "," stay 0 and are dropped."""
    head = io.StringIO()
    csv.writer(head).writerow(data.columns)
    yield head.getvalue()
    width = len(str(data.cells.max(initial=0)))
    step, block = width + 1, 1 << 14  # rows per matrix; its size does not grow with the rows
    for start in range(0, data.n_rows, block):
        cells = data.cells[start:start + block]
        lines = np.zeros((len(cells), cells.shape[1] * step + 2), dtype=np.uint8)
        for d in range(width):  # 0 before a cell's leading digit; a 0 cell shows its last
            place = 10 ** (width - 1 - d)
            lines[:, d:-2:step] = (cells // place % 10 + ord("0")) * (cells.clip(1) >= place)
        lines[:, width:-3:step] = ord(",")
        lines[:, -2:] = (ord("\r"), ord("\n"))
        yield str(lines[lines != 0].data, "ascii")


def cmd_simulate(args) -> int:
    if args.rows < 1:
        raise ValueError(f"--rows must be >= 1, got {args.rows}")
    cbn = _random_cbn(args, load_graph(args.graph))
    data = simulate.sample_dataset(cbn, n=args.rows, seed=args.seed + 1)
    _emit(_csv_blocks(data), args.out)
    if args.cbn_out:
        with open(args.cbn_out, "w", encoding="utf-8") as fh:
            fh.write(cbn.to_json())
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        raise ValueError(f"--sizes must list integers, got {args.sizes!r}") from None
    if not sizes:
        raise ValueError("--sizes must list at least one sample size")
    if min(sizes) < 1:
        raise ValueError(f"--sizes entries must be >= 1, got {min(sizes)}")
    graph = load_graph(args.graph)
    hier = flatten(parse(_read_estimand(args)))
    p = _plan(args, hier, graph)
    do = _parse_do(args.do)
    cbn = _random_cbn(args, graph)
    rows = []
    for i, size in enumerate(sizes):
        data = simulate.sample_dataset(cbn, n=size, seed=args.seed + 1 + i)
        rows.append(engine.run_metrics(engine.execute(p, data, do)))
    if args.format == "json":
        _emit(json.dumps(rows, indent=2, sort_keys=True), args.out)
    else:
        _emit(_metrics_csv(rows), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pihte",
        description="Plug-in estimand evaluation over hypertree decompositions.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    def common(p, graph=True):
        p.add_argument("--graph", required=graph)
        p.add_argument("--estimand")
        p.add_argument("--estimand-file")
        p.add_argument("--decomposition")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--restarts", type=int, default=0)
        p.add_argument("--out")

    p = sub.add_parser("analyze", help="widths and predicted bounds, no evaluation")
    common(p)
    p.add_argument("--data")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="evaluate the estimand against a dataset")
    common(p)
    p.add_argument("--data", required=True)
    p.add_argument("--do", default="")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="cross-check against brute-force evaluation")
    common(p, graph=False)
    p.add_argument("--data")
    p.add_argument("--do", default="")
    p.add_argument("--dense-limit", type=int, default=10**6)
    p.add_argument("--suite", type=int, help="run N random instances")
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("simulate", help="draw a random CBN and sample a dataset")
    p.add_argument("--graph", required=True)
    p.add_argument("--dist", choices=simulate.DISTS, default="dirichlet")
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--rows", type=int, default=1000)
    p.add_argument("--out")
    p.add_argument("--cbn-out")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="Table-style rows across sample sizes")
    common(p)
    p.add_argument("--do", default="")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--sizes", default="")
    p.add_argument("--dist", choices=simulate.DISTS, default="dirichlet")
    p.add_argument("--alpha", type=float, default=1.0)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.seed < 0:  # every subcommand takes --seed; numpy rejects a negative one
            raise ValueError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (DivisionInconsistency, DivisionByZero) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT
    except (ResourceLimitExceeded, DenseLimitExceeded, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (PihteError, *_INPUT_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BrokenPipeError:  # the reader left first (`| true`): an output error, like an --out dir
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # for the exit flush
        print("error: the output was closed before it was written", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
