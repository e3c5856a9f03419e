"""Run one pihte benchmark workload and print its metrics.

    python3 perfbench/run.py --workload chain99_hw1 --seed 1 --seconds 25 --trace 0

Run it from anywhere inside a checkout: it imports pihte from the checkout's
`src/` and writes its inputs and traces under `.perfbench-run/`. The client
is a closed loop: one process, one thread, the next query sent when the last
returns. With `--trace 0` the last line of stdout is one JSON object carrying
every `end_to_end` metric of BENCHMARK.json; with `--trace 1` it carries every
`per_layer` metric, from queries that alternate untraced and traced. The lines
before it give each metric with its unit and sample count.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402

MIN_SETUPS, MAX_SETUPS, SETUP_BUDGET_S = 5, 40, 2.0
# Printed with the end-to-end figures but not gated (see perfbench/README.md):
# the median and throughput follow the host's speed swings too closely for a
# bound, and the others are undefined or always 0 on some workload.
EXTRA_UNITS = {"query_s.p50": "s", "query_s.p90": "s", "throughput_qps": "1/s",
               "ref_s.p50": "s", "peak_entries": "count", "failed_frac": "ratio"}
# The reference: fixed pure-Python work on tuples and dicts (about 20 ms), the
# kind pihte's factors do, timed between queries whenever REF_EVERY_S of query
# time has passed since the last timing. It calls nothing of pihte.
REF_KEYS, REF_EVERY_S = 15_000, 0.2


def load_program():
    """Import pihte from this checkout's sources, or exit without a result."""
    # One client, one thread: keep numpy's BLAS pools out of the measurement.
    os.environ["OMP_NUM_THREADS"] = "1"
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    src = ROOT / "src"
    if not (src / "pihte" / "__init__.py").is_file():
        sys.exit(f"perfbench: no pihte sources at {src}")
    if not (ROOT / "fixtures").is_dir():
        sys.exit(f"perfbench: no fixtures at {ROOT / 'fixtures'}")
    sys.path.insert(0, str(src))
    pihte = importlib.import_module("pihte")
    if Path(pihte.__file__).resolve().parent != src / "pihte":
        sys.exit(f"perfbench: imported pihte from {pihte.__file__}, not {src}")
    for name in ("cli", "suite", "chains"):
        importlib.import_module(f"pihte.{name}")
    return pihte


def declared_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def run_setup(wl, tracer):
    """Set up at least MIN_SETUPS times and until SETUP_BUDGET_S has passed,
    at most MAX_SETUPS; returns (median time, count). The last set-up is the
    one the queries use, and on a traced run it alone is traced."""
    times = []
    while True:
        last = len(times) + 1 >= MIN_SETUPS and (
            sum(times) >= SETUP_BUDGET_S or len(times) + 1 >= MAX_SETUPS)
        if tracer and last:
            tracer.install("setup")
        t0 = time.perf_counter()
        try:
            wl.setup()
        finally:
            times.append(time.perf_counter() - t0)
            if tracer and last:
                tracer.uninstall()
        if last:
            return statistics.median(times), len(times)


def time_reference():
    """Seconds the reference work takes now: how fast the host runs Python."""
    t0 = time.perf_counter()
    table = {(i % 97, i % 89, i): i * 0.5 for i in range(REF_KEYS)}
    acc = 0.0
    for key, value in table.items():
        acc += value * table.get((key[1], key[0], key[2]), 1.0)
    sorted(table, key=lambda key: (key[2] % 13, key[0]))
    return time.perf_counter() - t0


def run_queries(wl, seconds, tracer):
    """Closed loop for `seconds`. Without a tracer every query is timed as is;
    with one, queries alternate untraced and traced on the same input.

    A query is not started when the previous one (with its check) says it
    would end past the deadline. Each timed query gets as `ref` the mean of
    the reference timings just before and just after it. Returns the
    per-query records.
    """
    records = []
    refs, pending, since_ref = [time_reference()], [], 0.0

    def close_window():
        refs.append(time_reference())
        for r in pending:
            r["ref"] = (refs[-2] + refs[-1]) / 2
        pending.clear()

    start = time.perf_counter()
    deadline = start + seconds
    last = 0.0
    i = 0
    while True:
        now = time.perf_counter()
        need = 2 if tracer else 1
        if len(records) >= need and now + last > deadline:
            break
        traced = bool(tracer) and i % 2 == 1
        k = i // 2 if tracer else i
        rec = {"i": i, "k": k, "traced": traced, "ok": False, "s": None, "ref": None,
               "peak": None}
        if traced:
            tracer.install("query", i)
        t0 = time.perf_counter()
        try:
            out = wl.query(k)
            rec["s"] = time.perf_counter() - t0
        except Exception:  # a failed query is counted and the loop goes on
            rec["error"] = traceback.format_exc(limit=-3)
        finally:
            if traced:
                tracer.uninstall()
        if rec["s"] is not None:
            if traced:
                tracer.install("check", i)
            try:
                wl.check(k, out)
                rec["peak"] = wl.peak_entries(out)
                rec["ok"] = True
            except CheckFailed as exc:
                rec["error"] = f"check: {exc}"
            finally:
                if traced:
                    tracer.uninstall()
        records.append(rec)
        if rec["s"] is not None:
            pending.append(rec)
            since_ref += rec["s"]
            if since_ref >= REF_EVERY_S:
                close_window()
                since_ref = 0.0
        last = time.perf_counter() - now
        i += 1
    if pending:
        close_window()
    return records


def rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(records, setup):
    """Every end-to-end figure, as (value, samples); None when undefined.

    `query_ref.p50` is the median over queries of the query's time over the
    reference work's time around it, so the host's speed swings cancel.
    """
    ok = [r for r in records if r["ok"]]
    times = [r["s"] for r in ok]
    rel = [r["s"] / r["ref"] for r in ok]
    peaks = [r["peak"] for r in records if r["ok"] and r["peak"] is not None]
    failed = sum(not r["ok"] for r in records)
    out = {
        "query_ref.p50": (statistics.median(rel), len(rel)) if rel else None,
        "query_s.p50": (statistics.median(times), len(times)) if times else None,
        "query_s.p90": None,
        "throughput_qps": (len(times) / sum(times), len(times)) if times else None,
        "ref_s.p50": (statistics.median(r["ref"] for r in ok), len(ok)) if ok else None,
        "setup_s": setup,
        "peak_rss_mb": (rss_mb(), 1),
        "peak_entries": (statistics.median(peaks), len(peaks)) if peaks else None,
        "failed_frac": (failed / len(records), len(records)),
    }
    if len(times) >= 100:  # at least ten samples above the 90th percentile
        out["query_s.p90"] = (statistics.quantiles(times, n=10)[-1], len(times))
    return out


def traced_figures(wl, tracer, records):
    """Every per-layer figure, as (value, traced queries). Applies the
    workload's gate on the largest table per row to each traced query."""
    traced = [r for r in records if r["traced"]]
    by_i = {r["i"]: r for r in traced}
    layers, peak_by_query = layer_metrics(
        tracer.spans, len(traced), lambda q: wl.rows(by_i[q]["k"]))
    if wl.max_peak_over_rows is not None:
        for r in traced:
            peak = peak_by_query.get(r["i"], 0)
            if r["ok"] and peak / wl.rows(r["k"]) > wl.max_peak_over_rows:
                r["ok"] = False
                r["error"] = f"trace: a table of {peak} entries from {wl.rows(r['k'])} rows"
    plain = [r["s"] / r["ref"] for r in records if r["ok"] and not r["traced"]]
    with_trace = [r["s"] / r["ref"] for r in traced if r["ok"]]
    if plain and with_trace:
        base = statistics.median(plain)
        layers["trace.overhead_frac"] = (statistics.median(with_trace) - base) / base
    peaks = [r["peak"] for r in records if r["ok"] and r["peak"] is not None]
    layers["engine.peak_entries"] = statistics.median(peaks) if peaks else 0
    return {name: (value, len(traced)) for name, value in layers.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a single query (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    e2e_units, layer_units = declared_metrics()
    pihte = load_program()
    work = ROOT / ".perfbench-run"
    inputs = work / f"{args.workload}-{args.seed}-{os.getpid()}"
    inputs.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(pihte) if args.trace else None
    tag = "-smoke" if args.smoke else ""
    try:
        wl = WORKLOADS[args.workload](pihte, ROOT, inputs, args.seed, args.smoke)
        setup = run_setup(wl, tracer)
        gc.collect()
        gc.freeze()  # keep the input pool out of the program's GC passes
        records = run_queries(wl, 0 if args.smoke else args.seconds, tracer)
        if tracer:
            figures = traced_figures(wl, tracer, records)
            tracer.write_jsonl(work / f"trace-{args.workload}-{args.seed}{tag}.jsonl")
            units = layer_units
        else:
            figures = end_to_end(records, setup)
            units = e2e_units
    finally:
        shutil.rmtree(inputs, ignore_errors=True)

    failed = [r for r in records if not r["ok"]]
    for r in failed[:5]:
        print(f"{args.workload} query {r['i']} failed: {r['error']}", file=sys.stderr)
    for name, fig in figures.items():
        if fig is not None:
            unit = units.get(name) or EXTRA_UNITS[name]
            print(f"{args.workload} {name} = {fig[0]:.6g} {unit} (n={fig[1]})")
    missing = [name for name in units if figures.get(name) is None]
    if missing:
        sys.exit(f"perfbench: {args.workload} gave no value for {', '.join(missing)}")
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": figures[name][0], "unit": units[name]}
                    for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
