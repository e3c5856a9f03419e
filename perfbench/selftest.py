"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Runs every workload once untraced and once traced in smoke mode (tiny inputs,
one query each) and checks that each run exits 0, passes its checks and emits
exactly the metrics BENCHMARK.json declares. Then feeds each workload's check
a wrong output, and the traced table-size gate a too-large table, and checks
that both reject them.
"""

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, CheckFailed  # noqa: E402


def emitted(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0, (workload, trace, proc.stderr)
    assert result["attempted"] == 1 + trace, (workload, trace, result["attempted"])
    if trace:
        jsonl = ROOT / ".perfbench-run" / f"trace-{workload}-7-smoke.jsonl"
        spans = [json.loads(line) for line in jsonl.read_text().splitlines()]
        assert "query" in {s["phase"] for s in spans}, (workload, jsonl)
        assert all({"name", "start", "end", "parent", "phase", "query"} <= set(s)
                   for s in spans), jsonl
    return result["metrics"]


def corrupt(name, out):
    """A copy of a query's output that its check must reject."""
    if name == "oracle_suite":
        factor = out.result
        wrong = {k: v * (1 + 1e-6) for k, v in factor.items()}
        out.result = type(factor)(factor.scope, wrong)
        return out
    bad = copy.deepcopy(out)
    if name == "chain99_hw1":
        bad["max_table_entries"] += 1
    elif name == "cone_hw2_td":
        bad["result"]["entries"][0][1] *= 1 + 1e-6
    else:
        bad["max_hw"] = 2
    return bad


def check_spec(layers):
    """spec.json describes exactly the declared workloads and layer metrics."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    assert names == list(WORKLOADS) == list(spec["workloads"]), names
    mapped = [m for entry in spec["layer_map"] for m in entry["metrics"]]
    assert sorted(mapped) == sorted(layers), set(mapped) ^ set(layers)
    for entry in spec["layer_map"]:
        assert set(entry["moves"]) <= set(names), entry["moves"]


def main():
    e2e, layers = run.declared_metrics()
    check_spec(layers)
    for name in WORKLOADS:
        for trace, declared in ((0, e2e), (1, layers)):
            metrics = emitted(name, trace)
            assert set(metrics) == set(declared), (name, set(metrics) ^ set(declared))
            for metric, body in metrics.items():
                assert body["unit"] == declared[metric], (name, metric)
                assert isinstance(body["value"], (int, float)), (name, metric)
            if trace == 0:
                assert all(body["value"] > 0 for body in metrics.values()), (name, metrics)
        print(f"selftest: {name} emits every declared metric")

    pihte = run.load_program()
    work = ROOT / ".perfbench-run" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name, cls in WORKLOADS.items():
            wl = cls(pihte, ROOT, work, 7, True)
            wl.setup()
            out = wl.query(0)
            wl.check(0, out)
            try:
                wl.check(0, corrupt(name, out))
            except CheckFailed:
                pass
            else:
                raise AssertionError(f"{name}: check accepted a wrong output")
            print(f"selftest: {name} check rejects a wrong output")

        wl = WORKLOADS["chain99_hw1"](pihte, ROOT, work, 7, True)
        wl.setup()
        tracer = Tracer(pihte)
        records = run.run_queries(wl, 0, tracer)
        wl.max_peak_over_rows = 0.5
        run.traced_figures(wl, tracer, records)
        assert not records[1]["ok"] and "trace:" in records[1]["error"], records[1]
        print("selftest: the traced table-size gate fails an oversized query")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: ok")


if __name__ == "__main__":
    main()
