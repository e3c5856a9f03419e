"""The benchmark's workloads: set-up, one query, and the check of its result.

Every workload drives pihte only through its public API and CLI. `setup()`
writes every input the program reads and may run several times; `query(k)`
runs one query on input `k` and returns what the check needs; `check(k, out)`
raises `CheckFailed` when the output is wrong. Inputs are a fixed pool per
run, reused in turn, so set-up does the same work however fast queries run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random


class CheckFailed(Exception):
    """A query returned, but its output is wrong."""


def run_cli(pihte, argv):
    """`pihte.cli.main(argv)` in this process; returns (exit code, stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = pihte.cli.main([str(a) for a in argv])
    return code, buf.getvalue()


def write_csv(data, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(data.columns)
        writer.writerows(data.rows)


def close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b))


def sample_pool(pihte, graph_path, alpha, n_rows, pool, seed, stem):
    """`pool` CSVs of `n_rows` rows, each sampled from its own CBN with
    Dirichlet(alpha) CPTs, so one run averages over several models."""
    sim = pihte.simulate
    graph = pihte.model.load_graph(graph_path)
    inputs = []
    for i in range(pool):
        base = seed * 1000 + 2 * i
        cbn = sim.random_cbn(graph, dist="dirichlet", alpha=alpha, seed=base)
        data = sim.sample_dataset(cbn, n_rows, seed=base + 1)
        path = stem.with_name(f"{stem.name}_{i}.csv")
        write_csv(data, path)
        inputs.append((path, data))
    return inputs


class Workload:
    name = ""
    max_peak_over_rows = None  # gate on the traced run, when set

    def __init__(self, pihte, root, work, seed, smoke):
        self.pihte, self.fixtures, self.work = pihte, root / "fixtures", work
        self.seed, self.smoke = seed, smoke

    def rows(self, k):
        """Row count of input `k`, or None for a query without data."""
        return None

    def peak_entries(self, out):
        """Largest table the query materialised, from the program's report."""
        return None


class Chain99(Workload):
    """`estimate` on chain99 (hw=1), Dirichlet(1) CSVs."""

    name = "chain99_hw1"
    max_peak_over_rows = 1.0

    def __init__(self, *args):
        super().__init__(*args)
        self.n_rows, self.pool = (40, 2) if self.smoke else (200, 4)
        self.graph = self.fixtures / "chain99.graph"
        self.estimand = self.fixtures / "chain99.estimand"
        p = self.pihte
        hier = p.estimand.flatten(p.estimand.parse(self.estimand.read_text()))
        self.scopes = [tuple(sorted({p.model.base_name(n) for n in t.scope}))
                       for lv in hier.levels for t in lv.factors]
        self.distinct = {}

    def setup(self):
        self.inputs = sample_pool(self.pihte, self.graph, 1.0, self.n_rows, self.pool,
                                  self.seed, self.work / "chain99")

    def query(self, k):
        code, out = run_cli(self.pihte, [
            "estimate", "--graph", self.graph, "--estimand-file", self.estimand,
            "--data", self.inputs[k % self.pool][0]])
        if code:
            raise CheckFailed(f"exit code {code}")
        return json.loads(out)

    def check(self, k, report):
        i = k % self.pool
        if i not in self.distinct:
            data = self.inputs[i][1]
            self.distinct[i] = max(len(set(data.project(s))) for s in self.scopes)
        peak = report["max_table_entries"]
        if peak != self.distinct[i] or peak > self.n_rows:
            raise CheckFailed(f"max_table_entries {peak}, largest term projection "
                              f"{self.distinct[i]}, rows {self.n_rows}")

    def rows(self, k):
        return self.n_rows

    def peak_entries(self, report):
        return report["max_table_entries"]


class ConeHw2(Workload):
    """`estimate` on cone_cloud with the supplied hw=2 `.td`, Dirichlet(10) data."""

    name = "cone_hw2_td"

    def __init__(self, *args):
        super().__init__(*args)
        self.n_rows, self.pool = (100, 2) if self.smoke else (800, 4)
        self.graph = self.fixtures / "cone_cloud.graph"
        self.estimand = self.fixtures / "cone_cloud.estimand"
        self.td = self.fixtures / "cone_cloud.td"
        p = self.pihte
        self.hier = p.estimand.flatten(p.estimand.parse(self.estimand.read_text()))
        self.reference = {}

    def setup(self):
        self.inputs = sample_pool(self.pihte, self.graph, 10.0, self.n_rows, self.pool,
                                  self.seed, self.work / "cone")

    def query(self, k):
        code, out = run_cli(self.pihte, [
            "estimate", "--graph", self.graph, "--estimand-file", self.estimand,
            "--data", self.inputs[k % self.pool][0], "--decomposition", self.td])
        if code:
            raise CheckFailed(f"exit code {code}")
        return json.loads(out)

    def check(self, k, report):
        """Same data under the default decomposition, to 1e-9 relative."""
        i = k % self.pool
        if i not in self.reference:
            ref = self.pihte.engine.pi_hte(self.hier, self.inputs[i][1]).result
            self.reference[i] = ([v.name for v in ref.scope], dict(ref.items()))
        names, want = self.reference[i]
        got = {tuple(key): value for key, value in report["result"]["entries"]}
        if [n for n, _ in report["result"]["scope"]] != names:
            raise CheckFailed("result scope differs from the default decomposition's")
        for key in set(got) | set(want):
            if not close(got.get(key, 0.0), want.get(key, 0.0)):
                raise CheckFailed(f"result at {key} differs beyond 1e-9 relative")

    def rows(self, k):
        return self.n_rows

    def peak_entries(self, report):
        return report["max_table_entries"]


class OracleSuite(Workload):
    """parse -> flatten -> pi_hte on random suite instances, checked by the oracle."""

    name = "oracle_suite"

    def __init__(self, *args):
        super().__init__(*args)
        self.n = 3 if self.smoke else 100
        self.expected = {}

    def setup(self):
        make = self.pihte.suite.make_instance
        self.inputs = [make(self.seed * self.n + i) for i in range(self.n)]

    def query(self, k):
        est, engine = self.pihte.estimand, self.pihte.engine
        inst = self.inputs[k % self.n]
        return engine.pi_hte(est.flatten(est.parse(inst.estimand)), inst.data)

    def check(self, k, report):
        i = k % self.n
        inst = self.inputs[i]
        if i not in self.expected:
            want = self.pihte.engine.brute_force_eval(
                self.pihte.estimand.parse(inst.estimand), inst.data)
            self.expected[i] = (want.names, dict(want.items()))
        names, want = self.expected[i]
        got = dict(report.result.items())
        if report.result.names != names:
            raise CheckFailed(f"{inst.estimand}: scope {report.result.names} != {names}")
        for key in set(got) | set(want):
            if not close(got.get(key, 0.0), want.get(key, 0.0)):
                raise CheckFailed(f"{inst.estimand}: differs from the oracle at {key}")

    def rows(self, k):
        return self.inputs[k % self.n].data.n_rows

    def peak_entries(self, report):
        return report.max_table_entries


class AnalyzeChain(Workload):
    """`analyze` on a long confounded chain written by pihte.chains; no data."""

    name = "analyze_chain199"

    def __init__(self, *args):
        super().__init__(*args)
        self.length = 39 if self.smoke else 199
        self.domain = random.Random(self.seed).randint(2, 5)

    def setup(self):
        chains = self.pihte.chains
        self.graph = self.work / "chain.graph"
        self.estimand = self.work / "chain.estimand"
        self.graph.write_text(chains.make_chain_graph(self.length, self.domain))
        self.estimand.write_text(chains.make_chain_estimand(self.length))

    def query(self, k):
        code, out = run_cli(self.pihte, [
            "analyze", "--graph", self.graph, "--estimand-file", self.estimand,
            "--seed", self.seed])
        if code:
            raise CheckFailed(f"exit code {code}")
        return json.loads(out)

    def check(self, k, report):
        if report["max_w"] != self.length - 1 or report["max_hw"] != 1:
            raise CheckFailed(f"max_w {report['max_w']}, max_hw {report['max_hw']}; "
                              f"expected {self.length - 1} and 1")


WORKLOADS = {w.name: w for w in (Chain99, ConeHw2, OracleSuite, AnalyzeChain)}
