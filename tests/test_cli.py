import csv
import json
import os
import subprocess
import sys

import pytest

import pihte
from pihte import engine, suite
from pihte.cli import main
from pihte.engine import brute_force_eval
from pihte.errors import DivisionByZero
from pihte.factor import unit_factor
from pihte.model import load_dataset, load_graph
from pihte.suite import make_instance


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_hashed(hash_seed, *argv):
    """The CLI in a fresh interpreter under the given PYTHONHASHSEED."""
    src = os.path.dirname(os.path.dirname(pihte.__file__))
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "pihte.cli", *argv], env=env,
                          capture_output=True, text=True)


@pytest.fixture
def napkin(fixture_path, tmp_path):
    """Napkin fixtures plus a simulated dataset on disk."""
    graph = fixture_path("napkin.graph")
    estimand = fixture_path("napkin.estimand")
    data = str(tmp_path / "napkin.csv")
    assert main(["simulate", "--graph", graph, "--rows", "800",
                 "--seed", "3", "--out", data]) == 0
    return graph, estimand, data


def test_analyze_chain7(capsys, fixture_path):
    code, out, _ = run(capsys, "analyze",
                       "--graph", fixture_path("chain7.graph"),
                       "--estimand-file", fixture_path("chain7.estimand"))
    assert code == 0
    rep = json.loads(out)
    assert rep["depth"] == 1
    assert rep["max_hw"] == 1
    assert rep["max_w"] == 6


def test_analyze_malformed_estimand_exit2(capsys, fixture_path):
    code, _, err = run(capsys, "analyze",
                       "--graph", fixture_path("napkin.graph"),
                       "--estimand", "P(X|")
    assert code == 2
    assert "position" in err


def test_analyze_missing_file_exit2(capsys, fixture_path):
    code, _, _ = run(capsys, "analyze",
                     "--graph", "/nonexistent.graph", "--estimand", "P(X)")
    assert code == 2


def test_estimate_json(capsys, napkin):
    graph, estimand, data = napkin
    code, out, _ = run(capsys, "estimate", "--graph", graph, "--data", data,
                       "--estimand-file", estimand)
    assert code == 0
    rep = json.loads(out)
    assert rep["n_rows"] == 800
    assert len(rep["levels"]) == 2
    scope_names = [v for v, _ in rep["result"]["scope"]]
    assert scope_names == ["R", "X", "Y"]


def test_estimate_csv(capsys, napkin):
    graph, estimand, data = napkin
    code, out, _ = run(capsys, "estimate", "--graph", graph, "--data", data,
                       "--estimand-file", estimand, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert rows[0] == ["samples", "time", "max_table_size", "t", "density"]
    assert rows[1][0] == "800"


def test_estimate_do_slice(capsys, napkin):
    graph, estimand, data = napkin
    code, out, _ = run(capsys, "estimate", "--graph", graph, "--data", data,
                       "--estimand-file", estimand, "--do", "X=1")
    assert code == 0
    rep = json.loads(out)
    x_pos = [v for v, _ in rep["result"]["scope"]].index("X")
    assert all(key[x_pos] == 1 for key, _ in rep["result"]["entries"])
    assert "normalized" in rep


def test_estimate_deterministic_output(capsys, napkin):
    graph, estimand, data = napkin

    def strip_timing(rep):
        rep.pop("wall_time", None)
        for lv in rep["levels"]:
            lv.pop("wall_time", None)
        return rep

    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "estimate", "--graph", graph, "--data", data,
                           "--estimand-file", estimand, "--seed", "7")
        assert code == 0
        outs.append(json.dumps(strip_timing(json.loads(out)), sort_keys=True))
    assert outs[0] == outs[1]


def test_estimate_entry_cap_exit4(capsys, napkin, monkeypatch):
    graph, estimand, data = napkin
    monkeypatch.setenv("PIHTE_MAX_ENTRIES", "3")
    code, _, err = run(capsys, "estimate", "--graph", graph, "--data", data,
                       "--estimand-file", estimand)
    assert code == 4
    assert "entries" in err


def test_oracle_single(capsys, napkin):
    graph, estimand, data = napkin
    code, out, _ = run(capsys, "oracle", "--graph", graph, "--data", data,
                       "--estimand-file", estimand)
    assert code == 0
    rep = json.loads(out)
    assert rep["pass"]
    assert rep["max_rel_discrepancy"] <= 1e-9


def test_oracle_do_slice(capsys, napkin):
    graph, estimand, data = napkin
    code, out, err = run(capsys, "oracle", "--graph", graph, "--data", data,
                         "--estimand-file", estimand, "--do", "X=1")
    assert code == 0, err
    assert json.loads(out)["pass"]


def test_oracle_zero_tolerance_exit5(capsys, napkin):
    graph, estimand, data = napkin
    code, out, _ = run(capsys, "oracle", "--graph", graph, "--data", data,
                       "--estimand-file", estimand, "--tolerance", "0")
    # fp rounding makes exact agreement essentially impossible
    assert code == 5


def test_oracle_suite(capsys):
    code, out, _ = run(capsys, "oracle", "--suite", "10", "--seed", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["instances"] == 10
    assert not rep["failures"]


def test_simulate_writes_csv_and_cbn(capsys, fixture_path, tmp_path):
    data = str(tmp_path / "d.csv")
    cbn = str(tmp_path / "model.json")
    code, _, _ = run(capsys, "simulate", "--graph", fixture_path("napkin.graph"),
                     "--rows", "25", "--out", data, "--cbn-out", cbn)
    assert code == 0
    rows = list(csv.reader(open(data)))
    assert rows[0] == ["R", "W", "X", "Y"]
    assert len(rows) == 26
    model = json.load(open(cbn))
    assert "cpts" in model


def test_bench_empty_sizes_exit2(capsys, fixture_path):
    code, _, _ = run(capsys, "bench", "--graph", fixture_path("chain7.graph"),
                     "--estimand-file", fixture_path("chain7.estimand"),
                     "--sizes", "")
    assert code == 2


def test_bench_rows(capsys, fixture_path):
    code, out, _ = run(capsys, "bench", "--graph", fixture_path("chain7.graph"),
                       "--estimand-file", fixture_path("chain7.estimand"),
                       "--sizes", "50,100", "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.strip().splitlines()))
    assert len(rows) == 3
    assert rows[1][0] == "50" and rows[2][0] == "100"


def test_bad_decomposition_exit2(capsys, napkin, tmp_path):
    graph, estimand, data = napkin
    bad = tmp_path / "bad.td"
    bad.write_text("cluster 0: chi={W} psi={f0} cover={f0}\n")
    code, _, _ = run(capsys, "estimate", "--graph", graph, "--data", data,
                     "--estimand-file", estimand, "--decomposition", str(bad))
    assert code == 2


@pytest.mark.parametrize("td, error", [
    ("cluster 0: chi={A,B} cover={f0}\n", "x.td:1: cluster needs chi={...} and psi={...}"),
    ("cluster 0: chi={A,B} psi={f0,f1} cover={f0}\nedge 0 5\n",
     "tree: edge (0,5) references a missing cluster; tree: cluster graph is not a tree"),
    ("cluster 0: chi={A,B} psi={f0,f1} cover={f9}\n",
     "condition 4: cluster 0 cover uses unknown f9; "
     "condition 4: cluster 0 cover misses ['A', 'B']"),
])
def test_supplied_decomposition_input_error_exit2(capsys, tmp_path, monkeypatch, td, error):
    # the level's terms are f0 = P(A|B) and f1 = P(B)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "g.graph").write_text("var A 2\nvar B 2\n")
    (tmp_path / "x.td").write_text(td)
    code, out, err = run(capsys, "analyze", "--graph", "g.graph",
                         "--estimand", "sum[B](P(A|B) P(B))", "--decomposition", "x.td")
    assert (code, out, err) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("argv, name", [
    (("estimate", "--do", "W=0"), "W"),   # W is summed out at the root
    (("oracle", "--do", "W=0"), "W"),
    (("estimate", "--do", "Q=0"), "Q"),   # not a variable of the estimand
    (("oracle", "--do", "Q=0"), "Q"),
    (("estimate", "--do", "X=7"), "X"),   # X has domain 0..2
    (("estimate", "--do", "X=abc"), "X"),  # not an integer
    (("estimate", "--do", "X"), "X"),      # no value
    (("oracle", "--do", "=1"), "=1"),      # no name
])
def test_do_outside_contract_exit2(capsys, napkin, argv, name):
    graph, estimand, data = napkin
    code, _, err = run(capsys, argv[0], "--graph", graph, "--data", data,
                       "--estimand-file", estimand, *argv[1:])
    assert code == 2
    assert repr(name) in err or f"{name}=" in err


SCALAR_CHILD = "P(A|B) P(B|C) P(C|A) / sum[W](P(W))"


def test_cyclic_level_with_scalar_child_output(capsys, tmp_path):
    """The denominator has no free variable, so the cyclic root level holds a
    g-edge with an empty scope, which the bucket tree puts in its last bucket."""
    graph = tmp_path / "four.graph"
    graph.write_text("var A 2\nvar B 2\nvar C 2\nvar W 2\nA -> B\nB -> C\nC -> W\n")
    code, out, err = run(capsys, "analyze", "--graph", str(graph), "--estimand", SCALAR_CHILD)
    assert code == 0, err
    level0 = next(lv for lv in json.loads(out)["levels"] if lv["level"] == 0)
    assert (level0["w"], level0["hw"]) == (2, 2)
    data = str(tmp_path / "four.csv")
    assert main(["simulate", "--graph", str(graph), "--rows", "300", "--out", data]) == 0
    for restarts in ("0", "2"):
        code, out, err = run(capsys, "oracle", "--graph", str(graph), "--data", data,
                             "--estimand", SCALAR_CHILD, "--restarts", restarts)
        assert code == 0, err
        assert json.loads(out)["max_rel_discrepancy"] == 0


def test_analyze_has_no_do_option(capsys, fixture_path):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--graph", fixture_path("napkin.graph"),
              "--estimand-file", fixture_path("napkin.estimand"), "--do", "Q=0"])
    assert exc.value.code == 2
    assert "--do" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["estimate", "analyze"])
def test_undeclared_estimand_variable_exit2(capsys, napkin, cmd):
    graph, _, data = napkin
    extra = ("--data", data) if cmd == "estimate" else ()
    code, _, err = run(capsys, cmd, "--graph", graph, "--estimand", "P(Z|X)", *extra)
    assert code == 2
    assert "'Z'" in err and "not declared" in err


@pytest.mark.parametrize("stem, td", [("napkin", None), ("cone_cloud", "cone_cloud.td")])
def test_analyze_reports_the_plan_estimate_runs(capsys, fixture_path, tmp_path, stem, td):
    graph = fixture_path(f"{stem}.graph")
    data = str(tmp_path / "d.csv")
    assert main(["simulate", "--graph", graph, "--rows", "100", "--out", data]) == 0
    common = ["--graph", graph, "--estimand-file", fixture_path(f"{stem}.estimand")]
    if td:
        common += ["--decomposition", fixture_path(td)]
    code, analyzed, _ = run(capsys, "analyze", *common)
    assert code == 0
    code, estimated, _ = run(capsys, "estimate", "--data", data, *common)
    assert code == 0
    keys = ("w", "hw", "hw_no_outputs", "is_hypertree", "n_vars", "n_factors")
    by_level = {lv["level_id"]: lv for lv in json.loads(estimated)["levels"]}
    for lv in json.loads(analyzed)["levels"]:
        assert {k: lv[k] for k in keys} == {k: by_level[lv["level"]][k] for k in keys}


@pytest.mark.parametrize("td", [None, "cone_cloud.td"])
def test_bench_plans_once_per_run(capsys, fixture_path, monkeypatch, td):
    from pihte import cli, engine

    calls = {"plan": 0, "load_decomposition": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(engine, "plan", counted("plan", engine.plan))
    monkeypatch.setattr(cli, "load_decomposition",
                        counted("load_decomposition", cli.load_decomposition))
    argv = ["bench", "--graph", fixture_path("cone_cloud.graph"),
            "--estimand-file", fixture_path("cone_cloud.estimand"),
            "--sizes", "50,100,200", "--format", "json"]
    if td:
        argv += ["--decomposition", fixture_path(td)]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert [row["samples"] for row in json.loads(out)] == [50, 100, 200]
    assert calls == {"plan": 1, "load_decomposition": 1 if td else 0}


def test_missing_data_column_exit2(capsys, napkin, tmp_path):
    graph, estimand, data = napkin
    rows = list(csv.reader(open(data)))
    keep = [i for i, name in enumerate(rows[0]) if name != "W"]
    no_w = tmp_path / "no_w.csv"
    no_w.write_text("\n".join(",".join(row[i] for i in keep) for row in rows) + "\n")
    code, _, err = run(capsys, "estimate", "--graph", graph, "--data", str(no_w),
                       "--estimand-file", estimand)
    assert code == 2
    assert "no column 'W'" in err


@pytest.mark.parametrize("cmd, missing, message", [
    ("analyze", "--estimand-file", "an estimand is required"),
    ("estimate", "--estimand-file", "an estimand is required"),
    ("oracle", "--estimand-file", "an estimand is required"),
    ("oracle", "--graph", "oracle needs --graph and --data unless --suite is used"),
    ("oracle", "--data", "oracle needs --graph and --data unless --suite is used"),
])
def test_missing_input_exit2(capsys, napkin, cmd, missing, message):
    graph, estimand, data = napkin
    given = {"--graph": graph, "--data": data, "--estimand-file": estimand}
    del given[missing]
    code, out, err = run(capsys, cmd, *(a for pair in given.items() for a in pair))
    assert code == 2 and not out
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("option, value", [
    ("--graph", "g.graph"), ("--data", "d.csv"), ("--estimand", "P(A)"),
    ("--estimand-file", "e.estimand"), ("--do", "V0=9"), ("--decomposition", "c.td"),
])
def test_oracle_suite_rejects_the_options_of_one_instance(capsys, option, value):
    """Each suite instance draws its own graph, data and estimand, so an
    option that would fix one is an input error, read before any file."""
    code, out, err = run(capsys, "oracle", "--suite", "2", option, value)
    assert code == 2 and not out
    assert err.count("\n") == 1 and err.startswith(f"error: {option} does not apply to --suite")


@pytest.mark.parametrize("argv, option", [
    (["simulate", "--rows", "-3"], "--rows"),
    (["simulate", "--rows", "0"], "--rows"),
    (["bench", "--estimand-file", "napkin.estimand", "--sizes", "50,-5"], "--sizes"),
    (["analyze", "--estimand-file", "napkin.estimand", "--restarts", "-2"], "--restarts"),
    (["estimate", "--estimand-file", "napkin.estimand", "--data", "napkin.csv",
      "--restarts", "-1"], "--restarts"),
    (["oracle", "--suite", "-2"], "--suite"),
    (["bench", "--estimand-file", "napkin.estimand", "--sizes", "10,x"], "--sizes"),
] + [
    ([cmd, "--dist", dist, "--alpha", alpha]
     + (["--estimand-file", "napkin.estimand", "--sizes", "50"] if cmd == "bench" else []),
     "--alpha")
    for cmd in ("simulate", "bench")
    for dist in ("dirichlet", "mixture")
    for alpha in ("0", "-1", "nan", "inf", "1e308")  # 1e308 overflows the Dirichlet draw
] + [
    (["oracle", "--graph", "napkin.graph", "--data", "napkin.csv",
      "--estimand-file", "napkin.estimand", option, value], option)
    for option, value in (("--tolerance", "nan"), ("--tolerance", "-1"),
                          ("--dense-limit", "0"), ("--dense-limit", "-1"))
] + [
    (["simulate", "--seed", "-1"], "--seed"),
    (["bench", "--estimand-file", "napkin.estimand", "--sizes", "50", "--seed", "-1"], "--seed"),
    (["oracle", "--suite", "1", "--seed", "-1"], "--seed"),
    (["oracle", "--suite", "0"], "--suite"),
])
def test_out_of_range_integer_option_exit2(capsys, napkin, argv, option):
    graph, estimand, data = napkin
    paths = {"napkin.estimand": estimand, "napkin.csv": data, "napkin.graph": graph}
    argv = [paths.get(a, a) for a in argv]
    if argv[0] != "oracle":
        argv += ["--graph", graph]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: " + option)


def test_simulate_alpha_just_below_overflow(capsys, fixture_path, tmp_path):
    code, _, err = run(capsys, "simulate", "--graph", fixture_path("napkin.graph"),
                       "--alpha", "1e307", "--rows", "20", "--out", str(tmp_path / "d.csv"))
    assert code == 0, err


def test_supplied_cluster_without_cover_gets_greedy_cover(capsys, napkin, tmp_path):
    graph, estimand, data = napkin
    td = tmp_path / "no_cover.td"
    td.write_text("cluster 0: chi={R,W,X,Y} psi={f0,f1,g1}\n")
    code, out, _ = run(capsys, "estimate", "--graph", graph, "--data", data,
                       "--estimand-file", estimand, "--decomposition", str(td))
    assert code == 0
    rep = json.loads(out)
    assert rep["levels"][0]["hw"] == 1
    assert rep["hierarchy_bound_exponent"] == 2


@pytest.mark.parametrize("text", [
    "sum[A](" * 2000 + "P(A)" + ")" * 2000,
    "(" * 3000 + "P(A)" + ")" * 3000,
], ids=["2000_sums", "3000_parentheses"])
def test_deep_nesting_exit2(capsys, tmp_path, text):
    graph = tmp_path / "a.graph"
    graph.write_text("var A 2\n")
    code, _, err = run(capsys, "analyze", "--graph", str(graph), "--estimand", text)
    assert code == 2
    assert "nesting" in err and "position" in err


def test_repeated_name_in_term_exit2(capsys, napkin):
    graph, _, data = napkin
    for text, name in (("P(X,X)", "'X'"), ("P(X|R,R)", "'R'")):
        code, out, err = run(capsys, "estimate", "--graph", graph, "--data", data,
                             "--estimand", text)
        assert code == 2 and not out
        assert "position" in err and name in err


NAPKIN_CLUSTER = "cluster 0: chi={R,W,X,Y} psi={f0,f1,g1}\n"
# case -> (file suffix, file text, what the message names)
BAD_FILES = {
    "td_edge_one_id": ("td", NAPKIN_CLUSTER + "edge 0\n", "bad.td:2"),
    "td_edge_not_int": ("td", NAPKIN_CLUSTER + "edge a b\n", "bad.td:2"),
    "td_bogus_line": ("td", NAPKIN_CLUSTER + "bogus\n", "bad.td:2"),
    "td_no_cluster": ("td", "# nothing here\n", "bad.td: no clusters"),
    # R and X sit in clusters 0 and 2, joined only through cluster 1
    "td_condition_3": ("td", "cluster 0: chi={R,W,X,Y} psi={f0,f1}\ncluster 1: chi={W} psi={}\n"
                       "cluster 2: chi={R,X} psi={g1}\nedge 0 1\nedge 1 2\n", "condition 3"),
    "graph_var_no_size": ("graph", "var A\n", "bad.graph:1"),
    "graph_var_bad_size": ("graph", "var A x\n", "bad.graph:1"),
    "graph_var_size_0": ("graph", "var A 0\n", "bad.graph:1"),
    "graph_var_size_2**63": ("graph", f"var A {2**63}\n",
                             "bad.graph:1: domain size must be in 1..2**63-1"),
    "graph_bad_arrow": ("graph", "var A 2\nvar B 2\nA => B\n", "bad.graph:3"),
    "graph_undeclared_endpoint": ("graph", "var A 2\nA -> B\nvar C 2\nC -> Z\n",
                                  "bad.graph:2: edge endpoint 'B' not declared"),
    "graph_cycle": ("graph", "var A 2\nvar B 2\nA -> B\nB -> A\n",
                    "bad.graph: directed edges contain a cycle"),
}
# case -> (CSV header over napkin's data, what the message names)
BAD_HEADERS = {"csv_header": ("W,W,X,Y", "dup.csv:1: column 'W' appears more than once"),
               "csv_unknown_column": ("R,W,X,Z", "dup.csv:1: column 'Z' is not declared")}
BAD_MAX_ENTRIES = {"max_entries_env": "abc", "max_entries_0": "0", "max_entries_-1": "-1"}


@pytest.mark.parametrize("case", [*BAD_HEADERS, "td_cluster", "do",
                                  *BAD_MAX_ENTRIES, *BAD_FILES])
def test_repeated_or_bad_input_names_itself_exit2(capsys, napkin, tmp_path, monkeypatch,
                                                  case):
    graph, estimand, data = napkin
    argv = ["estimate", "--graph", graph, "--data", data, "--estimand-file", estimand]
    if case in BAD_HEADERS:
        rows = open(data).read().splitlines()
        assert rows[0] == "R,W,X,Y"
        header, name = BAD_HEADERS[case]
        bad = tmp_path / "dup.csv"
        bad.write_text("\n".join([header] + rows[1:]) + "\n")
        argv[4] = str(bad)
    elif case == "td_cluster":
        bad = tmp_path / "dup.td"
        bad.write_text("cluster 0: chi={R,W,X,Y} psi={f0,f1,g1}\n" * 2)
        argv += ["--decomposition", str(bad)]
        name = "dup.td:2: cluster 0"
    elif case == "do":
        argv += ["--do", "X=1,X=2"]
        name = "'X'"
    elif case in BAD_MAX_ENTRIES:
        monkeypatch.setenv("PIHTE_MAX_ENTRIES", BAD_MAX_ENTRIES[case])
        name = "PIHTE_MAX_ENTRIES"
    else:
        suffix, text, name = BAD_FILES[case]
        bad = tmp_path / f"bad.{suffix}"
        bad.write_text(text)
        if suffix == "td":
            argv += ["--decomposition", str(bad)]
        else:
            argv[2] = str(bad)
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert name in err


def napkin_inputs(napkin, tmp_path):
    """Napkin's four text inputs, keyed by suffix, with a one-cluster `.td`."""
    graph, estimand, data = napkin
    td = tmp_path / "napkin.td"
    td.write_text(NAPKIN_CLUSTER)
    return {"graph": graph, "estimand": estimand, "csv": data, "td": str(td)}


def estimate_inputs(capsys, files):
    return run(capsys, "estimate", "--graph", files["graph"], "--estimand-file",
               files["estimand"], "--data", files["csv"], "--decomposition", files["td"])


@pytest.mark.parametrize("suffix", ["graph", "estimand", "csv", "td"])
def test_input_with_a_byte_order_mark_reads_as_without(capsys, napkin, tmp_path, suffix):
    files = napkin_inputs(napkin, tmp_path)
    code, out, _ = estimate_inputs(capsys, files)
    assert code == 0
    bom = tmp_path / f"bom.{suffix}"
    with open(files[suffix], "rb") as fh:
        bom.write_bytes(b"\xef\xbb\xbf" + fh.read())
    files[suffix] = str(bom)
    code, bom_out, err = estimate_inputs(capsys, files)
    assert (code, err) == (0, "")
    assert json.loads(bom_out)["result"] == json.loads(out)["result"]


@pytest.mark.parametrize("suffix", ["graph", "estimand", "csv", "td"])
def test_input_that_is_not_utf8_names_itself_exit2(capsys, napkin, tmp_path, suffix):
    files = napkin_inputs(napkin, tmp_path)
    bad = tmp_path / f"bad.{suffix}"
    with open(files[suffix], "rb") as fh:
        text = fh.read()
    cut = text.index(b"\n") + 1  # a byte of Latin-1 after the first line
    bad.write_bytes(text[:cut] + b"caf\xe9\n" + text[cut:])
    files[suffix] = str(bad)
    code, out, err = estimate_inputs(capsys, files)
    assert code == 2 and not out
    assert err == f"error: {bad}: byte 0xe9 is not UTF-8 (invalid continuation byte)\n"


AB_GRAPH = "var A 2\nvar B 2\nA -> B\n"
AB_ROWS = "A,B\n0,0\n0,1\n1,1\n1,1\n"


@pytest.mark.parametrize("cmd, td, message", [
    # brute force raises as well, so the oracle agrees and exits as estimate does
    ("oracle", None, "entry {'A': 1, 'B': 0} has no denominator support"),
    ("estimate", "cluster 0: chi={A,B} psi={f0,f1,g1}\n",
     "entry {'A': 1, 'B': 0} has no denominator support"),
    ("estimate", None, "entry {'A': 1, 'B': 0} has no denominator support"),
])
def test_nonzero_over_zero_denominator_exit3(capsys, tmp_path, cmd, td, message):
    # P(A=1) P(B=0) = 0.125 but no row has A=1, B=0. P(A) and P(B) are each
    # supported alone; the support check joins both before it meets the
    # denominator, so every decomposition exits 3
    (tmp_path / "ab.graph").write_text(AB_GRAPH)
    (tmp_path / "ab.csv").write_text(AB_ROWS)
    argv = [cmd, "--graph", str(tmp_path / "ab.graph"), "--data", str(tmp_path / "ab.csv"),
            "--estimand", "P(A) P(B) / P(A,B)"]
    if td:
        (tmp_path / "ab.td").write_text(td)
        argv += ["--decomposition", str(tmp_path / "ab.td")]
    code, out, err = run(capsys, *argv)
    assert code == 3 and not out
    assert message in err


@pytest.mark.parametrize("cap, want", [("3", 4), ("4", 3)])
def test_support_tables_are_held_to_the_cap(capsys, tmp_path, monkeypatch, cap, want):
    # every table the level charges holds at most 3 entries, but the support
    # check joins P(A) and P(B) into 4 before it finds (A=1, B=0) unsupported
    (tmp_path / "ab.graph").write_text(AB_GRAPH)
    (tmp_path / "ab.csv").write_text(AB_ROWS)
    monkeypatch.setenv("PIHTE_MAX_ENTRIES", cap)
    code, out, _ = run(capsys, "estimate", "--graph", str(tmp_path / "ab.graph"),
                       "--data", str(tmp_path / "ab.csv"), "--estimand", "P(A) P(B) / P(A,B)")
    assert code == want and not out


@pytest.mark.parametrize("cmd", ["estimate", "oracle"])
def test_an_underflow_inside_a_proved_child_falls_back_to_the_check(capsys, tmp_path, cmd):
    # P(A,B) holds the denominator's scope {A}, so its support is proved, but
    # P(A=1) = 0.001 to the 110th power underflows: the child drops A=1, the
    # check runs after all and exits 3, and brute force divides by zero too
    (tmp_path / "ab.graph").write_text("var A 2\nvar B 2\n")
    (tmp_path / "ab.csv").write_text("A,B\n1,0\n" + "0,0\n0,1\n" * 499 + "0,1\n")
    estimand = "P(A,B) / (" + " ".join(["P(A)"] * 110) + ")"
    code, out, err = run(capsys, cmd, "--graph", str(tmp_path / "ab.graph"),
                         "--data", str(tmp_path / "ab.csv"), "--estimand", estimand)
    assert code == 3 and not out
    assert "entry {'A': 1} has no denominator support" in err


ABCD_GRAPH = "var A 2\nvar B 2\nvar C 2\nvar D 2\n"
ABCD_ROWS = "A,B,C,D\n1,0,1,0\n1,1,0,1\n0,0,1,1\n1,1,0,1\n"


def run_abcd(capsys, tmp_path, cmd, estimand):
    (tmp_path / "abcd.graph").write_text(ABCD_GRAPH)
    (tmp_path / "abcd.csv").write_text(ABCD_ROWS)
    return run(capsys, cmd, "--graph", str(tmp_path / "abcd.graph"),
               "--data", str(tmp_path / "abcd.csv"), "--estimand", estimand)


def test_denominator_zero_only_where_the_numerator_is_zero_agrees(capsys, tmp_path):
    # (A=0, B=1, D=1) has no denominator, but P(B,C|A), met in another cluster, is zero there
    code, out, err = run_abcd(capsys, tmp_path, "oracle", "P(D,A) P(B,C|A) P(B|D) / (P(A,B))")
    assert code == 0, err
    assert json.loads(out)["pass"]


def test_nonzero_over_zero_across_clusters_exit3(capsys, tmp_path):
    # the denominator's cluster meets only part of the numerator, each part
    # supported alone; the numerator is 0.25 where the denominator is 0
    code, out, _ = run_abcd(capsys, tmp_path, "estimate", "P(C) P(B) / (P(D,A|C))")
    assert code == 3 and not out


def run_ab3(capsys, tmp_path, cmd, estimand, *extra):
    # B=2 is never observed, so P(B) is zero there
    (tmp_path / "ab3.graph").write_text("var A 2\nvar B 3\nA -> B\n")
    (tmp_path / "ab3.csv").write_text("A,B\n0,0\n1,1\n1,0\n")
    return run(capsys, cmd, "--graph", str(tmp_path / "ab3.graph"),
               "--data", str(tmp_path / "ab3.csv"), "--estimand", estimand, *extra)


@pytest.mark.parametrize("cmd", ["estimate", "oracle"])
@pytest.mark.parametrize("estimand, do", [
    ("P(A) / (P(B))", ()),
    ("sum[A](P(A)) / (P(B))", ()),
    ("P(A) / (P(B))", ("--do", "B=2")),
])
def test_numerator_without_the_denominator_variable_exit3(capsys, tmp_path, cmd, estimand, do):
    # the numerator never binds B, so it is nonzero at the unseen B=2 as well;
    # the error names the value of B the denominator lacks
    code, out, err = run_ab3(capsys, tmp_path, cmd, estimand, *do)
    assert code == 3 and not out
    assert "entry {'B': 2} has no denominator support" in err


@pytest.fixture
def brute_force_raised(monkeypatch):
    """The DivisionByZero errors that brute force raises from here on."""
    seen = []

    def brute_force(*args):
        try:
            return brute_force_eval(*args)
        except DivisionByZero as exc:
            seen.append(exc)
            raise

    monkeypatch.setattr(engine, "brute_force_eval", brute_force)
    return seen


def test_oracle_agrees_when_both_sides_raise(capsys, tmp_path, brute_force_raised):
    # brute force runs after the engine raises, and raises too
    code, out, err = run_ab3(capsys, tmp_path, "oracle", "P(A) / (P(B))")
    assert code == 3 and not out
    assert "entry {'B': 2} has no denominator support" in err
    assert len(brute_force_raised) == 1


def test_oracle_suite_agrees_when_both_sides_raise(capsys, tmp_path, monkeypatch,
                                                   brute_force_raised):
    # the suite counts the instance as agreeing and goes on; B=1 is never
    # observed, so P(B) is zero there
    (tmp_path / "ab.graph").write_text("var A 2\nvar B 2\n")
    (tmp_path / "ab.csv").write_text("A,B\n0,0\n1,0\n")
    graph = load_graph(tmp_path / "ab.graph")
    case = suite.Instance(0, graph, load_dataset(tmp_path / "ab.csv", graph), "P(A) / (P(B))")
    monkeypatch.setattr(suite, "make_instance", lambda seed: case)
    code, out, _ = run(capsys, "oracle", "--suite", "1")
    assert code == 0
    report = json.loads(out)
    assert (report["failures"], report["instances"]) == ([], 1)
    assert len(brute_force_raised) == 1


def test_oracle_mismatch_when_only_the_engine_raises(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(engine, "brute_force_eval", lambda *args: unit_factor())
    code, out, err = run_ab3(capsys, tmp_path, "oracle", "P(A) / (P(B))")
    assert code == 5
    assert json.loads(out)["pass"] is False
    assert "engine alone raised: entry {'B': 2} has no denominator support" in err


def test_oracle_mismatch_when_only_brute_force_raises(capsys, tmp_path, monkeypatch):
    def brute_force(*args):
        raise DivisionByZero("0.5 / 0 at {'B': 1}")

    monkeypatch.setattr(engine, "brute_force_eval", brute_force)
    code, out, err = run_ab3(capsys, tmp_path, "oracle", "P(A) / (P(B))", "--do", "B=1")
    assert code == 5
    assert json.loads(out)["pass"] is False
    assert "brute force alone raised: 0.5 / 0 at {'B': 1}" in err
    code, out, _ = run(capsys, "oracle", "--suite", "2")
    assert code == 5
    assert json.loads(out)["failures"] == [
        {"seed": seed, "estimand": make_instance(seed).estimand, "raised": "brute force",
         "error": "0.5 / 0 at {'B': 1}"} for seed in (0, 1)]


def test_do_slice_without_a_zero_denominator_evaluates(capsys, tmp_path):
    # under do(B=1) the ratio is read at B=1 alone, where P(B) is nonzero,
    # by the engine and by the oracle's brute force alike
    code, out, err = run_ab3(capsys, tmp_path, "estimate", "P(A) / (P(B))", "--do", "B=1")
    assert code == 0, err
    assert [k for k, _ in json.loads(out)["result"]["entries"]] == [[0, 1], [1, 1]]
    code, out, err = run_ab3(capsys, tmp_path, "oracle", "P(A) / (P(B))", "--do", "B=1")
    assert code == 0, err
    assert json.loads(out)["pass"]


@pytest.mark.parametrize("estimand", ["P(B) (P(A) / (P(B)))", "(P(A) / (P(B))) P(B)"])
def test_zero_factor_beside_a_zero_denominator_evaluates(capsys, tmp_path, estimand):
    # P(B) is zero at B=2 in the product too, in either operand order
    code, out, err = run_ab3(capsys, tmp_path, "estimate", estimand)
    assert code == 0, err
    assert [k for k, _ in json.loads(out)["result"]["entries"]] == [[0, 0], [0, 1], [1, 0], [1, 1]]
    code, out, err = run_ab3(capsys, tmp_path, "oracle", estimand)
    assert code == 0, err
    assert json.loads(out)["pass"]


@pytest.mark.parametrize("estimand, rows", [
    # C=1 is never seen: P(B=0, C=1) is zero where P(B=0) is not, but so is P(C=1)
    ("P(C) (P(B) / (P(B) / (P(B,C))))", "0,0,0\n0,1,0\n"),
    # P(B=0, C=1) is zero where P(A=0, B=0) is not, but so is P(A=0, C=1); checked
    # against the context's C values alone, without A, this would exit 3
    ("P(A,C) (P(A,B) / (P(A,B) / (P(B,C))))", "0,0,0\n1,1,1\n"),
])
def test_zero_factor_outside_a_numerator_hides_a_nested_zero_denominator(
        capsys, tmp_path, estimand, rows):
    # a zero factor beside a ratio makes the product zero, whatever its denominator raises
    (tmp_path / "abc.graph").write_text("var A 2\nvar B 2\nvar C 2\n")
    (tmp_path / "abc.csv").write_text("A,B,C\n" + rows)
    code, out, err = run(capsys, "oracle", "--graph", str(tmp_path / "abc.graph"),
                         "--data", str(tmp_path / "abc.csv"), "--estimand", estimand)
    assert code == 0, err
    assert json.loads(out)["pass"]


@pytest.mark.parametrize("cmd", ["estimate", "oracle", "analyze"])
def test_sum_over_unused_variable_exit2(capsys, tmp_path, cmd):
    # the oracle would sum P(A) over both values of B and double it; flatten could not
    (tmp_path / "ab.graph").write_text(AB_GRAPH)
    (tmp_path / "ab.csv").write_text(AB_ROWS)
    code, out, err = run(capsys, cmd, "--graph", str(tmp_path / "ab.graph"),
                         "--data", str(tmp_path / "ab.csv"), "--estimand", "sum[B](P(A))")
    assert code == 2 and not out
    assert "'B'" in err and "position 4" in err


def test_analyze_bounds_come_from_the_plan(capsys, napkin, tmp_path):
    graph, estimand, data = napkin
    wide = tmp_path / "napkin_z.graph"
    wide.write_text(open(graph).read() + "var Z 9\n")
    common = ["--graph", str(wide), "--estimand-file", estimand, "--data", data]
    code, analyzed, _ = run(capsys, "analyze", *common)
    assert code == 0
    code, estimated, _ = run(capsys, "estimate", *common)
    assert code == 0
    a, e = json.loads(analyzed)["bounds"], json.loads(estimated)["bounds"]
    assert a["k"] == e["k"] == 3
    assert a["tw_bound_log10"] == e["tw_bound_log10"]


def test_analyze_reports_bounds_past_a_float_as_null(capsys, tmp_path):
    # one cluster covered by all 110 f-edges of a 111-variable binary chain:
    # hw is 110, and t^hw at 1,000 rows is 10^330, past the float range
    names = ",".join(f"V{i}" for i in range(111))
    edges = ",".join(f"f{i}" for i in range(110))
    (tmp_path / "g.graph").write_text("".join(f"var V{i} 2\n" for i in range(111)))
    (tmp_path / "d.csv").write_text(names + "\n" + ("0," * 110 + "0\n") * 1000)
    (tmp_path / "x.td").write_text(f"cluster 0: chi={{{names}}} psi={{{edges}}} cover={{{edges}}}\n")
    terms = " ".join(f"P(V{i}|V{i - 1})" for i in range(1, 111))
    code, out, err = run(capsys, "analyze", "--graph", str(tmp_path / "g.graph"),
                         "--estimand", f"sum[{names[3:]}]({terms})",
                         "--decomposition", str(tmp_path / "x.td"),
                         "--data", str(tmp_path / "d.csv"))
    assert code == 0 and "Traceback" not in err
    level = json.loads(out)["bounds"]["levels"][0]
    assert (level["hw"], level["hw_space"], level["hw_time"]) == (110, None, None)


def test_header_only_data_exit2(capsys, napkin, tmp_path):
    graph, estimand, _ = napkin
    empty = tmp_path / "empty.csv"
    empty.write_text("R,W,X,Y\n")
    for cmd in ("analyze", "estimate", "oracle"):
        code, out, err = run(capsys, cmd, "--graph", graph, "--estimand-file", estimand,
                             "--data", str(empty))
        assert code == 2 and not out
        assert f"{empty}: " in err and "zero rows" in err


def test_dataset_cell_past_the_csv_field_limit_exit2(napkin, tmp_path):
    """A cell longer than csv's field size limit (131,072 characters) names
    its line and exits 2, with no traceback."""
    graph, estimand, _ = napkin
    long = tmp_path / "long.csv"
    long.write_text("R,W,X,Y\n0,1,2,0\n1,0,0," + "1" * 140_000 + "\n")
    done = run_hashed(0, "estimate", "--graph", graph, "--estimand-file", estimand,
                      "--data", str(long))
    assert done.returncode == 2 and not done.stdout
    assert done.stderr == f"error: {long}:3: field larger than field limit (131072)\n"


def test_oracle_orders_names_with_equal_digit_runs_under_any_hash_seed(capsys, tmp_path):
    # V1 and V01 have equal digit runs; their order must not follow set iteration
    graph = tmp_path / "v01.graph"
    graph.write_text("var V1 2\nvar V01 3\nvar A 2\nV01 -> V1\nA -> V1\n")
    data = str(tmp_path / "v01.csv")
    assert main(["simulate", "--graph", str(graph), "--rows", "200", "--out", data]) == 0
    for hash_seed in range(4):
        done = run_hashed(hash_seed, "oracle", "--graph", str(graph), "--data", data,
                          "--estimand", "P(V01,V1|A)")
        assert done.returncode == 0, (hash_seed, done.stdout, done.stderr)
    for text in ("P(V1,V01|A)", "P(V01,V1|A)"):
        code, out, _ = run(capsys, "estimate", "--graph", str(graph), "--data", data,
                           "--estimand", text)
        assert code == 0
        assert [n for n, _ in json.loads(out)["result"]["scope"]] == ["A", "V01", "V1"]


def test_validation_messages_do_not_depend_on_hash_seed(fixture_path, tmp_path):
    td = open(fixture_path("cone_cloud.td")).read().splitlines()
    assert td[1].startswith("cluster 0: chi={V1,V2,V3,")
    td[1] = "cluster 0: chi={V1,V2} " + td[1].split("} ", 1)[1]
    bad = tmp_path / "bad.td"
    bad.write_text("\n".join(td) + "\n")
    argv = ["analyze", "--graph", fixture_path("cone_cloud.graph"),
            "--estimand-file", fixture_path("cone_cloud.estimand"), "--decomposition", str(bad)]
    runs = [run_hashed(hash_seed, *argv) for hash_seed in (0, 1)]
    assert [r.returncode for r in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr
    assert runs[0].stderr.count("condition 2: cluster 0 misses") == 7
    assert runs[0].stderr.index("of f0;") < runs[0].stderr.index("of f1;")


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("cmd", ["analyze", "simulate"])
def test_closed_stdout_is_an_output_error_exit2(fixture_path, cmd, unbuffered):
    """A stdout whose reader closed before the CLI writes is an output error:
    exit 2 and one `error:` line, with no traceback and no failed flush at
    exit, whether stdout is buffered (the text fails at `_emit`'s flush) or
    not (it fails at the write)."""
    argv = {"analyze": ["--estimand-file", fixture_path("chain7.estimand")],
            "simulate": ["--rows", "20000"]}[cmd]
    src = os.path.dirname(os.path.dirname(pihte.__file__))
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    read, write = os.pipe()
    os.close(read)  # no reader is left, so every write to the pipe fails
    try:
        proc = subprocess.run([sys.executable, "-m", "pihte.cli", cmd, "--graph",
                               fixture_path("chain7.graph"), *argv],
                              stdout=write, stderr=subprocess.PIPE, env=env, text=True)
    finally:
        os.close(write)
    assert proc.returncode == 2
    assert proc.stderr == "error: the output was closed before it was written\n"
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
