import json

import pytest

from pihte.chains import make_chain_estimand, make_chain_graph
from pihte.cli import main


@pytest.mark.parametrize("n", [7, 99])
def test_fixtures_are_the_builders_output(fixture_path, n):
    for suffix, text in (("graph", make_chain_graph(n)), ("estimand", make_chain_estimand(n))):
        with open(fixture_path(f"chain{n}.{suffix}"), encoding="utf-8", newline="") as fh:
            assert fh.read() == text


@pytest.mark.parametrize("n", [-1, 0, 1, 2, 4, 8])
def test_even_or_short_chains_are_rejected(n):
    for build in (make_chain_graph, make_chain_estimand):
        with pytest.raises(ValueError, match="odd and >= 3"):
            build(n)


def test_analyze_chain9(capsys, tmp_path):
    graph, estimand = tmp_path / "chain9.graph", tmp_path / "chain9.estimand"
    graph.write_text(make_chain_graph(9))
    estimand.write_text(make_chain_estimand(9))
    assert main(["analyze", "--graph", str(graph), "--estimand-file", str(estimand)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["max_w"], report["max_hw"]) == (8, 1)
