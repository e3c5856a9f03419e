"""No level's largest table grows past its recorded peak.

`peaks.json` holds each level's `max_table_entries` for suite instances
0-299 under restarts 0 and 2, and for the four fixtures at fixed sizes
(data from `random_cbn(..., dist="dirichlet", alpha=1.0, seed=3)` and
`sample_dataset(..., seed=4)`), as recorded before nested clusters were
folded into one CTE step. A change to scheduling, join order or aggregation
may lower a peak, never raise one. Regenerate the file with
`PYTHONPATH=src python tests/test_peaks.py`, only on purpose.
"""

import json
import os

from pihte import engine
from pihte.estimand import flatten, parse
from pihte.model import load_graph
from pihte.simulate import random_cbn, sample_dataset
from pihte.suite import make_instance

HERE = os.path.dirname(__file__)
PEAKS = os.path.join(HERE, "peaks.json")
FIXTURES = os.path.join(HERE, "..", "fixtures")
SIZES = {"chain7": (800, 12_800), "napkin": (800, 10_000),
         "chain99": (200, 800, 3_200), "cone_cloud": (400, 1_600)}


def level_peaks():
    """Each run's `{level id: max_table_entries}`, by run name; the cone
    runs on its min-fill decomposition, not its `.td`."""
    out = {}
    for seed in range(300):
        case = make_instance(seed)
        hier = flatten(parse(case.estimand))
        for restarts in (0, 2):
            report = engine.execute(engine.plan(hier, case.data.domains, 0, restarts), case.data)
            out[f"suite {seed} restarts {restarts}"] = report.levels
    for name, sizes in SIZES.items():
        graph = load_graph(os.path.join(FIXTURES, f"{name}.graph"))
        cbn = random_cbn(graph, dist="dirichlet", alpha=1.0, seed=3)
        with open(os.path.join(FIXTURES, f"{name}.estimand"), encoding="utf-8") as fh:
            p = engine.plan(flatten(parse(fh.read())),
                            {v.name: v.domain_size for v in graph.variables})
        for n in sizes:
            out[f"{name} {n}"] = engine.execute(p, sample_dataset(cbn, n, seed=4)).levels
    return {run: {str(lv.level_id): lv.max_table_entries for lv in levels}
            for run, levels in out.items()}


def test_no_level_peak_rises():
    with open(PEAKS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    got = level_peaks()
    assert got.keys() == recorded.keys()
    risen = {run: (got[run], peaks) for run, peaks in recorded.items()
             if got[run].keys() != peaks.keys()
             or any(got[run][lid] > peak for lid, peak in peaks.items())}
    assert not risen


if __name__ == "__main__":
    peaks = level_peaks()
    with open(PEAKS, "w", encoding="utf-8") as fh:  # one run a line
        fh.write("{\n" + ",\n".join(f"{json.dumps(run)}: {json.dumps(peaks[run])}"
                                     for run in sorted(peaks)) + "\n}\n")
