"""Report bytes, pinned: each CLI report below must match its file under
tests/reports/ byte for byte once its timing figures are masked.

The inputs are `napkin.csv` and `chain7.csv` in that folder, 30 rows each
from `pihte simulate --rows 30 --seed 3`; `analyze` on cone_cloud reads no
data. After a deliberate change to a
report, rewrite the expected files with
`PYTHONPATH=src python tests/test_reports.py` and review their diff.
"""

import contextlib
import io
import os
import re

import pytest

from pihte.cli import main

HERE = os.path.dirname(os.path.abspath(__file__))
REPORTS = os.path.join(HERE, "reports")
FIXTURES = os.path.join(HERE, "..", "fixtures")


def _inputs(stem, data=True):
    argv = ["--graph", os.path.join(FIXTURES, f"{stem}.graph"),
            "--estimand-file", os.path.join(FIXTURES, f"{stem}.estimand")]
    return argv + (["--data", os.path.join(REPORTS, f"{stem}.csv")] if data else [])


NAPKIN_SIZES = ["--sizes", "10,20,30"]
CASES = {
    "analyze_chain7.json": ["analyze", *_inputs("chain7")],
    "analyze_napkin.json": ["analyze", *_inputs("napkin")],
    "analyze_cone_td.json": ["analyze", *_inputs("cone_cloud", data=False),
                             "--decomposition", os.path.join(FIXTURES, "cone_cloud.td")],
    "estimate_chain7.json": ["estimate", *_inputs("chain7")],
    "estimate_chain7.csv": ["estimate", *_inputs("chain7"), "--format", "csv"],
    "estimate_napkin.json": ["estimate", *_inputs("napkin")],
    "estimate_napkin.csv": ["estimate", *_inputs("napkin"), "--format", "csv"],
    "estimate_napkin_do.json": ["estimate", *_inputs("napkin"), "--do", "X=1"],
    "estimate_napkin_do.csv": ["estimate", *_inputs("napkin"), "--do", "X=1",
                               "--format", "csv"],
    "bench_napkin.json": ["bench", *_inputs("napkin", data=False), *NAPKIN_SIZES],
    "bench_napkin.csv": ["bench", *_inputs("napkin", data=False), *NAPKIN_SIZES,
                         "--format", "csv"],
    "oracle_napkin.json": ["oracle", *_inputs("napkin")],
    "oracle_suite20.json": ["oracle", "--suite", "20"],
}


def masked(text):
    """`text` with each timing figure replaced by <time>: the JSON fields
    `wall_time` and `time`, and the second (time) column of a CSV report."""
    text = re.sub(r'("(?:wall_)?time": )[^,\n]+', r'\1"<time>"', text)
    return re.sub(r"^(\d+),[^,]+,", r"\1,<time>,", text, flags=re.M)


def report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, masked(out.getvalue())


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes(name):
    code, text = report(CASES[name])
    assert code == 0
    with open(os.path.join(REPORTS, name), encoding="utf-8", newline="") as fh:
        assert text == fh.read()


if __name__ == "__main__":
    for name, argv in CASES.items():
        code, text = report(argv)
        assert code == 0, name
        with open(os.path.join(REPORTS, name), "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
