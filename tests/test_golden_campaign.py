"""Campaign golden: a multi-run campaign writes the same bytes, serial or parallel.

`test_golden.py` pins single runs; this pins what ``figwasp run`` writes for
a campaign of several runs per problem, so any change to how a campaign
schedules its runs (one at a time or a group of one problem's runs together)
must leave ``summary.csv`` and every trace file byte for byte as they were.
The config stops some runs early by stagnation and not others, so runs of
one problem end at different generations. The fixture holds the sha256 of
each file, recorded from the engine when the fixture was written:

    PYTHONPATH=src python tests/test_golden_campaign.py
"""

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

import pytest

from figwasp.cli import main

FIXTURE = Path(__file__).with_name("golden_campaign.json")
ITERATIONS = 30
# a window of 4 stops 7 of the 20 runs early, between generations 6 and 24:
# two of F1@30, one of F7@30 and four of pressure-vessel; F16 runs all 30
CONFIG = f"""schema = 1
problems = F1@30, F7@30, F16, pressure-vessel
runs = 5
seed = 1234
iterations = {ITERATIONS}
stagnation_window = 4
trace = true
"""


def campaign_digests(workdir: Path, workers: str) -> dict:
    cfg = workdir / "campaign.cfg"
    cfg.write_text(CONFIG)
    out = workdir / "out"
    saved = os.environ.get("FIGWASP_WORKERS")
    os.environ["FIGWASP_WORKERS"] = workers
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    finally:
        if saved is None:
            del os.environ["FIGWASP_WORKERS"]
        else:
            os.environ["FIGWASP_WORKERS"] = saved
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def trace_lengths(out: Path) -> list[int]:
    return [len(p.read_bytes().splitlines()) - 1 for p in sorted(out.glob("trace_*.csv"))]


@pytest.mark.parametrize("workers", ["1", "2", "3"])
def test_campaign_golden(tmp_path, workers):
    expected = json.loads(FIXTURE.read_text())
    assert campaign_digests(tmp_path, workers) == expected
    lengths = trace_lengths(tmp_path / "out")
    # the fixture covers runs of one problem that stop at different generations
    assert len(lengths) == 20 and min(lengths) < ITERATIONS and max(lengths) == ITERATIONS


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        digests = campaign_digests(Path(tmp), "1")
        print("trace lengths:", trace_lengths(Path(tmp) / "out"))
    FIXTURE.write_text(json.dumps(digests, indent=2) + "\n")
