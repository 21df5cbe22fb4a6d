"""The bytes `figwasp stats` writes, pinned by hash.

The summary files are written here with closed-form means, so the pinned
hashes depend on the statistics and the CSV writer only, never on an
optimizer run. Four algorithms over 24 problem rows, all against the
baseline `base`:

- `far` differs from `base` in every row: 24 non-zero differences, the
  normal tail;
- `near` equals `base` in 8 rows: 16 non-zero differences, the exact tail;
- `same` reads `base`'s own file: every difference is zero, "no information".

`same` ties `base` in every Friedman row and `near` ties both in 8 more, so
the mean ranks are mid-ranks over ties.
"""

import csv
import hashlib

from figwasp.cli import main

ROWS = 24

GOLDEN = {
    "friedman.csv": "f0e6f45f24ff94d5039ff0722bf834901cf2891adf1af01679522f79f77eb8ac",
    "wilcoxon.csv": "47864314b28a6cc27a518c99d9fd4caba7b4c2d5087ebb389d366765d888e156",
}


def base(i):
    return 10.0 + i


def far(i):
    return base(i) + (i % 5 + 1) * (-1.0 if i % 3 == 0 else 1.0)


def near(i):
    return base(i) if i % 3 == 0 else base(i) + (i % 5 - 1.5) * 0.5


def write_summary(path, mean):
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\r\n")
        writer.writerow(["problem", "dimension", "best", "worst", "mean", "std"])
        writer.writerows([f"P{i:02d}", "30", "0", "0", f"{mean(i):.6E}", "0"] for i in range(ROWS))


def test_stats_output_bytes_are_pinned(tmp_path):
    for mean in (base, far, near):
        write_summary(tmp_path / f"{mean.__name__}.csv", mean)
    files = {"base": "base", "same": "base", "far": "far", "near": "near"}
    inputs = [f"{name}={tmp_path / file}.csv" for name, file in files.items()]
    assert main(["stats", *inputs, "--baseline", "base", "--out", str(tmp_path / "out")]) == 0
    digests = {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN
