"""Write ``expected.json``: output hashes of the pinned-seed reference runs.

    python3 perfbench/record_expected.py

Run it from the root of a checkout only when a change is meant to alter the
random stream or the outputs, and say so in that change.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, import_program, work_directory


def main() -> int:
    import_program()
    import workloads

    runs = {}
    with work_directory() as workdir:
        for name in workloads.WORKLOADS:
            work = workloads.make(name, workloads.Budget(), workdir, os.cpu_count() or 1)
            outcomes = work.golden()
            for label, outcome in outcomes.items():
                if outcome.errors:
                    print(f"{name} {label}: {'; '.join(outcome.errors)}", file=sys.stderr)
                    return 1
            runs[name] = {label: outcome.digests for label, outcome in outcomes.items()}
    expected = {
        "seed": workloads.PINNED_SEED,
        "generations": workloads.GOLDEN_GENERATIONS,
        "runs": runs,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
