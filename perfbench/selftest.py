"""Smoke test of the benchmark itself, on tiny budgets.

    python3 perfbench/selftest.py

Run from the root of a checkout. For every workload it checks that an
untraced and a traced run pass their output checks and emit every metric
named in ``BENCHMARK.json`` with its unit, that tracing puts back every
attribute it wrapped, and that two traced runs give identical counts.
Exits 1, naming every problem found, if any check fails.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, emit, import_program, run_workload

SMOKE_SEED = 3


def wrapped_attributes() -> dict:
    from layers import PATCHES
    from spans import resolve

    targets = [(module, path) for _, module, path in PATCHES] + [("figwasp.cli", "resolve_problem")]
    return {(module, path): getattr(*resolve(module, path)) for module, path in targets}


def counts(metrics: dict, spec: list[dict]) -> dict:
    return {m["name"]: metrics[m["name"]] for m in spec if m["unit"] in ("count", "B")}


def main() -> int:
    import_program()
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    budget = workloads.Budget(generations=4, study_runs=1, study_iterations=3)
    before = wrapped_attributes()
    problems = []
    for name in workloads.WORKLOADS:
        for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
            metrics, _, tally = run_workload(name, SMOKE_SEED, 0, trace, budget)
            if tally.failed:
                problems.append(f"{name} trace={int(trace)}: {tally.failed} of {tally.attempted} tasks failed")
            emitted = emit(metrics, spec[kind])
            missing = [m["name"] for m in spec[kind] if emitted.get(m["name"], {}).get("unit") != m["unit"]]
            if missing:
                problems.append(f"{name} trace={int(trace)}: metrics not emitted with their unit: {missing}")
            if trace:
                again, _, _ = run_workload(name, SMOKE_SEED, 0, trace, budget)
                first, second = counts(metrics, spec[kind]), counts(again, spec[kind])
                if first != second:
                    problems.append(f"{name}: traced counts differ between runs: {first} vs {second}")
        changed = [key for key, value in wrapped_attributes().items() if value is not before[key]]
        if changed:
            problems.append(f"{name}: attributes not restored after tracing: {changed}")
        print(f"{name}: checked", file=sys.stderr)
    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
