"""figwasp benchmark: one command for end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload d30 --seed 7 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``. The workloads are described in ``workloads.py``, the metric names
and units in ``BENCHMARK.json``.

Every run first replays short runs at the pinned seed and compares their
hashes with ``expected.json``; a mismatch, an exception, a non-finite best
or a broken output invariant counts as a failed task, and the command then
exits 1 after printing its result.

``--trace 0`` runs tasks back to back for about ``--seconds`` seconds, in
whole cycles of the workload's problems, and reports the end-to-end metrics,
with times rescaled to a reference host speed (see ``hostspeed.py``).
``--trace 1`` runs one cycle (one study on ``campaign``) untraced and then
traced, checks that both give the same output hashes, and reports the
per-layer metrics; it ignores ``--seconds``.

The last line of standard output is the JSON result. The line before it is
a JSON object of context: host, versions, worker count, task counts, the
percentile that ``task_s_tail`` reports, the unscaled median task time and
the line count of ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from hostspeed import HostSpeed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SETUP_CODE = (
    "import json, sys\n"
    "import figwasp.cli as cli\n"
    "for pid, dim in json.loads(sys.argv[1]):\n"
    "    cli.resolve_problem(pid, dim, cli.DEFAULT_PENALTY_COEFFICIENT)\n"
)


class ProgramMissing(RuntimeError):
    pass


def import_program() -> None:
    """Make ``src/figwasp`` of this checkout importable, and only that copy."""
    if not (SRC / "figwasp" / "__init__.py").is_file():
        raise ProgramMissing(f"no figwasp package under {SRC}")
    sys.path.insert(0, str(SRC))
    import figwasp

    if not Path(figwasp.__file__).resolve().is_relative_to(SRC):
        raise ProgramMissing(f"figwasp imported from {figwasp.__file__}, not from {SRC}")


@contextlib.contextmanager
def work_directory():
    """A scratch directory of this process under the checkout, removed afterwards."""
    path = ROOT / ".perfbench_work" / str(os.getpid())
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):
            path.parent.rmdir()  # only once no other run uses it


def _child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC)] + ([path] if path else [])))


def setup_seconds(problems, speed: HostSpeed) -> float:
    """Median time, at the reference host speed, of a fresh interpreter
    importing the CLI and building the problems."""
    times = []
    for _ in range(SETUP_REPEATS):
        speed.begin()
        with speed.sampling():
            start = time.perf_counter()
            subprocess.run([sys.executable, "-c", SETUP_CODE, json.dumps(problems)], env=_child_env(), check=True)
            elapsed = time.perf_counter() - start
        times.append(speed.end(elapsed)[1])
    return statistics.median(times)


def stats_import_seconds() -> float | None:
    """Median cumulative import time of ``figwasp.stats`` under ``-X importtime``."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import figwasp.cli"],
            env=_child_env(),
            check=True,
            capture_output=True,
            text=True,
        )
        match = re.search(r"^import time:\s*\d+ \|\s*(\d+) \|\s*figwasp\.stats$", proc.stderr, re.M)
        if match is None:
            return None
        times.append(int(match.group(1)) / 1e6)
    return statistics.median(times)


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with ten samples beyond it.

    Needs at least 20 samples for that percentile to reach the median; with
    fewer it falls back to the maximum (percentile 100).
    """
    ordered = sorted(times)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    k = n - 10
    return ordered[k - 1], 100.0 * k / n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Attempted and failed tasks, with the reason for each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, label: str, errors) -> bool:
        self.attempted += 1
        if errors:
            self.failed += 1
            print(f"FAILED {label}: {'; '.join(errors)}", file=sys.stderr)
        return not errors

    def attempt(self, label: str, fn):
        """Run ``fn()``, counting an exception as a failed task; None on failure."""
        try:
            return fn()
        except Exception:
            traceback.print_exc()
            self.record(label, ["exception"])
            return None


def check_golden(work, expected: dict, tally: Tally) -> None:
    """Replay the pinned-seed runs and compare their hashes with ``expected``."""
    outcomes = tally.attempt(f"{work.name} pinned replay", work.golden)
    if outcomes is None:
        return
    for label, outcome in outcomes.items():
        errors = list(outcome.errors)
        want = expected.get(label)
        if want is None:
            errors.append("no expected hashes recorded")
        elif outcome.digests != want:
            diff = sorted(k for k in set(want) | set(outcome.digests) if want.get(k) != outcome.digests.get(k))
            errors.append(f"hash mismatch at the pinned seed in {diff}")
        tally.record(f"{work.name} pinned {label}", errors)


def measure(work, seed: int, seconds: float, tally: Tally, speed: HostSpeed) -> dict:
    """Closed loop of whole cycles for about ``seconds``; end-to-end metrics.

    Task times are rescaled to the reference host speed (`HostSpeed`).
    """
    times, unscaled, evaluations = [], [], 0
    start = time.perf_counter()
    index = 0
    while True:
        outcome = tally.attempt(f"task {index}", lambda: work.task(seed, index, speed))
        if outcome is not None and tally.record(f"task {index}", outcome.errors):
            times.append(outcome.scaled_s)
            unscaled.append(outcome.elapsed_s)
            evaluations += outcome.evaluations
        index += 1
        if index % work.cycle == 0:
            elapsed = time.perf_counter() - start
            # stop before a cycle that would end past the budget
            if elapsed * (1 + work.cycle / index) > seconds:
                break
    wall = time.perf_counter() - start
    rss = peak_rss_mb()
    if not times:
        return {"info": {"task_s_tail_samples": 0, "wall_s": wall}}
    tail_value, percentile = tail(times)
    return {
        "task_s_p50": statistics.median(times),
        "task_s_tail": tail_value,
        "evals_per_s": evaluations / sum(times),
        "peak_rss_mb": rss,
        "info": {
            "task_s_tail_percentile": percentile,
            "task_s_tail_samples": len(times),
            "wall_s": wall,
            "unscaled_task_s_p50": statistics.median(unscaled),
            "probe_s_per_iteration_p50": statistics.median(speed.history),
        },
    }


def traced(work_factory, seed: int, tally: Tally, workers: int) -> dict:
    """The same tasks untraced, then traced; per-layer metrics.

    On ``campaign`` the traced study with ``workers`` workers runs the engine
    in pool workers, whose spans are lost, so the layer metrics come from a
    second traced study with one worker, and ``cli.parallel_eff`` compares
    the campaign spans of the two.
    """
    from layers import campaign_span_s, install, layer_metrics
    from spans import Tracer

    def run_cycle(work) -> list:
        return [tally.attempt(f"task {i}", lambda: work.task(seed, i)) for i in range(work.cycle)]

    def traced_cycle(n_workers: int):
        tracer = Tracer()
        with tracer.installed(install):
            outcomes = run_cycle(work_factory(n_workers))
        return tracer, outcomes

    work = work_factory(workers)
    plain = run_cycle(work)
    tracer, outcomes = traced_cycle(workers)
    passes = {"traced": outcomes}
    metrics = {"cli.parallel_eff": 0.0}
    layer_tracer = tracer
    if work.name == "campaign":
        layer_tracer, passes["one-worker traced"] = traced_cycle(1)
        parallel_s = campaign_span_s(tracer)
        if parallel_s > 0:
            metrics["cli.parallel_eff"] = campaign_span_s(layer_tracer) / (workers * parallel_s)

    for i, a in enumerate(plain):
        if a is not None:
            tally.record(f"untraced task {i}", a.errors)
    for label, others in passes.items():
        for i, (a, b) in enumerate(zip(plain, others)):
            if b is not None:
                changed = a is not None and a.digests != b.digests
                tally.record(f"{label} task {i}", b.errors + (["output hashes differ from the untraced run"] if changed else []))
    pairs = [(a, b) for a, b in zip(plain, outcomes) if a is not None and b is not None]
    if pairs:
        untraced_s = sum(a.elapsed_s for a, _ in pairs)
        metrics["trace.overhead_frac"] = (sum(b.elapsed_s for _, b in pairs) - untraced_s) / untraced_s
    metrics.update(layer_metrics(layer_tracer, len(plain)))
    import_s = stats_import_seconds()
    if import_s is not None:
        metrics["stats.import_s"] = import_s
    return metrics


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def emit(metrics: dict, spec: list[dict]) -> dict:
    """Metrics in the order and with the units of ``BENCHMARK.json``; absent ones left out."""
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec if m["name"] in metrics}


def run_workload(name: str, seed: int, seconds: float, trace: bool, budget) -> tuple[dict, dict, Tally]:
    """Metrics (by name), context and task tally of one benchmark run."""
    import workloads

    expected = json.loads((HERE / "expected.json").read_text())
    nproc = os.cpu_count() or 1
    workers = nproc if name == "campaign" else 1
    tally = Tally()
    with work_directory() as workdir:

        def factory(n_workers: int = workers):
            return workloads.make(name, budget, workdir, n_workers)

        work = factory()
        check_golden(work, expected["runs"][name], tally)
        if trace:
            metrics = traced(factory, seed, tally, workers)
        else:
            speed = HostSpeed()
            metrics = measure(work, seed, seconds, tally, speed)
            metrics["setup_s"] = setup_seconds(workloads.setup_problems(name), speed)

    import numpy
    import scipy

    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "workers": workers,
        "nproc": nproc,
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "src_lines": src_lines(),
    }
    info.update(metrics.pop("info", {}))
    return metrics, info, tally


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        import_program()
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (ProgramMissing, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2
    metrics, info, tally = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workloads.Budget())
    print(json.dumps({"info": info}))
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": emit(metrics, spec["per_layer" if args.trace else "end_to_end"]),
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
