"""The four benchmark workloads and the checks on their outputs.

Every workload is a closed loop in one process: the next task starts when the
previous one ends. A task is one optimisation run on ``d30``, ``d1000`` and
``engineering``, and one comparison study through the CLI on ``campaign``.
Run seeds come from the workload seed; the program only sees the seeds and
the problem ids.

- ``d30`` cycles F1@30, F9@30 and F7@30 (noisy). Per-evaluation Python
  overhead in ``core.evaluate`` and the per-fig engine bookkeeping dominate.
- ``d1000`` runs F1@1000. Philox draws and per-dimension arithmetic take a
  large share, so batching gains shrink and extra copies show as losses.
- ``engineering`` cycles the three constrained design problems; it is the
  only workload where the ``constrained`` layer (penalty, discrete repair)
  does the work.
- ``campaign`` is a study as a researcher runs it: two ``figwasp run``
  campaigns over a mixed problem set that differ only in the wind threshold,
  then ``figwasp stats`` comparing them. It is the only workload that runs
  ``cli`` and ``stats`` and the only one with short runs, where the harness
  share is largest.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import shutil
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from figwasp import cli, engine

PINNED_SEED = 1
# Generations (campaign: iterations) of the pinned reference runs replayed
# before every measurement; short so the replay costs little.
GOLDEN_GENERATIONS = 50

SINGLE_RUN_PROBLEMS = {
    "d30": (("F1", 30), ("F9", 30), ("F7", 30)),
    "d1000": (("F1", 1000),),
    "engineering": (("pressure-vessel", None), ("welded-beam", None), ("stepped-beam", None)),
}
STUDY_PROBLEMS = ("F1@30", "F9@30", "F16", "pressure-vessel")
STUDY_CONFIGS = (("wind0.5", 0.5), ("wind0.0", 0.0))
WORKLOADS = tuple(SINGLE_RUN_PROBLEMS) + ("campaign",)


@dataclasses.dataclass(frozen=True)
class Budget:
    """Size of one task. ``generations=None`` keeps the engine's default."""

    generations: int | None = None
    study_runs: int = 4
    study_iterations: int = 40


class TaskOutcome(NamedTuple):
    elapsed_s: float  # wall time, less any host-speed probes taken inside it
    scaled_s: float  # elapsed_s at the reference host speed; elapsed_s without a probe
    evaluations: int
    digests: dict
    errors: list


def task_seed(seed: int, *labels) -> int:
    """64-bit run seed from the workload seed and the task's labels."""
    text = "|".join(str(part) for part in (seed,) + labels)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(result) -> dict:
    """Hashes of the trace and best position, plus the evaluation count."""
    return {
        "trace_sha256": _sha256(np.ascontiguousarray(result.trace, dtype=np.float64).tobytes()),
        "best_sha256": _sha256(np.ascontiguousarray(result.best_position, dtype=np.float64).tobytes()),
        "evaluations": int(result.evaluations),
    }


def evaluations_per_generation(params) -> int:
    wasps = params.num_trees * params.figs_per_tree * params.wasps_per_fig
    return wasps + wasps // 2


def _label(pid: str, dim) -> str:
    return pid if dim is None else f"{pid}@{dim}"


def check_run(problem, params, result) -> list[str]:
    """Invariants every finished run must satisfy, whatever its seed."""
    errors = []
    generations = params.max_iterations
    trace = np.asarray(result.trace)
    if not math.isfinite(result.best_fitness):
        errors.append(f"non-finite best {result.best_fitness}")
    if result.iterations_run != generations or trace.shape != (generations,):
        errors.append(f"{result.iterations_run} generations and {trace.shape} trace rows, expected {generations}")
    if result.evaluations != generations * evaluations_per_generation(params):
        errors.append(f"{result.evaluations} evaluations")
    if np.any(np.diff(trace) > 0) or (trace.size and trace[-1] != result.best_fitness):
        errors.append("trace is not the non-increasing best-so-far")
    if not problem.bounds.contains(result.best_position):
        errors.append("best position outside the bounds")
    elif problem.noise is None and float(problem.objective(result.best_position)) != result.best_fitness:
        errors.append("best position does not reproduce the best value")
    return errors


class SingleRuns:
    """Serial optimisation runs cycling over a workload's problems."""

    def __init__(self, name: str, budget: Budget):
        self.name = name
        self.cases = []
        for pid, dim in SINGLE_RUN_PROBLEMS[name]:
            problem = cli.resolve_problem(pid, dim, cli.DEFAULT_PENALTY_COEFFICIENT)
            params = cli.resolved_params(cli.ExperimentConfig(problems=[(pid, problem.dimension)]), problem)
            if budget.generations is not None:
                params = dataclasses.replace(params, max_iterations=budget.generations)
            self.cases.append((_label(pid, dim), problem, params))

    @property
    def cycle(self) -> int:
        return len(self.cases)

    def run_case(self, index: int, run_seed: int, speed=None) -> TaskOutcome:
        _, problem, params = self.cases[index % self.cycle]
        if speed is not None:
            speed.begin()
        start = time.perf_counter()
        result = engine.run(problem, params, run_seed, on_generation=None if speed is None else speed.tick)
        elapsed = time.perf_counter() - start
        elapsed, scaled = speed.end(elapsed) if speed is not None else (elapsed, elapsed)
        return TaskOutcome(elapsed, scaled, result.evaluations, run_digests(result), check_run(problem, params, result))

    def task(self, seed: int, index: int, speed=None) -> TaskOutcome:
        return self.run_case(index, task_seed(seed, self.name, index), speed)

    def golden(self) -> dict[str, TaskOutcome]:
        """One short run per problem at the pinned seed, by problem label."""
        short = SingleRuns(self.name, Budget(generations=GOLDEN_GENERATIONS))
        return {
            label: short.run_case(i, task_seed(PINNED_SEED, self.name, label))
            for i, (label, _, _) in enumerate(short.cases)
        }


def _read_rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class Study:
    """Two ``figwasp run`` campaigns and one ``figwasp stats``, through ``cli.main``."""

    name = "campaign"
    cycle = 1

    def __init__(self, workdir: Path, budget: Budget, workers: int):
        self.workdir = workdir
        self.runs = budget.study_runs
        self.iterations = budget.study_iterations
        self.workers = workers

    def _configs(self, master_seed: int) -> list[Path]:
        paths = []
        for label, wind in STUDY_CONFIGS:
            path = self.workdir / f"{label}.cfg"
            path.write_text(
                "schema = 1\n"
                f"problems = {', '.join(STUDY_PROBLEMS)}\n"
                f"runs = {self.runs}\n"
                f"seed = {master_seed}\n"
                f"iterations = {self.iterations}\n"
                f"out = {self.workdir / label}\n"
                "trace = true\n"
                f"wind_threshold = {wind}\n"
            )
            paths.append(path)
        return paths

    def run_study(self, master_seed: int, speed=None) -> TaskOutcome:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        configs = self._configs(master_seed)
        stats_dir = self.workdir / "stats"
        inputs = [f"{label}={self.workdir / label / 'summary.csv'}" for label, _ in STUDY_CONFIGS]
        commands = [["run", "--config", str(path)] for path in configs]
        commands.append(["stats", *inputs, "--out", str(stats_dir)])
        saved = os.environ.get("FIGWASP_WORKERS")
        os.environ["FIGWASP_WORKERS"] = str(self.workers)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                if speed is not None:
                    speed.begin()
                with speed.sampling() if speed is not None else contextlib.nullcontext():
                    start = time.perf_counter()
                    codes = [cli.main(argv) for argv in commands]
                    elapsed = time.perf_counter() - start
                elapsed, scaled = speed.end(elapsed) if speed is not None else (elapsed, elapsed)
        finally:
            if saved is None:
                del os.environ["FIGWASP_WORKERS"]
            else:
                os.environ["FIGWASP_WORKERS"] = saved
        errors = [f"exit code {codes}"] if any(codes) else self._check()
        runs_total = len(STUDY_CONFIGS) * len(STUDY_PROBLEMS) * self.runs
        evaluations = runs_total * self.iterations * evaluations_per_generation(engine.FwscParams())
        return TaskOutcome(elapsed, scaled, evaluations, self._digests(), errors)

    def task(self, seed: int, index: int, speed=None) -> TaskOutcome:
        return self.run_study(task_seed(seed, self.name, index), speed)

    def _check(self) -> list[str]:
        errors = []
        for label, _ in STUDY_CONFIGS:
            out = self.workdir / label
            rows = _read_rows(out / "summary.csv")[1:]
            if [r[0] for r in rows] != [p.split("@")[0] for p in STUDY_PROBLEMS]:
                errors.append(f"{label}/summary.csv rows {[r[0] for r in rows]}")
            elif not all(math.isfinite(float(v)) for r in rows for v in r[2:]):
                errors.append(f"{label}/summary.csv has non-finite values")
            traces = sorted(out.glob("trace_*.csv"))
            if len(traces) != len(STUDY_PROBLEMS) * self.runs:
                errors.append(f"{label}: {len(traces)} trace files")
            elif any(len(_read_rows(t)) != self.iterations + 1 for t in traces):
                errors.append(f"{label}: trace file of the wrong length")
        # header plus one comparison row; header plus mean_rank and ranking rows
        if len(_read_rows(self.workdir / "stats" / "wilcoxon.csv")) != 2:
            errors.append("stats/wilcoxon.csv does not have one comparison row")
        if len(_read_rows(self.workdir / "stats" / "friedman.csv")) != 3:
            errors.append("stats/friedman.csv does not have two rows")
        return errors

    def _digests(self) -> dict:
        files = [self.workdir / label / "summary.csv" for label, _ in STUDY_CONFIGS]
        files += [self.workdir / "stats" / "wilcoxon.csv", self.workdir / "stats" / "friedman.csv"]
        out = {str(p.relative_to(self.workdir)): _sha256(p.read_bytes()) for p in files if p.exists()}
        traces = hashlib.sha256()
        for path in sorted(self.workdir.glob("*/trace_*.csv")):
            traces.update(str(path.relative_to(self.workdir)).encode() + b"\0" + path.read_bytes())
        out["traces"] = traces.hexdigest()
        return out

    def golden(self) -> dict[str, TaskOutcome]:
        """A study with one run per problem at the pinned seed."""
        short = Study(self.workdir, Budget(study_runs=1, study_iterations=GOLDEN_GENERATIONS), self.workers)
        return {"study": short.run_study(PINNED_SEED)}


def make(name: str, budget: Budget, workdir: Path, workers: int):
    if name == "campaign":
        return Study(workdir, budget, workers)
    return SingleRuns(name, budget)


def setup_problems(name: str) -> list[tuple[str, int | None]]:
    """The (problem id, dimension) pairs a workload builds before it runs."""
    if name == "campaign":
        return [cli.parse_problem_token(token, None) for token in STUDY_PROBLEMS]
    return list(SINGLE_RUN_PROBLEMS[name])
