"""Batch experiment harness: campaigns, trace/summary files, statistics.

Subcommands:

* ``run``          -- solve benchmark/engineering problems over many seeded
                      runs, writing ``summary.csv`` (best/worst/mean/std per
                      problem) and optional per-run trace files.
* ``engineering``  -- solve one constrained design problem over seeded runs
                      and report the best design found (variables, objective,
                      violation): feasible first, then the lowest objective,
                      a tie to the lowest run index.
* ``stats``        -- Friedman and pairwise Wilcoxon comparison tables from
                      two or more result files.
* ``list``         -- enumerate the available problem ids.

``run`` and ``engineering`` share one campaign path, `run_campaign`: it
checks the worker count, makes the output directory, runs the campaign and
writes the per-run traces when asked, so ``engineering --trace`` writes the
trace files ``run --trace`` does.

A campaign is an `ExperimentConfig`: its ``plan`` maps each problem's (id,
dimension), which fixes its seeds and summary row, to its params in problem
units. `CONFIG_KEYS` maps each ``--config`` key to the field it sets and its
parser; each default is the field's own.

Per-run seeds are hashed from (master seed, problem id, dimension, run
index), so campaigns are reproducible and extending a campaign never
shifts existing seeds. The worker count, the FIGWASP_WORKERS environment
variable (at least 1), is capped at the number of tasks; a worker advances
a task of one problem's runs in lockstep (see `execute_campaign`). Serial
and parallel execution, whatever the grouping, produce identical files.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import benchmarks
from .constrained import DEFAULT_PENALTY_COEFFICIENT, ENGINEERING_PROBLEMS, hinge, repair_discrete, to_objective
from .core import ObjectiveProblem, derive_seed
from .engine import FwscParams, RunResult, group_width, run_many
from .engine import run  # noqa: F401 -- stays importable as figwasp.cli.run
from .stats import friedman_mean_ranks, friedman_statistic, wilcoxon_signed_rank

SCHEMA_VERSION = 1
WORKERS_ENV = "FIGWASP_WORKERS"
FEASIBLE_TOL = 1e-9
SIGNIFICANCE = 0.05

_FLOAT_FMT = "{:.6E}"


class ConfigError(ValueError):
    """Bad input; the message names the field or file at fault."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One campaign, frozen so that ``plan`` cannot go stale. Each problem is resolved once, here:
    ``problems`` gets concrete dimensions, and ``plan`` maps each to its params in problem units."""

    problems: list[tuple[str, int | None]]
    runs: int = 30
    master_seed: int = 42
    out_dir: str = "results"
    trace: bool = False
    # "relative" scales eta0 by the mean half-width of the problem box, so
    # one neighborhood constant serves domains from [-5.12, 5.12] to
    # [-600, 600]; "absolute" uses eta0 in problem units as given.
    eta_units: str = "relative"
    params: FwscParams = field(default_factory=FwscParams)
    penalty_coefficient: float = DEFAULT_PENALTY_COEFFICIENT
    plan: dict[tuple[str, int], FwscParams] = field(init=False, repr=False)

    def __post_init__(self):
        for name, kind, noun in (
            ("runs", numbers.Integral, "an integer"),
            ("master_seed", numbers.Integral, "an integer"),
            ("penalty_coefficient", numbers.Real, "a number"),
            ("trace", bool, "True or False"),
            ("out_dir", (str, os.PathLike), "a path"),
            ("params", FwscParams, "an FwscParams"),
        ):
            value = getattr(self, name)
            if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
                raise ConfigError(f"{name}: must be {noun}, not {value!r}")
        if self.runs < 1:
            raise ConfigError("runs: must be >= 1")
        if not os.fspath(self.out_dir):
            raise ConfigError("out_dir: must not be empty")
        if self.eta_units not in ("relative", "absolute"):
            raise ConfigError("eta_units: must be 'relative' or 'absolute'")
        if not (self.penalty_coefficient > 0 and math.isfinite(self.penalty_coefficient)):
            raise ConfigError("penalty_coefficient: must be positive and finite")
        if not self.problems:
            raise ConfigError("problems: at least one problem id is required")
        plan = {}
        for entry in self.problems:
            if not (isinstance(entry, (tuple, list)) and len(entry) == 2 and isinstance(entry[0], str)):
                raise ConfigError(f"problems: each must be an (id, dimension) pair, not {entry!r}")
            pid, dim = entry
            problem = resolve_problem(pid, dim, self.penalty_coefficient)
            if (pid, problem.dimension) in plan:
                raise ConfigError(f"problems: {pid}@{problem.dimension} is listed twice")
            plan[(pid, problem.dimension)] = resolved_params(self, problem)  # eta0 out of range fails here
        object.__setattr__(self, "plan", plan)
        object.__setattr__(self, "problems", list(plan))


def resolve_problem(pid: str, dim: int | None, penalty_coefficient: float) -> ObjectiveProblem:
    """Problem ``pid`` at ``dim`` if it allows it, or at the only dimension it allows when ``dim`` is None."""
    design = ENGINEERING_PROBLEMS.get(pid)
    if design is not None:
        allowed = (design.dimension,)
    elif pid in benchmarks.SPECS:
        allowed = benchmarks.SPECS[pid].dimensions
    else:
        raise ConfigError(f"problems: unknown problem id {pid!r} (see `figwasp list`)")
    if dim is None and len(allowed) > 1:
        raise ConfigError(f"dim: {pid} needs an explicit dimension from {sorted(allowed)}")
    if dim is not None and (isinstance(dim, bool) or not isinstance(dim, numbers.Integral)):
        raise ConfigError(f"dim: {pid} needs an integer dimension, not {dim!r}")
    if dim is not None and dim not in allowed:
        raise ConfigError(f"dim: {pid} allows dimensions {sorted(allowed)}, not {dim}")
    if design is not None:
        return to_objective(design, penalty_coefficient)
    return benchmarks.make_benchmark(pid, allowed[0] if dim is None else dim)


def resolved_params(config: ExperimentConfig, problem: ObjectiveProblem) -> FwscParams:
    """Per-problem parameters with eta0 translated to problem units."""
    if config.eta_units == "absolute":
        return config.params
    half_width = float(np.mean((problem.bounds.upper - problem.bounds.lower) / 2.0))
    try:
        return replace(config.params, eta0=config.params.eta0 * half_width)
    except ValueError as exc:  # only eta0 changed: scaled by the box, it left its range
        raise ConfigError(f"eta0: {config.params.eta0:g} relative to {problem.name} {str(exc).partition(' ')[2]}") from exc


def _run_group(task) -> list[RunResult]:
    pid, dim, seeds, params, penalty = task
    return run_many(resolve_problem(pid, dim, penalty), params, seeds)


def worker_count() -> int:
    raw = os.environ.get(WORKERS_ENV, "1")
    try:
        n = int(raw)
    except ValueError as exc:
        raise ConfigError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from exc
    if n < 1:
        raise ConfigError(f"{WORKERS_ENV} must be at least 1, got {raw!r}")
    return n


def execute_campaign(config: ExperimentConfig, workers: int) -> dict[tuple[str, int], list[RunResult]]:
    """Every problem's results in run-index order; seeded, in at most
    ``workers`` processes.

    A task is one lockstep group of `run_many`: all of a problem's runs, but
    no more than keeps all ``workers`` busy nor than `engine.group_width`
    allows. Each run gives exactly what a run of its own gives, so the
    results do not depend on grouping or worker count.
    Tasks go in problem order, then run order, and `pool.map` keeps that
    order, so joining their results in task order is the run-index order.
    """
    total_runs = config.runs * len(config.plan)
    tasks = []
    for (pid, dim), params in config.plan.items():
        width = min(config.runs, math.ceil(total_runs / workers), group_width(params, dim))
        for first in range(0, config.runs, width):
            indices = range(first, min(first + width, config.runs))
            seeds = [derive_seed(config.master_seed, pid, dim, i) for i in indices]
            tasks.append((pid, dim, seeds, params, config.penalty_coefficient))
    workers = min(workers, len(tasks))
    if workers > 1:
        # imported here so that processes which never fork do not load it
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(_run_group, tasks))
    else:
        outcomes = [_run_group(t) for t in tasks]
    grouped: dict[tuple[str, int], list[RunResult]] = {}
    for (pid, dim, *_), results in zip(tasks, outcomes):
        grouped.setdefault((pid, dim), []).extend(results)
    return grouped


def _out_dir(path: str) -> Path:
    """The output directory, made if missing before any work writes into it."""
    out = Path(path)
    if out.exists() and not out.is_dir():
        raise ConfigError(f"{out}: not a directory")
    out.mkdir(parents=True, exist_ok=True)  # `main` reports one that cannot be made
    return out


def _write_csv(path: Path, header: list[str], rows: list[list[str]]) -> None:
    """Write-then-rename into an existing directory, so a crash never leaves
    a partial file behind. The temporary file is a plain exclusive open, so
    it gets the mode any open gives (0o666 less the umask)."""
    tmp = path.parent / f".tmp-{os.urandom(8).hex()}.csv"
    handle = open(tmp, "x", newline="")  # before the try: a name clash must not unlink another's file
    try:
        with handle:
            writer = csv.writer(handle, lineterminator="\r\n")
            writer.writerow(header)
            writer.writerows(rows)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _fmt(value: float) -> str:
    return _FLOAT_FMT.format(float(value))


def write_summary(out_dir: Path, grouped) -> Path:
    rows = []
    for (pid, dim), runs in grouped.items():
        bests = np.array([result.best_fitness for result in runs])
        rows.append([pid, str(dim), _fmt(bests.min()), _fmt(bests.max()), _fmt(bests.mean()), _fmt(bests.std())])
    path = out_dir / "summary.csv"
    _write_csv(path, ["problem", "dimension", "best", "worst", "mean", "std"], rows)
    return path


def write_traces(out_dir: Path, grouped) -> None:
    for (pid, _dim), runs in grouped.items():
        for result in runs:
            rows = [[str(i + 1), _fmt(v)] for i, v in enumerate(result.trace)]
            _write_csv(out_dir / f"trace_{pid}_{result.seed}.csv", ["iteration", "best_so_far"], rows)


def run_campaign(config: ExperimentConfig) -> tuple[Path, dict[tuple[str, int], list[RunResult]]]:
    """The output directory and results of ``config``'s campaign, traces written if asked; a bad
    worker count fails before ``--out`` is made, and a bad ``--out`` before any run."""
    workers = worker_count()
    out_dir = _out_dir(config.out_dir)
    grouped = execute_campaign(config, workers)
    if config.trace:
        write_traces(out_dir, grouped)
    return out_dir, grouped


def cmd_run(config: ExperimentConfig) -> int:
    out_dir, grouped = run_campaign(config)
    print(f"wrote {write_summary(out_dir, grouped)}")
    return 0


def cmd_engineering(pid: str, config: ExperimentConfig) -> int:
    design = ENGINEERING_PROBLEMS[pid]
    out_dir, grouped = run_campaign(config)
    # a run whose best is not finite never scored a point: its position is just its first tree
    runs = [r for r in grouped[(pid, design.dimension)] if math.isfinite(r.best_fitness)]
    if not runs:
        raise ConfigError(f"{pid}: every evaluation was non-finite")
    positions = repair_discrete(np.array([r.best_position for r in runs]), design.variable_kinds)
    objectives, g = design.evaluate(positions)
    violations = hinge(g).max(axis=-1)
    # feasible designs first, then by raw objective; a tie goes to the lowest run index (lexsort is stable)
    best = np.lexsort((objectives, violations > FEASIBLE_TOL))[0]
    position, objective, violation, seed = positions[best], objectives[best], violations[best], runs[best].seed
    print(f"{pid}: best of {config.runs} run(s), master seed {config.master_seed}")
    for name, value in zip(design.variable_names, position):
        print(f"  {name} = {value:.6g}")
    print(f"  objective = {objective:.4f}")
    print(f"  max constraint violation = {violation:.6E}")
    print(f"  feasible = {'yes' if violation <= FEASIBLE_TOL else 'no'}")

    header = list(design.variable_names) + ["objective", "max_violation", "seed"]
    row = [_fmt(v) for v in position] + [_fmt(objective), _fmt(violation), str(seed)]
    path = out_dir / f"engineering_{pid}.csv"
    _write_csv(path, header, [row])
    print(f"wrote {path}")
    return 0


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of a config or result file, less a leading BOM; `main` reports an `OSError`."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from exc


def _read_result_file(path: Path) -> dict[tuple[str, str], float]:
    """The mean of each (problem, dimension) row of a summary file, in file order."""
    reader = csv.DictReader(io.StringIO(_read_text(path), newline=""))
    if reader.fieldnames is None or not {"problem", "dimension", "mean"} <= set(reader.fieldnames):
        raise ConfigError(f"{path}: expected columns problem, dimension, mean")
    values = {}
    for row in reader:
        key = (row["problem"], row["dimension"])
        try:
            mean = float(row["mean"])
        except (TypeError, ValueError):
            mean = math.nan
        if not math.isfinite(mean):
            raise ConfigError(f"{path}: {key[0]}@{key[1]}: mean: {row['mean']!r} is not a finite number")
        if key in values:
            raise ConfigError(f"{path}: {key[0]}@{key[1]}: duplicate problem row")
        values[key] = mean
    return values


def cmd_stats(inputs: list[str], out_dir: str, baseline: str | None) -> int:
    # name=path, or a bare path named after its file
    pairs = [item.split("=", 1) if "=" in item else (Path(item).stem, item) for item in inputs]
    algorithms = [(name, Path(path)) for name, path in pairs]
    names = [name for name, _ in algorithms]
    if not all(name.strip() for name in names):
        raise ConfigError("stats: algorithm names must not be empty (use name=path)")
    if len(set(names)) != len(names):
        raise ConfigError("stats: algorithm names must be unique (use name=path)")
    if len(names) < 2:
        raise ConfigError("stats: need at least two result files")
    if baseline is None:
        baseline = names[0]
    if baseline not in names:
        raise ConfigError(f"stats: baseline {baseline!r} is not among {names}")
    if not out_dir:
        raise ConfigError("out: must not be empty")

    loaded = {}
    for name, path in algorithms:
        values = loaded[name] = _read_result_file(path)
        first = loaded[names[0]].keys()
        if values.keys() != first:
            missing, extra = sorted(first - values.keys()), sorted(values.keys() - first)
            raise ConfigError(
                f"stats: {name} rows do not match {names[0]}: missing {missing or 'none'}, extra {extra or 'none'}"
            )
    key_order = list(loaded[names[0]])
    if len(key_order) < 2:
        raise ConfigError(f"stats: need at least two problem rows, {names[0]} has {len(key_order)}")
    out = _out_dir(out_dir)

    matrix = np.array([[loaded[name][key] for name in names] for key in key_order])
    mean_ranks, ordinals = friedman_mean_ranks(matrix)
    statistic, p_value = friedman_statistic(matrix)

    ranks = [["mean_rank"] + [_fmt(v) for v in mean_ranks], ["ranking"] + [str(int(v)) for v in ordinals]]
    _write_csv(out / "friedman.csv", ["metric"] + names, ranks)

    base_values = matrix[:, names.index(baseline)]
    wilcoxon_rows = []
    for name, other in zip(names, matrix.T):
        if name == baseline:
            continue
        label = f"{name} vs {baseline}"
        try:
            res = wilcoxon_signed_rank(other, base_values)
        except ValueError:
            wilcoxon_rows.append([label, "", "", "", "no information"])
            continue
        # T+ collects ranks where the other algorithm's value is higher,
        # i.e. worse under minimization, so T+ > T- favors the baseline.
        if res.t_plus > res.t_minus:
            winner = baseline
        elif res.t_minus > res.t_plus:
            winner = name
        else:
            winner = "tie"
        if res.p_value > SIGNIFICANCE:
            winner += " (not significant)"
        wilcoxon_rows.append([label, _fmt(res.p_value), _fmt(res.t_plus), _fmt(res.t_minus), winner])
    _write_csv(out / "wilcoxon.csv", ["comparison", "p_value", "t_plus", "t_minus", "winner"], wilcoxon_rows)

    print(f"friedman chi-square = {statistic:.6g}, p = {p_value:.6g}")
    print(f"wrote {out / 'friedman.csv'} and {out / 'wilcoxon.csv'}")
    return 0


def cmd_list() -> int:
    for fid in benchmarks.BENCHMARK_IDS:
        spec = benchmarks.SPECS[fid]
        dims = ",".join(str(d) for d in spec.dimensions)
        print(f"{fid:4s} {spec.name:18s} dims={dims:18s} range=[{spec.low:g},{spec.high:g}]")
    for pid, design in ENGINEERING_PROBLEMS.items():
        print(f"{pid:15s} dim={design.dimension} constrained")
    return 0


def _flag(text: str) -> bool:
    if text.lower() not in ("true", "false", "1", "0", "yes", "no", "on", "off"):
        raise ValueError(text)
    return text.lower() in ("true", "1", "yes", "on")


# Config key -> (ExperimentConfig field or "params.<FwscParams field>", parser
# of its text). Defaults live only in the dataclasses: a key that is absent or
# empty keeps its field's default. `schema` sets no field; it is checked on read.
CONFIG_KEYS = {
    "schema": (None, None),
    "problems": ("problems", lambda text: [t.strip() for t in text.split(",") if t.strip()]),
    "runs": ("runs", int),
    "seed": ("master_seed", int),
    "out": ("out_dir", str),
    "trace": ("trace", _flag),
    "eta_units": ("eta_units", str),
    "eta0": ("params.eta0", float),
    "trees": ("params.num_trees", int),
    "figs_per_tree": ("params.figs_per_tree", int),
    "wasps_per_fig": ("params.wasps_per_fig", int),
    "wind_threshold": ("params.wind_threshold", float),
    "wind_fraction": ("params.wind_fraction", float),
    "iterations": ("params.max_iterations", int),
    "decay_scale": ("params.decay_scale", float),
    "stagnation_window": ("params.stagnation_window", int),
    "penalty_coefficient": ("penalty_coefficient", float),
}


def parse_config_file(path: str | Path) -> dict:
    """Parse the key=value campaign format (schema 1, '#' comments)."""
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate config key {key!r}")
        values[key] = value
    if "schema" in values and values["schema"] != str(SCHEMA_VERSION):
        raise ConfigError(f"schema: unsupported value {values['schema']!r} in {path} (expected {SCHEMA_VERSION})")
    return values


def parse_problem_token(token: str, default_dim: int | None) -> tuple[str, int | None]:
    """(id, dimension or None) of a token such as F1@30 or F16; ``default_dim`` fills in only a scalable one."""
    if "@" not in token:
        spec = benchmarks.SPECS.get(token)
        return token, default_dim if spec and len(spec.dimensions) > 1 else None
    pid, _, dim_text = token.partition("@")
    try:
        return pid, int(dim_text)
    except ValueError as exc:
        raise ConfigError(f"problems: bad dimension in {token!r}") from exc


def _config_from_args(args: argparse.Namespace, problem_tokens: list[str]) -> ExperimentConfig:
    """The campaign of the config file; problem ids and the --runs, --seed,
    --out and --trace flags given on the command line override its keys, and
    run's --dim gives the dimension of a scalable id without one."""
    text = parse_config_file(args.config) if args.config else {}
    flags = {"runs": args.runs, "seed": args.seed, "out": args.out, "trace": args.trace or None}
    config, params = {}, {}
    for key, (target, parse) in CONFIG_KEYS.items():
        if flags.get(key) is not None:
            value = flags[key]
        elif target and text.get(key):
            try:
                value = parse(text[key])
            except ValueError as exc:
                raise ConfigError(f"{key}: invalid value {text[key]!r}") from exc
        else:
            continue
        owner, _, name = target.rpartition(".")
        (params if owner else config)[name] = value
    try:
        config["params"] = FwscParams(**params)
    except ValueError as exc:
        # FwscParams names its own field first; report the config key instead
        name, _, rest = str(exc).partition(" ")
        key = next((k for k, (target, _) in CONFIG_KEYS.items() if target == f"params.{name}"), None)
        raise ConfigError(f"{key}: {rest}" if key else str(exc)) from exc
    dim = getattr(args, "dim", None)  # engineering takes no --dim
    config["problems"] = [parse_problem_token(t, dim) for t in problem_tokens or config.get("problems", [])]
    return ExperimentConfig(**config)


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help=f"campaign config file of key = value lines; keys: {', '.join(CONFIG_KEYS)}")
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument("--runs", type=int, default=None, help="runs per problem")
    parser.add_argument("--out", default=None, help="output directory")
    parser.add_argument("--trace", action="store_true", help="write per-run trace files")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="figwasp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark campaign")
    p_run.add_argument("problems", nargs="*", help="problem ids, e.g. F1@30 or F16")
    p_run.add_argument("--dim", type=int, default=None, help="dimension for scalable benchmarks")
    _add_common_flags(p_run)

    p_eng = sub.add_parser("engineering", help="solve a constrained design problem")
    p_eng.add_argument("problem", help="pressure-vessel | stepped-beam | welded-beam")
    _add_common_flags(p_eng)

    p_stats = sub.add_parser("stats", help="compare result files")
    p_stats.add_argument("inputs", nargs="+", help="result files, optionally name=path")
    p_stats.add_argument("--out", default="results", help="output directory")
    p_stats.add_argument("--baseline", default=None, help="baseline algorithm name")

    sub.add_parser("list", help="list available problem ids")

    args = parser.parse_args(argv)
    # the one exit for bad input: one line on stderr and exit code 2
    try:
        if args.command == "run":
            return cmd_run(_config_from_args(args, list(args.problems)))
        if args.command == "engineering":
            if args.problem not in ENGINEERING_PROBLEMS:
                raise ConfigError(f"problem: {args.problem!r} is not one of {sorted(ENGINEERING_PROBLEMS)}")
            return cmd_engineering(args.problem, _config_from_args(args, [args.problem]))
        if args.command == "stats":
            return cmd_stats(args.inputs, args.out, args.baseline)
        return cmd_list()
    except ConfigError as exc:
        message = str(exc)
    except OSError as exc:  # a file that cannot be read or written
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else str(exc)
    print(f"error: {message}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
