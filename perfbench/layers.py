"""Which program entry points the traced run wraps, and the per-layer metrics.

Each wrapped attribute is looked up where the caller finds it at call time:
the engine calls ``evaluate`` and ``run`` through its own module globals, the
CLI calls ``run``, ``resolve_problem``, ``_write_csv`` and the statistics
functions through its own. Objectives have no module attribute of their own,
so the wrapper around ``cli.resolve_problem`` hands back the problem with its
objective wrapped.
"""

from __future__ import annotations

import dataclasses
import os

from spans import LayerTotals, Tracer

# (span name, module, attribute) for every wrapped entry point.
PATCHES = (
    ("core.evaluate", "figwasp.engine", "evaluate"),
    ("core.rng", "figwasp.core", "RandomStream.uniform"),
    ("core.rng", "figwasp.core", "RandomStream.uniform_between"),
    ("core.rng", "figwasp.core", "RandomStream.permutation"),
    ("core.rng", "figwasp.core", "RandomStream.choose_without_replacement"),
    ("constrained.repair_discrete", "figwasp.constrained", "repair_discrete"),
    ("constrained.penalize", "figwasp.constrained", "penalize"),
    ("engine.spawn", "figwasp.engine", "spawn_trees"),
    ("engine.spawn", "figwasp.engine", "spawn_figs"),
    ("engine.spawn", "figwasp.engine", "spawn_wasps"),
    ("engine.mating", "figwasp.engine", "build_mating_grid"),
    ("engine.mating", "figwasp.engine", "mate"),
    ("engine.pollination", "figwasp.engine", "pool_offsprings"),
    ("engine.pollination", "figwasp.engine", "search_directions"),
    ("engine.wind", "figwasp.engine", "wind_effect"),
    ("engine.selection", "figwasp.engine", "select_trees"),
    ("engine.run", "figwasp.engine", "run"),
    ("engine.run", "figwasp.cli", "run"),
    ("cli.campaign", "figwasp.cli", "execute_campaign"),
    ("cli.write", "figwasp.cli", "_write_csv"),
    ("stats", "figwasp.cli", "wilcoxon_signed_rank"),
    ("stats", "figwasp.cli", "friedman_mean_ranks"),
    ("stats", "figwasp.cli", "friedman_statistic"),
)

OBJECTIVE_SPANS = ("benchmarks.objective", "constrained.objective")


def _count_generations(tracer: Tracer):
    def after(args, kwargs, result):
        tracer.counters["generations"] += result.iterations_run
        return result

    return after


def _count_bytes(tracer: Tracer):
    def after(args, kwargs, result):
        tracer.counters["cli.write.bytes"] += os.path.getsize(args[0])
        return result

    return after


def _wrap_objective(tracer: Tracer, engineering_ids):
    def after(args, kwargs, problem):
        name = "constrained.objective" if args[0] in engineering_ids else "benchmarks.objective"
        return dataclasses.replace(problem, objective=tracer.wrap_fn(problem.objective, name))

    return after


def install(tracer: Tracer) -> None:
    """Wrap every entry point in `PATCHES` plus the objectives."""
    from figwasp import cli

    hooks = {
        ("figwasp.engine", "run"): _count_generations(tracer),
        ("figwasp.cli", "run"): _count_generations(tracer),
        ("figwasp.cli", "_write_csv"): _count_bytes(tracer),
    }
    for name, module, path in PATCHES:
        tracer.patch(module, path, name, hooks.get((module, path)))
    engineering_ids = frozenset(getattr(cli, "ENGINEERING_PROBLEMS", ()))
    if tracer.patch("figwasp.cli", "resolve_problem", "cli.resolve_problem", _wrap_objective(tracer, engineering_ids)):
        tracer.present.update(OBJECTIVE_SPANS)


def layer_metrics(tracer: Tracer, tasks: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over ``tasks`` tasks.

    Self times are seconds per task. A layer whose entry point no longer
    exists is left out; a layer that exists but did no work reports 0.
    """
    totals = tracer.totals()
    generations = tracer.counters["generations"]
    metrics: dict[str, float] = {}
    for span in sorted(tracer.present):
        t = totals.get(span, LayerTotals(0, 0.0, 0.0))
        metrics[f"{span}.self_s"] = t.self_s / tasks
        if span in ("core.evaluate", "core.rng"):
            metrics[f"{span}.calls_per_gen"] = t.calls / generations if generations else 0.0
        elif span == "engine.run":
            metrics["engine.gen_s"] = t.total_s / generations if generations else 0.0
        elif span == "cli.resolve_problem":
            metrics["cli.resolve_problem.calls"] = t.calls
        elif span == "cli.write":
            metrics["cli.write.files"] = t.calls
            metrics["cli.write.bytes"] = tracer.counters["cli.write.bytes"]
    return metrics


def campaign_span_s(tracer: Tracer) -> float:
    t = tracer.totals().get("cli.campaign")
    return t.total_s if t else 0.0
