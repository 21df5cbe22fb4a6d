"""Runs advanced in lockstep equal runs made one at a time, bit for bit.

`run_many` shares each generation's array work and objective batches
between runs of one problem; every run keeps its own stream and draw
order. So for any seeds, ``run_many(problem, params, seeds)`` must give
exactly ``[run(problem, params, seed) for seed in seeds]``: the same trace,
best position and value, evaluation count and generations run.
"""

from dataclasses import replace

import numpy as np
import pytest

from figwasp.cli import ExperimentConfig, resolve_problem, resolved_params
from figwasp.constrained import DEFAULT_PENALTY_COEFFICIENT
from figwasp.core import Bounds, ObjectiveProblem, RandomStream, evaluate_batch
from figwasp.engine import (
    FwscParams,
    draw_generation,
    generation_buffers,
    run,
    run_many,
    search_directions,
    select_trees,
    wind_effect,
)

SEEDS = [11, 2024, 7, 7, 123456789]  # a repeated seed too


def campaign_case(pid, dim, **changes):
    problem = resolve_problem(pid, dim, DEFAULT_PENALTY_COEFFICIENT)
    params = resolved_params(ExperimentConfig(problems=[(pid, problem.dimension)]), problem)
    return problem, replace(params, **{"max_iterations": 30, **changes})


def half_nan(x):
    return np.where(x[:, 0] > 0.0, np.nan, np.sum(x * x, axis=-1))


CASES = {
    "F1@30": lambda: campaign_case("F1", 30),
    "F7@30-noisy": lambda: campaign_case("F7", 30),
    "F16": lambda: campaign_case("F16", None),
    "pressure-vessel": lambda: campaign_case("pressure-vessel", None),
    "half-nan": lambda: (
        ObjectiveProblem("half-nan", Bounds.box(-10.0, 10.0, 2), half_nan),
        FwscParams(max_iterations=30, eta0=2.0),
    ),
    "wind-0": lambda: campaign_case("F9", 30, wind_threshold=0.0),
    "wind-1": lambda: campaign_case("F7", 30, wind_threshold=1.0),
    "zero-budget": lambda: campaign_case("F7", 30, max_iterations=0),
    "zero-budget-design": lambda: campaign_case("welded-beam", None, max_iterations=0),
    "stagnation": lambda: campaign_case("pressure-vessel", None, stagnation_window=3),
    "stagnation-noisy": lambda: campaign_case("F7", 30, stagnation_window=2),
}


def assert_same_run(many, alone):
    assert many.trace.tobytes() == alone.trace.tobytes()
    assert many.best_position.tobytes() == alone.best_position.tobytes()
    assert many.best_fitness == alone.best_fitness or (np.isnan(many.best_fitness) and np.isnan(alone.best_fitness))
    assert many.evaluations == alone.evaluations
    assert many.iterations_run == alone.iterations_run
    assert many.seed == alone.seed


@pytest.mark.parametrize("case", list(CASES))
def test_lockstep_equals_solo(case):
    problem, params = CASES[case]()
    results = run_many(problem, params, SEEDS)
    assert len(results) == len(SEEDS)
    for seed, many in zip(SEEDS, results):
        assert_same_run(many, run(problem, params, seed))


def test_runs_leave_the_group_at_different_generations():
    # the stagnation cases above cover a group that shrinks as it goes
    for case in ("stagnation", "stagnation-noisy"):
        problem, params = CASES[case]()
        stops = [r.iterations_run for r in run_many(problem, params, SEEDS)]
        assert len(set(stops)) > 1 and min(stops) < params.max_iterations


def test_results_share_no_memory():
    problem, params = CASES["F16"]()
    results = run_many(problem, params, SEEDS[:3])
    arrays = [a for r in results for a in (r.trace, r.best_position)]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])


def test_no_seeds_no_runs():
    problem, params = CASES["F16"]()
    assert run_many(problem, params, []) == []


# the group forms of the pool steps equal one call per pool

BOX = Bounds.box(-10.0, 10.0, 3)
POOL_PARAMS = FwscParams(figs_per_tree=1)  # T*A*W/2 = 12, the size of `pools`


def pools(seed, runs=4, size=12):
    return RandomStream(seed).uniform(size=(runs, size, 3)) * 16.0 - 8.0


def pool_draws(streams, params, noisy):
    """The pool uniforms, winds and pool noise of one generation's draws
    from ``streams``, one run each."""
    problem = ObjectiveProblem("zero", BOX, lambda x: np.zeros(len(x)), noise=(lambda u: u) if noisy else None)
    drawn = draw_generation(streams, params, generation_buffers(problem, params, len(streams)))
    return drawn[4:]


@pytest.mark.parametrize("seed", range(5))
def test_search_directions_group_equals_each_pool(seed):
    # a group's pool draws and re-spread equal one run at a time
    group = pools(seed)
    streams = [RandomStream(seed + r) for r in range(4)]
    uniforms, _, _ = pool_draws(streams, POOL_PARAMS, noisy=False)
    together = search_directions(uniforms, group, BOX)
    for r, pool in enumerate(group):
        alone_stream = RandomStream(seed + r)
        alone, _, _ = pool_draws([alone_stream], POOL_PARAMS, noisy=False)
        assert together[r].tobytes() == search_directions(alone, pool[None], BOX)[0].tobytes()
        # and each stream stands where its own draws left it
        assert streams[r].uniform() == alone_stream.uniform()


@pytest.mark.parametrize("threshold", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("seed", range(5))
def test_wind_group_equals_each_pool(seed, threshold):
    params = replace(POOL_PARAMS, wind_threshold=threshold)
    group = np.clip(pools(seed) * 1.5, -10.0, 10.0)  # some kicks reach the box edge
    streams = [RandomStream(seed + r) for r in range(4)]
    _, winds, noise = pool_draws(streams, params, noisy=True)
    together = wind_effect(winds, group, BOX)
    size = group.shape[1]
    for r, pool in enumerate(group):
        alone_stream = RandomStream(seed + r)
        _, alone, alone_noise = pool_draws([alone_stream], params, noisy=True)
        assert together[r].tobytes() == wind_effect(alone, pool[None], BOX)[0].tobytes()
        assert noise[r * size : (r + 1) * size].tobytes() == alone_noise.tobytes()
        # and each stream stands where its own draws left it
        assert streams[r].uniform() == alone_stream.uniform()
    if threshold == 0.0:
        assert together is group


def test_select_trees_group_equals_each_pool():
    problem = ObjectiveProblem("sphere", BOX, lambda x: np.sum(x * x, axis=-1))
    group = pools(9)
    group[1, 3] = group[1, 5]  # a tie, broken toward the lower index
    fitness = evaluate_batch(problem, group.reshape(-1, 3)).reshape(group.shape[:2])
    trees = select_trees(group, fitness, 3)
    for r, pool in enumerate(group):
        alone_fitness = evaluate_batch(problem, pool)
        alone_trees = select_trees(pool, alone_fitness, 3)
        assert trees[r].tobytes() == alone_trees.tobytes()
        assert fitness[r].tobytes() == alone_fitness.tobytes()


@pytest.mark.parametrize("window", range(1, 6))
def test_stagnation_stop_follows_the_counter(window):
    # oracle: a counter replayed over each trace, 0 at generation 1, reset by a
    # strict drop and otherwise one more; a run stops at the first generation
    # where it reaches the window, or runs its whole budget
    budget, early = 60, set()
    for case in ("F16", "pressure-vessel", "F7@30-noisy"):
        problem, params = CASES[case]()
        params = replace(params, max_iterations=budget, stagnation_window=window)
        for result in run_many(problem, params, SEEDS):
            expected, counter = budget, 0
            for k in range(2, len(result.trace) + 1):
                counter = 0 if result.trace[k - 1] < result.trace[k - 2] else counter + 1
                if counter >= window:
                    expected = k
                    break
            assert result.iterations_run == expected == len(result.trace)
            early.add(expected < budget)
    # some runs stop early; from window 2 on, others run their whole budget
    # (at window 1 every run here stops by generation 5)
    assert early == ({True} if window == 1 else {True, False})
