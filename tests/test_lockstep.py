"""Runs advanced in lockstep equal runs made one at a time, bit for bit.

`run_many` shares each generation's array work and objective batches
between runs of one problem; every run keeps its own stream and draw
order. So for any seeds, ``run_many(problem, params, seeds)`` must give
exactly ``[run(problem, params, seed) for seed in seeds]``: the same trace,
best position and value, evaluation count and generations run.
"""

import os
import sys
import threading
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from figwasp import engine
from figwasp.cli import ExperimentConfig, resolve_problem, resolved_params
from figwasp.constrained import DEFAULT_PENALTY_COEFFICIENT
from figwasp.core import Bounds, ObjectiveProblem, RandomStream, derive_seed, evaluate_batch
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
    "one-generation": lambda: campaign_case("F7", 30, max_iterations=1),
    "one-generation-design": lambda: campaign_case("welded-beam", None, max_iterations=1),
    "stagnation": lambda: campaign_case("pressure-vessel", None, stagnation_window=3),
    "stagnation-noisy": lambda: campaign_case("F7", 30, stagnation_window=2),
    "stagnation-wind-1": lambda: campaign_case("pressure-vessel", None, stagnation_window=3, wind_threshold=1.0),
    # runs of SEEDS leave after generations 8, 5, 10, 10 and 11 of 12: in two
    # generations in a row, the second just before the final generation
    "stagnation-short": lambda: campaign_case("pressure-vessel", None, stagnation_window=3, max_iterations=12),
}


def assert_same_run(many, alone, params):
    # a run is whole generations, each scoring its T*A*W wasps and a pool of half as many
    per_generation = params.num_trees * params.figs_per_tree * params.wasps_per_fig * 3 // 2
    for result in (many, alone):
        assert result.iterations_run == len(result.trace)
        assert result.evaluations == result.iterations_run * per_generation
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
        assert_same_run(many, run(problem, params, seed), params)


def test_runs_leave_the_group_at_different_generations():
    # the stagnation cases above cover a group that shrinks as it goes
    for case in ("stagnation", "stagnation-noisy"):
        problem, params = CASES[case]()
        stops = [r.iterations_run for r in run_many(problem, params, SEEDS)]
        assert len(set(stops)) > 1 and min(stops) < params.max_iterations


# the engine scores its batches without checking their rows against the box
# (`core.score`), so every row must arrive inside it by construction; C8 in
# test_acceptance watches single runs, these the group paths it does not reach
BOX_CONTRACT_CASES = {
    "group-wind-1": ("wind-1", SEEDS[:3], False),
    "middle-run-leaves": ("stagnation", [11, 123456789, 2024], False),
    "F7@30-noisy": ("F7@30-noisy", SEEDS[:3], False),
    "drawing-ahead": ("stagnation-wind-1", SEEDS, True),  # each run alone
}


@pytest.mark.parametrize("name", list(BOX_CONTRACT_CASES))
def test_every_row_an_objective_gets_lies_in_the_box(monkeypatch, name):
    case, seeds, draws_ahead = BOX_CONTRACT_CASES[name]
    problem, params = CASES[case]()
    batches = []

    def watching(x, objective=problem.objective):
        batches.append((len(x), problem.bounds.contains(x)))
        return objective(x)

    made = open_gate(monkeypatch) if draws_ahead else []
    results = run_many(replace(problem, objective=watching), params, seeds)
    assert batches and all(inside for _, inside in batches)
    assert sum(n for n, _ in batches) == sum(r.evaluations for r in results)
    assert len(made) == (len(seeds) if draws_ahead else 0)  # one drawer per seed
    if name == "middle-run-leaves":
        stops = [r.iterations_run for r in results]
        assert stops[1] < min(stops[0], stops[2])


@pytest.mark.parametrize(
    "case, seeds", [("stagnation-noisy", [11, 7, 123456789]), ("stagnation", [11, 123456789, 2024])]
)
def test_a_group_allocates_its_buffers_once_as_runs_leave(monkeypatch, case, seeds):
    # the middle run stagnates first; the others draw on into the leading
    # rows of the group's one set of buffers, and only their streams draw
    problem, params = CASES[case]()
    made, real, draws = [], engine.draw_generation, []

    def buffers(*args):
        made.append(args)
        return generation_buffers(*args)

    monkeypatch.setattr(engine, "generation_buffers", buffers)
    monkeypatch.setattr(engine, "draw_generation", lambda *args: draws.append(len(args[0])) or real(*args))
    results = run_many(problem, params, seeds)
    assert made == [(problem, params, 3)]
    stops = [r.iterations_run for r in results]
    assert stops[1] < min(stops[0], stops[2])
    assert draws == [sum(stop >= k for stop in stops) for k in range(1, max(stops) + 1)]
    monkeypatch.undo()
    for seed, many in zip(seeds, results):
        assert_same_run(many, run(problem, params, seed), params)


def test_results_share_no_memory():
    problem, params = CASES["F16"]()
    results = run_many(problem, params, SEEDS[:3])
    arrays = [a for r in results for a in (r.trace, r.best_position)]
    assert not any(np.shares_memory(a, b) for i, a in enumerate(arrays) for b in arrays[i + 1 :])


def test_no_seeds_no_runs():
    problem, params = CASES["F16"]()
    assert run_many(problem, params, []) == []


# (case, seeds, drawn ahead); the snapshots of each run made alone, in turn, are the oracle
SNAPSHOT_CASES = {
    "F1@30": (CASES["F1@30"], SEEDS[:3], False),
    "stagnation": (CASES["stagnation"], [11, 123456789, 2024], False),  # rows leave
    # 14 runs of F1@100 go in groups of 13 and 1
    "two-groups": (
        lambda: campaign_case("F1", 100, max_iterations=2),
        [derive_seed(5, "F1", 100, i) for i in range(14)],
        False,
    ),
    "drawing-ahead": (CASES["F1@30"], SEEDS[:1], True),
}


def snapshot_rows(snapshots, seed):
    """(iteration, trees, pools, best) bytes of the row of ``seed`` in each snapshot that holds it."""
    rows = []
    for s in snapshots:
        if seed in s.seeds:
            i = s.seeds.index(seed)
            rows.append((s.iteration, s.trees[i].tobytes(), s.pools[i].tobytes(), s.best[i].tobytes()))
    return rows


@pytest.mark.parametrize("name", list(SNAPSHOT_CASES))
def test_group_snapshots_equal_solo_snapshots(monkeypatch, name):
    case, seeds, ahead = SNAPSHOT_CASES[name]
    problem, params = case()
    assert not engine._draws_ahead(problem, params)  # the oracle is drawn in turn
    solo = {}
    for seed in seeds:
        solo[seed] = []
        run(problem, params, seed, on_generation=solo[seed].append)
        assert {s.seeds for s in solo[seed]} == {(seed,)}
    made = open_gate(monkeypatch) if ahead else []
    group = []
    hooked = run_many(problem, params, seeds, on_generation=group.append)
    width = 1 if ahead else engine.group_width(params, problem.dimension)
    for s in group:
        assert 1 <= len(s.seeds) <= width and s.trees.shape[:2] == (len(s.seeds), params.num_trees)
        assert len(s.pools) == len(s.best) == len(s.seeds)
    if name == "two-groups":
        assert [len(s.seeds) for s in group] == [13] * params.max_iterations + [1] * params.max_iterations
    for seed in seeds:
        assert snapshot_rows(group, seed) == snapshot_rows(solo[seed], seed)
    # a hook changes no result
    for many, plain in zip(hooked, run_many(problem, params, seeds), strict=True):
        assert_same_run(many, plain, params)
    assert len(made) == (2 * len(seeds) if ahead else 0)


def lockstep_calls(monkeypatch):
    """Records (seeds, ahead) of every `_lockstep` call made from now on."""
    calls, real = [], engine._lockstep

    def lockstep(problem, params, seeds, ahead, on_generation):
        calls.append((seeds, ahead))
        return real(problem, params, seeds, ahead, on_generation)

    monkeypatch.setattr(engine, "_lockstep", lockstep)
    return calls


def test_run_many_caps_every_group(monkeypatch):
    # 13 runs of F1@100 fit their wasp blocks in GROUP_FLOATS, 14 do not
    problem, params = campaign_case("F1", 100, max_iterations=2)
    seeds = [derive_seed(5, "F1", 100, i) for i in range(30)]
    assert engine.group_width(params, 100) == 13
    calls = lockstep_calls(monkeypatch)
    results = run_many(problem, params, seeds)
    assert calls == [(seeds[:13], False), (seeds[13:26], False), (seeds[26:], False)]
    monkeypatch.undo()
    for seed, many in zip(seeds, results, strict=True):
        assert_same_run(many, run(problem, params, seed), params)


@pytest.mark.parametrize("gate", [True, False], ids=["open", "shut"])
def test_runs_that_draw_ahead_go_one_at_a_time(monkeypatch, gate):
    # one tree, one fig and 8 wasps at d=500: a wasp block of 4000 floats, so
    # 32 runs fit a group, and 8 * 500 reaches DRAW_AHEAD_FLOATS
    problem = resolve_problem("F1", 500, DEFAULT_PENALTY_COEFFICIENT)
    params = FwscParams(num_trees=1, figs_per_tree=1, wasps_per_fig=8, max_iterations=3)
    assert engine.group_width(params, 500) == 32
    monkeypatch.setattr(engine, "_draws_ahead", lambda problem, params: gate)
    calls = lockstep_calls(monkeypatch)
    results = run_many(problem, params, SEEDS)
    assert calls == ([([seed], True) for seed in SEEDS] if gate else [(SEEDS, False)])
    # `run_many` decides the gate once, and only a lone run draws ahead
    assert all(len(seeds) == 1 for seeds, ahead in calls if ahead)
    monkeypatch.undo()
    for seed, many in zip(SEEDS, results, strict=True):
        assert_same_run(many, run(problem, params, seed), params)


# the group forms of the pool steps equal one call per pool

BOX = Bounds.box(-10.0, 10.0, 3)
POOL_PARAMS = FwscParams(figs_per_tree=1)  # T*A*W/2 = 12, the size of `pools`


def pools(seed, runs=4, size=12):
    return RandomStream(seed).uniform(size=(runs, size, 3)) * 16.0 - 8.0


def pool_draws(streams, params, noisy):
    """The pool uniforms, winds and pool noise of one generation's draws
    from ``streams``, one run each."""
    problem = ObjectiveProblem("zero", BOX, lambda x: np.zeros(len(x)), noise=(lambda u: u) if noisy else None)
    buffers = generation_buffers(problem, params, len(streams))
    winds = draw_generation(streams, params, buffers)
    return buffers[4], winds, buffers[5]


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
    for r, pool in enumerate(group):
        alone_stream = RandomStream(seed + r)
        _, alone, alone_noise = pool_draws([alone_stream], params, noisy=True)
        assert together[r].tobytes() == wind_effect(alone, pool[None], BOX)[0].tobytes()
        assert noise[r].tobytes() == alone_noise.tobytes()
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


# drawing ahead: a lone run of a large problem draws generation k+1 in a
# background thread while generation k runs; the draws, and so the
# results, are those made in turn. `run_many` runs the seeds of such a
# problem one at a time, so each drawer serves one stream


def drawers_ahead(monkeypatch):
    """Records every drawer made from now on that draws ahead; returns the
    list of them. Such a drawer must be made for one stream: only a lone
    run draws ahead."""
    made, real = [], engine._Draws

    def drawer(params, rngs, buffers, ahead):
        draws = real(params, rngs, buffers, ahead)
        if ahead:
            assert len(rngs) == 1, f"a drawer ahead made for {len(rngs)} streams"
            made.append(draws)
        return draws

    monkeypatch.setattr(engine, "_Draws", drawer)
    return made


def open_gate(monkeypatch):
    """Opens the draw-ahead gate for every problem, so the threaded path runs
    on cheap cases; returns the list of drawers made that draw ahead."""
    monkeypatch.setattr(engine, "_draws_ahead", lambda problem, params: True)
    return drawers_ahead(monkeypatch)


@pytest.fixture
def ahead(monkeypatch):
    return open_gate(monkeypatch)


AHEAD_CASES = [
    ("F1@30", SEEDS[:1]),
    ("F1@30", SEEDS[:3]),
    ("F7@30-noisy", SEEDS[:3]),
    ("half-nan", SEEDS[:3]),
    ("wind-0", SEEDS[:3]),
    ("wind-1", SEEDS[:3]),
    ("one-generation", SEEDS[:3]),
    ("one-generation-design", SEEDS[:1]),
    # with a window, the drawn-in-turn group loses runs: in the middle,
    # first, in two generations in a row, and with one run left for the
    # final generation
    ("stagnation", [11, 123456789, 2024]),  # the middle run leaves first
    ("stagnation-noisy", SEEDS),
    ("stagnation-wind-1", SEEDS),  # the first run leaves first
    ("stagnation-short", SEEDS + [4]),  # seed 4 runs all 12 generations
]


@pytest.mark.parametrize("case, seeds", AHEAD_CASES)
def test_drawing_ahead_equals_drawing_in_turn(monkeypatch, case, seeds):
    problem, params = CASES[case]()
    assert not engine._draws_ahead(problem, params)  # these are drawn in turn
    in_turn = run_many(problem, params, seeds)
    made = open_gate(monkeypatch)
    for many, alone in zip(run_many(problem, params, seeds), in_turn, strict=True):
        assert_same_run(many, alone, params)
    assert len(made) == len(seeds)  # each run draws ahead alone
    stops = [r.iterations_run for r in in_turn]
    first = {"stagnation": 1, "stagnation-wind-1": 0}.get(case)  # the run that leaves first
    if first is not None:
        assert stops[first] < min(stops[:first] + stops[first + 1 :])
    if case == "stagnation-short":
        last = params.max_iterations
        assert {last - 2, last - 1, last} <= set(stops)


def test_groups_drawing_ahead_in_threads_of_their_own_under_fast_switching(monkeypatch):
    # three callers, each running its seeds one at a time with a drawer a
    # run, on fewer CPUs, switching every few microseconds: a handoff that
    # lost a draw or read a buffer being filled would change a result
    cases = ["stagnation-wind-1", "F7@30-noisy", "stagnation"]
    in_turn = {case: run_many(*CASES[case](), SEEDS) for case in cases}
    made, results = open_gate(monkeypatch), {}
    threads = [threading.Thread(target=lambda c=case: results.update({c: run_many(*CASES[c](), SEEDS)})) for case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and len(made) == len(cases) * len(SEEDS)
    for case in cases:
        for many, alone in zip(results[case], in_turn[case], strict=True):
            assert_same_run(many, alone, CASES[case]()[1])
    assert not drawer_threads()


def test_a_large_problem_draws_ahead_through_the_real_gate(monkeypatch):
    spare = len(os.sched_getaffinity(0)) > 1
    cases = [
        (campaign_case("F1", 1000, max_iterations=5), [5, 5]),
        # a window that fires: drawn in turn the group loses its first run after
        # generation 5 of 8
        (campaign_case("F8", 500, max_iterations=8, stagnation_window=2), [5, 8]),
    ]
    for (problem, params), stops in cases:
        with monkeypatch.context() as shut:
            shut.setattr(engine, "_draws_ahead", lambda problem, params: False)
            in_turn = run_many(problem, params, SEEDS[:2])
        with monkeypatch.context() as real_gate:
            made = drawers_ahead(real_gate)
            for many, alone in zip(run_many(problem, params, SEEDS[:2]), in_turn, strict=True):
                assert_same_run(many, alone, params)
        # through the gate each run draws ahead alone
        assert len(made) == 2 * spare and [r.iterations_run for r in in_turn] == stops


def gate(pid, dim):
    return engine._draws_ahead(*campaign_case(pid, dim))


def test_the_gate_draws_ahead_only_large_problems_on_a_spare_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    assert gate("F1", 1000)
    for pid, dim in [("F1", 30), ("F7", 30), ("pressure-vessel", None), ("stepped-beam", None), ("welded-beam", None)]:
        assert not gate(pid, dim)
    # one CPU to run on, whatever the machine has
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1})
    assert not gate("F1", 1000)
    # where there is no affinity, the CPU count
    monkeypatch.delattr(os, "sched_getaffinity")
    for cpus, opens in [(1, False), (None, False), (2, True)]:
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert gate("F1", 1000) is opens


def test_the_gate_is_shut_in_pool_workers(monkeypatch):
    # the workers of a campaign's pool already fill the CPUs
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with ProcessPoolExecutor(max_workers=1) as pool:
        assert pool.submit(gate, "F1", 1000).result() is False
    assert gate("F1", 1000)


def drawer_threads():
    return [t for t in threading.enumerate() if t.name == "figwasp-draw-ahead"]


def test_the_drawer_is_joined_after_a_run(ahead):
    problem, params = CASES["F16"]()
    count = threading.active_count()
    results = run_many(problem, params, SEEDS[:3])
    assert [r.iterations_run for r in results] == [params.max_iterations] * 3
    assert threading.active_count() == count and not drawer_threads() and len(ahead) == 3


@pytest.mark.parametrize("budget", [1, 4])
def test_the_drawer_draws_no_generation_past_the_last(ahead, monkeypatch, budget):
    real, draws = engine.draw_generation, []
    monkeypatch.setattr(engine, "draw_generation", lambda *args: draws.append(len(args[0])) or real(*args))
    problem, params = CASES["F16"]()
    run_many(problem, replace(params, max_iterations=budget), SEEDS[:3])
    assert draws == [1] * 3 * budget and len(ahead) == 3  # a drawer a run


@pytest.mark.parametrize("case", ["F7@30-noisy", "wind-1"])
def test_the_drawer_never_draws_two_generations_in_a_row_into_one_set(ahead, monkeypatch, case):
    # generation k+1 is drawn while generation k runs on its set, so the two
    # must share no memory; the buffers each draw is handed show it without timing
    real, sets, budget = engine.draw_generation, [], 6
    monkeypatch.setattr(engine, "draw_generation", lambda *args: sets.append(args[2]) or real(*args))
    problem, params = CASES[case]()
    run_many(problem, replace(params, max_iterations=budget), SEEDS[:2])
    assert len(sets) == 2 * budget and len(ahead) == 2  # a drawer a run
    for run_sets in (sets[:budget], sets[budget:]):
        for now, after in zip(run_sets, run_sets[1:]):
            assert not any(a is not None and np.shares_memory(a, b) for a, b in zip(now, after))


def test_the_drawer_is_joined_when_every_run_has_left(ahead):
    # a flat objective never improves, so every run leaves at generation 2
    # with generation 3's draw in flight; each run has its own drawer
    problem = ObjectiveProblem("flat", BOX, lambda x: np.zeros(len(x)))
    count = threading.active_count()
    results = run_many(problem, FwscParams(max_iterations=30, stagnation_window=1), SEEDS[:3])
    assert [r.iterations_run for r in results] == [2] * 3
    assert threading.active_count() == count and not drawer_threads() and len(ahead) == 3


def test_an_objective_error_reaches_the_caller_and_joins_the_drawer(ahead):
    calls = []

    def failing(x):
        calls.append(len(x))
        if len(calls) == 5:  # the wasp batch of the first run's generation 3
            raise ValueError("objective failed at generation 3")
        return np.sum(x * x, axis=-1)

    count = threading.active_count()
    with pytest.raises(ValueError, match="generation 3"):
        run_many(ObjectiveProblem("failing", BOX, failing), FwscParams(max_iterations=30), SEEDS[:3])
    assert threading.active_count() == count and not drawer_threads() and len(ahead) == 1


def test_a_drawer_error_reaches_the_caller(ahead, monkeypatch):
    real, threads = engine.draw_generation, []

    def failing(rngs, params, buffers):
        threads.append(threading.current_thread())
        if len(threads) == 3:
            raise RuntimeError("draw failed at generation 3")
        return real(rngs, params, buffers)

    monkeypatch.setattr(engine, "draw_generation", failing)
    problem, params = CASES["F16"]()
    count = threading.active_count()
    with pytest.raises(RuntimeError, match="generation 3"):
        run_many(problem, params, SEEDS[:3])
    assert threading.active_count() == count and not drawer_threads()
    assert len(threads) == 3 and threading.main_thread() not in threads
