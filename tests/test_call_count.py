"""Calls issued from figwasp code per generation, counted exactly.

The engine's time goes mostly to Python overhead around small numpy calls,
and on a shared host timing cannot resolve a change of a few percent. A
call count can: it moves only when the code does. `sys.setprofile` sees
every call; a call is counted when figwasp code issues it: a ``call`` event
whose caller is a figwasp frame (a figwasp function, a comprehension or a
numpy Python wrapper), or a ``c_call`` event from a figwasp frame (a numpy
or builtin C function). numpy's own internals go uncounted, so the counts
depend on figwasp's code, not on how numpy wraps its functions, save the
Python callbacks numpy's Cython makes, which surface as calls from the
figwasp frame that entered numpy: `Generator.shuffle` calls ``np.ndim``,
two ``call`` events (its dispatcher and its body) per permutation.

A generation runs from one `draw_generation` call to the next, its own
draw included; the first generation (which fills the caches) and the last
(which builds the results) are left out. Every run is drawn in turn. The
counts are a fixture, like the golden traces: a change that moves one
records the old and new counts, and a rise needs a reason.

    PYTHONPATH=src python -m pytest -q -s tests/test_call_count.py

prints each shape's median and mean count and the share of calls made
inside `draw_generation`, and

    PYTHONPATH=src python tests/test_call_count.py

prints the `COUNTS` table for the code at hand. The counts hold for
Python 3.11, whose comprehensions run in frames of their own, and numpy
2.4.6, the versions CI pins.
"""

import statistics
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from figwasp import constrained, engine
from figwasp.cli import ExperimentConfig, resolve_problem, resolved_params
from figwasp.constrained import DEFAULT_PENALTY_COEFFICIENT

FIGWASP = str(Path(engine.__file__).parent) + "/"
BUDGET = 8  # generations 2-7 are counted

# (problem, dimension, seeds), with the campaign's default parameters
SHAPES = {
    "F1@30-R1": ("F1", 30, [11]),
    "F1@30-R30": ("F1", 30, list(range(1, 31))),
    "F7@30-noisy": ("F7", 30, [11]),
    "pressure-vessel": ("pressure-vessel", None, [11]),
    "stepped-beam": ("stepped-beam", None, [11]),
    "welded-beam": ("welded-beam", None, [11]),
    "F1@1000": ("F1", 1000, [11]),
}


def count_calls(problem, params, seeds):
    """[calls, calls in the draw path] for each generation ``run_many`` draws."""
    draw_code, generations, drawing = engine.draw_generation.__code__, [], 0

    def profile(frame, event, arg):
        nonlocal drawing
        if event == "call":
            if frame.f_code is draw_code:
                generations.append([0, 0])
                drawing += 1
            caller = frame.f_back
            ours = caller is not None and caller.f_code.co_filename.startswith(FIGWASP)
        elif event == "c_call":
            ours = frame.f_code.co_filename.startswith(FIGWASP)
        else:
            if event == "return" and frame.f_code is draw_code:
                drawing -= 1
            return
        if ours and generations:
            generations[-1][0] += 1
            generations[-1][1] += drawing > 0

    sys.setprofile(profile)
    try:
        engine.run_many(problem, params, seeds)
    finally:
        sys.setprofile(None)
    return generations


# (calls, calls in the draw path) of generations 2-7; a windy generation
# draws and applies its kicks (F1@30: 115 and 36 calls against 107 and 30),
# a run whose best improves copies its new best, and a design's repair calls
# `snap` once per discrete group in each objective batch
COUNTS = {
    "F1@30-R1": [(107, 30), (115, 36), (107, 30), (107, 30), (107, 30), (107, 30)],
    "F1@30-R30": [(1150, 810), (1174, 834), (1131, 792), (1172, 834), (1141, 804), (1164, 828)],
    "F7@30-noisy": [(115, 30), (115, 30), (123, 36), (123, 36), (115, 30), (115, 30)],
    "pressure-vessel": [(137, 30), (145, 36), (136, 30), (137, 30), (137, 30), (144, 36)],
    "stepped-beam": [(173, 30), (181, 36), (173, 30), (181, 36), (173, 30), (172, 30)],
    "welded-beam": [(133, 30), (141, 36), (133, 30), (133, 30), (133, 30), (141, 36)],
    "F1@1000": [(115, 36), (115, 36), (107, 30), (107, 30), (115, 36), (115, 36)],
}


def shape_counts(shape):
    """(calls, calls in the draw path) of generations 2-7 of ``shape``, from cold caches."""
    pid, dim, seeds = SHAPES[shape]
    problem = resolve_problem(pid, dim, DEFAULT_PENALTY_COEFFICIENT)
    params = replace(resolved_params(ExperimentConfig(problems=[(pid, problem.dimension)]), problem), max_iterations=BUDGET)
    for cache in (engine._row_starts, constrained._repair_plan):
        cache.cache_clear()
    generations = count_calls(problem, params, seeds)
    assert len(generations) == BUDGET
    return [tuple(g) for g in generations[1:-1]]


def _drawn_in_turn(problem, params):
    return False


@pytest.mark.parametrize("shape", list(SHAPES))
def test_calls_per_generation(monkeypatch, shape):
    monkeypatch.setattr(engine, "_draws_ahead", _drawn_in_turn)
    counted = shape_counts(shape)
    calls, drawn = (sum(column) for column in zip(*counted))
    print(
        f"\n[calls] {shape}: median {statistics.median(c for c, _ in counted):g}, mean"
        f" {calls / len(counted):.1f} per generation, {drawn / calls:.0%} in the draw path"
    )
    assert counted == COUNTS[shape]


if __name__ == "__main__":
    engine._draws_ahead = _drawn_in_turn
    for shape in SHAPES:
        print(f'    "{shape}": {shape_counts(shape)},')
