"""The draw order of a run, pinned by a slow per-value reference.

A run is a pure function of (problem, params, seed) because it draws from
its own stream in a fixed order: each generation, `draw_generation` draws
the wasp half and then the pool half. `reference_run` writes that order
out on a bare Philox generator, one ``random()`` at a time, with
``permutation(W)`` per fig and ``choice(P, m, replace=False)`` for the
wind. The engine's draw function must equal it bit for bit, and each
stream must stand where the reference does afterwards.
"""

import math

import numpy as np
import pytest

from figwasp.core import Bounds, ObjectiveProblem, RandomStream, derive_seed
from figwasp.engine import FwscParams, draw_generation, generation_buffers

GENERATIONS = 6


def reference_run(seed, params, d, noisy):
    """Every draw of one run over `GENERATIONS` generations, per generation
    a dict of arrays, plus the generator left after the last draw."""
    gen = np.random.Generator(np.random.Philox(key=seed))

    def one_at_a_time(*shape):
        return np.array([gen.random() for _ in range(math.prod(shape))]).reshape(shape)

    t_count, a_count, w_count = params.num_trees, params.figs_per_tree, params.wasps_per_fig
    size = t_count * a_count * w_count // 2
    blown = math.ceil(params.wind_fraction * size)
    drawn = []
    for _ in range(GENERATIONS):
        figs, wasps, noise, permutations = [], [], [], []
        for _ in range(t_count):
            figs.append(one_at_a_time(a_count, 2, d))
            for _ in range(a_count):
                wasps.append(one_at_a_time(w_count, d))
                if noisy:
                    noise.append(one_at_a_time(w_count))
                permutations.append(gen.permutation(w_count))
        step = {
            "figs": np.stack(figs),
            "wasps": np.stack(wasps).reshape(t_count, a_count, w_count, d),
            "noise": np.concatenate(noise) if noisy else None,
            "permutations": np.stack(permutations).reshape(t_count, a_count, w_count),
            "uniforms": one_at_a_time(size, d),
            "wind": None,
        }
        gate = gen.random()
        if params.wind_threshold > 0.0 and gate <= params.wind_threshold and blown > 0:
            members = np.sort(gen.choice(size, blown, replace=False))
            step["wind"] = (members, one_at_a_time(blown, d))
        step["pool_noise"] = one_at_a_time(size) if noisy else None
        drawn.append(step)
    return drawn, gen


def same(got, want):
    """Both absent, or the same dtype, shape and bytes."""
    if want is None:
        return got is None
    return got is not None and (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes())


def assert_drawn(buffers, winds, wants):
    """One generation's draws of a group, the leading rows of its
    ``buffers`` and its ``winds``, equal ``wants``, the per-value reference
    draws of its runs in order: run r in row r."""
    figs, wasps, noise, permutations, uniforms, pool_noise = buffers
    runs = len(wants)
    assert [i for i, _, _ in winds] == sorted({i for i, _, _ in winds})
    for r, want in enumerate(wants):
        assert same(figs[r], want["figs"])
        assert same(wasps[r], want["wasps"])
        assert same(None if noise is None else noise[r].reshape(-1), want["noise"])
        assert same(permutations[r], want["permutations"].astype(permutations.dtype))
        assert same(uniforms[r], want["uniforms"])
        wind = [(members, kicks) for i, members, kicks in winds if i == r]
        assert len(wind) == (want["wind"] is not None)
        if wind:
            assert same(wind[0][0].astype(want["wind"][0].dtype), want["wind"][0])
            assert same(wind[0][1], want["wind"][1])
        assert same(None if pool_noise is None else pool_noise[r], want["pool_noise"])
    # winds only for the group's runs
    assert all(i < runs for i, _, _ in winds)


def zero_problem(d, noisy):
    noise = (lambda u: u) if noisy else None
    return ObjectiveProblem("zero", Bounds.box(-1.0, 1.0, d), lambda x: np.zeros(len(x)), noise=noise)


@pytest.mark.parametrize(
    "threshold, fraction", [(0.0, 0.1), (0.5, 0.1), (1.0, 0.1), (1.0, 0.0)], ids=["calm", "half", "storm", "none-blown"]
)
@pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
@pytest.mark.parametrize("runs", [1, 3])
@pytest.mark.parametrize("d", [1, 3, 30])
def test_draw_functions_equal_the_per_value_reference(d, runs, noisy, threshold, fraction):
    params = FwscParams(num_trees=2, figs_per_tree=3, wasps_per_fig=4, wind_threshold=threshold, wind_fraction=fraction)
    seeds = [derive_seed(14, d, runs, noisy, threshold, fraction, r) for r in range(runs)]
    references = [reference_run(seed, params, d, noisy) for seed in seeds]
    streams = [RandomStream(seed) for seed in seeds]
    buffers = generation_buffers(zero_problem(d, noisy), params, runs)
    winds_seen = 0
    for k in range(GENERATIONS):
        winds = draw_generation(streams, params, buffers)
        assert_drawn(buffers, winds, [steps[k] for steps, _ in references])
        winds_seen += len(winds)
    for stream, (_, gen) in zip(streams, references):
        assert stream.uniform() == gen.random()
    # the gate's branches: it never blows at 0, sometimes at 0.5, and always
    # at 1 unless no member is to be blown
    expected = {0.0: [0], 0.5: range(1, runs * GENERATIONS), 1.0: [runs * GENERATIONS if fraction else 0]}
    assert winds_seen in expected[threshold]


@pytest.mark.parametrize("noisy", [False, True], ids=["exact", "noisy"])
def test_a_group_that_loses_a_run_keeps_each_draw_order(noisy):
    # a group of 3 loses its middle run after 3 generations, as a stagnated
    # run leaves: the others draw on into the leading rows of the same buffers
    params = FwscParams(num_trees=2, figs_per_tree=3, wasps_per_fig=4, wind_threshold=0.5)
    problem, seeds = zero_problem(3, noisy), [derive_seed(16, noisy, r) for r in range(3)]
    references = [reference_run(seed, params, 3, noisy) for seed in seeds]
    streams = [RandomStream(seed) for seed in seeds]
    buffers = generation_buffers(problem, params, 3)
    for k in range(3):
        winds = draw_generation(streams, params, buffers)
        assert_drawn(buffers, winds, [steps[k] for steps, _ in references])
    del streams[1], references[1]
    with pytest.raises(ValueError, match="buffers for 1 runs cannot take the draws of 2"):
        draw_generation(streams, params, generation_buffers(problem, params, 1))  # checked before anything is drawn
    last = [None if b is None else b[2].copy() for b in buffers]
    for k in range(3, GENERATIONS):
        winds = draw_generation(streams, params, buffers)
        assert_drawn(buffers, winds, [steps[k] for steps, _ in references])
    # the row past the live runs keeps its last draws
    assert all(same(None if b is None else b[2], want) for b, want in zip(buffers, last))
    for stream, (_, gen) in zip(streams, references):
        assert stream.uniform() == gen.random()
