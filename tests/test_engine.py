import math
import re
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from figwasp import engine
from figwasp.benchmarks import make_benchmark
from figwasp.core import _LIMIT, Bounds, ObjectiveProblem, RandomStream, evaluate_batch
from figwasp.engine import (
    FwscParams,
    build_mating_grid,
    draw_generation,
    generation_buffers,
    mate,
    neighborhood_width,
    pool_offsprings,
    run,
    run_many,
    search_directions,
    select_trees,
    spawn_figs,
    spawn_trees,
    spawn_wasps,
    wind_effect,
)


def sphere_problem(dim=2, half=100.0):
    return ObjectiveProblem(
        name="sphere",
        bounds=Bounds.box(-half, half, dim),
        objective=lambda x: np.sum(x * x, axis=-1),
    )


def pool_draws(stream, pool, params):
    """The pool uniforms and winds of one generation's draws from ``stream``
    for one (P, d) ``pool``, under ``params`` with T*A*W/2 = P."""
    params = replace(params, num_trees=len(pool), figs_per_tree=1, wasps_per_fig=2)
    buffers = generation_buffers(sphere_problem(pool.shape[1]), params)
    winds = draw_generation([stream], params, buffers)
    return buffers[4], winds


def respread(stream, pool, bounds):
    """One (P, d) pool re-spread as the generation loop does it: its
    generation's draws from ``stream``, then `search_directions` over their
    pool uniforms."""
    uniforms, _ = pool_draws(stream, pool, FwscParams())
    return search_directions(uniforms, pool[None], bounds)[0]


def blow(stream, pool, params, bounds):
    """One (P, d) pool after the wind of its generation's draws from ``stream``."""
    _, winds = pool_draws(stream, pool, params)
    return wind_effect(winds, pool[None], bounds)[0]


def noisy_problem(dim, noise=lambda draws: draws):
    base = sphere_problem(dim)
    return ObjectiveProblem("noisy", base.bounds, base.objective, noise=noise)


# the largest eta0 whose radius eta0 * e is finite
ETA0_LIMIT = 6.61334345850887e307


def grid_of(females):
    """Positions, grid (row indices) and grid fitness of (fitness, position) pairs."""
    fitness = np.array([f for f, _ in females], dtype=float)
    positions = np.array([p for _, p in females], dtype=float).reshape(len(females), -1)
    return (positions, *build_mating_grid(np.arange(len(females)), fitness))


def mate_pairs(females, male_fitness):
    return mate(*grid_of(females), np.asarray(male_fitness, dtype=float))


# ---------------------------------------------------------------------------
# brute-force oracles, deliberately written as plain linear scans over
# (fitness, position) pairs


def mate_oracle(sorted_females, male_fitness):
    count = len(sorted_females)
    out = []
    for male in male_fitness:
        if count == 1:
            out.append(np.array(sorted_females[0][1], copy=True))
            continue
        cell = None
        for r in range(count - 1):
            if sorted_females[r][0] <= male <= sorted_females[r + 1][0]:
                cell = r
                break
        if cell is None:
            cell = 0 if male < sorted_females[0][0] else count - 2
        out.append((sorted_females[cell][1] + sorted_females[cell + 1][1]) / 2.0)
    return np.stack(out)


def sort_oracle(females):
    return [females[i] for i in sorted(range(len(females)), key=lambda i: (females[i][0], i))]


def select_oracle(fitnesses, count):
    return sorted(range(len(fitnesses)), key=lambda i: (fitnesses[i], i))[:count]


# ---------------------------------------------------------------------------


class TestNeighborhoodWidth:
    def test_at_decay_scale_returns_eta0(self):
        params = FwscParams(eta0=0.8, decay_scale=100.0)
        assert neighborhood_width(100, params) == pytest.approx(0.8, abs=1e-15)

    def test_at_zero(self):
        params = FwscParams(eta0=0.8, decay_scale=100.0)
        assert neighborhood_width(0, params) == pytest.approx(2.17463, abs=1e-5)

    def test_halfway(self):
        params = FwscParams(eta0=0.8, decay_scale=100.0)
        assert neighborhood_width(50, params) == pytest.approx(0.8 * math.exp(0.5), abs=1e-12)
        assert neighborhood_width(50, params) == pytest.approx(1.319, abs=1e-3)

    @given(st.integers(0, 5000))
    def test_strictly_decreasing_and_positive(self, k):
        params = FwscParams(eta0=0.8, decay_scale=250.0)
        assert neighborhood_width(k, params) > neighborhood_width(k + 1, params) > 0.0


class TestParamsValidation:
    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_trees", 2.5),
            ("figs_per_tree", True),
            ("wasps_per_fig", 4.0),
            ("max_iterations", 3.5),
            ("max_iterations", None),
            ("stagnation_window", 1.5),
            ("stagnation_window", False),
        ],
    )
    def test_non_integer_count_rejected(self, field, value):
        # a float count failed later with a TypeError naming no field, and a
        # float stagnation window only after generations had run
        with pytest.raises(ValueError, match=f"^{field} must be an integer, not {value!r}$"):
            FwscParams(**{field: value})

    def test_numpy_integer_counts_give_the_same_run(self):
        counts = dict(num_trees=2, figs_per_tree=2, wasps_per_fig=4, max_iterations=3, stagnation_window=2)
        numpy_counts = {name: np.int64(value) for name, value in counts.items()}
        plain, wide = (run(sphere_problem(), FwscParams(**c), seed=1) for c in (counts, numpy_counts))
        assert plain.trace.tobytes() == wide.trace.tobytes()

    @pytest.mark.parametrize(
        "field,value",
        [
            ("eta0", "1"),
            ("eta0", True),
            ("wind_threshold", None),
            ("wind_fraction", False),
            ("wind_fraction", "0.1"),
            ("decay_scale", "2"),
            ("decay_scale", True),
        ],
    )
    def test_non_number_rejected(self, field, value):
        # a string or None failed a comparison with a TypeError naming no
        # field, and a bool was taken as 1 or 0
        with pytest.raises(ValueError, match=f"^{field} must be a number, not {value!r}$"):
            FwscParams(**{field: value})

    def test_numpy_floats_give_the_same_run(self):
        floats = dict(eta0=0.5, wind_threshold=0.25, wind_fraction=0.2, decay_scale=4.0)
        numpy_floats = {name: np.float64(value) for name, value in floats.items()}
        plain, wide = (run(sphere_problem(), FwscParams(max_iterations=6, **f), seed=1) for f in (floats, numpy_floats))
        assert plain.trace.tobytes() == wide.trace.tobytes()

    def test_zero_budget_rejected(self):
        # a run is one or more whole generations
        with pytest.raises(ValueError, match="^max_iterations must be >= 1$"):
            FwscParams(max_iterations=0)

    def test_odd_wasps_rejected(self):
        with pytest.raises(ValueError):
            FwscParams(wasps_per_fig=7)

    def test_too_few_wasps_rejected(self):
        with pytest.raises(ValueError):
            FwscParams(wasps_per_fig=0)

    def test_bad_threshold_rejected(self):
        with pytest.raises(ValueError):
            FwscParams(wind_threshold=1.5)

    def test_nonpositive_eta_rejected(self):
        with pytest.raises(ValueError):
            FwscParams(eta0=0.0)

    def test_eta_whose_radius_overflows_rejected(self):
        # the radius reaches eta0 * e; past the largest float the wobble
        # became NaN and the run failed midway with a bounds error
        with pytest.raises(ValueError, match="eta0 must be positive with eta0 \\* e finite, not 1e\\+308"):
            run(make_benchmark("F19", 3), FwscParams(eta0=1e308, max_iterations=100), 1)
        with pytest.raises(ValueError, match="eta0"):
            FwscParams(eta0=math.nextafter(ETA0_LIMIT, math.inf))

    @pytest.mark.parametrize("field", [f.name for f in fields(FwscParams)])
    def test_fields_cannot_be_assigned_after_the_checks(self, field):
        # an assigned field skipped every check: wasps_per_fig = 3 failed later
        # with a reshape error naming no field, and eta0 = -5.0 ran a campaign
        params = FwscParams(max_iterations=5)
        with pytest.raises(FrozenInstanceError):
            setattr(params, field, getattr(params, field))
        assert replace(params, wasps_per_fig=4).wasps_per_fig == 4

    def test_eta_just_below_the_limit_runs(self):
        assert math.isfinite(ETA0_LIMIT * math.e)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid-value warning either
            result = run(make_benchmark("F19", 3), FwscParams(eta0=ETA0_LIMIT, max_iterations=100), 1)
        assert result.iterations_run == 100 and math.isfinite(result.best_fitness)

    @pytest.mark.parametrize("num_trees", [10**17, 10**20])
    @pytest.mark.parametrize("dim", [30, 1000])  # at 1000, a lone run draws ahead on two CPUs
    def test_population_numpy_cannot_hold_rejected_before_any_draw(self, monkeypatch, dim, num_trees):
        # numpy refused the wasp block inside the first draw, with an error
        # that named no field ("array is too big", past 2**63 "Maximum
        # allowed dimension exceeded")
        monkeypatch.setattr(engine, "spawn_trees", lambda *args: pytest.fail("drew"))
        problem, params = make_benchmark("F1", dim), FwscParams(num_trees=num_trees)
        for call in (lambda: run(problem, params, 1), lambda: run_many(problem, params, [1, 2])):
            with pytest.raises(ValueError, match=f"^num_trees, figs_per_tree and wasps_per_fig: {num_trees * 32 * dim} "):
                call()

    def test_the_population_limit_is_numpys(self):
        # the largest wasp block numpy can make has 2**60 - 1 floats, its
        # bytes at most the largest intp; numpy refuses the next without allocating
        params = FwscParams(num_trees=2**59 - 1, figs_per_tree=1, wasps_per_fig=2)
        assert engine.group_width(params, 1) == 1
        with pytest.raises(ValueError, match="too big"):
            np.empty(2**60)
        with pytest.raises(ValueError, match="past numpy's limit"):
            engine.group_width(replace(params, num_trees=2**59), 1)


class TestSpawning:
    def test_tree_count_and_containment(self):
        problem = sphere_problem(dim=4)
        trees = spawn_trees(RandomStream(3), problem, FwscParams(), eta=2.0)
        lower, upper = problem.bounds.neighborhood(trees, 2.0)
        assert trees.shape == (3, 4)
        assert problem.bounds.contains(trees)
        assert np.all(lower >= problem.bounds.lower)
        assert np.all(upper <= problem.bounds.upper)
        assert np.all(upper - lower <= 2 * 2.0 + 1e-12)

    def test_small_eta_collapses_local_bounds(self):
        problem = sphere_problem(dim=3)
        trees = spawn_trees(RandomStream(1), problem, FwscParams(), eta=1e-9)
        lower, upper = problem.bounds.neighborhood(trees, 1e-9)
        assert np.all(upper - lower <= 2e-9 + 1e-12)
        assert np.all(lower < upper)

    def test_fixed_seed_is_deterministic(self):
        problem = sphere_problem(dim=4)
        a = spawn_trees(RandomStream(42), problem, FwscParams(), eta=2.0)
        b = spawn_trees(RandomStream(42), problem, FwscParams(), eta=2.0)
        assert np.array_equal(a, b)

    def test_fig_count_and_spread(self):
        problem = sphere_problem(dim=3)
        params = FwscParams()
        eta = 1.5
        trees = spawn_trees(RandomStream(9), problem, params, eta)
        tree_lower, tree_upper = problem.bounds.neighborhood(trees, eta)
        figs, *_ = buffers = generation_buffers(problem, params)
        draw_generation([RandomStream(10)], params, buffers)
        fig_lower, fig_upper = spawn_figs(figs[0], tree_lower, tree_upper, eta, problem.bounds)
        assert fig_lower.shape == fig_upper.shape == (3, 4, 3)
        # the fig point sits in its tree's neighborhood inflated by eta, so
        # the fig box sits in it inflated by 2 * eta
        assert np.all(fig_lower >= tree_lower[:, None] - 2 * eta - 1e-12)
        assert np.all(fig_upper <= tree_upper[:, None] + 2 * eta + 1e-12)
        assert np.all(fig_lower >= problem.bounds.lower)
        assert np.all(fig_upper <= problem.bounds.upper)
        assert np.all(fig_upper - fig_lower <= 2 * eta + 1e-12)

    def test_wasp_counts_sexes_and_cache(self):
        problem = sphere_problem(dim=3)
        params = FwscParams()
        eta = 1.0
        trees = spawn_trees(RandomStream(5), problem, params, eta)
        buffers = generation_buffers(problem, params)
        draw_generation([RandomStream(6)], params, buffers)
        figs, uniforms, noise, permutations = (b if b is None else b[0] for b in buffers[:4])
        fig_lower, fig_upper = spawn_figs(figs, *problem.bounds.neighborhood(trees, eta), eta, problem.bounds)
        wasps = spawn_wasps(uniforms, fig_lower, fig_upper)
        assert wasps.shape == (3, 4, 8, 3)
        assert noise is None
        # each fig's permutation splits its 8 wasps into 4 females and 4 males
        assert np.array_equal(np.sort(permutations, axis=-1), np.broadcast_to(np.arange(8), (3, 4, 8)))
        assert np.all(wasps >= fig_lower[:, :, None])
        assert np.all(wasps <= fig_upper[:, :, None])

    def test_noise_drawn_per_fig_in_stream_order(self):
        # a stochastic problem's buffers take each fig's W noise draws
        # between its wasp uniforms and its permutation
        noisy = noisy_problem(dim=2)
        params = FwscParams(num_trees=1, figs_per_tree=2, wasps_per_fig=4)
        buffers = generation_buffers(noisy, params)
        draw_generation([RandomStream(4)], params, buffers)
        figs, uniforms, noise, permutations = (b[0] for b in buffers[:4])
        rng = RandomStream(4)
        assert np.array_equal(rng.uniform(size=(2, 2, 2)), figs[0])
        for a in range(2):
            assert np.array_equal(rng.uniform(size=(4, 2)), uniforms[0, a])
            assert np.array_equal(rng.uniform(size=4), noise[0, a])
            assert np.array_equal(rng.permutation(4), permutations[0, a])


class TestMatingGrid:
    def test_sorts_ascending(self):
        _, grid, fitness = grid_of([(5.0, [0]), (1.0, [1]), (3.0, [2])])
        assert grid.tolist() == [1, 2, 0]
        assert fitness.tolist() == [1.0, 3.0, 5.0]

    def test_stable_on_ties(self):
        _, grid, _ = grid_of([(2.0, [i]) for i in range(4)])
        assert grid.tolist() == [0, 1, 2, 3]

    def test_cells(self):
        # consecutive grid females bound the cells: a male strictly inside
        # (f_r, f_r+1) mates with exactly that pair
        females = [(5.0, [100.0]), (1.0, [0.0]), (3.0, [10.0])]
        children = mate_pairs(females, [2.0, 4.0])
        assert children[:, 0].tolist() == [5.0, 55.0]

    def test_single_female_degenerate_cell(self):
        children = mate_pairs([(2.0, [7.0])], [-1.0, 2.0, 9.0])
        assert np.array_equal(children, [[7.0], [7.0], [7.0]])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_mating_grid(np.empty(0, dtype=int), np.ones(4))


class TestMate:
    def test_midpoint_of_bracketing_females(self):
        child = mate_pairs([(1.0, [0.0, 0.0]), (3.0, [2.0, 4.0])], [2.0])
        assert np.array_equal(child, [[1.0, 2.0]])

    def test_tie_takes_first_matching_interval(self):
        child = mate_pairs([(1.0, [0.0]), (3.0, [10.0]), (5.0, [100.0])], [3.0])
        # fitness 3.0 matches [1,3] before [3,5]
        assert child[0][0] == 5.0

    def test_one_offspring_per_male(self):
        assert mate_pairs([(1.0, [0.0]), (2.0, [1.0])], [1.5] * 4).shape == (4, 1)

    def test_boundary_clamping(self):
        females = [(1.0, [0.0]), (2.0, [10.0]), (3.0, [20.0])]
        low = mate_pairs(females, [0.0])
        high = mate_pairs(females, [99.0])
        assert low[0][0] == 5.0  # first interval midpoint
        assert high[0][0] == 15.0  # last interval midpoint

    def test_single_female_returns_her_position(self):
        # she pairs with herself: (x + x) / 2 must be x, bit for bit, out to ±_LIMIT
        her = np.array([3.0, 4.0, _LIMIT, -_LIMIT, 5e-324, -0.0])
        child = mate_pairs([(2.0, her)], [9.0])
        assert child.tobytes() == her.tobytes()

    @settings(deadline=None, max_examples=200)
    @given(
        data=st.data(),
        n_females=st.integers(1, 6),
        n_males=st.integers(1, 6),
        dim=st.integers(1, 3),
    )
    def test_matches_linear_scan_oracle(self, data, n_females, n_males, dim):
        fit = st.floats(-100, 100, allow_nan=False)
        females = [
            (data.draw(fit), np.array(data.draw(st.lists(fit, min_size=dim, max_size=dim))))
            for _ in range(n_females)
        ]
        males = [data.draw(fit) for _ in range(n_males)]
        positions, grid, fitness = grid_of(females)
        expected = sort_oracle(females)
        assert fitness.tolist() == [f for f, _ in expected]
        assert np.array_equal(positions[grid], np.stack([p for _, p in expected]))
        assert np.array_equal(mate(positions, grid, fitness, np.array(males)), mate_oracle(expected, males))

    @settings(deadline=None, max_examples=50)
    @given(data=st.data(), figs=st.integers(1, 5), half=st.integers(1, 4), dim=st.integers(1, 3))
    def test_all_figs_at_once_match_one_fig_at_a_time(self, data, figs, half, dim):
        # fitness on a coarse grid so ties across females and males are common
        wasps = 2 * half
        fit = st.integers(-3, 3).map(float)
        fitness = np.array(data.draw(st.lists(fit, min_size=figs * wasps, max_size=figs * wasps))).reshape(figs, wasps)
        sexing = np.array([data.draw(st.permutations(range(wasps))) for _ in range(figs)])
        females, males = np.sort(sexing[:, :half], axis=-1), np.sort(sexing[:, half:], axis=-1)
        male_fit = np.take_along_axis(fitness, males, axis=-1)
        positions = np.arange(figs * wasps * dim, dtype=float).reshape(figs, wasps, dim)
        together = mate(positions, *build_mating_grid(females, fitness), male_fit)
        for f in range(figs):
            alone = mate(positions[f], *build_mating_grid(females[f], fitness[f]), male_fit[f])
            assert np.array_equal(together[f], alone)


class TestPool:
    def test_pool_size_counts_every_fig(self):
        offspring = np.zeros((2, 3, 4, 4, 3))  # 2 runs x 3 trees x 4 figs, W/2 = 4
        assert pool_offsprings(offspring).shape == (2, 48, 3)

    def test_single_offspring_envelope(self):
        # the envelope of a one-member pool is that member, so re-spreading
        # leaves it in place
        pool = pool_offsprings(np.array([[[[[1.0, -2.0]]]]]))[0]
        fresh = respread(RandomStream(0), pool, Bounds.box(-5.0, 5.0, 2))
        assert np.array_equal(fresh, [[1.0, -2.0]])

    @given(st.integers(0, 2**31))
    def test_envelope_contains_every_member(self, seed):
        # each run's pool keeps its figs' offspring in tree, fig, male order,
        # and each coordinate's re-spread envelope spans all of them
        offspring = RandomStream(seed).uniform(size=(2, 2, 3, 4, 4)) * 20 - 10
        pools = pool_offsprings(offspring)
        for pool, trees in zip(pools, offspring):
            assert np.array_equal(pool, np.concatenate([block for tree in trees for block in tree]))
        fresh = respread(RandomStream(seed + 1), pool, Bounds.box(-10.0, 10.0, 4))
        assert np.all(fresh >= pool.min(axis=0))
        assert np.all(fresh <= pool.max(axis=0))


class TestSearchDirections:
    def test_identical_offspring_unchanged(self):
        bounds = Bounds.box(-10.0, 10.0, 3)
        pool = np.tile([1.0, 2.0, 3.0], (5, 1))
        fresh = respread(RandomStream(0), pool, bounds)
        assert np.array_equal(fresh, pool)

    @given(st.integers(0, 2**31))
    def test_stays_inside_old_envelope(self, seed):
        bounds = Bounds.box(-50.0, 50.0, 3)
        rng = RandomStream(seed)
        pool = rng.uniform(size=(8, 3)) * 40 - 20
        fresh = respread(rng, pool, bounds)
        assert np.all(fresh >= pool.min(axis=0) - 1e-12)
        assert np.all(fresh <= pool.max(axis=0) + 1e-12)

    def test_deterministic(self):
        bounds = Bounds.box(-50.0, 50.0, 2)
        pool = np.array([[0.0, 1.0], [5.0, -3.0], [2.0, 2.0]])
        a = respread(RandomStream(11), pool, bounds)
        b = respread(RandomStream(11), pool, bounds)
        assert np.array_equal(a, b)


class TestWindEffect:
    def test_zero_threshold_is_identity(self):
        bounds = Bounds.box(-100.0, 100.0, 2)
        pool = RandomStream(3).uniform(size=(48, 2)) * 50
        params = FwscParams(wind_threshold=0.0)
        for seed in range(20):
            out = blow(RandomStream(seed), pool, params, bounds)
            assert np.array_equal(out, pool)

    def test_origin_is_fixed_point(self):
        bounds = Bounds.box(-100.0, 100.0, 3)
        pool = np.zeros((10, 3))
        params = FwscParams(wind_threshold=1.0)
        out = blow(RandomStream(1), pool, params, bounds)
        assert np.array_equal(out, pool)

    def test_always_on_perturbs_exact_count(self):
        # pool of 48 strictly positive coordinates far from the box edge:
        # exactly ceil(0.1 * 48) = 5 members move
        bounds = Bounds.box(-1e9, 1e9, 4)
        pool = 1.0 + RandomStream(5).uniform(size=(48, 4))
        params = FwscParams(wind_threshold=1.0, wind_fraction=0.10)
        out = blow(RandomStream(6), pool, params, bounds)
        changed = np.any(out != pool, axis=1).sum()
        _, winds = pool_draws(RandomStream(6), pool, params)
        assert len(winds[0][1]) == 5
        assert changed == 5
        # drift is multiplicative outward: x <- x * (1 + r)
        assert np.all(out >= pool)

    @given(st.integers(1, 200), st.floats(0.0, 1.0))
    def test_wind_count_ceiling(self, size, fraction):
        # the wind blows ceil(wind_fraction * P) members of a P-member pool
        params = FwscParams(wind_threshold=1.0, wind_fraction=fraction)
        _, winds = pool_draws(RandomStream(size), np.zeros((size, 1)), params)
        count = sum(len(members) for _, members, _ in winds)
        assert count == math.ceil(fraction * size)
        assert 0 <= count <= size


class TestSelectTrees:
    def select(self, pool, count, problem=None):
        """Evaluate the pool, then rank it, as the generation loop does."""
        problem = problem or sphere_problem(dim=1, half=100.0)
        return select_trees(pool, evaluate_batch(problem, pool), count)

    def test_pool_of_exactly_t_selects_all(self):
        pool = np.array([[3.0], [1.0], [2.0]])
        trees = self.select(pool, 3)
        assert sorted(trees[:, 0]) == [1.0, 2.0, 3.0]

    def test_order_statistics(self):
        pool = np.array([[-3.0], [1.0], [np.sqrt(5.0)], [np.sqrt(3.0)]])
        trees = self.select(pool, 3)
        assert [round(t[0] ** 2, 9) for t in trees] == [1.0, 3.0, 5.0]

    def test_tie_breaks_by_pool_index(self):
        pool = np.array([[2.0], [-2.0], [1.0]])
        trees = self.select(pool, 2)
        assert trees[0][0] == 1.0
        assert trees[1][0] == 2.0  # index 0 beats index 1 on the tie

    def test_pool_smaller_than_t_rejected(self):
        with pytest.raises(ValueError):
            self.select(np.array([[1.0]]), 2)

    def test_fitness_of_another_shape_rejected(self):
        # a group's fitness must come per pool, (R, P), not flat
        with pytest.raises(ValueError, match="cannot seed"):
            select_trees(np.zeros((2, 3, 1)), np.zeros(6), 2)

    def test_nan_ranks_last(self):
        values = {1.0: 4.0, 2.0: float("nan"), 3.0: 9.0}
        problem = ObjectiveProblem("nan", Bounds.box(-5.0, 5.0, 1), lambda x: np.array([values[v] for v in x[:, 0]]))
        pool = np.array([[2.0], [3.0], [1.0], [4.0]])
        fitness = np.array([math.nan, 9.0, 4.0, math.inf])
        trees = self.select(pool[:3], 2, problem)
        assert trees[:, 0].tolist() == [1.0, 3.0]
        # NaN counts as +inf, so the tie with +inf breaks toward the lower index
        assert select_trees(pool, fitness, 4)[:, 0].tolist() == [1.0, 3.0, 2.0, 4.0]
        assert np.isnan(fitness[0])  # the caller's values are left as they were

    @settings(deadline=None, max_examples=100)
    @given(data=st.data(), size=st.integers(1, 12), count=st.integers(1, 6))
    def test_matches_sort_oracle(self, data, size, count):
        if count > size:
            count = size
        values = data.draw(
            st.lists(st.floats(-50, 50, allow_nan=False), min_size=size, max_size=size)
        )
        trees = self.select(np.array(values)[:, None], count)
        expected = select_oracle([v * v for v in values], count)
        assert trees[:, 0].tolist() == [values[i] for i in expected]


def winds_bytes(winds):
    return [(i, members.tobytes(), kicks.tobytes()) for i, members, kicks in winds]


class TestBuffers:
    def test_uniform_into_buffer_is_the_same_draw(self):
        # the engine fills its buffers with random(out=): the draws of random(size=)
        a, b = RandomStream(17).generator, RandomStream(17).generator
        buf = np.full((5, 3), np.nan)
        assert a.random(out=buf) is buf
        assert np.array_equal(buf, b.random(size=(5, 3)))
        # the stream stands at the same point afterwards
        assert np.array_equal(a.random(size=4), b.random(size=4))

    def test_draw_generation_into_buffers_matches_fresh_arrays(self):
        noisy = noisy_problem(dim=3)
        params = FwscParams(num_trees=2, figs_per_tree=3, wasps_per_fig=4, wind_threshold=1.0)
        reused, fresh = RandomStream(8), RandomStream(8)
        buffers = generation_buffers(noisy, params)
        for _ in range(3):  # refilled, not appended to, every generation
            winds = draw_generation([reused], params, buffers)
            expected = generation_buffers(noisy, params)
            want_winds = draw_generation([fresh], params, expected)
            for got, want in zip(buffers, expected):
                assert np.array_equal(got, want)
            assert winds_bytes(winds) == winds_bytes(want_winds) != []  # the winds are drawn fresh
        assert np.array_equal(reused.uniform(size=2), fresh.uniform(size=2))

    def test_group_draw_equals_one_draw_per_stream(self):
        # run i of a group draws from its own stream into row i of every
        # buffer; buffers with fewer rows than streams are refused, and larger
        # ones are filled in their leading rows, the rows beyond left as they are
        noisy = noisy_problem(dim=3)
        params = FwscParams(num_trees=2, figs_per_tree=3, wasps_per_fig=4, wind_threshold=0.5)
        group, alone = [RandomStream(s) for s in (5, 6, 7)], [RandomStream(s) for s in (5, 6, 7)]
        with pytest.raises(ValueError, match="buffers for 2 runs cannot take the draws of 3"):
            draw_generation(group, params, generation_buffers(noisy, params, 2))
        buffers = [np.full_like(b, 7) for b in generation_buffers(noisy, params, 5)]
        winds = draw_generation(group, params, buffers)
        singles = [generation_buffers(noisy, params) for _ in alone]
        alone_winds = [(i, m, k) for i, b in enumerate(singles) for _, m, k in draw_generation([alone[i]], params, b)]
        for got, parts in zip(buffers, zip(*singles)):
            assert got[:3].tobytes() == np.concatenate(parts).tobytes()
            assert np.all(got[3:] == 7)
        assert winds_bytes(winds) == winds_bytes(alone_winds)
        for a, b in zip(group, alone):
            assert a.uniform(size=3).tobytes() == b.uniform(size=3).tobytes()

    def test_snapshots_and_result_outlive_the_buffers(self, monkeypatch):
        made, held, copies = [], [], []

        def buffers(*args):
            made.append(generation_buffers(*args))
            return made[-1]

        def keep(snapshot):
            held.append(snapshot)
            copies.append((snapshot.trees.copy(), snapshot.pools.copy()))

        monkeypatch.setattr(engine, "generation_buffers", buffers)
        result = run(sphere_problem(dim=3), FwscParams(max_iterations=8), seed=13, on_generation=keep)
        assert len(made) == 1 and len(held) == 8
        for snapshot, (trees, pools) in zip(held, copies):
            assert np.array_equal(snapshot.trees, trees)
            assert np.array_equal(snapshot.pools, pools)
        assert not np.array_equal(held[0].pools, held[-1].pools)
        assert float(np.sum(result.best_position**2)) == result.best_fitness
        kept = [a for snapshot in held for a in (snapshot.trees, snapshot.pools)] + [result.best_position]
        assert not any(np.shares_memory(a, b) for a in kept for b in made[0] if b is not None)


class TestRun:
    def test_noise_map_sees_the_wasp_draws_then_the_pool_draws(self):
        # the map is called once per evaluation batch: every run's wasps
        # (R*T*A*W draws), then every run's pool (R*P draws)
        calls = []

        def record(draws):
            calls.append(draws.copy())
            return draws

        params = FwscParams(num_trees=2, figs_per_tree=3, wasps_per_fig=4, max_iterations=5)
        results = run_many(noisy_problem(dim=2, noise=record), params, [3, 4])
        wasps, pool = 2 * 2 * 3 * 4, 2 * (2 * 3 * 4 // 2)
        assert [len(c) for c in calls] == [wasps, pool] * 5
        assert all(c.min() >= 0.0 and c.max() < 1.0 for c in calls)
        assert sum(r.evaluations for r in results) == 5 * (wasps + pool)

    @pytest.mark.parametrize("entry", ["run", "run_many", "RandomStream"])
    @pytest.mark.parametrize("seed", [1.7, True, "5", None])
    def test_seed_must_be_an_integer(self, entry, seed):
        # 1.7 and True ran seed 1 and "5" ran seed 5
        start = {
            "run": lambda: run(sphere_problem(), FwscParams(max_iterations=1), seed),
            "run_many": lambda: run_many(sphere_problem(), FwscParams(max_iterations=1), [seed]),
            "RandomStream": lambda: RandomStream(seed),
        }[entry]
        with pytest.raises(ValueError, match=f"^seed must be an integer, not {re.escape(repr(seed))}$"):
            start()

    def test_numpy_integer_seed_gives_the_same_run(self):
        params = FwscParams(max_iterations=5)
        numpy_seed, seed = run(sphere_problem(), params, np.int64(7)), run(sphere_problem(), params, 7)
        assert numpy_seed.trace.tobytes() == seed.trace.tobytes()
        assert numpy_seed.best_position.tobytes() == seed.best_position.tobytes()

    def test_single_generation_trace(self):
        result = run(sphere_problem(), FwscParams(max_iterations=1), seed=1)
        assert result.iterations_run == 1
        assert len(result.trace) == 1

    def test_same_seed_bit_identical(self):
        params = FwscParams(max_iterations=20)
        a = run(sphere_problem(), params, seed=99)
        b = run(sphere_problem(), params, seed=99)
        assert a.best_fitness == b.best_fitness
        assert np.array_equal(a.best_position, b.best_position)
        assert np.array_equal(a.trace, b.trace)
        assert a.evaluations == b.evaluations

    def test_trace_non_increasing_and_final_is_best(self):
        result = run(sphere_problem(), FwscParams(max_iterations=40), seed=5)
        assert np.all(np.diff(result.trace) <= 0)
        assert result.best_fitness == result.trace[-1]

    def test_evaluation_accounting(self):
        params = FwscParams(max_iterations=7)
        result = run(sphere_problem(), params, seed=3)
        per_generation = 3 * 4 * 8 + 3 * 4 * 4
        assert result.evaluations == 7 * per_generation

    def test_every_evaluated_point_inside_bounds(self):
        seen = []
        base = sphere_problem(dim=3, half=2.0)

        def watched(x):
            seen.extend(np.array(x, copy=True))
            return np.sum(x * x, axis=-1)

        problem = ObjectiveProblem("watched", base.bounds, watched)
        run(problem, FwscParams(max_iterations=10), seed=8)
        assert seen
        for x in seen:
            assert base.bounds.contains(x)

    @pytest.mark.parametrize("entry", [run, lambda *args: run_many(*args[:2], [args[2]] * 3)], ids=["run", "run_many"])
    def test_a_one_point_objective_fails_with_the_problem_name(self, entry):
        # the engine scores without evaluate_batch's row checks, but still
        # checks the values an objective returns
        problem = ObjectiveProblem("pointwise", Bounds.box(-1.0, 1.0, 2), lambda x: float(np.sum(x * x)))
        with pytest.raises(ValueError, match=r"^pointwise: the objective must map \(n, d\) rows to \(n,\) values"):
            entry(problem, FwscParams(max_iterations=3), 5)

    @pytest.mark.parametrize("budget, batches", [(1, 2), (6, 12)])
    def test_the_engine_scores_through_its_evaluate_twice_per_generation(self, monkeypatch, budget, batches):
        # one call per batch for the whole group, wasps then pool: perfbench
        # counts core.evaluate.calls_per_gen by wrapping this module global
        rows = []

        def counted(problem, positions, noise=None):
            rows.append(len(positions))
            return real(problem, positions, noise)

        real = engine.evaluate
        monkeypatch.setattr(engine, "evaluate", counted)
        params = FwscParams(max_iterations=budget)
        results = run_many(sphere_problem(), params, [1, 2, 3])
        assert len(rows) == batches
        assert sum(rows) == sum(r.evaluations for r in results)

    def test_rowwise_objective_gives_the_same_run(self):
        # the objective is called once per batch, two batches per generation,
        # and the run is bit-identical to the README's adapter around a
        # one-point function, which calls it on one row at a time
        calls = []

        def rows(x):
            calls.append(x.shape)
            return np.sum(x * x, axis=-1)

        def point(x):
            return float(np.sum(x * x))

        box = Bounds.box(-100.0, 100.0, 3)
        adapted = ObjectiveProblem("points", box, lambda X: np.array([point(x) for x in X]))
        batched = ObjectiveProblem("rows", box, rows)
        params = FwscParams(max_iterations=6)
        a, b = run(adapted, params, seed=21), run(batched, params, seed=21)
        assert calls == [(96, 3), (48, 3)] * 6
        assert np.array_equal(a.trace, b.trace)
        assert np.array_equal(a.best_position, b.best_position)

    def test_stagnation_window_stops_early(self):
        flat = ObjectiveProblem("flat", Bounds.box(-1.0, 1.0, 2), lambda x: np.zeros(len(x)))
        result = run(flat, FwscParams(max_iterations=500, stagnation_window=5), seed=0)
        assert result.iterations_run == 6  # generations 2 to 6 add nothing to generation 1's best

    @pytest.mark.parametrize("seed", range(20))
    def test_nan_never_hides_a_finite_best(self, seed):
        # half the box is NaN: the best-so-far is the lowest finite value
        # evaluated, whichever phase and whatever NaN shares its batch
        seen = []

        def half_nan(x):
            values = np.where(x[:, 0] > 0.0, np.nan, np.sum(x * x, axis=-1))
            seen.extend(values)
            return values

        problem = ObjectiveProblem("half-nan", Bounds.box(-10.0, 10.0, 2), half_nan)
        result = run(problem, FwscParams(max_iterations=40, eta0=2.0), seed=seed)
        assert result.best_fitness == np.nanmin(seen)
        assert np.all(np.diff(result.trace) <= 0)
        assert float(np.sum(result.best_position**2)) == result.best_fitness

    def test_sphere_dim2_default_params_converges(self):
        # pilot-confirmed bound for the reference configuration
        result = run(sphere_problem(dim=2), FwscParams(max_iterations=500), seed=2024)
        assert result.best_fitness <= 1e-6
