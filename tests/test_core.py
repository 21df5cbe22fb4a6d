import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from figwasp.core import (
    Bounds,
    ObjectiveProblem,
    RandomStream,
    derive_seed,
    evaluate,
    evaluate_batch,
)
from figwasp.engine import FwscParams, run


def sphere_problem(dim=3, half=100.0):
    return ObjectiveProblem(
        name="sphere",
        bounds=Bounds.box(-half, half, dim),
        objective=lambda x: np.sum(x * x, axis=-1),
    )


class TestBounds:
    def test_rejects_degenerate_dimension(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0, 1.0]), np.array([1.0, 1.0]))

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            Bounds(np.array([0.0]), np.array([1.0, 2.0]))

    @pytest.mark.parametrize("side", ["lower", "upper"])
    @pytest.mark.parametrize("limit", [-np.inf, np.inf])
    def test_rejects_infinite_limit(self, side, limit):
        # an infinite limit would plant NaN trees and fail mid-run; it fails
        # here, before any run
        ends = {"lower": np.array([-1.0, -1.0]), "upper": np.array([1.0, 1.0])}
        ends[side][1] = limit
        with pytest.raises(ValueError, match="bounds must be finite"):
            Bounds(ends["lower"], ends["upper"])

    def test_rejects_a_box_of_no_dimension(self):
        with pytest.raises(ValueError, match="at least one dimension"):
            Bounds(np.array([]), np.array([]))

    def test_limits_of_half_the_largest_float_run(self):
        # midpoints of two wasps and the pool's envelope width stay finite
        half = np.finfo(float).max / 2
        problem = ObjectiveProblem("huge", Bounds.box(-half, half, 3), lambda x: np.max(np.abs(x), axis=-1))
        with np.errstate(over="raise", invalid="raise"):
            result = run(problem, FwscParams(max_iterations=20), seed=0)
        assert problem.bounds.contains(result.best_position)
        assert np.isfinite(result.best_fitness)

    @pytest.mark.parametrize("side", ["lower", "upper"])
    def test_rejects_a_limit_beyond_half_the_largest_float(self, side):
        # one ulp further out, a midpoint of two wasps overflowed to inf and
        # the pool's envelope width to NaN, and the run failed mid-way
        half = np.finfo(float).max / 2
        ends = {"lower": np.full(3, -half), "upper": np.full(3, half)}
        ends[side][2] = np.nextafter(ends[side][2], math.copysign(math.inf, ends[side][2]))
        with pytest.raises(ValueError, match=re.escape(f"bounds: {side}[2] = {ends[side][2]} is beyond")):
            Bounds(ends["lower"], ends["upper"])

    def test_neighborhood_is_clipped_to_box(self):
        b = Bounds.box(-1.0, 1.0, 2)
        lower, upper = b.neighborhood(np.array([0.9, -0.9]), 0.5)
        assert np.allclose(lower, [0.4, -1.0])
        assert np.allclose(upper, [1.0, -0.4])

    def test_neighborhood_of_many_centers_is_row_by_row(self):
        b = Bounds.box(-1.0, 1.0, 2)
        centers = np.array([[[0.9, -0.9], [0.0, 1.0]], [[-1.0, 0.2], [0.5, 0.5]]])
        lower, upper = b.neighborhood(centers, 0.5)
        for index in np.ndindex(centers.shape[:-1]):
            one_lower, one_upper = b.neighborhood(centers[index], 0.5)
            assert np.array_equal(lower[index], one_lower)
            assert np.array_equal(upper[index], one_upper)


class TestClamp:
    def test_identity_on_feasible_input(self):
        b = Bounds.box(-100.0, 100.0, 3)
        x = np.array([1.0, -2.0, 3.0])
        assert np.array_equal(b.clamp(x.copy()), x)

    def test_projects_high_coordinate(self):
        b = Bounds.box(-100.0, 100.0, 1)
        assert b.clamp(np.array([150.0]))[0] == 100.0

    def test_projects_low_coordinate(self):
        b = Bounds.box(-5.0, 5.0, 1)
        assert b.clamp(np.array([-7.0]))[0] == -5.0

    @given(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=8))
    def test_idempotent(self, values):
        # in place, row by row, with np.clip's values
        x = np.array(values)
        b = Bounds.box(-10.0, 10.0, len(values))
        rows = np.stack([x, -x])
        once = b.clamp(rows.copy())
        assert np.array_equal(once, np.clip(rows, b.lower, b.upper))
        twice = once.copy()
        assert b.clamp(twice) is twice
        assert np.array_equal(twice, once)
        assert b.contains(once)


class TestRandomStream:
    def test_same_seed_same_sequence(self):
        a = RandomStream(12345).uniform(size=64)
        b = RandomStream(12345).uniform(size=64)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(RandomStream(1).uniform(size=16), RandomStream(2).uniform(size=16))

    def test_uniform_range(self):
        u = RandomStream(7).uniform(size=10_000)
        assert np.all(u >= 0.0) and np.all(u < 1.0)

    def test_derive_seed_is_stable_and_spread(self):
        s1 = derive_seed(42, "F1", 30, 0)
        s2 = derive_seed(42, "F1", 30, 0)
        s3 = derive_seed(42, "F1", 30, 1)
        assert s1 == s2
        assert s1 != s3
        assert 0 <= s1 < 2**64
        # adding problems must not shift other problems' seeds
        assert derive_seed(42, "F9", 30, 0) == derive_seed(42, "F9", 30, 0)


class TestUniformInBox:
    def test_zero_width_returns_exact_point(self):
        rng = RandomStream(0)
        point = np.array([2.5, -1.0])
        out = rng.uniform_between(point, point)
        assert np.array_equal(out, point)

    @given(st.integers(0, 2**32))
    def test_containment_unit_square(self, seed):
        out = RandomStream(seed).uniform_between(np.zeros(2), np.ones(2), size=2)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_law_of_large_numbers_mean(self):
        # independent check of the sampling distribution: empirical mean of
        # 1e5 draws on [0, 10] must sit within 0.1 of 5.0
        rng = RandomStream(2024)
        draws = np.array([rng.uniform_between(np.zeros(1), np.full(1, 10.0), size=1)[0] for _ in range(1000)])
        big = rng.uniform(size=99_000) * 10.0
        mean = np.concatenate([draws, big]).mean()
        assert abs(mean - 5.0) < 0.1


class TestEvaluate:
    def test_sphere_at_origin(self):
        p = sphere_problem(dim=30)
        assert evaluate(p, np.zeros(30)) == 0.0

    def test_sphere_unit_vector(self):
        p = sphere_problem(dim=30)
        x = np.zeros(30)
        x[0] = 1.0
        assert evaluate(p, x) == 1.0

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            evaluate(sphere_problem(dim=3), np.zeros(4))

    def test_out_of_bounds_raises(self):
        p = sphere_problem(dim=2, half=1.0)
        with pytest.raises(ValueError):
            evaluate(p, np.array([0.0, 1.5]))

    def test_noise_needs_stream(self):
        p = ObjectiveProblem(
            name="noisy",
            bounds=Bounds.box(-1.0, 1.0, 1),
            objective=lambda x: np.zeros(len(x)),
            noise=lambda draws: draws,
        )
        with pytest.raises(ValueError):
            evaluate(p, np.zeros(1))
        v1 = evaluate(p, np.zeros(1), noise=RandomStream(5).uniform(size=1))
        v2 = evaluate(p, np.zeros(1), noise=RandomStream(5).uniform(size=1))
        assert v1 == v2  # same noise seed, same value


class TestObjectiveProblem:
    def test_four_fields_and_the_dimension_of_the_box(self):
        assert [f.name for f in dataclasses.fields(ObjectiveProblem)] == ["name", "bounds", "objective", "noise"]
        assert sphere_problem(dim=5).dimension == 5


class TestEvaluateBatch:
    def test_rows_match_single_evaluations(self):
        p = sphere_problem(dim=3)
        rows = RandomStream(1).uniform(size=(5, 3))
        values = evaluate_batch(p, rows)
        assert values.tolist() == [evaluate(p, x) for x in rows]

    def test_rowwise_objective_is_called_once(self):
        calls = []

        def rows(x):
            calls.append(x.shape)
            return np.sum(x * x, axis=-1)

        p = ObjectiveProblem("rows", Bounds.box(-1.0, 1.0, 2), rows)
        assert evaluate_batch(p, np.zeros((4, 2))).tolist() == [0.0] * 4
        assert calls == [(4, 2)]

    def test_rowwise_objective_must_return_one_value_per_row(self):
        p = ObjectiveProblem("bad", Bounds.box(-1.0, 1.0, 2), lambda x: np.zeros(3))
        with pytest.raises(ValueError):
            evaluate_batch(p, np.zeros((4, 2)))

    @pytest.mark.parametrize("rows", [1, 4])
    def test_scalar_objective_is_rejected_with_the_problem_name(self, rows):
        # a one-point function must be adapted to rows; its float is no row values,
        # even for a batch of one
        p = ObjectiveProblem("pointwise", Bounds.box(-1.0, 1.0, 2), lambda x: float(np.sum(x * x)))
        with pytest.raises(ValueError, match=r"pointwise: the objective must map \(n, d\) rows to \(n,\) values"):
            evaluate_batch(p, np.zeros((rows, 2)))

    def test_shape_and_bounds_checked_once_for_all_rows(self):
        p = sphere_problem(dim=2, half=1.0)
        with pytest.raises(ValueError):
            evaluate_batch(p, np.zeros(2))
        with pytest.raises(ValueError):
            evaluate_batch(p, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            evaluate_batch(p, np.array([[0.0, 0.0], [0.0, 1.5]]))

    def test_noise_drawn_as_one_vector_or_given(self):
        p = ObjectiveProblem("noisy", Bounds.box(-1.0, 1.0, 1), lambda x: np.zeros(len(x)), noise=lambda draws: draws)
        drawn = evaluate_batch(p, np.zeros((4, 1)), noise=RandomStream(5).uniform(size=4))
        rng = RandomStream(5)
        assert drawn.tolist() == [evaluate(p, np.zeros(1), noise=rng.uniform(size=1)) for _ in range(4)]
        given_noise = np.array([0.5, 0.25, 0.0, 1.0])
        assert evaluate_batch(p, np.zeros((4, 1)), noise=given_noise).tolist() == given_noise.tolist()

    def test_noise_map_turns_draws_into_terms(self):
        box = Bounds.box(-1.0, 1.0, 2)
        p = ObjectiveProblem("scaled", box, lambda x: np.sum(x * x, axis=-1), noise=lambda u: 10 * u)
        rows = RandomStream(3).uniform(size=(5, 2))
        draws = RandomStream(4).uniform(size=5)
        assert evaluate_batch(p, rows, noise=draws).tobytes() == (np.sum(rows * rows, axis=-1) + 10 * draws).tobytes()

    def test_one_noise_draw_and_term_per_row(self):
        # one draw for four rows was added to all four
        p = ObjectiveProblem("noisy", Bounds.box(-1.0, 1.0, 1), lambda x: np.zeros(len(x)), noise=lambda draws: draws)
        with pytest.raises(ValueError, match="noisy is stochastic .* per row"):
            evaluate_batch(p, np.zeros((4, 1)), noise=np.array([0.5]))
        # a map that gives one term for all rows
        scalar = ObjectiveProblem("scalar", Bounds.box(-1.0, 1.0, 1), lambda x: np.zeros(len(x)), noise=lambda u: 0.5)
        with pytest.raises(ValueError, match="scalar is stochastic .* per row"):
            evaluate_batch(scalar, np.zeros((4, 1)), noise=np.full(4, 0.5))
