from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from figwasp.benchmarks import (
    BENCHMARK_IDS,
    SPECS,
    hartman3,
    known_optimum,
    make_benchmark,
    optimum_witness,
    rastrigin,
    sphere,
)
from figwasp.core import RandomStream, evaluate_batch


class TestTableData:
    def test_sphere_bounds(self):
        p = make_benchmark("F1", 30)
        assert np.all(p.bounds.lower == -100.0) and np.all(p.bounds.upper == 100.0)

    def test_six_hump_camel_minimum(self):
        assert known_optimum("F16", 2) == -1.0316

    def test_schwefel_minimum_scales_with_n(self):
        assert known_optimum("F8", 30) == pytest.approx(-12569.487, abs=1e-3)
        assert known_optimum("F8", 1000) == pytest.approx(-418982.9, abs=1e-1)

    def test_sphere_minimum_any_dimension(self):
        assert known_optimum("F1", 1000) == 0.0

    def test_shekel5_minimum(self):
        assert known_optimum("F21", 4) == -10.1532

    def test_fixed_dimension_rejects_others(self):
        with pytest.raises(ValueError, match="2"):
            make_benchmark("F14", 30)

    def test_scalable_rejects_odd_dimension(self):
        with pytest.raises(ValueError):
            make_benchmark("F1", 17)

    @pytest.mark.parametrize("fid, dimension", [("F1", 30.0), ("F16", 2.0)])
    def test_non_integer_dimension_rejected(self, fid, dimension):
        # a float dimension failed inside numpy with no name
        for lookup in (make_benchmark, known_optimum, optimum_witness):
            with pytest.raises(ValueError, match=f"^{fid}: the dimension must be an integer, not {dimension}$"):
                lookup(fid, dimension)

    def test_unknown_id_rejected(self):
        for lookup in (make_benchmark, known_optimum, optimum_witness):
            with pytest.raises(ValueError, match="unknown benchmark id 'F99'"):
                lookup("F99", 30)

    def test_hartman3_tabulated_minimum_lies_outside_its_box(self):
        # F19's tabulated -3.86 is attained near (0.1146, 0.5556, 0.8525),
        # outside the tabulated box [1, 3]^3; inside the box the minimum on
        # an 81^3 grid is -0.300476, at the corner (1, 1, 1)
        spec = SPECS["F19"]
        assert (spec.low, spec.high, known_optimum("F19", 3)) == (1, 3, -3.86)
        assert hartman3(np.array([0.114614, 0.555649, 0.852547])) == pytest.approx(-3.86278, abs=1e-5)
        axis = np.linspace(1.0, 3.0, 81)
        grid = np.stack(np.meshgrid(axis, axis, axis, indexing="ij"), axis=-1).reshape(-1, 3)
        values = hartman3(grid)
        assert values.min() == pytest.approx(-0.300476, abs=1e-6)
        assert np.array_equal(grid[values.argmin()], [1.0, 1.0, 1.0])

    def test_every_spec_constructs_at_every_allowed_dimension(self):
        for fid in BENCHMARK_IDS:
            for dim in SPECS[fid].dimensions:
                p = make_benchmark(fid, dim)
                assert p.dimension == dim
                assert np.all(p.bounds.lower == SPECS[fid].low)
                assert np.all(p.bounds.upper == SPECS[fid].high)


class TestWitnesses:
    @pytest.mark.parametrize("fid", BENCHMARK_IDS)
    def test_witness_attains_table_minimum(self, fid):
        for dim in SPECS[fid].dimensions:
            witness = optimum_witness(fid, dim)
            if witness is None:
                continue
            problem = replace(make_benchmark(fid, dim), noise=None)
            assert abs(evaluate_batch(problem, witness[None])[0] - known_optimum(fid, dim)) <= 1e-9

    def test_sphere_witness_is_origin(self):
        assert np.array_equal(optimum_witness("F1", 30), np.zeros(30))

    def test_rastrigin_witness_is_origin(self):
        assert np.array_equal(optimum_witness("F9", 100), np.zeros(100))

    def test_rosenbrock_witness_is_ones(self):
        w = optimum_witness("F5", 30)
        assert np.array_equal(w, np.ones(30))
        assert evaluate_batch(make_benchmark("F5", 30), w[None])[0] == 0.0

    def test_no_witness_recorded_where_table_value_is_rounded(self):
        # the tabulated minima for these ids are 4-digit roundings or sit
        # outside the tabulated box, so no exact witness exists
        for fid in ("F8", "F14", "F15", "F16", "F17", "F19", "F20", "F21", "F22", "F23"):
            assert optimum_witness(fid, SPECS[fid].dimensions[0]) is None


def _u_reference(v, a):
    return 100 * (v - a) ** 4 if v > a else 100 * (-v - a) ** 4 if v < -a else 0


def _penalized_reference(x):
    y = [1 + (v + 1) / 4 for v in x]
    core = (
        10 * mpmath.sin(mpmath.pi * y[0]) ** 2
        + mpmath.fsum((y[i] - 1) ** 2 * (1 + 10 * mpmath.sin(mpmath.pi * y[i + 1]) ** 2) for i in range(len(x) - 1))
        + (y[-1] - 1) ** 2
    )
    return mpmath.pi / len(x) * core + mpmath.fsum(_u_reference(v, 10) for v in x)


def _penalized2_reference(x):
    core = (
        mpmath.sin(3 * mpmath.pi * x[0]) ** 2
        + mpmath.fsum((x[i] - 1) ** 2 * (1 + mpmath.sin(3 * mpmath.pi * x[i + 1]) ** 2) for i in range(len(x) - 1))
        + (x[-1] - 1) ** 2 * (1 + mpmath.sin(2 * mpmath.pi * x[-1]) ** 2)
    )
    return core / 10 + mpmath.fsum(_u_reference(v, 5) for v in x)


def _foxholes_reference(x):
    centres = [-32, -16, 0, 16, 32]
    holes = [(centres[j % 5], centres[j // 5]) for j in range(25)]
    inverse = mpmath.fsum(1 / (j + 1 + (x[0] - a1) ** 6 + (x[1] - a2) ** 6) for j, (a1, a2) in enumerate(holes))
    return 1 / (mpmath.mpf(1) / 500 + inverse)


class TestHighPrecisionReference:
    # rows spread over the whole box, so most coordinates of F12 and F13 lie
    # outside [-a, a] where the penalty term is active; the references read
    # the formulas, not the code, at 100 bits
    @pytest.mark.parametrize(
        "fid, dim, reference",
        [("F12", 30, _penalized_reference), ("F13", 30, _penalized2_reference), ("F14", 2, _foxholes_reference)],
    )
    def test_matches_the_formula(self, fid, dim, reference):
        spec = SPECS[fid]
        rows = np.random.default_rng(12).uniform(spec.low, spec.high, size=(32, dim))
        values = make_benchmark(fid, dim).objective(rows)
        with mpmath.workprec(100):
            for x, value in zip(rows, values):
                exact = reference([mpmath.mpf(float(v)) for v in x])
                assert abs(value - exact) <= 1e-12 * abs(exact), (x, value, exact)


class TestQuarticNoise:
    def test_noise_comes_from_run_stream(self):
        p = make_benchmark("F7", 30)
        x = np.zeros(30)
        a = evaluate_batch(p, x[None], noise=RandomStream(11).uniform(size=1))[0]
        b = evaluate_batch(p, x[None], noise=RandomStream(11).uniform(size=1))[0]
        assert a == b
        assert 0.0 <= a < 1.0

    def test_noise_advances_with_stream(self):
        p = make_benchmark("F7", 30)
        rng = RandomStream(11)
        draws = {evaluate_batch(p, np.zeros((1, 30)), noise=rng.uniform(size=1))[0] for _ in range(8)}
        assert len(draws) > 1

    def test_noise_free_switch(self):
        p = replace(make_benchmark("F7", 30), noise=None)
        assert evaluate_batch(p, np.zeros((1, 30)))[0] == 0.0

    def test_noise_term_is_the_draw(self):
        # Quartic's noise is U[0, 1): its map hands the draws back unchanged
        draws = RandomStream(11).uniform(size=4)
        assert make_benchmark("F7", 30).noise(draws) is draws
        assert all(make_benchmark(fid, SPECS[fid].dimensions[0]).noise is None for fid in BENCHMARK_IDS if fid != "F7")

    def test_noisy_requires_stream(self):
        p = make_benchmark("F7", 30)
        with pytest.raises(ValueError):
            evaluate_batch(p, np.zeros((1, 30)))


def sphere_1d(v):
    return v * v


def rastrigin_1d(v):
    return v * v - 10.0 * np.cos(2.0 * np.pi * v) + 10.0


class TestSeparability:
    @given(st.integers(0, 2**31))
    def test_sphere_sum_of_per_dimension_oracle(self, seed):
        x = RandomStream(seed).uniform(size=12) * 200 - 100
        assert sphere(x) == pytest.approx(sum(sphere_1d(v) for v in x), rel=1e-12)

    @given(st.integers(0, 2**31))
    def test_rastrigin_sum_of_per_dimension_oracle(self, seed):
        x = RandomStream(seed).uniform(size=12) * 10.24 - 5.12
        assert rastrigin(x) == pytest.approx(sum(rastrigin_1d(v) for v in x), rel=1e-12)


class TestCornerBehaviour:
    def test_corners_never_trap(self):
        # every benchmark must evaluate at its box corner without raising;
        # overflow-prone cases may return +inf but never NaN
        for fid in BENCHMARK_IDS:
            spec = SPECS[fid]
            dim = spec.dimensions[-1]
            problem = replace(make_benchmark(fid, dim), noise=None)
            corner = np.full(dim, spec.high)
            value = evaluate_batch(problem, corner[None])[0]
            assert not np.isnan(value)

    def test_schwefel_222_overflows_to_inf_at_high_dimension(self):
        p = make_benchmark("F2", 1000)
        assert evaluate_batch(p, np.full((1, 1000), 10.0))[0] == np.inf

    def test_finite_at_moderate_dimensions(self):
        for fid in BENCHMARK_IDS:
            spec = SPECS[fid]
            dim = spec.dimensions[0]
            problem = replace(make_benchmark(fid, dim), noise=None)
            assert np.isfinite(evaluate_batch(problem, np.full((1, dim), spec.high))[0])
