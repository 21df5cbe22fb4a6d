"""The F1-F23 benchmark suite with table-exact ranges and reference optima.

Function ids, dimensions, ranges, and reported minima follow the published
benchmark tables verbatim, including their quirks (Quartic on [-128, 128],
Branin on [-5, 5]^2, Hartman 3 on [1, 3]^3). Closed-form expressions are
the standard literature ones. `optimum_witness` records a minimizer only
where the tabulated minimum is achieved exactly (to 1e-9) inside the
tabulated range.

Every objective takes one point (d,) or an (n, d) array of points and
reduces along the last axis, bit-identically for both. Quartic's noise
maps the engine's uniform draws to its terms; no code here draws.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Bounds, ObjectiveProblem, Vector, power

SCALABLE_DIMENSIONS = (30, 100, 500, 1000)


def sphere(x):
    return np.sum(x * x, axis=-1)


def schwefel_222(x):
    ax = np.abs(x)
    with np.errstate(over="ignore"):
        # the |x_i| product overflows to +inf near the corners above ~300 dims
        return np.sum(ax, axis=-1) + np.prod(ax, axis=-1)


def schwefel_12(x):
    return np.sum(np.cumsum(x, axis=-1) ** 2, axis=-1)


def schwefel_221(x):
    return np.max(np.abs(x), axis=-1)


def rosenbrock(x):
    return np.sum(100.0 * (x[..., 1:] - x[..., :-1] ** 2) ** 2 + (x[..., :-1] - 1.0) ** 2, axis=-1)


def step(x):
    return np.sum(np.floor(x + 0.5) ** 2, axis=-1)


def quartic(x):
    i = np.arange(1, x.shape[-1] + 1)
    return np.sum(i * x**4, axis=-1)


def schwefel(x):
    return -np.sum(x * np.sin(np.sqrt(np.abs(x))), axis=-1)


def rastrigin(x):
    return np.sum(x * x - 10.0 * np.cos(2.0 * np.pi * x) + 10.0, axis=-1)


def ackley(x):
    n = x.shape[-1]
    return (
        -20.0 * np.exp(-0.2 * np.sqrt(np.sum(x * x, axis=-1) / n))
        - np.exp(np.sum(np.cos(2.0 * np.pi * x), axis=-1) / n)
        + 20.0
        + np.e
    )


def griewank(x):
    i = np.arange(1, x.shape[-1] + 1)
    return np.sum(x * x, axis=-1) / 4000.0 - np.prod(np.cos(x / np.sqrt(i)), axis=-1) + 1.0


def _u_penalty(x, a, k):
    # k * max(|x| - a, 0)^4 as products: a SIMD pow's last bit follows the CPU
    v = np.maximum(np.abs(x) - a, 0.0)
    v2 = v * v
    return np.sum(k * (v2 * v2), axis=-1)


def penalized(x):
    n = x.shape[-1]
    y = 1.0 + (x + 1.0) / 4.0
    core = (
        10.0 * power(np.sin(np.pi * y[..., 0]), 2)
        + np.sum((y[..., :-1] - 1.0) ** 2 * (1.0 + 10.0 * np.sin(np.pi * y[..., 1:]) ** 2), axis=-1)
        + power(y[..., -1] - 1.0, 2)
    )
    return np.pi / n * core + _u_penalty(x, 10.0, 100.0)


def penalized2(x):
    core = (
        power(np.sin(3.0 * np.pi * x[..., 0]), 2)
        + np.sum((x[..., :-1] - 1.0) ** 2 * (1.0 + np.sin(3.0 * np.pi * x[..., 1:]) ** 2), axis=-1)
        + power(x[..., -1] - 1.0, 2) * (1.0 + power(np.sin(2.0 * np.pi * x[..., -1]), 2))
    )
    return 0.1 * core + _u_penalty(x, 5.0, 100.0)


_FOXHOLES_A = np.array(
    [
        np.tile([-32.0, -16.0, 0.0, 16.0, 32.0], 5),
        np.repeat([-32.0, -16.0, 0.0, 16.0, 32.0], 5),
    ]
)


def foxholes(x):
    j = np.arange(1, 26)
    t = x[..., :, None] - _FOXHOLES_A
    t2 = t * t
    denom = j + np.sum(t2 * t2 * t2, axis=-2)
    return 1.0 / (1.0 / 500.0 + np.sum(1.0 / denom, axis=-1))


_KOWALIK_A = np.array(
    [0.1957, 0.1947, 0.1735, 0.1600, 0.0844, 0.0627, 0.0456, 0.0342, 0.0323, 0.0235, 0.0246]
)
_KOWALIK_B = 1.0 / np.array([0.25, 0.5, 1.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0, 16.0])


def kowalik(x):
    num = x[..., 0, None] * (_KOWALIK_B**2 + _KOWALIK_B * x[..., 1, None])
    den = _KOWALIK_B**2 + _KOWALIK_B * x[..., 2, None] + x[..., 3, None]
    return np.sum((_KOWALIK_A - num / den) ** 2, axis=-1)


def six_hump_camel(x):
    x1, x2 = x[..., 0], x[..., 1]
    return (
        4.0 * power(x1, 2) - 2.1 * power(x1, 4) + power(x1, 6) / 3.0 + x1 * x2 - 4.0 * power(x2, 2) + 4.0 * power(x2, 4)
    )


def branin(x):
    x1, x2 = x[..., 0], x[..., 1]
    a, b, c = 1.0, 5.1 / (4.0 * np.pi**2), 5.0 / np.pi
    return (
        a * power(x2 - b * power(x1, 2) + c * x1 - 6.0, 2)
        + 10.0 * (1.0 - 1.0 / (8.0 * np.pi)) * np.cos(x1)
        + 10.0
    )


def goldstein_price(x):
    x1, x2 = x[..., 0], x[..., 1]
    t1 = 1.0 + power(x1 + x2 + 1.0, 2) * (
        19.0 - 14.0 * x1 + 3.0 * power(x1, 2) - 14.0 * x2 + 6.0 * x1 * x2 + 3.0 * power(x2, 2)
    )
    t2 = 30.0 + power(2.0 * x1 - 3.0 * x2, 2) * (
        18.0 - 32.0 * x1 + 12.0 * power(x1, 2) + 48.0 * x2 - 36.0 * x1 * x2 + 27.0 * power(x2, 2)
    )
    return t1 * t2


_HARTMAN_ALPHA = np.array([1.0, 1.2, 3.0, 3.2])
_HARTMAN3_A = np.array([[3, 10, 30], [0.1, 10, 35], [3, 10, 30], [0.1, 10, 35]], dtype=float)
_HARTMAN3_P = np.array(
    [
        [0.3689, 0.1170, 0.2673],
        [0.4699, 0.4387, 0.7470],
        [0.1091, 0.8732, 0.5547],
        [0.0381, 0.5743, 0.8828],
    ]
)
_HARTMAN6_A = np.array(
    [
        [10, 3, 17, 3.5, 1.7, 8],
        [0.05, 10, 17, 0.1, 8, 14],
        [3, 3.5, 1.7, 10, 17, 8],
        [17, 8, 0.05, 10, 0.1, 14],
    ],
    dtype=float,
)
_HARTMAN6_P = np.array(
    [
        [0.1312, 0.1696, 0.5569, 0.0124, 0.8283, 0.5886],
        [0.2329, 0.4135, 0.8307, 0.3736, 0.1004, 0.9991],
        [0.2348, 0.1451, 0.3522, 0.2883, 0.3047, 0.6650],
        [0.4047, 0.8828, 0.8732, 0.5743, 0.1091, 0.0381],
    ]
)


def _hartman(x, a, p):
    inner = np.sum(a * (x[..., None, :] - p) ** 2, axis=-1)
    return -np.sum(_HARTMAN_ALPHA * np.exp(-inner), axis=-1)


hartman3 = functools.partial(_hartman, a=_HARTMAN3_A, p=_HARTMAN3_P)
hartman6 = functools.partial(_hartman, a=_HARTMAN6_A, p=_HARTMAN6_P)


_SHEKEL_A = np.array(
    [
        [4, 4, 4, 4],
        [1, 1, 1, 1],
        [8, 8, 8, 8],
        [6, 6, 6, 6],
        [3, 7, 3, 7],
        [2, 9, 2, 9],
        [5, 5, 3, 3],
        [8, 1, 8, 1],
        [6, 2, 6, 2],
        [7, 3.6, 7, 3.6],
    ],
    dtype=float,
)
_SHEKEL_C = np.array([0.1, 0.2, 0.2, 0.4, 0.4, 0.6, 0.3, 0.7, 0.5, 0.5])


def _shekel(x, m):
    diff = x[..., None, :] - _SHEKEL_A[:m]
    return -np.sum(1.0 / (np.sum(diff * diff, axis=-1) + _SHEKEL_C[:m]), axis=-1)


shekel5 = functools.partial(_shekel, m=5)
shekel7 = functools.partial(_shekel, m=7)
shekel10 = functools.partial(_shekel, m=10)


def _uniform_noise(draws: np.ndarray) -> np.ndarray:  # Quartic's terms are U[0, 1): the draws themselves
    return draws


@dataclass(frozen=True)
class BenchmarkSpec:
    fid: str
    name: str
    dimensions: tuple[int, ...]
    low: float
    high: float
    f_min: float
    objective: Callable[[np.ndarray], np.ndarray]
    f_min_times_n: bool = False
    witness: Callable[[int], Vector] | None = None
    noise: Callable[[np.ndarray], np.ndarray] | None = None  # see ObjectiveProblem.noise


_SPEC_LIST = [
    BenchmarkSpec("F1", "Sphere", SCALABLE_DIMENSIONS, -100, 100, 0.0, sphere, witness=np.zeros),
    BenchmarkSpec("F2", "Schwefel 2.22", SCALABLE_DIMENSIONS, -10, 10, 0.0, schwefel_222, witness=np.zeros),
    BenchmarkSpec("F3", "Schwefel 1.2", SCALABLE_DIMENSIONS, -100, 100, 0.0, schwefel_12, witness=np.zeros),
    BenchmarkSpec("F4", "Schwefel 2.21", SCALABLE_DIMENSIONS, -100, 100, 0.0, schwefel_221, witness=np.zeros),
    BenchmarkSpec("F5", "Rosenbrock", SCALABLE_DIMENSIONS, -30, 30, 0.0, rosenbrock, witness=np.ones),
    BenchmarkSpec("F6", "Step", SCALABLE_DIMENSIONS, -100, 100, 0.0, step, witness=np.zeros),
    BenchmarkSpec("F7", "Quartic", SCALABLE_DIMENSIONS, -128, 128, 0.0, quartic, witness=np.zeros, noise=_uniform_noise),
    BenchmarkSpec("F8", "Schwefel", SCALABLE_DIMENSIONS, -500, 500, -418.9829, schwefel, f_min_times_n=True),
    BenchmarkSpec("F9", "Rastrigin", SCALABLE_DIMENSIONS, -5.12, 5.12, 0.0, rastrigin, witness=np.zeros),
    BenchmarkSpec("F10", "Ackley", SCALABLE_DIMENSIONS, -32, 32, 0.0, ackley, witness=np.zeros),
    BenchmarkSpec("F11", "Griewank", SCALABLE_DIMENSIONS, -600, 600, 0.0, griewank, witness=np.zeros),
    BenchmarkSpec("F12", "Penalized", SCALABLE_DIMENSIONS, -50, 50, 0.0, penalized, witness=lambda n: -np.ones(n)),
    BenchmarkSpec("F13", "Penalized2", SCALABLE_DIMENSIONS, -50, 50, 0.0, penalized2, witness=np.ones),
    BenchmarkSpec("F14", "Foxholes", (2,), -65, 65, 1.0, foxholes),
    BenchmarkSpec("F15", "Kowalik", (4,), -5, 5, 0.0003, kowalik),
    BenchmarkSpec("F16", "Six Hump Camel", (2,), -5, 5, -1.0316, six_hump_camel),
    BenchmarkSpec("F17", "Branin", (2,), -5, 5, 0.398, branin),
    BenchmarkSpec("F18", "Goldstein-Price", (2,), -2, 2, 3.0, goldstein_price, witness=lambda n: np.array([0.0, -1.0])),
    BenchmarkSpec("F19", "Hartman 3", (3,), 1, 3, -3.86, hartman3),
    BenchmarkSpec("F20", "Hartman 6", (6,), 0, 1, -3.32, hartman6),
    BenchmarkSpec("F21", "Shekel 5", (4,), 0, 10, -10.1532, shekel5),
    BenchmarkSpec("F22", "Shekel 7", (4,), 0, 10, -10.4028, shekel7),
    BenchmarkSpec("F23", "Shekel 10", (4,), 0, 10, -10.5363, shekel10),
]

SPECS: dict[str, BenchmarkSpec] = {s.fid: s for s in _SPEC_LIST}

BENCHMARK_IDS = tuple(SPECS)


def _spec(fid: str, dimension: int) -> BenchmarkSpec:
    """The spec of benchmark ``fid``, checked to be defined at ``dimension``."""
    spec = SPECS.get(fid)
    if spec is None:
        raise ValueError(f"unknown benchmark id {fid!r}; known ids are F1..F23")
    if isinstance(dimension, bool) or not isinstance(dimension, numbers.Integral):
        raise ValueError(f"{fid}: the dimension must be an integer, not {dimension!r}")
    if dimension not in spec.dimensions:
        raise ValueError(f"{fid} ({spec.name}) is defined for dimensions {sorted(spec.dimensions)}, not {dimension}")
    return spec


def make_benchmark(fid: str, dimension: int) -> ObjectiveProblem:
    """Instantiate a benchmark at one of its tabulated dimensions.

    ``dataclasses.replace(problem, noise=None)`` turns off the Quartic
    function's additive noise so witness points can be checked exactly.
    """
    spec = _spec(fid, dimension)
    bounds = Bounds.box(spec.low, spec.high, dimension)
    return ObjectiveProblem(f"{spec.fid} {spec.name}", bounds, spec.objective, spec.noise)


def known_optimum(fid: str, dimension: int) -> float:
    """The tabulated minimum, scaled by n where the table says so."""
    spec = _spec(fid, dimension)
    return spec.f_min * dimension if spec.f_min_times_n else spec.f_min


def optimum_witness(fid: str, dimension: int) -> Vector | None:
    """A point achieving the tabulated minimum exactly, when one exists."""
    spec = _spec(fid, dimension)
    if spec.witness is None:
        return None
    return spec.witness(dimension)
