"""Fig-tree / wasp symbiotic coevolution search.

One generation works on a three-level population: trees mark candidate
regions, figs are sub-regions sampled inside each tree's neighborhood, and
wasps are evaluated points inside each fig. Wasp mating produces offspring
at female midpoints, the offspring pool is re-spread across its own
per-dimension envelope, an occasional "wind" kick inflates a fraction of
the pool, and the best pool members seed the next generation's trees. The
neighborhood radius shrinks with the iteration count, so the search
narrows from global exploration to local refinement.

A generation is held as arrays: trees (T, d), fig boxes (T, A, d), wasps
(T, A, W, d) and an offspring pool (T*A*W/2, d). Its random draws come in
a fixed order (see `draw_generation`), and the objective is evaluated in
two batches: every wasp, then the whole pool. A user problem declares
``ObjectiveProblem(..., rowwise=True)`` when its objective maps an (n, d)
array to the (n,) values of its rows, bit-equal to one call per row; then
each batch is one call, else one call per row. NaN objective values rank
as +inf: never the best-so-far, last in the mating grid and in selection.

A run allocates its generation buffers once and draws into them in place.
Snapshots and results never alias them; the wasp rows an objective gets
are overwritten next generation, so it must copy any row it keeps.

All randomness flows through one `RandomStream`, so a run is a pure
function of (problem, params, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import Bounds, EvalContext, ObjectiveProblem, RandomStream, Vector
from .core import evaluate_batch as evaluate  # every engine evaluation is a batch of rows

# Decay horizon for the neighborhood radius, as a multiple of the iteration
# budget, when no explicit decay_scale is configured. Calibrated on pilot
# campaigns (Sphere/Griewank at dimension 30, 500 generations): horizons at
# or above the budget keep the radius effectively constant and stall
# refinement many orders of magnitude short of the quality gates, while
# horizons under ~1/25 of the budget freeze the population before it can
# travel to the optimum basin.
DEFAULT_DECAY_FACTOR = 0.05


@dataclass
class FwscParams:
    """Algorithm parameters; defaults follow the reference configuration."""

    num_trees: int = 3
    figs_per_tree: int = 4
    wasps_per_fig: int = 8
    eta0: float = 0.8
    wind_threshold: float = 0.5
    wind_fraction: float = 0.10
    max_iterations: int = 500
    decay_scale: float | None = None
    stagnation_window: int | None = None

    def __post_init__(self):
        if self.num_trees < 1:
            raise ValueError("num_trees must be positive")
        if self.figs_per_tree < 1:
            raise ValueError("figs_per_tree must be positive")
        if self.wasps_per_fig < 2 or self.wasps_per_fig % 2 != 0:
            raise ValueError("wasps_per_fig must be an even integer >= 2")
        if self.num_trees > self.num_trees * self.figs_per_tree * (self.wasps_per_fig // 2):
            raise ValueError("offspring pool smaller than the number of trees")
        if not (self.eta0 > 0 and np.isfinite(self.eta0)):
            raise ValueError("eta0 must be positive and finite")
        if not 0.0 <= self.wind_threshold <= 1.0:
            raise ValueError("wind_threshold must lie in [0, 1]")
        if not 0.0 <= self.wind_fraction <= 1.0:
            raise ValueError("wind_fraction must lie in [0, 1]")
        # max_iterations == 0 is the degenerate sample-only budget used by
        # the harness; it evaluates one wasp population and selects nothing.
        if self.max_iterations < 0:
            raise ValueError("max_iterations must be >= 0")
        if self.decay_scale is not None and not self.decay_scale > 0:
            raise ValueError("decay_scale must be positive")
        if self.stagnation_window is not None and self.stagnation_window < 1:
            raise ValueError("stagnation_window must be a positive integer")

    def effective_decay_scale(self) -> float:
        if self.decay_scale is not None:
            return float(self.decay_scale)
        return DEFAULT_DECAY_FACTOR * max(self.max_iterations, 1)


@dataclass(frozen=True)
class RunResult:
    best_position: Vector
    best_fitness: float
    trace: np.ndarray
    evaluations: int
    seed: int
    iterations_run: int


class GenerationSnapshot(NamedTuple):
    iteration: int
    trees: np.ndarray  # (T, d)
    pool: np.ndarray  # (T*A*W/2, d), after wind
    best_so_far: float


def neighborhood_width(k: int, params: FwscParams) -> float:
    """Shrinking neighborhood radius eta0 * exp(1 - k / decay_scale)."""
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    return params.eta0 * math.exp(1.0 - k / params.effective_decay_scale())


def _plant(uniforms: np.ndarray, lower: np.ndarray, upper: np.ndarray, eta: float, bounds: Bounds) -> np.ndarray:
    """Points uniform on [lower, upper] (from ``uniforms[..., 0, :]``) moved
    by a wobble uniform on [-eta, eta] (from ``uniforms[..., 1, :]``),
    clamped to the box."""
    point = lower + uniforms[..., 0, :] * (upper - lower)
    point += -eta + uniforms[..., 1, :] * (eta - -eta)
    return bounds.clamp(point)


def spawn_trees(rng: RandomStream, problem: ObjectiveProblem, params: FwscParams, eta: float) -> np.ndarray:
    """Plant T trees uniformly over the global box, wobbled by +-eta per
    dimension: (T, d) positions."""
    gb = problem.bounds
    return _plant(rng.uniform(size=(params.num_trees, 2, problem.dimension)), gb.lower, gb.upper, eta, gb)


def generation_buffers(problem: ObjectiveProblem, params: FwscParams) -> tuple:
    """Empty fig uniforms (T, A, 2, d), wasp uniforms (T, A, W, d), noise
    (T, A, W) or None, and permutations (T, A, W) for `draw_generation`."""
    shape, d = (params.num_trees, params.figs_per_tree, params.wasps_per_fig), problem.dimension
    noise = None if problem.noise is None else np.empty(shape)
    return np.empty(shape[:2] + (2, d)), np.empty(shape + (d,)), noise, np.empty(shape, dtype=np.intp)


def draw_generation(
    rng: RandomStream, problem: ObjectiveProblem, params: FwscParams, buffers: tuple | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None, np.ndarray]:
    """Every draw of one generation before pollination, in stream order.

    Per tree: the (A, 2, d) fig uniforms. Then per fig of that tree: its
    (W, d) wasp uniforms, W noise terms if the problem is stochastic, and
    the permutation(W) that sexes its wasps. A permutation consumes a
    variable number of bits, so the per-fig draws cannot be merged into
    one block.

    The draws fill ``buffers`` from `generation_buffers` (fresh ones when
    None). Returns the fig uniforms (T, A, 2, d), wasp uniforms
    (T, A, W, d), noise (T*A*W,) or None, and permutations (T, A, W).
    """
    figs, wasp_uniforms, noise, permutations = buffers or generation_buffers(problem, params)
    w_count = params.wasps_per_fig
    for t in range(params.num_trees):
        rng.uniform(out=figs[t])
        for a in range(params.figs_per_tree):
            rng.uniform(out=wasp_uniforms[t, a])
            if noise is not None:
                noise[t, a] = problem.noise(rng, w_count)
            permutations[t, a] = rng.permutation(w_count)
    return figs, wasp_uniforms, None if noise is None else noise.reshape(-1), permutations


def spawn_figs(
    fig_uniforms: np.ndarray, tree_lower: np.ndarray, tree_upper: np.ndarray, eta: float, global_bounds: Bounds
) -> tuple[np.ndarray, np.ndarray]:
    """Fig boxes (lower, upper), each (T, A, d): the +-eta neighborhood of
    a point in the tree's box wobbled by +-eta."""
    points = _plant(fig_uniforms, tree_lower[:, None], tree_upper[:, None], eta, global_bounds)
    return global_bounds.neighborhood(points, eta)


def spawn_wasps(wasp_uniforms: np.ndarray, fig_lower: np.ndarray, fig_upper: np.ndarray) -> np.ndarray:
    """Hatch W wasps uniformly inside each fig's box: (T, A, W, d), written
    over ``wasp_uniforms`` so a large population holds one buffer, not three."""
    wasps = np.multiply(wasp_uniforms, (fig_upper - fig_lower)[..., None, :], out=wasp_uniforms)
    wasps += fig_lower[..., None, :]
    return wasps


def _flat(index: np.ndarray, width: int) -> np.ndarray:
    """Per-row positions ``index`` (..., k) into rows of ``width`` items, as
    positions into all the rows laid end to end."""
    lead = index.shape[:-1]
    return index + np.arange(0, math.prod(lead) * width, width).reshape(lead + (1,))


def build_mating_grid(females: np.ndarray, fitness: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sort each fig's females ascending by fitness, stable on ties.

    ``females`` (..., H) are indices into the fig's wasps and ``fitness``
    (..., W) the wasps' fitness; returns the grid as wasp indices (..., H)
    and the grid's fitness (..., H).
    """
    h = females.shape[-1]
    if h == 0:
        raise ValueError("mating grid needs at least one female")
    female_fitness = fitness.reshape(-1)[_flat(females, fitness.shape[-1])]
    order = _flat(np.argsort(female_fitness, axis=-1, kind="stable"), h)
    return females.reshape(-1)[order], female_fitness.reshape(-1)[order]


def mate(positions: np.ndarray, grid: np.ndarray, grid_fitness: np.ndarray, male_fitness: np.ndarray) -> np.ndarray:
    """One offspring per male: the coordinate-wise midpoint of the two grid
    females whose fitness interval brackets the male's fitness.

    Males below the first female's fitness use the first interval, males
    above the last use the last, and a male tying a female's fitness takes
    the first (lowest) matching interval. A single female is every male's
    offspring. Shapes: wasp ``positions`` (..., W, d), ``grid`` of wasp
    indices and its fitness (..., H), males (..., M); offspring (..., M, d).
    """
    h = grid.shape[-1]
    if h == 0:
        raise ValueError("empty mating grid")
    rows = positions.reshape(-1, positions.shape[-1])
    grid = _flat(grid, positions.shape[-2])  # each grid female's row in ``rows``
    if h == 1:
        return rows[np.repeat(grid, male_fitness.shape[-1], axis=-1)]
    # the first interval holding the male starts at the last female strictly below him
    below = (grid_fitness[..., None, :] < male_fitness[..., :, None]).sum(axis=-1)
    cell = _flat(np.minimum(np.maximum(below - 1, 0), h - 2), h)
    grid = grid.reshape(-1)
    offspring = rows[grid[cell]]
    offspring += rows[grid[cell + 1]]
    offspring /= 2.0
    return offspring


def pool_offsprings(offspring: np.ndarray) -> np.ndarray:
    """Flatten every fig's offspring (..., M, d) into one (P, d) pool, in
    tree, fig and male order."""
    return offspring.reshape(-1, offspring.shape[-1])


def search_directions(rng: RandomStream, pool: np.ndarray, global_bounds: Bounds) -> np.ndarray:
    """Re-spread every offspring uniformly across the pool envelope.

    Each coordinate is redrawn on [min_i, max_i] over the pool, which
    keeps the pool inside its own convex bounding box while decorrelating
    offspring from their parents' figs.
    """
    low = pool.min(axis=0)
    fresh = rng.uniform(size=pool.shape)
    fresh *= pool.max(axis=0) - low
    fresh += low
    return global_bounds.clamp(fresh)


def wind_count(pool_size: int, wind_fraction: float) -> int:
    return math.ceil(wind_fraction * pool_size)


def wind_effect(rng: RandomStream, pool: np.ndarray, params: FwscParams, global_bounds: Bounds) -> np.ndarray:
    """Occasionally drift a fixed fraction of the pool.

    One gate uniform is drawn per iteration; when it falls at or below the
    wind threshold, ceil(wind_fraction * |pool|) offspring chosen without
    replacement get every coordinate inflated by x <- x + x * rand(0, 1).
    """
    gate = rng.uniform()
    if params.wind_threshold <= 0.0 or gate > params.wind_threshold:
        return pool
    m = wind_count(len(pool), params.wind_fraction)
    if m == 0:
        return pool
    idx = np.sort(rng.choose_without_replacement(len(pool), m))
    drifted = pool.copy()
    kick = rng.uniform(size=(m, drifted.shape[1]))
    drifted[idx] = drifted[idx] * (1.0 + kick)
    return global_bounds.clamp(drifted)


def _ranked(fitness: np.ndarray) -> np.ndarray:
    """Fitness as the engine ranks it: NaN counts as +inf everywhere."""
    return np.fmin(fitness, np.inf)


def select_trees(
    problem: ObjectiveProblem,
    pool: np.ndarray,
    count: int,
    ctx: EvalContext | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate the whole pool and keep the ``count`` fittest as new trees.

    Ties break toward the lower pool index. Returns the (count, d) tree
    positions plus the pool's ranked fitness so callers can track the
    generation's best without re-evaluating.
    """
    if len(pool) < count:
        raise ValueError(f"pool of {len(pool)} cannot seed {count} trees")
    fitness = _ranked(evaluate(problem, pool, ctx))
    return pool[np.argsort(fitness, kind="stable")[:count]], fitness


def _improve(best: tuple[float, Vector], positions: np.ndarray, fitness: np.ndarray) -> tuple[float, Vector]:
    """The first lowest of the rows when it beats ``best``, else ``best``."""
    i = int(np.argmin(fitness))
    if fitness[i] < best[0]:
        return float(fitness[i]), positions[i].copy()
    return best


def _wasp_half(
    rng: RandomStream,
    problem: ObjectiveProblem,
    params: FwscParams,
    trees: np.ndarray,
    eta: float,
    ctx: EvalContext,
    best: tuple[float, Vector],
    buffers: tuple,
) -> tuple[np.ndarray, tuple[float, Vector]]:
    """The first half of a generation: draw and spawn the figs and wasps
    into ``buffers``, evaluate every wasp as one batch and mate them.
    Returns the (P, d) offspring pool and the updated best."""
    gb = problem.bounds
    figs, wasp_uniforms, noise, permutations = draw_generation(rng, problem, params, buffers)
    wasps = spawn_wasps(wasp_uniforms, *spawn_figs(figs, *gb.neighborhood(trees, eta), eta, gb))
    rows = wasps.reshape(-1, problem.dimension)
    fitness = _ranked(evaluate(problem, rows, ctx, noise=noise))
    best = _improve(best, rows, fitness)
    h = params.wasps_per_fig // 2  # each permutation's first half is female
    females, males = np.sort(permutations[..., :h]), np.sort(permutations[..., h:])
    grid = build_mating_grid(females, fitness.reshape(permutations.shape))
    return pool_offsprings(mate(wasps, *grid, fitness[_flat(males, params.wasps_per_fig)])), best


def run(
    problem: ObjectiveProblem,
    params: FwscParams,
    seed: int,
    on_generation: Callable[[GenerationSnapshot], None] | None = None,
) -> RunResult:
    """Execute one full optimization run.

    The best-so-far value tracks every evaluated point (wasps and pool
    members alike) and the trace records it once per completed generation,
    so the trace is non-increasing by construction. A ``max_iterations`` of
    zero stops generation 1 once its wasps are evaluated, before anything
    more is drawn, which keeps zero-budget harness invocations well formed.
    """
    rng = RandomStream(seed)
    ctx = EvalContext(rng=rng)
    gb = problem.bounds

    eta = neighborhood_width(1, params)
    trees = spawn_trees(rng, problem, params, eta)
    best = (math.inf, trees[0].copy())
    buffers = generation_buffers(problem, params)
    trace: list[float] = []
    stagnant = 0
    iterations_run = 0

    for k in range(1, max(params.max_iterations, 1) + 1):
        pool, best = _wasp_half(rng, problem, params, trees, eta, ctx, best, buffers)
        if params.max_iterations == 0:
            trace.append(best[0])
            break
        pool = search_directions(rng, pool, gb)
        pool = wind_effect(rng, pool, params, gb)

        eta = neighborhood_width(k + 1, params)
        trees, pool_fitness = select_trees(problem, pool, params.num_trees, ctx)
        best = _improve(best, pool, pool_fitness)

        improved = not trace or best[0] < trace[-1]
        trace.append(best[0])
        iterations_run = k
        if on_generation is not None:
            on_generation(GenerationSnapshot(k, trees, pool, best[0]))

        stagnant = 0 if improved else stagnant + 1
        if params.stagnation_window is not None and stagnant >= params.stagnation_window:
            break

    return RunResult(
        best_position=best[1],
        best_fitness=best[0],
        trace=np.array(trace),
        evaluations=ctx.evaluations,
        seed=seed,
        iterations_run=iterations_run,
    )
