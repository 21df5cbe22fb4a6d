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
(T, A, W, d) and an offspring pool (T*A*W/2, d). After its first trees, a
run draws from its own stream's numpy `generator` only in `draw_generation`,
once per generation and in the order it states, so a run is a pure function
of (problem, params, seed). The phases are array code over the drawn arrays:
`search_directions` returns new pools, and `wind_effect` kicks them. The
generation loop, the only code that calls the problem's, evaluates two
batches, each one objective call that maps (n, d) rows to (n,) values:
every wasp, then the whole pool, by `core.score`: every row is clamped into
the box by construction, so none is checked. NaN objective values rank as
+inf: never the best-so-far, last in the mating grid and in selection.

`run_many` advances several runs of one problem in lockstep groups of at
most `group_width` runs, and `run` is its one-seed case, a group of one.
Run i is row i of every group array, trees (R, T, d) through pools (R, P,
d), and `draw_generation` takes the R streams; a batch holds the rows of
every run. Each run keeps its own best, trace and evaluation count; a run
whose stagnation window runs out leaves the group. So every result
equals, bit for bit, the run made alone. After each generation, the hook
`on_generation` gets one `GenerationSnapshot` of the group's live rows.

A group allocates its generation buffers once and draws into them in
place; when runs leave, the others draw into the leading rows. Every group
runs one loop, drawing in turn or ahead (see `_draws_ahead`): a lone run of
a large problem whose CPU affinity allows a second CPU, free or not, has one
background thread, the only one that touches its stream, draw generation k+1
into a second set of buffers while generation k runs, in the same order.
Snapshots and results never alias the buffers; the wasp rows an objective
gets are overwritten during the next generation, possibly from that thread,
so it must copy any row it keeps.
"""

from __future__ import annotations

import functools
import math
import numbers
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .core import Bounds, ObjectiveProblem, RandomStream, Vector
from .core import score as evaluate  # every engine batch is clamped into the box, so its rows go unchecked

# Decay horizon for the neighborhood radius, as a multiple of the iteration
# budget, when no explicit decay_scale is configured. Calibrated on pilot
# campaigns (Sphere/Griewank at dimension 30, 500 generations): horizons at
# or above the budget keep the radius effectively constant and stall
# refinement many orders of magnitude short of the quality gates, while
# horizons under ~1/25 of the budget freeze the population before it can
# travel to the optimum basin.
DEFAULT_DECAY_FACTOR = 0.05


@dataclass(frozen=True)
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
        counts = ("num_trees", "figs_per_tree", "wasps_per_fig", "max_iterations", "stagnation_window")
        for name in counts + ("eta0", "wind_threshold", "wind_fraction", "decay_scale"):
            value = getattr(self, name)
            if value is None and name in ("stagnation_window", "decay_scale"):
                continue
            kind, noun = (numbers.Integral, "an integer") if name in counts else (numbers.Real, "a number")
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValueError(f"{name} must be {noun}, not {value!r}")
        if self.num_trees < 1:
            raise ValueError("num_trees must be positive")
        if self.figs_per_tree < 1:
            raise ValueError("figs_per_tree must be positive")
        if self.wasps_per_fig < 2 or self.wasps_per_fig % 2 != 0:
            raise ValueError("wasps_per_fig must be an even integer >= 2")
        if not (self.eta0 > 0 and math.isfinite(self.eta0 * math.e)):
            raise ValueError(f"eta0 must be positive with eta0 * e finite, not {self.eta0!r}")
        if not 0.0 <= self.wind_threshold <= 1.0:
            raise ValueError("wind_threshold must lie in [0, 1]")
        if not 0.0 <= self.wind_fraction <= 1.0:
            raise ValueError("wind_fraction must lie in [0, 1]")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if self.decay_scale is not None and not self.decay_scale > 0:
            raise ValueError("decay_scale must be positive")
        if self.stagnation_window is not None and self.stagnation_window < 1:
            raise ValueError("stagnation_window must be a positive integer")


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
    seeds: tuple  # the L live runs of a group: row i of each array is run seeds[i]
    trees: np.ndarray  # (L, T, d)
    pools: np.ndarray  # (L, T*A*W/2, d), after wind
    best: np.ndarray  # (L,) best-so-far values


Observer = Callable[[GenerationSnapshot], None] | None


def neighborhood_width(k: int, params: FwscParams) -> float:
    """Shrinking neighborhood radius eta0 * exp(1 - k / decay_scale)."""
    if k < 0:
        raise ValueError("iteration index must be >= 0")
    scale = DEFAULT_DECAY_FACTOR * params.max_iterations if params.decay_scale is None else float(params.decay_scale)
    return params.eta0 * math.exp(1.0 - k / scale)


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
    return _plant(rng.generator.random((params.num_trees, 2, problem.dimension)), gb.lower, gb.upper, eta, gb)


def generation_buffers(problem: ObjectiveProblem, params: FwscParams, runs: int = 1) -> tuple:
    """Empty buffers for `draw_generation` of a group of ``runs`` runs, run
    i in row i: fig uniforms (R, T, A, 2, d), wasp uniforms (R, T, A, W, d),
    noise draws (R, T, A, W) or None, permutations (R, T, A, W), pool
    uniforms (R, P, d) and pool noise draws (R, P) or None, with P = T*A*W/2."""
    shape, d = (runs, params.num_trees, params.figs_per_tree, params.wasps_per_fig), problem.dimension
    pool = (runs, math.prod(shape[1:]) // 2)
    noise, pool_noise = (None, None) if problem.noise is None else (np.empty(shape), np.empty(pool))
    figs, wasps, pools = np.empty(shape[:3] + (2, d)), np.empty(shape + (d,)), np.empty(pool + (d,))
    return figs, wasps, noise, np.empty(shape, dtype=np.intp), pools, pool_noise


def draw_generation(rngs: list[RandomStream], params: FwscParams, buffers: tuple) -> list[tuple]:
    """Every draw of a generation after the first trees, run by run from
    each stream's ``generator``: the wasp half, then the pool half. The
    phases only apply what it drew.

    Wasp half, per tree: the (A, 2, d) fig uniforms; then per fig of that
    tree, its (W, d) wasp uniforms, W noise draws if the buffers hold noise,
    and the order of 0..W-1 that sexes its wasps: an in-place shuffle of the
    fig's row, which takes the bits of ``permutation(W)``. A permutation
    consumes a variable number of bits, so the per-fig draws cannot be
    merged into one block. Pool half: the (P, d) uniforms that re-spread the
    pool; a wind gate, and if that falls at or below a positive threshold, the
    ceil(wind_fraction * P) blown members, chosen without replacement, and
    their (m, d) kicks; then P noise draws if the buffers hold noise.

    Run i draws from ``rngs[i]`` into row i of every buffer from
    `generation_buffers`; rows past len(rngs) are left as they are, and
    buffers with fewer rows are refused. Returns only what it draws fresh,
    the winds, as (run, sorted members, kicks).
    """
    figs, wasps, noise, permutations, uniforms, pool_noise = buffers
    if len(uniforms) < len(rngs):
        raise ValueError(f"buffers for {len(uniforms)} runs cannot take the draws of {len(rngs)}")
    size, d = uniforms.shape[1:]
    m, winds = math.ceil(params.wind_fraction * size), []
    permutations[: len(rngs)] = np.arange(params.wasps_per_fig)  # each fig's row, shuffled in place below
    for i, stream in enumerate(rngs):
        gen = stream.generator
        random, shuffle = gen.random, gen.shuffle
        for t in range(params.num_trees):
            random(out=figs[i, t])
            for a in range(params.figs_per_tree):
                random(out=wasps[i, t, a])
                if noise is not None:
                    random(out=noise[i, t, a])
                shuffle(permutations[i, t, a])
        random(out=uniforms[i])
        if random() <= params.wind_threshold and params.wind_threshold > 0.0 and m > 0:
            winds.append((i, np.sort(gen.choice(size, m, replace=False)), random((m, d))))
        if pool_noise is not None:
            random(out=pool_noise[i])
    return winds


def spawn_figs(
    fig_uniforms: np.ndarray, tree_lower: np.ndarray, tree_upper: np.ndarray, eta: float, global_bounds: Bounds
) -> tuple[np.ndarray, np.ndarray]:
    """Fig boxes (lower, upper), each (..., T, A, d) for trees (..., T, d):
    the +-eta neighborhood of a point in the tree's box wobbled by +-eta."""
    points = _plant(fig_uniforms, tree_lower[..., None, :], tree_upper[..., None, :], eta, global_bounds)
    return global_bounds.neighborhood(points, eta)


def spawn_wasps(wasp_uniforms: np.ndarray, fig_lower: np.ndarray, fig_upper: np.ndarray) -> np.ndarray:
    """Hatch W wasps uniformly inside each fig's box: (T, A, W, d), written
    over ``wasp_uniforms`` so a large population holds one buffer, not three."""
    wasps = np.multiply(wasp_uniforms, (fig_upper - fig_lower)[..., None, :], out=wasp_uniforms)
    wasps += fig_lower[..., None, :]
    return wasps


@functools.lru_cache(maxsize=64)
def _row_starts(shape: tuple[int, ...], width: int) -> np.ndarray:
    """Read-only offsets 0, width, ... of rows laid end to end, k per row of ``shape`` (..., k):
    numpy adds an index of the same shape faster than it broadcasts a (..., 1) one."""
    starts = np.repeat(np.arange(0, math.prod(shape[:-1]) * width, width), shape[-1]).reshape(shape)
    starts.setflags(write=False)
    return starts


def _flat(index: np.ndarray, width: int) -> np.ndarray:
    """Per-row positions ``index`` (..., k) into rows of ``width`` items, as
    positions into all the rows laid end to end."""
    return index + _row_starts(index.shape, width)


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
    the first (lowest) matching interval. A single female pairs with herself:
    (x + x) / 2 is x within ±_LIMIT. Shapes: wasp ``positions`` (..., W, d),
    ``grid`` of wasp indices and its fitness (..., H), males (..., M);
    offspring (..., M, d).
    """
    h = grid.shape[-1]
    if h == 0:
        raise ValueError("empty mating grid")
    rows = positions.reshape(-1, positions.shape[-1])
    grid = _flat(grid, positions.shape[-2]).reshape(-1)  # each grid female's row in ``rows``
    # the first interval holding the male starts at the last female strictly
    # below him, clipped to the h-1 intervals: the number of inner females
    # (all but the first and last) strictly below him
    below = (grid_fitness[..., None, 1:-1] < male_fitness[..., :, None]).sum(axis=-1)
    cell = _flat(below, h)
    offspring = rows[grid[cell]]
    offspring += rows[grid[cell + (h > 1)]]
    offspring /= 2.0
    return offspring


def pool_offsprings(offspring: np.ndarray) -> np.ndarray:
    """Flatten each run's offspring (R, T, A, M, d) into its (R, P, d)
    pool, in tree, fig and male order."""
    return offspring.reshape(len(offspring), -1, offspring.shape[-1])


def search_directions(uniforms: np.ndarray, pools: np.ndarray, global_bounds: Bounds) -> np.ndarray:
    """Re-spread every offspring uniformly across its pool's envelope.

    Each coordinate is redrawn on [min_i, max_i] over the pool, which
    keeps the pool inside its own convex bounding box while decorrelating
    offspring from their parents' figs. Each of a group's (R, P, d)
    ``pools`` keeps its own envelope, spread over the pool ``uniforms`` of
    `draw_generation`; returns the new pools as a new array."""
    low = pools.min(axis=1)[:, None]
    spread = uniforms * (pools.max(axis=1)[:, None] - low)
    spread += low
    return global_bounds.clamp(spread)


def wind_effect(winds: list[tuple], pools: np.ndarray, global_bounds: Bounds) -> np.ndarray:
    """Drift each blown member x of a group's (R, P, d) ``pools`` to
    x + x * kick by the drawn ``winds``, (run, members, kicks). Returns
    ``pools`` itself when no wind blows, else a new array."""
    if not winds:
        return pools
    drifted = pools.copy()
    for i, members, kicks in winds:
        drifted[i, members] = drifted[i, members] * (1.0 + kicks)
    # pools come in clamped, so clamping the calm ones again leaves their bits
    return global_bounds.clamp(drifted)


def _ranked(fitness: np.ndarray) -> np.ndarray:
    """Fitness as the engine ranks it: NaN counts as +inf everywhere."""
    return np.fmin(fitness, np.inf)


def select_trees(pool: np.ndarray, fitness: np.ndarray, count: int) -> np.ndarray:
    """The ``count`` fittest of each pool as new trees, (..., count, d).

    ``pool`` is one (P, d) pool or a group's (R, P, d) pools and ``fitness``
    their (..., P) values, NaN ranking as +inf. Each pool keeps its own
    fittest, ties breaking toward the lower pool index.
    """
    size, d = pool.shape[-2:]
    if size < count or fitness.shape != pool.shape[:-1]:
        raise ValueError(f"pools of shape {pool.shape} with fitness {fitness.shape} cannot seed {count} trees")
    fittest = np.argsort(_ranked(fitness), axis=-1, kind="stable")[..., :count]
    return pool.reshape(-1, d)[_flat(fittest, size)]


class _Run:
    """One run's own state inside a lockstep group."""

    __slots__ = ("seed", "rng", "best_position", "best_fitness", "evaluations", "trace")

    def __init__(self, seed: int, rng: RandomStream, first_tree: Vector):
        self.seed, self.rng = seed, rng
        self.best_position, self.best_fitness = first_tree, math.inf  # until it scores a finite point
        self.evaluations, self.trace = 0, []

    def tally(self, rows: np.ndarray, fitness: np.ndarray) -> None:
        """Count an evaluated batch of this run's ``rows`` (m, d) and keep
        the first lowest of their ranked ``fitness`` when it beats the best."""
        self.evaluations += len(fitness)
        i = fitness.argmin()
        if fitness[i] < self.best_fitness:
            self.best_fitness, self.best_position = float(fitness[i]), rows[i].copy()


# Fewest floats in one fig's wasp draw (W*d) at which a lone run draws each
# generation ahead in a background thread (`_draws_ahead`). numpy releases
# the GIL only inside a draw call, so the longer the calls, the more of the
# caller's arithmetic they overlap. Generation time drawing ahead over
# drawing in turn (F1, default parameters, R=1, 2-vCPU Xeon, median of 11
# alternating pairs with the second CPU free): 1.51x at W*d = 240 (d=30),
# 1.41x at 800 (d=100), 0.90x at 2000 (d=250), 0.67x at 4000 (d=500), 0.61x
# at 6000 (d=750), 0.64x at 8000 (d=1000). While other load held the second
# CPU: 1.22x, 1.19x, then 1.03-1.04x from d=250 up.
DRAW_AHEAD_FLOATS = 4000


# Most floats the wasp block (R*T*A*W*d) of one lockstep group may hold:
# lockstep saves per-call overhead, which stops paying on large arrays.
# Per-run CPU time of R = 2, 4 and 16 runs in lockstep over the same runs
# alone, drawn in turn (F1, campaign parameters, median of 11 alternating
# pairs, 2-vCPU Xeon): d=30 0.79x, 0.67x, 0.62x; d=100 0.89x, 0.84x, 0.77x;
# d=500 1.01x, 0.94x, 1.12x; d=1000 1.00x, 0.90x, 1.23x.
GROUP_FLOATS = 2**17


def group_width(params: FwscParams, dimension: int) -> int:
    """The most runs of a problem in ``dimension`` that one lockstep group
    holds: as many as fit their wasp blocks in `GROUP_FLOATS`, at least one."""
    wasp_floats = params.num_trees * params.figs_per_tree * params.wasps_per_fig * dimension
    return max(1, GROUP_FLOATS // wasp_floats)


def _draws_ahead(problem: ObjectiveProblem, params: FwscParams) -> bool:
    """Whether a lone run of ``problem`` draws ahead: its wasp draws are
    large enough (`DRAW_AHEAD_FLOATS`), the CPU affinity allows a second CPU
    (free or not: while other load held it, drawing ahead ran 3-5% slower),
    and it is not a worker of a process pool, whose workers fill the CPUs."""
    if params.wasps_per_fig * problem.dimension < DRAW_AHEAD_FLOATS:
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    if cpus < 2:
        return False
    import multiprocessing  # here, so that small problems never load it

    return multiprocessing.parent_process() is None


class _Draws:
    """A group's draw schedule: `_lockstep` takes one draw a generation.

    Drawn in turn, `take` draws from the streams into the buffer rows it is
    given. Drawn ahead (a lone run), the drawer adds a spare buffer set, and
    one background thread draws generation 1 into the group's set as soon as
    the drawer is made; each `take` then queues the next generation, up to
    `max_iterations`, into the set the caller is not using. The thread gets
    its jobs from one queue and hands back their winds, or the error that
    `take` re-raises, through the other. One thread at a time draws, in the
    stream's order, so the draws are those made in turn.
    """

    def __init__(self, params: FwscParams, rngs: list[RandomStream], buffers: tuple, ahead: bool):
        """Starts the thread on generation 1 when the run draws ``ahead``."""
        self._params, self._thread = params, None
        if ahead:
            import queue  # here, so that groups drawn in turn never load it

            self._jobs, self._done = queue.SimpleQueue(), queue.SimpleQueue()
            self._thread = threading.Thread(target=self._serve, name="figwasp-draw-ahead", daemon=True)
            self._thread.start()
            self._sets, self._queued = (buffers, tuple(b if b is None else np.empty_like(b) for b in buffers)), 1
            self._jobs.put((rngs, buffers))  # generation 1, into the first set

    def _serve(self) -> None:
        for rngs, buffers in iter(self._jobs.get, None):
            try:
                self._done.put(draw_generation(rngs, self._params, buffers))
            except BaseException as exc:  # handed to the caller, which re-raises it
                self._done.put(exc)

    def take(self, rngs: list[RandomStream], buffers: tuple) -> tuple:
        """The next generation's draw, as (buffers, winds): drawn in turn from
        ``rngs`` into ``buffers``, or drawn ahead into either set."""
        if self._thread is None:
            return buffers, draw_generation(rngs, self._params, buffers)
        winds = self._done.get()
        if isinstance(winds, BaseException):
            raise winds
        drawn, spare = self._sets
        self._sets = spare, drawn
        if self._queued < self._params.max_iterations:
            self._jobs.put((rngs, spare))
            self._queued += 1
        return drawn, winds

    def close(self) -> None:
        """Joins the thread once it has made the draw in flight, if any."""
        if self._thread is not None:
            self._jobs.put(None)
            self._thread.join()


def _lockstep(
    problem: ObjectiveProblem,
    params: FwscParams,
    seeds: list[int],
    ahead: bool,
    on_generation: Observer,
) -> list[RunResult]:
    """Advance one run per seed together; see `run_many`. Live run i is row
    i of every group array and draws from its own stream into row i of one
    buffer set made for the whole group.

    Each generation takes its draw from a `_Draws`, which draws ``ahead``
    (a group of one seed) or in turn. Every exit, an error too, joins the
    drawer's thread. When runs leave, the group passes only the staying
    streams and the leading rows of its buffers.
    """
    gb, d, w = problem.bounds, problem.dimension, params.wasps_per_fig
    eta = neighborhood_width(1, params)
    runs, trees = [], []
    for seed in seeds:
        rng = RandomStream(seed)
        trees.append(spawn_trees(rng, problem, params, eta))
        runs.append(_Run(seed, rng, trees[-1][0].copy()))
    trees = np.stack(trees)  # (R, T, d)
    live, rngs, window = runs, [run.rng for run in runs], params.stagnation_window
    buffers = generation_buffers(problem, params, len(runs))
    draws = _Draws(params, rngs, buffers, ahead)
    try:
        for k in range(1, params.max_iterations + 1):
            (figs, wasps, noise, permutations, uniforms, pool_noise), winds = draws.take(rngs, buffers)
            wasps = spawn_wasps(wasps, *spawn_figs(figs, *gb.neighborhood(trees, eta), eta, gb))
            fitness = _ranked(evaluate(problem, wasps.reshape(-1, d), noise=None if noise is None else noise.reshape(-1)))
            for run, rows, values in zip(live, wasps.reshape(len(live), -1, d), fitness.reshape(len(live), -1)):
                run.tally(rows, values)
            sexes = np.sort(permutations.reshape(permutations.shape[:-1] + (2, w // 2)), axis=-1)
            females, males = sexes[..., 0, :], sexes[..., 1, :]  # each permutation's first half is female
            grid = build_mating_grid(females, fitness.reshape(permutations.shape))
            pools = pool_offsprings(mate(wasps, *grid, fitness[_flat(males, w)]))
            pools = wind_effect(winds, search_directions(uniforms, pools, gb), gb)

            eta = neighborhood_width(k + 1, params)
            pool_noise = None if pool_noise is None else pool_noise.reshape(-1)
            pool_fitness = _ranked(evaluate(problem, pools.reshape(-1, d), noise=pool_noise)).reshape(pools.shape[:2])
            trees = select_trees(pools, pool_fitness, params.num_trees)
            for run, pool, values in zip(live, pools, pool_fitness):
                run.tally(pool, values)
                run.trace.append(run.best_fitness)
            if on_generation is not None:
                best = np.array([run.best_fitness for run in live])
                on_generation(GenerationSnapshot(k, tuple(run.seed for run in live), trees, pools, best))

            # a trace never rises and only a strict drop improves it, so a run has
            # gone `window` generations without improving when its value `window`
            # generations back equals its last; such a run leaves
            if window is not None and window < k:
                stays = [run.trace[-1 - window] != run.trace[-1] for run in live]
                if not all(stays):
                    live, trees = [run for run, kept in zip(live, stays) if kept], trees[stays]
                    if not live:
                        break
                    rngs, buffers = [run.rng for run in live], tuple(b if b is None else b[: len(live)] for b in buffers)
    finally:
        draws.close()

    return [
        RunResult(
            best_position=run.best_position,
            best_fitness=run.best_fitness,
            trace=np.array(run.trace),
            evaluations=run.evaluations,
            seed=run.seed,
            iterations_run=len(run.trace),
        )
        for run in runs
    ]


def run(problem: ObjectiveProblem, params: FwscParams, seed: int, on_generation: Observer = None) -> RunResult:
    """Execute one full optimization run: `run_many` with one seed."""
    return run_many(problem, params, [seed], on_generation)[0]


def run_many(problem: ObjectiveProblem, params: FwscParams, seeds, on_generation: Observer = None) -> list[RunResult]:
    """One run per seed, advanced in lockstep; equal, bit for bit, to
    ``[run(problem, params, seed) for seed in seeds]``.

    The seeds go, in order, in groups of at most `group_width` runs. The
    runs of a group share each generation's array work and objective
    batches, and each keeps its own stream, draw order, best, trace and
    evaluation count. A run whose stagnation window runs out leaves its
    group; the others go on. Runs that would draw ahead (`_draws_ahead`)
    go one at a time, each drawing ahead alone.

    The best-so-far value tracks every evaluated point (wasps and pool
    members alike) and the trace records it once per completed generation,
    so the trace is non-increasing by construction. After each generation,
    ``on_generation`` gets a `GenerationSnapshot` of each group's live runs.
    """
    seeds, ahead = list(seeds), _draws_ahead(problem, params)
    width = 1 if ahead else group_width(params, problem.dimension)
    groups = (seeds[i : i + width] for i in range(0, len(seeds), width))
    return [result for group in groups for result in _lockstep(problem, params, group, ahead, on_generation)]
