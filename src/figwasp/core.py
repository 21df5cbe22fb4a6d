"""Problem model, bounds arithmetic, and the seeded random-stream contract.

Everything downstream (engine, benchmarks, harness) builds on three pieces:
a validated box-constraint type, a problem whose objective scores a batch
of rows in one call, and a counter-based random stream so that any run is
reproducible from a single 64-bit seed. Evaluation draws nothing: a noise
map turns uniform draws from the caller's stream into noise terms.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

Vector = np.ndarray

_MASK64 = (1 << 64) - 1

# Objectives raise single coordinates to powers with `power`, libm pow for a
# float64 scalar (a call on one point) and a column (a row-wise call) alike;
# `**` takes different routes for the two that can disagree in the last bit.
power = np.float_power

# Limits beyond half the largest float would overflow: the midpoint of two
# wasps and the width of a pool's envelope must stay finite.
_LIMIT = float(np.finfo(float).max) / 2


@dataclass(frozen=True)
class Bounds:
    """Box constraints in at least one dimension, lower < upper, limits within ±_LIMIT."""

    lower: Vector
    upper: Vector

    def __post_init__(self):
        lower = np.asarray(self.lower, dtype=float)
        upper = np.asarray(self.upper, dtype=float)
        if lower.ndim != 1 or upper.ndim != 1:
            raise ValueError("bounds must be 1-D vectors")
        if lower.shape != upper.shape or lower.size == 0:
            raise ValueError("lower and upper must have the same length, at least one dimension")
        if not (np.isfinite(lower).all() and np.isfinite(upper).all()):
            raise ValueError("bounds must be finite")
        for side, limits in (("lower", lower), ("upper", upper)):
            for i in np.flatnonzero(np.abs(limits) > _LIMIT):
                raise ValueError(f"bounds: {side}[{i}] = {limits[i]} is beyond half the largest float, ±{_LIMIT}")
        if not np.all(lower < upper):
            raise ValueError("degenerate bounds: need lower < upper in every dimension")
        lower.setflags(write=False)
        upper.setflags(write=False)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    @property
    def dimension(self) -> int:
        return self.lower.shape[0]

    @classmethod
    def box(cls, low: float, high: float, dimension: int) -> "Bounds":
        return cls(np.full(dimension, low), np.full(dimension, high))

    def contains(self, position: Vector) -> bool:
        return bool((position >= self.lower).all() and (position <= self.upper).all())

    def clamp(self, position: np.ndarray) -> np.ndarray:
        """Project ``position`` (..., dimension) onto the box in place; returns it."""
        np.maximum(position, self.lower, out=position)
        return np.minimum(position, self.upper, out=position)

    def neighborhood(self, center: np.ndarray, radius: float) -> tuple[np.ndarray, np.ndarray]:
        """(lower, upper) of [center - radius, center + radius] intersected
        with this box, for centers of shape (..., dimension).

        A radius below the center's floating-point spacing would produce a
        zero-width interval; such dimensions are widened by one ulp (staying
        inside the box) so every interval keeps lower < upper.
        """
        lo = np.maximum(center - radius, self.lower)
        hi = np.minimum(center + radius, self.upper)
        degenerate = lo >= hi
        if degenerate.any():
            hi = np.where(degenerate, np.minimum(np.nextafter(hi, np.inf), self.upper), hi)
            degenerate = lo >= hi
            lo = np.where(degenerate, np.maximum(np.nextafter(lo, -np.inf), self.lower), lo)
        return lo, hi


@dataclass(frozen=True)
class ObjectiveProblem:
    """A box-constrained minimization problem; its dimension is its box's.

    ``objective`` maps an (n, dimension) array to the (n,) values of its
    rows, so a batch is one call. A stochastic objective carries a ``noise``
    map from n uniform draws on [0, 1) to its n additive terms; the draws
    come from the caller's stream, never a global source, so runs stay
    reproducible.
    """

    name: str
    bounds: Bounds
    objective: Callable[[np.ndarray], np.ndarray]
    noise: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def dimension(self) -> int:
        return self.bounds.dimension


class RandomStream:
    """Counter-based (Philox) random stream owned by exactly one run.

    Identical seeds yield identical draw sequences; independent runs derive
    independent streams from (master seed, run index) via `derive_seed`.
    """

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=self.seed))

    def uniform(self, size=None, out=None):
        """Uniform draws on [0, 1), written into ``out`` if given: the same draws."""
        return self._gen.random(size, out=out)

    def uniform_between(self, low, high, size=None):
        low = np.asarray(low, dtype=float)
        high = np.asarray(high, dtype=float)
        return low + self._gen.random(size) * (high - low)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choose_without_replacement(self, n: int, k: int) -> np.ndarray:
        return self._gen.choice(n, size=k, replace=False)


def derive_seed(master_seed: int, *parts) -> int:
    """Stable 64-bit seed from a master seed and arbitrary labels.

    Hash-based so that adding problems to a campaign never shifts the seeds
    of the other problems' runs.
    """
    text = "|".join([str(int(master_seed))] + [str(p) for p in parts])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") & _MASK64


def evaluate_batch(problem: ObjectiveProblem, positions: np.ndarray, noise: np.ndarray | None = None) -> np.ndarray:
    """Evaluate every row of an (n, dimension) array in one objective call.

    Rows must already lie inside the problem bounds; internal callers clamp
    before evaluating, so a violation here is a caller bug. A stochastic
    problem needs one uniform draw per row in ``noise``, taken from the
    caller's stream; the problem's ``noise`` map turns them into its terms.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2 or positions.shape[1] != problem.dimension:
        raise ValueError(f"positions have shape {positions.shape}, expected (n, {problem.dimension})")
    if not problem.bounds.contains(positions):
        raise ValueError(f"position outside bounds for {problem.name}")
    values = np.asarray(problem.objective(positions), dtype=float)
    if values.shape != positions.shape[:1]:
        shape, n = values.shape, len(positions)
        raise ValueError(f"{problem.name}: the objective must map (n, d) rows to (n,) values, not {shape} for n={n}")
    if problem.noise is not None:
        terms = None if noise is None else np.asarray(problem.noise(noise), dtype=float)
        if terms is None or terms.shape != values.shape:
            raise ValueError(f"{problem.name} is stochastic and needs one noise draw and term per row ({len(values)})")
        values = values + terms
    return values


def evaluate(problem: ObjectiveProblem, position: Vector, noise: np.ndarray | None = None) -> float:
    """Evaluate the objective at one ``position``: a one-row `evaluate_batch`."""
    return float(evaluate_batch(problem, np.asarray(position, dtype=float)[None], noise)[0])
