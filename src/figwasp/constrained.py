"""Constrained engineering design problems and the penalty transform.

Three mixed-variable design tasks (pressure vessel, stepped cantilever
beam, welded beam) in the g_j(x) <= 0 convention, plus the static
quadratic penalty and discrete-lattice repair that make them solvable by
the unconstrained search core. Discrete repair happens inside the fitness
wrapper, so the engine itself stays purely continuous.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import Bounds, ObjectiveProblem, Vector, power

DEFAULT_PENALTY_COEFFICIENT = 1e6


@dataclass(frozen=True)
class Continuous:
    pass


@dataclass(frozen=True)
class LatticeStep:
    """Values restricted to integer multiples of ``step`` (anchored at 0)."""

    step: float


@dataclass(frozen=True)
class ValueSet:
    """Values restricted to an explicit sorted set."""

    values: tuple[float, ...]


VariableKind = Continuous | LatticeStep | ValueSet


@dataclass(frozen=True)
class ConstrainedProblem:
    """A design problem. ``objective`` and every constraint map one point
    (d,) to a value and (n, d) points to (n,) values, so the penalized
    fitness is evaluated row-wise."""

    name: str
    variable_names: tuple[str, ...]
    bounds: Bounds
    variable_kinds: tuple[VariableKind, ...]
    objective: Callable[[Vector], float]
    constraints: tuple[Callable[[Vector], float], ...]

    def __post_init__(self):
        n = self.bounds.dimension
        if len(self.variable_names) != n or len(self.variable_kinds) != n:
            raise ValueError("variable names/kinds must match the problem dimension")

    @property
    def dimension(self) -> int:
        return self.bounds.dimension

    def violations(self, position: Vector) -> np.ndarray:
        """max(0, g_j(x)) for every constraint: shape (m,) for one point,
        (n, m) for n points. A NaN g_j counts as no violation."""
        g = np.stack([np.asarray(c(position), dtype=float) for c in self.constraints], axis=-1)
        return np.where(g > 0.0, g, 0.0)

    def max_violation(self, position: Vector) -> float:
        return float(self.violations(position).max())


def _snap_to_set(column: np.ndarray, values: tuple[float, ...]) -> np.ndarray:
    arr = np.asarray(values)
    dist = np.abs(arr - column[..., None])
    best = dist.min(axis=-1, keepdims=True)
    # equidistant between two members: take the larger one
    return np.where(dist == best, arr, -np.inf).max(axis=-1)


def repair_discrete(position: Vector, kinds: Sequence[VariableKind]) -> Vector:
    """Snap discrete coordinates of one point (d,) or of (n, d) points onto
    their lattice; continuous ones pass through.

    Lattice rounding is to the nearest multiple with half-steps rounding up.
    Idempotent, and never moves a coordinate past the adjacent lattice point.
    """
    position = np.asarray(position, dtype=float)
    if position.shape[-1] != len(kinds):
        raise ValueError("position length does not match variable kinds")
    repaired = position.copy()
    for i, kind in enumerate(kinds):
        if isinstance(kind, LatticeStep):
            repaired[..., i] = np.floor(position[..., i] / kind.step + 0.5) * kind.step
        elif isinstance(kind, ValueSet):
            repaired[..., i] = _snap_to_set(position[..., i], kind.values)
    return repaired


def penalize(problem: ConstrainedProblem, position: Vector, coefficient: float):
    """Static quadratic penalty f(x) + coefficient * sum(max(0, g_j(x))^2),
    for one point (d,) or row-wise for (n, d) points."""
    if not (coefficient > 0 and np.isfinite(coefficient)):
        raise ValueError("penalty coefficient must be positive and finite")
    violation = problem.violations(position)
    return problem.objective(position) + coefficient * np.sum(violation**2, axis=-1)


def to_objective(
    problem: ConstrainedProblem,
    coefficient: float = DEFAULT_PENALTY_COEFFICIENT,
) -> ObjectiveProblem:
    """Wrap a constrained problem as a plain box-bounded objective.

    Discrete coordinates are repaired before the (penalized) evaluation, so
    the search core can treat every dimension as continuous.
    """
    kinds = problem.variable_kinds

    def fitness(x: Vector):
        return penalize(problem, repair_discrete(x, kinds), coefficient)

    return ObjectiveProblem(
        name=problem.name,
        dimension=problem.dimension,
        bounds=problem.bounds,
        objective=fitness,
        rowwise=True,
    )


def pressure_vessel() -> ConstrainedProblem:
    """Cylindrical vessel cost design: shell/head thickness on a 0.0625 lattice,
    radius and length continuous."""

    def cost(x):
        ts, th, r, length = x.T
        return (
            0.6224 * ts * r * length
            + 1.7781 * th * power(r, 2)
            + 3.1661 * power(ts, 2) * length
            + 19.84 * power(ts, 2) * r
        )

    def g1(x):
        return -x[..., 0] + 0.0193 * x[..., 2]

    def g2(x):
        return -x[..., 1] + 0.00954 * x[..., 2]

    def g3(x):
        return -np.pi * power(x[..., 2], 2) * x[..., 3] - (4.0 / 3.0) * np.pi * power(x[..., 2], 3) + 1296000.0

    def g4(x):
        return x[..., 3] - 240.0

    return ConstrainedProblem(
        name="pressure-vessel",
        variable_names=("T_s", "T_h", "R", "L"),
        bounds=Bounds(np.array([0.0625, 0.0625, 10.0, 10.0]), np.array([6.1875, 6.1875, 200.0, 200.0])),
        variable_kinds=(LatticeStep(0.0625), LatticeStep(0.0625), Continuous(), Continuous()),
        objective=cost,
        constraints=(g1, g2, g3, g4),
    )


# Stepped cantilever constants: tip load (N), segment length (cm), Young's
# modulus (N/cm^2), allowable bending stress (N/cm^2), allowable tip
# deflection (cm), and the unit-load integration weights from the fixed end
# to the tip.
_BEAM_P = 50000.0
_BEAM_L = 100.0
_BEAM_E = 2.0e7
_BEAM_SIGMA = 14000.0
_BEAM_DEFLECTION = 2.7
_BEAM_WEIGHTS = (61.0, 37.0, 19.0, 7.0, 1.0)


def stepped_beam() -> ConstrainedProblem:
    """Five-segment cantilever volume design; segment 1 sits at the fixed end.

    Widths/heights of the first three segments are discrete, the last two
    continuous. Bending stress is checked at each segment root, the tip
    deflection comes from unit-load integration over the stepped profile,
    and every cross-section is limited to a 20:1 height/width ratio.
    """

    def volume(x):
        widths, heights = x[..., 0::2], x[..., 1::2]
        return _BEAM_L * np.sum(widths * heights, axis=-1)

    def stress(segment):
        moment_arm = (5 - segment) * _BEAM_L  # distance from tip to segment root

        def g(x):
            b, h = x[..., 2 * segment], x[..., 2 * segment + 1]
            return 6.0 * _BEAM_P * moment_arm / (b * power(h, 2)) - _BEAM_SIGMA

        return g

    def deflection(x):
        widths, heights = x[..., 0::2], x[..., 1::2]
        inertia = widths * heights**3 / 12.0
        tip = _BEAM_P * _BEAM_L**3 / (3.0 * _BEAM_E) * np.sum(np.array(_BEAM_WEIGHTS) / inertia, axis=-1)
        return tip - _BEAM_DEFLECTION

    def aspect(segment):
        def g(x):
            b, h = x[..., 2 * segment], x[..., 2 * segment + 1]
            return h - 20.0 * b

        return g

    heights_set = ValueSet((45.0, 50.0, 55.0, 60.0))
    widths_set = ValueSet((2.4, 2.6, 2.8, 3.1))
    return ConstrainedProblem(
        name="stepped-beam",
        variable_names=("b1", "h1", "b2", "h2", "b3", "h3", "b4", "h4", "b5", "h5"),
        bounds=Bounds(
            np.array([1.0, 45.0, 2.4, 45.0, 2.4, 45.0, 1.0, 30.0, 1.0, 30.0]),
            np.array([5.0, 60.0, 3.1, 60.0, 3.1, 60.0, 5.0, 65.0, 5.0, 65.0]),
        ),
        variable_kinds=(
            LatticeStep(1.0),
            heights_set,
            widths_set,
            heights_set,
            widths_set,
            heights_set,
            Continuous(),
            Continuous(),
            Continuous(),
            Continuous(),
        ),
        objective=volume,
        constraints=tuple([stress(i) for i in range(5)] + [deflection] + [aspect(i) for i in range(5)]),
    )


# Welded beam constants: load (lb), beam length (in), Young's and shear
# moduli (psi), and the allowables on shear stress, normal stress, and tip
# deflection.
_WELD_P = 6000.0
_WELD_L = 14.0
_WELD_E = 30.0e6
_WELD_G = 12.0e6
_WELD_TAU_MAX = 13600.0
_WELD_SIGMA_MAX = 30000.0
_WELD_DELTA_MAX = 0.25


def _weld_shear(x):
    h, l, t, _ = x.T
    tau_primary = _WELD_P / (np.sqrt(2.0) * h * l)
    moment = _WELD_P * (_WELD_L + l / 2.0)
    radius = np.sqrt(power(l, 2) / 4.0 + power((h + t) / 2.0, 2))
    polar = 2.0 * (np.sqrt(2.0) * h * l * (power(l, 2) / 12.0 + power((h + t) / 2.0, 2)))
    tau_secondary = moment * radius / polar
    return np.sqrt(
        power(tau_primary, 2) + 2.0 * tau_primary * tau_secondary * l / (2.0 * radius) + power(tau_secondary, 2)
    )


def _weld_buckling_load(x):
    _, _, t, b = x.T
    return (
        4.013
        * _WELD_E
        * np.sqrt(power(t, 2) * power(b, 6) / 36.0)
        / _WELD_L**2
        * (1.0 - t / (2.0 * _WELD_L) * np.sqrt(_WELD_E / (4.0 * _WELD_G)))
    )


def welded_beam() -> ConstrainedProblem:
    """Welded beam cost design with four continuous variables (h, l, t, b)."""

    def cost(x):
        h, l, t, b = x.T
        return 1.10471 * power(h, 2) * l + 0.04811 * t * b * (14.0 + l)

    def g_shear(x):
        return _weld_shear(x) - _WELD_TAU_MAX

    def g_bending(x):
        _, _, t, b = x.T
        return 6.0 * _WELD_P * _WELD_L / (b * power(t, 2)) - _WELD_SIGMA_MAX

    def g_geometry(x):
        return x[..., 0] - x[..., 3]

    def g_budget(x):
        h, l, t, b = x.T
        return 0.10471 * power(h, 2) + 0.04811 * t * b * (14.0 + l) - 5.0

    def g_min_weld(x):
        return 0.125 - x[..., 0]

    def g_deflection(x):
        _, _, t, b = x.T
        return 4.0 * _WELD_P * _WELD_L**3 / (_WELD_E * power(t, 3) * b) - _WELD_DELTA_MAX

    def g_buckling(x):
        return _WELD_P - _weld_buckling_load(x)

    return ConstrainedProblem(
        name="welded-beam",
        variable_names=("h", "l", "t", "b"),
        bounds=Bounds(np.array([0.1, 0.1, 0.1, 0.1]), np.array([2.0, 10.0, 10.0, 2.0])),
        variable_kinds=(Continuous(), Continuous(), Continuous(), Continuous()),
        objective=cost,
        constraints=(
            g_shear,
            g_bending,
            g_geometry,
            g_budget,
            g_min_weld,
            g_deflection,
            g_buckling,
        ),
    )


ENGINEERING_PROBLEMS: dict[str, Callable[[], ConstrainedProblem]] = {
    "pressure-vessel": pressure_vessel,
    "stepped-beam": stepped_beam,
    "welded-beam": welded_beam,
}
