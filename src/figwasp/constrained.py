"""Constrained engineering design problems and the penalty transform.

Three mixed-variable design tasks (pressure vessel, stepped cantilever
beam, welded beam) in the g_j(x) <= 0 convention, plus the static
quadratic penalty and discrete-lattice repair that make them solvable by
the unconstrained search core. Discrete repair happens inside the fitness
wrapper, so the engine itself stays purely continuous.

Everything is row-wise: a design's objective and its one constraint
function take one point (d,) or a batch (n, d), and repair snaps all the
columns of one lattice step, or of one value set, in a single pass.
"""

from __future__ import annotations

import functools
import math
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

    def __post_init__(self):
        if not (self.step > 0 and math.isfinite(self.step)):
            raise ValueError(f"step: {self.step} is not positive and finite")


@dataclass(frozen=True)
class ValueSet:
    """Values restricted to an explicit set of finite members, given in
    strictly increasing order. Members are stored as floats, -0.0 as 0.0,
    so equal value sets snap to the same bits."""

    values: tuple[float, ...]

    def __post_init__(self):
        members = np.asarray(self.values, dtype=float) + 0.0
        if members.ndim != 1 or members.size == 0:
            raise ValueError("values: a value set needs a sequence of at least one member")
        object.__setattr__(self, "values", tuple(members.tolist()))
        if not np.isfinite(members).all():
            raise ValueError(f"values: {self.values} has a non-finite member")
        if not (np.diff(members) > 0.0).all():
            raise ValueError(f"values: {self.values} is not sorted without repeats")


VariableKind = Continuous | LatticeStep | ValueSet


@dataclass(frozen=True)
class ConstrainedProblem:
    """A design problem. ``objective`` maps points (..., d) to values (...),
    and the one function ``constraints`` maps them to the m constraint
    values g_j(x) (..., m), so the penalized fitness of one point (d,) or of
    n points (n, d) is evaluated row-wise."""

    name: str
    variable_names: tuple[str, ...]
    bounds: Bounds
    variable_kinds: tuple[VariableKind, ...]
    objective: Callable[[Vector], np.ndarray]
    constraints: Callable[[Vector], np.ndarray]

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
        g = self.constraints(position)
        return np.where(g > 0.0, g, 0.0)

    def max_violation(self, position: Vector) -> float:
        return float(self.violations(position).max())


def _columns(indices: list[int]) -> slice | list[int]:
    """A slice (a view) when the column indices are evenly spaced, else the list."""
    step = indices[1] - indices[0] if len(indices) > 1 else 1
    if indices == list(range(indices[0], indices[-1] + 1, step)):
        return slice(indices[0], indices[-1] + 1, step)
    return indices


@functools.lru_cache(maxsize=None)
def _repair_plan(kinds: tuple[VariableKind, ...]):
    """The discrete columns grouped by kind, once per kinds tuple: each
    lattice step with its columns and each value set (as an array) with its
    columns."""
    groups: dict[VariableKind, list[int]] = {}
    for i, kind in enumerate(kinds):
        if isinstance(kind, (LatticeStep, ValueSet)):
            groups.setdefault(kind, []).append(i)
    lattices = tuple((kind.step, _columns(cols)) for kind, cols in groups.items() if isinstance(kind, LatticeStep))
    value_sets = tuple(
        (np.array(kind.values), _columns(cols)) for kind, cols in groups.items() if isinstance(kind, ValueSet)
    )
    return lattices, value_sets


def _snap_to_set(x: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The member of the sorted ``values`` nearest to each element of ``x``;
    equidistant between two members, the larger. NaN stays NaN, and +-inf
    snaps to the end member on its side."""
    i = np.searchsorted(values, x)
    hi = values.take(i, mode="clip")
    lo = values.take(i - 1, mode="clip")
    # |hi - x| and |lo - x|: inside the set's range lo < x <= hi, and
    # outside it hi == lo, so the choice does not matter
    snapped = np.where(hi - x <= x - lo, hi, lo)
    np.copyto(snapped, x, where=np.isnan(x))
    return snapped


def repair_discrete(position: Vector, kinds: Sequence[VariableKind]) -> Vector:
    """Snap discrete coordinates of one point (d,) or of (n, d) points onto
    their lattice or value set; continuous ones pass through.

    Lattice rounding is to the nearest multiple with half-steps rounding up.
    Idempotent, and never moves a coordinate past the adjacent lattice point.
    """
    position = np.asarray(position, dtype=float)
    if position.shape[-1] != len(kinds):
        raise ValueError("position length does not match variable kinds")
    lattices, value_sets = _repair_plan(tuple(kinds))
    repaired = position.copy()
    for step, cols in lattices:
        repaired[..., cols] = np.floor(position[..., cols] / step + 0.5) * step
    for values, cols in value_sets:
        repaired[..., cols] = _snap_to_set(position[..., cols], values)
    return repaired


def penalize(problem: ConstrainedProblem, position: Vector, coefficient: float):
    """Static quadratic penalty f(x) + coefficient * sum(max(0, g_j(x))^2),
    for one point (d,) or row-wise for (n, d) points."""
    if not (coefficient > 0 and math.isfinite(coefficient)):
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

    return ObjectiveProblem(name=problem.name, bounds=problem.bounds, objective=fitness)


def pressure_vessel() -> ConstrainedProblem:
    """Cylindrical vessel cost design: shell/head thickness on a 0.0625 lattice,
    radius and length continuous."""

    def cost(x):
        ts, th, r, length = x.T
        ts2 = power(ts, 2)
        return 0.6224 * ts * r * length + 1.7781 * th * power(r, 2) + 3.1661 * ts2 * length + 19.84 * ts2 * r

    def constraints(x):
        r, length = x[..., 2], x[..., 3]
        g = np.empty(x.shape[:-1] + (4,))
        g[..., 0] = -x[..., 0] + 0.0193 * r
        g[..., 1] = -x[..., 1] + 0.00954 * r
        g[..., 2] = -np.pi * power(r, 2) * length - (4.0 / 3.0) * np.pi * power(r, 3) + 1296000.0
        g[..., 3] = length - 240.0
        return g

    return ConstrainedProblem(
        name="pressure-vessel",
        variable_names=("T_s", "T_h", "R", "L"),
        bounds=Bounds(np.array([0.0625, 0.0625, 10.0, 10.0]), np.array([6.1875, 6.1875, 200.0, 200.0])),
        variable_kinds=(LatticeStep(0.0625), LatticeStep(0.0625), Continuous(), Continuous()),
        objective=cost,
        constraints=constraints,
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
_BEAM_WEIGHTS = np.array([61.0, 37.0, 19.0, 7.0, 1.0])
# 6 P times the distance from the tip to each segment root
_BEAM_ROOT_MOMENTS = 6.0 * _BEAM_P * ((5 - np.arange(5)) * _BEAM_L)


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

    def constraints(x):
        widths, heights = x[..., 0::2], x[..., 1::2]
        g = np.empty(x.shape[:-1] + (11,))
        g[..., 0:5] = _BEAM_ROOT_MOMENTS / (widths * power(heights, 2)) - _BEAM_SIGMA
        inertia = widths * heights**3 / 12.0
        tip = _BEAM_P * _BEAM_L**3 / (3.0 * _BEAM_E) * np.sum(_BEAM_WEIGHTS / inertia, axis=-1)
        g[..., 5] = tip - _BEAM_DEFLECTION
        g[..., 6:11] = heights - 20.0 * widths
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
        constraints=constraints,
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


def welded_beam() -> ConstrainedProblem:
    """Welded beam cost design with four continuous variables (h, l, t, b)."""

    def cost(x):
        h, l, t, b = x.T
        return 1.10471 * power(h, 2) * l + 0.04811 * t * b * (14.0 + l)

    def constraints(x):
        h, l, t, b = x[..., 0], x[..., 1], x[..., 2], x[..., 3]
        weld_area = np.sqrt(2.0) * h * l
        l2 = power(l, 2)
        half_sum2 = power((h + t) / 2.0, 2)
        t2 = power(t, 2)
        g = np.empty(x.shape[:-1] + (7,))
        # shear stress in the weld: primary, plus the secondary from the torque
        tau_primary = _WELD_P / weld_area
        moment = _WELD_P * (_WELD_L + l / 2.0)
        radius = np.sqrt(l2 / 4.0 + half_sum2)
        polar = 2.0 * (weld_area * (l2 / 12.0 + half_sum2))
        tau_secondary = moment * radius / polar
        tau = np.sqrt(
            power(tau_primary, 2) + 2.0 * tau_primary * tau_secondary * l / (2.0 * radius) + power(tau_secondary, 2)
        )
        g[..., 0] = tau - _WELD_TAU_MAX
        g[..., 1] = 6.0 * _WELD_P * _WELD_L / (b * t2) - _WELD_SIGMA_MAX
        g[..., 2] = h - b
        g[..., 3] = 0.10471 * power(h, 2) + 0.04811 * t * b * (14.0 + l) - 5.0
        g[..., 4] = 0.125 - h
        g[..., 5] = 4.0 * _WELD_P * _WELD_L**3 / (_WELD_E * power(t, 3) * b) - _WELD_DELTA_MAX
        buckling_load = (
            4.013
            * _WELD_E
            * np.sqrt(t2 * power(b, 6) / 36.0)
            / _WELD_L**2
            * (1.0 - t / (2.0 * _WELD_L) * np.sqrt(_WELD_E / (4.0 * _WELD_G)))
        )
        g[..., 6] = _WELD_P - buckling_load
        return g

    return ConstrainedProblem(
        name="welded-beam",
        variable_names=("h", "l", "t", "b"),
        bounds=Bounds(np.array([0.1, 0.1, 0.1, 0.1]), np.array([2.0, 10.0, 10.0, 2.0])),
        variable_kinds=(Continuous(), Continuous(), Continuous(), Continuous()),
        objective=cost,
        constraints=constraints,
    )


ENGINEERING_PROBLEMS: dict[str, Callable[[], ConstrainedProblem]] = {
    "pressure-vessel": pressure_vessel,
    "stepped-beam": stepped_beam,
    "welded-beam": welded_beam,
}
