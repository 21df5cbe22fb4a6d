"""Constrained engineering design problems and the penalty transform.

Three mixed-variable design tasks (pressure vessel, stepped cantilever
beam, welded beam) in the g_j(x) <= 0 convention, plus the static
quadratic penalty and discrete-lattice repair that make them solvable by
the unconstrained search core. Discrete repair happens inside the fitness
wrapper, so the engine itself stays purely continuous.

Everything is row-wise: a design's one kernel takes one point (d,) or a
batch (n, d) to its cost and constraint values in one pass, and repair
snaps all the columns of one lattice step, or of one value set, in a
single pass.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass, field
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
        if type(self.step) is bool or not isinstance(self.step, numbers.Real) or not 0 < self.step < math.inf:
            raise ValueError(f"step: {self.step!r} is not positive and finite")

    def snap(self, x: np.ndarray) -> np.ndarray:
        """The nearest multiple of ``step`` to each element of ``x``; half-steps round up."""
        return np.floor(x / self.step + 0.5) * self.step


_DOUBLE, _INT64 = struct.Struct("<d"), struct.Struct("<q")


def _cut(lo: float, hi: float) -> float:
    """The least float x in (lo, hi] at which ``hi - x <= x - lo`` holds in
    float64. Rounding keeps the test monotone in x, so a bisection over the
    floats' order finds it, probing the midpoint and its neighbours first."""

    def flip(i):  # a float's int64 bits, the magnitude flipped below 0: its rank in the floats' order, and back
        return i ^ (i >> 63) & 0x7FFFFFFFFFFFFFFF

    a, b = (flip(_INT64.unpack(_DOUBLE.pack(v))[0]) for v in (lo, hi))  # the test fails at a and holds at b
    mid = flip(_INT64.unpack(_DOUBLE.pack(lo / 2.0 + hi / 2.0))[0])
    probes = [mid + 1, mid - 1, mid]
    while b - a > 1:
        i = probes.pop() if probes else (a + b) // 2
        if a < i < b:
            x = _DOUBLE.unpack(_INT64.pack(flip(i)))[0]
            a, b = (a, i) if hi - x <= x - lo else (i, b)
    return _DOUBLE.unpack(_INT64.pack(flip(b)))[0]


@dataclass(frozen=True)
class ValueSet:
    """Values restricted to an explicit set of finite members, given in
    strictly increasing order. Members are stored as floats, -0.0 as 0.0, so
    equal value sets snap to the same bits; from ``cuts[j - 1]`` up, x snaps to member j."""

    values: tuple[float, ...]
    members: np.ndarray = field(init=False, repr=False, compare=False)
    cuts: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        members = np.asarray(self.values, dtype=float) + 0.0
        if members.ndim != 1 or members.size == 0:
            raise ValueError("values: a value set needs a sequence of at least one member")
        object.__setattr__(self, "values", tuple(members.tolist()))
        if not np.isfinite(members).all():
            raise ValueError(f"values: {self.values} has a non-finite member")
        if not (members[1:] > members[:-1]).all():
            raise ValueError(f"values: {self.values} is not sorted without repeats")
        cuts = np.array([_cut(lo, hi) for lo, hi in zip(self.values, self.values[1:])], dtype=float)
        for name, array in (("members", members), ("cuts", cuts)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def snap(self, x: np.ndarray) -> np.ndarray:
        """The member nearest to each element of ``x``; equidistant between
        two members, the larger. NaN stays NaN, and +-inf snaps to the end
        member on its side."""
        snapped = self.members.take(self.cuts.searchsorted(x, side="right"))
        np.copyto(snapped, x, where=np.isnan(x))
        return snapped


VariableKind = Continuous | LatticeStep | ValueSet


@dataclass(frozen=True)
class ConstrainedProblem:
    """A design problem, read through its one kernel: ``evaluate`` maps points
    (..., d) in one pass to their cost (...) and their m constraint values
    g_j(x) (..., m), whose violations are `hinge(g)`. So the penalized fitness
    of one point (d,) or of n points (n, d) is evaluated row-wise."""

    name: str
    variable_names: tuple[str, ...]
    bounds: Bounds
    variable_kinds: tuple[VariableKind, ...]
    evaluate: Callable[[Vector], tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        if not isinstance(self.bounds, Bounds):
            raise ValueError(f"bounds must be a Bounds, not {self.bounds!r}")
        if not callable(self.evaluate):
            raise ValueError(f"evaluate must be callable, not {self.evaluate!r}")
        n = self.bounds.dimension
        if len(self.variable_names) != n or len(self.variable_kinds) != n:
            raise ValueError("variable names/kinds must match the problem dimension")
        _repair_plan(self.variable_kinds)  # checks every kind

    @property
    def dimension(self) -> int:
        return self.bounds.dimension


def hinge(g: np.ndarray) -> np.ndarray:
    """max(0, g_j) for constraint values ``g``; a NaN g_j counts as no violation."""
    return np.where(g > 0.0, g, 0.0)


def _columns(indices: list[int]) -> slice | list[int]:
    """A slice (a view) when the column indices are evenly spaced, else the list."""
    step = indices[1] - indices[0] if len(indices) > 1 else 1
    if indices == list(range(indices[0], indices[-1] + 1, step)):
        return slice(indices[0], indices[-1] + 1, step)
    return indices


def _repair_plan(kinds: Sequence[VariableKind]):
    """The discrete columns grouped by kind: each lattice step and each value
    set with its columns. A kind that is no `VariableKind` instance raises
    `ValueError`."""
    groups: dict[VariableKind, list[int]] = {}
    for i, kind in enumerate(kinds):
        if isinstance(kind, (LatticeStep, ValueSet)):
            groups.setdefault(kind, []).append(i)
        elif not isinstance(kind, Continuous):
            raise ValueError(f"variable_kinds[{i}]: {kind!r} is not a Continuous, LatticeStep or ValueSet instance")
    return tuple((kind, _columns(cols)) for kind, cols in groups.items())


def _snap(position: Vector, plan) -> Vector:
    """A copy of ``position`` with each group of a repair plan snapped by its kind."""
    repaired = np.array(position, dtype=float)
    for kind, cols in plan:
        repaired[..., cols] = kind.snap(repaired[..., cols])
    return repaired


def repair_discrete(position: Vector, kinds: Sequence[VariableKind]) -> Vector:
    """Snap the discrete coordinates of one point (d,) or of (n, d) points,
    idempotently, with their kind's ``snap``; continuous ones pass through."""
    position = np.asarray(position, dtype=float)
    if position.ndim == 0 or position.shape[-1] != len(kinds):
        raise ValueError("position length does not match variable kinds")
    return _snap(position, _repair_plan(kinds))


def penalize(problem: ConstrainedProblem, position: Vector, coefficient: float):
    """Static quadratic penalty f(x) + coefficient * sum(max(0, g_j(x))^2),
    for one point (d,) or row-wise for (n, d) points."""
    if type(coefficient) is bool or not isinstance(coefficient, numbers.Real) or not 0 < coefficient < math.inf:
        raise ValueError("penalty coefficient must be positive and finite")
    cost, g = problem.evaluate(position)
    return cost + coefficient * (hinge(g) ** 2).sum(axis=-1)


def to_objective(
    problem: ConstrainedProblem,
    coefficient: float = DEFAULT_PENALTY_COEFFICIENT,
) -> ObjectiveProblem:
    """Wrap a constrained problem as a plain box-bounded objective.

    Discrete coordinates are repaired before the (penalized) evaluation, so
    the search core can treat every dimension as continuous. A coefficient
    that is not positive and finite fails here, when the fitness is built.
    """
    if type(coefficient) is bool or not isinstance(coefficient, numbers.Real) or not 0 < coefficient < math.inf:
        raise ValueError("penalty coefficient must be positive and finite")
    plan = _repair_plan(problem.variable_kinds)

    def fitness(x: Vector):
        return penalize(problem, _snap(x, plan), coefficient)

    return ObjectiveProblem(name=problem.name, bounds=problem.bounds, objective=fitness)


def pressure_vessel() -> ConstrainedProblem:
    """Cylindrical vessel cost design: shell/head thickness on a 0.0625 lattice,
    radius and length continuous."""

    def evaluate(x):
        ts, th, r, length = x.T
        ts2, r2 = power(ts, 2), power(r, 2)
        g = np.empty(x.shape[:-1] + (4,))
        g[..., 0] = -ts + 0.0193 * r
        g[..., 1] = -th + 0.00954 * r
        g[..., 2] = -np.pi * r2 * length - (4.0 / 3.0) * np.pi * power(r, 3) + 1296000.0
        g[..., 3] = length - 240.0
        return 0.6224 * ts * r * length + 1.7781 * th * r2 + 3.1661 * ts2 * length + 19.84 * ts2 * r, g

    return ConstrainedProblem(
        name="pressure-vessel",
        variable_names=("T_s", "T_h", "R", "L"),
        bounds=Bounds(np.array([0.0625, 0.0625, 10.0, 10.0]), np.array([6.1875, 6.1875, 200.0, 200.0])),
        variable_kinds=(LatticeStep(0.0625), LatticeStep(0.0625), Continuous(), Continuous()),
        evaluate=evaluate,
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

    def evaluate(x):
        widths, heights = x[..., 0::2], x[..., 1::2]
        g = np.empty(x.shape[:-1] + (11,))
        g[..., 0:5] = _BEAM_ROOT_MOMENTS / (widths * power(heights, 2)) - _BEAM_SIGMA
        inertia = widths * heights**3 / 12.0
        g[..., 5] = _BEAM_P * _BEAM_L**3 / (3.0 * _BEAM_E) * (_BEAM_WEIGHTS / inertia).sum(axis=-1) - _BEAM_DEFLECTION
        g[..., 6:11] = heights - 20.0 * widths
        return _BEAM_L * (widths * heights).sum(axis=-1), g

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
        evaluate=evaluate,
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
_SQRT2 = math.sqrt(2.0)
_WELD_MODULI = math.sqrt(_WELD_E / (4.0 * _WELD_G))


def welded_beam() -> ConstrainedProblem:
    """Welded beam cost design with four continuous variables (h, l, t, b)."""

    def evaluate(x):
        h, l, t, b = x.T
        h2, l2, t2 = power(h, 2), power(l, 2), power(t, 2)
        bar_cost = 0.04811 * t * b * (14.0 + l)
        weld_area = _SQRT2 * h * l
        half_sum2 = power((h + t) / 2.0, 2)
        g = np.empty(x.shape[:-1] + (7,))
        # shear stress in the weld: primary, plus the secondary from the torque
        tau_primary = _WELD_P / weld_area
        radius = np.sqrt(l2 / 4.0 + half_sum2)
        polar = 2.0 * (weld_area * (l2 / 12.0 + half_sum2))
        tau_secondary = _WELD_P * (_WELD_L + l / 2.0) * radius / polar
        tau = np.sqrt(
            power(tau_primary, 2) + 2.0 * tau_primary * tau_secondary * l / (2.0 * radius) + power(tau_secondary, 2)
        )
        g[..., 0] = tau - _WELD_TAU_MAX
        g[..., 1] = 6.0 * _WELD_P * _WELD_L / (b * t2) - _WELD_SIGMA_MAX
        g[..., 2] = h - b
        g[..., 3] = 0.10471 * h2 + bar_cost - 5.0
        g[..., 4] = 0.125 - h
        g[..., 5] = 4.0 * _WELD_P * _WELD_L**3 / (_WELD_E * power(t, 3) * b) - _WELD_DELTA_MAX
        buckling_load = (
            4.013 * _WELD_E * np.sqrt(t2 * power(b, 6) / 36.0) / _WELD_L**2 * (1.0 - t / (2.0 * _WELD_L) * _WELD_MODULI)
        )
        g[..., 6] = _WELD_P - buckling_load
        return 1.10471 * h2 * l + bar_cost, g

    return ConstrainedProblem(
        name="welded-beam",
        variable_names=("h", "l", "t", "b"),
        bounds=Bounds(np.array([0.1, 0.1, 0.1, 0.1]), np.array([2.0, 10.0, 10.0, 2.0])),
        variable_kinds=(Continuous(), Continuous(), Continuous(), Continuous()),
        evaluate=evaluate,
    )


ENGINEERING_PROBLEMS: dict[str, ConstrainedProblem] = {
    "pressure-vessel": pressure_vessel(),
    "stepped-beam": stepped_beam(),
    "welded-beam": welded_beam(),
}
