from dataclasses import fields, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from figwasp.constrained import (
    ConstrainedProblem,
    Continuous,
    LatticeStep,
    ValueSet,
    _repair_plan,
    hinge,
    penalize,
    pressure_vessel,
    repair_discrete,
    stepped_beam,
    to_objective,
    welded_beam,
)
from figwasp.core import Bounds

CITED_RTOL = 5e-3  # 0.5 % absorbs the tables' 4-digit rounding
FEAS_TOL = 1e-6


def lattice_scan_oracle(value, step, span=400):
    """Nearest lattice point by scanning candidates, ties resolved upward."""
    base = int(np.floor(value / step)) - 2
    candidates = [(base + i) * step for i in range(span)]
    best = min(candidates, key=lambda c: (abs(c - value), -c))
    return best


class TestRepairDiscrete:
    def test_vessel_thickness_example(self):
        kinds = (LatticeStep(0.0625),)
        assert repair_discrete(np.array([0.871]), kinds)[0] == pytest.approx(0.875, abs=1e-12)
        assert lattice_scan_oracle(0.871, 0.0625) == pytest.approx(0.875, abs=1e-12)

    def test_integer_lattice_example(self):
        kinds = (LatticeStep(1.0),)
        assert repair_discrete(np.array([3.4]), kinds)[0] == 3.0

    def test_half_step_rounds_up(self):
        kinds = (LatticeStep(0.0625),)
        assert repair_discrete(np.array([0.90625]), kinds)[0] == pytest.approx(0.9375)

    def test_on_lattice_unchanged(self):
        kinds = (LatticeStep(0.0625),)
        assert repair_discrete(np.array([0.875]), kinds)[0] == 0.875

    def test_value_set_snaps_to_nearest(self):
        kinds = (ValueSet((2.4, 2.6, 2.8, 3.1)),)
        assert repair_discrete(np.array([2.69]), kinds)[0] == 2.6
        assert repair_discrete(np.array([3.0]), kinds)[0] == 3.1

    def test_value_set_tie_takes_larger(self):
        kinds = (ValueSet((2.4, 2.6)),)
        assert repair_discrete(np.array([2.5]), kinds)[0] == 2.6

    def test_continuous_passes_through(self):
        kinds = (Continuous(),)
        assert repair_discrete(np.array([2.53]), kinds)[0] == 2.53

    @given(st.floats(-20, 20), st.sampled_from([0.0625, 0.5, 1.0]))
    def test_idempotent_and_within_half_step(self, value, step):
        kinds = (LatticeStep(step),)
        once = repair_discrete(np.array([value]), kinds)
        assert np.array_equal(repair_discrete(once, kinds), once)
        assert abs(once[0] - value) <= step / 2 + 1e-9
        assert once[0] == pytest.approx(lattice_scan_oracle(value, step), abs=1e-9)

    @pytest.mark.parametrize(
        "step",
        [0.0, -0.5, np.inf, np.nan, "1", None, True],
        ids=["zero", "negative", "inf", "nan", "str", "none", "bool"],
    )
    def test_bad_lattice_steps_rejected(self, step):
        # a zero, infinite or NaN step would repair every coordinate to NaN,
        # and a negative one would round half-steps down; a step that is no
        # number is named too, and True is no step of 1
        with pytest.raises(ValueError, match="^step: "):
            LatticeStep(step)

    def test_kind_that_is_not_an_instance_rejected(self):
        # the class LatticeStep, not an instance of it, would leave its column unsnapped
        with pytest.raises(ValueError, match=r"^variable_kinds\[1\]: <class .*LatticeStep'> is not a "):
            repair_discrete(np.array([0.5, 1.3]), (Continuous(), LatticeStep))

    def test_unhashable_kind_rejected(self):
        # a list or a dict cannot key the plan's groups; it is named before any grouping
        with pytest.raises(ValueError, match=r"^variable_kinds\[0\]: \[1\] is not a "):
            repair_discrete(np.array([1.3]), [[1]])
        with pytest.raises(ValueError, match=r"^variable_kinds\[1\]: \{\} is not a "):
            repair_discrete(np.array([0.5, 1.3]), [LatticeStep(0.5), {}])

    def test_zero_d_position_rejected(self):
        # a 0-d position has no last axis to match against the kinds
        with pytest.raises(ValueError, match="^position length does not match variable kinds$"):
            repair_discrete(np.float64(1.3), (LatticeStep(0.5),))


def full_distance_snap(column, values):
    """The nearest member by every member's distance, ties to the larger one."""
    arr = np.asarray(values)
    dist = np.abs(arr - column[..., None])
    best = dist.min(axis=-1, keepdims=True)
    return np.where(dist == best, arr, -np.inf).max(axis=-1)


# Sorted value sets, members at least 1e-6 apart. Two members closer than
# the rounding of their distances to x tie in the full-distance oracle, which
# then takes the larger one even when it is the farther; the far-outside
# test below pins the sorted search's answer there instead.
value_sets = st.builds(
    lambda start, gaps: tuple(np.cumsum([start, *gaps]).tolist()),
    st.floats(-1e3, 1e3),
    st.lists(st.floats(1e-6, 1e2), max_size=7),
)


@st.composite
def set_and_column(draw):
    """A value set and a column of its members, the midpoints between
    neighbours, the next floats on both sides of each, and points outside."""
    values = draw(value_sets)
    arr = np.array(values)
    span = arr[-1] - arr[0] + 1.0
    anchors = np.concatenate([arr, (arr[:-1] + arr[1:]) / 2.0])
    near = np.concatenate([anchors, np.nextafter(anchors, -np.inf), np.nextafter(anchors, np.inf)])
    outside = draw(st.lists(st.floats(0.0, 5.0), max_size=4))
    extra = draw(st.lists(st.floats(arr[0] - 2 * span, arr[-1] + 2 * span), max_size=8))
    beyond = [arr[0] - k * span for k in outside] + [arr[-1] + k * span for k in outside]
    return values, np.concatenate([near, beyond, extra])


def bracket_snap(members, column):
    """The sorted search before cut points: the members that bracket each
    value, and the upper one where ``hi - x <= x - lo``."""
    i = np.searchsorted(members, column)
    hi = members.take(i, mode="clip")
    lo = members.take(i - 1, mode="clip")
    with np.errstate(invalid="ignore", over="ignore"):
        snapped = np.where(hi - column <= column - lo, hi, lo)
    np.copyto(snapped, column, where=np.isnan(column))
    return snapped


# Any finite floats: sets that straddle 0, that mix magnitudes or that hold
# subnormals, besides the sets that these examples name.
cut_point_sets = st.one_of(
    st.sampled_from([(-1e300, 0.0, 1e-300, 7.0), (-1e300, 1e300), (-5e-324, 0.0, 5e-324), (2.4, 2.6, 2.8, 3.1)]),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=8, unique=True).map(sorted),
)


@st.composite
def cut_point_case(draw):
    """A value set and a column of its members, the midpoints between
    neighbours, its cuts, the next floats on both sides of each, +-inf, NaN
    and any other floats."""
    values = tuple(draw(cut_point_sets))
    value_set = ValueSet(values)
    members = value_set.members
    with np.errstate(over="ignore"):
        anchors = np.concatenate([members, (members[:-1] + members[1:]) / 2.0, value_set.cuts])
        near = np.concatenate([anchors, np.nextafter(anchors, -np.inf), np.nextafter(anchors, np.inf)])
    others = draw(st.lists(st.floats(), max_size=8))
    return values, np.concatenate([near, [np.inf, -np.inf, np.nan, -0.0], others])


class TestValueSetRepair:
    @given(set_and_column())
    def test_sorted_search_equals_full_distance_oracle(self, case):
        values, column = case
        kinds = (ValueSet(values),)
        expected = full_distance_snap(column, kinds[0].values)
        assert repair_discrete(column[:, None], kinds)[:, 0].tobytes() == expected.tobytes()
        one_by_one = np.array([repair_discrete(np.array([x]), kinds)[0] for x in column])
        assert one_by_one.tobytes() == expected.tobytes()

    def test_members_are_floats_and_zero_has_one_sign(self):
        # equal value sets share one repair plan, so they must snap to the same bits
        members = ValueSet((-0.0, 1)).values
        assert all(type(v) is float for v in members)
        assert np.array(members).tobytes() == np.array([0.0, 1.0]).tobytes()
        for values in [(-0.0, 1.0), (0.0, 1.0)]:
            snapped = repair_discrete(np.array([-0.1]), (ValueSet(values),))
            assert snapped.tobytes() == np.array([0.0]).tobytes()

    def test_members_are_read_only_and_outside_equality(self):
        # the repair plan groups columns by kind: equal sets hash alike and
        # share one group, and the array they snap with cannot change under it
        with pytest.raises(ValueError):
            ValueSet((2.4, 2.6)).members[0] = 3.0
        a, b = ValueSet((2, 4)), ValueSet((2.0, 4.0))
        assert a == b and hash(a) == hash(b)
        assert _repair_plan((a, Continuous(), b)) == ((a, slice(0, 3, 2)),)
        assert repr(b) == "ValueSet(values=(2.0, 4.0))"

    def test_grouped_columns_equal_one_column_at_a_time(self):
        # set a sits on unevenly spaced columns (an index list), the 0.5
        # lattice on evenly spaced ones (a slice), set b on one column
        a, b = (1.0, 2.0, 4.0), (-3.0, 0.5)
        kinds = (ValueSet(a), Continuous(), ValueSet(a), ValueSet(a), LatticeStep(0.5), ValueSet(b), LatticeStep(0.5))
        points = np.random.default_rng(5).uniform(-6.0, 6.0, size=(40, len(kinds)))
        expected = points.copy()
        for i, kind in enumerate(kinds):
            if isinstance(kind, ValueSet):
                expected[:, i] = full_distance_snap(points[:, i], kind.values)
            elif isinstance(kind, LatticeStep):
                expected[:, i] = np.floor(points[:, i] / kind.step + 0.5) * kind.step
        assert repair_discrete(points, kinds).tobytes() == expected.tobytes()
        assert repair_discrete(points[3], kinds).tobytes() == expected[3].tobytes()

    def test_non_finite_coordinates(self):
        widths = ValueSet((2.4, 2.6, 2.8, 3.1))
        kinds = (widths, LatticeStep(0.5))
        repaired = repair_discrete(np.array([[np.nan, np.nan], [np.inf, 1.2], [-np.inf, 1.2]]), kinds)
        assert np.isnan(repaired[0]).all()
        assert repaired[1, 0] == 3.1 and repaired[2, 0] == 2.4

    def test_far_outside_snaps_to_the_nearest_end(self):
        # every member's rounded distance to -1e20 is 1e20: the end member wins
        kinds = (ValueSet((2.4, 2.6, 2.8, 3.1)),)
        assert repair_discrete(np.array([-1e20]), kinds)[0] == 2.4
        assert repair_discrete(np.array([1e20]), kinds)[0] == 3.1

    @given(cut_point_case())
    def test_cut_points_equal_the_bracket_oracle(self, case):
        values, column = case
        value_set = ValueSet(values)
        expected = bracket_snap(value_set.members, column)
        assert value_set.snap(column).tobytes() == expected.tobytes()
        assert repair_discrete(column[:, None], (value_set,))[:, 0].tobytes() == expected.tobytes()
        # each cut is the least float in (lo, hi] at which the bracket test takes hi
        members = value_set.members
        for lo, hi, cut in zip(members[:-1], members[1:], value_set.cuts):
            below = np.nextafter(cut, -np.inf)
            with np.errstate(over="ignore"):
                assert lo < cut <= hi and hi - cut <= cut - lo
                assert below <= lo or not hi - below <= below - lo

    def test_cuts_are_read_only_and_outside_equality(self):
        a, b = ValueSet((2, 4, 5)), ValueSet((2.0, 4.0, 5.0))
        assert a.cuts.tolist() == [3.0, 4.5]
        with pytest.raises(ValueError):
            a.cuts[0] = 3.5
        cuts = next(f for f in fields(ValueSet) if f.name == "cuts")
        assert not cuts.init and not cuts.repr and not cuts.compare
        assert a == b and hash(a) == hash(b) and repr(a) == "ValueSet(values=(2.0, 4.0, 5.0))"

    @pytest.mark.parametrize(
        "values",
        [(3.0, 1.0, 2.0), (1.0, 1.0, 2.0), (1.0, np.nan), (1.0, np.inf), (-np.inf, 1.0), (), 2.0],
        ids=["unsorted", "repeated", "nan", "inf", "minus-inf", "empty", "scalar"],
    )
    def test_bad_value_sets_rejected(self, values):
        with pytest.raises(ValueError, match="^values: "):
            ValueSet(values)


class TestPenalize:
    def problem(self):
        return welded_beam()

    def test_feasible_point_is_exact_objective(self):
        p = self.problem()
        x = np.array([0.25, 4.0, 9.0, 0.3])
        cost, g = p.evaluate(x)
        assert hinge(g).max() == 0.0
        assert penalize(p, x, 1e6) == cost

    def test_single_violation_is_quadratic(self):
        p = pressure_vessel()
        x = np.array([0.0625, 0.0625, 10.0, 250.0])  # only the length cap can trip here
        cost, g = p.evaluate(x)
        manual = cost + 1e6 * float(np.sum(hinge(g) ** 2))
        assert penalize(p, x, 1e6) == pytest.approx(manual, rel=1e-15)

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError):
            penalize(self.problem(), np.array([0.2, 3.5, 9.0, 0.21]), 0.0)

    def test_infinite_coefficient_rejected(self):
        # inf * 0 would turn every feasible point's fitness into NaN
        with pytest.raises(ValueError, match="finite"):
            penalize(self.problem(), np.array([0.25, 4.0, 9.0, 0.3]), coefficient=np.inf)

    def test_continuous_across_feasibility_boundary(self):
        # quadratic hinge: the penalty vanishes smoothly as the geometry
        # constraint h - b <= 0 becomes active
        p = self.problem()
        feasible = np.array([0.25, 4.0, 9.0, 0.25])
        for eps in (1e-4, 1e-6, 1e-8):
            inside = feasible.copy()
            inside[0] -= eps
            outside = feasible.copy()
            outside[0] += eps
            gap = abs(penalize(p, outside, 1e6) - penalize(p, inside, 1e6))
            assert gap <= 2e6 * eps**2 + abs(p.evaluate(outside)[0] - p.evaluate(inside)[0]) + 1e-9

    @pytest.mark.parametrize(
        "coefficient",
        [0.0, -1.0, np.inf, np.nan, "1", True],
        ids=["zero", "negative", "inf", "nan", "str", "bool"],
    )
    def test_wrapper_rejects_a_bad_coefficient_when_built(self, coefficient):
        # True is no coefficient of 1
        with pytest.raises(ValueError, match="^penalty coefficient must be positive and finite$"):
            to_objective(pressure_vessel(), coefficient=coefficient)

    @pytest.mark.parametrize("coefficient", ["1", True], ids=["str", "bool"])
    def test_penalize_rejects_a_coefficient_that_is_no_number(self, coefficient):
        with pytest.raises(ValueError, match="^penalty coefficient must be positive and finite$"):
            penalize(pressure_vessel(), np.array([0.875, 0.4375, 44.5, 149.0]), coefficient)

    def test_wrapper_repairs_before_evaluating(self):
        # the fitness plans its repair once, when built; it must give the bits of
        # the public path, which plans it on every call, half-step ties included
        c = 1e6
        for p in (pressure_vessel(), stepped_beam(), welded_beam()):
            wrapped = to_objective(p, c)
            rows = np.random.default_rng(39).uniform(p.bounds.lower, p.bounds.upper, size=(96, p.dimension))
            for i, kind in enumerate(p.variable_kinds):
                if isinstance(kind, LatticeStep):
                    rows[::3, i] = (np.floor(rows[::3, i] / kind.step) + 0.5) * kind.step
                elif isinstance(kind, ValueSet):
                    midpoints = (kind.members[:-1] + kind.members[1:]) / 2.0
                    rows[::3, i] = midpoints[np.arange(32) % midpoints.size]
            for x in (rows, rows[3]):
                expected = penalize(p, repair_discrete(x, p.variable_kinds), c)
                assert np.asarray(wrapped.objective(x)).tobytes() == np.asarray(expected).tobytes()
            if p.name != "welded-beam":  # the one design with no discrete kind
                assert not np.array_equal(repair_discrete(rows, p.variable_kinds), rows)


class TestConstrainedProblem:
    def one_variable(self, kind):
        bounds = Bounds(np.array([0.0]), np.array([2.0]))
        return ConstrainedProblem("one", ("x",), bounds, (kind,), lambda x: (x[..., 0], x[..., :1] - 1.0))

    def test_kind_that_is_not_an_instance_fails_when_built(self):
        assert self.one_variable(LatticeStep(0.5)).variable_kinds == (LatticeStep(0.5),)
        with pytest.raises(ValueError, match=r"^variable_kinds\[0\]: "):
            self.one_variable(LatticeStep)

    def test_unhashable_kind_fails_when_built(self):
        kinds = ([1], Continuous(), Continuous(), Continuous())
        with pytest.raises(ValueError, match=r"^variable_kinds\[0\]: \[1\] is not a "):
            replace(pressure_vessel(), variable_kinds=kinds)

    @pytest.mark.parametrize(
        "name,value,message",
        [
            ("bounds", (0.0, 2.0), "bounds must be a Bounds, not (0.0, 2.0)"),
            ("evaluate", None, "evaluate must be callable, not None"),
            ("evaluate", 3, "evaluate must be callable, not 3"),
        ],
    )
    def test_fields_are_checked_when_built(self, name, value, message):
        with pytest.raises(ValueError) as exc:
            replace(pressure_vessel(), **{name: value})
        assert str(exc.value) == message


class TestPressureVessel:
    def test_reference_design_cost_and_feasibility(self):
        cost, g = pressure_vessel().evaluate(np.array([0.8750, 0.4375, 44.5025, 149.0235]))
        assert cost == pytest.approx(6189.6362, rel=CITED_RTOL)
        assert hinge(g).max() <= FEAS_TOL

    def test_cpso_design_cost_and_feasibility(self):
        cost, g = pressure_vessel().evaluate(np.array([0.8125, 0.4375, 42.0912, 176.7465]))
        assert cost == pytest.approx(6061.0777, rel=CITED_RTOL)
        assert hinge(g).max() <= FEAS_TOL

    def test_degenerate_radius_is_infeasible(self):
        _, g = pressure_vessel().evaluate(np.array([0.0625, 0.0625, 10.0, 10.0]))
        assert hinge(g).max() > 0.0

    def test_discrete_kinds(self):
        p = pressure_vessel()
        assert p.variable_kinds[0] == LatticeStep(0.0625)
        assert isinstance(p.variable_kinds[2], Continuous)


class TestSteppedBeam:
    CI_SPF = np.array([3, 60, 3.1, 55, 2.6, 50, 2.2046, 44.0915, 1.7497, 34.9951])
    BB_RU = np.array([4, 62, 3.1, 60, 2.6, 55, 2.2052, 44.09, 1.751, 35.03])

    def test_ci_spf_volume(self):
        assert stepped_beam().evaluate(self.CI_SPF)[0] == pytest.approx(63893.4544, rel=CITED_RTOL)

    def test_branch_and_bound_volume(self):
        assert stepped_beam().evaluate(self.BB_RU)[0] == pytest.approx(73555.00, rel=CITED_RTOL)

    def test_doubling_widths_doubles_volume(self):
        p = stepped_beam()
        x = self.CI_SPF.copy()
        doubled = x.copy()
        doubled[0::2] *= 2.0
        assert p.evaluate(doubled)[0] == pytest.approx(2.0 * p.evaluate(x)[0], rel=1e-12)

    def test_quarantined_reference_points(self):
        # both reference designs violate the constraint set once their
        # 4-decimal roundings are evaluated exactly; they stay cost
        # references only, so pin the violations here
        p = stepped_beam()
        ci_viol = hinge(p.evaluate(self.CI_SPF)[1])
        assert ci_viol.max() == pytest.approx(0.4884, abs=0.01)  # tip-segment stress
        assert ci_viol[5] == pytest.approx(0.0472, abs=0.002)  # tip deflection over 2.7
        assert hinge(p.evaluate(self.BB_RU)[1]).max() == pytest.approx(3.0, abs=0.01)  # h3 <= 20 b3

    def test_feasible_interior_design(self):
        _, g = stepped_beam().evaluate(np.array([4, 55, 3.1, 55, 2.8, 50, 3.0, 45.0, 2.5, 35.0]))
        assert hinge(g).max() == 0.0

    def test_aspect_constraint_direction(self):
        _, g = stepped_beam().evaluate(np.array([1, 60, 3.1, 55, 2.6, 50, 2.5, 45.0, 2.0, 35.0]))
        assert hinge(g)[6] > 0.0  # h1=60 versus 20*b1=20


class TestWeldedBeam:
    PSO = np.array([0.2023, 3.5442, 9.0482, 0.2057])
    CBO = np.array([0.2057, 3.4704, 9.0372, 0.2057])

    def test_pso_design_cost_and_feasibility(self):
        cost, g = welded_beam().evaluate(self.PSO)
        assert cost == pytest.approx(1.7280, rel=CITED_RTOL)
        assert hinge(g).max() <= FEAS_TOL

    def test_cbo_design_cost(self):
        assert welded_beam().evaluate(self.CBO)[0] == pytest.approx(1.7246, rel=CITED_RTOL)

    def test_cbo_shear_rounding_quarantine(self):
        # the rounded decimals push the shear stress 2.3 psi over the 13600 cap
        _, g = welded_beam().evaluate(self.CBO)
        assert hinge(g).max() == pytest.approx(2.34, abs=0.05)

    def test_height_above_breadth_violates_geometry(self):
        _, g = welded_beam().evaluate(np.array([0.3, 3.5, 9.0, 0.2]))
        assert hinge(g)[2] == pytest.approx(0.1)

    def test_reported_cost_anomaly_is_excluded(self):
        # the reported 1.7275 for (0.2092, 3.4872, 9.0936, 0.2868) does not
        # follow from the standard cost model, which gives ~2.36; the point
        # is a fixture anomaly, not an acceptance target
        value, _ = welded_beam().evaluate(np.array([0.2092, 3.4872, 9.0936, 0.2868]))
        assert value == pytest.approx(2.3628, abs=2e-3)
        assert abs(value - 1.7275) / 1.7275 > 0.3


# The textbook formulas at 100 bits, each expression as its list of
# additive terms: (cost terms, [terms of g_1, ..., g_m]).
def _vessel_terms(x):
    ts, th, r, length = x
    pi = mpmath.pi
    cost = [0.6224 * ts * r * length, 1.7781 * th * r**2, 3.1661 * ts**2 * length, 19.84 * ts**2 * r]
    g = [[-ts, 0.0193 * r], [-th, 0.00954 * r], [-pi * r**2 * length, -mpmath.mpf(4) / 3 * pi * r**3, 1296000], [length, -240]]
    return cost, g


def _stepped_beam_terms(x):
    widths, heights = x[0::2], x[1::2]
    p, seg, e = 50000, 100, mpmath.mpf("2e7")
    cost = [seg * b * h for b, h in zip(widths, heights)]
    # the bending moment at segment i's root is P times its distance from the tip
    stress = [[6 * p * (5 - i) * seg / (b * h**2), -14000] for i, (b, h) in enumerate(zip(widths, heights))]
    inertia = [b * h**3 / 12 for b, h in zip(widths, heights)]
    tip = p * seg**3 / (3 * e) * mpmath.fsum(w / i for w, i in zip((61, 37, 19, 7, 1), inertia))
    aspect = [[h, -20 * b] for b, h in zip(widths, heights)]
    return cost, [*stress, [tip, -2.7], *aspect]


def _welded_beam_terms(x):
    h, l, t, b = x
    p, length, e, g_mod = 6000, 14, mpmath.mpf("30e6"), mpmath.mpf("12e6")
    tau_primary = p / (mpmath.sqrt(2) * h * l)
    radius = mpmath.sqrt(l**2 / 4 + ((h + t) / 2) ** 2)
    polar = 2 * (mpmath.sqrt(2) * h * l * (l**2 / 12 + ((h + t) / 2) ** 2))
    tau_secondary = p * (length + l / 2) * radius / polar
    tau = mpmath.sqrt(tau_primary**2 + 2 * tau_primary * tau_secondary * l / (2 * radius) + tau_secondary**2)
    buckling = 4.013 * e * mpmath.sqrt(t**2 * b**6 / 36) / length**2 * (1 - t / (2 * length) * mpmath.sqrt(e / (4 * g_mod)))
    cost = [1.10471 * h**2 * l, 0.04811 * t * b * (14 + l)]
    g = [
        [tau, -13600],
        [6 * p * length / (b * t**2), -30000],
        [h, -b],
        [0.10471 * h**2, 0.04811 * t * b * (14 + l), -5],
        [0.125, -h],
        [4 * p * length**3 / (e * t**3 * b), -0.25],
        [p, -buckling],
    ]
    return cost, g


class TestDesignsAgainstHighPrecision:
    # rows spread over each box; a value must lie within 1e-12 of the sum of
    # its expression's absolute terms, so cancellation near g_j = 0 does not
    # count against it. The references read the formulas, not the code; the
    # decimal coefficients are read as the doubles the code holds.
    @pytest.mark.parametrize(
        "design, reference",
        [(pressure_vessel, _vessel_terms), (stepped_beam, _stepped_beam_terms), (welded_beam, _welded_beam_terms)],
        ids=["pressure-vessel", "stepped-beam", "welded-beam"],
    )
    def test_cost_and_constraints_match_the_formulas(self, design, reference):
        problem = design()
        low, high = problem.bounds.lower, problem.bounds.upper
        rows = np.random.default_rng(37).uniform(low, high, size=(48, problem.dimension))
        costs, constraints = problem.evaluate(rows)
        with mpmath.workprec(100):
            for x, cost, g in zip(rows, costs, constraints):
                cost_terms, g_terms = reference([mpmath.mpf(float(v)) for v in x])
                assert len(g_terms) == len(g)
                for value, terms in [(cost, cost_terms), *zip(g, g_terms)]:
                    assert abs(value - mpmath.fsum(terms)) <= 1e-12 * mpmath.fsum(map(abs, terms)), (x, value, terms)
