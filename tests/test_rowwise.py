"""Row-wise objectives equal their one-point calls bit for bit.

Every objective is row-wise, so the engine evaluates a whole batch in one
call. The benchmark objectives and the penalized design fitnesses also take
one point, and the two must agree exactly: ``objective(X)[i]`` has the same
bits as ``objective(X[i])``, or row-wise runs would drift from the
one-point definition of the function.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from figwasp.benchmarks import BENCHMARK_IDS, SPECS, make_benchmark
from figwasp.cli import GROUP_FLOATS
from figwasp.constrained import ENGINEERING_PROBLEMS, to_objective

CASES = [
    (fid, dim)
    for fid in BENCHMARK_IDS
    for dim in sorted({min(SPECS[fid].dimensions), max(SPECS[fid].dimensions)})
] + [(pid, None) for pid in ENGINEERING_PROBLEMS]
CONSTRAINT_COUNTS = {"pressure-vessel": 4, "stepped-beam": 11, "welded-beam": 7}


def _problem(pid, dim):
    if dim is None:
        return to_objective(ENGINEERING_PROBLEMS[pid]())
    return replace(make_benchmark(pid, dim), noise=None)


# where the points come from: anywhere in the box, near its centre (tiny
# coordinates), its corners, and a half-integer grid (ties and rounding
# edges of Step and the discrete lattices)
MODES = ("box", "centre", "corners", "grid")


def _points(problem, n, seed, mode):
    rng = np.random.default_rng(seed)
    lower, upper = problem.bounds.lower, problem.bounds.upper
    u = rng.uniform(size=(n, problem.dimension))
    if mode == "centre":
        u = 0.5 + (u - 0.5) * 1e-6
    elif mode == "corners":
        u = np.round(u)
    elif mode == "grid":
        return np.clip(np.round((lower + u * (upper - lower)) * 2.0) / 2.0, lower, upper)
    return lower + u * (upper - lower)


@pytest.mark.parametrize("pid,dim", CASES, ids=[f"{pid}@{dim}" if dim else pid for pid, dim in CASES])
@settings(deadline=None, max_examples=25)
# large batches too: `**` on a float64 scalar and on an array disagree in
# the last bit for well under 1% of inputs. A lockstep group hands an
# objective at most GROUP_FLOATS // d rows; the last two sizes are that
# largest batch at d=30 and at d=2.
@given(
    n=st.sampled_from([1, 2, 3, 5, 8, 500, GROUP_FLOATS // 30, GROUP_FLOATS // 2]),
    seed=st.integers(0, 2**32 - 1),
    mode=st.sampled_from(MODES),
)
def test_rowwise_equals_one_point_calls(pid, dim, n, seed, mode):
    problem = _problem(pid, dim)
    assume(n <= 500 or n * problem.dimension <= GROUP_FLOATS)
    points = _points(problem, n, seed, mode)
    functions = [(problem.objective, (n,))]
    if dim is None:
        # the raw design terms too: the penalty can round a last-bit
        # difference in one term away. The constraint kernel's (n, m) rows
        # must equal its one-point (m,) calls stacked.
        design = ENGINEERING_PROBLEMS[pid]()
        functions += [(design.objective, (n,)), (design.constraints, (n, CONSTRAINT_COUNTS[pid]))]
    for function, shape in functions:
        with np.errstate(all="ignore"):
            rows = np.asarray(function(points), dtype=float)
            one_by_one = np.array([function(x) for x in points], dtype=float)
        assert rows.shape == one_by_one.shape == shape
        assert rows.tobytes() == one_by_one.tobytes()
