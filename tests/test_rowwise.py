"""Row-wise objectives equal their one-point calls bit for bit.

Every objective is row-wise, so the engine evaluates a whole batch in one
call. The benchmark objectives and the penalized design fitnesses also take
one point, and the two must agree exactly: ``objective(X)[i]`` has the same
bits as ``objective(X[i])``, or row-wise runs would drift from the
one-point definition of the function. The bits of every objective on
fixed rows are pinned as well, so a rewrite of a formula cannot move a
value unseen:

    PYTHONPATH=src python tests/test_rowwise.py  # prints the digest table
"""

import hashlib
from dataclasses import replace

import numpy as np
from numpy._core import _multiarray_umath
import pytest
from hypothesis import assume, given, settings, strategies as st

from figwasp.benchmarks import BENCHMARK_IDS, SPECS, make_benchmark
from figwasp.constrained import ENGINEERING_PROBLEMS, to_objective
from figwasp.engine import GROUP_FLOATS

CASES = [
    (fid, dim)
    for fid in BENCHMARK_IDS
    for dim in sorted({min(SPECS[fid].dimensions), max(SPECS[fid].dimensions)})
] + [(pid, None) for pid in ENGINEERING_PROBLEMS]
CONSTRAINT_COUNTS = {"pressure-vessel": 4, "stepped-beam": 11, "welded-beam": 7}


def _case_id(pid, dim):
    return f"{pid}@{dim}" if dim else pid


def _problem(pid, dim):
    if dim is None:
        return to_objective(ENGINEERING_PROBLEMS[pid])
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


@pytest.mark.parametrize("pid,dim", CASES, ids=[_case_id(pid, dim) for pid, dim in CASES])
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
        design = ENGINEERING_PROBLEMS[pid]
        functions += [(design.objective, (n,)), (design.constraints, (n, CONSTRAINT_COUNTS[pid]))]
    for function, shape in functions:
        with np.errstate(all="ignore"):
            rows = np.asarray(function(points), dtype=float)
            one_by_one = np.array([function(x) for x in points], dtype=float)
        assert rows.shape == one_by_one.shape == shape
        assert rows.tobytes() == one_by_one.tobytes()


# sha256 of objective(rows), float64 bytes, on DIGEST_ROWS seeded in-box rows
# per case. Every case in OBJECTIVE_DIGESTS has one digest at every numpy
# dispatch level; DISPATCH_DEPENDENT holds the rest.
DIGEST_ROWS, DIGEST_SEED = 64, 2030
OBJECTIVE_DIGESTS = {
    "F1@30": "9fbda9eda7d3d9b594e252b8178e9f6d50ade18c4c7a14737d8405ee17973d9c",
    "F1@1000": "dfa65c9859157f0b3aa97590346c0db63eeccb93569c111683145638c2292567",
    "F2@30": "9577edd79e22b832a73b1237bce00572deecf45a9921e3bdaa57be6aadce557e",
    "F2@1000": "d46ff5fb4c73b89d55fd5eb95922d4ab6127ca91dc665391fa849bb48b2b8431",
    "F3@30": "9bfeb6a7bb43b7a6fbbc8a18413b7f132580008b2374c484bc9551ef781aa801",
    "F3@1000": "74055974e3d12942425feb0d756d41cc052b2f1031222eec94f822c2f0cf8bb7",
    "F4@30": "b28fcebe827d11d5b31f9aa78fbb4e451fd9035ddf0439e571899b230ebebf47",
    "F4@1000": "88fdc8b10dbbca71050942f2fe62a63d44d4eb054040b3bab4ce7e78c363e0b7",
    "F5@30": "3bce7d3ae5a705ba3466d83eaa212fc01d86d64921da6c590103ecc29d2abeea",
    "F5@1000": "e15c3c2f16011139c89ddbede4c91093d14d12375f4bc5b6b23d5e6f8695da7c",
    "F6@30": "4cb79bcf8695e038c12d37f4fcd56ef6ad89c3c223b9142865153c5784a38cfe",
    "F6@1000": "28bc5b0c041d0675537e3b9549a3a9544af8cb78df065de13888261d4ea6e55c",
    "F8@30": "8a61d6a6e17196171db8a1394a606441a9b1b2d5b08a1a4256dd29803e579273",
    "F8@1000": "75cc4a09e0672d2ee39a0c1b49a606976b3dffd0f8f1e10c864448ecb9eb9e88",
    "F9@30": "2b74ddd801af5e4d2e98c386d26993f4f28489379c7367f1fb00b2ea3fff28c8",
    "F9@1000": "ad342ca2df65a240bbfb49b89d40157b97a03aa7d84c09c6333d9ebe6209c3d4",
    "F10@30": "4a8f732c62824f735db194613acd302a1fb6189dbb574c33cc95f746cac4dd35",
    "F10@1000": "9d5de094d0ac3567cd2761a9394562bddf9fb1322e2e8f4a880769b4b20b6d91",
    "F11@30": "3d47f5681dd7f6a6794cb46820adaa50cae01df8fc10672ddaae2ab5cdbbb6bd",
    "F11@1000": "e5d433fa63c23ae4ca8d336b3481c50f8fc0992d68b4762968750be35d22b1ce",
    "F12@30": "d1487d0d73d289496707e36d9eb4aeacb55a581bb07c1bd70949f82391270659",
    "F12@1000": "a99d4de52f4e5e7806ca505a0a201f93ca65941497d4de607519a2eeb0b8aa24",
    "F13@30": "0aa4a80e2ba41d1a74039b4b3285b08a7c896f9f16adf91e3b7e866355df7b28",
    "F13@1000": "6cdd7ffed45fd902e336488ee201e31da9bf3df062c64649341a7ff660e550f4",
    "F14@2": "6a8988234150b77c08e1deee3cd7656d66b86d5f20b49c1a046a68274d3251a8",
    "F15@4": "1df60dbdd48292d0210825e93292a887d79e4684e59d027955822aa15d5e4df8",
    "F16@2": "358c5441eda3f42dc30b605079328d8d429755c7ace51d8cb50eee4757a346e4",
    "F17@2": "db50b7304842a533a2949cfa127187ac3d65f974f1985e27e647fae57b8d6bb0",
    "F18@2": "3042a560886fb447f570c41cf3e16b426d76d63add26866f8bd7de4a27c8ce0f",
    "F21@4": "d267362c801b342cca31771e9f917fdaf1dca0db4e6f095a0c603ae3a162a90e",
    "F22@4": "e5b6dc27cd027ab67e575fb76a3effd81c01f3873b754c3db6dd44cfef915a30",
    "F23@4": "2e7f762d3eff791a715cc7892a00b19a08a076fc42945ddbaef01468229e011f",
    "pressure-vessel": "306f42ba1ec96f2379cae474a6f06ed9673cbc4edfabc710f3c771eae9191a55",
    "stepped-beam": "47f8b4cc1b74ed595e18b635941e4b2533a13850ce963a1cd8e6846daf793a4b",
    "welded-beam": "877a26c7c628ad7bea17f3c9e7bb4573fdd4325a1fbe0e098380ba8529564701",
}


# The cases whose bits follow numpy's SIMD dispatch level, one exact digest
# per level: `**` with an exponent other than 2 (F7's `x**4`) and `np.exp`
# (Hartman, F19 and F20) run SIMD kernels whose last bit differs between
# AVX-512 (X86_V4) and AVX2 (X86_V3). F10 also calls `np.exp`, but its 64
# rows happen to agree at both levels. ROADMAP item 1 takes F7's power.
DISPATCH_DEPENDENT = {
    "F7@30": {
        "X86_V4": "49c3c766f4486446690cdf1a55af53bbd16aef220c7f4b94def9449751a0d111",
        "X86_V3": "0c2ed59191c1ecfc3d026eebf687b182897c9ee627b97b7c801d6627c1a09c29",
    },
    "F7@1000": {
        "X86_V4": "f00843205ed85ead1667357ca6d16f3b718e2757351339a29f1730e8a93d2001",
        "X86_V3": "b3373a32cacacff5022097754128ac19e329f460c607db2a9abb80f98bbb380b",
    },
    "F19@3": {
        "X86_V4": "41b5934e66b7e73a53151256ec5439e4bdb4f05113792d8be07537396dc665ab",
        "X86_V3": "fa1ba0766d60cb8bbb275d7e0a0f5283649561cc3fa2fc3a83ea77644c6e218e",
    },
    "F20@6": {
        "X86_V4": "a80e096aa69882490dbc81a661f3e3ae176a33cc5ea127859063a658695c97a6",
        "X86_V3": "460e8793666976b1ccb0406fe0691f18e226ac8be8b6d4de1a210c6393c1dcd1",
    },
}


def _dispatch_level():
    features = _multiarray_umath.__cpu_features__
    return next((level for level in ("X86_V4", "X86_V3") if features.get(level)), "below X86_V3")


def _objective_digest(pid, dim):
    problem = _problem(pid, dim)
    values = np.asarray(problem.objective(_points(problem, DIGEST_ROWS, DIGEST_SEED, "box")), dtype=np.float64)
    return hashlib.sha256(values.tobytes()).hexdigest()


@pytest.mark.parametrize("pid,dim", CASES, ids=[_case_id(pid, dim) for pid, dim in CASES])
def test_objective_bits_are_pinned(pid, dim):
    case = _case_id(pid, dim)
    if case in OBJECTIVE_DIGESTS:
        expected = OBJECTIVE_DIGESTS[case]
    else:
        level = _dispatch_level()
        if level not in DISPATCH_DEPENDENT[case]:
            pytest.fail(f"{case}: no digest recorded at numpy dispatch level {level}")
        expected = DISPATCH_DEPENDENT[case][level]
    assert _objective_digest(pid, dim) == expected


if __name__ == "__main__":
    level = _dispatch_level()
    for pid, dim in CASES:
        case = _case_id(pid, dim)
        note = f"  # DISPATCH_DEPENDENT, {level}" if case in DISPATCH_DEPENDENT else ""
        print(f'    "{case}": "{_objective_digest(pid, dim)}",{note}')
