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
# per case. Like golden_traces.json, the digests depend on numpy's SIMD
# dispatch: `**` with an exponent other than 2 takes a SIMD pow on AVX-512.
# ROADMAP item 5 (integer powers by multiplication) re-records them.
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
    "F7@30": "49c3c766f4486446690cdf1a55af53bbd16aef220c7f4b94def9449751a0d111",
    "F7@1000": "f00843205ed85ead1667357ca6d16f3b718e2757351339a29f1730e8a93d2001",
    "F8@30": "8a61d6a6e17196171db8a1394a606441a9b1b2d5b08a1a4256dd29803e579273",
    "F8@1000": "75cc4a09e0672d2ee39a0c1b49a606976b3dffd0f8f1e10c864448ecb9eb9e88",
    "F9@30": "2b74ddd801af5e4d2e98c386d26993f4f28489379c7367f1fb00b2ea3fff28c8",
    "F9@1000": "ad342ca2df65a240bbfb49b89d40157b97a03aa7d84c09c6333d9ebe6209c3d4",
    "F10@30": "4a8f732c62824f735db194613acd302a1fb6189dbb574c33cc95f746cac4dd35",
    "F10@1000": "9d5de094d0ac3567cd2761a9394562bddf9fb1322e2e8f4a880769b4b20b6d91",
    "F11@30": "3d47f5681dd7f6a6794cb46820adaa50cae01df8fc10672ddaae2ab5cdbbb6bd",
    "F11@1000": "e5d433fa63c23ae4ca8d336b3481c50f8fc0992d68b4762968750be35d22b1ce",
    "F12@30": "0212bdea6872a7d75ea93403799e5672a9240b24fa196173d3104ccd85f6633b",
    "F12@1000": "2250119ecb3e2ca5957580d165cbfded28ba7fc6bb42c125d1953a60aea1e885",
    "F13@30": "8ce5c5bbe720270fb594c8bde97ffa176d3b457f0c6dc2203134373695b94fbe",
    "F13@1000": "d4f56cc52fd7d74e177406185ec8440d36aa81e8d12e3b00bd17f6c5a2a80b34",
    "F14@2": "a2b809bc30ebc351fce222e0405d80fb91b8a048b8275e3f1f70f0aa6149eaf2",
    "F15@4": "1df60dbdd48292d0210825e93292a887d79e4684e59d027955822aa15d5e4df8",
    "F16@2": "358c5441eda3f42dc30b605079328d8d429755c7ace51d8cb50eee4757a346e4",
    "F17@2": "db50b7304842a533a2949cfa127187ac3d65f974f1985e27e647fae57b8d6bb0",
    "F18@2": "3042a560886fb447f570c41cf3e16b426d76d63add26866f8bd7de4a27c8ce0f",
    "F19@3": "41b5934e66b7e73a53151256ec5439e4bdb4f05113792d8be07537396dc665ab",
    "F20@6": "a80e096aa69882490dbc81a661f3e3ae176a33cc5ea127859063a658695c97a6",
    "F21@4": "d267362c801b342cca31771e9f917fdaf1dca0db4e6f095a0c603ae3a162a90e",
    "F22@4": "e5b6dc27cd027ab67e575fb76a3effd81c01f3873b754c3db6dd44cfef915a30",
    "F23@4": "2e7f762d3eff791a715cc7892a00b19a08a076fc42945ddbaef01468229e011f",
    "pressure-vessel": "306f42ba1ec96f2379cae474a6f06ed9673cbc4edfabc710f3c771eae9191a55",
    "stepped-beam": "47f8b4cc1b74ed595e18b635941e4b2533a13850ce963a1cd8e6846daf793a4b",
    "welded-beam": "877a26c7c628ad7bea17f3c9e7bb4573fdd4325a1fbe0e098380ba8529564701",
}


def _objective_digest(pid, dim):
    problem = _problem(pid, dim)
    values = np.asarray(problem.objective(_points(problem, DIGEST_ROWS, DIGEST_SEED, "box")), dtype=np.float64)
    return hashlib.sha256(values.tobytes()).hexdigest()


@pytest.mark.parametrize("pid,dim", CASES, ids=[_case_id(pid, dim) for pid, dim in CASES])
def test_objective_bits_are_pinned(pid, dim):
    assert _objective_digest(pid, dim) == OBJECTIVE_DIGESTS[_case_id(pid, dim)]


if __name__ == "__main__":
    for pid, dim in CASES:
        print(f'    "{_case_id(pid, dim)}": "{_objective_digest(pid, dim)}",')
