"""Golden traces: the engine's outputs for pinned seeds must not change.

A run is a pure function of (problem, params, seed), and the order in which
values are drawn from the random stream is part of that contract. The
fixture holds, per case, the sha256 of the trace and of the best position
(float64 bytes) and the evaluation count, recorded from the engine when the
fixture was written. A change that alters the random stream on purpose
rewrites the fixture and says why:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from figwasp.cli import ExperimentConfig, resolve_problem, resolved_params
from figwasp.constrained import DEFAULT_PENALTY_COEFFICIENT
from figwasp.engine import FwscParams, run

FIXTURE = Path(__file__).with_name("golden_traces.json")
GENERATIONS = 100
CASES = [
    (pid, dim, seed)
    for pid, dim in [
        ("F1", 30),
        ("F7", 30),
        ("F9", 30),
        ("F16", 2),
        ("pressure-vessel", 4),
        ("welded-beam", 4),
        ("stepped-beam", 10),
    ]
    for seed in (11, 2024)
]


def _sha256(array) -> str:
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()


def digests(pid: str, dim: int, seed: int) -> dict:
    problem = resolve_problem(pid, dim, DEFAULT_PENALTY_COEFFICIENT)
    params = resolved_params(ExperimentConfig(problems=[(pid, dim)]), problem)
    result = run(problem, replace(params, max_iterations=GENERATIONS), seed)
    return {
        "trace_sha256": _sha256(result.trace),
        "best_sha256": _sha256(result.best_position),
        "evaluations": result.evaluations,
    }


def _key(pid: str, dim: int, seed: int) -> str:
    return f"{pid}@{dim}/{seed}"


@pytest.mark.parametrize("pid,dim,seed", CASES, ids=[_key(*case) for case in CASES])
def test_golden_trace(pid, dim, seed):
    expected = json.loads(FIXTURE.read_text())
    assert digests(pid, dim, seed) == expected[_key(pid, dim, seed)]


# One female per fig (wasps_per_fig=2), a path no fixture case runs: the sha256
# over the trace and best position of each run in turn, recorded before
# `mate` lost its one-female branch. The objectives take products, `cos` and
# sums only, so the digest holds at numpy's AVX2 level too.
ONE_FEMALE_SHA256 = "9ec89397581cda90408dab1778d7af263f08be72170183b5fa2918df1ca169db"


def test_one_female_runs_are_pinned():
    params = FwscParams(wasps_per_fig=2, max_iterations=60, eta0=5.0)
    digest = hashlib.sha256()
    for pid in ("F1", "F9"):
        problem = resolve_problem(pid, 30, DEFAULT_PENALTY_COEFFICIENT)
        for seed in (1, 2, 3):
            result = run(problem, params, seed)
            digest.update(np.ascontiguousarray(result.trace, dtype=np.float64).tobytes())
            digest.update(np.ascontiguousarray(result.best_position, dtype=np.float64).tobytes())
    assert digest.hexdigest() == ONE_FEMALE_SHA256


if __name__ == "__main__":
    FIXTURE.write_text(json.dumps({_key(*case): digests(*case) for case in CASES}, indent=2) + "\n")
