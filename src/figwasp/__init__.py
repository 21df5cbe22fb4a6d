"""Fig-tree/wasp coevolution optimizer, benchmark suite, and statistics harness."""

from .core import (
    Bounds,
    ObjectiveProblem,
    RandomStream,
    derive_seed,
    evaluate_batch,
)
from .engine import FwscParams, RunResult, run, run_many

__all__ = [
    "Bounds",
    "ObjectiveProblem",
    "RandomStream",
    "derive_seed",
    "evaluate_batch",
    "FwscParams",
    "RunResult",
    "run",
    "run_many",
]
