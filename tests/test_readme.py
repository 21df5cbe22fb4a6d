"""The README's Library examples run as written.

The ```python blocks of the "Library" section run in order, in one
namespace, as a reader would paste them, importing nothing but numpy and
figwasp. So the documented constructors and calls cannot drift from the
code.
"""

import ast
import re
from pathlib import Path

import numpy as np

from figwasp import FwscParams, run

README = Path(__file__).resolve().parent.parent / "README.md"


def library_blocks():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.M | re.S)


def test_library_section_has_examples():
    assert len(library_blocks()) >= 3


def test_examples_import_only_numpy_and_figwasp():
    for block in library_blocks():
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            assert all(m.split(".")[0] in ("numpy", "figwasp") for m in modules), ast.unparse(node)


def test_examples_run_in_order():
    namespace = {}
    for i, block in enumerate(library_blocks()):
        exec(compile(block, f"README.md Library block {i + 1}", "exec"), namespace)
    # the row-wise sphere and its one-point adapter are the same problem
    params = FwscParams(max_iterations=5)
    rows, points = run(namespace["problem"], params, seed=3), run(namespace["one_by_one"], params, seed=3)
    assert rows.trace.tobytes() == points.trace.tobytes()
    assert rows.best_position.tobytes() == points.best_position.tobytes()
    assert namespace["problem"].dimension == 30
    results = namespace["results"]
    assert [r.seed for r in results] == [1, 2, 3, 4]
    assert all(np.isfinite(r.best_fitness) for r in results)
    # ranks within rows (1,2,3), (2,1,3), (1,3,2), (1,2,3); differences 2, 1, 1, 2 all positive
    assert namespace["mean_ranks"].tolist() == [1.25, 2.0, 2.75]
    assert namespace["ordinals"].tolist() == [1, 2, 3]
    assert namespace["comparison"] == (0.125, 10.0, 0.0)
