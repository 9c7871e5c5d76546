"""The names that the benchmark reads off the package.

``perfbench/checks.py`` calls the public API as ``mw.<name>``, and
``perfbench/run.py`` times the region builders named in its ``REGION_AT``.
A refactor that drops one of them breaks the benchmark's correctness check
or silently empties a timing, and no other test runs either file.
"""

import ast
import re
from pathlib import Path

import macwiretap
from macwiretap import regions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _region_at_names() -> tuple[str, ...]:
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "REGION_AT" for target in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py assigns no REGION_AT")


def test_every_name_the_benchmark_reads_exists():
    # checks.py reads ``mw.<name>`` off the package; run.py's span names
    # ``regions.<name>`` record only functions defined in that module
    checks = (PERFBENCH / "checks.py").read_text(encoding="utf-8")
    called = sorted(set(re.findall(r"\bmw\.([A-Za-z_]\w*)", checks)))
    region_at = _region_at_names()
    assert called and region_at
    assert [name for name in called if not hasattr(macwiretap, name)] == []
    assert [name for name in region_at
            if getattr(getattr(regions, name, None), "__module__", None) != regions.__name__] == []
