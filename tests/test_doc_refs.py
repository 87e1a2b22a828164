"""Documentation references must point at things that exist.

* Every ``*.md`` file a source, test, benchmark, tool or example file
  cites exists, either at the repository root or next to the citing
  file.
* Every ``python -m repro…`` command in README.md names a module that
  resolves (a package must also have a ``__main__``).
"""

from __future__ import annotations

import importlib.util
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CODE_DIRS = ("src", "tests", "benchmarks", "tools", "examples")

_MD_REF = re.compile(r"(?<![\w./-])(\w[\w./-]*\.md)\b")
# ``repro`` or ``repro.<sub>`` exactly: ``python -m reprolint`` is a tool,
# not a package module.
_RUN_MODULE = re.compile(r"python3? -m (repro(?:\.\w+)*)(?!\w)")


def _missing_md(path: Path) -> list[str]:
    """``file:line: ref`` for every cited ``*.md`` that does not exist."""
    rel = path.relative_to(REPO)
    return [f"{rel}:{n}: {ref}"
            for n, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), start=1)
            for ref in _MD_REF.findall(line)
            if not (REPO / ref).exists() and not (path.parent / ref).exists()]


def _resolves(module: str) -> bool:
    spec = importlib.util.find_spec(module)
    if spec is None:
        return False
    if spec.submodule_search_locations is not None:
        return importlib.util.find_spec(f"{module}.__main__") is not None
    return True


def test_cited_markdown_files_exist():
    missing = [entry for top in CODE_DIRS
               for path in sorted((REPO / top).rglob("*.py"))
               for entry in _missing_md(path)]
    assert not missing, "\n".join(missing)


def test_readme_run_modules_resolve():
    modules = sorted(set(_RUN_MODULE.findall(
        (REPO / "README.md").read_text(encoding="utf-8"))))
    assert modules, "README.md names no python -m repro module"
    unresolved = [m for m in modules if not _resolves(m)]
    assert not unresolved, unresolved
