"""The experiment, library and STA drivers submit every simulation
through :func:`repro.exec.run_jobs`: none of them calls the engine's
entry points directly, so each follows the default execution (worker
pool, result store) like Table 1 does."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ENGINE_ENTRIES = {"simulate_transient", "simulate_transient_many"}
DRIVER_PACKAGES = ("experiments", "library", "sta")


def _engine_uses(path: Path) -> list[str]:
    """``line: name`` for every import or attribute use of an engine entry."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        else:
            continue
        uses += [f"{node.lineno}: {n}" for n in names if n in ENGINE_ENTRIES]
    return uses


@pytest.mark.parametrize("package", DRIVER_PACKAGES)
def test_drivers_do_not_call_the_engine_directly(package):
    modules = sorted((SRC / package).rglob("*.py"))
    assert modules, f"no modules under {package}"
    offenders = {str(m.relative_to(SRC)): uses for m in modules
                 if (uses := _engine_uses(m))}
    assert offenders == {}
