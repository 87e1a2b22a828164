"""The evaluation, experiment, library, service and STA drivers submit
every simulation through :func:`repro.exec.run_jobs`: none of them calls
the engine's entry points directly, so each follows the default
execution (worker pool, result store) like Table 1 does."""

import ast
from pathlib import Path

import pytest

import repro.circuit
import repro.circuit.transient

SRC = Path(__file__).resolve().parent.parent / "src" / "repro"
ENGINE_ENTRIES = {"simulate_transient", "simulate_transient_many"}
DRIVER_PACKAGES = ("core", "experiments", "library", "service", "sta")


def _engine_uses(path: Path) -> list[str]:
    """``line: name`` for every import or attribute use of an engine
    entry, and every zero-argument ``.run()`` call — the spelling of
    :meth:`~repro.circuit.transient.TransientJob.run` (the service's
    ``job.run(execution, emit)`` takes arguments)."""
    uses = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "run"
              and not node.args and not node.keywords):
            uses.append(f"{node.lineno}: run()")
            continue
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


@pytest.mark.parametrize("module", [repro.circuit, repro.circuit.transient],
                         ids=lambda m: m.__name__)
def test_one_transient_run_has_one_spelling(module):
    assert not hasattr(module, "simulate_transient")
