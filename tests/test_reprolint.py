"""reprolint: each rule catches its seeded violation, the real tree is
clean, waivers round-trip, and the runtime store-key guard mirrors R1."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from reprolint import all_rules, run  # noqa: E402
from reprolint.core import extract_waivers  # noqa: E402
from reprolint.reporters import render_human, render_json  # noqa: E402

from repro._knobs import KNOBS, knob, knob_table_markdown  # noqa: E402
from repro.circuit.transient import TransientOptions  # noqa: E402
from repro.exec.config import ExecutionConfig  # noqa: E402
from repro.exec.store import KEYED_FIELDS, _options_items  # noqa: E402
from repro.experiments.table1 import default_case_count  # noqa: E402

SRC_REPRO = REPO / "src" / "repro"
REAL_TRANSIENT = (SRC_REPRO / "circuit" / "transient.py").read_text()
REAL_STORE = (SRC_REPRO / "exec" / "store.py").read_text()


def lint(tmp_path, files, rules=None):
    """Write ``{relpath: source}`` under ``tmp_path`` and lint it."""
    for rel, source in files.items():
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
    return run([tmp_path], rule_ids=rules)


def messages(result, rule=None):
    return [f.message for f in result.findings
            if not f.waived and (rule is None or f.rule == rule)]


# ---------------------------------------------------------------- framework

def test_registry_has_the_five_rules():
    assert set(all_rules()) == {"store-key", "silent-fallback", "env-knob",
                                "nan-policy", "fault-seam"}


def test_unknown_rule_id_rejected(tmp_path):
    with pytest.raises(ValueError, match="no-such-rule"):
        run([tmp_path], rule_ids=["no-such-rule"])


def test_unparseable_file_is_reported_not_fatal(tmp_path):
    result = lint(tmp_path, {"bad.py": "def broken(:\n"})
    assert result.exit_code == 1
    assert any(f.rule == "reprolint" and "does not parse" in f.message
               for f in result.findings)


def test_clean_tree_self_lint():
    """The acceptance gate: reprolint over src/repro exits 0."""
    result = run([SRC_REPRO])
    assert result.files_scanned > 40
    assert result.errors == [], render_human(result)
    assert result.warnings == [], render_human(result)
    assert result.waived == []


def test_cli_json_report(tmp_path):
    out = tmp_path / "reprolint.json"
    env = dict(os.environ, PYTHONPATH="src:tools")
    proc = subprocess.run(
        [sys.executable, "-m", "reprolint", "src/repro",
         "--json", str(out)],
        cwd=REPO, env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    payload = json.loads(out.read_text())
    assert payload["tool"] == "reprolint"
    assert payload["summary"]["errors"] == 0
    assert payload["summary"]["exit_code"] == 0
    assert payload["files_scanned"] > 40


def test_render_json_round_trips(tmp_path):
    result = lint(tmp_path, {"x.py": "import os\n"})
    payload = json.loads(render_json(result))
    assert payload["summary"]["errors"] == len(result.errors)


# ------------------------------------------------------- R1: store-key

def test_r1_clean_copies_pass(tmp_path):
    result = lint(tmp_path, {"circuit/transient.py": REAL_TRANSIENT,
                             "exec/store.py": REAL_STORE},
                  rules=["store-key"])
    assert messages(result) == []


def test_r1_undeclared_field_is_caught(tmp_path):
    anchor = "    min_step: float = 0.0"
    assert anchor in REAL_TRANSIENT
    seeded = REAL_TRANSIENT.replace(
        anchor, anchor + "\n    dummy_knob: float = 0.0")
    result = lint(tmp_path, {"circuit/transient.py": seeded,
                             "exec/store.py": REAL_STORE},
                  rules=["store-key"])
    msgs = messages(result)
    assert len(msgs) == 1 and "dummy_knob" in msgs[0]
    assert result.findings[0].path.endswith("circuit/transient.py")


def test_r1_stale_and_bypassed_declarations(tmp_path):
    result = lint(tmp_path, {
        "circuit/transient.py": """\
            class TransientOptions:
                abstol: float = 1e-9
            """,
        "exec/store.py": """\
            KEYED_FIELDS = frozenset({"abstol", "ghost"})

            def _options_items(options):
                return ((\"abstol\", options.abstol),)

            def job_key(job):
                return ("k", job.options.abstol)
            """,
    }, rules=["store-key"])
    msgs = messages(result)
    assert any("ghost" in m and "stale" in m for m in msgs)
    assert any("_options_items does not filter" in m for m in msgs)
    assert any("job_key must hash options through _options_items" in m
               for m in msgs)


def test_runtime_guard_mirrors_r1():
    """Adding a field without declaring it fails at runtime too."""
    Ext = dataclasses.make_dataclass(
        "Ext", [("dummy_knob", float, dataclasses.field(default=0.0))],
        bases=(TransientOptions,), frozen=True)
    with pytest.raises(ValueError, match="dummy_knob"):
        _options_items(Ext())


def test_runtime_guard_declarations_cover_all_fields():
    names = {f.name for f in dataclasses.fields(TransientOptions)}
    assert names == set(KEYED_FIELDS)
    items = _options_items(TransientOptions())
    assert [n for n, _ in items] == sorted(KEYED_FIELDS)


# -------------------------------------------------- R3: silent-fallback

def test_r3_swallowed_exception_caught(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        def f():
            try:
                risky()
            except Exception:
                pass
        """}, rules=["silent-fallback"])
    assert len(messages(result)) == 1


def test_r3_bare_and_tuple_excepts_caught(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        def f():
            try:
                risky()
            except:
                x = 1
            try:
                risky()
            except (ValueError, Exception):
                x = 2
        """}, rules=["silent-fallback"])
    assert len(messages(result)) == 2


def test_r3_traced_handlers_pass(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import warnings

        def f(stats):
            try:
                risky()
            except Exception:
                stats["fallbacks"] += 1
            try:
                risky()
            except Exception:
                warnings.warn("degraded")
            try:
                risky()
            except Exception as exc:
                raise RuntimeError("ctx") from exc
            try:
                risky()
            except ValueError:
                pass  # narrow catches are out of scope
        """}, rules=["silent-fallback"])
    assert messages(result) == []


# ------------------------------------------------------ R4: env-knob

def test_r4_raw_repro_reads_caught(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import os

        def f():
            a = os.environ.get("REPRO_FOO")
            b = os.getenv("REPRO_BAR", "1")
            c = os.environ["REPRO_BAZ"]
            d = "REPRO_QUX" in os.environ
            ok = os.environ.get("HOME")
            return a, b, c, d, ok
        """}, rules=["env-knob"])
    msgs = messages(result)
    assert len(msgs) == 4
    assert all("repro._knobs" in m for m in msgs)


def test_r4_registry_module_is_exempt(tmp_path):
    result = lint(tmp_path, {"_knobs.py": """\
        import os

        def knob(name):
            return os.environ.get("REPRO_ANY")
        """}, rules=["env-knob"])
    assert messages(result) == []


# ------------------------------------------------------ R5: nan-policy

def test_r5_abs_interval_width_caught(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import numpy as np

        def width(t_begin, t_end):
            return abs(t_end - t_begin)

        def traversal(wave):
            return np.abs(wave.t_exit - wave.t_entry)

        def fine(a, b):
            return abs(a - b)  # no endpoint naming: out of scope
        """}, rules=["nan-policy"])
    assert len(messages(result)) == 2


def test_r5_isnan_default_caught(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import math

        def patch(x):
            if math.isnan(x):
                x = 0.0
            return x

        def patch_return(x):
            if math.isnan(x):
                return 0.0
            return x

        def patch_expr(x):
            return 0.0 if math.isnan(x) else x
        """}, rules=["nan-policy"])
    assert len(messages(result)) == 3


def test_r5_declared_policies_exempt(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import math

        def slew_or_fallback(x, fallback):
            if math.isnan(x):
                return fallback if fallback is not None else 0.0
            return x

        def pick(x, nan_policy):
            return 0.0 if math.isnan(x) else x
        """}, rules=["nan-policy"])
    assert messages(result) == []


# ---------------------------------------------------------- R6: fault-seam

_REGISTRY_FIXTURE = """\
    POINTS: dict[str, tuple[str, ...]] = {
        "pool.worker": ("crash", "wedge"),
        "store.read": ("corrupt",),
    }
    """


def test_r6_declared_literal_seams_pass(tmp_path):
    result = lint(tmp_path, {
        "faults/registry.py": _REGISTRY_FIXTURE,
        "exec/pool.py": """\
            from ..faults import maybe_fault

            def work(shard):
                maybe_fault("pool.worker", shard)
                return shard
            """}, rules=["fault-seam"])
    assert messages(result) == []


def test_r6_undeclared_point_caught(tmp_path):
    result = lint(tmp_path, {
        "faults/registry.py": _REGISTRY_FIXTURE,
        "exec/pool.py": """\
            from ..faults import maybe_fault

            def work(shard):
                maybe_fault("pool.reducer", shard)
            """}, rules=["fault-seam"])
    msgs = messages(result, "fault-seam")
    assert len(msgs) == 1 and "'pool.reducer'" in msgs[0]
    assert "POINTS" in msgs[0]


def test_r6_non_literal_point_caught(tmp_path):
    result = lint(tmp_path, {
        "faults/registry.py": _REGISTRY_FIXTURE,
        "exec/pool.py": """\
            from ..faults import maybe_fault

            def work(point, shard):
                maybe_fault(point, shard)
            """}, rules=["fault-seam"])
    msgs = messages(result, "fault-seam")
    assert len(msgs) == 1 and "string literal" in msgs[0]


def test_r6_missing_registry_caught(tmp_path):
    result = lint(tmp_path, {"exec/pool.py": """\
        from ..faults import maybe_fault

        def work(shard):
            maybe_fault("pool.worker", shard)
        """}, rules=["fault-seam"])
    msgs = messages(result, "fault-seam")
    assert len(msgs) == 1 and "no faults registry" in msgs[0]


def test_r6_adhoc_failure_toggle_caught(tmp_path):
    result = lint(tmp_path, {
        "faults/registry.py": _REGISTRY_FIXTURE,
        "exec/store.py": """\
            _CRASH_ON_WRITE = False
            _INJECT_READ_ERRORS: bool = False
            TIMEOUT_SECONDS = 5.0  # not fault-named: fine

            def write(entry):
                if _CRASH_ON_WRITE:
                    raise OSError("boom")
            """}, rules=["fault-seam"])
    msgs = messages(result, "fault-seam")
    assert len(msgs) == 2
    assert all("registry" in m for m in msgs)


def test_r6_registry_module_is_exempt(tmp_path):
    # The faults package itself defines the vocabulary (including
    # fault-named constants) without tripping its own rule.
    result = lint(tmp_path, {"faults/registry.py": """\
        POINTS: dict[str, tuple[str, ...]] = {
            "pool.worker": ("crash", "wedge"),
        }
        _DEFAULT_CRASH_DELAY = 0.0
        """}, rules=["fault-seam"])
    assert messages(result) == []


# ------------------------------------------------------------- waivers

def test_waiver_suppresses_with_reason(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import os

        def f():
            return os.environ.get("REPRO_X")  # reprolint: env-knob(migration shim, removed next release)
        """}, rules=["env-knob"])
    assert result.exit_code == 0
    assert len(result.waived) == 1
    assert "migration shim" in result.waived[0].waiver_reason


def test_waiver_on_comment_line_above(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import os

        def f():
            # reprolint: env-knob(migration shim, removed next release)
            return os.environ.get("REPRO_X")
        """}, rules=["env-knob"])
    assert result.exit_code == 0
    assert len(result.waived) == 1


def test_waiver_without_reason_is_an_error(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        import os

        def f():
            return os.environ.get("REPRO_X")  # reprolint: env-knob()
        """}, rules=["env-knob"])
    # The finding stays AND the empty waiver is flagged.
    assert result.exit_code == 1
    assert any(f.rule == "env-knob" and not f.waived
               for f in result.findings)
    assert any(f.rule == "reprolint" and "must give a reason" in f.message
               for f in result.findings)


def test_unused_waiver_is_a_warning(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        x = 1  # reprolint: env-knob(nothing wrong on this line)
        """}, rules=["env-knob"])
    assert result.exit_code == 0  # warning, not error
    assert any(f.severity == "warning" and "unused waiver" in f.message
               for f in result.findings)


def test_unknown_rule_waiver_is_an_error(tmp_path):
    result = lint(tmp_path, {"mod.py": """\
        x = 1  # reprolint: no-such-rule(whatever)
        """}, rules=["env-knob"])
    assert any(f.severity == "error" and "unknown rule" in f.message
               for f in result.findings)


def test_extract_waivers_coverage_semantics():
    lines = ["# reprolint: a(above)",
             "code_line()",
             "other()  # reprolint: b(inline)"]
    waivers = extract_waivers(lines)
    assert [(w.rule, w.covers) for w in waivers] == [("a", 2), ("b", 3)]


# ----------------------------------------------- knob registry runtime

def test_knob_garbage_falls_back_to_default():
    assert knob("REPRO_WORKERS", {}) == 1
    assert knob("REPRO_WORKERS", {"REPRO_WORKERS": "junk"}) == 1
    assert knob("REPRO_WORKERS", {"REPRO_WORKERS": "0"}) == 1
    assert knob("REPRO_WORKERS", {"REPRO_WORKERS": "3"}) == 3
    assert knob("REPRO_SHARD_TIMEOUT", {"REPRO_SHARD_TIMEOUT": "soon"}) == 0.0
    assert knob("REPRO_SHARD_TIMEOUT", {"REPRO_SHARD_TIMEOUT": "-1"}) == 0.0
    assert knob("REPRO_SHARD_TIMEOUT", {"REPRO_SHARD_TIMEOUT": "2.5"}) == 2.5
    assert knob("REPRO_ADAPTIVE", {"REPRO_ADAPTIVE": "yes"}) is True
    assert knob("REPRO_ADAPTIVE", {"REPRO_ADAPTIVE": "maybe"}) is False
    assert knob("REPRO_CASES", {}) is None
    assert knob("REPRO_CASES", {"REPRO_CASES": "1"}) is None  # min 2
    assert knob("REPRO_CASES", {"REPRO_CASES": "7"}) == 7


def test_knob_consumers_share_the_fallback_contract(monkeypatch):
    cfg = ExecutionConfig.from_env({"REPRO_SHARD_TIMEOUT": "soon",
                                    "REPRO_WORKERS": "junk"})
    assert cfg.workers == 1 and cfg.shard_timeout == 0.0
    monkeypatch.setenv("REPRO_CASES", "junk")
    assert default_case_count() == 24
    monkeypatch.setenv("REPRO_CASES", "7")
    assert default_case_count() == 7


def test_readme_knob_table_in_sync():
    import importlib.util
    spec = importlib.util.spec_from_file_location(
        "gen_knob_docs", REPO / "tools" / "gen_knob_docs.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    assert gen.sync(write=False), (
        "README.md knob table is stale; run "
        "python tools/gen_knob_docs.py --write")
    assert knob_table_markdown().splitlines()[2:] == [
        f"| `{k.name}` | {k.doc} | {k.default_doc} |"
        for k in KNOBS.values()]
