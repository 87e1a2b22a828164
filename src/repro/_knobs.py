"""Declared environment knobs — the single place ``REPRO_*`` is read.

Every environment variable the package consults is declared in
:data:`KNOBS` as a :class:`Knob` (name, parser, default, one-line doc)
and read through :func:`knob`.  Scattering ``os.environ.get("REPRO_…")``
calls through the tree gave each knob its own ad-hoc parse-and-fallback
logic (``int(...)`` that raised on garbage here, silently defaulted
there); the registry gives all of them one contract:

* **unset** → the declared default;
* **garbage** (unparseable, out of range, unknown choice) → the declared
  default, never an exception — a typo in the environment must not crash
  a run that would otherwise succeed (programmatic APIs taking the same
  values still validate strictly; leniency is for the environment only);
* **valid** → the parsed value.

``reprolint``'s ``env-knob`` rule statically forbids raw ``REPRO_*``
environment reads outside this module, and the README's knob table is
generated from :data:`KNOBS` by ``tools/gen_knob_docs.py`` — declaring a
knob here is what makes it exist, documents it, and keeps it lintable.

This module must stay dependency-free (stdlib only): it is imported by
the circuit, exec and experiment layers alike, and the doc generator
loads it without the rest of the package.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Mapping
from dataclasses import dataclass

__all__ = ["DEFAULT_STORE_MAX_BYTES", "Knob", "KNOBS", "knob",
           "knob_table_markdown"]

#: Default size budget of the on-disk result store (bytes); re-exported
#: by :mod:`repro.exec.store` as ``DEFAULT_MAX_BYTES``.
DEFAULT_STORE_MAX_BYTES = 512 * 1024 * 1024


@dataclass(frozen=True)
class Knob:
    """One declared environment variable.

    Attributes
    ----------
    name:
        The environment variable, always ``REPRO_*``.
    parse:
        Raw string → value; raises ``ValueError`` on garbage (the reader
        then falls back to ``default``).
    default:
        Value when the variable is unset or unparseable.
    doc:
        One-line meaning, used for the generated README table.
    default_doc:
        How the effective default renders in that table (some knobs use
        sentinel defaults — e.g. ``REPRO_CASES`` defaults to ``None``
        here and each harness supplies its own fallback).
    """

    name: str
    parse: Callable[[str], object]
    default: object
    doc: str
    default_doc: str


def _int_at_least(lo: int) -> Callable[[str], int]:
    def parse(raw: str) -> int:
        value = int(raw)
        if value < lo:
            raise ValueError(f"must be >= {lo}, got {value}")
        return value
    return parse


def _flag(raw: str) -> bool:
    return raw.strip().lower() in ("1", "true", "yes", "on")


def _float_at_least(lo: float) -> Callable[[str], float]:
    def parse(raw: str) -> float:
        value = float(raw)
        if value < lo:
            raise ValueError(f"must be >= {lo}, got {value}")
        return value
    return parse


def _string(raw: str) -> str:
    return raw


#: The declaration table.  Insertion order is the order of the generated
#: documentation table.
KNOBS: dict[str, Knob] = {k.name: k for k in (
    Knob("REPRO_WORKERS", _int_at_least(1), 1,
         "worker processes for the shard scheduler", "`1`"),
    Knob("REPRO_STORE", _string, "",
         "directory of the on-disk result store", "unset (off)"),
    Knob("REPRO_STORE_MAX_BYTES", _int_at_least(1), DEFAULT_STORE_MAX_BYTES,
         "store size budget (LRU eviction)", "512 MiB"),
    Knob("REPRO_CASES", _int_at_least(2), None,
         "sweep density of the experiment harnesses", "`24`"),
    Knob("REPRO_PHASE_TIMERS", _flag, False,
         "per-phase wall-clock breakdown in `stats[\"phase_seconds\"]`",
         "unset (off)"),
    Knob("REPRO_SHARD_TIMEOUT", _float_at_least(0.0), 0.0,
         "per-shard worker deadline in seconds, scaled by the shard's "
         "estimated cost; a shard past its deadline is abandoned and "
         "re-solved inline (`0` = wait forever)",
         "`0` (off)"),
    Knob("REPRO_SERVICE_HOST", _string, "127.0.0.1",
         "interface `python -m repro.service` binds", "`127.0.0.1`"),
    Knob("REPRO_SERVICE_PORT", _int_at_least(0), 8472,
         "TCP port of the service (`0` = ephemeral, printed at startup)",
         "`8472`"),
    Knob("REPRO_SERVICE_QUEUE_DEPTH", _int_at_least(1), 64,
         "admission control: queued+running jobs beyond this are "
         "rejected with a retry-after hint", "`64`"),
    Knob("REPRO_SERVICE_QUOTA", _int_at_least(1), 16,
         "admission control: per-client cap on queued+running jobs",
         "`16`"),
    Knob("REPRO_FAULTS", _string, "",
         "seeded fault-injection plan for the chaos harness "
         "(`seed=S;point=kind[:p=..][:n=..][:after=..][:arg=..];…` — "
         "see `repro.faults`); an invalid spec warns and injects "
         "nothing", "unset (off)"),
    Knob("REPRO_JOURNAL", _flag, False,
         "write-ahead run journal under the store root: long sweeps "
         "record completed samples and a rerun after `kill -9` resumes "
         "at the first unfinished one (needs `REPRO_STORE`)",
         "unset (off)"),
)}


def knob(name: str, env: "Mapping[str, str] | None" = None):
    """The parsed value of declared knob ``name``.

    ``env`` defaults to ``os.environ`` (read per call, so tests can
    monkeypatch the environment); pass any mapping to resolve against a
    snapshot instead.  Unset and unparseable values both yield the
    knob's declared default — see the module docstring for why garbage
    never raises.
    """
    spec = KNOBS[name]
    mapping: Mapping[str, str] = os.environ if env is None else env
    raw = mapping.get(spec.name)
    if raw is None:
        return spec.default
    try:
        return spec.parse(raw)
    except (TypeError, ValueError):
        return spec.default


def knob_table_markdown() -> str:
    """The README's knob table, generated from :data:`KNOBS`."""
    lines = ["| Knob | Meaning | Default |",
             "|------|---------|---------|"]
    for spec in KNOBS.values():
        lines.append(f"| `{spec.name}` | {spec.doc} | {spec.default_doc} |")
    return "\n".join(lines)
