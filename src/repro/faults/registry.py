"""Deterministic, seeded fault injection for the execution/service stack.

The resilience claims of this repo — crash/timeout shard fallback,
corrupt-store self-healing, admission control, the Newton backend
ladder — were each tested by hand-crafted monkeypatches.  This registry
replaces those ad-hoc seams with one declared mechanism:

* every place production code can be made to fail is a **named
  injection point**, declared in :data:`POINTS` with the fault kinds it
  honours (``reprolint``'s ``fault-seam`` rule statically forbids any
  other failure hook in ``src/``);
* a **fault plan** (:class:`FaultPlan`) — parsed from the
  ``REPRO_FAULTS`` knob or installed programmatically — says which
  points fire, with what kind, probability, and trigger window;
* every fire decision is a **pure function** of
  ``(plan.seed, point, rule index, token)``, hashed through
  :func:`zlib.crc32` into a dedicated :class:`random.Random` stream —
  stable across processes, Python runs and ``PYTHONHASHSEED`` — so a
  storm replays bit-identically and a parent process can *predict*
  which worker-side tokens fired without sharing state
  (:func:`would_fire`).

Seams call :func:`maybe_fault` with their literal point name.  With no
plan active the call is a near-free ``None`` check, so the seams cost
nothing in production.  Tokens address a decision: sequence-addressed
points (store I/O, service sends) default to the per-process call
ordinal; token-addressed points (pool shards) pass a stable identifier
such as the shard index, which is what makes the parent-side prediction
line up with what the worker actually did.

The module is deliberately stdlib-only (like :mod:`repro._knobs`, which
it reads ``REPRO_FAULTS`` through): it is imported by the circuit,
exec and service layers alike, below the numeric stack.
"""

from __future__ import annotations

import random
import warnings
import zlib
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from .._knobs import knob

__all__ = [
    "POINTS",
    "FaultError",
    "FaultSpecError",
    "FaultRule",
    "FaultPlan",
    "FaultInjector",
    "maybe_fault",
    "would_fire",
    "install_plan",
    "active_plan",
    "fault_stats",
    "reset",
    "injected",
]

#: Every injection point production code declares, with the fault kinds
#: its seam honours.  A plan naming an unknown point or kind is invalid;
#: ``reprolint``'s ``fault-seam`` rule cross-checks that every
#: ``maybe_fault("...")`` call site in ``src/`` names an entry here.
#:
#: ``pool.worker``     worker entry of a :func:`~repro.exec.pool.run_jobs`
#:                     shard (token = shard index): ``crash`` raises in
#:                     the worker, ``wedge``/``slow`` sleep — exercising
#:                     the crash-fallback and shard-deadline paths.
#: ``pool.indexed``    worker entry of a :func:`~repro.exec.pool.run_indexed`
#:                     chunk (token = first index), with the kinds and
#:                     fallback paths of ``pool.worker``.
#: ``store.read``      entry decode in :class:`~repro.exec.store.ResultStore`
#:                     — ``corrupt`` makes a present entry unreadable,
#:                     exercising the count/delete/self-heal path.
#: ``store.write``     entry insert — ``fail`` raises before the write,
#:                     ``partial`` leaves a torn temp file, ``enospc``
#:                     raises ``OSError(ENOSPC)``; all three exercise the
#:                     miss-only write-failure degradation.
#: ``store.unlink``    corrupt-entry healing — ``fail`` makes the delete
#:                     fail, exercising the undeletable-entry memo.
#: ``service.send``    one event write in :class:`~repro.service.server.StaService`
#:                     — ``disconnect`` drops the client mid-stream,
#:                     ``slow`` stalls the write.
#: ``service.frame``   :func:`repro.service.protocol.encode` — ``truncate``
#:                     emits half a frame with no newline terminator.
#: ``solver.refactor`` the bordered Newton kernel's per-iteration Schur
#:                     factorization in
#:                     :meth:`~repro.circuit.solvers.BorderedBanded.solve` —
#:                     ``singular`` forces ``LinAlgError``, exercising
#:                     the banded → dense backend-ladder degradation.
POINTS: dict[str, tuple[str, ...]] = {
    "pool.worker": ("crash", "wedge", "slow"),
    "pool.indexed": ("crash", "wedge", "slow"),
    "store.read": ("corrupt",),
    "store.write": ("fail", "partial", "enospc"),
    "store.unlink": ("fail",),
    "service.send": ("disconnect", "slow"),
    "service.frame": ("truncate",),
    "solver.refactor": ("singular",),
}

#: Default sleep (seconds) of the delay kinds when a rule has no ``arg``.
#: ``wedge`` must outlast any realistic shard deadline (the point is to
#: trip it); ``slow`` only perturbs timing.
_DEFAULT_DELAY = {"wedge": 120.0, "slow": 0.05}


class FaultError(RuntimeError):
    """An injected failure (the ``crash``/``fail`` kinds raise this)."""


class FaultSpecError(ValueError):
    """A ``REPRO_FAULTS`` spec string that does not parse or validate."""


@dataclass(frozen=True)
class FaultRule:
    """One clause of a plan: fire ``kind`` at ``point``.

    Attributes
    ----------
    point / kind:
        A declared :data:`POINTS` entry and one of its kinds.
    probability:
        Chance each eligible token fires (1.0 = always).
    count:
        Size of the eligible token window: only tokens in
        ``[after, after + count)`` can fire (``None`` = unbounded).
        With ``probability`` 1 this is exactly the trigger count; the
        window form keeps the decision a pure function of the token, so
        storms replay and parents can predict worker fires.
    after:
        First eligible token ordinal (0-based).
    arg:
        Kind parameter: sleep seconds for ``wedge``/``slow``
        (:meth:`delay`), unused otherwise.
    """

    point: str
    kind: str
    probability: float = 1.0
    count: "int | None" = None
    after: int = 0
    arg: "float | None" = None

    def __post_init__(self) -> None:
        kinds = POINTS.get(self.point)
        if kinds is None:
            raise FaultSpecError(
                f"unknown injection point {self.point!r}; "
                f"declared points: {sorted(POINTS)}")
        if self.kind not in kinds:
            raise FaultSpecError(
                f"point {self.point!r} has no kind {self.kind!r}; "
                f"it honours {kinds}")
        if not 0.0 <= self.probability <= 1.0:
            raise FaultSpecError(
                f"probability must be in [0, 1], got {self.probability}")
        if self.count is not None and self.count < 1:
            raise FaultSpecError(f"count must be >= 1, got {self.count}")
        if self.after < 0:
            raise FaultSpecError(f"after must be >= 0, got {self.after}")

    def delay(self) -> float:
        """Sleep seconds of a ``wedge``/``slow`` fire (``arg`` or default)."""
        if self.arg is not None:
            return float(self.arg)
        return _DEFAULT_DELAY.get(self.kind, 0.0)


def _parse_clause(clause: str) -> FaultRule:
    head, _, opts = clause.partition(":")
    point, sep, kind = head.partition("=")
    if not sep or not point.strip() or not kind.strip():
        raise FaultSpecError(
            f"clause {clause!r} is not '<point>=<kind>[:p=..][:n=..]"
            f"[:after=..][:arg=..]'")
    kwargs: dict = {}
    if opts:
        for item in opts.split(":"):
            name, sep, value = item.partition("=")
            if not sep:
                raise FaultSpecError(f"bad option {item!r} in {clause!r}")
            name = name.strip()
            try:
                if name == "p":
                    kwargs["probability"] = float(value)
                elif name == "n":
                    kwargs["count"] = int(value)
                elif name == "after":
                    kwargs["after"] = int(value)
                elif name == "arg":
                    kwargs["arg"] = float(value)
                else:
                    raise FaultSpecError(
                        f"unknown option {name!r} in {clause!r} "
                        f"(knowns: p, n, after, arg)")
            except ValueError as exc:
                raise FaultSpecError(
                    f"bad value for {name!r} in {clause!r}: {exc}") from exc
    return FaultRule(point=point.strip(), kind=kind.strip(), **kwargs)


@dataclass(frozen=True)
class FaultPlan:
    """A seeded storm: the parsed form of ``REPRO_FAULTS``.

    The spec grammar is ``;``-separated clauses::

        seed=42; pool.worker=crash; store.read=corrupt:p=0.5:n=2

    ``seed=<int>`` seeds every rule's decision stream (default 0); each
    other clause is ``<point>=<kind>`` with optional ``:p=<float>``
    (probability), ``:n=<int>`` (eligible-token window size),
    ``:after=<int>`` (first eligible token) and ``:arg=<float>``
    (kind parameter, e.g. wedge seconds).
    """

    seed: int = 0
    rules: tuple[FaultRule, ...] = ()

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Parse a spec string; raises :class:`FaultSpecError` on garbage."""
        seed = 0
        rules: list[FaultRule] = []
        for clause in spec.split(";"):
            clause = clause.strip()
            if not clause:
                continue
            if clause.startswith("seed="):
                try:
                    seed = int(clause[len("seed="):])
                except ValueError as exc:
                    raise FaultSpecError(
                        f"bad seed in {clause!r}: {exc}") from exc
                continue
            rules.append(_parse_clause(clause))
        if not rules:
            raise FaultSpecError(f"no fault clauses in spec {spec!r}")
        return cls(seed=seed, rules=tuple(rules))


def _draw(seed: int, point: str, rule_index: int, token: int) -> float:
    """The pure uniform draw of one (rule, token) decision.

    ``crc32`` (not ``hash``) keys the stream: stable across processes,
    runs and ``PYTHONHASHSEED``, so the decision a worker makes is the
    decision the parent predicts.
    """
    material = f"{point}|{rule_index}|{token}".encode()
    return random.Random((int(seed) << 32) ^ zlib.crc32(material)).random()


def would_fire(plan: FaultPlan, point: str, token: int) -> "FaultRule | None":
    """The rule that fires for ``token`` at ``point``, or ``None``.

    Stateless and pure — the prediction half of the replayability
    contract: a parent can reconcile its fallback counters against the
    plan by evaluating this over the tokens it handed out, even though
    the firing processes (crashed workers) never report back.
    """
    for idx, rule in enumerate(plan.rules):
        if rule.point != point:
            continue
        if token < rule.after:
            continue
        if rule.count is not None and token >= rule.after + rule.count:
            continue
        if rule.probability >= 1.0 or \
                _draw(plan.seed, point, idx, token) < rule.probability:
            return rule
    return None


class FaultInjector:
    """Plan + per-process accounting (calls per point, fires per kind)."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._calls: dict[str, int] = {}
        self._fired: dict[tuple[str, str], int] = {}

    def fire(self, point: str, token: "int | None") -> "FaultRule | None":
        """Decide one call; counts the call and any fire."""
        ordinal = self._calls.get(point, 0)
        self._calls[point] = ordinal + 1
        rule = would_fire(self.plan, point,
                          ordinal if token is None else int(token))
        if rule is not None:
            key = (point, rule.kind)
            self._fired[key] = self._fired.get(key, 0) + 1
        return rule

    def stats(self) -> dict:
        """Per-point calls and per-kind fires of *this process*.

        Fires inside crashed workers die with them; reconcile those via
        :func:`would_fire` over the tokens the parent handed out.
        """
        points: dict[str, dict] = {}
        for point, calls in sorted(self._calls.items()):
            points[point] = {"calls": calls, "fired": {}}
        for (point, kind), n in sorted(self._fired.items()):
            points.setdefault(point, {"calls": 0, "fired": {}})
            points[point]["fired"][kind] = n
        return {"seed": self.plan.seed,
                "rules": len(self.plan.rules),
                "points": points}


#: Module state: ``_UNSET`` = resolve ``REPRO_FAULTS`` on first use,
#: ``None`` = no plan (the production fast path), else the injector.
_UNSET = object()
_injector: object = _UNSET


def _resolve_env() -> "FaultInjector | None":
    """Resolve the knob once; garbage degrades to no-faults with a warning
    (the knob contract: a typo in the environment must not crash a run)."""
    global _injector
    spec = knob("REPRO_FAULTS")
    if not spec:
        _injector = None
        return None
    try:
        plan = FaultPlan.parse(spec)
    except FaultSpecError as exc:
        warnings.warn(f"ignoring REPRO_FAULTS: {exc}", RuntimeWarning,
                      stacklevel=3)
        _injector = None
        return None
    inj = FaultInjector(plan)
    _injector = inj
    return inj


def maybe_fault(point: str, token: "int | None" = None) -> "FaultRule | None":
    """The fault to inject at ``point`` for this call, or ``None``.

    The one call production seams make.  With no plan active this is a
    single ``None`` check; with one, the decision is pure in
    ``(seed, point, rule index, token)`` where ``token`` defaults to the
    point's per-process call ordinal.  Unknown points raise — seams are
    code, not environment, so they validate strictly.
    """
    inj = _injector
    if inj is None:
        return None
    if inj is _UNSET:
        inj = _resolve_env()
        if inj is None:
            return None
    if point not in POINTS:
        raise ValueError(f"undeclared injection point {point!r}; "
                         f"declare it in repro.faults.POINTS")
    return inj.fire(point, token)  # type: ignore[union-attr]


def install_plan(plan: "FaultPlan | str | None") -> "FaultInjector | None":
    """Activate ``plan`` (a :class:`FaultPlan`, a spec string, or ``None``
    to deactivate); returns the new injector.  Programmatic specs
    validate strictly — :class:`FaultSpecError` propagates."""
    global _injector
    if plan is None:
        _injector = None
        return None
    if isinstance(plan, str):
        plan = FaultPlan.parse(plan)
    inj = FaultInjector(plan)
    _injector = inj
    return inj


def active_plan() -> "FaultPlan | None":
    """The currently active plan (resolving ``REPRO_FAULTS`` if pending)."""
    inj = _injector
    if inj is _UNSET:
        inj = _resolve_env()
    return inj.plan if inj is not None else None  # type: ignore[union-attr]


def fault_stats() -> "dict | None":
    """This process's injector accounting, or ``None`` when inactive."""
    inj = _injector
    if inj is None or inj is _UNSET:
        return None
    return inj.stats()  # type: ignore[union-attr]


def reset() -> None:
    """Forget any installed plan and re-resolve ``REPRO_FAULTS`` on next
    use (tests monkeypatching the environment call this)."""
    global _injector
    _injector = _UNSET


@contextmanager
def injected(plan: "FaultPlan | str") -> Iterator[FaultInjector]:
    """Scoped :func:`install_plan`: activate for the block, then restore
    whatever was active before (including the unresolved-env state)."""
    global _injector
    previous = _injector
    inj = install_plan(plan)
    try:
        yield inj
    finally:
        _injector = previous
