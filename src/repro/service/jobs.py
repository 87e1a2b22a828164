"""Job specifications the STA service accepts, and their runners.

A submission's ``job`` field is a JSON object with a ``kind``; each kind
maps to a :class:`ServiceJob` whose :meth:`~ServiceJob.run` executes on
a service worker against the service's warm
:class:`~repro.exec.ExecutionConfig` (persistent store, long-lived
per-topology analysis caches) and streams partial results through an
``emit`` callback.  The registry (:data:`JOB_KINDS` /
:func:`register_job_kind`) is open so deployments and tests can add
kinds without editing this module.

Built-in kinds
--------------
``transient``
    A netlist + stimulus described inline (JSON elements: ``resistor``,
    ``capacitor``, ``vsource``, ``isource``; sources: ``dc``, ``ramp``,
    ``pwl``), solved through :func:`repro.exec.run_jobs`.  Streams one
    ``waveform`` event per probed node; the final result repeats the
    probe list and solver stats.
``table1``
    A paper Table-1 accuracy sweep (configuration ``"I"``/``"II"`` or a
    list of them).  Configurations run as separate groups so their rows
    stream as each group completes — a long multi-configuration sweep
    shows its first table while the second still solves.
``sta_mc``
    Monte-Carlo statistical STA over an inline design: structural
    Verilog + Liberty text, σ-parameterised variation, seeded sample
    sweep through :func:`repro.sta.statistical.run_sta_monte_carlo`.
    Streams one ``sample`` event per Monte-Carlo sample; the final
    result carries the arrival/slack quantiles.
"""

from __future__ import annotations

import dataclasses
import math
from collections.abc import Callable

from .._util import require
from ..circuit.netlist import GROUND, Circuit
from ..circuit.solvers import BACKENDS
from ..circuit.sources import Dc, Pwl, RampSource, SourceFunction
from ..circuit.transient import TransientJob, TransientOptions
from ..exec import ExecutionConfig, run_jobs

__all__ = ["JobSpecError", "ServiceJob", "JOB_KINDS", "register_job_kind",
           "build_job"]


class JobSpecError(ValueError):
    """A submission's job spec is malformed (client error, not server)."""


#: kind -> builder(spec dict) -> ServiceJob.  Open registry.
JOB_KINDS: "dict[str, Callable[[dict], ServiceJob]]" = {}


def register_job_kind(name: str,
                      builder: "Callable[[dict], ServiceJob]") -> None:
    """Register (or replace) a job kind under ``name``."""
    require(isinstance(name, str) and name, "job kind needs a name")
    JOB_KINDS[name] = builder


def build_job(spec: object) -> "ServiceJob":
    """Validate a submission's ``job`` field into a runnable job.

    Raises
    ------
    JobSpecError
        On anything malformed — the server reports it to the client and
        carries on; a bad spec must never take a worker down.
    """
    if not isinstance(spec, dict):
        raise JobSpecError("job spec must be a JSON object")
    kind = spec.get("kind")
    builder = JOB_KINDS.get(kind)
    if builder is None:
        raise JobSpecError(
            f"unknown job kind {kind!r}; known: {sorted(JOB_KINDS)}")
    return builder(spec)


class ServiceJob:
    """One unit of service work.

    Subclasses implement :meth:`run`, which executes synchronously on a
    worker thread; ``emit(event_dict)`` streams a partial-result event
    to the submitting client (the server stamps the job id and forwards
    it), and the return value becomes the ``done`` event's ``result``.
    """

    kind = "abstract"

    def describe(self) -> str:
        """One-line label for logs and ``stats``."""
        return self.kind

    def run(self, execution: ExecutionConfig,
            emit: "Callable[[dict], None]") -> dict:
        raise NotImplementedError


# ----------------------------------------------------------------------
# helpers shared by the built-in kinds
# ----------------------------------------------------------------------
def _require_spec(cond: bool, message: str) -> None:
    if not cond:
        raise JobSpecError(message)


def _float_field(obj: dict, name: str, default: "float | None" = None) -> float:
    value = obj.get(name, default)
    _require_spec(isinstance(value, (int, float))
                  and not isinstance(value, bool),
                  f"field {name!r} must be a number")
    return float(value)


def _decode_source(obj: object) -> SourceFunction:
    """JSON stimulus → :class:`SourceFunction` (dc / ramp / pwl)."""
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return Dc(float(obj))
    _require_spec(isinstance(obj, dict), "source must be a number or object")
    kind = obj.get("kind")
    if kind == "dc":
        return Dc(_float_field(obj, "value"))
    if kind == "ramp":
        return RampSource(_float_field(obj, "t_start"),
                          _float_field(obj, "slew"),
                          _float_field(obj, "v_from"),
                          _float_field(obj, "v_to"))
    if kind == "pwl":
        points = obj.get("points")
        _require_spec(isinstance(points, list) and len(points) >= 1,
                      "pwl source needs a non-empty 'points' list")
        try:
            return Pwl([(float(t), float(v)) for t, v in points])
        except (TypeError, ValueError) as exc:
            raise JobSpecError(f"bad pwl points: {exc}") from exc
    raise JobSpecError(f"unknown source kind {kind!r} (dc/ramp/pwl)")


def _decode_circuit(obj: object) -> Circuit:
    """JSON netlist → :class:`Circuit` (R / C / V / I elements)."""
    _require_spec(isinstance(obj, dict), "netlist must be a JSON object")
    elements = obj.get("elements")
    _require_spec(isinstance(elements, list) and elements,
                  "netlist needs a non-empty 'elements' list")
    circuit = Circuit(str(obj.get("name", "service")))
    for el in elements:
        _require_spec(isinstance(el, dict), "each element must be an object")
        kind = el.get("kind")
        name = el.get("name")
        _require_spec(isinstance(name, str) and name,
                      f"element of kind {kind!r} needs a 'name'")
        a, b = str(el.get("a", "")), str(el.get("b", ""))
        _require_spec(bool(a) and bool(b),
                      f"element {name!r} needs nodes 'a' and 'b'")
        try:
            if kind == "resistor":
                circuit.resistor(name, a, b, _float_field(el, "value"))
            elif kind == "capacitor":
                circuit.capacitor(name, a, b, _float_field(el, "value"))
            elif kind == "vsource":
                circuit.vsource(name, a, b, _decode_source(el.get("source")))
            elif kind == "isource":
                circuit.isource(name, a, b, _decode_source(el.get("source")))
            else:
                raise JobSpecError(
                    f"unknown element kind {kind!r} "
                    f"(resistor/capacitor/vsource/isource)")
        except JobSpecError:
            raise
        except (TypeError, ValueError) as exc:
            raise JobSpecError(f"bad element {name!r}: {exc}") from exc
    return circuit


def _decode_initial_voltages(obj: object, circuit: Circuit) -> "dict | None":
    """``initial_voltages``: netlist node (or ground) → finite number."""
    if obj is None:
        return None
    _require_spec(isinstance(obj, dict), "'initial_voltages' must be a JSON object")
    unknown = sorted(set(obj) - set(circuit.nodes) - {GROUND})
    _require_spec(not unknown, f"unknown initial-voltage node(s) {unknown}")
    for node in obj:
        _require_spec(math.isfinite(_float_field(obj, node)),
                      f"initial voltage of {node!r} must be finite")
    return obj


def _decode_options(obj: object) -> "TransientOptions | None":
    if obj is None:
        return None
    _require_spec(isinstance(obj, dict), "'options' must be a JSON object")
    valid = {f.name for f in dataclasses.fields(TransientOptions)}
    unknown = set(obj) - valid
    _require_spec(not unknown,
                  f"unknown option(s) {sorted(unknown)}; valid: {sorted(valid)}")
    try:
        return TransientOptions(**obj)
    except (TypeError, ValueError) as exc:
        raise JobSpecError(f"bad options: {exc}") from exc


# ----------------------------------------------------------------------
# kind: transient
# ----------------------------------------------------------------------
class TransientServiceJob(ServiceJob):
    """Solve one inline netlist and stream its node waveforms."""

    kind = "transient"

    def __init__(self, spec: dict):
        self.circuit = _decode_circuit(spec.get("netlist"))
        t_stop = _float_field(spec, "t_stop")
        dt = _float_field(spec, "dt")
        t_start = _float_field(spec, "t_start", 0.0)
        _require_spec(dt > 0 and t_stop > t_start,
                      "need dt > 0 and t_stop > t_start")
        use_ic = spec.get("use_ic", False)
        _require_spec(isinstance(use_ic, bool),
                      "'use_ic' must be a boolean when given")
        self.job = TransientJob(
            self.circuit, t_stop=t_stop, dt=dt, t_start=t_start,
            initial_voltages=_decode_initial_voltages(
                spec.get("initial_voltages"), self.circuit),
            use_ic=use_ic,
            options=_decode_options(spec.get("options")))
        probes = spec.get("probes")
        if probes is not None:
            _require_spec(isinstance(probes, list)
                          and all(isinstance(p, str) for p in probes),
                          "'probes' must be a list of node names")
            missing = [p for p in probes if not self.circuit.has_node(p)]
            _require_spec(not missing, f"unknown probe node(s) {missing}")
        self.probes = probes

    def describe(self) -> str:
        return f"transient({self.circuit.name})"

    def run(self, execution: ExecutionConfig,
            emit: "Callable[[dict], None]") -> dict:
        diag: dict = {}
        result = run_jobs([self.job], execution, diag=diag)[0]
        nodes = self.probes if self.probes is not None else result.node_names
        times = result.times.tolist()
        for node in nodes:
            emit({"event": "waveform", "node": node, "times": times,
                  "voltages": result.voltage_samples(node).tolist()})
        stats = {k: v for k, v in result.stats.items()
                 if isinstance(v, (bool, int, float, str))}
        return {"nodes": list(nodes), "n_steps": len(times) - 1,
                "t_stop": times[-1], "stats": stats,
                "store_hits": diag.get("store_hits", 0),
                "store_misses": diag.get("store_misses", 0)}


# ----------------------------------------------------------------------
# kind: table1
# ----------------------------------------------------------------------
def _error_stats_payload(stats) -> dict:
    return {"count": stats.count, "failures": stats.failures,
            "max_abs": stats.max_abs, "mean_abs": stats.mean_abs,
            "rms": stats.rms, "mean_signed": stats.mean_signed}


def _row_payload(config_name: str, row) -> dict:
    return {"config": config_name, "technique": row.technique,
            "delay": _error_stats_payload(row.delay),
            "arrival": _error_stats_payload(row.arrival)}


class Table1ServiceJob(ServiceJob):
    """Run the paper's Table-1 sweep, streaming rows per configuration."""

    kind = "table1"

    def __init__(self, spec: dict):
        # Import at build time, not module import: the service core
        # must not drag the experiment stack in for netlist-only use.
        from ..experiments.setup import CONFIG_I, CONFIG_II
        by_name = {"I": CONFIG_I, "II": CONFIG_II}
        raw = spec.get("config", "I")
        names = [raw] if isinstance(raw, str) else raw
        _require_spec(isinstance(names, list) and names
                      and all(isinstance(n, str) for n in names),
                      "'config' must be \"I\", \"II\", or a list of those")
        unknown = [n for n in names if n not in by_name]
        _require_spec(not unknown, f"unknown configuration(s) {unknown}")
        self.configs = [by_name[n] for n in names]
        n_cases = spec.get("n_cases")
        if n_cases is not None:
            _require_spec(isinstance(n_cases, int) and n_cases >= 2,
                          "'n_cases' must be an integer >= 2")
        self.n_cases = n_cases
        polarity = spec.get("polarity", "both")
        _require_spec(polarity in ("both", "opposing", "same"),
                      "'polarity' must be both/opposing/same")
        self.polarity = polarity
        self.solver_backend = spec.get("solver_backend", "auto")
        _require_spec(self.solver_backend in BACKENDS,
                      f"'solver_backend' must be one of {list(BACKENDS)}")
        adaptive = spec.get("adaptive", True)
        _require_spec(isinstance(adaptive, bool),
                      "'adaptive' must be a boolean when given")
        self.adaptive = adaptive
        self.dt = None if spec.get("dt") is None else _float_field(spec, "dt")
        _require_spec(self.dt is None or self.dt > 0, "'dt' must be > 0")

    def describe(self) -> str:
        names = ",".join(c.name for c in self.configs)
        return f"table1({names})"

    def run(self, execution: ExecutionConfig,
            emit: "Callable[[dict], None]") -> dict:
        from ..experiments.noise_injection import SweepTiming
        from ..experiments.table1 import run_table1
        timing = SweepTiming(dt=self.dt) if self.dt is not None else None
        tables = []
        for idx, config in enumerate(self.configs):
            emit({"event": "progress", "phase": "config",
                  "config": config.name, "index": idx,
                  "total": len(self.configs)})
            table = run_table1(
                config, n_cases=self.n_cases, timing=timing,
                polarity=self.polarity, solver_backend=self.solver_backend,
                adaptive=self.adaptive, execution=execution)
            rows = []
            for row in table.rows:
                payload = _row_payload(table.config_name, row)
                emit(dict(payload, event="row"))
                rows.append(payload)
            tables.append({"config": table.config_name,
                           "n_cases": table.n_cases,
                           "polarity": table.polarity, "rows": rows})
        return {"tables": tables}


# ----------------------------------------------------------------------
# kind: sta_mc
# ----------------------------------------------------------------------
class StaMonteCarloServiceJob(ServiceJob):
    """Monte-Carlo statistical STA over an inline Verilog + Liberty design."""

    kind = "sta_mc"

    def __init__(self, spec: dict):
        # Import at build time, not module import: the service core
        # must not drag the STA stack in for netlist-only use.
        from ..library.liberty import LibertyParseError, parse_liberty
        from ..sta.netlist import NetlistError
        from ..sta.verilog import read_verilog

        verilog = spec.get("verilog")
        liberty = spec.get("liberty")
        _require_spec(isinstance(verilog, str) and bool(verilog),
                      "field 'verilog' must be structural-Verilog text")
        _require_spec(isinstance(liberty, str) and bool(liberty),
                      "field 'liberty' must be Liberty library text")
        try:
            self.netlist = read_verilog(verilog)
        except NetlistError as exc:
            raise JobSpecError(f"bad verilog: {exc}") from exc
        try:
            self.library = parse_liberty(liberty)
        except LibertyParseError as exc:
            raise JobSpecError(f"bad liberty: {exc}") from exc

        self.required = None
        if spec.get("required") is not None:
            self.required = _float_field(spec, "required")
        self.input_slew = _float_field(spec, "input_slew", 50e-12)
        _require_spec(self.input_slew > 0, "'input_slew' must be > 0")
        # bool is an int subclass: JSON true must not pass as 1.
        samples = spec.get("samples")
        _require_spec(samples is None
                      or (isinstance(samples, int)
                          and not isinstance(samples, bool) and samples >= 1),
                      "'samples' must be an integer >= 1")
        self.samples = samples
        seed = spec.get("seed")
        _require_spec(seed is None
                      or (isinstance(seed, int)
                          and not isinstance(seed, bool) and seed >= 0),
                      "'seed' must be an integer >= 0")
        self.seed = seed
        self.sigma_cell = _float_field(spec, "sigma_cell", 0.05)
        self.sigma_wire = _float_field(spec, "sigma_wire", 0.10)
        _require_spec(self.sigma_cell >= 0 and self.sigma_wire >= 0,
                      "variation sigmas must be >= 0")
        watch = spec.get("watch")
        if watch is not None:
            _require_spec(isinstance(watch, list)
                          and all(isinstance(w, str) for w in watch),
                          "'watch' must be a list of net names")
            unknown = sorted(set(watch).difference(self.netlist.nets))
            _require_spec(not unknown, f"unknown watch net(s) {unknown}")
        self.watch = watch

    def describe(self) -> str:
        return f"sta_mc({self.netlist.name})"

    def run(self, execution: ExecutionConfig,
            emit: "Callable[[dict], None]") -> dict:
        from ..sta.analysis import InputSpec
        from ..sta.statistical import McVariation, run_sta_monte_carlo

        inputs = {net: InputSpec(slew=self.input_slew)
                  for net in self.netlist.primary_inputs}
        required = None
        if self.required is not None:
            required = {net: self.required
                        for net in self.netlist.primary_outputs}
        given = {name: value for name, value in
                 (("samples", self.samples), ("seed", self.seed))
                 if value is not None}
        try:
            result = run_sta_monte_carlo(
                self.netlist, self.library, inputs=inputs,
                required_times=required,
                variation=McVariation(sigma_cell=self.sigma_cell,
                                      sigma_wire=self.sigma_wire),
                watch=self.watch, execution=execution,
                on_sample=lambda row: emit(dict(row, event="sample")),
                **given)
        except (KeyError, ValueError) as exc:
            # Netlist/library mismatches (missing cells or arcs) surface
            # at analysis time; they are client errors, not server bugs.
            raise JobSpecError(f"cannot analyze design: {exc}") from exc
        return {"design": self.netlist.name, "samples": result.samples,
                "seed": result.seed, "quantiles": result.quantiles,
                "diag": dict(result.diag)}


register_job_kind(TransientServiceJob.kind, TransientServiceJob)
register_job_kind(Table1ServiceJob.kind, Table1ServiceJob)
register_job_kind(StaMonteCarloServiceJob.kind, StaMonteCarloServiceJob)
