"""Launch the STA service for the benchmark: ``repro.service`` plus spans.

Runs ``repro.service.__main__.main`` with the remaining arguments.
Before that it prints ``perfbench-daemon imported <monotonic time>`` so
the generator can split set-up into import and boot.  With
``--trace-file PATH`` it installs the layer wrappers of
:mod:`tracing` and, per job:

* always: the request parse time (``decode`` + ``build_job``), the
  admission instant (``AdmissionQueue.submit``), a ``service.exec`` span
  around ``ServiceJob.run`` and the time spent encoding its events;
* for jobs with an even service id only: every layer span inside the
  job, with the engine's phase timers on (odd ids run untraced, so the
  overhead is read off the same daemon).

Spans are written to ``PATH`` when the service has shut down.
"""

from __future__ import annotations

import argparse
import sys
import time


def install_service_tracing(tracer, marks: dict) -> None:
    import repro.service.server as server
    import tracing
    from repro.service.jobs import JOB_KINDS
    from repro.service.queue import AdmissionQueue

    tracing.install(tracer)
    job_ids: dict[int, int] = {}
    parsed = {"decode": 0.0, "build": 0.0}
    decode, build_job = server.decode, server.build_job
    submit, pop = AdmissionQueue.submit, AdmissionQueue.pop

    def timed(fn, key):
        def call(arg):
            t0 = time.monotonic()
            try:
                return fn(arg)
            finally:
                parsed[key] = time.monotonic() - t0
        return call

    def traced_submit(self, payload, **kwargs):
        # The server decodes the line, parses the spec and admits the
        # job with no await in between, so the last parse is this job's.
        marks[payload.job_id] = {"parse": parsed["decode"] + parsed["build"],
                                 "submit": time.monotonic()}
        return submit(self, payload, **kwargs)

    def traced_pop(self):
        item = pop(self)
        if item is not None:
            job_ids[id(item.payload.job)] = item.payload.job_id
        return item

    encode = server.encode

    def traced_encode(message):
        t0 = time.monotonic()
        data = encode(message)
        if message.get("id") in marks:
            mark = marks[message["id"]]
            mark["encode"] = mark.get("encode", 0.0) + time.monotonic() - t0
        return data

    server.encode = traced_encode
    server.decode = timed(decode, "decode")
    server.build_job = timed(build_job, "build")

    AdmissionQueue.submit, AdmissionQueue.pop = traced_submit, traced_pop

    def wrap_run(cls) -> None:
        run = cls.run

        def traced_run(self, execution, emit):
            job_id = job_ids.pop(id(self), None)
            root = tracer.begin("service.exec", job_id)
            traced = job_id is not None and job_id % 2 == 0
            if traced:
                tracer.enabled, tracer.request = True, job_id
                tracing.phase_timers(True)
            try:
                return run(self, execution, emit)
            finally:
                if traced:
                    tracer.enabled, tracer.request = False, None
                    tracing.phase_timers(False)
                tracer.end(root)

        cls.run = traced_run

    for kind in ("transient", "table1"):
        wrap_run(JOB_KINDS[kind])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace-file")
    args, service_args = parser.parse_known_args()
    from repro.service import __main__ as service_main
    print(f"perfbench-daemon imported {time.monotonic()!r}", flush=True)
    tracer, marks = None, {}
    if args.trace_file:
        import tracing
        tracer = tracing.Tracer()
        install_service_tracing(tracer, marks)
    code = service_main.main(service_args)
    if tracer is not None:
        tracer.dump(args.trace_file,
                    marks={str(k): v for k, v in marks.items()})
    return code


if __name__ == "__main__":
    sys.exit(main())
