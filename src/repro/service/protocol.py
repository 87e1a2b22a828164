"""JSON-lines wire protocol of the noise-aware STA job service.

One UTF-8 JSON object per ``\\n``-terminated line, in both directions —
mirroring the repo's dependency-free tooling style (stdlib ``json`` +
sockets, no framing library).  Numbers survive the wire *exactly*:
``json`` serialises finite doubles via ``repr``, which round-trips every
finite IEEE-754 value, so a timing row fetched through the service is
bit-for-bit the row the batch path computes.

Requests (client → server) carry an ``op``:

``{"op": "submit", "job": {...}, "priority": 0, "client": "tenant-a"}``
    Enqueue a job (see :mod:`repro.service.jobs` for job specs).
    ``priority`` (higher runs earlier) and ``client`` (admission quota
    + store namespace) are optional.
``{"op": "stats"}``
    Queue/store/fleet statistics snapshot.
``{"op": "ping"}``
    Liveness probe.
``{"op": "shutdown"}``
    Stop the service after the in-flight job set drains (the service is
    a trusted-network daemon, like the rest of the repo's tooling).

Responses (server → client) carry an ``event``.  A submission streams::

    {"event": "accepted", "id": 7, "queue_depth": 3}
    {"event": "progress", "id": 7, ...}     zero or more
    {"event": "row", "id": 7, ...}          zero or more (partial results)
    {"event": "done", "id": 7, "result": {...}}

or is refused up front::

    {"event": "rejected", "reason": "queue full", "retry_after": 1.5}

Failures end a stream with ``{"event": "error", "id": 7, "error": "..."}``.
"""

from __future__ import annotations

import json

from ..faults import maybe_fault

__all__ = ["PROTOCOL_VERSION", "MAX_LINE_BYTES", "ProtocolError",
           "encode", "decode"]

#: Bumped on incompatible wire changes; carried in ``hello``/``pong``.
PROTOCOL_VERSION = 1

#: Upper bound on one request line (admission control for the parser:
#: a malformed client must not buffer unbounded garbage server-side).
#: Responses (waveform payloads) may be longer; the bound is on requests.
MAX_LINE_BYTES = 4 * 1024 * 1024


class ProtocolError(ValueError):
    """A line that is not one JSON object, or an over-long request."""


def encode(message: dict) -> bytes:
    """One message as a ``\\n``-terminated JSON line.

    The ``service.frame`` injection point can truncate the frame
    mid-line (no terminator), standing in for a sender that died with a
    half-written buffer — the receiver must treat the stitched-together
    line as one malformed request, not hang on it.
    """
    data = json.dumps(message, separators=(",", ":"),
                      allow_nan=True).encode("utf-8") + b"\n"
    rule = maybe_fault("service.frame")
    if rule is not None and rule.kind == "truncate":
        return data[:max(1, len(data) // 2)]
    return data


def decode(line: "bytes | str") -> dict:
    """Parse one line into a message dict.

    Raises
    ------
    ProtocolError
        When the line is not valid JSON (nesting too deep to parse
        included) or not a JSON object.
    """
    try:
        obj = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ProtocolError(f"not a JSON line: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"expected a JSON object, got {type(obj).__name__}")
    return obj
