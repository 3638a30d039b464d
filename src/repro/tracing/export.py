"""Chrome ``trace_event`` JSON export — loadable in Perfetto directly.

The exported file follows the Trace Event Format's JSON-object form::

    {"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}

* Span begins/ends become ``ph: "B"`` / ``ph: "E"`` duration events; the
  recorder's stack discipline guarantees they are balanced and properly
  nested, and :func:`validate_chrome_trace` (shared by the tier-1 schema
  test and the CI ``trace-smoke`` job) re-verifies it on the serialized
  form.
* Instants become ``ph: "i"`` with thread scope, counters ``ph: "C"``
  (Perfetto renders those as graph lanes — sweep debt over time).
* Timestamps are microseconds relative to the tracer's ``t0`` — always
  monotonically non-decreasing because the recorder is single-threaded.
* ``ph: "M"`` metadata events name the process and thread tracks.

Everything runs in one simulated mutator thread (collections are
stop-the-world), so one ``(pid, tid)`` track carries all spans: in-pause
phases nest under ``collect``, lazy-sweep slices appear between pauses at
their true mutator-time position.
"""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Optional, Union

if TYPE_CHECKING:
    from repro.tracing.spans import SpanTracer

#: Schema tag recorded in ``otherData`` (the trace body itself is the
#: standard Chrome format; this versions *our* args/metadata layout).
TRACE_SCHEMA = "repro-trace/1"

#: Synthetic ids for the single simulated process/thread.
TRACE_PID = 1
TRACE_TID = 1


def chrome_trace_events(tracer: "SpanTracer") -> list[dict]:
    """Convert the recorder's event stream to Chrome trace_event dicts."""
    t0 = tracer.t0
    out: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "ts": 0,
            "args": {"name": "repro-vm"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": TRACE_PID,
            "tid": TRACE_TID,
            "ts": 0,
            "args": {"name": "mutator+gc"},
        },
    ]
    append = out.append
    for event in tracer.events:
        ph = event[0]
        if ph == "B":
            _ph, name, cat, ts, args = event
            row = {
                "name": name,
                "cat": cat,
                "ph": "B",
                "ts": (ts - t0) * 1e6,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
            }
            if args:
                row["args"] = args
        elif ph == "E":
            _ph, name, ts = event
            row = {
                "name": name,
                "ph": "E",
                "ts": (ts - t0) * 1e6,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
            }
        elif ph == "i":
            _ph, name, cat, ts, args = event
            row = {
                "name": name,
                "cat": cat,
                "ph": "i",
                "s": "t",
                "ts": (ts - t0) * 1e6,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
            }
            if args:
                row["args"] = args
        else:  # "C"
            _ph, name, ts, values = event
            row = {
                "name": name,
                "ph": "C",
                "ts": (ts - t0) * 1e6,
                "pid": TRACE_PID,
                "tid": TRACE_TID,
                "args": values,
            }
        append(row)
    return out


def trace_payload(tracer: "SpanTracer", meta: Optional[dict] = None) -> dict:
    """The full JSON-object-format payload for one recording."""
    other = {"schema": TRACE_SCHEMA}
    if meta:
        other.update(meta)
    return {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": other,
    }


def write_chrome_trace(
    tracer: "SpanTracer", path: str, meta: Optional[dict] = None
) -> dict:
    """Serialize the recording to ``path``; returns a small summary."""
    payload = trace_payload(tracer, meta)
    with open(path, "w") as handle:
        json.dump(payload, handle)
        handle.write("\n")
    return {
        "path": path,
        "events": len(payload["traceEvents"]),
        "spans": tracer.spans_ended,
        "file_bytes": os.path.getsize(path),
    }


def validate_chrome_trace(source: Union[str, dict]) -> list[str]:
    """Check a trace (path or parsed payload) against the format contract.

    Returns a list of problem strings — empty means the trace is valid.
    Verified properties (the tier-1 schema test and CI both call this):

    * top level is an object with a ``traceEvents`` list;
    * every event carries ``ph``, ``pid``, ``tid``, and a numeric ``ts``;
    * timestamps are non-negative and monotonically non-decreasing;
    * ``B``/``E`` events balance per ``(pid, tid)`` with matching names
      (properly nested, nothing left open, no stray ``E``).
    """
    if isinstance(source, str):
        try:
            with open(source) as handle:
                payload = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            return [f"cannot load {source}: {exc}"]
    else:
        payload = source
    problems: list[str] = []
    if not isinstance(payload, dict) or not isinstance(
        payload.get("traceEvents"), list
    ):
        return ["top level must be an object with a 'traceEvents' list"]
    events = payload["traceEvents"]
    stacks: dict[tuple, list[str]] = {}
    last_ts: Optional[float] = None
    for idx, event in enumerate(events):
        if not isinstance(event, dict):
            problems.append(f"event {idx}: not an object")
            continue
        ph = event.get("ph")
        if ph is None:
            problems.append(f"event {idx}: missing 'ph'")
            continue
        for field in ("pid", "tid"):
            if field not in event:
                problems.append(f"event {idx} ({ph} {event.get('name')}): missing {field!r}")
        ts = event.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {idx} ({ph} {event.get('name')}): missing numeric 'ts'")
            continue
        if ts < 0:
            problems.append(f"event {idx}: negative ts {ts}")
        if ph != "M":
            if last_ts is not None and ts < last_ts:
                problems.append(
                    f"event {idx} ({ph} {event.get('name')}): "
                    f"ts {ts} < previous {last_ts} (not monotonic)"
                )
            last_ts = ts
        track = (event.get("pid"), event.get("tid"))
        if ph == "B":
            stacks.setdefault(track, []).append(event.get("name", ""))
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                problems.append(f"event {idx}: 'E' with no open span on {track}")
            else:
                opened = stack.pop()
                name = event.get("name")
                if name is not None and name != opened:
                    problems.append(
                        f"event {idx}: 'E' name {name!r} does not close open span {opened!r}"
                    )
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: {len(stack)} span(s) left open: {stack}")
    return problems
