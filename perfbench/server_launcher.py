"""The assertion service with request tracing on, for the traced ``served`` run.

Starts :class:`repro.service.AssertionService` with
``ServiceConfig(tracing=True)`` (its ``DistributedTracer`` records each
request's admission, executor wait, execution and violation delivery) and
wraps the layers the service calls into with the benchmark's span
recorder.  Prints the same ``serving repro-wire/1 on HOST:PORT`` line as
``python -m repro serve``; on SIGTERM it stops the service and writes one
JSON document to ``--dump``: the ``request_rows()`` table, the summed
violation-delivery time, the per-request span aggregates, and the
per-request collector breakdown.

    python3 perfbench/server_launcher.py --dump .perfbench/server.json
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import bench_ledger  # noqa: E402


def _instrument_sessions(recorder: bench_ledger.SpanRecorder, breakdowns: dict, lock) -> None:
    """Attribute session set-up and execution to the requesting tenant."""
    from repro.service.session import TenantSession

    init = TenantSession.__init__
    run = TenantSession.run
    traced_init = recorder.traced("service.session_setup", init)
    traced_run = recorder.traced("service.workload_execution", run)

    def setup(self, session_id, tenant, *args, **kwargs):
        return recorder.call_for(tenant, traced_init, self, session_id, tenant, *args, **kwargs)

    def execute(self, runner):
        try:
            return recorder.call_for(self.tenant, traced_run, self, runner)
        finally:
            # After the result frame is queued: the breakdown is not part
            # of the request's critical path beyond this thread's slice.
            mine = bench_ledger.GcBreakdown()
            mine.add_vm(self.vm, piggyback=False)
            with lock:
                breakdowns[self.tenant] = mine.totals

    TenantSession.__init__ = setup
    TenantSession.run = execute


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--dump", required=True)
    parser.add_argument("--host", default="127.0.0.1")
    args = parser.parse_args()

    from repro.service import server as server_module
    from repro.service import AssertionService, ServiceConfig
    from repro.tracing.distributed import request_rows

    recorder = bench_ledger.SpanRecorder()
    breakdowns: dict = {}
    lock = threading.Lock()
    bench_ledger.instrument_direct(recorder)
    bench_ledger.instrument_interp(recorder)
    bench_ledger.instrument_wire(recorder, server_module)
    _instrument_sessions(recorder, breakdowns, lock)

    service = AssertionService(
        ServiceConfig(host=args.host, port=0, http_port=0, tracing=True)
    ).start()
    print(f"serving repro-wire/1 on {args.host}:{service.port}", flush=True)

    stop = threading.Event()
    signal.signal(signal.SIGTERM, lambda *_: stop.set())
    signal.signal(signal.SIGINT, lambda *_: stop.set())
    while not stop.is_set():
        stop.wait(0.2)
    service.stop()

    spans, _lanes = service.tracer.snapshot()
    delivery: dict = {}
    tenant_of = {row["span_id"]: row["tenant"] for row in request_rows(service.tracer)}
    for span in spans:
        if span["name"] == "violation_delivery" and span["end"] is not None:
            tenant = tenant_of.get(span.get("parent_span_id"))
            delivery[tenant] = delivery.get(tenant, 0.0) + span["end"] - span["start"]
    per_request = {str(request): rows for request, rows in recorder.by_request().items()}
    with lock:
        gc_totals = dict(breakdowns)
    doc = {
        "requests": request_rows(service.tracer),
        "delivery_s": {str(k): v for k, v in delivery.items()},
        "spans": per_request,
        "gc": gc_totals,
        "admission": service.admission.snapshot(),
    }
    with open(args.dump, "w") as handle:
        json.dump(doc, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
