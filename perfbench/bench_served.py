"""The ``served`` workload: short asserted sessions against ``repro serve``.

The server runs in its own process (so the generator never shares its
interpreter lock).  The generator is one process, one thread and two
connections: an asyncio open loop whose seeded Poisson arrivals are sent
when due whether or not earlier sessions finished, each timed from its
due time to its ``closed`` frame.  A connection's frames are handled in
order by the server, so a session due while its connection is busy waits,
and that wait counts.

Sessions are SwapLeak (streams a violation frame per report), mpegaudio,
and the MiniJ programs in ``examples/programs`` submitted as source.  Each
session's counters and violation lines must equal a direct run of the same
workload and inputs, and SwapLeak's violation count must equal its known
answer.

Phases run back to back, each drained before the next: ``light`` (about a
third of capacity; its figures are the end-to-end metrics), ``heavy``
(about three quarters), then a bisection over a fixed geometric ladder of
rates (step :data:`LADDER_STEP`; light and heavy are two of its rungs) for
the highest rung that meets the limit: p90 latency within
:data:`LATENCY_LIMIT_S` and a backlog that does not grow.
The completion rate of the highest offered rate that met the limit is
printed with every run; it is not an end-to-end metric because on a
shared host its run-to-run spread exceeds the largest allowed bound.
"""

from __future__ import annotations

import asyncio
import gc
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Optional

import bench_ledger
from bench_direct import Measured, swapleak_expected_violations
from bench_stats import BenchmarkError, highest_tail, median, percentile, tail

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PROGRAMS_DIR = os.path.join(ROOT, "examples", "programs")

#: Arrival rates, sessions/s, fixed from a measured capacity of 20 to 52
#: (median about 40) sessions/s within the limit on a shared 2-core x86-64
#: host (2 connections, default server): light is about a third of it.
LIGHT_RATE = 12.0
HEAVY_RATE = LIGHT_RATE * 1.05 ** 24  # 38.7/s
#: The fixed geometric ladder of rates ``LIGHT_RATE * LADDER_STEP ** k``
#: for ``k`` in ``0..LADDER_TOP``; the light rate is rung 0 and the heavy
#: rate rung :data:`HEAVY_RUNG`.  At most :data:`LADDER_MAX_RUNGS` extra
#: rungs are run per invocation, :data:`RUNG_SESSIONS` sessions each.
LADDER_STEP = 1.05
HEAVY_RUNG = 24
LADDER_TOP = 30
LADDER_MAX_RUNGS = 5
RUNG_SESSIONS = 100
#: Latency limit on a phase's p90 (the highest percentile 100 sessions
#: support): about 5x the unloaded median session (~20 ms).
LATENCY_LIMIT_S = 0.100
#: Share of ``--seconds`` spent at the light and at the heavy rate; the
#: ladder's rungs follow, 100 sessions each.
LIGHT_SHARE = 0.4
HEAVY_SHARE = 0.15
#: Server boots per run; ``setup_s`` is their median.
BOOTS = 7
#: Connections the generator opens.
CONNECTIONS = 2
#: Sessions of each kind run (unmeasured) before the first phase.
WARMUP_PER_KIND = 2
#: SwapLeak session shape (the collection cadence is fixed; the swap
#: count is drawn per session).
SWAPLEAK_GC_EVERY = 8
SWAPLEAK_SWAPS = (24, 32, 40)
#: Seconds a phase may take to drain after its last arrival.
DRAIN_TIMEOUT_S = 30.0


@dataclass(frozen=True)
class SessionInput:
    """What one session runs: the inputs the generator sends the server."""

    kind: str
    workload: str
    overrides: tuple = ()
    program: Optional[str] = None

    @property
    def key(self) -> tuple:
        return (self.workload, self.overrides, self.program)


def load_programs() -> list[tuple[str, str]]:
    names = sorted(n for n in os.listdir(PROGRAMS_DIR) if n.endswith(".minij"))
    out = []
    for name in names:
        with open(os.path.join(PROGRAMS_DIR, name)) as handle:
            out.append((name, handle.read()))
    return out


def all_inputs(programs) -> list:
    """Every distinct session input the generator can draw."""
    specs = [SessionInput("mpegaudio", "mpegaudio")]
    specs += [
        SessionInput(
            "swapleak", "swapleak",
            (("array_size", 32), ("gc_every_swaps", SWAPLEAK_GC_EVERY), ("swaps", swaps)),
        )
        for swaps in SWAPLEAK_SWAPS
    ]
    specs += [SessionInput(f"minij:{name}", "swapleak", (), source) for name, source in programs]
    return specs


def schedule(rng: random.Random, rate: float, count: int, programs) -> list:
    """``count`` Poisson arrivals at ``rate``: ``[(due offset s, SessionInput)]``.

    Sessions come in blocks that run every distinct input once, in a
    seeded order, so every phase of a given length has the same mix.  The
    gaps are exponential; the offsets are then scaled so the last arrival
    falls at ``count / rate``, which makes every schedule offer exactly its
    nominal rate.
    """
    inputs = all_inputs(programs)
    specs: list = []
    while len(specs) < count:
        block = list(inputs)
        rng.shuffle(block)
        specs.extend(block)
    offsets = []
    t = 0.0
    for _ in range(count):
        t += rng.expovariate(rate)
        offsets.append(t)
    scale = (count / rate) / offsets[-1]
    return [(offset * scale, spec) for offset, spec in zip(offsets, specs)]


# -- known answers ------------------------------------------------------------------------


def direct_answer(spec: SessionInput) -> dict:
    """Counters and violation lines of the same workload run on a VM built
    like a tenant's, without the service."""
    from repro.runtime.vm import VirtualMachine
    from repro.service.session import resolve_workload

    heap_bytes, runner = resolve_workload(spec.workload, True, dict(spec.overrides))
    vm = VirtualMachine(
        heap_bytes=heap_bytes, assertions=True, telemetry=True,
        hardened=True, max_heap_bytes=heap_bytes * 2,
    )
    if spec.program is not None:
        from repro.interp.interpreter import Interpreter

        interp = Interpreter(vm)
        interp.load(spec.program)
        interp.run("main")
    else:
        runner(vm)
    vm.collector.sweep_all()
    answer = {
        "counters": vm.stats.snapshot()["counters"],
        "violations": vm.violation_lines(),
    }
    if spec.kind == "swapleak":
        overrides = dict(spec.overrides)
        want = swapleak_expected_violations(overrides["swaps"], overrides["gc_every_swaps"])
        if len(answer["violations"]) != want:
            raise BenchmarkError(
                f"direct SwapLeak run reported {len(answer['violations'])} "
                f"violations, expected {want}"
            )
    return answer


# -- the server process ---------------------------------------------------------------


class ServerProcess:
    """``python -m repro serve`` (or the traced launcher) in a child process."""

    def __init__(self, env: dict, traced_dump: Optional[str] = None):
        if traced_dump is None:
            argv = [sys.executable, "-m", "repro", "serve", "--port", "0", "--http-port", "0"]
        else:
            argv = [sys.executable, os.path.join(HERE, "server_launcher.py"), "--dump", traced_dump]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline()
        self.boot_s = time.perf_counter() - start
        if not line.startswith("serving repro-wire/1 on "):
            self.stop()
            raise BenchmarkError(f"server did not start: {line!r}")
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchmarkError("server VmHWM unavailable")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.communicate(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.communicate()
        else:
            self.proc.communicate()


# -- the generator -----------------------------------------------------------------------


@dataclass
class Request:
    due: float
    spec: SessionInput
    conn: int
    tenant: str = ""
    sent: float = 0.0
    opened: float = 0.0
    submitted: float = 0.0
    resulted: float = 0.0
    close_sent: float = 0.0
    closed: float = 0.0
    session: Optional[str] = None
    result: Optional[dict] = None
    violation_frames: int = 0
    pauses: list = field(default_factory=list)
    dropped_frames: int = 0
    error: Optional[str] = None
    done: bool = False

    @property
    def latency(self) -> float:
        return self.closed - self.due


class Generator:
    """Open-loop asyncio client over :data:`CONNECTIONS` connections."""

    def __init__(self, port: int):
        self.port = port
        self.conns: list = []
        self.by_tenant: dict[str, Request] = {}
        self.by_session: dict[str, Request] = {}
        self.pending_opens: list[list[Request]] = []
        self.inflight = 0
        self.counter = 0

    async def connect(self) -> None:
        from repro.service import wire

        for i in range(CONNECTIONS):
            reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
            self.conns.append((reader, writer, wire.FrameDecoder()))
            self.pending_opens.append([])
            self._send(i, {"type": "hello", "schema": wire.WIRE_SCHEMA})
        self.readers = [asyncio.ensure_future(self._read(i)) for i in range(CONNECTIONS)]

    async def close(self) -> None:
        for _reader, writer, _decoder in self.conns:
            writer.close()
        for task in self.readers:
            task.cancel()
        await asyncio.gather(*self.readers, return_exceptions=True)

    def _send(self, conn: int, frame: dict) -> None:
        from repro.service import wire

        self.conns[conn][1].write(wire.encode_frame(frame))

    async def _read(self, conn: int) -> None:
        reader, _writer, decoder = self.conns[conn]
        while True:
            data = await reader.read(1 << 16)
            if not data:
                for request in self.pending_opens[conn]:
                    self._fail(request, "server closed the connection")
                return
            for frame in decoder.feed(data):
                self._on_frame(conn, frame)

    def _fail(self, request: Request, why: str) -> None:
        if not request.done:
            request.error = why
            request.done = True
            request.closed = time.perf_counter()
            self.inflight -= 1

    def _on_frame(self, conn: int, frame: dict) -> None:
        now = time.perf_counter()
        kind = frame.get("type")
        if kind == "welcome":
            return
        if kind in ("opened", "rejected"):
            request = self.by_tenant.get(frame.get("tenant"))
            if request is None:
                return
            self.pending_opens[conn].remove(request)
            request.opened = now
            if kind == "rejected":
                self._fail(request, f"rejected: {frame.get('reason')}")
                return
            request.session = frame["session"]
            self.by_session[request.session] = request
            submit = {"type": "submit", "session": request.session}
            if request.spec.program is not None:
                submit["program"] = request.spec.program
            request.submitted = time.perf_counter()
            self._send(conn, submit)
            return
        request = self.by_session.get(frame.get("session"))
        if request is None:
            if kind == "error" and self.pending_opens[conn]:
                self._fail(self.pending_opens[conn].pop(0), f"error: {frame.get('error')}")
            return
        if kind == "violation":
            request.violation_frames += 1
        elif kind == "gc-event":
            request.pauses.append(frame["pause_s"])
        elif kind == "result":
            request.resulted = now
            request.result = frame
            request.close_sent = time.perf_counter()
            self._send(conn, {"type": "close", "session": request.session})
        elif kind == "closed":
            request.closed = now
            request.dropped_frames = int(frame.get("dropped_frames") or 0)
            request.done = True
            self.inflight -= 1
        elif kind == "error":
            self._fail(request, f"error: {frame.get('error')}")

    async def run_phase(self, arrivals: list) -> "Phase":
        """Send ``arrivals`` on schedule, then wait for all of them to close."""
        gc.collect()
        loop_start = time.perf_counter() + 0.01
        phase = Phase()
        for offset, spec in arrivals:
            due = loop_start + offset
            delay = due - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            self.counter += 1
            request = Request(due, spec, self.counter % CONNECTIONS)
            request.tenant = f"r{self.counter}"
            self.by_tenant[request.tenant] = request
            self.pending_opens[request.conn].append(request)
            self.inflight += 1
            phase.backlog.append(self.inflight)
            request.sent = time.perf_counter()
            self._send(request.conn, {
                "type": "open", "tenant": request.tenant, "workload": spec.workload,
                "asserted": True, "overrides": dict(spec.overrides), "wait": True,
            })
            phase.requests.append(request)
        phase.arrivals_end = time.perf_counter()
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while any(not r.done for r in phase.requests):
            for task in self.readers:
                if task.done() and task.exception() is not None:
                    raise BenchmarkError(f"connection reader failed: {task.exception()!r}")
            if time.perf_counter() > deadline:
                for request in phase.requests:
                    self._fail(request, "not closed before the drain timeout")
                break
            await asyncio.sleep(0.005)
        phase.start = loop_start
        return phase


@dataclass
class Phase:
    requests: list = field(default_factory=list)
    #: In-flight sessions seen at each arrival.
    backlog: list = field(default_factory=list)
    start: float = 0.0
    arrivals_end: float = 0.0
    label: str = ""
    #: Nominal arrival rate, sessions/s.
    offered: float = 0.0

    def ok(self) -> list:
        return [r for r in self.requests if r.error is None]

    def latencies(self) -> list:
        return [r.latency for r in self.ok()]

    def _limit_latencies(self) -> list:
        """Latencies with failed sessions counted as missing any limit."""
        return [r.latency if r.error is None else float("inf") for r in self.requests]

    def tail_latency(self) -> tuple[float, float]:
        """(percentile, value) at the highest percentile the sample supports."""
        values = self._limit_latencies()
        pct = highest_tail(len(values))
        if pct is None:
            raise BenchmarkError(f"{len(values)} sessions are too few for a tail")
        return pct, tail(values, pct)

    def slo_latency(self) -> float:
        """The latency the limit applies to: p90 of the phase's sessions."""
        return tail(self._limit_latencies(), 90.0)

    def backlog_grows(self) -> bool:
        """True when the in-flight count kept rising across the phase."""
        third = len(self.backlog) // 3
        if third < 3:
            return False
        first = sum(self.backlog[:third]) / third
        last = sum(self.backlog[-third:]) / third
        return last > first + max(2.0, first)

    def rate(self) -> float:
        """Sessions completed per second of the phase's arrival window."""
        return len(self.ok()) / max(self.arrivals_end - self.start, 1e-9)

    def meets_slo(self) -> bool:
        return self.slo_latency() <= LATENCY_LIMIT_S and not self.backlog_grows()


def check_answers(requests: list, answers: dict) -> list[str]:
    """Compare each completed session with its direct run."""
    problems = []
    for request in requests:
        if request.error is not None:
            problems.append(f"{request.tenant} ({request.spec.kind}): {request.error}")
            continue
        result = request.result
        want = answers[request.spec.key]
        if result.get("outcome") != "completed":
            problems.append(f"{request.tenant}: outcome {result.get('outcome')}")
        elif result["counters"] != want["counters"]:
            diff = sorted(
                k for k in want["counters"] if result["counters"].get(k) != want["counters"][k]
            )
            problems.append(f"{request.tenant} ({request.spec.kind}): counters differ: {diff}")
        elif result["violations"] != want["violations"]:
            problems.append(f"{request.tenant} ({request.spec.kind}): violation lines differ")
        elif request.violation_frames != len(want["violations"]):
            problems.append(
                f"{request.tenant}: {request.violation_frames} violation frames, "
                f"expected {len(want['violations'])}"
            )
    return problems


# -- the workload ---------------------------------------------------------------------


async def _drive(port: int, warmup: list, light: list, heavy=None, rung=None) -> list:
    """Warm up, then run the light phase and, when given, the heavy phase
    and a bisection of the ladder for the highest rung that meets the
    limit.  Returns every phase, the warm-up first."""
    generator = Generator(port)
    await generator.connect()
    try:
        warm = await generator.run_phase(warmup)
        warm.label = "warm-up"
        light_phase = await generator.run_phase(light)
        light_phase.label, light_phase.offered = "light", LIGHT_RATE
        phases = [warm, light_phase]
        if heavy is None:
            return phases
        heavy_phase = await generator.run_phase(heavy)
        heavy_phase.label, heavy_phase.offered = "heavy", HEAVY_RATE
        phases.append(heavy_phase)
        if not light_phase.meets_slo():
            return phases  # no rung of the ladder can meet the limit
        # Rung indices known to meet (lo) and to miss (hi) the limit.
        if heavy_phase.meets_slo():
            lo, hi = HEAVY_RUNG, LADDER_TOP + 1
        else:
            lo, hi = 0, HEAVY_RUNG
        for _ in range(LADDER_MAX_RUNGS):
            if hi - lo <= 1:
                break
            k = (lo + hi) // 2
            rate = LIGHT_RATE * LADDER_STEP ** k
            phase = await generator.run_phase(rung(rate))
            phase.label, phase.offered = f"rung {k} ({rate:.1f}/s)", rate
            phases.append(phase)
            if phase.meets_slo():
                lo = k
            else:
                hi = k
        return phases
    finally:
        await generator.close()


def _warmup(programs) -> list:
    specs = all_inputs(programs) * WARMUP_PER_KIND
    return [(0.02 * i, spec) for i, spec in enumerate(specs)]


def _boot(env: dict) -> tuple[float, ServerProcess]:
    """Boot the untraced server :data:`BOOTS` times; keep the last running."""
    boots = []
    server = None
    for i in range(BOOTS):
        server = ServerProcess(env)
        boots.append(server.boot_s)
        if i < BOOTS - 1:
            server.stop()
    return median(boots), server


def _pin_to_one_cpu() -> None:
    """Run the generator, and the servers it starts, on one CPU.

    On a shared 2-vCPU host a fixed CPU loop's run-to-run spread rose from
    6% with one vCPU busy to 25-28% with both busy.  The server's
    interpreter lock keeps it on about one core anyway, and the generator
    and server still run in separate processes.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(seed: int, seconds: float, trace: bool, env: dict) -> Measured:
    _pin_to_one_cpu()
    rng = random.Random(seed)
    programs = load_programs()
    # Every phase has at least the sessions its p90 needs.
    light = schedule(
        rng, LIGHT_RATE, max(RUNG_SESSIONS, round(LIGHT_RATE * seconds * LIGHT_SHARE)), programs
    )
    heavy = schedule(
        rng, HEAVY_RATE, max(RUNG_SESSIONS, round(HEAVY_RATE * seconds * HEAVY_SHARE)), programs
    )

    def rung(rate: float) -> list:
        return schedule(random.Random(f"{seed}:{rate:.3f}"), rate, RUNG_SESSIONS, programs)

    warmup = _warmup(programs)
    # Known answers come from direct runs of every distinct input.
    answers = {spec.key: direct_answer(spec) for spec in all_inputs(programs)}

    measured = Measured()
    if trace:
        return _measure_traced(seed, light, warmup, answers, env, measured)

    setup_s, server = _boot(env)
    try:
        phases = asyncio.run(_drive(server.port, warmup, light, heavy, rung))
        rss = server.peak_rss_mb()
    finally:
        server.stop()

    for phase in phases:
        measured.attempted += len(phase.requests)
        measured.failures.extend(check_answers(phase.requests, answers))
    phases = phases[1:]
    light_phase = phases[0]
    ok = light_phase.ok()
    if not ok:
        raise BenchmarkError("no session completed at the light rate")
    pauses = [p for r in ok for p in r.pauses]
    # A served "pass" runs every distinct input once; each input's session
    # is represented by its median, so a session slowed by sharing the
    # server with another one does not move the pass.
    by_input: dict = {}
    for request in ok:
        by_input.setdefault(request.spec.key, []).append(request.result)
    if len(by_input) != len(answers):
        raise BenchmarkError("some input never completed at the light rate")
    pass_wall = sum(median([r["wall_s"] for r in rs]) for rs in by_input.values())
    pass_gc = sum(median([r["gc_seconds"] for r in rs]) for rs in by_input.values())
    passing = [p for p in phases if p.meets_slo()]
    best = max(passing, key=lambda p: p.offered) if passing else None
    measured.metrics = {
        "setup_s": setup_s,
        "run_s": pass_wall,
        "gc_share": pass_gc / pass_wall,
        "pause_p50_ms": median(pauses) * 1e3,
        "req_p50_ms": median(light_phase.latencies()) * 1e3,
        "peak_rss_mb": rss,
    }
    for phase in phases:
        pct, value = phase.tail_latency()
        lags = [r.sent - r.due for r in phase.requests]
        lag_pct = highest_tail(len(lags)) or 50.0
        tail_note = f", p{pct:g} {value * 1e3:.1f} ms" if pct != 90.0 else ""
        measured.notes.append(
            f"served {phase.label}: {len(phase.requests)} sessions at {phase.rate():.1f}/s, "
            f"p50 {median(phase.latencies()) * 1e3:.1f} ms, "
            f"p90 {phase.slo_latency() * 1e3:.1f} ms{tail_note}, "
            f"lag p{lag_pct:g} {percentile(lags, lag_pct) * 1e3:.2f} ms, "
            f"backlog max {max(phase.backlog)}{' (grows)' if phase.backlog_grows() else ''}, "
            f"{'meets' if phase.meets_slo() else 'misses'} the "
            f"{LATENCY_LIMIT_S * 1e3:.0f} ms limit"
        )
    measured.notes.append(
        f"served: pause p90 {tail(pauses, 90.0) * 1e3:.3f} ms from {len(pauses)} pauses "
        f"at the light rate"
    )
    measured.notes.append(
        "served: max rate within the limit "
        + (f"{best.rate():.2f}/s ({best.label})" if best is not None else "none")
    )
    return measured


def _measure_traced(seed, light, warmup, answers, env, measured: Measured) -> Measured:
    """Light phase on the untraced server, then on the traced launcher."""
    import json

    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    dump = os.path.join(out_dir, f"server-served-seed{seed}.json")

    server = ServerProcess(env)
    try:
        plain_warm, plain = asyncio.run(_drive(server.port, warmup, light))
    finally:
        server.stop()

    recorder = bench_ledger.SpanRecorder()
    from repro.service import wire

    bench_ledger.instrument_wire(recorder, wire)
    server = ServerProcess(env, traced_dump=dump)
    try:
        traced_warm, traced = asyncio.run(_drive(server.port, warmup, light))
    finally:
        server.stop()
        recorder.unwrap_all()
    with open(dump) as handle:
        doc = json.load(handle)

    for phase in (plain_warm, plain, traced_warm, traced):
        measured.attempted += len(phase.requests)
        measured.failures.extend(check_answers(phase.requests, answers))
    ok = traced.ok()
    tenants = {r.tenant for r in ok}
    rows = {row["tenant"]: row for row in doc["requests"] if row["tenant"] in tenants}
    spans = bench_ledger.merge_requests(doc["spans"], tenants)
    breakdown = bench_ledger.GcBreakdown()
    for tenant in tenants:
        breakdown.merge(doc["gc"].get(tenant, {}))
    metrics = bench_ledger.layer_metrics(spans, breakdown.totals)

    # Server-side wire work is not tied to one request; the client's is ours.
    server_wire = doc["spans"].get("None", {})
    client_wire = recorder.aggregates()
    for key, name in (("wire.encode_s", "wire.encode"), ("wire.decode_s", "wire.decode")):
        metrics[key] = (
            server_wire.get(name, [0, 0.0, 0.0])[2] + client_wire.get(name, [0, 0.0, 0.0])[2]
        )
    metrics["wire.frames"] = (
        server_wire.get("wire.encode", [0])[0] + client_wire.get("wire.encode", [0])[0]
    )
    metrics["service.frames_out"] = server_wire.get("wire.encode", [0])[0]

    admission = sum(rows[t]["admission_wait_s"] + rows[t]["admission_commit_s"] for t in rows)
    executor_wait = sum(rows[t]["executor_wait_s"] for t in rows)
    setup = spans.get("service.session_setup", [0, 0.0, 0.0])[2]
    execution = spans.get("service.workload_execution", [0, 0.0, 0.0])[2]
    lags = [r.sent - r.due for r in ok]
    lag_pct = highest_tail(len(lags)) or 50.0
    metrics.update({
        "service.session_setup_s": setup,
        "service.admission_wait_s": admission,
        "service.executor_wait_s": executor_wait,
        "service.workload_execution_s": execution,
        "service.violation_delivery_s": sum(doc["delivery_s"].get(t, 0.0) for t in tenants),
        "service.violation_frames": sum(r.violation_frames for r in ok),
        "service.dropped_frames": sum(r.dropped_frames for r in ok),
        "service.rejected": doc["admission"]["rejected_total"],
        "client.open_s": sum(r.opened - r.sent for r in ok),
        "client.submit_s": sum(r.resulted - r.submitted for r in ok),
        "client.close_s": sum(r.closed - r.close_sent for r in ok),
        "loadgen.lag_tail_ms": percentile(lags, lag_pct) * 1e3,
        "loadgen.backlog_max": max(traced.backlog),
        "loadgen.lag_s": sum(lags),
        "traced_total_s": sum(r.latency for r in ok),
        "gc.pause_p90_ms": tail([p for r in plain.ok() for p in r.pauses], 90.0) * 1e3,
        "trace_overhead": median(traced.latencies()) / median(plain.latencies()),
        "core.path_report_share": (
            metrics["core.path_report_s"] / metrics["gc.mark_drain_s"]
            if metrics["gc.mark_drain_s"] else 0.0
        ),
    })
    # The ledger of a request: generator lag, then the server's admission,
    # session set-up, executor wait and execution (split by layer); the
    # rest (network, event loop, framing, the client) is unattributed.
    metrics["layer.loadgen_s"] = metrics["loadgen.lag_s"]
    metrics["layer.service_s"] = admission + executor_wait + setup + execution
    server_side = sum(
        metrics[f"layer.{layer}_s"] for layer in bench_ledger.LEDGER_LAYERS
    )
    metrics["unattributed_s"] = metrics["traced_total_s"] - server_side
    if metrics["unattributed_s"] < 0:
        raise BenchmarkError(
            f"layer times exceed the requests' latency by {-metrics['unattributed_s']:.4f}s"
        )
    measured.metrics = metrics
    measured.notes.append(
        f"served traced: {len(ok)} sessions at the light rate; "
        f"lag p{lag_pct:g} from {len(lags)} samples"
    )
    return measured
