"""The serving workloads: ``http-classify`` and ``fleet-classify``.

Both serve the seeded 5-layer 64x64 DONN to single-image requests from
this process, with at most ``WINDOW`` requests outstanding (one per
core, as a client with that many connections), and check every answer
against a ``repro.engine.compile`` reference at ``atol=1e-10``.

* ``http-classify``: ``GatewayClient`` -> ``Gateway`` ->
  ``InferenceServer`` (in-process, cascade collapsed) in a server
  process of its own (``gateway_proc.py``).
* ``fleet-classify``: ``InferenceServer.submit`` in this process, onto a
  ``ReplicaGroup`` of two local workers that cold-start from a
  ``ModelStore`` ref published during set-up.  No gateway.

An untraced run (``--trace 0``) sets up ``SETUP_REPS`` times, warms up,
then keeps the window full for ``--seconds`` (closed loop).  Its
latency is the p50 over every answered request, and its throughput the
median answer rate over stretches of 32 answers: medians, because a
stall on the shared host hits a few requests hard and leaves the rest
alone.  A traced run (``--trace 1``) first
measures, untraced, the open-loop reference rung and the rung search
for ``sustained_rps``, then the reference rung again on a fresh set-up
with the benchmark's wrappers on, and turns that last part into
per-layer figures.
"""

from __future__ import annotations

import asyncio
import json
import select
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import numpy as np

from common import (
    OUT_DIR,
    Outcome,
    SpanRecorder,
    cpu_seconds,
    layer_report,
    median,
    peak_rss_mb,
    percentile,
)
from inputs import BATCH, POOL, rng_for, serving_model, serving_payloads
from loadgen import MAX_REFERENCE_LAG_MS, REFERENCE_RPS, RungResult, run_closed, run_rung, search_ladder
from metrics import PER_LAYER

HERE = Path(__file__).resolve().parent
MODEL = "donn"
#: Requests outstanding at once: one per core of the 2-core reference host.
WINDOW = 2
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 5
#: Compiles of the serving model before each set-up, for ``engine.compile_ms``.
COMPILES_PER_SETUP = 3
WARMUP_RPS = 100.0
WARMUP_S = 1.0
PROBE_S = 1.5
ATOL = 1e-10
READY_TIMEOUT_S = 120.0
#: Request indices of warm-up traffic start here, clear of measured ones.
WARMUP_INDEX = 10**7


class Reference:
    """The payload pool and its ``compile()`` answers."""

    def __init__(self, seed: int):
        self.model = serving_model(seed)
        self.pool = serving_payloads(seed)
        self.compile_times: List[float] = []
        self.time_compiles(1)
        self.expected = self.session.run(self.pool)

    def time_compiles(self, count: int) -> None:
        """Compile the model ``count`` more times, keeping the last session."""
        from repro.engine import compile as engine_compile

        for _ in range(count):
            start = time.perf_counter()
            self.session = engine_compile(self.model, batch_size=BATCH)
            self.compile_times.append(time.perf_counter() - start)

    @property
    def compile_s(self) -> float:
        # A mean, not a median: the host drifts between speed states for
        # seconds at a time, and a median of bursty samples jumps between them.
        return sum(self.compile_times) / len(self.compile_times)

    def payload(self, index: int) -> np.ndarray:
        return self.pool[index % POOL]

    def check(self, index: int, answer) -> bool:
        expected = self.expected[index % POOL]
        answer = np.asarray(answer)
        return answer.shape == expected.shape and bool(np.allclose(answer, expected, rtol=0.0, atol=ATOL))


def engine_figures(session) -> Dict[str, float]:
    """FFT ops per image and computed bytes moved per image, from the plan.

    Bytes are computed from array sizes, not measured: every op reads
    its per-image input and writes its per-image output once, and reads
    its cached kernel or operator once per ``BATCH`` images.
    """
    from repro.engine.plan import DetectorOperator, Encode, Intensity, PointwiseMul, ReadIntensity, Skip

    plan = session.plan
    n = plan.grid.shape[0]
    cbytes = np.dtype(plan.cdtype).itemsize
    rbytes = np.dtype(plan.rdtype).itemsize
    total = 0.0

    def visit(ops) -> None:
        nonlocal total
        for op in ops:
            side = n + 2 * getattr(op, "pad", 0)
            field = side * side * cbytes
            if isinstance(op, Encode):
                total += n * n * rbytes + field
            elif isinstance(op, PointwiseMul):
                total += 2 * field + op.values.nbytes / BATCH
            elif isinstance(op, Intensity):
                total += field + n * n * rbytes
            elif isinstance(op, DetectorOperator):
                operator = op.op_real.nbytes + op.op_imag.nbytes
                total += n * n * rbytes + operator / BATCH + len(op.pixels) * rbytes
            elif isinstance(op, ReadIntensity):
                pixels, classes = op.matrix.shape
                total += pixels * rbytes + op.matrix.nbytes / BATCH + classes * rbytes
            elif isinstance(op, Skip):
                total += 2 * field
                visit(op.body)
            else:  # FFT, IFFT, Pad, Crop, Nonlinear: read and write one field
                total += 2 * field

    for branch in plan.branches:
        visit(branch.ops)
    visit(plan.tail)
    return {
        "engine.fft_ops": float(session.plan_summary()["fft_ops_after"]),
        "engine.bytes_per_image": float(total),
    }


# ---------------------------------------------------------------------- #
# Targets: one set-up of the system under test, and how to call it
# ---------------------------------------------------------------------- #
class GatewayProcess:
    """One launch of ``gateway_proc.py``; ``ready_s`` is launch to READY."""

    def __init__(self, seed: int, trace: bool, tag: str):
        self.out = OUT_DIR / f"gateway-{tag}.json"
        started = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "gateway_proc.py"), "--seed", str(seed),
             "--trace", str(int(trace)), "--out", str(self.out)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], READY_TIMEOUT_S)
            line = self.proc.stdout.readline() if ready else ""
            if not line.startswith("READY "):
                raise RuntimeError(f"gateway process did not become ready (got {line!r})")
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise
        self.ready_s = time.monotonic() - started
        self.port = json.loads(line[len("READY "):])["port"]

    def stop(self) -> dict:
        """Ask the server to stop, wait for it, and return its report."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            code = self.proc.wait(timeout=60)
        except (subprocess.TimeoutExpired, BrokenPipeError):
            self.proc.kill()
            self.proc.wait()
            raise RuntimeError("gateway process did not stop") from None
        finally:
            self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"gateway process exited with code {code}")
        report = json.loads(self.out.read_text())
        self.out.unlink()
        return report


class HttpTarget:
    """``http-classify``: a gateway process and a pooled client to it."""

    root = "client.infer"

    def __init__(self, ref: Reference, seed: int, recorder: SpanRecorder = None):
        self.ref = ref
        self.seed = seed
        self.recorder = recorder

    async def start(self, tag: str) -> float:
        from repro.gateway import GatewayClient

        self.server = GatewayProcess(self.seed, trace=self.recorder is not None, tag=tag)
        self.client = GatewayClient("127.0.0.1", self.server.port, max_connections=WINDOW, timeout_s=30.0)
        return self.server.ready_s

    async def call(self, index: int) -> bool:
        if self.recorder is None:
            return self.ref.check(index, await self.client.infer(MODEL, self.ref.payload(index)))
        rid = f"{self.seed & 0xFFFFFFFF:08x}{index:024x}"
        start = time.monotonic()
        answer = await self.client.infer(MODEL, self.ref.payload(index), request_id=rid)
        self.recorder.add("client.infer", rid, start, time.monotonic())
        return self.ref.check(index, answer)

    async def stop(self) -> None:
        try:
            await self.client.close()
        finally:
            self.report = self.server.stop()
        self.peak_rss_mb = self.report["peak_rss_mb"]

    async def snapshot(self) -> dict:
        return await self.client.stats()

    def layer_metrics(self, before: dict, after: dict, t0: float, t1: float, warmup_sent: int) -> Dict[str, float]:
        """Rebuild each traced request's span tree; the gateway-side figures."""
        recorder, report = self.recorder, self.report
        client_spans = {s.key: s for s in recorder.spans if t0 <= s.start < t1}
        recorder.spans = list(client_spans.values())
        calls = sorted(c for c in report["engine_calls"] if t0 <= c[0] < t1)
        call_starts = [c[0] for c in calls]
        submits = {rid: rest for rid, *rest in report["submits"] if rid in client_spans}
        for trace in report["traces"]:
            rid = trace["trace_id"]
            if rid not in submits:
                continue
            anchor, sub_start, sub_end = submits[rid]
            recorder.add("gateway.request", rid, anchor, anchor + trace["duration_ms"] / 1000.0, "client.infer")
            recorder.add("serve.submit", rid, sub_start, sub_end, "gateway.request")
            for span in trace["spans"]:
                start = anchor + span["start_ms"] / 1000.0
                end = start + span["duration_ms"] / 1000.0
                name = span["name"]
                if name in ("gateway.decode", "gateway.encode"):
                    recorder.add(name, rid, start, end, "gateway.request")
                elif name == "serve.queue":
                    recorder.add(name, rid, start, end, "serve.submit")
                elif name == "serve.batch":
                    recorder.add(name, rid, start, end, "serve.submit")
                    recorder.add("serve.scatter", rid, end, max(end, sub_end), "serve.submit")
                    i = int(np.searchsorted(call_starts, start - 1e-4))
                    if i < len(calls) and calls[i][1] <= end + 1e-4:
                        recorder.add("engine.run", rid, calls[i][0], calls[i][1], "serve.batch")
        model_before, model_after = before["models"][MODEL], after["models"][MODEL]
        gw_before, gw_after = before["gateway"], after["gateway"]
        engine_ms = [(end - start) * 1000.0 for start, end, _ in calls]
        batches = model_after["batches"] - model_before["batches"]
        completed = model_after["completed"] - model_before["completed"]
        return {
            "gateway.overhead_ms": median(
                [client_spans[rid].ms - (end - start) * 1000.0 for rid, (_, start, end) in submits.items()]
            ),
            "gateway.decode_ms": median(recorder.durations_ms("gateway.decode")),
            "gateway.encode_ms": median(recorder.durations_ms("gateway.encode")),
            "gateway.requests": float(gw_after["total_requests"] - gw_before["total_requests"]),
            "gateway.errors": float(
                gw_after["requests_rejected"] - gw_before["requests_rejected"]
                + gw_after["connections_rejected"] - gw_before["connections_rejected"]
            ),
            "serve.batch_size_mean": completed / batches if batches else 0.0,
            "serve.batches": float(batches),
            "serve.rejected": float(model_after["rejected"] - model_before["rejected"]),
            "engine.run_ms": median(engine_ms),
            "engine.calls": float(len(calls)),
            "engine.images": float(sum(c[2] for c in calls)),
            "engine.busy_share": sum(engine_ms) / ((t1 - t0) * 1000.0),
            # The server finished one trace per request it answered, warm-up included.
            "obs.traces_finished": float(report["tracer"]["finished"] - warmup_sent),
        }


class FleetTarget:
    """``fleet-classify``: store publish, a 2-replica group, an in-process server."""

    root = "serve.submit"

    def __init__(self, ref: Reference, seed: int, recorder: SpanRecorder = None):
        self.ref = ref
        self.seed = seed
        self.recorder = recorder
        self.traces = []

    async def start(self, tag: str) -> float:
        from repro.cluster import ReplicaGroup
        from repro.serve import InferenceServer
        from repro.store import ModelStore

        self.store_dir = OUT_DIR / f"store-{tag}"
        self.window = asyncio.Semaphore(WINDOW)
        started = time.monotonic()
        store = ModelStore(self.store_dir)
        store.publish(MODEL, self.ref.model, batch_size=BATCH)
        self.publish_ms = (time.monotonic() - started) * 1000.0
        group_class = _timed_group_class() if self.recorder is not None else ReplicaGroup
        self.group = group_class(store.ref(MODEL), replicas=2, name=MODEL)
        self.server = InferenceServer()
        self.server.add_model(MODEL, self.group)
        await self.server.start()
        setup_s = time.monotonic() - started
        if self.recorder is not None:
            load_start = time.monotonic()
            ModelStore(self.store_dir).load(MODEL)  # a fresh store: a cold, verified read
            self.load_ms = (time.monotonic() - load_start) * 1000.0
        return setup_s

    async def call(self, index: int) -> bool:
        async with self.window:
            if self.recorder is None:
                return self.ref.check(index, await self.server.submit(MODEL, self.ref.payload(index)))
            from repro.obs import get_tracer, use_trace

            tracer = get_tracer()
            trace = tracer.trace()
            start = time.monotonic()
            try:
                with use_trace(trace):
                    answer = await self.server.submit(MODEL, self.ref.payload(index))
            finally:
                tracer.finish(trace)
            if trace is not None:
                self.recorder.add("serve.submit", trace.trace_id, start, time.monotonic())
                self.traces.append(trace)
            return self.ref.check(index, answer)

    def worker_pids(self) -> List[int]:
        return [row["pid"] for row in self.group.stats() if row["pid"] is not None]

    async def stop(self) -> None:
        self.peak_rss_mb = peak_rss_mb() + sum(peak_rss_mb(pid) for pid in self.worker_pids())
        try:
            await self.server.stop()
        finally:
            shutil.rmtree(self.store_dir, ignore_errors=True)

    async def snapshot(self) -> dict:
        from repro.obs import get_tracer

        pids = self.worker_pids()
        return {
            "replicas": self.group.stats(),
            "rejected": self.server.stats()[MODEL].rejected,
            "finished": get_tracer().finished,
            "cpu_s": sum(cpu_seconds(pid) for pid in pids),
            "workers": len(pids),
        }

    def layer_metrics(self, before: dict, after: dict, t0: float, t1: float, warmup_sent: int) -> Dict[str, float]:
        """Traces, group dispatch timings and worker CPU into the fleet figures."""
        recorder = self.recorder
        keys = {s.key: s for s in recorder.spans if t0 <= s.start < t1}
        recorder.spans = list(keys.values())
        calls = [c for c in self.group.calls if t0 <= c[0] < t1]
        for start, end, _, compute_s, trace_ids in calls:
            for rid in trace_ids:
                if rid in keys:
                    recorder.add("cluster.dispatch", rid, start, end, "serve.batch")
                    if compute_s is not None:
                        recorder.add("engine.run", rid, end - compute_s, end, "cluster.dispatch")
        for trace in self.traces:
            submit = keys.get(trace.trace_id)
            if submit is None:
                continue
            for span in trace.spans:
                if span.name in ("serve.queue", "serve.batch") and span.end_s is not None:
                    recorder.add(span.name, trace.trace_id, span.start_s, span.end_s, "serve.submit")
                if span.name == "serve.batch" and span.end_s is not None:
                    recorder.add("serve.scatter", trace.trace_id, span.end_s, max(span.end_s, submit.end), "serve.submit")
        compute_ms = [c[3] * 1000.0 for c in calls if c[3] is not None]

        def total(rows, key):
            return float(sum(row[key] for row in rows))

        batches, images = len(calls), sum(c[2] for c in calls)
        return {
            "serve.batch_size_mean": images / batches if batches else 0.0,
            "serve.batches": float(batches),
            "serve.rejected": float(after["rejected"] - before["rejected"]),
            "engine.run_ms": median(compute_ms),
            "engine.calls": float(batches),
            "engine.images": float(images),
            "engine.busy_share": sum(compute_ms) / ((t1 - t0) * 1000.0 * after["workers"]),
            "cluster.dispatch_ms": median([(c[1] - c[0]) * 1000.0 for c in calls]),
            "cluster.worker_compute_ms": median(compute_ms),
            "cluster.hop_ms": median([(c[1] - c[0] - c[3]) * 1000.0 for c in calls if c[3] is not None]),
            "cluster.worker_cpu_ratio": (after["cpu_s"] - before["cpu_s"]) / (sum(compute_ms) / 1000.0),
            "cluster.dispatched": total(after["replicas"], "dispatched") - total(before["replicas"], "dispatched"),
            "cluster.failures": total(after["replicas"], "failures"),
            "cluster.restarts": total(after["replicas"], "restarts"),
            "cluster.boot_s": self.group.boot_s,
            "store.publish_ms": self.publish_ms,
            "store.load_ms": self.load_ms,
            "obs.traces_finished": float(after["finished"] - before["finished"]),
        }


def _timed_group_class():
    from repro.cluster import ReplicaGroup

    class TimedGroup(ReplicaGroup):
        """Times boot and every ``infer_sync`` dispatch, with its worker compute."""

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.boot_s = None
            self.calls = []  # (start, end, images, compute_s, trace_ids)

        def start(self):
            started = time.monotonic()
            try:
                return super().start()
            finally:
                self.boot_s = time.monotonic() - started

        def infer_sync(self, batch, obs=None):
            start = time.monotonic()
            result = super().infer_sync(batch, obs=obs)
            end = time.monotonic()
            obs = obs or {}
            self.calls.append((start, end, len(batch), obs.get("compute_s"), list(obs.get("trace_ids", []))))
            return result

    return TimedGroup


# ---------------------------------------------------------------------- #
# The runs
# ---------------------------------------------------------------------- #
def _failures(results) -> List[str]:
    return [f"{r.failed} of {r.sent} requests failed: {r.errors}" for r in results if r.failed]


async def _warm(target, seed: int) -> RungResult:
    return await run_rung(target.call, WARMUP_RPS, WARMUP_S, rng_for(seed, "warmup"), first_index=WARMUP_INDEX)


async def serving_run(target_class, seed: int, seconds: float, trace: bool) -> Outcome:
    OUT_DIR.mkdir(exist_ok=True)
    ref = Reference(seed)
    if trace:
        ref.time_compiles(COMPILES_PER_SETUP)
        return await _traced_run(target_class, ref, seed, seconds)
    setups = []
    for rep in range(SETUP_REPS):
        ref.time_compiles(COMPILES_PER_SETUP)
        target = target_class(ref, seed)
        setups.append(await target.start(f"{seed}-{rep}"))
        if rep < SETUP_REPS - 1:
            await target.stop()
    try:
        warm = await _warm(target, seed)
        closed = await run_closed(target.call, WINDOW, seconds)
    finally:
        await target.stop()
    results = [warm, closed]
    latencies = closed.latencies_ms
    return Outcome(
        attempted=sum(r.sent for r in results),
        failed=sum(r.failed for r in results),
        metrics={
            "setup_s": median(setups),
            "peak_rss_mb": target.peak_rss_mb,
            "latency_ms": percentile(latencies, 50.0),
            "throughput_per_s": closed.median_rate(),
        },
        problems=_failures(results),
        report={
            "setup_s": setups,
            "compile_s": ref.compile_s,
            "closed_loop": {
                "window": WINDOW,
                "elapsed_s": closed.elapsed_s,
                "answered": len(latencies),
                "mean_rate_per_s": closed.throughput,
                "median_rate_per_s": closed.median_rate(),
                "p50_ms": percentile(latencies, 50.0),
                "p90_ms": percentile(latencies, 90.0),
                "p99_ms": percentile(latencies, 99.0),
            },
        },
    )


async def _traced_run(target_class, ref: Reference, seed: int, seconds: float) -> Outcome:
    quarter = seconds / 4.0
    plain = target_class(ref, seed)
    await plain.start(f"{seed}-plain")
    try:
        warm_plain = await _warm(plain, seed)
        reference = await run_rung(plain.call, REFERENCE_RPS, quarter, rng_for(seed, "reference"))
        ladder = await search_ladder(
            plain.call, rng_for(seed, "ladder"), budget_s=2 * quarter, probe_s=PROBE_S,
            probes=[reference], first_index=reference.sent,
        )
    finally:
        await plain.stop()

    recorder = SpanRecorder()
    target = target_class(ref, seed, recorder)
    await target.start(f"{seed}-traced")
    try:
        warm_traced = await _warm(target, seed)
        before = await target.snapshot()
        t0 = time.monotonic()
        traced = await run_rung(target.call, REFERENCE_RPS, quarter, rng_for(seed, "reference"))
        t1 = time.monotonic()
        after = await target.snapshot()
    finally:
        await target.stop()

    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    metrics.update(target.layer_metrics(before, after, t0, t1, warm_traced.sent))
    layers = layer_report(recorder.spans, root=target.root)
    metrics.update(
        {
            "serve.queue_wait_ms": median(recorder.durations_ms("serve.queue")),
            "serve.scatter_ms": median(recorder.durations_ms("serve.scatter")),
            "engine.compile_ms": ref.compile_s * 1000.0,
            **engine_figures(ref.session),
            "unattributed_ms": layers["unattributed_ms"],
            "loadgen.lag_p99_ms": percentile(reference.lag_ms, 99.0),
            "loadgen.reference_p50_ms": reference.p50_ms,
            "loadgen.reference_p99_ms": reference.p99_ms,
            "loadgen.sustained_rps": ladder.sustained_rps,
            "bench.trace_overhead_pct": 100.0 * (traced.p50_ms / reference.p50_ms - 1.0),
        }
    )
    results = [warm_plain, *ladder.probes, warm_traced, traced]
    attempted = sum(r.sent for r in results)
    failed = sum(r.failed for r in results)
    metrics["failed_ratio"] = failed / attempted
    problems = _failures(results)
    invalid = []
    for what, rung in (("reference rung", reference), ("traced reference rung", traced)):
        lag = percentile(rung.lag_ms, 99.0)
        if lag > MAX_REFERENCE_LAG_MS:
            invalid.append(f"{what}: load generator fell behind (lag p99 {lag:.1f} ms > {MAX_REFERENCE_LAG_MS} ms)")
    if metrics["obs.traces_finished"] != traced.sent:
        problems.append(f"obs.traces_finished is {metrics['obs.traces_finished']:.0f} for {traced.sent} requests")
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        problems=problems,
        invalid=invalid,
        spans=recorder,
        report={
            "layers": layers,
            "probes": [_rung_row(r) for r in ladder.probes],
            "sustained_rps": ladder.sustained_rps,
            "traced": _rung_row(traced),
        },
    )


def _rung_row(result: RungResult) -> dict:
    return {
        "rate": result.rate,
        "sent": result.sent,
        "answered": result.answered,
        "failed": result.failed,
        "p50_ms": result.p50_ms,
        "p99_ms": result.p99_ms,
        "lag_p99_ms": percentile(result.lag_ms, 99.0),
        "growth": result.growth,
        "passes": result.passes(),
        "errors": result.errors,
    }


async def http_classify(seed: int, seconds: float, trace: bool) -> Outcome:
    return await serving_run(HttpTarget, seed, seconds, trace)


async def fleet_classify(seed: int, seconds: float, trace: bool) -> Outcome:
    return await serving_run(FleetTarget, seed, seconds, trace)
