"""Tests for ``repro.obs``: spans, tracing, metrics exposition, logging.

Four layers of coverage:

* pure units -- :class:`Span`/:class:`Trace` mechanics, the trace buffer's
  ring + slow-exemplar retention, sampling, the fixed-bucket histogram,
  the Prometheus writer, the JSON logger, and the single-sort
  ``PercentileWindow.quantiles`` consistency contract;
* exposition strictness -- ``GET /metrics`` passes a Prometheus
  line-grammar check and ``/v1/traces`` parses as *strict* JSON both
  under zero traffic and while a replica worker is crash-restarting;
* the ``X-Request-Id`` contract -- every response path echoes the id,
  including refusals answered before routing;
* the acceptance end-to-end: one HTTP request through the gateway to a
  ``SocketTransport`` remote worker yields one stitched trace whose
  per-hop spans tile the measured end-to-end latency within 10%.
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import re
import signal
import threading
import time

import numpy as np
import pytest

from repro.cluster import ReplicaGroup, WorkerServer, usable_cores
from repro.engine import compile as engine_compile
from repro.gateway import Gateway, GatewayClient, GatewayError, GatewayLimits
from repro.models.config import DONNConfig
from repro.models.donn import DONN
from repro.obs import (
    Histogram,
    JsonLogger,
    MetricsWriter,
    Span,
    Trace,
    TraceBuffer,
    Tracer,
    current_trace,
    get_logger,
    render_server_metrics,
    set_tracer,
    use_trace,
)
from repro.serve import InferenceServer
from repro.serve.metrics import PercentileWindow

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _tiny_model() -> DONN:
    config = DONNConfig(
        sys_size=16, pixel_size=36e-6, distance=0.05, num_layers=2, num_classes=4, approx="fresnel", seed=3
    )
    return DONN(config)


class FakeSession:
    """Echo session: doubles every payload."""

    input_shape = (4, 4)
    kind = "classifier"

    def run(self, batch, batch_size=None):
        return np.asarray(batch) * 2.0


class GatedEcho(FakeSession):
    """Echo session that holds each call until ``release`` is set."""

    def __init__(self):
        self.batch_sizes = []
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, batch, batch_size=None):
        self.batch_sizes.append(len(batch))
        self.entered.set()
        self.release.wait(10.0)
        return super().run(batch, batch_size)


@pytest.fixture()
def fresh_tracer():
    """Install an isolated tracer for the test; restore the old one after."""
    from repro.obs.tracer import get_tracer

    previous = get_tracer()
    tracer = set_tracer(Tracer())
    yield tracer
    set_tracer(previous)


def _strict_json(blob: bytes):
    """Parse refusing NaN/Infinity -- the wire must carry strict JSON."""
    return json.loads(
        blob.decode("utf-8"),
        parse_constant=lambda token: pytest.fail(f"non-strict JSON token {token!r} on the wire"),
    )


async def _raw_request(port: int, payload: bytes):
    """Fire raw bytes at the gateway; returns ``(status, headers, raw body)``."""
    from repro.gateway.codec import read_response

    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        writer.write(payload)
        await writer.drain()
        status, headers, body = await asyncio.wait_for(read_response(reader), 10.0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass
    return status, headers, body


def _http(method: str, path: str, body: bytes = b"", extra_headers: str = "") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n"
        f"{extra_headers}\r\n"
    ).encode() + body


# ---------------------------------------------------------------------- #
# Units: spans and traces
# ---------------------------------------------------------------------- #
class TestSpanTrace:
    def test_span_end_is_idempotent_and_attrs_chain(self):
        span = Span("x", start_s=10.0)
        assert not span.ended
        span.end(11.0)
        span.end(99.0)  # first end wins
        assert span.end_s == 11.0
        assert span.duration_ms == pytest.approx(1000.0)
        assert span.set(a=1).set(b=2) is span
        assert span.attrs == {"a": 1, "b": 2}

    def test_trace_finish_closes_every_open_span(self):
        trace = Trace("t1", "request")
        child = trace.span("serve.queue")
        trace.finish(error="boom")
        assert trace.finished
        assert child.ended and child.end_s == trace.root.end_s
        assert trace.root.attrs["error"] == "boom"

    def test_as_dict_offsets_are_relative_to_root(self):
        trace = Trace("t2")
        base = trace.root.start_s
        trace.span("a", start_s=base + 0.010).end(base + 0.030)
        trace.finish()
        frozen = trace.as_dict()
        assert frozen["trace_id"] == "t2" and frozen["finished"]
        (a,) = [s for s in frozen["spans"] if s["name"] == "a"]
        assert a["start_ms"] == pytest.approx(10.0, abs=1e-6)
        assert a["duration_ms"] == pytest.approx(20.0, abs=1e-6)
        assert a["parent_id"] == trace.root.span_id

    def test_span_cap_counts_dropped(self):
        from repro.obs.trace import MAX_SPANS_PER_TRACE

        trace = Trace()
        for index in range(MAX_SPANS_PER_TRACE + 5):
            trace.span(f"s{index}")
        assert len(trace.spans) == MAX_SPANS_PER_TRACE
        assert trace.dropped == 6  # root occupies one slot
        assert trace.as_dict()["dropped_spans"] == 6

    def test_use_trace_installs_and_restores(self):
        trace = Trace()
        assert current_trace() is None
        with use_trace(trace):
            assert current_trace() is trace
        assert current_trace() is None


# ---------------------------------------------------------------------- #
# Units: buffer, sampling
# ---------------------------------------------------------------------- #
def _finished_trace(trace_id: str, duration_s: float) -> Trace:
    trace = Trace(trace_id)
    trace.root.end(trace.root.start_s + duration_s)
    trace.finished = True
    return trace


class TestTraceBuffer:
    def test_ring_evicts_fifo_but_slow_exemplars_survive(self):
        buffer = TraceBuffer(capacity=4, slow_keep=2)
        buffer.add(_finished_trace("slowest", 9.0))
        for index in range(10):
            buffer.add(_finished_trace(f"fast{index}", 0.001))
        # "slowest" churned out of the ring long ago, but the exemplar
        # heap pinned it.  ("fast0" is pinned too -- the heap fills with
        # the first slow_keep arrivals -- so probe one that never was.)
        assert buffer.get("slowest") is not None
        assert buffer.get("fast2") is None
        assert len(buffer) == 4
        assert buffer.evicted == 7

    def test_slowest_ranks_worst_first(self):
        buffer = TraceBuffer(capacity=8, slow_keep=4)
        for trace_id, duration in [("a", 0.2), ("b", 0.9), ("c", 0.5)]:
            buffer.add(_finished_trace(trace_id, duration))
        ranked = [t["trace_id"] for t in buffer.slowest(2)]
        assert ranked == ["b", "c"]

    def test_recent_is_newest_first(self):
        buffer = TraceBuffer(capacity=8)
        for trace_id in ["a", "b", "c"]:
            buffer.add(_finished_trace(trace_id, 0.1))
        assert [t["trace_id"] for t in buffer.recent(2)] == ["c", "b"]


class TestTracer:
    def test_sample_rate_zero_allocates_nothing(self):
        tracer = Tracer(sample_rate=0.0)
        assert tracer.trace() is None
        tracer.finish(None)  # no-op by contract
        snap = tracer.snapshot()
        assert snap["sampled_out"] == 1 and snap["started"] == 0 and snap["finished"] == 0

    def test_sample_rate_one_traces_everything(self):
        tracer = Tracer(sample_rate=1.0)
        trace = tracer.trace(trace_id="rid-1")
        assert trace is not None and trace.trace_id == "rid-1"
        tracer.finish(trace)
        assert tracer.get("rid-1") is not None
        assert tracer.snapshot()["finished"] == 1

    def test_fractional_sampling_is_a_coin_flip(self):
        import random

        tracer = Tracer(sample_rate=0.5, rng=random.Random(7))
        outcomes = [tracer.trace() is not None for _ in range(200)]
        assert 40 < sum(outcomes) < 160  # loose: both sides happen

    def test_bad_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            Tracer(sample_rate=1.5)


# ---------------------------------------------------------------------- #
# Units: histogram + writer + quantiles
# ---------------------------------------------------------------------- #
class TestHistogram:
    def test_bucketing_and_cumulative(self):
        hist = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in [0.5, 5.0, 50.0, 500.0]:
            hist.observe(value)
        assert hist.counts == [1, 1, 1, 1]
        assert hist.cumulative() == [1, 2, 3, 4]
        assert hist.count == 4 and hist.sum == pytest.approx(555.5)

    def test_non_finite_observations_are_dropped(self):
        hist = Histogram(bounds=(1.0,))
        hist.observe(float("nan"))
        hist.observe(float("inf"))
        assert hist.count == 0 and hist.sum == 0.0

    def test_boundary_lands_in_le_bucket(self):
        hist = Histogram(bounds=(10.0, 20.0))
        hist.observe(10.0)
        assert hist.counts[0] == 1  # le="10.0" includes 10.0


#: One Prometheus exposition line: a comment header or a sample.
_PROM_LINE = re.compile(
    r"^(?:"
    r"# (?:HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .+"
    r"|"
    r"[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{(?:[a-zA-Z_][a-zA-Z0-9_]*=\"[^\"]*\",?)*\})?"
    r" [-+]?(?:[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?|Inf)"
    r")$"
)


def _check_prom_grammar(text: str) -> None:
    assert text.endswith("\n")
    assert "NaN" not in text
    for line in text.rstrip("\n").split("\n"):
        assert _PROM_LINE.match(line), f"bad exposition line: {line!r}"


class TestMetricsWriter:
    def test_nan_and_none_never_reach_the_wire(self):
        writer = MetricsWriter()
        writer.gauge("g", "a gauge", float("nan"))
        writer.gauge("g", "a gauge", None)
        writer.gauge("g", "a gauge", 1.5)
        text = writer.render()
        assert text.count("\ng ") == 1  # only the finite sample
        _check_prom_grammar(text)

    def test_header_emitted_once_and_labels_escaped(self):
        writer = MetricsWriter()
        writer.counter("c_total", "a counter", 1, {"model": 'we"ird\nname'})
        writer.counter("c_total", "a counter", 2, {"model": "plain"})
        text = writer.render()
        assert text.count("# TYPE c_total counter") == 1
        assert r"\"ird" in text and r"\n" in text

    def test_histogram_rendering_has_inf_bucket_sum_count(self):
        writer = MetricsWriter()
        hist = Histogram(bounds=(1.0, 10.0))
        hist.observe(5.0)
        writer.histogram("h_ms", "a histogram", hist.as_dict(), {"model": "m"})
        text = writer.render()
        assert 'h_ms_bucket{model="m",le="+Inf"} 1' in text
        assert 'h_ms_count{model="m"} 1' in text
        _check_prom_grammar(text)

    def test_render_server_metrics_over_empty_stats_is_clean(self):
        from repro.serve.metrics import BatcherStats

        text = render_server_metrics({"models": {"idle": BatcherStats().as_dict()}, "obs": Tracer().snapshot()})
        # A cold window contributes no quantile gauges -- and no NaN.
        assert "repro_request_latency_quantile_ms" not in text
        assert 'repro_submitted_total{model="idle"} 0' in text
        _check_prom_grammar(text)


class TestPercentileWindowQuantiles:
    def test_quantiles_match_np_percentile_exactly(self):
        rng = np.random.default_rng(11)
        window = PercentileWindow(capacity=512)
        for value in rng.random(700) * 100.0:
            window.record(value)
        qs = (50, 95, 99)
        got = window.quantiles(qs)
        expected = tuple(window.percentile(q) for q in qs)
        assert got == pytest.approx(expected, abs=0.0)  # bit-exact vs np.percentile

    def test_quantiles_consistent_within_one_call(self):
        window = PercentileWindow(capacity=64)
        for value in [5.0, 1.0, 3.0, 2.0, 4.0]:
            window.record(value)
        p50, p95, p99 = window.quantiles((50, 95, 99))
        assert p50 <= p95 <= p99
        assert p50 == 3.0 and p99 == pytest.approx(4.96)

    def test_empty_window_answers_nan(self):
        window = PercentileWindow(capacity=4)
        assert all(math.isnan(v) for v in window.quantiles((50, 99)))


# ---------------------------------------------------------------------- #
# Units: the JSON logger
# ---------------------------------------------------------------------- #
class TestJsonLogger:
    def test_records_carry_event_fields_and_level(self, caplog):
        logger = JsonLogger("repro.obs.test1", keep=8)
        with caplog.at_level("INFO", logger="repro.obs.test1"):
            logger.info("unit.event", answer=42)
        (record,) = logger.records("unit.event")
        assert record["answer"] == 42 and record["level"] == "info"
        line = caplog.records[-1].getMessage()
        assert json.loads(line)["event"] == "unit.event"

    def test_trace_id_attached_automatically_in_scope(self):
        logger = JsonLogger("repro.obs.test2")
        trace = Trace("tid-9")
        with use_trace(trace):
            record = logger.warning("unit.scoped")
        assert record["trace_id"] == "tid-9"
        assert "trace_id" not in logger.info("unit.unscoped")

    def test_unserializable_values_are_stringified_not_raised(self):
        logger = JsonLogger("repro.obs.test3")
        record = logger.info("unit.weird", payload=object())
        assert "object object" in json.dumps(record, default=str)

    def test_ring_is_bounded(self):
        logger = JsonLogger("repro.obs.test4", keep=3)
        for index in range(10):
            logger.info("unit.ring", index=index)
        records = logger.records("unit.ring")
        assert len(records) == 3 and records[0]["index"] == 7

    @pytest.mark.parametrize(
        "restart",
        [lambda group: group._schedule_restart(0), lambda group: group.check_health()],
        ids=["background_revive", "check_health"],
    )
    def test_cluster_restart_emits_structured_event(self, restart):
        """Both restart entry points take the one restart path and log it."""
        spec = engine_compile(_tiny_model(), backend="numpy").to_spec()
        get_logger().clear()
        with ReplicaGroup(spec, replicas=1, restart_backoff_s=0.05, name="obslog") as group:
            os.kill(group._by_index[0].pid, signal.SIGKILL)
            restart(group)
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                if get_logger().records("cluster.replica_restarted"):
                    break
                time.sleep(0.05)
        (record,) = get_logger().records("cluster.replica_restarted")[:1]
        assert record["group"] == "obslog" and record["replica"] == 0


# ---------------------------------------------------------------------- #
# Exposition endpoints: strictness under zero traffic and mid-crash
# ---------------------------------------------------------------------- #
class TestExpositionEndpoints:
    def test_metrics_and_traces_under_zero_traffic(self, fresh_tracer):
        async def scenario():
            server = InferenceServer(max_batch=4)
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                metrics = await _raw_request(gateway.port, _http("GET", "/metrics"))
                traces = await _raw_request(gateway.port, _http("GET", "/v1/traces"))
                missing = await _raw_request(gateway.port, _http("GET", "/v1/traces/nope"))
            return metrics, traces, missing

        metrics, traces, missing = asyncio.run(scenario())
        status, headers, body = metrics
        assert status == 200
        assert headers["content-type"].startswith("text/plain")
        text = body.decode("utf-8")
        _check_prom_grammar(text)
        assert 'repro_submitted_total{model="echo"} 0' in text
        assert "repro_obs_sample_rate 1" in text

        status, _, body = traces
        assert status == 200
        parsed = _strict_json(body)
        assert parsed == {"traces": [], "order": "recent", "count": 0}

        status, _, body = missing
        assert status == 404
        assert _strict_json(body)["error"]["type"] == "trace_not_found"

    def test_metrics_strict_during_crash_restart(self, fresh_tracer):
        spec = engine_compile(_tiny_model(), backend="numpy").to_spec()

        async def scenario():
            server = InferenceServer(max_batch=4)
            group = ReplicaGroup(spec, replicas=1, restart_backoff_s=5.0, name="donn")
            server.add_model("donn", group)
            async with Gateway(server, port=0) as gateway:
                # Kill the worker and scrape while the replica is down /
                # restarting: the exposition must stay strict.
                os.kill(group._by_index[0].pid, signal.SIGKILL)
                group._schedule_restart(0)
                metrics = await _raw_request(gateway.port, _http("GET", "/metrics"))
                stats = await _raw_request(gateway.port, _http("GET", "/v1/stats"))
                traces = await _raw_request(gateway.port, _http("GET", "/v1/traces?slow=3"))
            return metrics, stats, traces

        metrics, stats, traces = asyncio.run(scenario())
        status, _, body = metrics
        assert status == 200
        text = body.decode("utf-8")
        _check_prom_grammar(text)
        assert 'repro_replica_restarts_total{model="donn",replica="0"}' in text
        # A lone local worker's thread budget is every usable core.
        assert f'repro_replica_threads{{model="donn",replica="0"}} {usable_cores()}\n' in text

        status, _, body = stats
        assert status == 200
        _strict_json(body)  # NaN percentiles must have been scrubbed

        status, _, body = traces
        assert status == 200
        assert _strict_json(body)["order"] == "slowest"

    def test_metrics_is_the_stats_body_rendered(self, fresh_tracer, tmp_path):
        """``/metrics`` and ``/v1/stats`` are one snapshot, and the autoscaler
        acts on the p99 an operator scrapes.  Quiescent: no traffic between
        the scrapes, one keep-alive connection, an autoscaler that never ticks."""
        from repro.gateway.codec import read_response
        from repro.store import ModelStore

        store = ModelStore(tmp_path)
        store.publish("donn", _tiny_model(), backend="numpy")
        image = json.dumps({"input": np.random.default_rng(5).uniform(size=(16, 16)).tolist()}).encode()

        async def scenario():
            server = InferenceServer(store=store)
            server.add_model("donn", "donn@latest", autoscale={"slo_p99_ms": 50.0, "interval_s": 3600.0})
            async with Gateway(server, port=0) as gateway:
                reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
                try:
                    answers = []
                    for request in [_http("POST", "/v1/models/donn/infer", image)] * 5 + [
                        _http("GET", "/v1/stats"),
                        _http("GET", "/metrics"),
                    ]:
                        writer.write(request)
                        await writer.drain()
                        answers.append(await asyncio.wait_for(read_response(reader), 10.0))
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
                verdict = server._models["donn"].autoscaler.evaluate()
            return answers, verdict

        answers, verdict = asyncio.run(scenario())
        assert [status for status, _, _ in answers] == [200] * 7
        stats, metrics = _strict_json(answers[-2][2]), answers[-1][2].decode("utf-8")
        row = stats["models"]["donn"]
        assert row["completed"] == 5 and row["histograms"]["request_latency_ms"]["count"] == 5
        assert row["store"]["content_hash"] and row["autoscaler"]["holds"] == 0
        assert stats["obs"]["finished"] == 5
        assert render_server_metrics(stats) == metrics
        assert verdict.p99_ms == row["p99_latency_ms"]

    def test_traces_query_validation(self, fresh_tracer):
        async def scenario():
            server = InferenceServer(max_batch=4)
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                bad_key = await _raw_request(gateway.port, _http("GET", "/v1/traces?deep=1"))
                bad_val = await _raw_request(gateway.port, _http("GET", "/v1/traces?slow=soon"))
            return bad_key, bad_val

        bad_key, bad_val = asyncio.run(scenario())
        assert bad_key[0] == 400 and bad_val[0] == 400


# ---------------------------------------------------------------------- #
# The X-Request-Id contract
# ---------------------------------------------------------------------- #
class TestRequestIdEcho:
    def test_every_routed_path_echoes_or_mints(self, fresh_tracer):
        async def scenario():
            server = InferenceServer(max_batch=4)
            server.add_model("echo", FakeSession())
            payload = json.dumps({"input": np.ones((4, 4)).tolist()}).encode()
            async with Gateway(server, port=0) as gateway:
                ok = await _raw_request(
                    gateway.port,
                    _http("POST", "/v1/models/echo/infer", payload, "X-Request-Id: rid-echo-1\r\n"),
                )
                minted = await _raw_request(gateway.port, _http("GET", "/healthz"))
                not_found = await _raw_request(gateway.port, _http("GET", "/nope"))
                wrong_method = await _raw_request(gateway.port, _http("DELETE", "/v1/models"))
                bad_json = await _raw_request(
                    gateway.port,
                    _http("POST", "/v1/models/echo/infer", b"{", "X-Request-Id: rid-echo-2\r\n"),
                )
                unknown_model = await _raw_request(
                    gateway.port, _http("POST", "/v1/models/ghost/infer", payload)
                )
                parse_error = await _raw_request(gateway.port, b"NONSENSE\r\n\r\n")
            return ok, minted, not_found, wrong_method, bad_json, unknown_model, parse_error

        ok, minted, not_found, wrong_method, bad_json, unknown_model, parse_error = asyncio.run(
            scenario()
        )
        assert ok[0] == 200 and ok[1]["x-request-id"] == "rid-echo-1"
        assert minted[0] == 200 and len(minted[1]["x-request-id"]) == 32
        assert not_found[0] == 404 and not_found[1]["x-request-id"]
        assert wrong_method[0] == 405 and wrong_method[1]["x-request-id"]
        assert bad_json[0] == 400 and bad_json[1]["x-request-id"] == "rid-echo-2"
        assert unknown_model[0] == 404 and unknown_model[1]["x-request-id"]
        assert parse_error[0] == 400 and parse_error[1]["x-request-id"]

    def test_connection_refusal_before_routing_carries_an_id(self, fresh_tracer):
        async def scenario():
            server = InferenceServer(max_batch=4)
            server.add_model("echo", FakeSession())
            limits = GatewayLimits(max_connections=1, retry_after_s=2.0)
            async with Gateway(server, port=0, limits=limits) as gateway:
                # Hold the only connection slot open, then knock again.
                reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
                try:
                    refused = await _raw_request(gateway.port, _http("GET", "/healthz"))
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass
            return refused

        status, headers, body = asyncio.run(scenario())
        assert status == 503
        assert len(headers["x-request-id"]) == 32
        assert headers["retry-after"] == "2"
        assert _strict_json(body)["error"]["type"] == "too_many_connections"

    def test_client_surfaces_request_id_on_failure(self, fresh_tracer):
        async def scenario():
            server = InferenceServer(max_batch=4)
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    with pytest.raises(GatewayError) as info:
                        await client.trace("never-seen")
                    try:
                        await client.infer("ghost", np.ones((4, 4)), request_id="rid-ghost")
                    except Exception as exc:  # noqa: BLE001 - mapped type under test
                        mapped = exc
            return info.value, mapped

        gateway_error, mapped = asyncio.run(scenario())
        assert gateway_error.error_type == "trace_not_found"
        assert gateway_error.request_id and len(gateway_error.request_id) == 32
        assert mapped.request_id == "rid-ghost"


# ---------------------------------------------------------------------- #
# Acceptance: one stitched trace across gateway -> socket worker
# ---------------------------------------------------------------------- #
class TestEndToEndTrace:
    def test_remote_worker_trace_tiles_the_request_latency(self, fresh_tracer):
        spec = engine_compile(_tiny_model(), backend="numpy").to_spec()
        rid = "e2e-trace-0001"
        image = np.random.default_rng(0).random((16, 16))

        async def scenario():
            with WorkerServer(port=0) as worker:
                worker.serve_in_thread()
                server = InferenceServer(max_batch=4)
                # handicap_s pads the worker call so the dispatch hop
                # dominates -- the trace must show that, not hide it.
                group = ReplicaGroup(
                    spec, replicas=0, workers=[worker.address], handicaps={0: 0.05}, name="donn"
                )
                server.add_model("donn", group)
                async with Gateway(server, port=0) as gateway:
                    async with GatewayClient(port=gateway.port) as client:
                        started = time.perf_counter()
                        result = await client.infer("donn", image, request_id=rid)
                        measured_s = time.perf_counter() - started
                        frozen = await client.trace(rid)
            return result, measured_s, frozen

        result, measured_s, frozen = asyncio.run(scenario())
        assert result.shape == (4,)
        assert frozen["trace_id"] == rid and frozen["finished"]

        spans = {span["name"]: span for span in frozen["spans"]}
        for name in (
            "request",
            "gateway.decode",
            "serve.queue",
            "serve.batch",
            "serve.dispatch",
            "worker.compute",
            "gateway.encode",
        ):
            assert name in spans, f"missing span {name!r} in {sorted(spans)}"

        dispatch = spans["serve.dispatch"]
        compute = spans["worker.compute"]
        # The stitched worker span sits inside the parent's dispatch
        # window, is anchored at its end, and reflects the remote pid.
        assert compute["parent_id"] == dispatch["span_id"]
        assert compute["start_ms"] >= dispatch["start_ms"] - 1e-6
        assert compute["duration_ms"] > 0.0
        assert (
            compute["start_ms"] + compute["duration_ms"]
            <= dispatch["start_ms"] + dispatch["duration_ms"] + 1e-6
        )
        # The handicap attr only exists on the worker side of the socket:
        # its presence proves the obs payload crossed the wire rather
        # than being reconstructed locally.  (The in-thread WorkerServer
        # shares our pid, so pid inequality is not assertable here.)
        assert compute["attrs"]["handicap_ms"] == pytest.approx(50.0)
        assert "pid" in compute["attrs"]
        assert dispatch["attrs"]["replica"] == 0
        assert dispatch["attrs"]["transport"].startswith("socket(")

        # The per-hop spans tile the request: decode + queue + dispatch +
        # encode must account for the root duration within 10%.
        hop_sum = sum(
            spans[name]["duration_ms"]
            for name in ("gateway.decode", "serve.queue", "serve.dispatch", "gateway.encode")
        )
        root_ms = frozen["duration_ms"]
        assert root_ms > 45.0  # the handicap alone guarantees this
        assert abs(hop_sum - root_ms) <= 0.10 * root_ms, (
            f"span sum {hop_sum:.2f}ms vs root {root_ms:.2f}ms"
        )
        # And the trace's root tracks the out-of-process measurement.
        assert root_ms <= measured_s * 1000.0

    def test_inline_path_still_stitches_a_compute_span(self, fresh_tracer):
        rid = "inline-trace-01"

        async def scenario():
            server = InferenceServer(max_batch=4)
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    await client.infer("echo", np.ones((4, 4)), request_id=rid)
                    return await client.trace(rid)

        frozen = asyncio.run(scenario())
        spans = {span["name"]: span for span in frozen["spans"]}
        assert spans["worker.compute"]["attrs"]["inline"] is True
        assert spans["worker.compute"]["attrs"]["pid"] == os.getpid()
        assert spans["serve.batch"]["attrs"]["batch_size"] >= 1

    def test_batch_fusion_shares_one_batch_span(self, fresh_tracer):
        """Two traced requests that queue behind a running engine call fuse
        into the next batch, and both traces hold that batch's one span."""
        session = GatedEcho()

        async def scenario():
            loop = asyncio.get_running_loop()
            server = InferenceServer(max_batch=8)
            server.add_model("echo", session)
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    held = asyncio.ensure_future(client.infer("echo", np.ones((4, 4)), request_id="held"))
                    assert await loop.run_in_executor(None, session.entered.wait, 10.0)
                    rids = ["fused-a", "fused-b"]
                    fused = [
                        asyncio.ensure_future(client.infer("echo", np.ones((4, 4)), request_id=rid))
                        for rid in rids
                    ]
                    # Both queue behind the held call: nothing waits on a clock.
                    stats = server.stats()["echo"]
                    deadline = time.monotonic() + 10.0
                    while stats.submitted < 3 and time.monotonic() < deadline:
                        await asyncio.sleep(0.001)
                    assert stats.submitted == 3, "the two traced requests never reached the queue"
                    session.release.set()
                    await asyncio.gather(held, *fused)
                    return [await client.trace(rid) for rid in rids]

        traces = asyncio.run(scenario())
        assert session.batch_sizes == [1, 2], "the backlog must fuse into the call after the held one"
        batch_spans = [span for frozen in traces for span in frozen["spans"] if span["name"] == "serve.batch"]
        assert len(batch_spans) == 2 and {span["attrs"]["batch_size"] for span in batch_spans} == {2}
        assert len({span["span_id"] for span in batch_spans}) == 1, "a fused batch must share one span id"

    def test_sampled_out_requests_cost_no_trace(self, fresh_tracer):
        set_tracer(Tracer(sample_rate=0.0))

        async def scenario():
            server = InferenceServer(max_batch=4)
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    await client.infer("echo", np.ones((4, 4)), request_id="ghost-rid")
                    with pytest.raises(GatewayError):
                        await client.trace("ghost-rid")
                    return await _raw_request(gateway.port, _http("GET", "/metrics"))

        status, _, body = asyncio.run(scenario())
        assert status == 200
        text = body.decode("utf-8")
        assert "repro_obs_traces_sampled_out_total 1" in text
        assert "repro_obs_sample_rate 0" in text
