"""Tests for elastic replica groups and the SLO-driven autoscaler.

Three tiers, cheapest first: pure control-law tests drive
``Autoscaler.evaluate``/``step`` against fakes (no processes, no clock
sleeps beyond a few milliseconds); elastic-membership tests spawn real
worker processes around a tiny DONN; one integration test threads
``InferenceServer(autoscale=...)`` end to end and one regression test
pins the zero-traffic ``GET /v1/stats`` NaN contract.
"""

from __future__ import annotations

import asyncio
import json
import logging
import os
import threading
import time

import numpy as np
import pytest

from repro.cluster import AutoscaleConfig, Autoscaler, ReplicaGroup
from repro.engine import compile as engine_compile
from repro.models.config import DONNConfig
from repro.models.donn import DONN
from repro.obs.log import get_logger
from repro.serve import InferenceServer, SessionRegistry

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _tiny_model() -> DONN:
    config = DONNConfig(
        sys_size=16, pixel_size=36e-6, distance=0.05, num_layers=2, num_classes=4, approx="fresnel", seed=3
    )
    return DONN(config)


@pytest.fixture(scope="module")
def tiny_spec():
    return engine_compile(_tiny_model(), batch_size=32, backend="numpy").to_spec()


def _wait_until(predicate, timeout_s: float = 30.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.05)


# --------------------------------------------------------------------- #
# Fakes for the control law (no processes)
# --------------------------------------------------------------------- #
class ManualClock:
    """A hand-cranked ``time.monotonic`` stand-in for backoff/cooldown tests.

    Injectable wherever the cluster takes ``clock=`` (``Autoscaler``,
    ``ReplicaGroup``, ``Replica``), so tests walk production-scale
    timelines -- 30 s backoffs, minute cooldowns -- without sleeping.
    """

    def __init__(self, start: float = 1000.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> float:
        self.now += float(seconds)
        return self.now


class FakeGroup:
    name = "fake"

    def __init__(self, size: int = 1):
        self.size = size
        self.in_flight = 0
        self.scale_calls = []
        self.fail_scaling = False

    def __len__(self):
        return self.size

    def total_in_flight(self):
        return self.in_flight

    def alive_count(self):
        return self.size

    def scale_to(self, n):
        self.scale_calls.append(n)
        if self.fail_scaling:
            raise RuntimeError("spawn exploded")
        self.size = n
        return n


class FakeStats:
    def __init__(self):
        self.completed = 0
        self.p99_latency_ms = float("nan")

    def as_dict(self):
        return {"completed": self.completed, "p99_latency_ms": self.p99_latency_ms}


def _scaler(size=1, *, registry=None, model=None, **cfg):
    defaults = dict(
        slo_p99_ms=100.0,
        min_replicas=1,
        max_replicas=4,
        min_samples=10,
        up_cooldown_s=1.0,
        down_cooldown_s=5.0,
    )
    defaults.update(cfg)
    group, stats = FakeGroup(size), FakeStats()
    return Autoscaler(group, stats, AutoscaleConfig(**defaults), registry=registry, model=model), group, stats


class TestAutoscaleConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"slo_p99_ms": 0},
            {"slo_p99_ms": 50, "min_replicas": 0},
            {"slo_p99_ms": 50, "min_replicas": 3, "max_replicas": 2},
            {"slo_p99_ms": 50, "low_fraction": 0.9, "high_fraction": 0.5},
            {"slo_p99_ms": 50, "low_fraction": 0.0},
            {"slo_p99_ms": 50, "interval_s": 0.0},
            {"slo_p99_ms": 50, "up_cooldown_s": -1.0},
            {"slo_p99_ms": 50, "min_samples": 0},
            {"slo_p99_ms": 50, "max_inflight_per_replica": 0.0},
            {"slo_p99_ms": 50, "idle_timeout_s": 0.0},
            {"slo_p99_ms": 50, "stats_window": 0},
        ],
    )
    def test_invalid_configs_refused(self, bad):
        with pytest.raises(ValueError):
            AutoscaleConfig(**bad)

    def test_from_options_accepts_dict_and_passthrough(self):
        config = AutoscaleConfig.from_options({"slo_p99_ms": 40, "max_replicas": 3})
        assert config.slo_p99_ms == 40 and config.max_replicas == 3
        assert AutoscaleConfig.from_options(config) is config
        with pytest.raises(TypeError):
            AutoscaleConfig.from_options(40)


class TestControlLaw:
    def test_cold_window_never_scales(self):
        """NaN percentiles (no samples yet) must hold, whatever the depth."""
        scaler, group, stats = _scaler(size=1)
        group.in_flight = 50  # pressure that would otherwise scale up
        verdict = scaler.step(now=0.0)
        assert verdict.action == "hold" and verdict.reason == "cold-window"
        assert group.scale_calls == [] and scaler.nan_holds == 1
        snap = scaler.snapshot()
        assert snap["last_decision"]["p99_ms"] is None  # JSON-safe, never NaN
        assert "NaN" not in json.dumps(snap)

    def test_step_overload_scales_up_exactly_once(self):
        """A step that one extra replica absorbs produces one action, no flap."""
        scaler, group, stats = _scaler(size=1, up_cooldown_s=0.5)
        stats.completed, stats.p99_latency_ms = 100, 95.0  # over 0.9 * 100
        assert scaler.step(now=0.0).action == "up"
        assert group.size == 2 and scaler.scale_ups == 1
        # Same window, no fresh completions: the freshness gate holds.
        assert scaler.step(now=0.1).reason == "awaiting-samples"
        # Fresh samples but inside the cooldown, still over budget: hold.
        stats.completed += 20
        assert scaler.step(now=0.3).reason == "up-cooldown"
        # The step absorbed: p99 lands in the hysteresis band -> no action
        # in either direction, ever.
        stats.completed += 20
        stats.p99_latency_ms = 70.0  # between low (50) and high (90)
        for tick in range(10):
            assert scaler.step(now=1.0 + tick).action == "hold"
        assert group.scale_calls == [2] and scaler.scale_downs == 0

    def test_injected_clock_drives_cooldowns_without_wall_time(self):
        """step() with no explicit now reads the injected clock, so a
        60 s production cooldown is testable by advancing fake time."""
        clock = ManualClock()
        group, stats = FakeGroup(1), FakeStats()
        config = AutoscaleConfig(
            slo_p99_ms=100.0, min_replicas=1, max_replicas=4, min_samples=10, up_cooldown_s=60.0
        )
        scaler = Autoscaler(group, stats, config, clock=clock)
        stats.completed, stats.p99_latency_ms = 100, 95.0
        assert scaler.step().action == "up"
        stats.completed += 20
        clock.advance(30.0)  # half the cooldown: still held
        assert scaler.step().reason == "up-cooldown"
        clock.advance(31.0)  # past it: free to act again
        assert scaler.step().action == "up"
        assert group.scale_calls == [2, 3]

    def test_max_fleet_cap_respected(self):
        scaler, group, stats = _scaler(size=4, max_replicas=4)
        stats.completed, stats.p99_latency_ms = 100, 500.0
        verdict = scaler.step(now=0.0)
        assert verdict.action == "hold" and verdict.reason == "at-max-fleet"
        assert group.scale_calls == []

    def test_queue_depth_scales_up_before_latency_window(self):
        scaler, group, stats = _scaler(size=2, max_inflight_per_replica=3.0)
        stats.completed, stats.p99_latency_ms = 50, 20.0  # latency looks fine
        group.in_flight = 6  # 3 per replica: at the trip-wire
        verdict = scaler.step(now=0.0)
        assert verdict.action == "up" and verdict.reason == "queue-depth"
        assert group.size == 3

    def test_scale_down_hysteresis_and_floor(self):
        scaler, group, stats = _scaler(size=3, down_cooldown_s=2.0)
        stats.completed, stats.p99_latency_ms = 100, 10.0  # far under 0.5 * 100
        assert scaler.step(now=0.0).action == "down" and group.size == 2
        stats.completed += 20
        assert scaler.step(now=0.5).reason == "down-cooldown"
        stats.completed += 20
        assert scaler.step(now=3.0).action == "down" and group.size == 1
        stats.completed += 20
        assert scaler.step(now=6.0).reason == "at-min-fleet"
        assert group.scale_calls == [2, 1]

    def test_scale_down_vetoed_when_remaining_fleet_cannot_absorb(self):
        scaler, group, stats = _scaler(size=2, max_inflight_per_replica=2.0)
        stats.completed, stats.p99_latency_ms = 100, 10.0
        group.in_flight = 3  # one replica could only absorb 2
        assert scaler.step(now=0.0).action == "hold"
        assert group.scale_calls == []

    def test_failed_resize_is_counted_and_cooldown_still_applies(self):
        """A bad spawn must not crash the loop nor retry at tick rate."""
        scaler, group, stats = _scaler(size=1, up_cooldown_s=1.0)
        group.fail_scaling = True
        stats.completed, stats.p99_latency_ms = 100, 500.0
        assert scaler.step(now=0.0).action == "up"
        assert scaler.errors == 1 and scaler.scale_ups == 0 and group.size == 1
        stats.completed += 20
        assert scaler.step(now=0.2).reason == "up-cooldown"

    def test_idle_shrinks_to_floor_and_demotes_in_lru_registry(self):
        registry = SessionRegistry(max_models=2)
        hot = type("S", (), {"run": lambda self, b, batch_size=None: b})()
        idle = type("S", (), {"run": lambda self, b, batch_size=None: b})()
        registry.register("idle-model", idle)
        registry.register("hot-model", hot)
        registry.get("idle-model")  # most recently used -> last in LRU line
        scaler, group, stats = _scaler(
            size=3, idle_timeout_s=0.5, registry=registry, model="idle-model"
        )
        assert scaler.step(now=0.0).action == "hold"  # arms the idle clock
        verdict = scaler.step(now=1.0)
        assert verdict.action == "down" and verdict.reason == "idle"
        assert group.size == 1
        # The same tick performs the LRU demotion -- and only once per
        # idle spell, not on every subsequent tick.
        assert scaler.idle_demotions == 1
        registry.register("third", hot)  # capacity eviction takes the idle model
        assert registry.last_evicted == ("idle-model",)
        assert "hot-model" in registry
        assert scaler.step(now=3.0).action == "hold"
        assert scaler.idle_demotions == 1

    def test_idle_scale_down_logs_strict_json_on_a_cold_window(self, caplog):
        """The idle path scales down while p99 is still NaN; the logged
        ``autoscale.scaled`` line must still parse as strict JSON."""
        scaler, group, stats = _scaler(size=2, idle_timeout_s=0.5)
        get_logger().clear()
        with caplog.at_level(logging.INFO, logger="repro.obs"):
            scaler.step(now=0.0)
            assert scaler.step(now=1.0).reason == "idle"
        (line,) = [
            record.getMessage() for record in caplog.records if '"event":"autoscale.scaled"' in record.getMessage()
        ]
        parsed = json.loads(line, parse_constant=lambda token: pytest.fail(f"non-strict JSON token {token!r}"))
        assert parsed["action"] == "down" and parsed["p99_ms"] is None
        (record,) = get_logger().records("autoscale.scaled")
        assert record["p99_ms"] is None, "the ring record must match the line"

    def test_traffic_resets_the_idle_clock(self):
        scaler, group, stats = _scaler(size=2, idle_timeout_s=1.0)
        scaler.step(now=0.0)
        stats.completed = 5  # traffic arrived
        verdict = scaler.step(now=1.5)  # only 0s since last traffic at t=1.5
        assert verdict.reason != "idle"
        assert group.size == 2

    def test_decision_history_is_bounded_and_deduplicates_holds(self):
        scaler, group, stats = _scaler(size=1, history=8)
        for tick in range(50):
            scaler.step(now=float(tick))  # cold-window hold every tick
        snap = scaler.snapshot()
        assert len(snap["decisions"]) == 1  # one entry per reason-transition
        assert snap["holds"] == 50 and snap["nan_holds"] == 50
        assert len(snap["decisions"]) <= 8


# --------------------------------------------------------------------- #
# Elastic membership on real worker processes
# --------------------------------------------------------------------- #
class TestElasticGroup:
    def test_scale_up_then_down_with_result_parity(self, tiny_spec, rng):
        reference = tiny_spec.build()
        images = rng.uniform(size=(4, 16, 16))
        with ReplicaGroup(tiny_spec, replicas=1, call_timeout_s=30.0) as group:
            expected = reference.run(images)
            np.testing.assert_allclose(group.infer_sync(images), expected, atol=1e-10)
            assert group.scale_to(3) == 3 and len(group) == 3
            _wait_until(lambda: group.alive_count() == 3, what="3 replicas alive")
            np.testing.assert_allclose(group.infer_sync(images), expected, atol=1e-10)
            rows = group.stats()
            assert [row["replica"] for row in rows] == [0, 1, 2]
            assert all(row["draining"] is False for row in rows)
            assert group.scale_to(1) == 1 and len(group) == 1
            np.testing.assert_allclose(group.infer_sync(images), expected, atol=1e-10)

    def test_add_replica_before_start_boots_with_the_group(self, tiny_spec):
        group = ReplicaGroup(tiny_spec, replicas=1, call_timeout_s=30.0)
        try:
            index = group.add_replica()
            assert index == 1 and len(group) == 2
            group.start()
            _wait_until(lambda: group.alive_count() == 2, what="both replicas alive")
        finally:
            group.close()

    def test_cannot_remove_the_last_replica(self, tiny_spec):
        with ReplicaGroup(tiny_spec, replicas=1, call_timeout_s=30.0) as group:
            with pytest.raises(ValueError):
                group.remove_replica()
            with pytest.raises(ValueError):
                group.scale_to(0)

    def test_removal_survives_index_position_divergence(self, tiny_spec, rng):
        """Removing index 0 leaves index 1 at list position 0: dispatch,
        restarts and stats must key by *index*, not position."""
        images = rng.uniform(size=(2, 16, 16))
        with ReplicaGroup(tiny_spec, replicas=2, call_timeout_s=30.0) as group:
            expected = tiny_spec.build().run(images)
            assert group.remove_replica(index=0) == 0
            assert len(group) == 1 and group.stats()[0]["replica"] == 1
            for _ in range(3):
                np.testing.assert_allclose(group.infer_sync(images), expected, atol=1e-10)
            # The survivor is also still restartable under its true index.
            assert group.check_health() == [True]

    def test_drain_before_terminate_drops_zero_inflight(self, tiny_spec, rng):
        """Removing a busy replica waits for its in-flight calls: every
        request issued before (and during) the removal completes, and the
        drain ends when the last call does, not at its deadline."""
        images = rng.uniform(size=(2, 16, 16))
        with ReplicaGroup(
            tiny_spec,
            replicas=2,
            router="round_robin",
            handicaps={1: 0.25},  # slow victim: calls are in flight during removal
            call_timeout_s=30.0,
        ) as group:
            expected = tiny_spec.build().run(images)
            outcomes = []

            def caller():
                try:
                    outcomes.append(("ok", group.infer_sync(images)))
                except Exception as exc:  # pragma: no cover - the assertion target
                    outcomes.append(("error", exc))

            threads = [threading.Thread(target=caller) for _ in range(6)]
            for thread in threads:
                thread.start()
            _wait_until(lambda: group.total_in_flight() > 0, what="calls in flight")
            removed = []
            remover = threading.Thread(
                target=lambda: removed.append(group.remove_replica(index=1, drain_timeout_s=600.0))
            )
            remover.start()
            remover.join(timeout=60.0)
            assert not remover.is_alive(), "the drain outlived its last call: a lost wake-up"
            for thread in threads:
                thread.join(timeout=30.0)
            assert removed == [1] and len(group) == 1
            assert len(outcomes) == 6
            assert [status for status, _ in outcomes] == ["ok"] * 6
            for _, result in outcomes:
                np.testing.assert_allclose(result, expected, atol=1e-10)

    def test_restart_backoff_grows_and_resets(self, tiny_spec):
        """The backoff ladder at *production-scale* delays, on a fake clock.

        The group's injected ``clock`` drives every backoff decision, so
        the test walks a 5 s -> 8 s (capped) ladder by advancing fake
        time -- no wall-clock sleeps beyond process lifecycle."""
        clock = ManualClock()
        wall_started = time.monotonic()
        with ReplicaGroup(
            tiny_spec,
            replicas=1,
            restart_backoff_s=5.0,
            restart_backoff_cap_s=8.0,
            call_timeout_s=30.0,
            clock=clock,
        ) as group:
            replica = group._by_index[0]
            real_restart = replica.restart
            replica.restart = lambda: (_ for _ in ()).throw(RuntimeError("boot loops"))
            try:
                group._schedule_restart(0)
                _wait_until(lambda: replica.restart_attempts == 1, 10.0, "first failed attempt")
                # Exponential ladder on the fake timeline: 5 s out.
                assert replica.restart_not_before == pytest.approx(clock.now + 5.0)
                assert group.stats()[0]["restart_attempts"] == 1
                clock.advance(5.0)  # the window expires instantly
                group._schedule_restart(0)
                _wait_until(lambda: replica.restart_attempts == 2, 10.0, "backed-off second attempt")
                assert replica.restart_not_before == pytest.approx(clock.now + 8.0)  # capped: min(8, 10)
                clock.advance(8.0)
                group._schedule_restart(0)
                _wait_until(lambda: replica.restart_attempts == 3, 10.0, "capped third attempt")
                assert replica.restart_not_before == pytest.approx(clock.now + 8.0)
            finally:
                replica.restart = real_restart
            clock.advance(8.0)
            group._schedule_restart(0)
            # Success resets the ladder (restart() zeroes the counter).
            _wait_until(
                lambda: replica.restart_attempts == 0 and replica.alive,
                30.0,
                "successful restart resetting the backoff ladder",
            )
            assert group.stats()[0]["restart_attempts"] == 0
        # 21 fake seconds of backoff must not cost 21 wall seconds.
        assert time.monotonic() - wall_started < 15.0

    def test_close_logs_stuck_restart_at_configurable_deadline(self, tiny_spec, caplog):
        group = ReplicaGroup(tiny_spec, replicas=1, close_timeout_s=0.3, call_timeout_s=30.0)
        group.start()
        group._restarting.add(99)  # a revive thread that never finishes
        get_logger().clear()
        started = time.monotonic()
        with caplog.at_level(logging.WARNING):
            group.close()
        assert time.monotonic() - started < 5.0  # bounded by close_timeout_s, not 60s
        (record,) = get_logger().records("cluster.close_drain_timeout")
        assert record["replicas"] == [99] and record["timeout_s"] == 0.3
        # One line per event: the JSON record, with no plain-text twin.
        lines = [(line.name, json.loads(line.getMessage())["event"]) for line in caplog.records]
        assert lines == [("repro.obs", "cluster.close_drain_timeout")]

    def test_close_interrupts_backoff_sleep_promptly(self, tiny_spec):
        """A revive waiting out a 30 s backoff must not hold close() hostage."""
        with ReplicaGroup(
            tiny_spec,
            replicas=1,
            restart_backoff_s=30.0,
            restart_backoff_cap_s=30.0,
            call_timeout_s=30.0,
        ) as group:
            replica = group._by_index[0]
            replica.note_restart_failure()  # not_before ~30s out
            group._schedule_restart(0)  # revive thread parks on the backoff wait
            _wait_until(lambda: 0 in group._restarting, 5.0, "revive thread parked")
            started = time.monotonic()
        assert time.monotonic() - started < 5.0


# --------------------------------------------------------------------- #
# Server integration + gateway NaN regression
# --------------------------------------------------------------------- #
class TestServerAutoscale:
    def test_server_scales_up_under_load(self, tiny_spec, rng):
        """A handicapped single replica blows the budget; the autoscaler
        adds a clean one and the decision is visible in stats()."""
        images = [rng.uniform(size=(16, 16)) for _ in range(400)]

        async def scenario():
            server = InferenceServer(
                max_batch=4,
                max_queue=512,
                replicas=1,
                cluster_options={"handicaps": {0: 0.06}, "call_timeout_s": 30.0},
                autoscale={
                    "slo_p99_ms": 80.0,
                    "max_replicas": 2,
                    "interval_s": 0.05,
                    "min_samples": 4,
                    "up_cooldown_s": 0.2,
                    "stats_window": 64,
                },
            )
            server.add_model("donn", tiny_spec.build())
            async with server:
                assert server.describe()["donn"]["autoscale"] is True
                deadline = asyncio.get_running_loop().time() + 60.0
                scaled = False
                cursor = 0
                while asyncio.get_running_loop().time() < deadline and not scaled:
                    burst = [
                        server.submit("donn", images[(cursor + i) % len(images)])
                        for i in range(8)
                    ]
                    cursor += 8
                    await asyncio.gather(*burst)
                    snap = server.stats()["donn"]
                    scaled = (snap.autoscaler or {}).get("scale_ups", 0) >= 1
                final = server.stats()["donn"]
                return scaled, final.autoscaler, final.as_dict()

        scaled, autoscaler, row = asyncio.run(scenario())
        assert scaled, f"autoscaler never scaled up: {autoscaler}"
        assert autoscaler["fleet"] == 2
        assert any(entry["action"] == "up" for entry in autoscaler["decisions"])
        assert row["autoscaler"]["config"]["slo_p99_ms"] == 80.0

    def test_autoscaled_model_added_to_a_started_server(self, tiny_spec, rng):
        """A late add_model takes start()'s wiring path: the group, the
        batcher and the autoscaler task all run, and stop() reclaims them."""
        image = rng.uniform(size=(16, 16))

        async def scenario():
            server = InferenceServer(cluster_options={"call_timeout_s": 30.0})
            async with server:
                server.add_model(
                    "late", tiny_spec.build(), autoscale={"slo_p99_ms": 50.0, "interval_s": 0.05, "max_replicas": 2}
                )
                answer = await server.submit("late", image)
                described = server.describe()["late"]
                deadline = asyncio.get_running_loop().time() + 30.0
                while server.stats()["late"].autoscaler["last_decision"] is None:
                    assert asyncio.get_running_loop().time() < deadline, "the autoscaler never ticked"
                    await asyncio.sleep(0.05)
                stats = server.stats()["late"]
            drivers = [task for task in asyncio.all_tasks() if task.get_name() == "repro-autoscale-late"]
            return answer, described, stats, drivers

        answer, described, stats, drivers = asyncio.run(scenario())
        expected = engine_compile(_tiny_model(), backend="numpy").run(image[None])[0]
        np.testing.assert_allclose(answer, expected, atol=1e-10)
        assert described["autoscale"] is True
        assert stats.autoscaler["model"] == "late" and stats.replicas
        assert drivers == [], "the autoscaler task outlived stop()"
        for row in stats.replicas:
            with pytest.raises(ProcessLookupError):
                os.kill(row["pid"], 0)  # the worker was joined

    def test_explicit_autoscale_needs_a_shardable_model(self):
        class InProcessOnly:
            input_shape = (4, 4)

            def run(self, batch, batch_size=None):  # pragma: no cover
                return np.asarray(batch)

        server = InferenceServer()
        with pytest.raises(TypeError):
            server.add_model("echo", InProcessOnly(), autoscale={"slo_p99_ms": 50})

    def test_bad_autoscale_options_refused_at_construction(self):
        with pytest.raises(ValueError):
            InferenceServer(autoscale={"slo_p99_ms": -5})
        with pytest.raises(TypeError):
            InferenceServer(autoscale=42)


class TestGatewayZeroTrafficStats:
    def test_stats_on_zero_traffic_autoscaled_server_is_valid_json(self, tiny_spec):
        """Cold percentile windows are NaN internally; the HTTP surface
        must serve ``null``, and the payload must parse as strict JSON."""
        from repro.gateway import Gateway
        from repro.gateway.codec import read_response

        async def scenario():
            server = InferenceServer(
                replicas=1,
                cluster_options={"call_timeout_s": 30.0},
                autoscale={"slo_p99_ms": 50.0, "interval_s": 0.05, "max_replicas": 2},
            )
            server.add_model("donn", tiny_spec.build())
            async with server:
                await asyncio.sleep(0.2)  # let the autoscaler tick on the cold window
                async with Gateway(server, port=0) as gateway:
                    reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
                    try:
                        writer.write(b"GET /v1/stats HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n")
                        await writer.drain()
                        status, _, body = await asyncio.wait_for(read_response(reader), 10.0)
                    finally:
                        writer.close()
                        try:
                            await writer.wait_closed()
                        except (ConnectionError, OSError):
                            pass
                stats = server.stats()["donn"]
                return status, body, stats.autoscaler

        status, body, snapshot = asyncio.run(scenario())
        assert status == 200
        assert b"NaN" not in body and b"Infinity" not in body

        def reject(token):  # json.loads accepts NaN by default; refuse it
            raise AssertionError(f"non-finite JSON constant {token!r} in /v1/stats")

        payload = json.loads(body.decode("utf-8"), parse_constant=reject)
        row = payload["models"]["donn"]
        assert row["p99_latency_ms"] is None  # cold window -> null, not NaN
        assert row["completed"] == 0
        assert row["autoscaler"]["nan_holds"] >= 1  # the loop ticked and held
        assert row["autoscaler"]["scale_ups"] == 0
        assert snapshot["last_decision"]["reason"] == "cold-window"
