"""Tests for the async dynamic-batching serving layer (``repro.serve``)."""

from __future__ import annotations

import asyncio
import threading

import numpy as np
import pytest

from repro import DONN, MultiChannelDONN, SegmentationDONN
from repro.engine import InferenceSession, compile as engine_compile
from repro.serve import (
    DeadlineExceededError,
    DynamicBatcher,
    FixedWindowPolicy,
    InferenceServer,
    ServerClosedError,
    ServerOverloadedError,
    SessionRegistry,
    SLOAwarePolicy,
    UnknownModelError,
)


class FakeSession:
    """Session double: counts fused engine calls and echoes payloads * 2."""

    def __init__(self, fail=False):
        self.batch_sizes = []
        self.fail = fail

    def run(self, batch, batch_size=None):
        batch = np.asarray(batch)
        self.batch_sizes.append(len(batch))
        if self.fail:
            raise RuntimeError("engine exploded")
        return batch * 2.0


class GatedSession:
    """Session double for executor threads: each call records its size and
    announces itself on ``entered``, then blocks until ``gate`` opens;
    ``peak`` is the most calls that ever ran at once."""

    def __init__(self):
        self.batch_sizes = []
        self.entered = threading.Event()
        self.gate = threading.Event()
        self.peak = 0
        self._active = 0
        self._lock = threading.Lock()

    def run(self, batch, batch_size=None):
        with self._lock:
            self.batch_sizes.append(len(batch))
            self._active += 1
            self.peak = max(self.peak, self._active)
        self.entered.set()
        self.gate.wait(10.0)
        with self._lock:
            self._active -= 1
        return np.asarray(batch) * 2.0


def run_async(coro):
    return asyncio.run(coro)


class TestDynamicBatching:
    def test_concurrent_requests_fuse_into_one_engine_call(self):
        """Eight concurrent submits must produce exactly one fused call:
        all eight queue before the idle worker wakes, and its first sweep
        takes the whole backlog."""
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, max_batch=16, run_in_executor=False)
            batcher.start()
            payloads = [np.full((4, 4), float(i)) for i in range(8)]
            results = await asyncio.gather(*(batcher.submit(p) for p in payloads))
            await batcher.stop()
            return payloads, results

        payloads, results = run_async(scenario())
        assert fake.batch_sizes == [8], "coalescing must fuse all queued requests into one call"
        for payload, result in zip(payloads, results):
            np.testing.assert_array_equal(result, payload * 2.0)

    def test_results_scatter_to_the_correct_callers(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, max_batch=4, run_in_executor=False)
            batcher.start()
            payloads = [np.full((2, 2), float(i)) for i in range(10)]
            results = await asyncio.gather(*(batcher.submit(p) for p in payloads))
            await batcher.stop()
            return payloads, results

        payloads, results = run_async(scenario())
        # 10 requests at max_batch 4 -> at least three calls, none bigger than 4.
        assert sum(fake.batch_sizes) == 10
        assert max(fake.batch_sizes) <= 4
        for payload, result in zip(payloads, results):
            np.testing.assert_array_equal(result, payload * 2.0)

    def test_max_wait_zero_fuses_only_already_queued_requests(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, max_batch=8, run_in_executor=False)
            # Queue up before the worker exists, then start: one sweep, one call.
            tasks = [asyncio.create_task(batcher.submit(np.full((2, 2), float(i)))) for i in range(5)]
            await asyncio.sleep(0)
            batcher.start()
            results = await asyncio.gather(*tasks)
            await batcher.stop()
            return results

        results = run_async(scenario())
        assert fake.batch_sizes == [5]
        assert len(results) == 5

    def test_lone_request_reaches_an_idle_engine_without_lingering(self):
        """The in-process twin of the dispatch case: an idle engine is a
        free slot, so a lone request runs within a few loop turns."""
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, max_batch=8, run_in_executor=False)
            batcher.start()
            request = asyncio.ensure_future(batcher.submit(np.full((2, 2), 3.0)))
            await _settle()
            assert fake.batch_sizes == [1], "a lone request must run while the engine is idle"
            await batcher.stop()
            return await request

        np.testing.assert_array_equal(run_async(scenario()), np.full((2, 2), 6.0))

    def test_in_process_engine_runs_one_batch_at_a_time(self):
        """An in-process model has one slot: while its call runs in the
        executor, arrivals queue, and the next call takes the backlog."""
        session = GatedSession()

        async def scenario():
            batcher = DynamicBatcher(session, max_batch=8)
            batcher.start()
            payloads = [np.full((2, 2), float(i)) for i in range(5)]
            tasks = [asyncio.ensure_future(batcher.submit(payloads[0]))]
            assert await asyncio.to_thread(session.entered.wait, 10.0), "the first call never started"
            tasks.extend(asyncio.ensure_future(batcher.submit(p)) for p in payloads[1:])
            await _settle()
            assert session.batch_sizes == [1], "nothing may start while the engine is busy"
            session.gate.set()
            results = await asyncio.gather(*tasks)
            await batcher.stop()
            return payloads, results

        payloads, results = run_async(scenario())
        assert session.batch_sizes == [1, 4], "the freed engine must take the whole backlog"
        assert session.peak == 1, "an in-process model makes one engine call at a time"
        for payload, result in zip(payloads, results):
            np.testing.assert_array_equal(result, payload * 2.0)

    def test_queue_overflow_raises_overload_instead_of_deadlocking(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, max_batch=4, max_queue=2, run_in_executor=False)
            # Worker not started: the bounded queue fills, the third submit
            # must fail fast -- not block forever.
            pending = [asyncio.create_task(batcher.submit(np.ones((2, 2)) * i)) for i in range(2)]
            await asyncio.sleep(0)
            with pytest.raises(ServerOverloadedError):
                await batcher.submit(np.ones((2, 2)))
            # The queued work is intact: starting the worker drains it.
            batcher.start()
            results = await asyncio.gather(*pending)
            await batcher.stop()
            return results

        results = run_async(scenario())
        assert len(results) == 2
        stats = fake.batch_sizes
        assert sum(stats) == 2

    def test_overload_counts_in_stats(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, max_queue=1, run_in_executor=False)
            task = asyncio.create_task(batcher.submit(np.ones((2, 2))))
            await asyncio.sleep(0)
            with pytest.raises(ServerOverloadedError):
                await batcher.submit(np.ones((2, 2)))
            batcher.start()
            await task
            await batcher.stop()
            return batcher.stats()

        stats = run_async(scenario())
        assert stats.submitted == 1
        assert stats.completed == 1
        assert stats.rejected == 1
        assert stats.batches == 1
        assert stats.mean_batch_size == 1.0

    def test_engine_failure_propagates_to_all_callers_and_worker_survives(self):
        fake = FakeSession(fail=True)

        async def scenario():
            batcher = DynamicBatcher(fake, max_batch=8, run_in_executor=False)
            batcher.start()
            results = await asyncio.gather(
                *(batcher.submit(np.ones((2, 2))) for _ in range(3)), return_exceptions=True
            )
            assert all(isinstance(r, RuntimeError) for r in results)
            # The worker must still be alive and serving after a bad batch.
            fake.fail = False
            good = await batcher.submit(np.ones((2, 2)))
            await batcher.stop()
            return good

        good = run_async(scenario())
        np.testing.assert_array_equal(good, np.ones((2, 2)) * 2.0)

    def test_submit_after_stop_raises_closed(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, run_in_executor=False)
            batcher.start()
            await batcher.stop()
            with pytest.raises(ServerClosedError):
                await batcher.submit(np.ones((2, 2)))

        run_async(scenario())

    def test_input_shape_validation_fails_fast(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, input_shape=(4, 4), run_in_executor=False)
            batcher.start()
            with pytest.raises(ValueError, match="expects input shape"):
                await batcher.submit(np.ones((3, 3)))
            await batcher.stop()

        run_async(scenario())

    def test_invalid_configuration_rejected(self):
        fake = FakeSession()
        with pytest.raises(ValueError):
            DynamicBatcher(fake, max_batch=0)
        with pytest.raises(ValueError):
            DynamicBatcher(fake, max_queue=0)
        with pytest.raises(TypeError):
            DynamicBatcher(object())


class GatedDispatch:
    """Async dispatch double: records each batch's size and holds the
    batch until its gate (an ``asyncio.Event``) is set."""

    def __init__(self):
        self.sizes = []
        self.gates = []

    async def __call__(self, stacked):
        self.sizes.append(len(stacked))
        gate = asyncio.Event()
        self.gates.append(gate)
        await gate.wait()
        return np.asarray(stacked) * 2.0


async def _settle(turns: int = 10) -> None:
    """Give every ready task a few event-loop turns (no wall clock)."""
    for _ in range(turns):
        await asyncio.sleep(0)


async def _stop_releasing(batcher, dispatch) -> None:
    """Stop the batcher, opening every gate, including ones the drain creates."""
    stopping = asyncio.ensure_future(batcher.stop())
    while not stopping.done():
        for gate in dispatch.gates:
            gate.set()
        await asyncio.sleep(0)
    await stopping


class TestDispatchBatching:
    """Cluster mode: a batch forms when a dispatch slot is free and leaves at once."""

    def test_lone_request_is_dispatched_without_lingering(self):
        """A free slot means a free replica: a lone request leaves at once."""
        dispatch = GatedDispatch()

        async def scenario():
            batcher = DynamicBatcher(
                FakeSession(),
                policy=FixedWindowPolicy(max_batch=8),
                dispatch=dispatch,
                max_concurrent_dispatches=2,
            )
            batcher.start()
            request = asyncio.ensure_future(batcher.submit(np.full((2, 2), 3.0)))
            await _settle()
            assert dispatch.sizes == [1], "a lone request must leave while a replica is free"
            await _stop_releasing(batcher, dispatch)
            return await request

        np.testing.assert_array_equal(run_async(scenario()), np.full((2, 2), 6.0))

    def test_backlog_fuses_into_the_next_free_slot(self):
        """With both slots held, one request and then four more queue up;
        the slot that frees first takes all five in one batch."""
        dispatch = GatedDispatch()

        async def scenario():
            batcher = DynamicBatcher(
                FakeSession(),
                policy=FixedWindowPolicy(max_batch=8),
                dispatch=dispatch,
                max_concurrent_dispatches=2,
            )
            batcher.start()
            payloads = [np.full((2, 2), float(i)) for i in range(7)]
            tasks = []
            for payload in payloads[:2]:
                tasks.append(asyncio.ensure_future(batcher.submit(payload)))
                await _settle()
            assert dispatch.sizes == [1, 1], "both slots must be held by gated batches"
            tasks.append(asyncio.ensure_future(batcher.submit(payloads[2])))
            await _settle()
            tasks.extend(asyncio.ensure_future(batcher.submit(p)) for p in payloads[3:])
            await _settle()
            assert dispatch.sizes == [1, 1], "nothing may leave while every slot is held"
            dispatch.gates[0].set()
            await _settle()
            assert dispatch.sizes == [1, 1, 5], "the freed slot must take the whole backlog"
            await _stop_releasing(batcher, dispatch)
            return payloads, await asyncio.gather(*tasks)

        payloads, results = run_async(scenario())
        for payload, result in zip(payloads, results):
            np.testing.assert_array_equal(result, payload * 2.0)

    def test_request_expiring_while_slots_are_held_is_shed_not_sent(self):
        """Admission runs after the slot is taken."""
        dispatch = GatedDispatch()
        clock = {"now": 0.0}

        class ClockedWindow(FixedWindowPolicy):
            def admit(self, request, now):
                return super().admit(request, clock["now"])

        async def scenario():
            batcher = DynamicBatcher(
                FakeSession(),
                policy=ClockedWindow(max_batch=8),
                dispatch=dispatch,
                max_concurrent_dispatches=1,
            )
            batcher.start()
            held = asyncio.ensure_future(batcher.submit(np.ones((2, 2))))
            await _settle()
            late = asyncio.ensure_future(batcher.submit(np.ones((2, 2)), slo_ms=5.0))
            await _settle()
            loop_now = asyncio.get_running_loop().time()
            clock["now"] = loop_now + 1.0  # the waiting request's budget has passed
            dispatch.gates[0].set()
            await _settle()
            assert dispatch.sizes == [1], "an expired request must not be dispatched"
            await _stop_releasing(batcher, dispatch)
            await held
            with pytest.raises(DeadlineExceededError):
                await late
            return batcher.stats()

        stats = run_async(scenario())
        assert stats.deadline_missed == 1


class TestSessionRegistry:
    def test_register_model_compiles_session(self, small_config):
        registry = SessionRegistry()
        session = registry.register("digits", DONN(small_config), dtype="complex64")
        assert isinstance(session, InferenceSession)
        assert session.dtype == np.complex64
        assert registry.get("digits") is session
        assert "digits" in registry and len(registry) == 1

    def test_register_existing_session_as_is(self, small_config):
        registry = SessionRegistry()
        session = engine_compile(DONN(small_config))
        assert registry.register("digits", session) is session

    def test_duplicate_name_rejected_unless_replace(self, small_config):
        registry = SessionRegistry()
        registry.register("digits", DONN(small_config))
        with pytest.raises(ValueError, match="already registered"):
            registry.register("digits", DONN(small_config))
        registry.register("digits", DONN(small_config), replace=True)

    def test_unknown_name_raises(self):
        registry = SessionRegistry()
        with pytest.raises(UnknownModelError):
            registry.get("missing")
        with pytest.raises(UnknownModelError):
            registry.unregister("missing")

    def test_session_kwargs_rejected_for_ready_sessions(self, small_config):
        registry = SessionRegistry()
        session = engine_compile(DONN(small_config))
        with pytest.raises(ValueError, match="already a session"):
            registry.register("digits", session, dtype="complex64")

    def test_non_session_rejected(self):
        registry = SessionRegistry()
        with pytest.raises(TypeError):
            registry.register("digits", object())


class TestRegistryLRUEviction:
    def test_capacity_validated(self):
        with pytest.raises(ValueError, match="max_models"):
            SessionRegistry(max_models=0)

    def test_least_recently_used_is_evicted_first(self):
        registry = SessionRegistry(max_models=2)
        registry.register("a", FakeSession())
        registry.register("b", FakeSession())
        registry.get("a")  # refresh: "b" is now the LRU entry
        registry.register("c", FakeSession())
        assert registry.last_evicted == ("b",)
        assert set(registry.names()) == {"a", "c"}
        with pytest.raises(UnknownModelError):
            registry.get("b")

    def test_registration_counts_as_use(self):
        registry = SessionRegistry(max_models=2)
        registry.register("a", FakeSession())
        registry.register("b", FakeSession())
        registry.register("c", FakeSession())  # evicts "a" (oldest untouched)
        assert registry.last_evicted == ("a",)
        registry.register("d", FakeSession())  # evicts "b"
        assert registry.last_evicted == ("b",)
        assert set(registry.names()) == {"c", "d"}

    def test_replace_never_evicts(self):
        registry = SessionRegistry(max_models=2)
        registry.register("a", FakeSession())
        registry.register("b", FakeSession())
        registry.register("a", FakeSession(), replace=True)
        assert registry.last_evicted == ()
        assert set(registry.names()) == {"a", "b"}

    def test_in_flight_requests_on_evicted_model_complete(self, small_config, rng):
        """Eviction drops the registry reference only: a live batcher keeps
        serving (and finishing) traffic for the evicted model."""
        registry = SessionRegistry(max_models=1)
        server = InferenceServer(registry=registry)
        first = server.add_model("first", DONN(small_config))
        image = rng.uniform(size=small_config.grid.shape)
        expected = first.run(image[None])[0]

        async def scenario():
            async with server:
                pending = asyncio.ensure_future(server.submit("first", image))
                await asyncio.sleep(0)  # in flight before the eviction lands
                server.add_model("second", DONN(small_config))  # evicts "first"
                assert registry.last_evicted == ("first",)
                result = await pending
                # Even brand-new requests still serve: the batcher holds its
                # own session reference.
                again = await server.submit("first", image)
                return result, again

        result, again = asyncio.run(scenario())
        np.testing.assert_allclose(result, expected, atol=1e-10)
        np.testing.assert_allclose(again, expected, atol=1e-10)

    def test_empty_burst_on_evicted_model_uses_live_batcher(self, small_config):
        """submit_many(name, []) must not fail just because the LRU
        registry dropped its reference while the batcher stays live."""
        registry = SessionRegistry(max_models=1)
        server = InferenceServer(registry=registry)
        server.add_model("first", DONN(small_config))

        async def scenario():
            async with server:
                server.add_model("second", DONN(small_config))  # evicts "first"
                return await server.submit_many("first", [])

        empty = asyncio.run(scenario())
        assert empty.shape == (0, small_config.num_classes)

    def test_eviction_prunes_server_bookkeeping_for_idle_names(self, small_config):
        """On a not-started server, an evicted name must not keep growing
        the server's per-model record table."""
        registry = SessionRegistry(max_models=1)
        server = InferenceServer(registry=registry)
        for index in range(4):
            server.add_model(f"model-{index}", DONN(small_config), max_batch=4)
        assert set(server._models) == {"model-3"}

    def test_reregistering_evicted_live_name_is_refused(self, small_config):
        """A name evicted from the registry but still live on a started
        server must not silently get a second batcher (the first would
        leak); re-registration is refused like any live replace."""
        registry = SessionRegistry(max_models=1)
        server = InferenceServer(registry=registry)
        server.add_model("first", DONN(small_config))

        async def scenario():
            async with server:
                server.add_model("second", DONN(small_config))  # evicts "first"
                with pytest.raises(RuntimeError, match="live model"):
                    server.add_model("first", DONN(small_config))

        asyncio.run(scenario())


class TestInferenceServer:
    def test_multi_tenant_serving_matches_direct_engine_calls(self, small_config, rng):
        """All three model families serve concurrently with correct routing."""
        donn = DONN(small_config, nonlinearity="kerr")
        multi = MultiChannelDONN(small_config)
        seg = SegmentationDONN(small_config.with_updates(num_layers=3))
        images = rng.uniform(0.0, 1.0, size=(6, 32, 32))
        rgb = rng.uniform(0.0, 1.0, size=(6, 3, 32, 32))

        async def scenario():
            server = InferenceServer(max_batch=8)
            server.add_model("digits", donn)
            server.add_model("rgb", multi)
            server.add_model("scenes", seg)
            async with server:
                digits_out, rgb_out, scenes_out = await asyncio.gather(
                    server.submit_many("digits", images),
                    server.submit_many("rgb", rgb),
                    server.submit_many("scenes", images),
                )
            return digits_out, rgb_out, scenes_out, server

        digits_out, rgb_out, scenes_out, server = run_async(scenario())
        np.testing.assert_allclose(digits_out, engine_compile(donn).run(images), atol=1e-9)
        np.testing.assert_allclose(rgb_out, engine_compile(multi).run(rgb), atol=1e-9)
        np.testing.assert_allclose(scenes_out, engine_compile(seg).run(images), atol=1e-9)
        stats = server.stats()
        assert stats == {}, "stopped server exposes no live batchers"

    def test_server_coalesces_and_reports_stats(self, small_config, rng):
        model = DONN(small_config)
        images = rng.uniform(0.0, 1.0, size=(12, 32, 32))

        async def scenario():
            server = InferenceServer(max_batch=16)
            server.add_model("digits", model)
            async with server:
                await server.submit_many("digits", images)
                stats = {name: s.as_dict() for name, s in server.stats().items()}
            return stats

        stats = run_async(scenario())
        assert stats["digits"]["completed"] == 12
        assert stats["digits"]["batches"] == 1, "a concurrent burst must fuse into one engine call"
        assert stats["digits"]["largest_batch"] == 12

    def test_unknown_model_raises(self, small_config):
        async def scenario():
            server = InferenceServer()
            server.add_model("digits", DONN(small_config))
            async with server:
                with pytest.raises(UnknownModelError):
                    await server.submit("nope", np.zeros((32, 32)))

        run_async(scenario())

    def test_submit_before_start_and_after_stop_raise(self, small_config):
        async def scenario():
            server = InferenceServer()
            server.add_model("digits", DONN(small_config))
            with pytest.raises(ServerClosedError, match="not started"):
                await server.submit("digits", np.zeros((32, 32)))
            await server.start()
            await server.stop()
            with pytest.raises(ServerClosedError):
                await server.submit("digits", np.zeros((32, 32)))
            with pytest.raises(ServerClosedError):
                await server.start()

        run_async(scenario())

    def test_names_registered_on_the_registry_serve_with_window_defaults(self, small_config, rng):
        """A name registered directly on a caller-supplied registry is served
        from start() with the server's window defaults, not its policy."""
        registry = SessionRegistry()
        session = registry.register("direct", DONN(small_config))
        server = InferenceServer(registry=registry, policy=lambda: SLOAwarePolicy(slo_ms=500.0), max_batch=3)
        server.add_model("added", DONN(small_config))
        image = rng.uniform(0.0, 1.0, size=(32, 32))

        async def scenario():
            with pytest.raises(ServerClosedError, match="not started"):
                await server.submit("direct", image)
            async with server:
                policies = {name: server._models[name].batcher.policy for name in ("direct", "added")}
                return await server.submit("direct", image), policies

        served, policies = run_async(scenario())
        np.testing.assert_allclose(served, session.run(image[None])[0], atol=1e-10)
        assert isinstance(policies["direct"], FixedWindowPolicy) and policies["direct"].max_batch == 3
        assert isinstance(policies["added"], SLOAwarePolicy)

    def test_add_model_while_running(self, small_config, rng):
        images = rng.uniform(0.0, 1.0, size=(3, 32, 32))
        model = DONN(small_config)

        async def scenario():
            server = InferenceServer()
            async with server:
                server.add_model("late", model)
                return await server.submit_many("late", images)

        out = run_async(scenario())
        np.testing.assert_allclose(out, engine_compile(model).run(images), atol=1e-9)

    def test_complex64_model_served_within_budget(self, small_config, rng):
        from repro.engine import COMPLEX64_LOGIT_ATOL

        model = DONN(small_config)
        images = rng.uniform(0.0, 1.0, size=(4, 32, 32))

        async def scenario():
            server = InferenceServer()
            server.add_model("digits64", model, dtype="complex64")
            async with server:
                return await server.submit_many("digits64", images)

        out = run_async(scenario())
        np.testing.assert_allclose(out, engine_compile(model).run(images), atol=COMPLEX64_LOGIT_ATOL)

    def test_replace_on_live_model_rejected_without_touching_registry(self, small_config, rng):
        """A refused live swap must leave both registry and batcher serving
        the original session."""
        old = DONN(small_config)
        new = DONN(small_config.with_updates(seed=99))
        image = rng.uniform(0.0, 1.0, size=(32, 32))

        async def scenario():
            server = InferenceServer()
            original_session = server.add_model("digits", old)
            async with server:
                with pytest.raises(RuntimeError, match="stop the server"):
                    server.add_model("digits", new, replace=True)
                assert server.registry.get("digits") is original_session
                served = await server.submit("digits", image)
            return served, original_session

        served, original_session = run_async(scenario())
        np.testing.assert_allclose(served, original_session.run(image), atol=1e-12)

    def test_submit_many_empty_burst_keeps_engine_output_shape(self, small_config):
        async def scenario():
            server = InferenceServer()
            server.add_model("digits", DONN(small_config))
            server.add_model("scenes", SegmentationDONN(small_config.with_updates(num_layers=3)))
            async with server:
                return (
                    await server.submit_many("digits", []),
                    await server.submit_many("scenes", []),
                )

        digits_out, scenes_out = run_async(scenario())
        assert digits_out.shape == (0, 10)
        assert scenes_out.shape == (0, 32, 32)

    def test_stats_expose_latency_percentiles_and_breakdown(self, small_config, rng):
        """The telemetry satellite: server.stats() carries sliding-window
        percentiles and the queue-wait vs compute breakdown."""
        images = rng.uniform(0.0, 1.0, size=(8, 32, 32))

        async def scenario():
            server = InferenceServer(max_batch=16)
            server.add_model("digits", DONN(small_config))
            async with server:
                await server.submit_many("digits", images)
                return server.stats()["digits"].as_dict()

        stats = run_async(scenario())
        assert stats["completed"] == 8
        assert stats["deadline_missed"] == 0
        assert stats["p50_latency_ms"] > 0.0
        assert stats["p50_latency_ms"] <= stats["p95_latency_ms"] <= stats["p99_latency_ms"]
        # queue wait + compute must account for (almost all of) the latency.
        assert stats["mean_queue_wait_ms"] + stats["mean_compute_ms"] >= 0.5 * stats["p50_latency_ms"]

    def test_server_with_slo_policy_sheds_and_counts_expired_requests(self, small_config, rng):
        """Deadline-missed requests fail with DeadlineExceededError, are
        counted, and never poison later traffic."""
        image = rng.uniform(0.0, 1.0, size=(32, 32))

        async def scenario():
            server = InferenceServer(policy=lambda: SLOAwarePolicy(slo_ms=30.0, max_batch=8))
            server.add_model("digits", DONN(small_config))
            async with server:
                # An impossible per-request budget: expires while queued.
                with pytest.raises(DeadlineExceededError):
                    await server.submit("digits", image, slo_ms=0.0001)
                served = await server.submit("digits", image, slo_ms=5000.0)
                stats = server.stats()["digits"].as_dict()
            return served, stats

        served, stats = run_async(scenario())
        assert served.shape == (10,)
        assert stats["deadline_missed"] == 1
        assert stats["completed"] == 1

    def test_explicit_policy_instance_per_model(self, small_config, rng):
        """add_model(policy=...) pins a policy to one model; the server's
        max_batch still governs policy-less models on the same server."""
        images = rng.uniform(0.0, 1.0, size=(4, 32, 32))

        async def scenario():
            server = InferenceServer(max_batch=2)
            server.add_model("windowed", DONN(small_config))
            server.add_model("slo", DONN(small_config), policy=FixedWindowPolicy(max_batch=16))
            async with server:
                await asyncio.gather(
                    server.submit_many("windowed", images),
                    server.submit_many("slo", images),
                )
                return {name: s.as_dict() for name, s in server.stats().items()}

        stats = run_async(scenario())
        assert stats["windowed"]["largest_batch"] <= 2, "server-wide max_batch must bound the default policy"
        assert stats["slo"]["batches"] == 1, "the per-model policy's larger cap must fuse the whole burst"

    def test_shape_validation_is_wired_from_the_session(self, small_config):
        async def scenario():
            server = InferenceServer()
            server.add_model("digits", DONN(small_config))
            async with server:
                with pytest.raises(ValueError, match="expects input shape"):
                    await server.submit("digits", np.zeros((16, 16)))

        run_async(scenario())
