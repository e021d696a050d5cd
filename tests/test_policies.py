"""Tests for batching policies (``repro.serve.policy``) and telemetry
(``repro.serve.metrics``).

The policies are pure decision objects, so most behavior is testable
deterministically with synthetic clocks and hand-fed observations -- no
sleeping, no real event-loop timing.  The end of the file integration-tests
the SLO semantics through a real :class:`DynamicBatcher`.
"""

from __future__ import annotations

import asyncio
import math

import numpy as np
import pytest

from repro.serve import (
    AdaptivePolicy,
    BatcherStats,
    DeadlineExceededError,
    DynamicBatcher,
    FixedWindowPolicy,
    InferenceServer,
    PercentileWindow,
    Request,
    SLOAwarePolicy,
    make_policy,
)
from repro.serve.policy import _EwmaLatencyModel


def request(arrival: float, deadline=None) -> Request:
    return Request(payload=None, future=None, arrival=arrival, deadline=deadline)


def run_async(coro):
    return asyncio.run(coro)


class TestPercentileWindow:
    def test_percentiles_of_known_data(self):
        window = PercentileWindow(capacity=100)
        for value in range(1, 101):  # 1..100
            window.record(float(value))
        assert window.percentile(50) == pytest.approx(50.5)
        assert window.percentile(99) == pytest.approx(99.01)
        assert window.mean() == pytest.approx(50.5)
        assert window.max() == 100.0

    def test_percentiles_are_monotone_in_q(self):
        rng = np.random.default_rng(0)
        window = PercentileWindow(capacity=256)
        for value in rng.exponential(10.0, size=500):
            window.record(value)
        qs = [0, 10, 25, 50, 75, 90, 95, 99, 100]
        values = [window.percentile(q) for q in qs]
        assert values == sorted(values), "percentile must be monotone in q"

    def test_window_slides_old_samples_out(self):
        window = PercentileWindow(capacity=4)
        for value in [1000.0, 1000.0, 1000.0, 1000.0]:
            window.record(value)
        for value in [1.0, 2.0, 3.0, 4.0]:  # fully displaces the spike
            window.record(value)
        assert len(window) == 4
        assert window.total_recorded == 8
        assert window.max() == 4.0, "aged-out observations must not linger"
        assert window.percentile(50) == pytest.approx(2.5)

    def test_empty_window_returns_nan_not_raises(self):
        window = PercentileWindow(capacity=8)
        assert math.isnan(window.percentile(99))
        assert math.isnan(window.mean())

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            PercentileWindow(capacity=0)


class TestBatcherStats:
    def test_as_dict_exposes_percentiles_and_breakdown(self):
        stats = BatcherStats(window=16)
        stats.submitted = 3
        stats.record_batch(3, compute_s=0.010)
        for wait in (0.001, 0.002, 0.003):
            stats.record_request(queue_wait_s=wait, latency_s=wait + 0.010)
        snapshot = stats.as_dict()
        assert snapshot["completed"] == 3
        assert snapshot["mean_batch_size"] == 3.0
        assert snapshot["mean_compute_ms"] == pytest.approx(10.0)
        assert snapshot["mean_queue_wait_ms"] == pytest.approx(2.0)
        assert snapshot["p50_latency_ms"] == pytest.approx(12.0)
        assert snapshot["p99_latency_ms"] <= 13.0
        assert snapshot["deadline_missed"] == 0


class TestFixedWindowPolicy:
    def test_no_default_deadlines_but_explicit_ones_shed(self):
        policy = FixedWindowPolicy()
        assert policy.assign_deadline(arrival=5.0) is None
        assert policy.admit(request(arrival=0.0), now=1e9)
        assert policy.admit(request(arrival=0.0, deadline=1.0), now=0.5)
        assert not policy.admit(request(arrival=0.0, deadline=1.0), now=1.5)


class TestEwmaLatencyModel:
    def test_learns_overhead_and_per_item_cost(self):
        model = _EwmaLatencyModel(alpha=0.5)
        # Ground truth: cost(B) = 2ms + 0.5ms * B, observed at two sizes.
        for _ in range(20):
            model.observe(4, 0.002 + 0.0005 * 4)
            model.observe(32, 0.002 + 0.0005 * 32)
        assert model.per_item_s == pytest.approx(0.0005, rel=0.05)
        assert model.overhead_s == pytest.approx(0.002, rel=0.1)
        assert model.predict(16) == pytest.approx(0.002 + 0.008, rel=0.1)

    def test_constant_batch_size_falls_back_to_conservative_per_item(self):
        model = _EwmaLatencyModel()
        for _ in range(5):
            model.observe(10, 0.010)
        # No size variance: the whole 1ms/item mean is charged per item.
        assert model.per_item_s == pytest.approx(0.001)
        assert model.overhead_s == 0.0

    def test_unwarmed_model_predicts_zero(self):
        assert _EwmaLatencyModel().predict(64) == 0.0


class TestSLOAwarePolicy:
    def test_requests_get_slo_deadlines(self):
        policy = SLOAwarePolicy(slo_ms=25.0)
        assert policy.assign_deadline(arrival=1.0) == pytest.approx(1.025)

    def test_tight_slo_shrinks_batches_loose_slo_does_not(self):
        tight = SLOAwarePolicy(slo_ms=5.0, max_batch=64)
        loose = SLOAwarePolicy(slo_ms=500.0, max_batch=64)
        # Both policies observe the same engine: ~1ms per item, no overhead.
        for batch_size in (8, 16, 32, 16, 8, 32):
            tight.observe(batch_size=batch_size, compute_s=0.001 * batch_size, queue_depth=0)
            loose.observe(batch_size=batch_size, compute_s=0.001 * batch_size, queue_depth=0)
        # Tight: only compute_fraction * 5ms of compute fits -> small batches.
        assert tight.batch_limit(now=0.0) <= 4
        assert tight.batch_limit(now=0.0) >= 1
        # Loose: 250ms of compute budget >> 64ms for a full batch.
        assert loose.batch_limit(now=0.0) == 64

    def test_unwarmed_policy_is_optimistic(self):
        policy = SLOAwarePolicy(slo_ms=5.0, max_batch=48)
        assert policy.batch_limit(now=0.0) == 48

    def test_expired_requests_are_not_admitted(self):
        policy = SLOAwarePolicy(slo_ms=10.0)
        fresh = request(arrival=0.0, deadline=policy.assign_deadline(0.0))
        assert policy.admit(fresh, now=0.005)
        assert not policy.admit(fresh, now=0.011)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            SLOAwarePolicy(slo_ms=0.0)
        with pytest.raises(ValueError):
            SLOAwarePolicy(slo_ms=10.0, max_batch=0)
        with pytest.raises(ValueError):
            SLOAwarePolicy(slo_ms=10.0, compute_fraction=1.5)


class TestAdaptivePolicy:
    def test_additive_increase_under_backlog(self):
        policy = AdaptivePolicy(min_batch=1, max_batch=16, increase=2.0, decrease=0.5)
        assert policy.batch_limit(now=0.0) == 1
        for _ in range(4):
            policy.observe(batch_size=1, compute_s=0.001, queue_depth=50)
        assert policy.target == pytest.approx(9.0)  # 1 + 4 * 2
        assert policy.batch_limit(now=0.0) == 9

    def test_multiplicative_decrease_when_queue_drains(self):
        policy = AdaptivePolicy(min_batch=1, max_batch=16, increase=2.0, decrease=0.5)
        for _ in range(20):
            policy.observe(batch_size=1, compute_s=0.001, queue_depth=100)
        assert policy.target == 16.0  # clamped at max_batch
        policy.observe(batch_size=16, compute_s=0.001, queue_depth=0)
        policy.observe(batch_size=8, compute_s=0.001, queue_depth=0)
        assert policy.target == pytest.approx(4.0)
        for _ in range(10):
            policy.observe(batch_size=1, compute_s=0.001, queue_depth=0)
        assert policy.target == 1.0  # clamped at min_batch

    def test_intermediate_queue_depth_holds_target(self):
        policy = AdaptivePolicy(min_batch=1, max_batch=16, increase=2.0, decrease=0.5)
        policy.observe(batch_size=1, compute_s=0.001, queue_depth=10)  # 10 >= 1: grow
        target = policy.target
        policy.observe(batch_size=1, compute_s=0.001, queue_depth=1)  # 1 < 3, != 0: hold
        assert policy.target == target

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            AdaptivePolicy(min_batch=0)
        with pytest.raises(ValueError):
            AdaptivePolicy(min_batch=8, max_batch=4)
        with pytest.raises(ValueError):
            AdaptivePolicy(decrease=1.0)


class TestMakePolicy:
    def test_builds_each_policy_by_name(self):
        assert isinstance(make_policy("fixed", max_batch=4), FixedWindowPolicy)
        assert isinstance(make_policy("slo", slo_ms=10.0), SLOAwarePolicy)
        assert isinstance(make_policy("adaptive", max_batch=8), AdaptivePolicy)

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(ValueError, match="adaptive.*fixed.*slo"):
            make_policy("nope")


class FakeSession:
    """Echo session: fused-call sizes recorded, result = payload * 2."""

    def __init__(self):
        self.batch_sizes = []

    def run(self, batch, batch_size=None):
        batch = np.asarray(batch)
        self.batch_sizes.append(len(batch))
        return batch * 2.0


class TestSLOSemanticsThroughTheBatcher:
    """Integration: deadline shedding and telemetry via a real DynamicBatcher."""

    def test_deadline_missed_requests_are_shed_before_admission(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(
                fake,
                policy=SLOAwarePolicy(slo_ms=5.0, max_batch=8),
                run_in_executor=False,
            )
            # Enqueue while the worker is *not* running, then let the
            # deadline expire: on startup the worker must shed them
            # without ever touching the engine.
            doomed = [asyncio.create_task(batcher.submit(np.ones((2, 2)))) for _ in range(3)]
            await asyncio.sleep(0.02)  # > 5ms SLO
            batcher.start()
            results = await asyncio.gather(*doomed, return_exceptions=True)
            # A fresh request right after still gets served.
            good = await batcher.submit(np.ones((2, 2)))
            stats = batcher.stats()
            await batcher.stop()
            return results, good, stats

        results, good, stats = run_async(scenario())
        assert all(isinstance(r, DeadlineExceededError) for r in results)
        np.testing.assert_array_equal(good, np.ones((2, 2)) * 2.0)
        assert stats.deadline_missed == 3
        assert stats.completed == 1
        assert fake.batch_sizes == [1], "expired requests must never reach the engine"

    def test_explicit_slo_ms_overrides_policy_default(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(fake, run_in_executor=False)  # fixed window: no default deadline
            generous = asyncio.create_task(batcher.submit(np.ones((2, 2))))
            doomed = asyncio.create_task(batcher.submit(np.ones((2, 2)), slo_ms=1.0))
            await asyncio.sleep(0.01)
            batcher.start()
            results = await asyncio.gather(generous, doomed, return_exceptions=True)
            await batcher.stop()
            return results

        generous, doomed = run_async(scenario())
        np.testing.assert_array_equal(generous, np.ones((2, 2)) * 2.0)
        assert isinstance(doomed, DeadlineExceededError)

    def test_slo_batcher_serves_within_budget_and_reports_percentiles(self):
        fake = FakeSession()

        async def scenario():
            batcher = DynamicBatcher(
                fake,
                policy=SLOAwarePolicy(slo_ms=200.0, max_batch=16),
                run_in_executor=False,
            )
            batcher.start()
            results = await asyncio.gather(*(batcher.submit(np.full((2, 2), float(i))) for i in range(12)))
            stats = batcher.stats()
            await batcher.stop()
            return results, stats

        results, stats = run_async(scenario())
        assert len(results) == 12
        assert stats.completed == 12
        assert stats.deadline_missed == 0
        assert stats.latency.total_recorded == 12
        snapshot = stats.as_dict()
        assert snapshot["p50_latency_ms"] <= snapshot["p95_latency_ms"] <= snapshot["p99_latency_ms"]
        assert snapshot["p99_latency_ms"] < 200.0, "requests must resolve within the SLO"
        assert snapshot["mean_queue_wait_ms"] >= 0.0
        assert snapshot["mean_compute_ms"] >= 0.0

    def test_policy_feedback_loop_reaches_the_policy(self):
        fake = FakeSession()
        policy = AdaptivePolicy(min_batch=1, max_batch=8, increase=2.0, decrease=0.5)

        async def scenario():
            batcher = DynamicBatcher(fake, policy=policy, run_in_executor=False)
            # Queue a backlog before the worker exists so the first fused
            # call deterministically sees 5 requests still waiting.
            tasks = [asyncio.create_task(batcher.submit(np.ones((2, 2)))) for _ in range(6)]
            await asyncio.sleep(0)
            batcher.start()
            await asyncio.gather(*tasks)
            await batcher.stop()

        run_async(scenario())
        assert sum(fake.batch_sizes) == 6
        # The first batch is capped at the initial target of 1; the
        # backlog it leaves behind drives additive increase, so later
        # batches grow -- proof the observe() feedback reached the policy.
        assert fake.batch_sizes[0] == 1
        assert len(fake.batch_sizes) >= 2
        assert max(fake.batch_sizes[1:]) > 1
        # The final drain (queue_depth == 0) then decays the target again.
        assert 1.0 <= policy.target < 3.0

    def test_server_threads_policy_factories_per_model(self, small_config):
        from repro import DONN

        async def scenario():
            server = InferenceServer(policy=lambda: SLOAwarePolicy(slo_ms=500.0, max_batch=16))
            server.add_model("digits", DONN(small_config))
            server.add_model("adaptive-digits", DONN(small_config), policy=AdaptivePolicy(max_batch=8))
            async with server:
                image = np.zeros((32, 32))
                await server.submit("digits", image)
                await server.submit("adaptive-digits", image)
                policies = {
                    name: type(model.batcher.policy).__name__ for name, model in server._models.items()
                }
                stats = {name: s.as_dict() for name, s in server.stats().items()}
            return policies, stats

        policies, stats = run_async(scenario())
        assert policies == {"digits": "SLOAwarePolicy", "adaptive-digits": "AdaptivePolicy"}
        assert stats["digits"]["completed"] == 1
        assert stats["digits"]["deadline_missed"] == 0

    def test_server_refuses_one_policy_instance_across_models(self, small_config):
        """Policies are stateful; a shared instance would average two
        models' latency behavior.  Instances serve one model, defaults
        must be factories -- enforced before the registry mutates."""
        from repro import DONN

        shared = SLOAwarePolicy(slo_ms=50.0)
        server = InferenceServer(policy=shared)
        server.add_model("first", DONN(small_config))
        with pytest.raises(TypeError, match="already serving 'first'"):
            server.add_model("second", DONN(small_config))
        assert "second" not in server.registry, "refused add must leave no trace"
        # A fresh instance (or a factory default) is the supported path.
        server.add_model("second", DONN(small_config), policy=SLOAwarePolicy(slo_ms=50.0))

    def test_replacing_a_model_releases_its_policy_instance(self, small_config):
        """A replaced model's old policy instance is free for another
        model; ownership follows the policies the server holds now, so a
        stale claim (or a new instance at a reused address) cannot block
        a later add."""
        from repro import DONN

        first = SLOAwarePolicy(slo_ms=50.0)
        server = InferenceServer()
        server.add_model("a", DONN(small_config), policy=first)
        server.add_model("a", DONN(small_config), replace=True, policy=SLOAwarePolicy(slo_ms=50.0))
        server.add_model("b", DONN(small_config), policy=first)
        with pytest.raises(TypeError, match="already serving 'b'"):
            server.add_model("c", DONN(small_config), policy=first)

    def test_server_rejects_bad_policy_spec(self):
        with pytest.raises(TypeError):
            InferenceServer(policy="fixed")
        with pytest.raises(TypeError):
            DynamicBatcher(FakeSession(), policy=object())
