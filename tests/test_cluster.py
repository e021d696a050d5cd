"""Tests for ``repro.cluster``: specs, shm transport, routers, replica groups.

Process-spawning tests share one module-scoped 2-replica group over a
tiny DONN so the suite pays the spawn+compile cost once.  Every test that
wounds the fleet (kills a worker) waits for recovery before returning,
keeping the fixture healthy for whoever runs next.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import struct
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.cluster import (
    LeastLoadedRouter,
    LocalTransport,
    NoReplicaAvailableError,
    PowerOfTwoChoicesRouter,
    ReplicaCrashError,
    ReplicaGroup,
    ReplicaView,
    RoundRobinRouter,
    ShmArena,
    ShmReader,
    SocketTransport,
    WorkerServer,
    WorkerStartupError,
    make_router,
    usable_cores,
)
from repro.cluster.transport import FrameBuffer, recv_message, send_message
from repro.cluster.worker import probe_session
from repro.engine import InferenceSession, SessionSpec, compile as engine_compile
from repro.models.config import DONNConfig
from repro.models.donn import DONN
from repro.serve import DynamicBatcher, InferenceServer, ServerClosedError, SLOAwarePolicy

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _tiny_model() -> DONN:
    config = DONNConfig(
        sys_size=16, pixel_size=36e-6, distance=0.05, num_layers=2, num_classes=4, approx="fresnel", seed=3
    )
    return DONN(config)


@pytest.fixture(scope="module")
def tiny_session() -> InferenceSession:
    return engine_compile(_tiny_model(), batch_size=32, backend="numpy")


@pytest.fixture(scope="module")
def group(tiny_session) -> ReplicaGroup:
    spec = tiny_session.to_spec()
    group = ReplicaGroup(spec, replicas=2, router="round_robin", max_retries=2, call_timeout_s=30.0)
    group.start()
    yield group
    group.close()


def _wait_until(predicate, timeout_s: float = 30.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.05)


# --------------------------------------------------------------------- #
# SessionSpec
# --------------------------------------------------------------------- #
class TestSessionSpec:
    def test_round_trip_matches_compiled_session_exactly(self, tiny_session, rng):
        """spec.build() in-process reproduces the originating session."""
        spec = tiny_session.to_spec()
        rebuilt = spec.build()
        images = rng.uniform(size=(6, 16, 16))
        np.testing.assert_allclose(rebuilt.run(images), tiny_session.run(images), atol=1e-10)

    def test_spec_records_resolved_session_options(self, tiny_session):
        spec = tiny_session.to_spec()
        assert spec.backend == "numpy"  # resolved, never "auto"
        assert spec.dtype == "complex128"
        assert spec.batch_size == 32
        assert spec.model_type == "DONN"

    def test_spec_survives_pickle(self, tiny_session, rng):
        """The spec itself must cross process boundaries (spawn pickles it)."""
        import pickle

        spec = pickle.loads(pickle.dumps(tiny_session.to_spec()))
        images = rng.uniform(size=(2, 16, 16))
        np.testing.assert_allclose(spec.build().run(images), tiny_session.run(images), atol=1e-10)

    def test_spec_reflects_snapshot_not_later_training(self, rng):
        """to_spec() must rebuild the weights the session *compiled*, not
        whatever the live model trained to afterwards -- otherwise cluster
        replicas silently diverge from the in-process session."""
        model = _tiny_model()
        session = engine_compile(model, backend="numpy")
        images = rng.uniform(size=(3, 16, 16))
        frozen = session.run(images)
        for parameter in model.parameters():
            # Non-uniform perturbation: a constant phase offset would be a
            # global phase factor, invisible to detector intensity.
            parameter.data = parameter.data + rng.uniform(0.0, 1.0, size=parameter.data.shape)
        rebuilt = session.to_spec().build()
        np.testing.assert_allclose(rebuilt.run(images), frozen, atol=1e-10)
        # refresh() re-snapshots: now the spec follows the new weights.
        session.refresh()
        refreshed = session.to_spec().build()
        np.testing.assert_allclose(refreshed.run(images), session.run(images), atol=1e-10)
        assert np.abs(refreshed.run(images) - frozen).max() > 1e-6

    def test_unpicklable_model_is_refused(self):
        class Weird:
            def __reduce__(self):
                raise TypeError("nope")

        with pytest.raises(TypeError, match="failed to pickle"):
            SessionSpec.from_model(Weird())


# --------------------------------------------------------------------- #
# Shared-memory transport (no processes: arena and reader in one address space)
# --------------------------------------------------------------------- #
class TestShmTransport:
    def test_write_take_round_trip(self, rng):
        arena, reader = ShmArena(), ShmReader()
        try:
            array = rng.uniform(size=(3, 7, 5))
            ref = arena.write(array)
            out = reader.take(ref)
            np.testing.assert_array_equal(out, array)
            assert out.base is None or out.flags.owndata or not np.shares_memory(out, reader.view(ref))
        finally:
            reader.close()
            arena.close()

    def test_arena_grows_and_renames_only_when_needed(self, rng):
        arena, reader = ShmArena(min_bytes=256), ShmReader()
        try:
            small = rng.uniform(size=(4,))
            name_one = arena.write(small)[0]
            name_two = arena.write(small * 2)[0]
            assert name_one == name_two, "steady-state writes must reuse the block"
            big = rng.uniform(size=(4096,))
            ref_big = arena.write(big)
            assert ref_big[0] != name_one, "outgrown arena must reallocate"
            np.testing.assert_array_equal(reader.take(ref_big), big)
        finally:
            reader.close()
            arena.close()

    def test_view_is_zero_copy(self, rng):
        arena, reader = ShmArena(), ShmReader()
        try:
            array = rng.uniform(size=(8, 8))
            ref = arena.write(array)
            view = reader.view(ref)
            assert not view.flags.owndata
            np.testing.assert_array_equal(view, array)
        finally:
            reader.close()
            arena.close()


# --------------------------------------------------------------------- #
# The worker call loop: one contract, both transports
# --------------------------------------------------------------------- #
@pytest.fixture(params=["local", "socket"])
def make_transport(request):
    """Transport factory of the parametrized flavor (socket: in-thread worker)."""
    opened = []

    def make(spec):
        if request.param == "local":
            transport = LocalTransport(spec)
        else:
            server = WorkerServer(port=0)
            server.serve_in_thread()
            opened.append(server)
            transport = SocketTransport(spec, server.address)
        opened.append(transport)
        return transport

    yield make
    for resource in reversed(opened):
        resource.close()


def _answer(transport, message):
    transport.send(message)
    assert transport.poll(30.0), f"no answer to {message[0]!r}"
    return transport.recv()


class TestWorkerLoopContract:
    def test_handshake_ping_errors_and_replies(self, make_transport, tiny_session, rng):
        transport = make_transport(tiny_session.to_spec())
        assert transport.start() == probe_session(tiny_session)
        assert _answer(transport, ("ping", 1)) == ("pong", 1)
        kind, seq, message = _answer(transport, ("run", np.zeros(3), 2))
        assert (kind, seq) == ("err", 2) and "ValueError" in message
        images = rng.uniform(size=(3, 16, 16))
        untraced = _answer(transport, ("run", images, 3))
        assert len(untraced) == 4 and untraced[:2] == ("ok", 3)
        np.testing.assert_allclose(untraced[2], tiny_session.run(images), atol=1e-10)
        traced = _answer(transport, ("run", images, 4, {"trace_ids": ["t"]}))
        assert len(traced) == 5 and traced[:2] == ("ok", 4)
        assert {"pid", "compute_ms"} <= set(traced[4])

    def test_unbuildable_spec_is_a_startup_error(self, make_transport):
        transport = make_transport(SessionSpec.from_model("not a model"))
        with pytest.raises(WorkerStartupError):
            transport.start()


class TestWorkerServerMalformedFrames:
    def test_bad_frames_never_stop_the_listener(self, tiny_session, rng):
        spec = tiny_session.to_spec()
        with WorkerServer(port=0) as server:
            listener = server.serve_in_thread()

            def converse(*frames):
                with socket.create_connection((server.host, server.port), timeout=30.0) as sock:
                    buffer = FrameBuffer()
                    replies = []
                    for frame in frames:
                        send_message(sock, frame)
                        replies.append(recv_message(sock, buffer))
                    return replies

            with socket.create_connection((server.host, server.port), timeout=30.0) as sock:
                sock.sendall(struct.pack(">Q", 7) + b"garbage")  # a frame that does not unpickle
                with pytest.raises(EOFError):
                    recv_message(sock, FrameBuffer())
            assert converse(("init", spec))[0][0] == "fatal"
            assert converse("not a tuple")[0][0] == "fatal"
            ready, err = converse(("init", spec, None), ("run",))
            assert ready[0] == "ready" and err[0] == "err"
            transport = SocketTransport(spec, server.address)
            try:
                transport.start()
                images = rng.uniform(size=(2, 16, 16))
                reply = _answer(transport, ("run", images, 1))
                np.testing.assert_allclose(reply[2], tiny_session.run(images), atol=1e-10)
            finally:
                transport.close()
            assert listener.is_alive()


class TestSocketHandshakeDeadline:
    def test_silent_peer_is_a_startup_error_within_the_timeout(self, tiny_session):
        """A peer that accepts the connection and never answers must not
        block ``start()`` past ``start_timeout_s``."""
        outcome = []
        with socket.create_server(("127.0.0.1", 0)) as listener:  # never calls accept()
            transport = SocketTransport(tiny_session.to_spec(), listener.getsockname(), start_timeout_s=0.5)

            def start():
                try:
                    transport.start()
                except WorkerStartupError as exc:
                    outcome.append(exc)

            thread = threading.Thread(target=start, daemon=True)
            thread.start()
            thread.join(timeout=10.0)
            hung = thread.is_alive()
        assert not hung, "start() ignored start_timeout_s against a silent peer"
        assert len(outcome) == 1 and "did not hand-shake" in str(outcome[0])
        assert not transport.alive


# --------------------------------------------------------------------- #
# Routers (pure decision logic)
# --------------------------------------------------------------------- #
def _views(*triples):
    """(alive, in_flight, ewma_ms) triples -> ReplicaView list."""
    return [
        ReplicaView(index=i, alive=alive, in_flight=depth, ewma_latency_ms=ewma)
        for i, (alive, depth, ewma) in enumerate(triples)
    ]


class TestRouters:
    def test_round_robin_cycles_alive_replicas(self):
        router = RoundRobinRouter()
        views = _views((True, 0, 1.0), (False, 0, 1.0), (True, 0, 1.0))
        picks = [router.select(views) for _ in range(4)]
        assert picks == [0, 2, 0, 2], "dead replica must be skipped, others cycled"

    def test_least_loaded_prefers_shallow_queue_then_fast_ewma(self):
        router = LeastLoadedRouter()
        assert router.select(_views((True, 2, 1.0), (True, 0, 9.0), (True, 1, 1.0))) == 1
        # Equal depth: the structurally faster replica wins.
        assert router.select(_views((True, 1, 9.0), (True, 1, 2.0))) == 1

    def test_power_of_two_picks_better_of_its_pair(self):
        router = PowerOfTwoChoicesRouter(seed=0)
        views = _views((True, 5, 1.0), (True, 0, 1.0), (True, 5, 1.0))
        # Whatever pair is sampled, index 1 wins any pair it appears in;
        # over many draws it must dominate the heavily loaded replicas.
        picks = [router.select(views) for _ in range(50)]
        assert picks.count(1) > 25

    def test_exclusion_and_exhaustion(self):
        router = LeastLoadedRouter()
        views = _views((True, 0, 1.0), (True, 1, 1.0))
        assert router.select(views, exclude={0}) == 1
        with pytest.raises(NoReplicaAvailableError):
            router.select(views, exclude={0, 1})
        with pytest.raises(NoReplicaAvailableError):
            router.select(_views((False, 0, 1.0)))

    def test_make_router_resolves_names_and_instances(self):
        assert make_router("least_loaded").name == "least_loaded"
        instance = RoundRobinRouter()
        assert make_router(instance) is instance
        with pytest.raises(ValueError, match="unknown router"):
            make_router("fastest_replica_wins")
        with pytest.raises(ValueError, match="router options"):
            make_router(instance, seed=1)


# --------------------------------------------------------------------- #
# Restart-backoff bookkeeping (pure, fake clock -- no processes)
# --------------------------------------------------------------------- #
class TestRestartBackoffClock:
    def _replica(self, tiny_session, clock):
        from repro.cluster.replica import Replica

        return Replica(
            tiny_session.to_spec(),
            index=0,
            restart_backoff_s=0.5,
            restart_backoff_cap_s=30.0,
            clock=clock,
        )

    def test_backoff_ladder_walks_production_delays_without_sleeping(self, tiny_session):
        """The default 0.5 s -> 30 s ladder, asserted on a fake timeline."""
        now = {"t": 1000.0}
        replica = self._replica(tiny_session, lambda: now["t"])
        delays = [replica.note_restart_failure() for _ in range(8)]
        assert delays == [0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 30.0, 30.0]
        assert replica.restart_not_before == pytest.approx(1000.0 + 30.0)
        now["t"] += 12.0  # the window tracks the injected clock, not wall time
        assert replica.note_restart_failure() == 30.0
        assert replica.restart_not_before == pytest.approx(1012.0 + 30.0)

    def test_clock_defaults_to_wall_monotonic(self, tiny_session):
        from repro.cluster.replica import Replica

        replica = Replica(tiny_session.to_spec(), index=0, restart_backoff_s=0.5)
        assert replica.clock is time.monotonic
        before = time.monotonic()
        replica.note_restart_failure()
        assert replica.restart_not_before >= before + 0.5


# --------------------------------------------------------------------- #
# Replica groups (real spawned workers)
# --------------------------------------------------------------------- #
class TestReplicaGroup:
    def test_cluster_dispatch_matches_in_process_engine(self, group, tiny_session, rng):
        """The acceptance criterion: logit parity at 1e-10 for float64."""
        images = rng.uniform(size=(9, 16, 16))
        reference = tiny_session.run(images)
        np.testing.assert_allclose(group.infer_sync(images), reference, atol=1e-10)
        np.testing.assert_allclose(asyncio.run(group.infer(images)), reference, atol=1e-10)

    def test_handshake_metadata_and_empty_batch(self, group):
        assert group.kind == "classifier"
        assert group.input_shape == (16, 16)
        empty = group.run(np.empty((0, 16, 16)))
        assert empty.shape == (0, 4)
        with pytest.raises(RuntimeError, match="asynchronously"):
            group.run(np.zeros((1, 16, 16)))

    def test_requests_spread_across_replicas(self, group, rng):
        images = rng.uniform(size=(2, 16, 16))
        before = [replica["dispatched"] for replica in group.stats()]
        for _ in range(4):
            group.infer_sync(images)
        gained = [after["dispatched"] - b for after, b in zip(group.stats(), before)]
        assert sum(gained) == 4
        assert all(g > 0 for g in gained), f"round robin must touch every replica, got {gained}"

    def test_worker_crash_recovery_no_client_hang(self, group, tiny_session, rng):
        """Kill a replica mid-load: traffic keeps completing, the group
        restarts the dead worker, and no caller hangs."""
        images = rng.uniform(size=(4, 16, 16))
        reference = tiny_session.run(images)
        victim = group._replicas[0]
        os.kill(victim.pid, signal.SIGKILL)
        _wait_until(lambda: not victim.alive, what="the killed worker to be seen dead")
        for _ in range(6):  # every call answered correctly while one replica is down
            np.testing.assert_allclose(group.infer_sync(images), reference, atol=1e-10)
        _wait_until(lambda: victim.alive, what="the background restart")
        assert victim.restarts >= 1
        np.testing.assert_allclose(group.infer_sync(images), reference, atol=1e-10)

    def test_crash_mid_call_retries_on_another_replica(self, group, tiny_session, rng):
        """A worker dying *while serving* must not surface to the caller."""
        images = rng.uniform(size=(3, 16, 16))
        reference = tiny_session.run(images)
        victim = group._replicas[1]
        pid = victim.pid

        # Kill the worker the moment it goes busy, from a helper thread.
        import threading

        def assassin():
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                if victim.in_flight > 0 and victim.pid == pid:
                    os.kill(pid, signal.SIGKILL)
                    return
                time.sleep(0.0005)

        thread = threading.Thread(target=assassin, daemon=True)
        thread.start()
        for _ in range(8):
            np.testing.assert_allclose(group.infer_sync(images), reference, atol=1e-10)
        thread.join(timeout=10.0)
        _wait_until(lambda: all(replica.alive for replica in group._replicas), what="fleet recovery")

    def test_all_replicas_dead_is_bounded_error_not_hang(self, tiny_session):
        solo = ReplicaGroup(tiny_session.to_spec(), replicas=1, max_retries=1, name="doomed")
        solo.start()
        try:
            os.kill(solo._replicas[0].pid, signal.SIGKILL)
            _wait_until(lambda: not solo._replicas[0].alive, what="worker death")
            started = time.monotonic()
            with pytest.raises((ReplicaCrashError, NoReplicaAvailableError)):
                solo.infer_sync(np.zeros((1, 16, 16)))
            assert time.monotonic() - started < 10.0, "failure must be prompt, not a hang"
        finally:
            solo.close()

    def test_check_health_reports_and_restarts(self, group):
        assert group.check_health(restart_dead=False) == [True, True]
        victim = group._replicas[1]
        os.kill(victim.pid, signal.SIGKILL)
        _wait_until(lambda: not victim.alive, what="worker death")
        health = group.check_health(restart_dead=True)
        assert health[1] is False, "health list reports pre-restart state"
        _wait_until(lambda: victim.alive, what="health-check restart")
        assert group.check_health(restart_dead=False) == [True, True]

    def test_rescue_uses_idle_replica_only(self, group, tiny_session, rng):
        image = rng.uniform(size=(16, 16))
        row = group.rescue_sync(image)
        np.testing.assert_allclose(row, tiny_session.run(image[None])[0], atol=1e-10)
        for replica in group._replicas:
            replica.in_flight += 1  # simulate a fully busy fleet
        try:
            with pytest.raises(NoReplicaAvailableError):
                group.rescue_sync(image)
        finally:
            for replica in group._replicas:
                replica.in_flight -= 1

    def test_handicapped_replica_shows_slower_ewma(self, tiny_session, rng):
        """The asymmetry hook: a handicapped replica's EWMA must reflect it."""
        slow = ReplicaGroup(
            tiny_session.to_spec(),
            replicas=2,
            router="round_robin",
            handicaps={0: 0.05},
            name="asym",
        )
        with slow:
            images = rng.uniform(size=(2, 16, 16))
            for _ in range(6):
                slow.infer_sync(images)
            stats = slow.stats()
            assert stats[0]["handicap_ms"] == pytest.approx(50.0)
            assert stats[0]["ewma_latency_ms"] > stats[1]["ewma_latency_ms"] + 40.0

    def test_failed_start_leaves_group_retryable(self):
        """A startup failure must tear down booted workers but not brick
        the group -- a transient miss should be retryable."""
        from repro.cluster import WorkerStartupError

        broken_spec = SessionSpec.from_model("not a model")  # workers cannot compile this
        group = ReplicaGroup(broken_spec, replicas=1, name="transient")
        with pytest.raises(WorkerStartupError):
            group.start()
        assert not group.started, "failed start must not report started"
        with pytest.raises(WorkerStartupError):
            group.start()  # retry reaches the workers again, not a 'closed' error
        group.close()

    def test_router_instance_shared_across_cluster_models_refused(self, tiny_session):
        router = LeastLoadedRouter()
        server = InferenceServer()
        server.add_model("one", tiny_session, replicas=2, router=router)
        with pytest.raises(TypeError, match="already serving"):
            server.add_model("two", tiny_session, replicas=2, router=router)

    def test_replacing_a_cluster_model_releases_its_router_instance(self, tiny_session):
        router = LeastLoadedRouter()
        server = InferenceServer()
        server.add_model("one", tiny_session, replicas=2, router=router)
        server.add_model("one", tiny_session, replace=True)  # now in-process
        server.add_model("two", tiny_session, replicas=2, router=router)
        with pytest.raises(TypeError, match="already serving 'two'"):
            server.add_model("three", tiny_session, replicas=2, router=router)

    def test_failed_add_does_not_lock_router_instance(self, tiny_session):
        """A router instance from an add that failed must stay usable."""
        router = LeastLoadedRouter()
        server = InferenceServer()
        with pytest.raises(TypeError, match="cannot compile"):
            server.add_model("bad", object(), replicas=2, router=router)
        server.add_model("duplicate", tiny_session)
        with pytest.raises(ValueError, match="already registered"):
            server.add_model("duplicate", tiny_session, replicas=2, router=router)
        server.add_model("good", tiny_session, replicas=2, router=router)  # no stale owner

    def test_failed_server_start_closes_sibling_groups(self, tiny_session):
        """When one group's startup fails, siblings' already-spawned
        workers must be reclaimed even though __aexit__ never runs."""
        from repro.cluster import WorkerStartupError

        good = ReplicaGroup(tiny_session.to_spec(), replicas=1, name="good")
        bad = ReplicaGroup(SessionSpec.from_model("not a model"), replicas=1, name="bad")
        server = InferenceServer()
        server.add_model("good", good)
        server.add_model("bad", bad)

        async def scenario():
            async with server:  # __aenter__ raises; __aexit__ never runs
                raise AssertionError("start must fail")

        with pytest.raises(WorkerStartupError):
            asyncio.run(scenario())
        # close() joins each worker; a pid still attached would mean a leak.
        assert all(not replica.alive and replica.pid is None for replica in good._replicas), (
            "sibling workers leaked"
        )
        with pytest.raises(ServerClosedError):
            asyncio.run(server.start())  # startup failure is terminal for the server

    def test_replace_swaps_cluster_model_for_in_process_session(self, tiny_session, rng):
        """replace=True from a cluster model to an in-process session must
        drop (and close) the displaced group, not keep serving through it."""
        server = InferenceServer()
        server.add_model("m", tiny_session, replicas=2)
        displaced = server._groups["m"]
        server.add_model("m", tiny_session, replace=True)  # back to in-process
        assert "m" not in server._groups, "stale group would shadow the new session"
        assert not displaced.started

        image = rng.uniform(size=(16, 16))

        async def scenario():
            async with server:
                result = await server.submit("m", image)
                return result, server.stats()["m"].replicas

        result, replicas = asyncio.run(scenario())
        np.testing.assert_allclose(result, tiny_session.run(image[None])[0], atol=1e-10)
        assert replicas is None, "in-process model must not report replica breakdowns"

    def test_close_terminates_workers_and_refuses_traffic(self, tiny_session):
        doomed = ReplicaGroup(tiny_session.to_spec(), replicas=1, name="closing")
        doomed.start()
        pid = doomed._replicas[0].pid
        asyncio.run(doomed.infer(np.zeros((1, 16, 16))))  # starts a dispatch thread
        doomed.close()
        _wait_until(lambda: not _pid_alive(pid), what="worker process exit")
        assert not _dispatch_threads("closing"), "close() must join the group's dispatch threads"
        with pytest.raises(ReplicaCrashError, match="closed"):
            doomed.infer_sync(np.zeros((1, 16, 16)))
        with pytest.raises(ReplicaCrashError, match="closed"):
            asyncio.run(doomed.infer(np.zeros((1, 16, 16))))
        doomed.close()  # idempotent

    def test_local_workers_get_an_even_thread_budget(self, tiny_session, monkeypatch):
        """Two local workers on this host each run max(1, usable_cores // 2)
        BLAS threads, and the parent's environment comes back exactly --
        a set variable keeps its value, unset ones stay unset."""
        names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        monkeypatch.setenv("MKL_NUM_THREADS", "7")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = {name: os.environ.get(name) for name in names}
        group = ReplicaGroup(tiny_session.to_spec(), replicas=2, name="budget")
        try:
            group.start()
            after = {name: os.environ.get(name) for name in names}
            rows = group.stats()
        finally:
            group.close()
        assert after == before
        assert [row["threads"] for row in rows] == [max(1, usable_cores() // 2)] * 2

    def test_thread_budget_counts_local_workers_and_joiners_only(self, tiny_session, monkeypatch):
        """No processes: the budget arithmetic on a 12-core host with three
        local workers, one remote worker and one local worker joining."""
        monkeypatch.setattr("repro.cluster.group.usable_cores", lambda: 12)
        group = ReplicaGroup(tiny_session.to_spec(), replicas=3, workers=["127.0.0.1:9"], name="split")
        joining = group._new_local_replica(7)
        try:
            group._assign_thread_budget(group._replicas)
            local = [r.transport for r in group._replicas if isinstance(r.transport, LocalTransport)]
            assert [transport.threads for transport in local] == [4, 4, 4], "the remote worker must not count"
            assert not hasattr(group._replicas[-1].transport, "threads")
            group._assign_thread_budget([joining])
            assert joining.transport.threads == 3
        finally:
            joining.close()
            group.close()


def _dispatch_threads(group_name: str) -> list:
    return [t for t in threading.enumerate() if t.name.startswith(f"repro-dispatch-{group_name}_")]


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - other-user zombie
        return True
    return True


# --------------------------------------------------------------------- #
# Serving integration (InferenceServer(replicas=N))
# --------------------------------------------------------------------- #
class CountingGroup(ReplicaGroup):
    """Counts concurrent ``infer_sync`` calls; the peak is the dispatch depth."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.counter_lock = threading.Lock()
        self.in_flight = self.peak_in_flight = 0

    def infer_sync(self, batch, obs=None):
        with self.counter_lock:
            self.in_flight += 1
            self.peak_in_flight = max(self.peak_in_flight, self.in_flight)
        try:
            return super().infer_sync(batch, obs=obs)
        finally:
            with self.counter_lock:
                self.in_flight -= 1


class TestServerIntegration:
    @pytest.fixture(scope="class")
    def served(self, tiny_session):
        """One started cluster server shared by the class (spawn is slow)."""
        server = InferenceServer(replicas=2, router="least_loaded", max_wait_ms=1.0)
        server.add_model("digits", tiny_session)
        loop = asyncio.new_event_loop()
        loop.run_until_complete(server.start())
        yield loop, server
        loop.run_until_complete(server.close())
        loop.close()

    def test_submits_are_served_by_worker_processes_with_parity(self, served, tiny_session, rng):
        loop, server = served
        images = rng.uniform(size=(5, 16, 16))
        results = loop.run_until_complete(server.submit_many("digits", list(images)))
        np.testing.assert_allclose(results, tiny_session.run(images), atol=1e-10)
        replicas = server.stats()["digits"].replicas
        assert replicas is not None and len(replicas) == 2
        assert sum(r["dispatched"] for r in replicas) >= 1

    def test_stats_dict_carries_per_replica_breakdown(self, served):
        _, server = served
        snapshot = server.stats()["digits"].as_dict()
        assert "replicas" in snapshot
        for row in snapshot["replicas"]:
            assert {"replica", "alive", "in_flight", "dispatched", "restarts", "ewma_latency_ms"} <= set(row)

    def test_dispatched_batches_pipeline_across_replicas(self, tiny_session, rng):
        """With N replicas, N batches must compute concurrently -- the
        whole point of sharding.  Two sleepy replicas serving four
        one-request batches must have two calls in flight at once."""
        group = CountingGroup(
            tiny_session.to_spec(), replicas=2, handicaps={0: 0.2, 1: 0.2}, name="pipeline"
        )

        async def scenario():
            server = InferenceServer(max_batch=1, max_wait_ms=0.0)
            server.add_model("m", group)
            async with server:
                images = rng.uniform(size=(4, 16, 16))
                await asyncio.gather(*(server.submit("m", image) for image in images))

        asyncio.run(scenario())
        assert group.peak_in_flight == 2, f"peak {group.peak_in_flight} calls in flight -- dispatch serialized"

    def test_every_replica_has_a_batch_in_flight_past_the_default_executor(self, tiny_session, rng):
        """Eight sleepy replicas serving eight one-request batches must
        have eight calls in flight, however few threads the event loop's
        default executor holds (the stock one has min(32, cpu_count + 4)):
        the group dispatches on threads of its own.  No processes: the
        replicas are in-thread repro-workers."""
        workers = [WorkerServer(port=0) for _ in range(8)]
        for worker in workers:
            worker.serve_in_thread()
        group = CountingGroup(
            tiny_session.to_spec(),
            replicas=0,
            workers=[worker.address for worker in workers],
            handicaps={index: 0.3 for index in range(8)},
            name="wide",
        )

        async def scenario():
            asyncio.get_running_loop().set_default_executor(ThreadPoolExecutor(2))
            server = InferenceServer(max_batch=1, max_wait_ms=0.0)
            server.add_model("m", group)
            async with server:
                images = rng.uniform(size=(8, 16, 16))
                results = await asyncio.gather(*(server.submit("m", image) for image in images))
            return images, results

        try:
            images, results = asyncio.run(scenario())
        finally:
            for worker in workers:
                worker.close()
        np.testing.assert_allclose(np.stack(results), tiny_session.run(images), atol=1e-10)
        assert group.peak_in_flight == 8, f"peak {group.peak_in_flight} calls in flight -- dispatch threads ran out"
        assert not _dispatch_threads("wide"), "close() must join the group's dispatch threads"

    def test_group_workers_die_with_server_close(self, tiny_session, rng):
        """The graceful-shutdown satellite: close() drains in-flight
        requests and terminates every worker before returning."""

        async def scenario():
            server = InferenceServer(replicas=2, max_wait_ms=1.0)
            server.add_model("digits", tiny_session)
            await server.start()
            pids = [row["pid"] for row in server.stats()["digits"].replicas]
            images = rng.uniform(size=(12, 16, 16))
            pending = [asyncio.ensure_future(server.submit("digits", image)) for image in images]
            await asyncio.sleep(0)  # enqueue them all before the shutdown begins
            await server.close()
            results = await asyncio.gather(*pending, return_exceptions=True)
            return pids, images, results

        pids, images, results = asyncio.run(scenario())
        errors = [r for r in results if isinstance(r, BaseException)]
        assert not errors, f"close() must drain, not drop: {errors[:2]}"
        reference = engine_compile(_tiny_model(), backend="numpy").run(images)
        np.testing.assert_allclose(np.stack(results), reference, atol=1e-10)
        for pid in pids:
            _wait_until(lambda: not _pid_alive(pid), timeout_s=10.0, what=f"worker {pid} exit")


# --------------------------------------------------------------------- #
# Shed-retry hook (no processes: fakes exercise the batcher seam)
# --------------------------------------------------------------------- #
class TestShedRetryHook:
    def test_shed_request_is_rescued_once(self):
        """An expired request goes to the hook instead of failing."""

        class NeverAdmit(SLOAwarePolicy):
            def admit(self, request, now):
                return False

        rescued = []

        async def hook(payload):
            rescued.append(payload)
            return np.asarray(payload) * 3.0

        class Echo:
            def run(self, batch, batch_size=None):  # pragma: no cover - never admitted
                return np.asarray(batch)

        async def scenario():
            batcher = DynamicBatcher(
                Echo(), policy=NeverAdmit(slo_ms=5.0), shed_retry=hook, run_in_executor=False
            )
            batcher.start()
            result = await batcher.submit(np.ones((2, 2)))
            await batcher.stop()
            return result, batcher.stats()

        result, stats = asyncio.run(scenario())
        np.testing.assert_array_equal(result, np.full((2, 2), 3.0))
        assert len(rescued) == 1
        assert stats.shed_retried == 1 and stats.shed_recovered == 1
        assert stats.deadline_missed == 0

    def test_explicit_caller_budget_is_never_rescued(self):
        """submit(slo_ms=...) promises DeadlineExceededError on expiry;
        a late rescued result must not masquerade as success."""
        from repro.serve import DeadlineExceededError

        class NeverAdmit(SLOAwarePolicy):
            def admit(self, request, now):
                return False

        rescued = []

        async def hook(payload):  # pragma: no cover - must never run
            rescued.append(payload)
            return np.asarray(payload)

        class Echo:
            def run(self, batch, batch_size=None):  # pragma: no cover - never admitted
                return np.asarray(batch)

        async def scenario():
            batcher = DynamicBatcher(
                Echo(), policy=NeverAdmit(slo_ms=5.0), shed_retry=hook, run_in_executor=False
            )
            batcher.start()
            with pytest.raises(DeadlineExceededError):
                await batcher.submit(np.ones((2, 2)), slo_ms=5.0)
            await batcher.stop()
            return batcher.stats()

        stats = asyncio.run(scenario())
        assert not rescued, "explicit budgets must fail hard, not be rescued"
        assert stats.shed_retried == 0 and stats.deadline_missed == 1

    def test_failed_rescue_surfaces_deadline_error(self):
        from repro.serve import DeadlineExceededError

        class NeverAdmit(SLOAwarePolicy):
            def admit(self, request, now):
                return False

        async def hook(payload):
            raise NoReplicaAvailableError("everyone is busy")

        class Echo:
            def run(self, batch, batch_size=None):  # pragma: no cover - never admitted
                return np.asarray(batch)

        async def scenario():
            batcher = DynamicBatcher(
                Echo(), policy=NeverAdmit(slo_ms=5.0), shed_retry=hook, run_in_executor=False
            )
            batcher.start()
            with pytest.raises(DeadlineExceededError, match="rescue"):
                await batcher.submit(np.ones((2, 2)))
            await batcher.stop()
            return batcher.stats()

        stats = asyncio.run(scenario())
        assert stats.shed_retried == 1 and stats.shed_recovered == 0
        assert stats.deadline_missed == 1
