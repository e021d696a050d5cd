"""Tests for the persistent model store (``repro.store``).

Four tiers, cheapest first: pure-store properties (publish/resolve/load
round-trips, content-addressed dedup, corruption detection -- Hypothesis
searches families x optimize levels x dtypes), registry/server
integration (the LRU-eviction-of-a-store-backed-model regression, string
refs), process-crossing tests (replica groups cold-starting every family
from a store with no live model in the parent, crash-restart rebuilding
from disk), and the zero-downtime swap path (in-process, under in-flight
traffic, and over HTTP through the gateway).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import pickle
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro import DONN, DONNConfig, MultiChannelDONN, SegmentationDONN
from repro.cluster import ReplicaGroup, WorkerServer
from repro.engine import COMPLEX64_LOGIT_ATOL, SessionSpec, compile as engine_compile
from repro.gateway import Gateway, GatewayClient
from repro.serve import InferenceServer, SessionRegistry, UnknownModelError
from repro.store import (
    LocalDirBackend,
    ModelNotFoundError,
    ModelStore,
    StoreIntegrityError,
    StoreRef,
    VersionNotFoundError,
)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tools"))
from dump_store import dump_store  # noqa: E402  (tools/ is not a package)

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")

PARITY_ATOL = 1e-10
_FAMILIES = ("donn", "multichannel", "segmentation")
_OPTIMIZE_LEVELS = ("none", "fuse", "full")
_DTYPES = ("complex128", "complex64")

_cache: dict = {}


def _config(seed: int = 11, num_layers: int = 2) -> DONNConfig:
    return DONNConfig(
        sys_size=12,
        pixel_size=36e-6,
        distance=0.05,
        wavelength=532e-9,
        num_layers=num_layers,
        num_classes=4,
        det_size=3,
        seed=seed,
    )


def _model(family: str, seed: int = 11):
    key = (family, seed)
    if key not in _cache:
        if family == "donn":
            _cache[key] = DONN(_config(seed))
        elif family == "multichannel":
            _cache[key] = MultiChannelDONN(_config(seed))
        else:
            _cache[key] = SegmentationDONN(_config(seed, num_layers=3))
    return _cache[key]


def _batch(family: str, rng: np.random.Generator, n: int = 4) -> np.ndarray:
    if family == "multichannel":
        return rng.uniform(size=(n, 3, 12, 12))
    return rng.uniform(size=(n, 12, 12))


def _blob_keys(store: ModelStore):
    return [key for key in store.backend.list("blobs")]


# --------------------------------------------------------------------- #
# Store core: publish / resolve / load
# --------------------------------------------------------------------- #
class TestPublishLoadRoundTrip:
    @given(
        family=st.sampled_from(_FAMILIES),
        optimize=st.sampled_from(_OPTIMIZE_LEVELS),
        dtype=st.sampled_from(_DTYPES),
    )
    def test_round_trip_is_bit_exact_against_direct_compile(self, tmp_path_factory, family, optimize, dtype):
        """publish -> load -> build answers exactly like compile() did."""
        store = ModelStore(tmp_path_factory.mktemp("store"))
        model = _model(family)
        direct = engine_compile(model, optimize=optimize, dtype=dtype)
        manifest = store.publish("m", direct)
        assert manifest.version == 1
        assert manifest.optimize == optimize
        assert manifest.dtype == dtype
        assert manifest.model_type == type(model).__name__
        loaded = store.load("m")
        assert isinstance(loaded, SessionSpec)
        rng = np.random.default_rng(7)
        batch = _batch(family, rng)
        atol = PARITY_ATOL if dtype == "complex128" else COMPLEX64_LOGIT_ATOL
        np.testing.assert_allclose(loaded.build().run(batch), direct.run(batch), atol=atol)

    @given(family=st.sampled_from(_FAMILIES), optimize=st.sampled_from(_OPTIMIZE_LEVELS))
    def test_republish_is_idempotent_and_writes_no_second_blob(self, tmp_path_factory, family, optimize):
        """Content addressing: identical content never balloons the store."""
        store = ModelStore(tmp_path_factory.mktemp("store"))
        spec = engine_compile(_model(family), optimize=optimize).to_spec()
        first = store.publish("m", spec)
        blobs_after_first = _blob_keys(store)
        again = store.publish("m", spec)
        assert again == first  # same manifest, same version, same timestamp
        assert _blob_keys(store) == blobs_after_first  # no second blob
        assert [m.version for m in store.versions("m")] == [1]

    def test_canonical_bytes_hash_is_stable_across_spec_objects(self):
        session = engine_compile(_model("donn"), optimize="fuse")
        one, two = session.to_spec(), session.to_spec()
        assert one.content_hash() == two.content_hash()
        rebuilt = SessionSpec.from_canonical_bytes(one.canonical_bytes())
        assert rebuilt.content_hash() == one.content_hash()
        assert rebuilt.optimize == one.optimize
        assert rebuilt.dtype == one.dtype

    def test_distinct_content_gets_distinct_versions_and_hashes(self, tmp_path):
        store = ModelStore(tmp_path)
        v1 = store.publish("m", _model("donn", seed=1), optimize="full")
        v2 = store.publish("m", _model("donn", seed=2), optimize="full")
        assert (v1.version, v2.version) == (1, 2)
        assert v1.content_hash != v2.content_hash
        assert len(_blob_keys(store)) == 2
        # Re-publishing *either* earlier content resolves to its version.
        assert store.publish("m", _model("donn", seed=1), optimize="full") == v1

    def test_publish_model_applies_session_kwargs(self, tmp_path):
        store = ModelStore(tmp_path)
        manifest = store.publish("m", _model("donn"), optimize="none", dtype="complex64")
        assert (manifest.optimize, manifest.dtype) == ("none", "complex64")
        spec = store.load("m")
        assert (spec.optimize, spec.dtype) == ("none", "complex64")

    def test_bad_names_and_inputs_refused(self, tmp_path):
        store = ModelStore(tmp_path)
        for bad in ("", "a@b", "a/b", ".hidden"):
            with pytest.raises(ValueError):
                store.publish(bad, _model("donn"))
        with pytest.raises(TypeError):
            store.publish("m", object())
        with pytest.raises(ValueError):
            # Options on an already-fixed spec are a silent-no-op hazard.
            store.publish("m", engine_compile(_model("donn")).to_spec(), dtype="complex64")


class TestResolution:
    @pytest.fixture()
    def store(self, tmp_path):
        store = ModelStore(tmp_path)
        store.publish("digits", _model("donn", seed=1), optimize="full")
        store.publish("digits", _model("donn", seed=2), optimize="full")
        store.publish("scenes", _model("segmentation", seed=1), optimize="fuse")
        return store

    def test_models_and_versions_listing(self, store):
        assert store.models() == ("digits", "scenes")
        assert [m.version_tag for m in store.versions("digits")] == ["v1", "v2"]

    def test_selector_forms_all_resolve(self, store):
        latest = store.resolve("digits")
        assert latest.version == 2
        assert store.resolve("digits", "latest") == latest
        assert store.resolve("digits", "v1").version == 1
        assert store.resolve("digits", 1).version == 1
        assert store.resolve("digits", "1").version == 1
        assert store.resolve("digits@v1").version == 1  # combined form
        assert store.resolve("digits@latest") == latest
        by_hash = store.resolve("digits", latest.content_hash[:12])
        assert by_hash == latest

    def test_unknown_model_and_version_are_typed_errors(self, store):
        with pytest.raises(ModelNotFoundError):
            store.versions("nope")
        with pytest.raises(ModelNotFoundError):
            store.resolve("nope")
        with pytest.raises(VersionNotFoundError):
            store.resolve("digits", "v9")
        with pytest.raises(VersionNotFoundError):
            store.resolve("digits", "deadbeefdeadbeef")
        with pytest.raises(VersionNotFoundError):
            store.resolve("digits", "not a selector")
        # Both are KeyError subclasses, so dict-style callers also work.
        with pytest.raises(KeyError):
            store.resolve("digits", "v9")

    def test_delete_version_keeps_shared_blob_until_unreferenced(self, tmp_path):
        store = ModelStore(tmp_path)
        spec = engine_compile(_model("donn")).to_spec()
        store.publish("a", spec)
        store.publish("b", spec)  # same content under a second name
        assert len(_blob_keys(store)) == 1
        store.delete_version("a", "v1")
        assert _blob_keys(store), "blob still referenced by b@v1"
        store.delete_version("b", "v1")
        assert _blob_keys(store) == []

    def test_dump_store_tool_lists_and_verifies(self, store):
        listing = dump_store(store, verify=True)
        assert "digits (2 version(s), latest v2)" in listing
        assert "scenes" in listing
        assert listing.count("[ok]") == 3
        only = dump_store(store, model="digits")
        assert "scenes" not in only


class TestIntegrity:
    def _first_blob_path(self, root: Path) -> Path:
        blobs = sorted((root / "blobs").iterdir())
        assert blobs
        return blobs[0]

    def test_corrupted_blob_is_refused_before_deserialization(self, tmp_path):
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("m", _model("donn"))
        path = self._first_blob_path(tmp_path)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF  # one flipped bit-pattern mid-blob
        path.write_bytes(bytes(data))
        with pytest.raises(StoreIntegrityError, match="refusing to deserialize"):
            store.load("m")

    def test_truncated_blob_is_refused(self, tmp_path):
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("m", _model("donn"))
        path = self._first_blob_path(tmp_path)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(StoreIntegrityError):
            store.load("m")

    def test_missing_blob_is_a_typed_error(self, tmp_path):
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("m", _model("donn"))
        self._first_blob_path(tmp_path).unlink()
        with pytest.raises(StoreIntegrityError, match="missing"):
            store.load("m")

    def test_corrupted_manifest_is_a_typed_error(self, tmp_path):
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("m", _model("donn"))
        manifest_path = tmp_path / "manifests" / "m" / "v1.json"
        manifest_path.write_bytes(b"{not json")
        with pytest.raises(StoreIntegrityError, match="unreadable"):
            store.versions("m")

    def test_manifest_missing_fields_is_a_typed_error(self, tmp_path):
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("m", _model("donn"))
        manifest_path = tmp_path / "manifests" / "m" / "v1.json"
        data = json.loads(manifest_path.read_text())
        del data["content_hash"]
        manifest_path.write_text(json.dumps(data))
        with pytest.raises(StoreIntegrityError, match="malformed"):
            store.versions("m")

    def test_manifest_name_version_mismatch_is_a_typed_error(self, tmp_path):
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("m", _model("donn"))
        v1 = tmp_path / "manifests" / "m" / "v1.json"
        (tmp_path / "manifests" / "m" / "v2.json").write_bytes(v1.read_bytes())
        with pytest.raises(StoreIntegrityError, match="does not describe"):
            store.versions("m")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda header: {key: value for key, value in header.items() if key != "dtype"},
            lambda header: [header],
            lambda header: {**header, "batch_size": 2.5},
        ],
        ids=["missing_key", "list_header", "non_integer_batch_size"],
    )
    def test_bad_header_behind_a_matching_hash_is_a_typed_error(self, tmp_path, corrupt):
        """A blob whose bytes hash to its manifest's digest but whose header
        is malformed must fail as StoreIntegrityError, not escape untyped."""
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("m", _model("donn"))
        magic, header, blob = self._first_blob_path(tmp_path).read_bytes().split(b"\x00", 2)
        bad_header = json.dumps(corrupt(json.loads(header))).encode()
        payload = b"\x00".join((magic, bad_header, blob))
        digest = hashlib.sha256(payload).hexdigest()
        (tmp_path / "blobs" / f"sha256-{digest}").write_bytes(payload)
        manifest_path = tmp_path / "manifests" / "m" / "v1.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["content_hash"] = digest
        manifest_path.write_text(json.dumps(manifest))
        with pytest.raises(StoreIntegrityError, match="does not decode"):
            store.load("m")

    def test_read_cache_never_serves_corrupted_bytes(self, tmp_path):
        """The cache is keyed by content hash, so a *cached* load is the
        verified bytes; corruption lands on the next cold read."""
        store = ModelStore(tmp_path, cache_entries=2)
        store.publish("m", _model("donn"))
        good = store.load("m")
        path = self._first_blob_path(tmp_path)
        path.write_bytes(b"garbage")
        assert store.load("m") is good  # cache hit: still the verified spec
        cold = ModelStore(tmp_path, cache_entries=2)
        with pytest.raises(StoreIntegrityError):
            cold.load("m")

    def test_dump_store_verify_reports_corruption(self, tmp_path):
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("m", _model("donn"))
        self._first_blob_path(tmp_path).write_bytes(b"garbage")
        assert "[CORRUPT" in dump_store(store, verify=True)

    def test_canonical_bytes_format_guards(self):
        with pytest.raises(ValueError):
            SessionSpec.from_canonical_bytes(b"not-a-spec")
        spec = engine_compile(_model("donn")).to_spec()
        payload = spec.canonical_bytes()
        with pytest.raises(ValueError):
            SessionSpec.from_canonical_bytes(payload.replace(b"repro-spec", b"other-spec", 1))


class TestStoreRef:
    def test_ref_pins_resolution_and_pickles_small(self, tmp_path):
        store = ModelStore(tmp_path)
        store.publish("m", _model("donn", seed=1))
        store.publish("m", _model("donn", seed=2))
        ref = store.ref("m")  # latest is resolved *now*
        assert (ref.name, ref.version) == ("m", 2)
        wire = pickle.dumps(ref)
        assert len(wire) < 4096, "a ref must be cheap enough to cross any pipe"
        again = pickle.loads(wire)
        assert again == ref
        assert again.load_spec().content_hash() == ref.content_hash

    def test_ref_build_matches_direct_compile(self, tmp_path, rng):
        store = ModelStore(tmp_path)
        direct = engine_compile(_model("donn"), optimize="full")
        store.publish("m", direct)
        session = store.ref("m").build()
        batch = _batch("donn", rng)
        np.testing.assert_allclose(session.run(batch), direct.run(batch), atol=PARITY_ATOL)

    def test_stale_ref_detects_republished_version(self, tmp_path):
        store = ModelStore(tmp_path)
        manifest = store.publish("m", _model("donn", seed=1))
        ref = store.ref("m", "v1")
        # Rewrite v1's manifest to point at different content: the pinned
        # hash no longer matches what the store serves under that tag.
        store.delete_version("m", "v1")
        forged = manifest.as_dict()
        forged["content_hash"] = "0" * 64
        (tmp_path / "manifests" / "m" / "v1.json").write_text(json.dumps(forged))
        with pytest.raises(StoreIntegrityError, match="republished"):
            ref.load_spec()

    def test_with_location_rehomes_but_keeps_the_pin(self, tmp_path):
        store_a = ModelStore(tmp_path / "a")
        store_a.publish("m", _model("donn"))
        ref = store_a.ref("m")
        moved = ref.with_location(tmp_path / "b")
        assert moved.content_hash == ref.content_hash
        with pytest.raises((StoreIntegrityError, ModelNotFoundError)):
            moved.load_spec()  # nothing at the new coordinates yet
        # Replicate the store directory and the same ref loads fine.
        import shutil

        shutil.copytree(tmp_path / "a", tmp_path / "b", dirs_exist_ok=True)
        assert moved.load_spec().content_hash() == ref.content_hash

    def test_unknown_scheme_is_refused(self):
        ref = StoreRef(scheme="s3", location="bucket/prefix", name="m", version=1, content_hash="0" * 64)
        with pytest.raises(StoreIntegrityError, match="scheme"):
            ref.open_store()


class TestBackendContract:
    def test_put_get_exists_list_delete(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        backend.put("a/b/c", b"payload")
        assert backend.get("a/b/c") == b"payload"
        assert backend.exists("a/b/c")
        backend.put("a/b/c", b"newer")  # last writer wins, atomically
        assert backend.get("a/b/c") == b"newer"
        assert backend.list("a") == ["a/b/c"]
        backend.delete("a/b/c")
        backend.delete("a/b/c")  # idempotent
        assert not backend.exists("a/b/c")
        with pytest.raises(KeyError):
            backend.get("a/b/c")

    def test_traversal_is_refused(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        with pytest.raises(ValueError):
            backend.put("../outside", b"x")

    def test_no_temp_litter_after_puts(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        for i in range(5):
            backend.put(f"k{i}", b"x" * 100)
        staging = tmp_path / ".tmp"
        assert not any(staging.iterdir()), "atomic puts must not strand temp files"


# --------------------------------------------------------------------- #
# Registry + server integration (the LRU regression)
# --------------------------------------------------------------------- #
class TestStoreBackedRegistry:
    def test_lru_eviction_of_store_backed_model_is_reversible(self, tmp_path, rng):
        """Regression: evicting a store-backed model drops only the
        in-memory session -- the on-disk version survives and get()
        quietly rebuilds from the pinned ref."""
        store = ModelStore(tmp_path)
        store.publish("a", _model("donn", seed=1))
        store.publish("b", _model("donn", seed=2))
        registry = SessionRegistry(max_models=1, store=store)
        session_a = registry.register("a", "a@latest")
        registry.register("b", "b@latest")
        assert registry.last_evicted == ("a",)
        assert "a" not in registry  # in-memory session is gone...
        assert [m.version for m in store.versions("a")] == [1]  # ...the version is not
        rebuilt = registry.get("a")  # quiet rebuild from the kept ref
        assert rebuilt is not session_a  # a fresh session, same bytes
        batch = _batch("donn", rng)
        np.testing.assert_allclose(rebuilt.run(batch), session_a.run(batch), atol=PARITY_ATOL)
        assert registry.last_evicted == ("b",)  # the rebuild evicted in turn
        assert registry.store_ref("a").name == "a"

    def test_evicted_plain_session_stays_gone(self, tmp_path):
        registry = SessionRegistry(max_models=1)
        registry.register("a", engine_compile(_model("donn", seed=1)))
        registry.register("b", engine_compile(_model("donn", seed=2)))
        with pytest.raises(UnknownModelError):
            registry.get("a")

    def test_unregister_reaches_evicted_store_backed_names(self, tmp_path):
        store = ModelStore(tmp_path)
        store.publish("a", _model("donn", seed=1))
        store.publish("b", _model("donn", seed=2))
        registry = SessionRegistry(max_models=1, store=store)
        registry.register("a", "a@latest")
        registry.register("b", "b@latest")
        registry.unregister("a")  # evicted, but still unregisterable
        with pytest.raises(UnknownModelError):
            registry.get("a")
        with pytest.raises(UnknownModelError):
            registry.unregister("a")

    def test_string_refs_need_a_store(self):
        with pytest.raises(TypeError, match="store"):
            SessionRegistry().register("m", "m@latest")

    def test_ref_with_session_options_is_refused(self, tmp_path):
        store = ModelStore(tmp_path)
        store.publish("m", _model("donn"))
        with pytest.raises(ValueError, match="fixed when the spec was published"):
            SessionRegistry(store=store).register("m", store.ref("m"), dtype="complex64")

    def test_server_add_model_by_string_needs_a_store(self):
        server = InferenceServer()
        with pytest.raises(TypeError, match="store"):
            server.add_model("m", "m@latest")

    def test_server_swap_refusals_are_typed(self, tmp_path):
        async def scenario():
            store = ModelStore(tmp_path)
            store.publish("m", _model("donn"))
            server = InferenceServer(store=store)
            server.add_model("m", "m@latest")  # in-process: nothing to roll
            with pytest.raises(UnknownModelError):
                await server.swap_model("ghost")
            with pytest.raises(ValueError, match="replica group"):
                await server.swap_model("m")
            storeless = InferenceServer()
            storeless.add_model("m", engine_compile(_model("donn")))
            with pytest.raises(ValueError, match="store"):
                await storeless.swap_model("m")
            await server.close()
            await storeless.close()

        asyncio.run(scenario())

    def test_started_server_does_not_serve_a_name_evicted_before_start(self, tmp_path, rng):
        """A started server serves exactly the names it holds: a request for
        a store-backed name the LRU registry evicted before start() is
        unknown, and it neither rebuilds that name nor evicts a live one."""
        store = ModelStore(tmp_path)
        store.publish("a", _model("donn", seed=1))
        store.publish("b", _model("donn", seed=2))
        registry = SessionRegistry(max_models=1, store=store)
        server = InferenceServer(registry=registry)
        server.add_model("a", "a@latest")
        server.add_model("b", "b@latest")  # evicts "a"
        image = _batch("donn", rng, n=1)[0]

        async def scenario():
            async with server:
                with pytest.raises(UnknownModelError):
                    await server.submit("a", image)
                assert registry.names() == ("b",), "a request rebuilt or evicted a model"
                assert sorted(server.describe()) == ["b"]
                answer = await server.submit("b", image)
                with pytest.raises(UnknownModelError):
                    await server.swap_model("a")
                with pytest.raises(UnknownModelError):
                    await server.submit_many("a", [])
                assert registry.names() == ("b",)
                async with Gateway(server, port=0) as gateway:
                    async with GatewayClient(port=gateway.port) as client:
                        status, _, body = await client._request(
                            "POST", "/v1/models/a/infer", {"input": image.tolist()}
                        )
                        with pytest.raises(UnknownModelError):
                            await client.infer("a", image)
                assert registry.names() == ("b",)
            return answer, status, body

        answer, status, body = asyncio.run(scenario())
        expected = engine_compile(_model("donn", seed=2)).run(image[None])[0]
        np.testing.assert_allclose(answer, expected, atol=PARITY_ATOL)
        assert status == 404 and body["error"]["type"] == "unknown_model"


# --------------------------------------------------------------------- #
# Process-crossing: replica groups cold-start from the store
# --------------------------------------------------------------------- #
def _wait_until(predicate, timeout_s: float = 30.0, what: str = "condition"):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError(f"timed out waiting for {what}")
        time.sleep(0.05)


class TestReplicaColdStart:
    @pytest.mark.parametrize("family", _FAMILIES)
    def test_every_family_cold_starts_from_the_store(self, tmp_path, family, rng):
        """A replica group built from a StoreRef alone -- no model object,
        no spec in the parent -- answers exactly like compile() does."""
        store = ModelStore(tmp_path)
        store.publish(family, _model(family), optimize="full", backend="numpy")
        ref = store.ref(family)
        batch = _batch(family, rng)
        reference = store.load(family).build().run(batch)
        with ReplicaGroup(ref, replicas=1, call_timeout_s=60.0, name=family) as group:
            np.testing.assert_allclose(group.infer_sync(batch), reference, atol=PARITY_ATOL)

    def test_crash_restart_rebuilds_from_the_store(self, tmp_path, rng):
        """SIGKILL a store-backed worker: the revived replica re-pulls the
        pinned version from disk and serves identical logits."""
        store = ModelStore(tmp_path)
        store.publish("digits", _model("donn"), optimize="full", backend="numpy")
        ref = store.ref("digits")
        batch = _batch("donn", rng)
        reference = store.load("digits").build().run(batch)
        with ReplicaGroup(ref, replicas=1, call_timeout_s=60.0, restart_backoff_s=0.05) as group:
            np.testing.assert_allclose(group.infer_sync(batch), reference, atol=PARITY_ATOL)
            victim = group._replicas[0]
            os.kill(victim.pid, signal.SIGKILL)
            _wait_until(lambda: not victim.alive, what="the killed worker to be seen dead")
            group.check_health(restart_dead=True)
            _wait_until(lambda: victim.alive, what="the store-backed restart")
            assert victim.restarts >= 1
            np.testing.assert_allclose(group.infer_sync(batch), reference, atol=PARITY_ATOL)

    def test_remote_worker_rehomes_refs_with_its_own_store_root(self, tmp_path, rng):
        """repro-worker --store DIR: a ref minted against the parent's path
        is re-rooted onto the worker's local replica of the store."""
        import shutil

        parent_root = tmp_path / "parent"
        worker_root = tmp_path / "worker"
        store = ModelStore(parent_root)
        store.publish("digits", _model("donn"), optimize="full", backend="numpy")
        shutil.copytree(parent_root, worker_root)
        # The parent's path is unreadable on the "remote host": prove the
        # worker really loads from its own root, not the ref's location.
        ref = store.ref("digits").with_location(tmp_path / "nowhere")
        batch = _batch("donn", rng)
        reference = store.load("digits").build().run(batch)
        with WorkerServer(port=0, store_root=str(worker_root)) as worker:
            worker.serve_in_thread()
            with ReplicaGroup(ref, replicas=0, workers=[worker.address], name="remote") as group:
                np.testing.assert_allclose(group.infer_sync(batch), reference, atol=PARITY_ATOL)
                assert group.stats()[0]["transport"].startswith("socket(")


# --------------------------------------------------------------------- #
# Zero-downtime swaps
# --------------------------------------------------------------------- #
class TestZeroDowntimeSwap:
    def _publish_two(self, root) -> ModelStore:
        store = ModelStore(root)
        store.publish("digits", _model("donn", seed=1), optimize="full", backend="numpy")
        store.publish("digits", _model("donn", seed=2), optimize="full", backend="numpy")
        return store

    def test_swap_before_start_retargets_the_idle_fleet(self, tmp_path, rng):
        async def scenario():
            store = self._publish_two(tmp_path)
            server = InferenceServer(store=store)
            server.add_model("digits", "digits@v1", replicas=2)
            summary = await server.swap_model("digits", "v2")
            assert summary["changed"] and summary["version"] == "v2"
            await server.start()
            batch = _batch("donn", rng)
            expected = store.load("digits", "v2").build().run(batch)
            got = await server.submit_many("digits", batch)
            np.testing.assert_allclose(np.asarray(got), expected, atol=PARITY_ATOL)
            await server.close()

        asyncio.run(scenario())

    def test_swap_under_inflight_traffic_drops_nothing(self, tmp_path, rng):
        """The acceptance gate: continuous traffic across a rolling swap
        sees zero errors, and stats() flips the version monotonically."""

        async def scenario():
            store = self._publish_two(tmp_path)
            v1 = store.load("digits", "v1").build()
            v2 = store.load("digits", "v2").build()
            server = InferenceServer(store=store)
            server.add_model("digits", "digits@v1", replicas=2)
            await server.start()
            batch = rng.uniform(size=(12, 12))
            expected = {1: v1.run(batch[None, ...])[0], 2: v2.run(batch[None, ...])[0]}

            errors: list = []
            answers: list = []
            versions_seen: list = []
            stop = asyncio.Event()

            async def traffic():
                while not stop.is_set():
                    try:
                        result = await server.submit("digits", batch)
                        answers.append(np.asarray(result))
                        versions_seen.append(server.stats()["digits"].store["version"])
                    except Exception as exc:  # noqa: BLE001 - the assertion below
                        errors.append(exc)
                    await asyncio.sleep(0)

            drivers = [asyncio.ensure_future(traffic()) for _ in range(3)]
            _wait = 0
            while len(answers) < 20 and _wait < 200:
                await asyncio.sleep(0.05)
                _wait += 1
            summary = await server.swap_model("digits", "v2")
            assert summary["changed"]
            post_swap_floor = len(answers)
            while len(answers) < post_swap_floor + 20 and _wait < 400:
                await asyncio.sleep(0.05)
                _wait += 1
            stop.set()
            await asyncio.gather(*drivers)
            await server.close()
            return errors, answers, versions_seen, expected, post_swap_floor

        errors, answers, versions_seen, expected, post_swap_floor = asyncio.run(scenario())
        assert errors == [], f"swap dropped {len(errors)} request(s): {errors[:3]}"
        assert len(answers) >= 40
        # Every answer is exactly one of the two versions' logits -- never
        # a blend, never garbage.
        matched = []
        for result in answers:
            if np.allclose(result, expected[1], atol=PARITY_ATOL):
                matched.append(1)
            elif np.allclose(result, expected[2], atol=PARITY_ATOL):
                matched.append(2)
            else:  # pragma: no cover - the failure message is the point
                raise AssertionError("an answer matched neither v1 nor v2 logits")
        assert matched[0] == 1 and matched[-1] == 2
        # During the roll the two replicas legitimately interleave
        # versions; once the swap call returned (plus the <= 3 requests
        # already in flight), every answer is the new version.
        assert all(version == 2 for version in matched[post_swap_floor + 3 :])
        # The *reported* store version is a single monotonic flip.
        tags = [int(tag[1:]) for tag in versions_seen]
        assert tags == sorted(tags)
        assert tags[0] == 1 and tags[-1] == 2

    def test_swap_through_the_gateway(self, tmp_path, rng):
        """POST /v1/models/{name}/swap end to end, plus its error taxonomy."""

        async def scenario():
            store = self._publish_two(tmp_path)
            server = InferenceServer(store=store)
            server.add_model("digits", "digits@v1", replicas=2)
            await server.start()
            batch = rng.uniform(size=(12, 12))
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    before = await client.stats()
                    assert before["models"]["digits"]["store"]["version"] == "v1"
                    summary = await client.swap_model("digits", "v2")
                    assert summary["changed"] and summary["version"] == "v2"
                    again = await client.swap_model("digits")  # latest == v2: no-op
                    assert again["changed"] is False
                    after = await client.stats()
                    assert after["models"]["digits"]["store"]["version"] == "v2"
                    output = await client.infer("digits", batch)
                    with pytest.raises(VersionNotFoundError):
                        await client.swap_model("digits", "v9")
                    with pytest.raises(UnknownModelError):
                        await client.swap_model("ghost")
            await server.close()
            return np.asarray(output)

        output = asyncio.run(scenario())
        expected = ModelStore(tmp_path).load("digits", "v2").build().run(rng.uniform(size=(1, 12, 12)))
        assert output.shape == expected.shape[1:]
