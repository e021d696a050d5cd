"""Tests for the persistent model store (``repro.store``).

Four tiers, cheapest first: pure-store properties (publish/resolve/load
round-trips, content-addressed dedup, corruption detection -- Hypothesis
searches families x optimize levels x dtypes), server integration (typed
swap refusals), process-crossing tests (replica groups cold-starting every family
from a store with no live model in the parent, crash-restart rebuilding
from disk), and the zero-downtime swap path (in-process, under in-flight
traffic, and over HTTP through the gateway).
"""

from __future__ import annotations

import asyncio
import dataclasses
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
from repro.engine import COMPLEX64_LOGIT_ATOL, OPTIMIZE_LEVELS, SessionSpec, compile as engine_compile
from repro.gateway import Gateway, GatewayClient
from repro.serve import InferenceServer, UnknownModelError
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
        optimize=st.sampled_from(OPTIMIZE_LEVELS),
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

    @given(family=st.sampled_from(_FAMILIES), optimize=st.sampled_from(OPTIMIZE_LEVELS))
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

    def test_pending_gradients_do_not_change_the_published_blob(self, tmp_path, rng):
        """backward() without an optimizer step leaves the weights alone, so
        a second publish is the same content: one version, one blob."""
        store = ModelStore(tmp_path)
        model = DONN(_config(seed=5))
        first = store.publish("m", model)
        logits = model(rng.uniform(size=(2, 12, 12)))
        (logits * logits).sum().backward()
        assert any(parameter.grad is not None for parameter in model.parameters())
        again = store.publish("m", model)
        assert again.content_hash == first.content_hash
        assert [m.version for m in store.versions("m")] == [1]
        assert len(_blob_keys(store)) == 1

    def test_canonical_bytes_hash_is_stable_across_spec_objects(self):
        session = engine_compile(_model("donn"), optimize="none")
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

    @pytest.mark.parametrize(
        "option",
        [
            {"optimize": "bogus"},
            {"optimize": "fuse"},
            {"dtype": "float32"},
            {"dtype": "bogus"},
            {"batch_size": 0},
            {"backend": "fftw"},
            {"workers": 0},
        ],
        ids=lambda option: "-".join(f"{key}={value}" for key, value in option.items()),
    )
    def test_a_spec_that_cannot_build_is_never_stored(self, tmp_path, option):
        """publish checks the session options of a model, and of a spec
        built by hand, as compile() does, before anything is written."""
        store = ModelStore(tmp_path)
        with pytest.raises(ValueError):
            store.publish("m", _model("donn"), **option)
        with pytest.raises(ValueError):
            SessionSpec.of(_model("donn"), **option)
        with pytest.raises(ValueError):
            store.publish("m", dataclasses.replace(engine_compile(_model("donn")).to_spec(), **option))
        assert store.models() == ()
        assert _blob_keys(store) == []

    def test_a_dtype_given_as_a_numpy_type_is_recorded_by_name(self, tmp_path, rng):
        store = ModelStore(tmp_path)
        assert store.publish("m", _model("donn"), dtype=np.complex64).dtype == "complex64"
        batch = _batch("donn", rng)
        expected = engine_compile(_model("donn"), dtype="complex64").run(batch)
        np.testing.assert_array_equal(store.ref("m").build().run(batch), expected)

    def test_a_spec_recorded_at_a_removed_level_is_refused_at_build(self, tmp_path):
        """A version an older store recorded at the former "fuse" level
        still loads, and building it names the levels this build knows."""
        store = ModelStore(tmp_path)
        spec = engine_compile(_model("donn"), optimize="none").to_spec()
        store.publish("m", spec)
        # Rewrite v1 as the older store wrote it: the "fuse" spec's bytes
        # under their own hash, and a manifest that names them.
        payload = dataclasses.replace(spec, optimize="fuse").canonical_bytes()
        digest = hashlib.sha256(payload).hexdigest()
        (tmp_path / "blobs" / f"sha256-{digest}").write_bytes(payload)
        manifest_path = tmp_path / "manifests" / "m" / "v1.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(content_hash=digest, optimize="fuse", blob_bytes=len(payload))
        manifest_path.write_text(json.dumps(manifest))
        assert store.load("m").optimize == "fuse"
        with pytest.raises(ValueError, match="optimize must be one of"):
            store.ref("m").build()

    def test_a_store_on_a_relative_path_keeps_working(self, tmp_path, monkeypatch, rng):
        """The root resolves once, so listing and refs work after the
        first publish, and a ref opens the store from any directory."""
        monkeypatch.chdir(tmp_path)
        store = ModelStore("rel")
        first = store.publish("m", _model("donn", seed=1))
        second = store.publish("m", _model("donn", seed=2))
        assert [m.version for m in store.versions("m")] == [1, 2]
        assert store.resolve("m", 1) == first and store.resolve("m") == second
        ref = store.ref("m", 1)
        assert Path(ref.location) == (tmp_path / "rel").resolve()
        monkeypatch.chdir(tmp_path.parent)
        batch = _batch("donn", rng)
        np.testing.assert_array_equal(ref.build().run(batch), engine_compile(_model("donn", seed=1)).run(batch))


class TestResolution:
    @pytest.fixture()
    def store(self, tmp_path):
        store = ModelStore(tmp_path)
        store.publish("digits", _model("donn", seed=1), optimize="full")
        store.publish("digits", _model("donn", seed=2), optimize="full")
        store.publish("scenes", _model("segmentation", seed=1), optimize="none")
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
        for flag in (True, False):  # a bool is an int, but not a version number
            with pytest.raises(VersionNotFoundError, match="unrecognized"):
                store.resolve("digits", flag)
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

    def test_tampered_content_hash_cannot_reach_outside_the_store(self, tmp_path):
        """A manifest's content_hash becomes a blob key: one that is not a
        SHA-256 hex digest is refused before any file is read or deleted."""
        store = ModelStore(tmp_path / "store", cache_entries=0)
        store.publish("m", _model("donn"))
        victim = tmp_path / "store-other" / "victim"
        victim.parent.mkdir()
        victim.write_bytes(b"keep")
        manifest_path = tmp_path / "store" / "manifests" / "m" / "v1.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["content_hash"] = "x/../../../store-other/victim"
        manifest_path.write_text(json.dumps(manifest))
        for call in (store.resolve, store.load, lambda name: store.delete_version(name, "v1")):
            with pytest.raises(StoreIntegrityError, match="64 lowercase hex"):
                call("m")
        assert victim.read_bytes() == b"keep"

    def test_refused_delete_leaves_the_store_unchanged(self, tmp_path):
        """delete_version scans every model's manifests for other references
        to the blob; a manifest that cannot be read refuses the call before
        anything is deleted, so the version still resolves and loads."""
        store = ModelStore(tmp_path, cache_entries=0)
        store.publish("a", _model("donn", seed=1))
        store.publish("b", _model("donn", seed=2))
        (tmp_path / "manifests" / "b" / "v1.json").write_bytes(b"{not json")
        before = sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*") if path.is_file())
        with pytest.raises(StoreIntegrityError, match="unreadable"):
            store.delete_version("a", "v1")
        assert sorted(path.relative_to(tmp_path) for path in tmp_path.rglob("*") if path.is_file()) == before
        assert store.resolve("a", "v1").version == 1
        store.load("a", "v1").build()

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

    def test_sibling_prefix_key_is_refused(self, tmp_path):
        """``<root>-other`` shares the root's string prefix but lies outside it."""
        backend = LocalDirBackend(tmp_path / "store")
        victim = tmp_path / "store-other" / "victim"
        victim.parent.mkdir()
        victim.write_bytes(b"keep")
        for call in (backend.get, backend.exists, backend.delete, lambda key: backend.put(key, b"x")):
            with pytest.raises(ValueError, match="escapes the store root"):
                call("../store-other/victim")
        assert victim.read_bytes() == b"keep"

    def test_no_temp_litter_after_puts(self, tmp_path):
        backend = LocalDirBackend(tmp_path)
        for i in range(5):
            backend.put(f"k{i}", b"x" * 100)
        staging = tmp_path / ".tmp"
        assert not any(staging.iterdir()), "atomic puts must not strand temp files"


# --------------------------------------------------------------------- #
# Server integration: the server's one model table, store-backed
# --------------------------------------------------------------------- #
class TestStoreBackedRegistry:
    def test_string_refs_need_a_store(self):
        """A string names a store entry, so a storeless server refuses it
        before anything is registered, autoscaled or not."""
        server = InferenceServer()
        for reference in ("m@latest", "m@v1", "m"):
            for options in ({}, {"autoscale": {"slo_p99_ms": 50.0}}):
                with pytest.raises(TypeError, match="store"):
                    server.add_model("m", reference, **options)
        assert server._models == {}

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

    def test_swap_refuses_a_group_on_another_store(self, tmp_path):
        """A fleet on store A's ``digits@v1`` under a server on store B must
        not roll to B's unrelated ``digits@v2``."""

        async def scenario():
            store_a, store_b = ModelStore(tmp_path / "a"), ModelStore(tmp_path / "b")
            store_a.publish("digits", _model("donn", seed=1), backend="numpy")
            store_b.publish("digits", _model("donn", seed=2), backend="numpy")
            store_b.publish("digits", _model("donn", seed=3), backend="numpy")
            group = ReplicaGroup(store_a.ref("digits"), replicas=1, name="digits")
            server = InferenceServer(store=store_b)
            server.add_model("digits", group)
            try:
                with pytest.raises(ValueError) as refused:
                    await server.swap_model("digits", "v2")
            finally:
                await server.close()
            return group, refused.value

        group, error = asyncio.run(scenario())
        assert str(tmp_path / "a") in str(error) and str(tmp_path / "b") in str(error)
        assert group.spec.location == str(tmp_path / "a") and group.spec.version == 1


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
            server.add_model("digits", ReplicaGroup(store.ref("digits", "v1"), replicas=2, name="digits"))
            summary = await server.swap_model("digits", "v2")
            assert summary["changed"] and summary["version"] == "v2"
            await server.start()
            batch = _batch("donn", rng)
            expected = store.load("digits", "v2").build().run(batch)
            got = await server.submit_many("digits", batch)
            np.testing.assert_allclose(np.asarray(got), expected, atol=PARITY_ATOL)
            await server.close()

        asyncio.run(scenario())

    def test_group_on_a_store_ref_serves_under_another_name(self, tmp_path, rng):
        """A group the caller built on ``store.ref("digits")`` and served as
        "prod" reports that version and swaps within "digits", not "prod"."""

        async def scenario():
            store = ModelStore(tmp_path)
            store.publish("digits", _model("donn", seed=1), optimize="full", backend="numpy")
            group = ReplicaGroup(store.ref("digits"), replicas=1, name="prod")
            store.publish("digits", _model("donn", seed=2), optimize="full", backend="numpy")
            server = InferenceServer(store=store)
            server.add_model("prod", group)
            described = server.describe()["prod"]["store"]
            await server.start()
            before = server.stats()["prod"].store
            summary = await server.swap_model("prod", "v2")
            batch = _batch("donn", rng)
            got = await server.submit_many("prod", batch)
            after = server.stats()["prod"].store, server.describe()["prod"]["store"]
            await server.close()
            return store, described, before, summary, batch, got, after

        store, described, before, summary, batch, got, after = asyncio.run(scenario())
        v1, v2 = (store.ref("digits", version).describe() for version in ("v1", "v2"))
        assert described == before == v1
        assert summary["changed"] and summary["model"] == "prod" and summary["version"] == "v2"
        assert after == (v2, v2)
        expected = store.load("digits", "v2").build().run(batch)
        np.testing.assert_allclose(np.asarray(got), expected, atol=PARITY_ATOL)

    def test_swap_under_inflight_traffic_drops_nothing(self, tmp_path, rng):
        """The acceptance gate: continuous traffic across a rolling swap
        sees zero errors, and stats() flips the version monotonically."""

        async def scenario():
            store = self._publish_two(tmp_path)
            v1 = store.load("digits", "v1").build()
            v2 = store.load("digits", "v2").build()
            server = InferenceServer(store=store)
            server.add_model("digits", ReplicaGroup(store.ref("digits", "v1"), replicas=2, name="digits"))
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
            server.add_model("digits", ReplicaGroup(store.ref("digits", "v1"), replicas=2, name="digits"))
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
                    for flag in (True, False):  # JSON booleans are not version numbers
                        status, _, body = await client._request("POST", "/v1/models/digits/swap", {"version": flag})
                        assert status == 400 and body["error"]["type"] == "invalid_request"
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
