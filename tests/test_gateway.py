"""Tests for the HTTP gateway (``repro.gateway``) and the transport seam.

Three layers of coverage:

* pure codec/limits units (no sockets), including Hypothesis fuzzing of
  both infer decoders (JSON and tensor frame) and frame round trips,
* live-gateway round trips over loopback -- routes, error statuses,
  backpressure mapping, slo_ms plumb-through, ``Expect: 100-continue``
  -- against fake sessions; ``GatewayClient`` speaks tensor frames, so
  the JSON infer path is driven with raw requests,
* parity: HTTP responses (both encodings) vs in-process ``compile()``
  output at ``atol=1e-10``, and ``SocketTransport`` vs
  ``LocalTransport`` vs in-process on one spec.
"""

from __future__ import annotations

import asyncio
import json
import math
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.cluster import ReplicaGroup, WorkerServer
from repro.cluster.transport import (
    FrameBuffer,
    decode_frame,
    encode_frame,
    parse_address,
)
from repro.engine import compile as engine_compile
from repro.gateway import Gateway, GatewayClient, GatewayError, GatewayLimits
from repro.gateway.codec import (
    ApiError,
    decode_infer_payload,
    json_bytes,
    read_request,
    read_response,
    render_response,
)
from repro.models.config import DONNConfig
from repro.models.donn import DONN
from repro.serve import (
    DeadlineExceededError,
    InferenceServer,
    ServerOverloadedError,
    UnknownModelError,
)
from repro.utils.tensor_codec import MAX_RANK, decode_tensor, encode_tensor

pytestmark = pytest.mark.filterwarnings("ignore::ResourceWarning")


def _tiny_model() -> DONN:
    config = DONNConfig(
        sys_size=16, pixel_size=36e-6, distance=0.05, num_layers=2, num_classes=4, approx="fresnel", seed=3
    )
    return DONN(config)


class FakeSession:
    """Echo session: doubles every payload, remembers fused batch sizes."""

    input_shape = (4, 4)
    kind = "classifier"

    def __init__(self):
        self.batch_sizes = []

    def run(self, batch, batch_size=None):
        batch = np.asarray(batch)
        self.batch_sizes.append(len(batch))
        return batch * 2.0


class BlockingSession:
    """Holds every fused call until released; for backpressure tests."""

    input_shape = (2, 2)

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def run(self, batch, batch_size=None):
        batch = np.asarray(batch)
        if len(batch):
            self.entered.set()
            self.release.wait(10.0)
        return batch * 2.0


async def _converse(port: int, *payloads: bytes):
    """Send each raw request on one keep-alive connection; the ``(status, headers, body)`` replies."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        replies = []
        for payload in payloads:
            writer.write(payload)
            await writer.drain()
            replies.append(await asyncio.wait_for(read_response(reader), 10.0))
        return replies
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _raw_request(port: int, payload: bytes):
    """Fire raw bytes at the gateway; returns ``(status, headers, body_dict)``."""
    ((status, headers, body),) = await _converse(port, payload)
    return status, headers, json.loads(body.decode("utf-8")) if body else {}


def _http(method: str, path: str, body: bytes = b"", extra_headers: str = "") -> bytes:
    return (
        f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n"
        f"{extra_headers}\r\n"
    ).encode() + body


_FRAME = "Content-Type: application/octet-stream\r\n"
_WANT_FRAME = "Accept: application/octet-stream\r\n"


# ---------------------------------------------------------------------- #
# Units: frame codec, limits, payload decoding
# ---------------------------------------------------------------------- #
class TestFrameCodec:
    def test_round_trip_with_arrays(self):
        batch = np.arange(12.0).reshape(3, 4)
        frame = encode_frame(("run", batch, 7))
        kind, out, seq = decode_frame(frame[8:])
        assert kind == "run" and seq == 7
        np.testing.assert_array_equal(out, batch)

    def test_frame_buffer_reassembles_split_frames(self):
        messages = [("ping", 1), ("ok", 2, np.ones(3), 0.5), ("stop",)]
        blob = b"".join(encode_frame(message) for message in messages)
        buffer = FrameBuffer()
        decoded = []
        # Feed in awkward 7-byte chunks: headers and payloads straddle reads.
        for start in range(0, len(blob), 7):
            buffer.feed(blob[start : start + 7])
            while True:
                message = buffer.next_message()
                if message is None:
                    break
                decoded.append(message)
        assert [message[0] for message in decoded] == ["ping", "ok", "stop"]
        np.testing.assert_array_equal(decoded[1][2], np.ones(3))

    def test_parse_address(self):
        assert parse_address("10.0.0.5:7070") == ("10.0.0.5", 7070)
        assert parse_address(("localhost", 80)) == ("localhost", 80)
        with pytest.raises(ValueError):
            parse_address("no-port")


class TestGatewayLimits:
    def test_connection_and_inflight_bounds(self):
        limits = GatewayLimits(max_connections=2, max_inflight=1)
        assert limits.try_open_connection() and limits.try_open_connection()
        assert not limits.try_open_connection()
        limits.close_connection()
        assert limits.try_open_connection()
        assert limits.try_begin_request()
        assert not limits.try_begin_request()
        limits.end_request()
        assert limits.try_begin_request()
        snap = limits.snapshot()
        assert snap["connections_rejected"] == 1 and snap["requests_rejected"] == 1
        assert snap["total_connections"] == 3 and snap["total_requests"] == 2


class TestPayloadCodec:
    def test_single_vs_batch_and_slo(self):
        batch, single, slo = decode_infer_payload(json.dumps({"input": [[1.0, 2.0]]}).encode())
        assert single and batch.shape == (1, 1, 2) and slo is None
        batch, single, slo = decode_infer_payload(
            json.dumps({"inputs": [[[1.0]], [[2.0]]], "slo_ms": 25}).encode()
        )
        assert not single and batch.shape == (2, 1, 1) and slo == 25.0

    @pytest.mark.parametrize(
        "body",
        [
            b"not json at all",
            b"[1, 2, 3]",  # not an object
            json.dumps({}).encode(),  # neither input nor inputs
            json.dumps({"input": [1.0], "inputs": [[1.0]]}).encode(),  # both
            json.dumps({"input": [1.0], "slo": 5}).encode(),  # unknown key
            json.dumps({"input": [1.0], "slo_ms": -3}).encode(),  # bad budget
            json.dumps({"input": [1.0], "slo_ms": "soon"}).encode(),
            json.dumps({"input": ["a", "b"]}).encode(),  # non-numeric
            pytest.param(b"[" * 100_000, id="nested-past-the-recursion-limit"),
            pytest.param(b'{"input": ' + b"1" * 5000 + b"}", id="integer-past-the-digit-limit"),
            pytest.param(json.dumps({"input": 10**400}).encode(), id="integer-too-large-for-a-double"),
            pytest.param(json.dumps({"input": [1.0], "slo_ms": 10**400}).encode(), id="slo-too-large-for-a-double"),
        ],
    )
    def test_malformed_payloads_are_400(self, body):
        with pytest.raises(ApiError) as info:
            decode_infer_payload(body)
        assert info.value.status == 400

    def test_tensor_body_is_a_batch_with_slo_from_the_header(self):
        batch = np.arange(8.0).reshape(2, 2, 2)
        decoded, single, slo = decode_infer_payload(
            encode_tensor(batch), "Application/Octet-Stream; charset=binary", "25"
        )
        assert not single and slo == 25.0
        assert np.array_equal(decoded, batch) and not decoded.flags.writeable
        assert decode_infer_payload(encode_tensor(batch), "application/octet-stream")[2] is None

    @pytest.mark.parametrize(
        "body, slo_header, error_type",
        [
            (encode_tensor(np.ones(2))[:-1], None, "invalid_tensor"),  # TestTensorCodec has the rest
            (json.dumps({"input": [[1.0]]}).encode(), None, "invalid_tensor"),  # JSON under the frame type
            (encode_tensor(np.ones(2)), "soon", "invalid_request"),
            (encode_tensor(np.ones(2)), "-3", "invalid_request"),
            (encode_tensor(np.ones(2)), "nan", "invalid_request"),
        ],
        ids=["truncated-frame", "json-body", "slo-text", "slo-negative", "slo-nan"],
    )
    def test_malformed_tensor_bodies_are_400(self, body, slo_header, error_type):
        with pytest.raises(ApiError) as info:
            decode_infer_payload(body, "application/octet-stream", slo_header)
        assert info.value.status == 400 and info.value.error_type == error_type

    def test_json_bytes_scrubs_non_finite(self):
        blob = json_bytes({"p99": float("nan"), "rate": float("inf"), "x": np.float64(2.5)})
        assert json.loads(blob) == {"p99": None, "rate": None, "x": 2.5}


class TestTensorCodec:
    _SPECIALS = [np.nan, -np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -1.7976931348623157e308]

    @given(
        shape=st.lists(st.integers(0, 2), min_size=1, max_size=MAX_RANK),
        data=st.data(),
    )
    def test_round_trip_is_bit_exact(self, shape, data):
        size = math.prod(shape)
        raw = data.draw(st.binary(min_size=8 * size, max_size=8 * size))
        array = np.frombuffer(raw, dtype="<f8").reshape(shape)  # every bit pattern: NaN payloads included
        decoded = decode_tensor(encode_tensor(array))
        assert decoded.shape == array.shape and decoded.dtype == np.dtype("<f8")
        assert np.array_equal(decoded.view("<u8"), array.view("<u8"))

    def test_specials_survive_and_decode_is_a_read_only_view(self):
        specials = np.array(self._SPECIALS + [np.array(0x7FF0000000000001, "<u8").view("<f8")])
        frame = encode_tensor(specials.reshape(3, 3))
        decoded = decode_tensor(frame)
        assert np.array_equal(decoded.reshape(-1).view("<u8"), specials.view("<u8"))
        assert not decoded.flags.writeable and not decoded.flags.owndata
        assert len(frame) == 8 + 8 * 2 + 8 * 9 and frame[:8] == b"RPT1\x01\x02\x00\x00"

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda f: f[:7],  # shorter than the fixed header
            lambda f: b"RPT0" + f[4:],  # magic
            lambda f: f[:4] + b"\x02" + f[5:],  # dtype code
            lambda f: f[:5] + b"\x00" + f[6:],  # rank 0
            lambda f: f[:5] + b"\x09" + f[6:],  # rank past MAX_RANK
            lambda f: f[:6] + b"\x01\x00" + f[8:],  # padding
            lambda f: f[:20],  # dims cut short
            lambda f: f[:-8],  # data cut short
            lambda f: f + b"\x00" * 8,  # data past the declared shape
            lambda f: f[:8] + struct.pack("<2Q", 2**63, 2**63) + f[24:],  # absurd dims
        ],
    )
    def test_malformed_frames_are_value_errors(self, mutate):
        with pytest.raises(ValueError):
            decode_tensor(mutate(encode_tensor(np.ones((2, 3)))))

    @pytest.mark.parametrize("array", [np.float64(1.0), np.ones((1,) * 9), np.ones(2, complex), np.array(["a"])])
    def test_encode_refuses_what_a_frame_cannot_hold(self, array):
        with pytest.raises(ValueError):
            encode_tensor(array)


# Valid bodies for the decoder fuzz to break: frames and JSON objects.
_frames = st.builds(
    lambda shape, seed: encode_tensor(np.random.default_rng(seed).standard_normal(shape)),
    st.lists(st.integers(0, 3), min_size=1, max_size=4),
    st.integers(0, 2**32 - 1),
)
_json_bodies = st.builds(
    lambda key, shape, slo: json.dumps(
        {key: np.zeros(shape).tolist(), **({} if slo is None else {"slo_ms": slo})}
    ).encode(),
    st.sampled_from(["input", "inputs"]),
    st.lists(st.integers(0, 3), max_size=3),
    st.none() | st.floats(-10, 100),
)
_HEADER_SPAN = 8 + 8 * MAX_RANK


def _declared_shape(body: bytes, content_type: str) -> tuple:
    """The batch shape a body declares, read independently of the decoder."""
    if "octet-stream" in content_type.lower():
        return struct.unpack_from(f"<{body[5]}Q", body, 8)
    obj = json.loads(body)
    return (1, *np.shape(obj["input"])) if "input" in obj else np.shape(obj["inputs"])


class TestInferDecoderFuzz:
    @given(
        base=st.one_of(_frames, _json_bodies),
        noise=st.binary(max_size=96),
        tail=st.binary(min_size=1, max_size=24),
        cut=st.integers(0, 2**20),
        at=st.integers(0, _HEADER_SPAN - 1),
        byte=st.integers(0, 255),
        content_type=st.sampled_from(
            ["application/octet-stream", "APPLICATION/OCTET-STREAM; x=1", "application/json", ""]
        ),
        slo_header=st.none() | st.sampled_from(["25", "0", "-1", "nan", "inf", "1e400", "x"]),
    )
    def test_either_a_batch_of_the_declared_shape_or_a_400(
        self, base, noise, tail, cut, at, byte, content_type, slo_header
    ):
        """Arbitrary bytes, and a valid body intact, cut at every header
        offset and at one random point, extended, or with one header
        byte changed: each decodes to its declared shape or is a 400."""
        at %= len(base)
        bodies = [noise, base, base[: cut % (len(base) + 1)], base + tail]
        bodies.append(base[:at] + bytes([byte]) + base[at + 1 :])
        bodies.extend(base[:end] for end in range(min(len(base), _HEADER_SPAN + 8)))
        for body in bodies:
            try:
                batch, _, slo_ms = decode_infer_payload(body, content_type, slo_header)
            except ApiError as error:
                assert error.status == 400
                continue
            assert batch.dtype == np.float64
            assert batch.shape == _declared_shape(body, content_type)
            assert slo_ms is None or (math.isfinite(slo_ms) and slo_ms > 0)


# ---------------------------------------------------------------------- #
# Live gateway round trips (fake sessions: no spawn, fast)
# ---------------------------------------------------------------------- #
class TestGatewayRoutes:
    def test_health_models_stats_and_infer(self):
        fake = FakeSession()

        async def scenario():
            server = InferenceServer(max_batch=8)
            server.add_model("echo", fake)
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    health = await client.health()
                    models = await client.models()
                    single = await client.infer("echo", np.full((4, 4), 1.5))
                    batch = await client.infer_many("echo", [np.ones((4, 4)), np.zeros((4, 4))])
                    stats = await client.stats()
            return health, models, single, batch, stats

        health, models, single, batch, stats = asyncio.run(scenario())
        assert health["status"] == "ok" and health["models"] == ["echo"]
        assert health["uptime_s"] >= 0.0
        (row,) = models
        assert row["name"] == "echo" and row["input_shape"] == [4, 4]
        assert row["kind"] == "classifier" and row["replicas"] == 1
        np.testing.assert_allclose(single, np.full((4, 4), 3.0))
        assert batch.shape == (2, 4, 4)
        np.testing.assert_allclose(batch[0], np.full((4, 4), 2.0))
        assert stats["models"]["echo"]["completed"] == 3
        assert stats["gateway"]["total_requests"] == 2
        assert stats["gateway"]["open_connections"] >= 1

    def test_json_bodies_answer_as_before_and_frames_follow_accept(self):
        """Raw JSON requests keep their keys and values; a frame is sent
        or answered exactly when the media types ask for one."""
        image, batch = np.full((4, 4), 1.5), np.stack([np.ones((4, 4)), np.zeros((4, 4))])
        path = "/v1/models/echo/infer"

        async def scenario():
            server = InferenceServer(max_batch=8)
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                return await _converse(
                    gateway.port,
                    _http("POST", path, json.dumps({"input": image.tolist()}).encode()),
                    _http("POST", path, json.dumps({"inputs": batch.tolist(), "slo_ms": 5000}).encode()),
                    _http("POST", path, json.dumps({"input": image.tolist()}).encode(), _WANT_FRAME),
                    _http("POST", path, encode_tensor(batch), _FRAME + "X-Slo-Ms: 5000\r\n"),
                    _http("POST", path, encode_tensor(batch), _FRAME + "X-Slo-Ms: soon\r\n"),
                )

        single, many, json_to_frame, frame_to_json, bad_slo = asyncio.run(scenario())
        status, headers, body = single
        body = json.loads(body)
        assert status == 200 and headers["content-type"] == "application/json"
        assert set(body) == {"model", "output", "latency_ms"} and body["model"] == "echo"
        assert body["output"] == (image * 2.0).tolist()
        status, _, body = many
        body = json.loads(body)
        assert status == 200 and set(body) == {"model", "outputs", "count", "latency_ms"}
        assert body["count"] == 2 and body["outputs"] == (batch * 2.0).tolist()
        status, headers, body = json_to_frame
        assert status == 200 and headers["content-type"] == "application/octet-stream"
        assert np.array_equal(decode_tensor(body), (image * 2.0)[None])
        status, headers, body = frame_to_json
        body = json.loads(body)
        assert status == 200 and headers["content-type"] == "application/json"
        assert body["count"] == 2 and body["outputs"] == (batch * 2.0).tolist()
        status, _, body = bad_slo
        assert status == 400 and json.loads(body)["error"]["type"] == "invalid_request"

    def test_malformed_frame_is_400_and_the_connection_serves_on(self):
        good = encode_tensor(np.ones((1, 4, 4)))
        path = "/v1/models/echo/infer"

        async def scenario():
            server = InferenceServer()
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                return await _converse(
                    gateway.port,
                    _http("POST", path, good[:-8], _FRAME + _WANT_FRAME + "X-Request-Id: bad-frame\r\n"),
                    _http("POST", path, encode_tensor(np.ones((1, 2, 2))), _FRAME + _WANT_FRAME),
                    _http("POST", path, good, _FRAME + _WANT_FRAME),
                )

        (status, headers, body), (shape_status, _, shape_body), (ok_status, ok_headers, ok_body) = asyncio.run(
            scenario()
        )
        assert status == 400 and headers["content-type"] == "application/json"
        assert headers["x-request-id"] == "bad-frame"
        assert json.loads(body)["error"]["type"] == "invalid_tensor"
        assert shape_status == 400 and json.loads(shape_body)["error"]["type"] == "invalid_input"
        assert ok_status == 200 and ok_headers["content-type"] == "application/octet-stream"
        assert np.array_equal(decode_tensor(ok_body), np.full((1, 4, 4), 2.0))

    def test_expect_100_continue_is_answered_before_the_body(self):
        body = encode_tensor(np.ones((1, 4, 4)))
        head = _http("POST", "/v1/models/echo/infer", b"", _FRAME + _WANT_FRAME + "Expect: 100-continue\r\n")
        head = head.replace(b"Content-Length: 0", f"Content-Length: {len(body)}".encode())

        async def scenario():
            server = InferenceServer()
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0, max_body_bytes=1024) as gateway:
                reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
                try:
                    writer.write(head)  # headers only: the body waits for the interim line
                    await writer.drain()
                    interim = await asyncio.wait_for(reader.readuntil(b"\r\n\r\n"), 10.0)
                    writer.write(body)
                    await writer.drain()
                    answer = await asyncio.wait_for(read_response(reader), 10.0)
                finally:
                    writer.close()
                    await writer.wait_closed()
                oversize = head.replace(f"Content-Length: {len(body)}".encode(), b"Content-Length: 4096")
                refused = await _raw_request(gateway.port, oversize)  # no body sent, none read
            return interim, answer, refused

        interim, (status, _, reply), refused = asyncio.run(scenario())
        assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
        assert status == 200 and np.array_equal(decode_tensor(reply), np.full((1, 4, 4), 2.0))
        assert refused[0] == 413 and refused[2]["error"]["type"] == "payload_too_large"

    def test_unknown_model_is_404_and_remaps(self):
        async def scenario():
            server = InferenceServer()
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                status, _, body = await _raw_request(
                    gateway.port, _http("POST", "/v1/models/nope/infer", json.dumps({"input": [[1.0]]}).encode())
                )
                async with GatewayClient(port=gateway.port) as client:
                    with pytest.raises(UnknownModelError):
                        await client.infer("nope", np.ones((4, 4)))
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 404
        assert body["error"]["type"] == "unknown_model" and body["error"]["status"] == 404

    def test_malformed_json_and_shape_mismatch_are_400(self):
        async def scenario():
            server = InferenceServer()
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                bad_json = await _raw_request(
                    gateway.port, _http("POST", "/v1/models/echo/infer", b"{nope")
                )
                bad_shape = await _raw_request(
                    gateway.port,
                    _http("POST", "/v1/models/echo/infer", json.dumps({"input": [[1.0, 2.0]]}).encode()),
                )
            return bad_json, bad_shape

        (status_json, _, body_json), (status_shape, _, body_shape) = asyncio.run(scenario())
        assert status_json == 400 and body_json["error"]["type"] == "invalid_json"
        assert status_shape == 400 and body_shape["error"]["type"] == "invalid_input"

    def test_oversize_body_413_wrong_method_405_unknown_route_404(self):
        async def scenario():
            server = InferenceServer()
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0, max_body_bytes=256) as gateway:
                big = json.dumps({"input": [[0.0] * 64] * 64}).encode()
                oversize = await _raw_request(
                    gateway.port, _http("POST", "/v1/models/echo/infer", big)
                )
                wrong_method = await _raw_request(gateway.port, _http("POST", "/healthz"))
                missing = await _raw_request(gateway.port, _http("GET", "/v2/nothing"))
                chunked = await _raw_request(
                    gateway.port,
                    b"POST /v1/models/echo/infer HTTP/1.1\r\nHost: t\r\n"
                    b"Transfer-Encoding: chunked\r\n\r\n",
                )
            return oversize, wrong_method, missing, chunked

        oversize, wrong_method, missing, chunked = asyncio.run(scenario())
        assert oversize[0] == 413 and oversize[2]["error"]["type"] == "payload_too_large"
        assert wrong_method[0] == 405
        assert missing[0] == 404 and missing[2]["error"]["type"] == "not_found"
        assert chunked[0] == 501

    def test_inflight_limit_maps_to_429_with_retry_after(self):
        blocking = BlockingSession()

        async def scenario():
            loop = asyncio.get_running_loop()
            server = InferenceServer(max_batch=1)
            server.add_model("slow", blocking)
            limits = GatewayLimits(max_inflight=1, retry_after_s=2.0)
            async with Gateway(server, port=0, limits=limits) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    first = asyncio.ensure_future(client.infer("slow", np.ones((2, 2))))
                    # The gateway counts the request in-flight before the
                    # batcher sees it; wait until the session is provably busy.
                    assert await loop.run_in_executor(None, blocking.entered.wait, 5.0)
                    status, headers, body = await _raw_request(
                        gateway.port,
                        _http("POST", "/v1/models/slow/infer", json.dumps({"input": [[1.0, 1.0]] * 1}).encode()),
                    )
                    with pytest.raises(ServerOverloadedError):
                        await client.infer("slow", np.ones((2, 2)))
                    blocking.release.set()
                    result = await first
            return status, headers, body, result

        status, headers, body, result = asyncio.run(scenario())
        assert status == 429
        assert body["error"]["type"] == "overloaded"
        assert int(headers["retry-after"]) >= 2
        np.testing.assert_allclose(result, np.full((2, 2), 2.0))

    def test_slo_ms_plumbs_through_to_504_deadline(self):
        blocking = BlockingSession()

        async def scenario():
            loop = asyncio.get_running_loop()
            server = InferenceServer(max_batch=1)
            server.add_model("slow", blocking)
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    first = asyncio.ensure_future(client.infer("slow", np.ones((2, 2))))
                    assert await loop.run_in_executor(None, blocking.entered.wait, 5.0)
                    # Queued behind a busy worker with a 30 ms budget that
                    # cannot be met: the batcher sheds it at admission.
                    second = asyncio.ensure_future(client.infer("slow", np.ones((2, 2)), slo_ms=30.0))
                    await asyncio.sleep(0.08)
                    blocking.release.set()
                    with pytest.raises(DeadlineExceededError):
                        await second
                    await first
                    # And over the raw wire the same outcome is a 504.
                    blocking.entered.clear()
                    blocking.release.clear()
                    third = asyncio.ensure_future(client.infer("slow", np.ones((2, 2))))
                    assert await loop.run_in_executor(None, blocking.entered.wait, 5.0)
                    raw = asyncio.ensure_future(
                        _raw_request(
                            gateway.port,
                            _http(
                                "POST",
                                "/v1/models/slow/infer",
                                json.dumps({"input": [[1.0, 1.0], [1.0, 1.0]], "slo_ms": 30}).encode(),
                            ),
                        )
                    )
                    await asyncio.sleep(0.08)
                    blocking.release.set()
                    status, _, body = await raw
                    await third
            return status, body

        status, body = asyncio.run(scenario())
        assert status == 504
        assert body["error"]["type"] == "deadline_exceeded"

    def test_client_raises_gateway_error_for_unmapped_types(self):
        """A 404 route miss has no serve-layer twin: GatewayError carries it."""

        async def scenario():
            server = InferenceServer()
            server.add_model("echo", FakeSession())
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    status, _, body = await client._request("GET", "/v2/nothing")
                    with pytest.raises(GatewayError) as info:
                        client._raise_for_error(status, body)
            return info.value

        error = asyncio.run(scenario())
        assert error.status == 404 and error.error_type == "not_found"

    def test_client_refuses_replies_that_are_not_one_row_per_input(self):
        """A 200 must be a frame with exactly N rows; anything else is a GatewayError."""
        replies = [
            (encode_tensor(np.zeros((2, 3))), "application/octet-stream"),  # 2 rows for 1 input
            (encode_tensor(np.zeros((2, 3))), "application/octet-stream"),  # 2 rows for 2 inputs
            (encode_tensor(np.zeros((2, 3)))[:-1], "application/octet-stream"),  # not a frame
            (b'{"outputs": [[0.0]]}', "application/json"),  # not the asked-for format
        ]

        async def answer(reader, writer):
            for body, content_type in replies:
                await read_request(reader, writer)
                writer.write(render_response(200, body, {"Content-Type": content_type}))
                await writer.drain()
            writer.close()

        async def scenario():
            listener = await asyncio.start_server(answer, "127.0.0.1", 0)
            port = listener.sockets[0].getsockname()[1]
            try:
                async with GatewayClient(port=port, max_connections=1) as client:
                    outcomes = []
                    for method, payload in [
                        (client.infer, np.ones(3)),
                        (client.infer_many, np.ones((2, 3))),
                        (client.infer_many, np.ones((2, 3))),
                        (client.infer_many, np.ones((1, 3))),
                    ]:
                        try:
                            outcomes.append((await method("m", payload)).shape)
                        except GatewayError as error:
                            outcomes.append(error.error_type)
                    return outcomes
            finally:
                listener.close()
                await listener.wait_closed()

        assert asyncio.run(scenario()) == ["invalid_response", (2, 3), "invalid_response", "invalid_response"]


# ---------------------------------------------------------------------- #
# Parity: HTTP vs compile(), socket vs local transport
# ---------------------------------------------------------------------- #
class TestParity:
    def test_http_logits_match_compile_output(self):
        model = _tiny_model()
        session = engine_compile(model, backend="numpy")
        rng = np.random.default_rng(11)
        images = rng.random((5, 16, 16))
        reference = session.run(images)
        path = "/v1/models/digits/infer"

        async def scenario():
            server = InferenceServer(max_batch=8)
            # Register the *same compiled session*: the HTTP path must add
            # nothing but encoding round trips, which are exact for doubles.
            server.add_model("digits", session)
            async with Gateway(server, port=0) as gateway:
                async with GatewayClient(port=gateway.port) as client:
                    single = await client.infer("digits", images[0])
                    batch = await client.infer_many("digits", images)
                json_replies = await _converse(
                    gateway.port,
                    _http("POST", path, json.dumps({"input": images[0].tolist()}).encode()),
                    _http("POST", path, json.dumps({"inputs": images.tolist()}).encode()),
                )
            return single, batch, [json.loads(body) for _, _, body in json_replies]

        single, batch, (json_single, json_batch) = asyncio.run(scenario())
        np.testing.assert_allclose(single, reference[0], atol=1e-10)
        np.testing.assert_allclose(batch, reference, atol=1e-10)
        np.testing.assert_allclose(json_single["output"], reference[0], atol=1e-10)
        np.testing.assert_allclose(json_batch["outputs"], reference, atol=1e-10)
        # The lone single request ran as a batch of one: a frame carries
        # that computation's doubles bit for bit.
        assert single.dtype == np.float64 and single.shape == reference[0].shape
        assert np.array_equal(single.view("<u8"), session.run(images[:1])[0].view("<u8"))

    def test_socket_transport_matches_local_and_in_process(self):
        spec = engine_compile(_tiny_model(), backend="numpy").to_spec()
        session = spec.build()
        rng = np.random.default_rng(5)
        images = rng.random((6, 16, 16))
        reference = session.run(images)

        with WorkerServer(port=0) as worker:
            worker.serve_in_thread()
            with ReplicaGroup(spec, replicas=0, workers=[worker.address], name="remote") as remote:
                over_socket = remote.infer_sync(images)
                stats = remote.stats()[0]
        assert stats["transport"].startswith("socket(")
        with ReplicaGroup(spec, replicas=1, name="local") as local:
            over_pipe = local.infer_sync(images)

        np.testing.assert_allclose(over_socket, reference, atol=1e-12)
        np.testing.assert_allclose(over_pipe, reference, atol=1e-12)

    def test_group_rejects_empty_fleet(self):
        spec = engine_compile(_tiny_model(), backend="numpy").to_spec()
        with pytest.raises(ValueError):
            ReplicaGroup(spec, replicas=0)
