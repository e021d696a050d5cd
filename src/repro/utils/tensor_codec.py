"""One array frame: a fixed little-endian header followed by raw float64 data.

The binary twin of a JSON number list, for numeric arrays that cross a
process or network boundary (the gateway's ``application/octet-stream``
infer bodies).  Decoding is a header check and one ``np.frombuffer``:
no parsing, no ``pickle``, no object dtypes, so a frame from an
untrusted peer can only ever become a float64 array or a ``ValueError``.

Layout (all integers little-endian; the data starts 8-byte aligned)::

    offset    bytes      field
    0         4          magic b"RPT1"
    4         1          dtype code: 1 = "<f8", the only code accepted
    5         1          rank r, 1 <= r <= 8
    6         2          zero
    8         8*r        dims, as "<u8"
    8 + 8*r   8*prod     C-order data; the frame ends exactly here

Float64 bytes are copied verbatim, so every value -- NaN payloads,
signed zeros, infinities -- round-trips bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

__all__ = ["MAGIC", "MAX_RANK", "encode_tensor", "decode_tensor"]

MAGIC = b"RPT1"
MAX_RANK = 8
_F8 = np.dtype("<f8")
_F8_CODE = 1
_HEADER = struct.Struct("<4sBBH")


def encode_tensor(array) -> bytes:
    """``array`` as one frame; anything numpy reads as real numbers is cast to float64."""
    array = np.asarray(array)
    if array.dtype.kind not in "biuf":
        raise ValueError(f"cannot frame a {array.dtype} array: frames hold real numbers only")
    if not 1 <= array.ndim <= MAX_RANK:
        raise ValueError(f"cannot frame a rank-{array.ndim} array: rank must be 1..{MAX_RANK}")
    data = np.ascontiguousarray(array, dtype=_F8)
    return b"".join(
        (
            _HEADER.pack(MAGIC, _F8_CODE, data.ndim, 0),
            struct.pack(f"<{data.ndim}Q", *data.shape),
            data.tobytes(),
        )
    )


def decode_tensor(buffer) -> np.ndarray:
    """The array a frame holds: a read-only view of ``buffer``, never a copy.

    Raises ``ValueError`` for any frame that is not exactly the layout
    in the module docstring: wrong magic, dtype code, rank or padding,
    or a length that is not header plus data to the byte.
    """
    view = memoryview(buffer).cast("B")
    if len(view) < _HEADER.size:
        raise ValueError(f"frame of {len(view)} bytes is shorter than its {_HEADER.size}-byte header")
    magic, code, rank, pad = _HEADER.unpack_from(view)
    if magic != MAGIC:
        raise ValueError(f"bad frame magic {bytes(magic)!r}; expected {MAGIC!r}")
    if code != _F8_CODE:
        raise ValueError(f"unknown dtype code {code}; only {_F8_CODE} (float64) is accepted")
    if not 1 <= rank <= MAX_RANK:
        raise ValueError(f"frame rank {rank} is outside 1..{MAX_RANK}")
    if pad:
        raise ValueError("frame header padding is not zero")
    start = _HEADER.size + 8 * rank
    if len(view) < start:
        raise ValueError(f"frame of {len(view)} bytes is shorter than its {start}-byte header")
    dims = struct.unpack_from(f"<{rank}Q", view, _HEADER.size)
    count = math.prod(dims)
    if len(view) != start + 8 * count:
        raise ValueError(
            f"frame of {len(view)} bytes does not hold a {dims} float64 array ({start + 8 * count} bytes)"
        )
    array = np.frombuffer(view, dtype=_F8, count=count, offset=start).reshape(dims)
    array.flags.writeable = False
    return array
