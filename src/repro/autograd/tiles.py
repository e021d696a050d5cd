"""The tile executor: one batch as cache-sized tiles on a few threads.

Training steps (:mod:`repro.train.loop`) and engine calls
(:mod:`repro.engine.session`) both run a batch this way.  Run as one
block, a batch of 32 fields at sys 200 is 20 MB of complex128, and every
op streams it through a cache of a few MB.  :func:`run_tiles` splits a
batch into tiles of :func:`tile_size` images -- at most :data:`BUDGET`
bytes of one image's largest field each, so a tile's intermediates stay
in cache from op to op -- and runs them on ``workers`` threads: the
calling thread plus helper threads started for the call and joined
before it returns.  Every op inside a tile runs on its own thread: the
engine calls the FFT backend single-threaded, and autograd's transforms
run single-threaded on a thread that is running a tile
(:func:`in_tile`), so the multiplies, the intensity and the read-out run
in parallel too, not only the transforms.

A batch of ``total`` images runs as ``ceil(total / tile)`` tiles whose
sizes differ by at most one, so the threads finish together: 10 images
in tiles of at most 7 run as two tiles of 5.  Tile boundaries depend
only on the batch length, the chunk and the image size, never on the
thread count, so a caller that combines the tiles' results in tile order
(:func:`run_tiles` returns them so) gets bit-identical output for any
``workers``.
Callers allocate the arrays the tiles fill on the calling thread: memory
a helper thread allocates stays resident in its allocator arena after
the thread is gone.

This module is a leaf (``threading`` only) so that autograd and the
engine share one executor without an import cycle.
"""

from __future__ import annotations

import threading
from typing import Callable, List, TypeVar

__all__ = ["BUDGET", "tile_size", "run_tiles", "in_tile"]

T = TypeVar("T")

#: Bytes of field one tile may hold (the largest per-image intermediate
#: times the tile's images).  1 MiB is one image at sys 200 in complex128
#: (with the op's kernel, it stays in a 4 MB L2 cache), and a whole
#: 32-image batch of 64x64 real amplitudes.  Tiles of 1 to 3 images at
#: sys 200 run equally fast; one image keeps the memory each helper
#: thread's allocator holds on to smallest.
BUDGET = 1024 * 1024


class _TileThread(threading.local):
    """Whether this thread is running a tile; the class attribute is each thread's starting value."""

    active = False


_TILE_THREAD = _TileThread()


def in_tile() -> bool:
    """Whether this thread is running a tile of :func:`run_tiles` (its transforms then run single-threaded)."""
    return _TILE_THREAD.active


def tile_size(field_bytes: int, chunk: int) -> int:
    """Most images a tile holds: ``max(1, min(chunk, BUDGET // field_bytes))``."""
    return max(1, min(int(chunk), BUDGET // max(1, int(field_bytes))))


def run_tiles(task: Callable[[int, int], T], total: int, tile: int, workers: int) -> List[T]:
    """``task(start, stop)`` for every tile of ``total`` rows, on up to ``workers`` threads.

    The rows split into ``ceil(total / tile)`` contiguous tiles, the
    larger ones first, whose sizes differ by at most one.  Returns the
    tasks' results in tile order.  The calling thread takes tiles too,
    and helper threads exist only while there are more tiles than one
    thread.  The first exception any tile raises is re-raised once every
    thread has stopped.
    """
    count = -(-total // tile)
    size, extra = divmod(total, max(count, 1))
    # Tile i is rows [starts[i], starts[i + 1]); the first ``extra`` tiles hold one row more.
    starts = [index * size + min(index, extra) for index in range(count + 1)]
    results: List[T] = [None] * count
    indices = iter(range(count))
    lock = threading.Lock()
    errors: List[BaseException] = []

    def work() -> None:
        outer = _TILE_THREAD.active
        _TILE_THREAD.active = True
        try:
            while not errors:
                with lock:
                    index = next(indices, None)
                if index is None:
                    return
                try:
                    results[index] = task(starts[index], starts[index + 1])
                except BaseException as exc:  # re-raised on the calling thread below
                    errors.append(exc)
                    return
        finally:
            _TILE_THREAD.active = outer

    helpers: List[threading.Thread] = []
    try:
        for index in range(1, min(int(workers), count)):
            helper = threading.Thread(target=work, name=f"repro-tiles-{index}", daemon=True)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
    return results
