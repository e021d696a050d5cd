"""The engine's tile executor: one batch as cache-sized tiles on a few threads.

Run as one block, a batch of 32 fields at sys 200 is 20 MB of
complex128, and every op of the program streams it through a cache of a
few MB.  :func:`run_tiles` splits a batch into tiles of
:func:`tile_size` images -- at most :data:`BUDGET` bytes of one image's
largest field each, so a tile's intermediates stay in cache from op to
op -- and runs them on ``workers`` threads: the calling thread plus
helper threads started for the call and joined before it returns.  Every
op inside a tile runs on its own thread (the engine calls the FFT
backend single-threaded), so the multiplies, the intensity and the
read-out run in parallel too, not only the transforms.

Tile boundaries depend only on the batch length, the chunk and the image
size, never on the thread count, so the output is bit-identical for any
``workers``.  Callers allocate the arrays the tiles fill on the calling
thread: memory a helper thread allocates stays resident in its
allocator arena after the thread is gone.
"""

from __future__ import annotations

import threading
from typing import Callable, List

__all__ = ["BUDGET", "tile_size", "run_tiles"]

#: Bytes of field one tile may hold (the largest per-image intermediate
#: times the tile's images).  1 MiB is one image at sys 200 in complex128
#: (with the op's kernel, it stays in a 4 MB L2 cache), and a whole
#: 32-image batch of 64x64 real amplitudes.  Tiles of 1 to 3 images at
#: sys 200 run equally fast; one image keeps the memory each helper
#: thread's allocator holds on to smallest.
BUDGET = 1024 * 1024


def tile_size(field_bytes: int, chunk: int) -> int:
    """Images per tile: ``max(1, min(chunk, BUDGET // field_bytes))``."""
    return max(1, min(int(chunk), BUDGET // max(1, int(field_bytes))))


def run_tiles(task: Callable[[int, int], None], total: int, tile: int, workers: int) -> None:
    """``task(start, stop)`` for every tile of ``total`` rows, on up to ``workers`` threads.

    Tiles are ``[0, tile)``, ``[tile, 2 * tile)``, ...; the calling thread
    takes tiles too, and helper threads exist only while there are more
    tiles than one thread.  The first exception any tile raises is
    re-raised once every thread has stopped.
    """
    starts = iter(range(0, total, tile))
    lock = threading.Lock()
    errors: List[BaseException] = []

    def work() -> None:
        while not errors:
            with lock:
                start = next(starts, None)
            if start is None:
                return
            try:
                task(start, min(start + tile, total))
            except BaseException as exc:  # re-raised on the calling thread below
                errors.append(exc)
                return

    helpers: List[threading.Thread] = []
    try:
        for index in range(1, min(int(workers), -(-total // tile))):
            helper = threading.Thread(target=work, name=f"repro-engine-{index}", daemon=True)
            helper.start()
            helpers.append(helper)
        work()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]
