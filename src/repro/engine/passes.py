"""The engine's optimization pass over the :class:`~repro.engine.plan.Plan` IR.

There is one: ``collapse_cascade``, for nonlinearity-free classifiers.
The entire Encode→…→Intensity→ReadIntensity program is folded into
**one precomputed operator pair** restricted to the pixels the detector
actually reads.  With ``A`` the cascade's linear map from the input
plane to those ``P`` detector pixels, the logits are::

    logits = ((amp @ Re Aᵀ)² + (amp @ Im Aᵀ)²) @ R[pixels]

two real GEMMs against ``(N², P)`` matrices — no FFTs, no complex
arithmetic (the encoded input field has constant phase, which detector
intensity cannot see).  ``A`` is built by the **adjoint method**: row
``p`` of ``A`` is the *transposed* op chain applied to the one-hot
detector field ``e_p``, so the build costs ``P`` pushes (typically a few
hundred) instead of ``N²``; they run in place on one batch of one-hot
fields, in the engine's tiles (:mod:`repro.autograd.tiles`) on the
session's threads.  The pixels ``P`` are the ones the plan's read-out
already restricts itself to.  Transposition rules: the unnormalised DFT
matrix is symmetric (``Fᵀ = F``, ``(F⁻¹)ᵀ = F⁻¹``), pad and crop are
mutual transposes, ``fftshift``/``ifftshift`` are mutual transposes (so
the centred Fraunhofer FFT is self-transpose), and diagonal multiplies
are their own (plain, non-conjugate) transpose.

The collapse is gated: classifier plans only (segmentation needs the
full output plane, where a dense operator is a pessimization), and the
operator pair must fit :data:`OPERATOR_BUDGET` (64 MiB) — big
grids with many read pixels stay in FFT form, which is cheaper there
anyway.  A plan the gate refuses is emitted as lowered.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd.tiles import run_tiles, tile_size
from repro.engine.plan import (
    FFT,
    IFFT,
    Branch,
    Crop,
    DetectorOperator,
    Encode,
    Intensity,
    Op,
    Pad,
    Plan,
    PointwiseMul,
    ReadIntensity,
    count_ops,
    emit_ops,
    field_bytes,
)

__all__ = [
    "OPTIMIZE_LEVELS",
    "OPERATOR_BUDGET",
    "transpose_linear_ops",
    "collapse_cascade",
    "optimize_plan",
]

OPTIMIZE_LEVELS = ("none", "full")

#: Per-plan cap on the collapsed operator pairs (Re + Im), in bytes.
#: 64 MiB admits e.g. a 64x64 grid with a few hundred read pixels but
#: keeps 128x128-and-up grids in FFT form, where FFTs win anyway.
OPERATOR_BUDGET = 64 * 1024 * 1024


# --------------------------------------------------------------------- #
# Cascade collapse (nonlinearity-free classifiers)
# --------------------------------------------------------------------- #
_LINEAR_OPS = (FFT, IFFT, Pad, Crop, PointwiseMul)


def transpose_linear_ops(ops: Sequence[Op]) -> List[Op]:
    """Transpose a linear op chain (for the adjoint operator build).

    Returns ops computing ``Aᵀx`` where the input chain computes ``Ax``.
    Plain transpose, not conjugate-transpose — the adjoint build wants
    the rows of ``A`` itself.
    """
    transposed: List[Op] = []
    for op in reversed(list(ops)):
        if isinstance(op, FFT):
            if op.centered:
                transposed.append(FFT(centered=True))  # fftshift·F·ifftshift is self-transpose
            else:
                transposed.append(FFT(pad=0))
                if op.pad:
                    transposed.append(Crop(op.pad))
        elif isinstance(op, IFFT):
            if op.crop:
                transposed.append(Pad(op.crop))
            transposed.append(IFFT(crop=0))
        elif isinstance(op, Pad):
            transposed.append(Crop(op.width))
        elif isinstance(op, Crop):
            transposed.append(Pad(op.width))
        elif isinstance(op, PointwiseMul):
            transposed.append(op)
        else:
            raise TypeError(f"cannot transpose non-linear op {type(op).__name__}")
    return transposed


def _collapsible(plan: Plan) -> bool:
    readout = plan.readout
    if plan.kind != "classifier" or readout is None or len(plan.tail) != 1 or not readout.from_plane:
        return False
    for branch in plan.branches:
        ops = branch.ops
        if len(ops) < 2 or not isinstance(ops[0], Encode) or ops[0].mode != "field":
            return False
        if not isinstance(ops[-1], Intensity):
            return False
        if not all(isinstance(op, _LINEAR_OPS) for op in ops[1:-1]):
            return False
    return True


def _build_detector_operator(
    linear_ops: Sequence[Op], plan: Plan, pixels: np.ndarray, fft, workers: int
) -> DetectorOperator:
    size = plan.grid.size
    count = pixels.shape[0]
    transposed = transpose_linear_ops(linear_ops)
    chain = emit_ops(transposed, fft, plan.cdtype)
    rows = np.zeros((count, size, size), dtype=plan.cdtype)
    rows[np.arange(count), pixels // size, pixels % size] = 1.0

    def push(start: int, stop: int) -> None:
        # In place: the chain transforms and multiplies the basis where it
        # lies, so a helper thread allocates no rows (a padded chain ends
        # in a cropped copy, written back).
        tile = rows[start:stop]
        result = chain(tile)
        if not np.may_share_memory(result, tile):
            tile[...] = result

    run_tiles(push, count, tile_size(field_bytes(transposed, size, plan.cdtype), count), workers)
    # rows[i] = Aᵀ e_{pixels[i]}, i.e. row pixels[i] of A; the emitted
    # matmul wants amp @ Aᵀ, so lay the operator out as (N², P).
    restricted = rows.reshape(count, size * size).T
    return DetectorOperator(
        op_real=np.ascontiguousarray(restricted.real),
        op_imag=np.ascontiguousarray(restricted.imag),
        pixels=pixels,
    )


def collapse_cascade(plan: Plan, fft, workers: int = 1) -> Optional[Plan]:
    """Fold a linear classifier plan into precomputed detector operators.

    Returns the collapsed plan, or ``None`` when the plan is ineligible
    (nonlinear, segmentation, or over :data:`OPERATOR_BUDGET`).
    ``workers`` threads push the one-hot basis through the transposed
    chain; the operator is bit-identical for any count.
    """
    if not _collapsible(plan):
        return None
    readout = plan.readout
    pixels = readout.pixels
    if pixels.size == 0:
        return None
    cells = plan.grid.size * plan.grid.size
    per_branch = 2 * plan.rdtype.itemsize * cells * int(pixels.size)
    if per_branch * len(plan.branches) > OPERATOR_BUDGET:
        return None

    branches: List[Branch] = []
    for branch in plan.branches:
        encode = branch.ops[0]
        operator = _build_detector_operator(branch.ops[1:-1], plan, pixels, fft, workers)
        branches.append(
            Branch(
                ops=[
                    Encode(amplitude_factor=encode.amplitude_factor, scale=encode.scale, mode="amplitude"),
                    operator,
                ],
                channel=branch.channel,
            )
        )
    return Plan(
        kind=plan.kind,
        grid=plan.grid,
        cdtype=plan.cdtype,
        branches=branches,
        tail=[ReadIntensity(matrix=readout.matrix, pixels=pixels, from_plane=False)],
        num_outputs=plan.num_outputs,
        num_channels=plan.num_channels,
    )


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #
def _fft_op_count(counts: dict) -> int:
    return counts.get("FFT", 0) + counts.get("IFFT", 0)


def optimize_plan(plan: Plan, optimize: str = "full", fft=None, workers: int = 1) -> Tuple[Plan, dict]:
    """The plan a session emits at the requested level, and a report.

    ``optimize`` is ``"none"`` (the lowered plan, the parity reference)
    or ``"full"`` (the collapsed plan when :func:`collapse_cascade`
    accepts it, the lowered plan otherwise).  Returns
    ``(optimized_plan, report)``; the input plan is never mutated.  The
    FFT backend and ``workers`` (threads) are only used by ``"full"``
    (the collapse executes the transposed chain to build the operator).
    """
    if optimize not in OPTIMIZE_LEVELS:
        raise ValueError(f"optimize must be one of {OPTIMIZE_LEVELS}, got {optimize!r}")
    result = plan
    if optimize == "full":
        if fft is None:
            raise ValueError("optimize='full' needs the FFT backend to build the collapsed operator")
        result = collapse_cascade(plan, fft, workers) or plan
    collapsed = result is not plan
    before, after = count_ops(plan), count_ops(result)
    report = {
        "optimize": optimize,
        "ops_before": before,
        "fft_ops_before": _fft_op_count(before),
        "passes": ["collapse_cascade"] if collapsed else [],
        "collapsed": collapsed,
        "ops_after": after,
        "fft_ops_after": _fft_op_count(after),
    }
    return result, report
