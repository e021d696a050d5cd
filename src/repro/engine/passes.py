"""Optimization passes over the engine's :class:`~repro.engine.plan.Plan` IR.

The optical cascade alternates stages that are diagonal in the spatial
basis (phase modulations) with stages diagonal in the frequency basis
(diffraction transfer functions).  Between nonlinearities the whole
chain is linear, which licenses three rewrites:

``eliminate_dead_kernels``
    drop any ``PointwiseMul`` whose array is identically one (e.g. a
    zero-initialised phase mask: ``e^{j·0} = 1``).

``cancel_transform_pairs``
    an un-padded inverse FFT immediately followed by an un-padded
    forward FFT (or vice versa) is the identity — this is what makes
    diffraction→modulation→diffraction chains fold once the modulation
    between them is dead or fused away.

``fuse_pointwise``
    two adjacent element-wise multiplies are one multiply by the
    precomputed product: ``(x·a)·b = x·(a·b)``.

The passes run to a fixpoint (each one can expose work for the others),
recursing into skip-connection bodies.

``collapse_cascade`` is the big hammer for nonlinearity-free
classifiers: the entire Encode→…→Intensity→ReadIntensity program is
folded into **one precomputed operator pair** restricted to the pixels
the detector actually reads.  With ``A`` the cascade's linear map from
the input plane to those ``P`` detector pixels, the logits are::

    logits = ((amp @ Re Aᵀ)² + (amp @ Im Aᵀ)²) @ R[pixels]

two real GEMMs against ``(N², P)`` matrices — no FFTs, no complex
arithmetic (the encoded input field has constant phase, which detector
intensity cannot see).  ``A`` is built by the **adjoint method**: row
``p`` of ``A`` is the *transposed* op chain applied to the one-hot
detector field ``e_p``, so the build costs ``P`` pushes (typically a few
hundred) instead of ``N²``; they run in place on one batch of one-hot
fields, in the engine's tiles (:mod:`repro.engine.tiles`) on the
session's threads.  The pixels ``P`` are the ones the plan's read-out
already restricts itself to.  Transposition rules: the unnormalised DFT
matrix is symmetric (``Fᵀ = F``, ``(F⁻¹)ᵀ = F⁻¹``), pad and crop are
mutual transposes, ``fftshift``/``ifftshift`` are mutual transposes (so
the centred Fraunhofer FFT is self-transpose), and diagonal multiplies
are their own (plain, non-conjugate) transpose.

The collapse is gated: classifier plans only (segmentation needs the
full output plane, where a dense operator is a pessimization), and the
operator pair must fit ``max_operator_bytes`` (default 64 MiB) — big
grids with many read pixels stay in FFT form, which is cheaper there
anyway.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

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
    Skip,
    count_ops,
    emit_ops,
    field_bytes,
)
from repro.engine.tiles import run_tiles, tile_size

__all__ = [
    "OPTIMIZE_LEVELS",
    "DEFAULT_OPERATOR_BUDGET",
    "eliminate_dead_kernels",
    "cancel_transform_pairs",
    "fuse_pointwise",
    "transpose_linear_ops",
    "collapse_cascade",
    "optimize_plan",
]

OPTIMIZE_LEVELS = ("none", "fuse", "full")

#: Per-branch cap on the collapsed operator pair (Re + Im), in bytes.
#: 64 MiB admits e.g. a 64x64 grid with a few hundred read pixels but
#: keeps 128x128-and-up grids in FFT form, where FFTs win anyway.
DEFAULT_OPERATOR_BUDGET = 64 * 1024 * 1024


# --------------------------------------------------------------------- #
# Local rewrites
# --------------------------------------------------------------------- #
def eliminate_dead_kernels(ops: Sequence[Op]) -> List[Op]:
    """Drop ``PointwiseMul`` ops whose array is exactly all-ones."""
    out: List[Op] = []
    for op in ops:
        if isinstance(op, PointwiseMul) and np.all(op.values == 1.0):
            continue
        if isinstance(op, Skip):
            op = Skip(
                body=eliminate_dead_kernels(op.body),
                through_amplitude=op.through_amplitude,
                bypass_amplitude=op.bypass_amplitude,
            )
        out.append(op)
    return out


def _cancels(first: Op, second: Op) -> bool:
    if isinstance(first, IFFT) and isinstance(second, FFT):
        return first.crop == 0 and second.pad == 0 and not second.centered
    if isinstance(first, FFT) and isinstance(second, IFFT):
        return first.pad == 0 and not first.centered and second.crop == 0
    return False


def cancel_transform_pairs(ops: Sequence[Op]) -> List[Op]:
    """Remove adjacent un-padded IFFT/FFT (or FFT/IFFT) identity pairs.

    Padded transforms never cancel: crop-then-pad zeroes the border, so
    it is *not* the identity.
    """
    out: List[Op] = []
    for op in ops:
        if isinstance(op, Skip):
            op = Skip(
                body=cancel_transform_pairs(op.body),
                through_amplitude=op.through_amplitude,
                bypass_amplitude=op.bypass_amplitude,
            )
        if out and _cancels(out[-1], op):
            out.pop()
            continue
        out.append(op)
    return out


def fuse_pointwise(ops: Sequence[Op]) -> List[Op]:
    """Fuse adjacent same-shape ``PointwiseMul`` ops into their product."""
    out: List[Op] = []
    for op in ops:
        if isinstance(op, Skip):
            op = Skip(
                body=fuse_pointwise(op.body),
                through_amplitude=op.through_amplitude,
                bypass_amplitude=op.bypass_amplitude,
            )
        if (
            out
            and isinstance(op, PointwiseMul)
            and isinstance(out[-1], PointwiseMul)
            and out[-1].values.shape == op.values.shape
        ):
            previous = out.pop()
            domain = previous.domain if previous.domain == op.domain else "mixed"
            label = "*".join(part for part in (previous.label, op.label) if part)
            out.append(PointwiseMul(values=previous.values * op.values, domain=domain, label=label))
            continue
        out.append(op)
    return out


def _simplify_branch(ops: Sequence[Op]) -> Tuple[List[Op], List[str]]:
    """Run the local rewrites to a fixpoint; return (ops, passes that fired)."""
    current = list(ops)
    applied: List[str] = []
    while True:
        size = _total_ops(current)
        for name, rewrite in (
            ("eliminate_dead_kernels", eliminate_dead_kernels),
            ("cancel_transform_pairs", cancel_transform_pairs),
            ("fuse_pointwise", fuse_pointwise),
        ):
            reduced = rewrite(current)
            if _total_ops(reduced) < _total_ops(current):
                applied.append(name)
                current = reduced
        if _total_ops(current) == size:
            return current, applied


def _total_ops(ops: Sequence[Op]) -> int:
    total = 0
    for op in ops:
        total += 1
        if isinstance(op, Skip):
            total += _total_ops(op.body)
    return total


# --------------------------------------------------------------------- #
# Cascade collapse (nonlinearity-free classifiers)
# --------------------------------------------------------------------- #
_LINEAR_OPS = (FFT, IFFT, Pad, Crop, PointwiseMul)


def _is_linear(op: Op) -> bool:
    if isinstance(op, _LINEAR_OPS):
        return True
    if isinstance(op, Skip):
        return all(_is_linear(inner) for inner in op.body)
    return False


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
        elif isinstance(op, Skip):
            transposed.append(
                Skip(
                    body=transpose_linear_ops(op.body),
                    through_amplitude=op.through_amplitude,
                    bypass_amplitude=op.bypass_amplitude,
                )
            )
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
        if not all(_is_linear(op) for op in ops[1:-1]):
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


def collapse_cascade(
    plan: Plan, fft, max_operator_bytes: Optional[int] = None, workers: int = 1
) -> Optional[Plan]:
    """Fold a linear classifier plan into precomputed detector operators.

    Returns the collapsed plan, or ``None`` when the plan is ineligible
    (nonlinear, segmentation, or over the operator budget).  ``workers``
    threads push the one-hot basis through the transposed chain; the
    operator is bit-identical for any count.
    """
    if max_operator_bytes is None:
        max_operator_bytes = DEFAULT_OPERATOR_BUDGET
    if not _collapsible(plan):
        return None
    readout = plan.readout
    pixels = readout.pixels
    if pixels.size == 0:
        return None
    cells = plan.grid.size * plan.grid.size
    per_branch = 2 * plan.rdtype.itemsize * cells * int(pixels.size)
    if per_branch * len(plan.branches) > max_operator_bytes:
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


def optimize_plan(
    plan: Plan,
    optimize: str = "full",
    fft=None,
    max_operator_bytes: Optional[int] = None,
    workers: int = 1,
) -> Tuple[Plan, dict]:
    """Run the pass pipeline at the requested level.

    ``optimize`` is ``"none"`` (pass-through), ``"fuse"`` (local rewrites
    only) or ``"full"`` (local rewrites plus cascade collapse).  Returns
    ``(optimized_plan, report)``; the input plan is never mutated.  The
    FFT backend and ``workers`` (threads) are only used by ``"full"``
    (the collapse executes the transposed chain to build the operator).
    """
    if optimize not in OPTIMIZE_LEVELS:
        raise ValueError(f"optimize must be one of {OPTIMIZE_LEVELS}, got {optimize!r}")
    before = count_ops(plan)
    report = {
        "optimize": optimize,
        "ops_before": before,
        "fft_ops_before": _fft_op_count(before),
        "passes": [],
        "collapsed": False,
    }
    result = plan
    if optimize != "none":
        applied: List[str] = []
        branches = []
        for branch in plan.branches:
            simplified, fired = _simplify_branch(branch.ops)
            applied.extend(name for name in fired if name not in applied)
            branches.append(Branch(ops=simplified, channel=branch.channel))
        result = Plan(
            kind=plan.kind,
            grid=plan.grid,
            cdtype=plan.cdtype,
            branches=branches,
            tail=list(plan.tail),
            num_outputs=plan.num_outputs,
            num_channels=plan.num_channels,
        )
        report["passes"] = applied
        if optimize == "full":
            if fft is None:
                raise ValueError("optimize='full' needs the FFT backend to build the collapsed operator")
            collapsed = collapse_cascade(result, fft, max_operator_bytes, workers)
            if collapsed is not None:
                result = collapsed
                report["passes"] = applied + ["collapse_cascade"]
                report["collapsed"] = True
    after = count_ops(result)
    report["ops_after"] = after
    report["fft_ops_after"] = _fft_op_count(after)
    return result, report
