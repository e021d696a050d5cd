"""The inference engine's plan IR: typed ops between spec and backend.

The engine used to compile a model straight into closures inside
``InferenceSession.__init__``; there was no artefact *between* "trained
model" and "callable program" that optimization could inspect.  This
module introduces that artefact, in the spirit of tinygrad's
schedule/compile split: a declarative model (or
:class:`~repro.engine.SessionSpec`) is **lowered** to a :class:`Plan` —
a small list of typed ops per optical branch — which
:mod:`repro.engine.passes` rewrites (fusion, folding, dead-kernel
elimination, cascade collapse) before :func:`emit` turns it into the
numpy program the session executes.

The pipeline is::

    model / SessionSpec
        │ lower()                (snapshot eval-mode arrays, build ops)
        ▼
    Plan: [Encode, FFT, PointwiseMul, IFFT, PointwiseMul, ..., Intensity]
        │ passes.optimize_plan() (fuse / fold / eliminate / collapse)
        ▼
    Plan': e.g. [Encode, DetectorOperator]
        │ emit()                 (close ops over the FFT backend)
        ▼
    CompiledProgram              (what InferenceSession.run drives)

Op vocabulary
-------------

``Encode``          image batch -> complex field (or real amplitude)
``FFT`` / ``IFFT``  2-D transforms, with optional zero-pad / centre-crop
``Pad`` / ``Crop``  standalone border ops (produced by transposition)
``PointwiseMul``    element-wise multiply by a cached array (a diffraction
                    transfer function in the frequency domain, a phase
                    modulation or Fraunhofer prefactor in the spatial one)
``Nonlinear``       an optical nonlinearity's point-wise ndarray map
``Skip``            optical skip connection around a nested op list
``Intensity``       complex field -> ``|field|^2``
``DetectorOperator``fused linear cascade: real amplitude -> per-pixel
                    intensity at the detector read-out pixels (see
                    ``passes.collapse_cascade``)
``ReadIntensity``   intensity -> per-class logits via the read-out matrix

All arrays an op carries are plain ndarrays snapshotted in eval mode, so
a ``Plan`` is inert data: it can be printed (``format_plan``), counted
(``count_ops``), rewritten by passes, and emitted any number of times.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.autograd import no_grad
from repro.layers.encoding import data_to_cplex, resize_images
from repro.layers.nonlinearity import NonlinearLayer
from repro.models.donn import DONN
from repro.models.multichannel import MultiChannelDONN
from repro.models.segmentation import SegmentationDONN
from repro.optics.propagation import FraunhoferPropagator, Propagator

__all__ = [
    "Op",
    "Encode",
    "FFT",
    "IFFT",
    "Pad",
    "Crop",
    "PointwiseMul",
    "Nonlinear",
    "Skip",
    "Intensity",
    "DetectorOperator",
    "ReadIntensity",
    "Branch",
    "Plan",
    "lower",
    "emit",
    "emit_ops",
    "count_ops",
    "format_plan",
]

FieldFn = Callable[[np.ndarray], np.ndarray]


def _real_dtype(cdtype: np.dtype) -> np.dtype:
    return np.dtype(np.float32 if np.dtype(cdtype) == np.complex64 else np.float64)


# --------------------------------------------------------------------- #
# Op vocabulary
# --------------------------------------------------------------------- #
@dataclass(eq=False)
class Op:
    """Base class for plan ops (carries nothing; subclasses hold arrays)."""

    def describe(self) -> str:
        return type(self).__name__


@dataclass(eq=False)
class Encode(Op):
    """Image batch -> input wavefield on the grid.

    ``mode="field"`` produces the complex field (``sqrt(I) * af * e^{j0}``,
    exactly :func:`~repro.layers.encoding.data_to_cplex`); the collapse
    pass rewrites it to ``mode="amplitude"``, the real amplitude only —
    valid because the encoded phase is a constant, which is invisible to
    detector intensity.  ``scale`` carries the multi-channel beam-splitter
    factor.
    """

    amplitude_factor: float = 1.0
    scale: float = 1.0
    mode: str = "field"  # "field" | "amplitude"

    def describe(self) -> str:
        extra = "" if self.mode == "field" else ", amplitude"
        scale = "" if self.scale == 1.0 else f", scale={self.scale:.4g}"
        return f"Encode(af={self.amplitude_factor:g}{scale}{extra})"


@dataclass(eq=False)
class FFT(Op):
    """Forward 2-D FFT; ``pad`` zero-pads the border first, ``centered``
    is the ``fftshift(fft2(ifftshift(.)))`` form used by Fraunhofer."""

    pad: int = 0
    centered: bool = False

    def describe(self) -> str:
        bits = [b for b in (f"pad={self.pad}" if self.pad else "", "centered" if self.centered else "") if b]
        return f"FFT({', '.join(bits)})"


@dataclass(eq=False)
class IFFT(Op):
    """Inverse 2-D FFT; ``crop`` removes a zero-pad border afterwards."""

    crop: int = 0

    def describe(self) -> str:
        return f"IFFT({f'crop={self.crop}' if self.crop else ''})"


@dataclass(eq=False)
class Pad(Op):
    """Standalone zero-pad border (appears in transposed linear chains)."""

    width: int = 0

    def describe(self) -> str:
        return f"Pad({self.width})"


@dataclass(eq=False)
class Crop(Op):
    """Standalone centre-crop border (appears in transposed linear chains)."""

    width: int = 0

    def describe(self) -> str:
        return f"Crop({self.width})"


@dataclass(eq=False)
class PointwiseMul(Op):
    """Element-wise multiply by a cached complex array.

    ``domain`` records which basis the multiply is diagonal in:
    ``"freq"`` for diffraction transfer functions (between FFT and IFFT)
    and ``"space"`` for phase modulations / the Fraunhofer prefactor.
    Fusion treats any two adjacent multiplies as one product; the domain
    tag is for introspection and plan dumps.
    """

    values: np.ndarray = None
    domain: str = "space"
    label: str = ""

    def describe(self) -> str:
        shape = "x".join(str(s) for s in self.values.shape)
        label = f" ({self.label})" if self.label else ""
        return f"PointwiseMul[{self.domain} {shape}]{label}"


@dataclass(eq=False)
class Nonlinear(Op):
    """A point-wise optical nonlinearity (compile barrier for fusion)."""

    layer: NonlinearLayer = None
    label: str = ""

    def describe(self) -> str:
        return f"Nonlinear({self.label or type(self.layer).__name__})"


@dataclass(eq=False)
class Skip(Op):
    """Optical skip connection: ``through * body(field) + bypass * field``."""

    body: List[Op] = dataclass_field(default_factory=list)
    through_amplitude: float = 1.0
    bypass_amplitude: float = 0.0

    def describe(self) -> str:
        return (
            f"Skip(through={self.through_amplitude:.4g}, bypass={self.bypass_amplitude:.4g}, "
            f"body={len(self.body)} ops)"
        )


@dataclass(eq=False)
class Intensity(Op):
    """Complex field -> real intensity ``|field|^2``."""


@dataclass(eq=False)
class DetectorOperator(Op):
    """A whole linear optical cascade folded to one precomputed operator.

    Maps the real input amplitude straight to the light intensity at the
    ``pixels`` the detector actually reads: with ``A`` the cascade's
    linear operator restricted to those output pixels,
    ``intensity = (amp @ Re A)^2 + (amp @ Im A)^2``.  Two real GEMMs
    replace every FFT round trip of the cascade.
    """

    op_real: np.ndarray = None  # (N*N, P)
    op_imag: np.ndarray = None  # (N*N, P)
    pixels: np.ndarray = None  # (P,) flat detector-plane indices

    def describe(self) -> str:
        cells, pix = self.op_real.shape
        return f"DetectorOperator({cells}->{pix} px)"


@dataclass(eq=False)
class ReadIntensity(Op):
    """Intensity -> per-class logits via the detector read-out matrix.

    ``from_plane`` distinguishes a full ``(..., N, N)`` intensity image
    (flattened before the matmul) from the already-flat per-pixel vector
    a :class:`DetectorOperator` produces.
    """

    matrix: np.ndarray = None  # (pixels, num_classes)
    from_plane: bool = True

    def describe(self) -> str:
        pixels, classes = self.matrix.shape
        return f"ReadIntensity({pixels} px -> {classes} classes)"


# --------------------------------------------------------------------- #
# Plan container
# --------------------------------------------------------------------- #
@dataclass(eq=False)
class Branch:
    """One optical path: ops from image batch to detector-plane intensity.

    ``channel`` selects the input slice for multi-channel models
    (``images[..., channel, :, :]``); ``None`` consumes the whole input.
    """

    ops: List[Op]
    channel: Optional[int] = None


@dataclass(eq=False)
class Plan:
    """A lowered model: branches of typed ops plus a shared read-out tail.

    Execution semantics (what :func:`emit` implements): every branch maps
    its input slice to a detector-plane intensity; branch intensities add
    (incoherent multi-channel detection); the ``tail`` ops map the summed
    intensity to the output (per-class logits for classifiers, nothing
    further for segmentation).
    """

    kind: str  # "classifier" | "segmentation"
    grid: object  # SpatialGrid
    cdtype: np.dtype
    branches: List[Branch]
    tail: List[Op]
    num_outputs: Optional[int] = None
    num_channels: Optional[int] = None
    read_matrix: Optional[np.ndarray] = None  # full-plane (N*N, C), rdtype

    @property
    def rdtype(self) -> np.dtype:
        return _real_dtype(self.cdtype)

    @property
    def collapsed(self) -> bool:
        """True when the cascade folded into precomputed operators."""
        return any(isinstance(op, DetectorOperator) for branch in self.branches for op in branch.ops)


def count_ops(plan: Plan) -> dict:
    """Op counts by type name, recursing into skip bodies (sorted keys)."""

    counts: dict = {}

    def visit(ops: Sequence[Op]) -> None:
        for op in ops:
            counts[type(op).__name__] = counts.get(type(op).__name__, 0) + 1
            if isinstance(op, Skip):
                visit(op.body)

    for branch in plan.branches:
        visit(branch.ops)
    visit(plan.tail)
    return dict(sorted(counts.items()))


def format_plan(plan: Plan, indent: str = "") -> str:
    """Human-readable op listing (what ``tools/dump_plan.py`` prints)."""

    lines: List[str] = []

    def visit(ops: Sequence[Op], depth: int) -> None:
        pad = indent + "  " * depth
        for op in ops:
            lines.append(f"{pad}{op.describe()}")
            if isinstance(op, Skip):
                visit(op.body, depth + 1)

    for index, branch in enumerate(plan.branches):
        if plan.num_channels is not None:
            lines.append(f"{indent}branch[channel={branch.channel}]:")
        elif len(plan.branches) > 1:  # pragma: no cover - no such family yet
            lines.append(f"{indent}branch[{index}]:")
        else:
            lines.append(f"{indent}branch:")
        visit(branch.ops, 1)
    if plan.tail:
        lines.append(f"{indent}tail:")
        visit(plan.tail, 1)
    return "\n".join(lines)


# --------------------------------------------------------------------- #
# Lowering: model -> Plan
# --------------------------------------------------------------------- #
def _snapshot_modulation(layer, cdtype: np.dtype) -> np.ndarray:
    with no_grad():
        return np.ascontiguousarray(layer.modulation().data).astype(cdtype, copy=False)


def _lower_propagator(propagator: Propagator, cdtype: np.dtype) -> List[Op]:
    if isinstance(propagator, FraunhoferPropagator):
        prefactor = np.ascontiguousarray(propagator._prefactor_tensor().data).astype(cdtype, copy=False)
        return [
            FFT(centered=True),
            PointwiseMul(values=prefactor, domain="space", label="fraunhofer_prefactor"),
        ]
    transfer = np.ascontiguousarray(propagator.transfer_function).astype(cdtype, copy=False)
    pad = (propagator._work_grid.size - propagator.grid.size) // 2
    return [
        FFT(pad=pad),
        PointwiseMul(values=transfer, domain="freq", label=propagator.name),
        IFFT(crop=pad),
    ]


def _lower_nonlinearity(nonlinearity) -> Nonlinear:
    if isinstance(nonlinearity, NonlinearLayer) or hasattr(nonlinearity, "apply_numpy"):
        return Nonlinear(layer=nonlinearity, label=type(nonlinearity).__name__)
    raise TypeError(
        f"cannot compile nonlinearity {type(nonlinearity).__name__}: "
        "engine compilation needs a NonlinearLayer (or any module exposing apply_numpy)"
    )


def _lower_stack(layers, cdtype: np.dtype, nonlinearity=None) -> List[Op]:
    nonlinear_op = _lower_nonlinearity(nonlinearity) if nonlinearity is not None else None
    ops: List[Op] = []
    for layer in layers:
        ops.extend(_lower_propagator(layer.propagator, cdtype))
        ops.append(PointwiseMul(values=_snapshot_modulation(layer, cdtype), domain="space", label="modulation"))
        if nonlinear_op is not None:
            ops.append(Nonlinear(layer=nonlinear_op.layer, label=nonlinear_op.label))
    return ops


def _read_matrix(model, rdtype: np.dtype) -> np.ndarray:
    return np.ascontiguousarray(model.detector.read_matrix()).astype(rdtype, copy=False)


def _lower_donn(model: DONN, cdtype: np.dtype) -> Plan:
    config = model.config
    ops: List[Op] = [Encode(amplitude_factor=config.amplitude_factor)]
    ops.extend(_lower_stack(model.diffractive_layers, cdtype, model.nonlinearity))
    ops.extend(_lower_propagator(model.final_propagator, cdtype))
    ops.append(Intensity())
    read = _read_matrix(model, _real_dtype(cdtype))
    return Plan(
        kind="classifier",
        grid=config.grid,
        cdtype=cdtype,
        branches=[Branch(ops=ops)],
        tail=[ReadIntensity(matrix=read, from_plane=True)],
        num_outputs=model.detector.num_classes,
        read_matrix=read,
    )


def _lower_multichannel(model: MultiChannelDONN, cdtype: np.dtype) -> Plan:
    config = model.config
    branches: List[Branch] = []
    for index, channel in enumerate(model.channels):
        ops: List[Op] = [Encode(amplitude_factor=config.amplitude_factor, scale=model._channel_scale)]
        ops.extend(_lower_stack(channel, cdtype, model.nonlinearity))
        ops.extend(_lower_propagator(model.final_propagator, cdtype))
        ops.append(Intensity())
        branches.append(Branch(ops=ops, channel=index))
    read = _read_matrix(model, _real_dtype(cdtype))
    return Plan(
        kind="classifier",
        grid=config.grid,
        cdtype=cdtype,
        branches=branches,
        tail=[ReadIntensity(matrix=read, from_plane=True)],
        num_outputs=model.detector.num_classes,
        num_channels=model.num_channels,
        read_matrix=read,
    )


def _lower_segmentation(model: SegmentationDONN, cdtype: np.dtype) -> Plan:
    config = model.config
    nonlinearity = model.nonlinearity
    ops: List[Op] = [Encode(amplitude_factor=config.amplitude_factor)]
    ops.extend(_lower_stack([model.entry_layer], cdtype, nonlinearity))
    if model.use_skip:
        skip_weight = model.inner.skip_weight
        ops.append(
            Skip(
                body=_lower_stack(model.inner.body, cdtype, nonlinearity),
                through_amplitude=float(np.sqrt(1.0 - skip_weight)),
                bypass_amplitude=float(np.sqrt(skip_weight)),
            )
        )
    else:
        ops.extend(_lower_stack(model.inner, cdtype, nonlinearity))
    ops.extend(_lower_stack([model.exit_layer], cdtype, nonlinearity))
    ops.extend(_lower_propagator(model.final_propagator, cdtype))
    ops.append(Intensity())
    return Plan(
        kind="segmentation",
        grid=config.grid,
        cdtype=cdtype,
        branches=[Branch(ops=ops)],
        tail=[],
    )


def _lowering_for(model) -> Callable:
    """``model``'s lowering function: the one check of what the engine compiles.

    Raises ``TypeError`` for anything but the three compilable model families.
    """
    if isinstance(model, SegmentationDONN):
        return _lower_segmentation
    if isinstance(model, MultiChannelDONN):
        return _lower_multichannel
    if isinstance(model, DONN):
        return _lower_donn
    raise TypeError(
        f"cannot compile {type(model).__name__}; expected DONN, MultiChannelDONN or SegmentationDONN"
    )


def lower(model, dtype="complex128") -> Plan:
    """Lower a trained model to a :class:`Plan`, snapshotting in eval mode.

    The model's train/eval mode is restored afterwards; later parameter
    updates do **not** propagate into the plan's cached arrays.  Raises
    ``TypeError`` for anything but the three compilable model families.
    """
    cdtype = np.dtype(dtype)
    lower_fn = _lowering_for(model)
    was_training = model.training
    model.eval()
    try:
        with no_grad():
            return lower_fn(model, cdtype)
    finally:
        model.train(was_training)


# --------------------------------------------------------------------- #
# Emission: Plan -> CompiledProgram
# --------------------------------------------------------------------- #
def _encode_amplitude(images: np.ndarray, grid, amplitude_factor: float, rdtype: np.dtype) -> np.ndarray:
    """The real amplitude :func:`data_to_cplex` would put on the wave.

    Identical numerics to the field encode with the constant phase
    dropped: ``sqrt(clip(I, 0, -)) * amplitude_factor``.
    """
    array = np.asarray(images, dtype=float)
    if array.shape[-1] != grid.size:
        array = resize_images(array, grid.size)
    amplitude = np.sqrt(np.clip(array, 0.0, None)) * amplitude_factor
    return amplitude.astype(rdtype, copy=False)


def _pad2d(field: np.ndarray, width: int) -> np.ndarray:
    widths = [(0, 0)] * (field.ndim - 2) + [(width, width), (width, width)]
    return np.pad(field, widths, mode="constant")


def _emit_op(op: Op, fft, cdtype: np.dtype) -> FieldFn:
    """Close one op over the FFT backend.

    Emitted pipelines own their intermediates: every array reaching a
    ``PointwiseMul`` or an FFT was freshly allocated by an upstream op (or
    by the caller, for hand-built pipelines), so the in-place multiply and
    the transforms' ``overwrite_x=True`` are safe.
    """
    if isinstance(op, Encode):
        # Encode needs the plan's grid; CompiledProgram binds it directly.
        raise TypeError("Encode ops are emitted by CompiledProgram, not _emit_op")

    if isinstance(op, FFT):
        pad, centered = op.pad, op.centered
        if centered:

            def centered_fft(field: np.ndarray) -> np.ndarray:
                shifted = np.fft.ifftshift(field, axes=(-2, -1))
                return np.fft.fftshift(fft.fft2(shifted, overwrite_x=True), axes=(-2, -1))

            return centered_fft

        def forward(field: np.ndarray) -> np.ndarray:
            if pad:
                field = _pad2d(field, pad)
            return fft.fft2(field, overwrite_x=True)

        return forward

    if isinstance(op, IFFT):
        crop = op.crop

        def inverse(spectrum: np.ndarray) -> np.ndarray:
            out = fft.ifft2(spectrum, overwrite_x=True)
            if crop:
                out = out[..., crop:-crop, crop:-crop]
            return out

        return inverse

    if isinstance(op, Pad):
        width = op.width
        return lambda field: _pad2d(field, width)

    if isinstance(op, Crop):
        width = op.width
        return lambda field: field[..., width:-width, width:-width]

    if isinstance(op, PointwiseMul):
        values = op.values

        def multiply(field: np.ndarray) -> np.ndarray:
            field *= values
            return field

        return multiply

    if isinstance(op, Nonlinear):
        return op.layer.apply_numpy

    if isinstance(op, Skip):
        body = _emit_chain(op.body, fft, cdtype)
        through, bypass = op.through_amplitude, op.bypass_amplitude

        def skip(field: np.ndarray) -> np.ndarray:
            processed = body((field * through).astype(cdtype, copy=False))
            return processed + (field * bypass).astype(cdtype, copy=False)

        return skip

    if isinstance(op, Intensity):
        return lambda field: (field * np.conj(field)).real

    if isinstance(op, DetectorOperator):
        op_real, op_imag = op.op_real, op.op_imag
        cells = op_real.shape[0]

        def fused(amplitude: np.ndarray) -> np.ndarray:
            flat = amplitude.reshape(amplitude.shape[:-2] + (cells,))
            real_part = flat @ op_real
            imag_part = flat @ op_imag
            real_part *= real_part
            imag_part *= imag_part
            real_part += imag_part
            return real_part

        return fused

    if isinstance(op, ReadIntensity):
        matrix = op.matrix
        if op.from_plane:

            def read_plane(intensity: np.ndarray) -> np.ndarray:
                pixels = intensity.shape[-2] * intensity.shape[-1]
                flat = intensity.reshape(intensity.shape[:-2] + (pixels,))
                return flat @ matrix

            return read_plane
        return lambda intensity: intensity @ matrix

    raise TypeError(f"cannot emit op {type(op).__name__}")  # pragma: no cover - guarded by lowering


def _emit_chain(ops: Sequence[Op], fft, cdtype: np.dtype) -> FieldFn:
    fns = [_emit_op(op, fft, cdtype) for op in ops]

    def run(field: np.ndarray) -> np.ndarray:
        for fn in fns:
            field = fn(field)
        return field

    return run


def emit_ops(ops: Sequence[Op], fft, cdtype) -> FieldFn:
    """Emit a bare op chain (no :class:`Encode`) as one callable.

    Used by the passes to *execute* a linear sub-chain while building the
    collapsed operator; the input array must be owned by the caller (the
    chain multiplies in place).
    """
    cdtype = np.dtype(cdtype)
    if any(isinstance(op, Encode) for op in ops):
        raise ValueError("emit_ops() emits bare chains; Encode needs the plan context (use emit())")
    return _emit_chain(ops, fft, cdtype)


class CompiledProgram:
    """An emitted plan: the flat numpy program ``InferenceSession`` drives.

    ``run`` maps an image batch to the model output (logits or intensity
    map).  ``intensity`` exposes the full detector-plane intensity and is
    ``None`` on collapsed programs (the fold computes only the read-out
    pixels); the session keeps an unoptimized reference program for that.
    """

    def __init__(self, plan: Plan, fft):
        self.plan = plan
        self.kind = plan.kind
        self.grid = plan.grid
        self.cdtype = plan.cdtype
        self.rdtype = plan.rdtype
        self.num_outputs = plan.num_outputs
        self.num_channels = plan.num_channels
        self.expects_channels = plan.num_channels is not None
        self.collapsed = plan.collapsed
        self.read_matrix = plan.read_matrix
        self._branches: List[Tuple[Optional[int], FieldFn]] = []
        for branch in plan.branches:
            encode_op = branch.ops[0]
            if not isinstance(encode_op, Encode):  # pragma: no cover - lowering invariant
                raise TypeError("every branch must start with an Encode op")
            chain = _emit_chain(branch.ops[1:], fft, plan.cdtype)
            self._branches.append((branch.channel, self._bind_encode(encode_op, chain)))
        self._tail = [_emit_op(op, fft, plan.cdtype) for op in plan.tail]

    def _bind_encode(self, op: Encode, chain: FieldFn) -> FieldFn:
        grid = self.grid
        cdtype, rdtype = self.cdtype, self.rdtype
        amplitude_factor, scale, mode = op.amplitude_factor, op.scale, op.mode

        if mode == "amplitude":

            def run_amplitude(images: np.ndarray) -> np.ndarray:
                amplitude = _encode_amplitude(images, grid, amplitude_factor, rdtype)
                if scale != 1.0:
                    amplitude = amplitude * rdtype.type(scale)
                return chain(amplitude)

            return run_amplitude

        def run_field(images: np.ndarray) -> np.ndarray:
            field = np.asarray(
                data_to_cplex(images, grid=grid, amplitude_factor=amplitude_factor).data
            ).astype(cdtype, copy=False)
            if scale != 1.0:
                field = field * scale
                field = field.astype(cdtype, copy=False)
            elif not field.flags.owndata:  # astype(copy=False) may alias the tensor
                field = field.copy()
            return chain(field)

        return run_field

    # ------------------------------------------------------------------ #
    def _branch_intensity(self, images: np.ndarray) -> np.ndarray:
        if self.expects_channels:
            if images.shape[-3] != self.num_channels:
                raise ValueError(f"expected {self.num_channels} channels, got {images.shape[-3]}")
            total: Optional[np.ndarray] = None
            for channel, branch_fn in self._branches:
                contribution = branch_fn(images[..., channel, :, :])
                total = contribution if total is None else total + contribution
            return total
        (_, branch_fn), = self._branches
        return branch_fn(images)

    def run(self, images: np.ndarray) -> np.ndarray:
        out = self._branch_intensity(images)
        for tail_fn in self._tail:
            out = tail_fn(out)
        return out

    @property
    def intensity(self):
        """Full detector-plane intensity fn, or ``None`` when collapsed."""
        if self.collapsed:
            return None
        return self._branch_intensity

    def read(self, intensity: np.ndarray) -> np.ndarray:
        """Integrate a full-plane intensity over the per-class regions."""
        pixels = intensity.shape[-2] * intensity.shape[-1]
        flat = intensity.reshape(intensity.shape[:-2] + (pixels,))
        return flat @ self.read_matrix


def emit(plan: Plan, fft) -> CompiledProgram:
    """Emit a plan into an executable :class:`CompiledProgram`."""
    return CompiledProgram(plan, fft)
