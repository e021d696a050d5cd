"""Dump a model's engine plan before and after the optimization pass.

A debugging/teaching lens on the ``repro.engine`` compile pipeline
(``docs/engine.md``): builds a DONN from CLI parameters, lowers it to the
plan IR, runs ``optimize_plan`` at the requested level, and prints both
op listings plus the pass report.

Run from the repo root::

    PYTHONPATH=src python tools/dump_plan.py --sys-size 32 --num-layers 3
    PYTHONPATH=src python tools/dump_plan.py --nonlinearity saturable
    PYTHONPATH=src python tools/dump_plan.py --optimize none

The printing logic lives in :func:`repro.engine.plan.format_plan` /
:func:`dump_plan` here, so docs doctests and tests can call it without a
subprocess.
"""

from __future__ import annotations

import argparse

from repro.engine import OPTIMIZE_LEVELS, get_fft_backend, optimize_plan
from repro.engine.plan import count_ops, format_plan, lower
from repro.models.config import DONNConfig
from repro.models.donn import DONN


def dump_plan(model, optimize: str = "full", dtype: str = "complex128", backend: str = "auto") -> str:
    """Lowered and optimized plan listings for ``model``, as one string."""
    fft = get_fft_backend(backend)
    raw = lower(model, dtype)
    optimized, report = optimize_plan(raw, optimize, fft=fft)
    lines = [
        f"plan for {type(model).__name__} (kind={raw.kind}, grid={raw.grid.size}x{raw.grid.size}, "
        f"dtype={raw.cdtype.name})",
        "",
        f"before passes ({sum(count_ops(raw).values())} ops):",
        format_plan(raw, indent="  "),
        "",
        f"after optimize={optimize!r} ({sum(count_ops(optimized).values())} ops):",
        format_plan(optimized, indent="  "),
        "",
        f"passes applied: {', '.join(report['passes']) or '(none)'}",
        f"FFT ops: {report['fft_ops_before']} -> {report['fft_ops_after']}"
        + ("  [cascade collapsed to precomputed operator]" if report["collapsed"] else ""),
    ]
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sys-size", type=int, default=32)
    parser.add_argument("--num-layers", type=int, default=3)
    parser.add_argument("--num-classes", type=int, default=10)
    parser.add_argument("--approx", default="rayleigh_sommerfeld")
    parser.add_argument("--pad-factor", type=int, default=1)
    parser.add_argument("--nonlinearity", default=None, choices=(None, "saturable", "kerr"))
    parser.add_argument("--optimize", default="full", choices=OPTIMIZE_LEVELS)
    parser.add_argument("--dtype", default="complex128", choices=("complex64", "complex128"))
    parser.add_argument("--backend", default="auto")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    config = DONNConfig(
        sys_size=args.sys_size,
        pixel_size=36e-6,
        distance=0.1,
        wavelength=532e-9,
        num_layers=args.num_layers,
        num_classes=args.num_classes,
        approx=args.approx,
        pad_factor=args.pad_factor,
        seed=args.seed,
    )
    model = DONN(config, nonlinearity=args.nonlinearity)
    print(dump_plan(model, optimize=args.optimize, dtype=args.dtype, backend=args.backend))


if __name__ == "__main__":
    main()
