"""The ``design-200`` workload: the paper's designer loop at sys 200.

Each pass trains the seeded 5-layer 200x200 DONN through autograd on
the training set, ``TRAIN_STEP`` images per ``Trainer.train_epoch`` call
(one optimizer step), compiles it (``engine.compile``; at this size the
operator budget keeps the FFT cascade), and emulates the held-out set
through ``session.run`` in 32-image batches.  Every emulated output is
then checked against the autograd eval path at ``atol=1e-10``, outside
the timed regions.

Between each two timed steps, and between each two emulation calls,
the benchmark times a reference kernel: one free-space propagation of
as many 200x200 fields as the step or call handles (so that it sits in
the same levels of cache), with the FFT code the work uses
(``numpy.fft`` in autograd, the engine's ``scipy.fft``).  The
end-to-end figures are the medians of step time and emulation rate
relative to the mean kernel time around them, scaled to milliseconds
and images per second at the kernel's time on the reference host
(``STEP_KERNEL_MS``, ``CALL_KERNEL_MS``).  The host this was tuned on
drifts by tens of percent in speed over seconds to minutes, on
FFT-heavy work most; the paired ratio cancels that drift while a slower
program still moves it.

With ``--trace 1`` the first half of the run is untraced and the second
half runs with a model proxy timing the forward pass and an optimizer
proxy timing the step; backward (with the loss) is the time between.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from common import Outcome, ReferenceKernel, SpanRecorder, layer_report, median, peak_rss_mb
from inputs import BATCH, DESIGN_SYS, NUM_CLASSES, design_data, design_model
from metrics import PER_LAYER

SETUP_REPS = 5
#: Training images per ``train_epoch`` call: one optimizer step.
TRAIN_STEP = 8
#: The step and call kernels' times on the reference host (2-core shared
#: x86-64 VM), which the drift-corrected figures are scaled to.
STEP_KERNEL_MS = 18.0
CALL_KERNEL_MS = 70.0
NUM_TRAIN = 64
NUM_TEST = 128
#: Compiles per pass, for ``engine.compile_ms``.
COMPILES_PER_PASS = 5
ATOL = 1e-10


def _engine_fft():
    """The FFT module the engine's default backend uses: ``scipy.fft``, else ``numpy.fft``."""
    try:
        import scipy.fft

        return scipy.fft
    except ImportError:
        return np.fft


class TimedModel:
    """Forwards to the model; records the wall interval of each forward."""

    def __init__(self, model, recorder: SpanRecorder, key):
        self._model = model
        self._recorder = recorder
        self._key = key

    def __call__(self, *args, **kwargs):
        start = time.monotonic()
        out = self._model(*args, **kwargs)
        self._recorder.add("train.forward", self._key(), start, time.monotonic(), "train.epoch")
        return out

    def __getattr__(self, name):
        return getattr(self._model, name)


class TimedOptimizer:
    """Forwards to the optimizer; records each step, and backward as the gap before it."""

    def __init__(self, optimizer, recorder: SpanRecorder, key):
        self._optimizer = optimizer
        self._recorder = recorder
        self._key = key

    def step(self):
        start = time.monotonic()
        self._optimizer.step()
        key = self._key()
        forwards = [s for s in self._recorder.spans if s.layer == "train.forward" and s.key == key]
        if forwards:
            self._recorder.add("train.backward", key, forwards[-1].end, start, "train.epoch")
        self._recorder.add("train.step", key, start, time.monotonic(), "train.epoch")

    def __getattr__(self, name):
        return getattr(self._optimizer, name)


class Designer:
    """One set-up: model, data and trainer, ready to loop."""

    def __init__(self, seed: int):
        from repro import Trainer

        started = time.monotonic()
        self.model = design_model(seed)
        self.train_x, self.train_y, self.test_x, _ = design_data(seed, NUM_TRAIN, NUM_TEST)
        self.trainer = Trainer(self.model, num_classes=NUM_CLASSES, batch_size=TRAIN_STEP, seed=seed)
        self.setup_s = time.monotonic() - started
        self.step_kernel = ReferenceKernel((TRAIN_STEP, DESIGN_SYS, DESIGN_SYS))
        self.call_kernel = ReferenceKernel((BATCH, DESIGN_SYS, DESIGN_SYS), fft=_engine_fft())
        self.passes: List[Dict] = []

    def run_pass(self, recorder: SpanRecorder = None) -> Dict:
        """Train, compile and emulate once; returns the pass's timings."""
        from repro.engine import compile as engine_compile

        key = str(len(self.passes))
        t0 = time.monotonic()
        steps, step_kernel = [], []
        kernel_s = self.step_kernel.time_s()
        for start in range(0, len(self.train_x), TRAIN_STEP):
            step = slice(start, start + TRAIN_STEP)
            s0 = time.monotonic()
            self.trainer.train_epoch(self.train_x[step], self.train_y[step])
            steps.append(time.monotonic() - s0)
            before, kernel_s = kernel_s, self.step_kernel.time_s()
            step_kernel.append((before + kernel_s) / 2.0)
        t1 = time.monotonic()
        compiles = []
        for _ in range(COMPILES_PER_PASS):
            c0 = time.monotonic()
            session = engine_compile(self.model, batch_size=BATCH)
            compiles.append(time.monotonic() - c0)
        t2 = time.monotonic()
        outputs, calls, call_kernel = [], [], []
        kernel_s = self.call_kernel.time_s()
        for start in range(0, len(self.test_x), BATCH):
            c0 = time.monotonic()
            outputs.append(session.run(self.test_x[start : start + BATCH]))
            calls.append((c0, time.monotonic()))
            before, kernel_s = kernel_s, self.call_kernel.time_s()
            call_kernel.append((before + kernel_s) / 2.0)
        t3 = time.monotonic()
        if recorder is not None:
            recorder.add("design.loop", key, t0, t3)
            recorder.add("train.epoch", key, t0, t1, "design.loop")
            recorder.add("engine.compile", key, t1, t2, "design.loop")  # all COMPILES_PER_PASS
            recorder.add("engine.emulate", key, t2, t3, "design.loop")
            for c0, c1 in calls:
                recorder.add("engine.run", key, c0, c1, "engine.emulate")
        result = {
            "loop_s": t3 - t0,
            "train_s": t1 - t0,
            "step_s": steps,
            "step_vs_kernel": [s / k for s, k in zip(steps, step_kernel)],
            "compile_s": compiles,
            "emulate_s": t3 - t2,
            "call_ms": [(c1 - c0) * 1000.0 for c0, c1 in calls],
            "images_per_kernel": [BATCH * k / (c1 - c0) for (c0, c1), k in zip(calls, call_kernel)],
            "mismatch": self._check(np.concatenate(outputs)),
            "session": session,
        }
        self.passes.append(result)
        return result

    def _check(self, emulated: np.ndarray) -> int:
        """Emulated rows that differ from the autograd eval path by more than ``ATOL``."""
        from repro.autograd import no_grad

        was_training = self.model.training
        self.model.eval()
        try:
            with no_grad():
                reference = np.concatenate(
                    [
                        np.asarray(self.model(self.test_x[start : start + BATCH]).data.real)
                        for start in range(0, len(self.test_x), BATCH)
                    ]
                )
        finally:
            self.model.train(was_training)
        close = np.isclose(emulated, reference, rtol=0.0, atol=ATOL).all(axis=-1)
        return int((~close).sum())


def _loop(designer: Designer, seconds: float, recorder: SpanRecorder = None) -> List[Dict]:
    """Passes while another fits in ``seconds``; at least two."""
    passes = []
    started = time.monotonic()
    while True:
        passes.append(designer.run_pass(recorder))
        elapsed = time.monotonic() - started
        if len(passes) >= 2 and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _mean(values: List[float]) -> float:
    return sum(values) / len(values)


def _counts(passes: List[Dict]) -> tuple:
    """(attempted, failed): every trained image and every emulated-and-checked image counts."""
    return (NUM_TRAIN + NUM_TEST) * len(passes), sum(p["mismatch"] for p in passes)


def _rows(passes: List[Dict]) -> List[Dict]:
    """Pass timings for the report, without the compiled session."""
    return [{k: v for k, v in p.items() if k != "session"} for p in passes]


def design_200(seed: int, seconds: float, trace: bool) -> Outcome:
    from serving import engine_figures

    if not trace:
        setups = []
        for _ in range(SETUP_REPS):
            designer = Designer(seed)
            setups.append(designer.setup_s)
        warm = designer.run_pass()  # first-call costs (FFT plans, allocations) stay out of the figures
        passes = _loop(designer, seconds)
        attempted, failed = _counts([warm] + passes)
        step_vs_kernel = median([r for p in passes for r in p["step_vs_kernel"]])
        images_per_kernel = median([r for p in passes for r in p["images_per_kernel"]])
        return Outcome(
            attempted=attempted,
            failed=failed,
            metrics={
                "setup_s": median(setups),
                "peak_rss_mb": peak_rss_mb(),
                "latency_ms": step_vs_kernel * STEP_KERNEL_MS,
                "throughput_per_s": images_per_kernel / (CALL_KERNEL_MS / 1000.0),
            },
            problems=[f"{failed} emulated outputs differ from the autograd eval path"] if failed else [],
            report={
                "setup_s": setups,
                "step_ms": 1000.0 * median([s for p in passes for s in p["step_s"]]),
                "steps": sum(len(p["step_s"]) for p in passes),
                "train_images_per_s": NUM_TRAIN * len(passes) / sum(p["train_s"] for p in passes),
                "emulate_images_per_s": NUM_TEST * len(passes) / sum(p["emulate_s"] for p in passes),
                "compile_s": _mean([c for p in passes for c in p["compile_s"]]),
                "passes": _rows(passes),
            },
        )

    designer = Designer(seed)
    warm = designer.run_pass()
    plain = _loop(designer, seconds / 2.0)
    recorder = SpanRecorder()
    trainer = designer.trainer

    def key() -> str:
        return str(len(designer.passes))

    trainer.model = TimedModel(designer.model, recorder, key)
    trainer.optimizer = TimedOptimizer(trainer.optimizer, recorder, key)
    t0 = time.monotonic()
    traced = _loop(designer, seconds / 2.0, recorder)
    t1 = time.monotonic()
    run_ms = recorder.durations_ms("engine.run")
    layers = layer_report(recorder.spans, root="design.loop")
    metrics = {name: 0.0 for name, *_ in PER_LAYER}
    metrics.update(
        {
            "engine.run_ms": median(run_ms),
            "engine.calls": float(len(run_ms)),
            "engine.images": float(NUM_TEST * len(traced)),
            "engine.busy_share": sum(run_ms) / ((t1 - t0) * 1000.0),
            "engine.compile_ms": 1000.0 * _mean([c for p in traced for c in p["compile_s"]]),
            **engine_figures(traced[-1]["session"]),
            "train.forward_ms": median(recorder.durations_ms("train.forward")),
            "train.backward_ms": median(recorder.durations_ms("train.backward")),
            "train.step_ms": median(recorder.durations_ms("train.step")),
            "unattributed_ms": layers["unattributed_ms"],
            "bench.trace_overhead_pct": 100.0
            * (median([p["loop_s"] for p in traced]) / median([p["loop_s"] for p in plain]) - 1.0),
        }
    )
    attempted, failed = _counts([warm] + plain + traced)
    metrics["failed_ratio"] = failed / attempted
    return Outcome(
        attempted=attempted,
        failed=failed,
        metrics=metrics,
        problems=[f"{failed} emulated outputs differ from the autograd eval path"] if failed else [],
        spans=recorder,
        report={
            "layers": layers,
            "plain": _rows(plain),
            "traced": _rows(traced),
        },
    )
