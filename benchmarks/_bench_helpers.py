"""Plain helpers shared by the experiment benchmarks (no pytest fixtures here)."""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path
from typing import Dict, Sequence

from repro import DONNConfig, Trainer
from repro.baselines.regularization import build_baseline_donn, build_regularized_donn
from repro.utils import format_table

RESULTS_DIR = Path(__file__).parent / "results"


def usable_cores() -> int:
    """Scheduler-affinity core count -- on cgroup-limited containers the
    number that actually bounds multi-process scaling."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # pragma: no cover - non-linux


def run_metadata(seed: int) -> dict:
    """Reproducibility stamp for committed benchmark results: the seed
    plus the host's core counts and Python version."""
    return {
        "seed": int(seed),
        "host_cores": os.cpu_count() or 1,
        "usable_cores": usable_cores(),
        "python": platform.python_version(),
    }


def save_results(name: str, rows: Sequence[Dict], notes: str = "", metadata: Dict = None) -> Path:
    """Persist reproduced rows as JSON and return the path.

    ``metadata`` carries the reproducibility stamp (seed, host core
    counts -- see :func:`run_metadata`) serialized alongside the rows.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    payload = {"experiment": name, "notes": notes, "rows": list(rows)}
    if metadata:
        payload["metadata"] = dict(metadata)
    path.write_text(json.dumps(payload, indent=2, default=float))
    return path


def report(title: str, rows: Sequence[Dict], notes: str = "") -> None:
    """Print a reproduced table (visible with ``pytest -s``)."""
    print(f"\n=== {title} ===")
    if notes:
        print(notes)
    print(format_table(list(rows)))


def train_donn(
    config: DONNConfig,
    dataset,
    epochs: int = 6,
    learning_rate: float = 0.5,
    batch_size: int = 50,
    regularized: bool = True,
    device_profile=None,
    seed: int = 0,
):
    """Train a DONN on a (train_x, train_y, test_x, test_y) dataset tuple.

    Returns ``(model, TrainingResult)``.
    """
    train_x, train_y, test_x, test_y = dataset
    if regularized:
        model = build_regularized_donn(config, train_x[:8], device_profile=device_profile)
    else:
        model = build_baseline_donn(config, device_profile=device_profile)
    trainer = Trainer(
        model,
        num_classes=config.num_classes,
        learning_rate=learning_rate,
        batch_size=batch_size,
        seed=seed,
    )
    result = trainer.fit(train_x, train_y, epochs=epochs, test_images=test_x, test_labels=test_y)
    return model, result
