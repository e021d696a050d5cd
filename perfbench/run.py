"""perfbench: one layered benchmark for the DONN serving and design stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload http-classify --seed 1 --seconds 25 --trace 0

Workloads (inputs all generated from ``--seed``):

* ``http-classify``: single-image requests over HTTP through
  ``GatewayClient`` -> ``Gateway`` -> ``InferenceServer`` -> the
  collapsed engine, the server in a process of its own.
* ``fleet-classify``: the same model and load through
  ``InferenceServer.submit`` onto two ``LocalTransport`` replicas that
  cold-start from a ``ModelStore`` ref; no gateway.
* ``design-200``: train an epoch, compile, and emulate a held-out set
  at sys 200, where the engine keeps the FFT cascade.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics (see ``metrics.py`` for both lists).  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  A run is not correct when any
answer failed or was wrong, or when child processes or ``/dev/shm``
segments are left behind.  A traced run whose load generator fell
behind its schedule at the reference rung is flagged as an invalid
measurement (printed, and ``valid: false`` in its report).  Reports (stamp, per-rung rows, the per-layer table and
the spans of a traced run) are written under ``.perfbench_out/``.

The program under test is imported from the checkout's ``src/``; run
anywhere else, the benchmark exits with an error before measuring.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import signal
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from common import (  # noqa: E402
    OUT_DIR,
    child_pids,
    format_report,
    leaked_children,
    shm_segments,
    stamp,
    stop_resource_tracker,
)
from metrics import UNITS, names  # noqa: E402

WORKLOADS = ("http-classify", "fleet-classify", "design-200")


def run_workload(workload: str, seed: int, seconds: float, trace: bool):
    if workload == "design-200":
        from design import design_200

        return design_200(seed, seconds, trace)
    from serving import fleet_classify, http_classify

    runner = http_classify if workload == "http-classify" else fleet_classify
    return asyncio.run(runner(seed, seconds, trace))


def _reap_leftovers() -> list:
    """Terminate and wait for any descendant still running; returns their pids."""
    leftovers = leaked_children()
    for pid in leftovers:
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline and any(pid in child_pids() for pid in leftovers):
        for pid in leftovers:
            try:
                os.waitpid(pid, os.WNOHANG)
            except ChildProcessError:
                pass
        time.sleep(0.05)
    return leftovers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of the DONN stack.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (HERE.parent / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {HERE.parent / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    import repro  # noqa: F401 - fail before measuring if the program cannot import

    OUT_DIR.mkdir(exist_ok=True)
    shm_before = shm_segments()
    provenance = stamp()
    started = time.monotonic()
    outcome = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    wall_s = time.monotonic() - started

    stop_resource_tracker()
    problems = list(outcome.problems)
    leftovers = _reap_leftovers()
    if leftovers:
        problems.append(f"child processes left running: {leftovers}")
    shm_left = sorted(shm_segments() - shm_before)
    if shm_left:
        problems.append(f"/dev/shm segments left behind: {shm_left}")

    metrics = {}
    for name in names(bool(args.trace)):
        value = float(outcome.metrics[name])
        if not math.isfinite(value):
            problems.append(f"metric {name} is not finite ({value})")
            value = 0.0
        metrics[name] = {"value": value, "unit": UNITS[name]}
    if outcome.failed:
        problems.append(f"{outcome.failed} of {outcome.attempted} operations failed or answered wrong")

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": wall_s,
        "stamp": provenance,
        "metrics": metrics,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "problems": problems,
        "valid": not outcome.invalid,
        "invalid": outcome.invalid,
        "report": outcome.report,
    }
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(record, indent=1, default=float))
    if outcome.spans is not None:
        outcome.spans.dump(OUT_DIR / f"{tag}.spans.json")
    if "layers" in outcome.report:
        table = format_report(outcome.report["layers"])
        (OUT_DIR / f"{tag}.txt").write_text(table + "\n")
        print(table)

    print(
        f"# {args.workload} seed={args.seed} trace={args.trace} wall={wall_s:.1f}s "
        f"src_lines={provenance['src_lines']} cores={provenance['usable_cores']} "
        f"git={provenance['git_sha'] or 'n/a'} src_sha256={provenance['src_sha256'][:12]} "
        f"python={provenance['python']} numpy={provenance['numpy']} scipy={provenance['scipy']} "
        f"blas_env={ {k: v for k, v in provenance['blas']['env'].items() if v} }"
    )
    for name, entry in metrics.items():
        print(f"{name:<28}{entry['value']:>16.6g} {entry['unit']}")
    for problem in problems:
        print(f"PROBLEM: {problem}")
    for reason in outcome.invalid:
        print(f"INVALID MEASUREMENT: {reason}")
    result = {
        "correct": not problems,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
