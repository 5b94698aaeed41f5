"""Run the pipeline benchmark.

Usage, from the repository root::

    python3 perfbench/run.py --workload live_dense --seed 0 --seconds 30
    python3 perfbench/run.py --workload all --trace 1

One workload per process: it prints a human-readable report, then, as
its last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics of untraced
passes; ``--trace 1`` adds one traced pass and reports the per-layer
ledger instead.  ``--workload all`` runs each workload in its own child
process (peak memory is per process) and prints their metrics prefixed
with the workload name.  The exit code is non-zero when any output check
fails.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {src}; run from a "
                 f"checkout of the repository")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {src}")


def _parse(argv):
    from perfbench.schema import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the registry's seed "
                             "for the workload's scenario)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="run whole timed passes until their wall "
                             "times add up to this (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _run_one(args) -> int:
    from perfbench import schema, workloads

    seed = (args.seed if args.seed is not None
            else workloads.default_seed(args.workload))
    result = workloads.run(args.workload, ROOT, seed, args.seconds,
                           bool(args.trace))
    schema.check_metrics(result.metrics, bool(args.trace))
    for note in result.notes:
        print(f"# {note}")
    for name, metric in result.metrics.items():
        print(f"{args.workload:<13} {name:<34} {metric['value']:>16.6g} "
              f"{metric['unit']}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": result.metrics,
    }), flush=True)
    return 0 if result.correct else 1


def _run_all(args) -> int:
    from perfbench.schema import WORKLOADS

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.seed is not None:
            command += ["--seed", str(args.seed)]
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if child.returncode != 0 or not lines:
            status = 1
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= line["correct"]
        merged["attempted"] += line["attempted"]
        merged["failed"] += line["failed"]
        for name, metric in line["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    args = _parse(argv)
    _import_program()
    if args.workload == "all":
        return _run_all(args)
    return _run_one(args)


if __name__ == "__main__":
    sys.exit(main())
