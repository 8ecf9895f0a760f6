"""Run one workload of the layered benchmark; print its metrics as JSON.

    python3 perfbench/run.py --workload http-search --seed 1 \\
        --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``
of that root; a root without ``src/repro`` is an error (exit code 2).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``,
exactly as named in ``BENCHMARK.json``.  The line before it describes
the run (workload properties, sample counts, set-up runs, commit).
Temporary files go to ``.perfbench_tmp/`` under the root and are removed
on exit.  See ``perfbench/README.md`` for every workload and metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("http-search", "library-sweep", "http-batch-hot", "rw-durable")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_commit() -> str:
    """HEAD's commit when the root is a git checkout, else "unknown"."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = ROOT / ".git" / ref[5:]
        if target.is_file():
            return target.read_text().strip()
        packed = ROOT / ".git" / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                if line.endswith(" " + ref[5:]):
                    return line.split()[0]
        return "unknown"
    return ref


def declared(mode: str):
    """``{name: unit}`` for the mode's metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[mode]}


def make_workload(name: str, seed: int, workdir: Path):
    if name == "library-sweep":
        from library_sweep import LibrarySweep

        return LibrarySweep(seed, workdir)
    if name == "rw-durable":
        from rw_durable import RwDurable

        return RwDurable(seed, workdir)
    from http_workloads import HttpBatchHot, HttpSearch

    cls = HttpSearch if name == "http-search" else HttpBatchHot
    return cls(seed, workdir)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"run.py: no src/repro under {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import harness
    import layers

    work_root = ROOT / ".perfbench_tmp"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    try:
        workload = make_workload(args.workload, args.seed, workdir)
        tracer = layers.make_tracer() if args.trace else None
        run = harness.run(workload, args.seconds, tracer)
        if tracer is None:
            mode, metrics = "end_to_end", run["end_to_end"]
        else:
            service_delta, cursor_us = run["layer_inputs"]
            mode = "per_layer"
            metrics = layers.per_layer(
                tracer, service_delta, cursor_us, workload.persist,
                run["overhead_share"],
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass  # another run still uses it, or it never existed

    want = declared(mode)
    got = {name: unit for name, (_value, unit) in metrics.items()}
    if got != want:
        print(f"run.py: metrics differ from BENCHMARK.json {mode}: "
              f"{sorted(set(got) ^ set(want))}", file=sys.stderr)
        return 3
    print(json.dumps({
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "properties": run["properties"],
        "samples": run["samples"],
        "timed_rounds": run["timed_rounds"],
        "measured_s": run["measured_s"],
        "setup_runs_s": run["setup_runs_s"],
        "mismatches": run["mismatches"],
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
    }))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0 if run["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
