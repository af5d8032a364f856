#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload table2-cold --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``
from untraced work; ``--trace 1`` reports its per-layer metrics from a
traced pass, prints a per-layer table and writes the pass as a Chrome
trace under ``.e2ebench-work/traces/``.  The last line of standard
output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``); the exit code is 1 when any correctness check failed.
See ``e2ebench/README.md`` for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import platform
import shutil
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench-work"

#: Set to 1 before numpy is imported, so BLAS/OpenMP threads stay
#: within the cores the benchmark already counts as load.
THREAD_CAPS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def git_commit() -> str:
    """HEAD's commit read from ``.git`` files ("unknown" outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(names)}", file=sys.stderr)
        return 2
    for var in THREAD_CAPS:
        os.environ[var] = "1"
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = str(WORK / "native")
    os.environ["TMPDIR"] = str(workdir)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    sys.path.insert(0, str(SRC))
    try:
        return run(args, spec, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, workdir: pathlib.Path) -> int:
    import numpy
    import scipy

    from repro import obs
    from repro.jobs import host_cpus
    from repro.native import find_compiler, resolve_backend

    t0 = obs.now()
    backend = resolve_backend("auto")
    warmup_s = obs.now() - t0

    import workloads

    manifest = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": workloads.SCALE,
        "nproc": host_cpus(),
        "backend": backend,
        "compiler": find_compiler(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_CAPS},
        "commit": git_commit(),
    }
    print("manifest " + json.dumps(manifest, sort_keys=True), flush=True)

    bench = workloads.Run(
        seed=args.seed, seconds=args.seconds, trace=bool(args.trace), workdir=workdir
    )
    workloads.WORKLOADS[args.workload](bench)
    bench.metrics["peak_rss_mb"] = workloads.peak_rss_mb()
    bench.metrics["native.warmup_s"] = warmup_s
    for line in bench.lines:
        print(line)
    if bench.trace_obj is not None:
        path = WORK / "traces" / f"{args.workload}-seed{args.seed}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        obs.write_trace(bench.trace_obj, str(path), "chrome")
        print(f"chrome trace: {path.relative_to(ROOT)}")

    kind = "per_layer" if args.trace else "end_to_end"
    metrics, idle = {}, []
    for m in spec[kind]:
        value = bench.metrics.get(m["name"])
        if value is None:
            if not args.trace:
                raise KeyError(f"workload did not measure {m['name']}")
            value = 0.0  # a layer this workload does not exercise
            idle.append(m["name"])
        metrics[m["name"]] = {"value": float(value), "unit": m["unit"]}
        print(f"{m['name']:<34}{float(value):>16.6g} {m['unit']}")
    if idle:
        print("not exercised (reported as 0): " + ", ".join(idle))
    print(f"error_rate: {bench.failed}/{bench.attempted}")
    for what in bench.failures[:20]:
        print(f"FAILED: {what}")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
