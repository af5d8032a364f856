"""Micro-benchmark: vectorized multilevel partitioner vs the seed code.

Times end-to-end ``partition_kway`` (with a per-stage breakdown summed
from the ``partition.*`` spans of a :mod:`repro.obs` trace, the same
aggregation as the CLI ``--profile`` table) on column-net models of an R-MAT instance and a kNN
mesh at K ∈ {16, 64}, against the preserved legacy implementation
(:mod:`repro.hypergraph.legacy`), and compares connectivity-1 quality
on the Table-I generator suite.  Each column pins its backend: ``numpy_s``
runs the NumPy loops (the column the ``speedup`` floor has always been
measured on), ``native_s`` the C loops of :mod:`repro.native.partition`;
the two must return the same partition.  Emits ``BENCH_partitioner.json``
at the repository root.

Run directly (no pytest machinery needed)::

    PYTHONPATH=src python benchmarks/bench_partitioner.py
"""

from __future__ import annotations

import json
import pathlib
import sys
import time

import numpy as np

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_OUT = REPO_ROOT / "BENCH_partitioner.json"

SEED = 5
SPEEDUP_TARGET = 3.0
NATIVE_SPEEDUP_TARGET = 4.0
QUALITY_TOLERANCE = 1.05
ACCEPTANCE_MODEL = "mesh10k-colnet"  # the ~10k-vertex column-net model
ACCEPTANCE_K = 64


def _models(quick: bool):
    from repro.generators.mesh import knn_mesh
    from repro.generators.rmat import rmat

    if quick:
        return [
            ("rmat9-colnet", rmat(9, edge_factor=8.0, seed=99)),
            ("mesh400-colnet", knn_mesh(400, 8, dim=2, seed=7)),
        ]
    return [
        ("rmat13-colnet", rmat(13, edge_factor=8.0, seed=99)),
        ("mesh10k-colnet", knn_mesh(10_000, 12, dim=2, seed=7)),
    ]


def run(out_path: pathlib.Path = DEFAULT_OUT, *, quick: bool = False) -> dict:
    from repro import obs
    from repro.generators.suite import table1_suite
    from repro.hypergraph import (
        PartitionConfig,
        column_net_model,
        connectivity_minus_one,
        imbalance,
        partition_kway,
    )
    from repro.hypergraph.legacy import legacy_partition_kway
    from repro.native import resolve_backend, set_default_backend

    ks = (4, 8) if quick else (16, 64)
    cfg = PartitionConfig(seed=SEED)
    have_native = resolve_backend("auto") == "native"  # builds before timing

    def timed(backend: str, hg, k):
        """``(part, seconds, stages)`` of one traced ``partition_kway``."""
        set_default_backend(backend)
        try:
            with obs.tracing(), obs.span("bench.partition") as root:
                part = partition_kway(hg, k, cfg)
        finally:
            set_default_backend(None)
        seconds, counters = obs.stage_totals(root, "partition.")
        stages = {f"{name}_s": seconds.get(name, 0.0)
                  for name in ("coarsen", "initial", "refine", "kway")}
        stages.update(total_s=root.dur, levels=counters.get("levels", 0),
                      bisections=counters.get("bisections", 0))
        return part, root.dur, stages

    entries = []
    for name, a in _models(quick):
        hg = column_net_model(a)
        for k in ks:
            part, t_new, stages = timed("numpy", hg, k)
            t0 = time.perf_counter()
            part_old = legacy_partition_kway(hg, k, cfg)
            t_old = time.perf_counter() - t0
            cut_new = connectivity_minus_one(hg, part)
            cut_old = connectivity_minus_one(hg, part_old)
            entry = {
                "model": name,
                "nvertices": hg.nvertices,
                "nnets": hg.nnets,
                "npins": hg.npins,
                "k": k,
                "numpy_s": t_new,
                "legacy_s": t_old,
                "speedup": t_old / t_new,
                "cut_vectorized": cut_new,
                "cut_legacy": cut_old,
                "cut_ratio": cut_new / max(cut_old, 1),
                "imbalance_vectorized": imbalance(hg, part, k),
                "stages": stages,
            }
            line = (
                f"{name:16s} K={k:<3d} numpy {t_new:7.2f}s  "
                f"legacy {t_old:7.2f}s  speedup {t_old / t_new:5.1f}x  "
                f"cut ratio {cut_new / max(cut_old, 1):.3f}"
            )
            if have_native:
                part_nat, t_nat, stages_nat = timed("native", hg, k)
                entry.update(
                    native_s=t_nat,
                    native_speedup=t_new / t_nat,
                    cut_native=connectivity_minus_one(hg, part_nat),
                    native_identical=bool(np.array_equal(part_nat, part)),
                    stages_native=stages_nat,
                )
                line += f"  native {t_nat:6.2f}s ({t_new / t_nat:4.1f}x)"
            entries.append(entry)
            print(line)

    # Quality sweep over the generator suite (cut within 5% of seed).
    qk = 8 if quick else 16
    nsuite = 2 if quick else 5
    qual = []
    for sm in table1_suite("tiny")[:nsuite]:
        hg = column_net_model(sm.matrix())
        qcfg = PartitionConfig(seed=3)
        cut_new = connectivity_minus_one(hg, partition_kway(hg, qk, qcfg))
        cut_old = connectivity_minus_one(hg, legacy_partition_kway(hg, qk, qcfg))
        qual.append(
            {
                "matrix": sm.name,
                "cut_vectorized": cut_new,
                "cut_legacy": cut_old,
                "ratio": cut_new / max(cut_old, 1),
            }
        )
    ratios = [q["ratio"] for q in qual]

    accept = next(
        (
            e
            for e in entries
            if e["model"] == ACCEPTANCE_MODEL and e["k"] == ACCEPTANCE_K
        ),
        entries[-1],
    )
    acceptance = {
        "model": accept["model"],
        "k": accept["k"],
        "speedup": accept["speedup"],
        "speedup_target": SPEEDUP_TARGET,
        "quality_tolerance": QUALITY_TOLERANCE,
    }
    passed = accept["speedup"] >= SPEEDUP_TARGET and max(ratios) <= QUALITY_TOLERANCE
    if have_native:
        identical = all(
            e["native_identical"] and e["cut_native"] == e["cut_vectorized"]
            for e in entries
        )
        acceptance.update(
            native_speedup=accept["native_speedup"],
            native_speedup_target=NATIVE_SPEEDUP_TARGET,
            native_identical=identical,
        )
        passed = passed and identical and accept["native_speedup"] >= NATIVE_SPEEDUP_TARGET
    acceptance["passed"] = bool(passed)
    result = {
        "config": {
            "seed": SEED, "quick": quick, "kway_passes": cfg.kway_passes,
            "native": have_native,
        },
        "end_to_end": entries,
        "quality_suite": {
            "k": qk,
            "scale": "tiny",
            "matrices": qual,
            "max_ratio": max(ratios),
            "mean_ratio": sum(ratios) / len(ratios),
        },
        "acceptance": acceptance,
    }
    out_path.write_text(json.dumps(result, indent=2) + "\n")
    return result


def main() -> int:
    result = run()
    print(json.dumps(result["acceptance"], indent=2))
    return 0 if result["acceptance"]["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
