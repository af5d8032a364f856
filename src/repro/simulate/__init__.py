"""Distributed-memory SpMV simulator.

The paper times real MPI runs on a Cray XE6; this package substitutes a
deterministic simulator that *executes* each parallel SpMV algorithm —
every processor computes only with data it owns or has received, and
every message is recorded in a ledger — then prices the run with a
BSP-style α/β/γ machine model.  The simulated ``y`` is checked against
the serial ``A @ x``, so the executors are functional models of the
algorithms, not formulas.

- :mod:`repro.simulate.messages` — the message ledger;
- :mod:`repro.simulate.machine` — the cost model and speedup estimate;
- :mod:`repro.simulate.singlephase` — the paper's modified SpMV
  (Precompute / Expand-and-Fold / Compute) for s2D and 1D partitions;
- :mod:`repro.simulate.twophase` — the standard expand/fold SpMV for
  2D partitions (also runs 2D-b and 1D-b, whose bounded patterns come
  from their vector placement);
- :mod:`repro.simulate.bounded` — the mesh-routed fused exchange of
  s2D-b;
- :mod:`repro.simulate.report` — one-call evaluation producing the
  numbers the paper's tables report;
- every executor phase runs inside an ``obs.span("simulate.<phase>")``
  and every run bumps the ``simulate.runs`` counter of the ambient
  :mod:`repro.obs` trace (the CLI ``simulate --profile`` table);
- :mod:`repro.simulate.legacy` — the seed executors, frozen as the
  golden baseline for the vectorized ones (bit-identical ledgers).
"""

from repro.simulate.bounded import run_s2d_bounded
from repro.simulate.legacy import (
    legacy_run_s2d_bounded,
    legacy_run_single_phase,
    legacy_run_two_phase,
)
from repro.simulate.machine import MachineModel, SpMVRun
from repro.simulate.messages import Ledger
from repro.simulate.report import PartitionQuality, evaluate
from repro.simulate.singlephase import run_single_phase
from repro.simulate.twophase import run_two_phase

__all__ = [
    "Ledger",
    "MachineModel",
    "SpMVRun",
    "run_single_phase",
    "run_two_phase",
    "run_s2d_bounded",
    "legacy_run_single_phase",
    "legacy_run_two_phase",
    "legacy_run_s2d_bounded",
    "evaluate",
    "PartitionQuality",
]
