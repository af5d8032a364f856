"""Standard two-phase (expand / compute / fold) parallel SpMV.

Runs *any* nonzero partition — the fine-grain 2D baseline, the 2D-b
checkerboard and the 1D-b Boman scheme all execute here.  For the
Cartesian schemes the bounded message pattern (expand inside mesh
columns, fold inside mesh rows) emerges from their vector placement;
no special-case code is involved, which is itself a useful check.

Message assembly and the locality audit are array kernels (see
:mod:`repro.simulate.singlephase`); the seed implementation is
preserved in :mod:`repro.simulate.legacy` with bit-identical ledgers.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.kernels import group_sum, pair_counts
from repro.partition.types import SpMVPartition
from repro.simulate.common import check_locality, delivery_keys, resolve_x
from repro.simulate.machine import PhaseCost, SpMVRun
from repro.simulate.messages import Ledger

__all__ = ["run_two_phase"]


def run_two_phase(p: SpMVPartition, x: np.ndarray | None = None) -> SpMVRun:
    """Execute the expand/compute/fold SpMV under partition ``p``."""
    obs.add("simulate.runs")
    m = p.matrix
    nrows, ncols = m.shape
    k = p.nparts
    x = resolve_x(x, ncols)

    rows, cols = m.row, m.col
    vals = np.asarray(m.data, dtype=np.float64)
    owner = p.nnz_part
    x_owner_of_nnz = p.vectors.x_part[cols]

    ledger = Ledger(k)

    # ---------------- Phase 1: Expand ---------------------------------
    with obs.span("simulate.expand"):
        # The sender of x_j is its owner — a function of j — so expand
        # items deduplicate on the narrower (receiver, j) key, which is
        # also the sorted join table of the compute-phase audit.
        need = x_owner_of_nnz != owner
        recv_keys = delivery_keys(owner[need], cols[need], ncols)
        e_dst = recv_keys // ncols
        e_j = recv_keys % ncols
        e_src = p.vectors.x_part[e_j]
        ledger.record_pairs("expand", *pair_counts(e_src, e_dst, k))

    # ---------------- Phase 2: Compute --------------------------------
    with obs.span("simulate.compute"):
        flops = 2 * np.bincount(owner, minlength=k).astype(np.int64)
        # Locality audit: every expanded x read must match a delivered
        # (receiver, j) key.
        check_locality(recv_keys, owner[need], cols[need], ncols)
        # Partial results per (holder, row) — dense keys, bincount fastpath.
        pk = owner.astype(np.int64) * nrows + rows
        pkeys, psums = group_sum(pk, vals * x[cols])
        p_holder = pkeys // nrows
        p_row = pkeys % nrows
        p_dst = p.vectors.y_part[p_row]

    # ---------------- Phase 3: Fold -----------------------------------
    with obs.span("simulate.fold"):
        away = p_holder != p_dst
        ledger.record_pairs("fold", *pair_counts(p_holder[away], p_dst[away], k))

        y = np.bincount(p_row, weights=psums, minlength=nrows)
        flops_agg = np.bincount(p_dst[away], minlength=k).astype(np.int64)

    with obs.span("simulate.verify"):
        ref = m @ x
        if not np.allclose(y, ref, rtol=1e-10, atol=1e-12):
            raise SimulationError("two-phase SpMV result differs from serial A @ x")

    return SpMVRun(
        y=y,
        ledger=ledger,
        phases=[
            PhaseCost("expand", comm_phase="expand"),
            PhaseCost("compute", flops=flops),
            PhaseCost("fold", comm_phase="fold"),
            PhaseCost("aggregate", flops=flops_agg),
        ],
        nnz=int(m.nnz),
        kind=p.kind,
    )
