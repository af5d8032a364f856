"""The paper's modified parallel SpMV (Section III) — single comm phase.

Phases executed per processor ``P_k``:

1. **Precompute** — for every owned nonzero whose ``x_j`` is local but
   ``y_i`` is not (group ii), accumulate the partial ``ȳ_i``.
2. **Expand-and-Fold** — send to each ``P_ℓ`` one fused packet
   ``[x̂^{(k)}_ℓ, ŷ^{(ℓ)}_k]``: the x entries ``P_ℓ`` needs and the
   partials computed for ``P_ℓ``'s rows.
3. **Compute** — finish ``y^{(k)}`` from the diagonal block, the
   row-side off-diagonal nonzeros (with received x), and the received
   partials.

For a 1D rowwise partition the precompute phase is empty and the fused
packet degenerates to the classic expand — the generalization property
the paper notes.  The executor enforces data locality: a processor only
multiplies with x values it owns or has received, and the assembled
output is verified against the serial product.

Every step is an array kernel (:mod:`repro.kernels`): packet word
counts come from :func:`~repro.kernels.pair_counts`, the locality
audit is a :func:`~repro.kernels.in_sorted` searchsorted join against
the delivered ``(receiver, j)`` key set, and partial folds are
scatter-adds.  The seed implementation is preserved in
:mod:`repro.simulate.legacy`; ledgers are bit-identical.
"""

from __future__ import annotations

import numpy as np

from repro import obs
from repro.errors import SimulationError
from repro.kernels import group_sum, pair_counts
from repro.partition.types import SpMVPartition
from repro.simulate.common import (
    check_fold_ownership,
    check_locality,
    classify_nonzeros,
    delivery_keys,
    resolve_x,
)
from repro.simulate.machine import PhaseCost, SpMVRun
from repro.simulate.messages import Ledger

__all__ = ["run_single_phase"]

PHASE = "expand-and-fold"


def run_single_phase(p: SpMVPartition, x: np.ndarray | None = None) -> SpMVRun:
    """Execute the single-phase SpMV under partition ``p``.

    ``p`` must be s2D-admissible (1D rowwise/columnwise partitions are,
    trivially).  Returns the simulated run; ``run.y`` equals ``A @ x``.
    """
    obs.add("simulate.runs")
    p.validate_s2d()
    m = p.matrix
    nrows, ncols = m.shape
    k = p.nparts
    x = resolve_x(x, ncols)

    rows, cols = m.row, m.col
    vals = np.asarray(m.data, dtype=np.float64)
    # Group (ii) precompute mask (x local, y non-local) vs the row-owner
    # compute mask; everything else is a classification error.
    rp, cp, owner, pre_mask, main_mask = classify_nonzeros(p)

    ledger = Ledger(k)

    # ---------------- Phase 1: Precompute -----------------------------
    with obs.span("simulate.precompute"):
        flops_pre = 2 * np.bincount(owner[pre_mask], minlength=k).astype(np.int64)
        # Locality: the x value used here must be owned by the computing proc.
        if not np.all(cp[pre_mask] == owner[pre_mask]):
            raise SimulationError("precompute touched a non-local x entry")
        # Partials ȳ_i accumulated at their producer: key (producer, i).
        # Partials are keyed (producer, row): a dense key range, so the
        # shared kernel's bincount fastpath applies.
        pk = owner[pre_mask].astype(np.int64) * nrows + rows[pre_mask]
        pkeys, psums = group_sum(pk, vals[pre_mask] * x[cols[pre_mask]])
        part_src = pkeys // nrows
        part_row = pkeys % nrows
        part_dst = p.vectors.y_part[part_row]
        if np.any(part_src == part_dst):
            raise SimulationError("a precomputed partial is already local")

    # ---------------- Phase 2: Expand-and-Fold ------------------------
    with obs.span("simulate.exchange"):
        # x needs: row-side off-diagonal nonzeros read x they do not own.
        # The sender of x_j is its owner — a function of j — so the
        # delivery items deduplicate on the narrower (receiver, j) key,
        # which doubles as the sorted join table of the locality audit.
        need_mask = main_mask & (cp != rp)
        recv_keys = delivery_keys(rp[need_mask], cols[need_mask], ncols)
        x_dst = recv_keys // ncols
        x_j = recv_keys % ncols
        x_src = p.vectors.x_part[x_j]

        # One fused packet per communicating pair: one word per x entry
        # and per partial.
        ledger.record_pairs(
            PHASE,
            *pair_counts(
                np.concatenate((x_src, part_src)),
                np.concatenate((x_dst, part_dst)),
                k,
            ),
        )

    # ---------------- Phase 3: Compute --------------------------------
    with obs.span("simulate.compute"):
        flops_main = 2 * np.bincount(owner[main_mask], minlength=k).astype(np.int64)
        mrows = rows[main_mask]
        mcols = cols[main_mask]
        mvals = vals[main_mask]
        mown = owner[main_mask]
        # Locality audit: every non-local x read must match a delivered
        # (receiver, j) key from the exchange.
        nonlocal_mask = cp[main_mask] != mown
        check_locality(recv_keys, mown[nonlocal_mask], mcols[nonlocal_mask], ncols)
        y = np.bincount(mrows, weights=mvals * x[mcols], minlength=nrows)
        # Fold in received partials (one add per received word), only at
        # the row owner each was delivered to.
        check_fold_ownership(p.vectors.y_part, part_row, part_dst)
        if part_row.size:
            y += np.bincount(part_row, weights=psums, minlength=nrows)
            flops_main += np.bincount(part_dst, minlength=k).astype(np.int64)

    with obs.span("simulate.verify"):
        ref = m @ x
        if not np.allclose(y, ref, rtol=1e-10, atol=1e-12):
            raise SimulationError(
                "single-phase SpMV result differs from serial A @ x"
            )

    return SpMVRun(
        y=y,
        ledger=ledger,
        phases=[
            PhaseCost("precompute", flops=flops_pre),
            PhaseCost(PHASE, comm_phase=PHASE),
            PhaseCost("compute", flops=flops_main),
        ],
        nnz=int(m.nnz),
        kind=p.kind,
    )
