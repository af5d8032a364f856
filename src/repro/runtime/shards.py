"""Serial replay of a sharded communication plan.

:func:`repro.runtime.compile.shard_plan` splits a compiled
:class:`~repro.runtime.plan.CommPlan` into K per-part
:class:`~repro.runtime.plan.PartPlan`s.  :func:`apply_shards_serial`
runs those parts on one core, superstep by superstep, with every
inter-part message going through an explicit per-phase buffer laid out
in ledger pair order::

    single:  [psums; publish x+partials]  B  [recv x; main + fold]
    two:     [publish x]  B  [recv x; psums; publish partials]  B  [fold]
    routed:  [psums; hop-1 publish]  B  [recv; combine; hop-2 publish]
             B  [recv; main + fold]

(B = every part finishes the step before any part starts the next.)

The replay is how sharding proves itself: ``shard_plan`` runs it on
every call and checks that

- **bit-identity** holds — the replayed ``y`` equals the single-core
  ``CommPlan.apply_y`` bitwise, because each part runs the same
  kernels over the same element order and cross-part combines assemble
  their inputs in the global key order (see ``_Gather``);
- **measured == predicted** — the words each part writes into each
  phase buffer equal the machine-model ledger's per-part sent volume
  for that phase.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.plan import CommPlan, PartPlan
from repro.simulate.common import resolve_x

__all__ = ["PHASES", "apply_shards_serial"]

# Canonical communication phases per execution model, in superstep
# order.  This — not ``ledger.phase_names`` — defines the stats layout:
# a phase with zero traffic is absent from the ledger but still owns a
# (all-zero) stats column.
PHASES: dict[str, tuple[str, ...]] = {
    "single": ("expand-and-fold",),
    "two": ("expand", "fold"),
    "routed": ("route-row", "route-col"),
}

_N_STEPS = {"single": 2, "two": 3, "routed": 3}


class _PartRunner:
    """One part's superstep program over the shared replay buffers.

    ``x_local`` starts NaN-poisoned so a read of an x entry the part
    neither owns nor received surfaces as a NaN in ``y`` instead of
    silently using stale data.
    """

    def __init__(
        self,
        shard: PartPlan,
        *,
        ncols: int,
        buffers: dict[str, np.ndarray],
        stats_row: np.ndarray,
        x: np.ndarray,
        y: np.ndarray,
    ):
        self.s = shard
        self.buffers = buffers
        self.stats = stats_row
        self.x = x
        self.y = y
        self.x_local = np.full(ncols, np.nan)
        self.psums: np.ndarray | None = None
        self.csums: np.ndarray | None = None
        self.phase_col = {ph: i for i, ph in enumerate(PHASES[shard.mode])}
        self.steps = {
            "single": (self._single0, self._single1),
            "two": (self._two0, self._two1, self._two2),
            "routed": (self._routed0, self._routed1, self._routed2),
        }[shard.mode]

    def run_step(self, step: int) -> None:
        self.steps[step]()

    # ------------------------------------------------------------ pieces

    def _fill_own(self) -> None:
        cols = self.s.x_own_cols
        self.x_local[cols] = self.x[cols]

    def _precompute(self) -> np.ndarray:
        s = self.s
        return s.group1.apply(s.pre_vals * self.x_local[s.pre_cols])

    def _send(self, phase: str, partials: np.ndarray | None) -> None:
        spec = self.s.sends[phase]
        buf = self.buffers[phase]
        if spec.x_slots.size:
            buf[spec.x_slots] = self.x_local[spec.x_cols]
        if spec.p_slots.size:
            buf[spec.p_slots] = partials[spec.p_idx]
        self.stats[self.phase_col[phase]] += spec.words

    def _recv_x(self, phase: str) -> None:
        spec = self.s.recvs_x[phase]
        if spec.slots.size:
            self.x_local[spec.cols] = self.buffers[phase][spec.slots]

    def _main_y(self) -> np.ndarray:
        s = self.s
        return np.bincount(
            s.main_rows_c,
            weights=s.main_vals * self.x_local[s.main_cols],
            minlength=s.nrows_local,
        )

    def _fold(self, phase: str, partials: np.ndarray) -> np.ndarray:
        s = self.s
        w = s.fold_gather.assemble(self.buffers[phase], partials)
        return np.bincount(s.fold_rows_c, weights=w, minlength=s.nrows_local)

    # ------------------------------------------------------------- single

    def _single0(self) -> None:
        self._fill_own()
        self.psums = self._precompute()
        self._send("expand-and-fold", self.psums)

    def _single1(self) -> None:
        s = self.s
        self._recv_x("expand-and-fold")
        y_c = self._main_y()
        if s.has_fold:
            y_c = y_c + self._fold("expand-and-fold", self.psums)
        self.y[s.own_rows] = y_c

    # ---------------------------------------------------------------- two

    def _two0(self) -> None:
        self._fill_own()
        self._send("expand", None)

    def _two1(self) -> None:
        self._recv_x("expand")
        self.psums = self._precompute()
        self._send("fold", self.psums)

    def _two2(self) -> None:
        s = self.s
        self.y[s.own_rows] = self._fold("fold", self.psums)

    # ------------------------------------------------------------- routed

    def _routed0(self) -> None:
        self._fill_own()
        self.psums = self._precompute()
        self._send("route-row", self.psums)

    def _routed1(self) -> None:
        s = self.s
        self._recv_x("route-row")
        w = s.comb_gather.assemble(self.buffers["route-row"], self.psums)
        self.csums = s.group2.apply(w)
        self._send("route-col", self.csums)

    def _routed2(self) -> None:
        s = self.s
        self._recv_x("route-col")
        y_c = self._main_y()
        if s.has_fold:
            y_c = y_c + self._fold("route-col", self.csums)
        self.y[s.own_rows] = y_c


def apply_shards_serial(
    plan: CommPlan,
    shards: list[PartPlan],
    x: np.ndarray | None = None,
    *,
    stats: np.ndarray | None = None,
) -> np.ndarray:
    """Replay the sharded superstep program on one core.

    Runs every part's kernels and buffer traffic in superstep order —
    the reference for bit-identity tests and the shard-time self-check.
    ``stats``, when given, is a (K, nphases) int64 array (columns in
    :data:`PHASES` order) that accumulates the words each part writes.
    Message buffers start NaN-poisoned, so a slot nobody writes poisons
    ``y``.
    """
    x = resolve_x(x, plan.ncols)
    y = np.zeros(plan.nrows)
    phases = PHASES[plan.executor]
    buffers = {
        ph: np.full(int(plan.ledger.sent_volume(ph).sum()), np.nan) for ph in phases
    }
    if stats is None:
        stats = np.zeros((plan.nparts, len(phases)), dtype=np.int64)
    runners = [
        _PartRunner(
            sh, ncols=plan.ncols, buffers=buffers, stats_row=stats[sh.part], x=x, y=y
        )
        for sh in shards
    ]
    for step in range(_N_STEPS[plan.executor]):
        for r in runners:
            r.run_step(step)
    return y
