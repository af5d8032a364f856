"""Array-level wrappers over the partitioner loops of ``partition.c``.

:mod:`repro.hypergraph` keeps the set-up of every stage in NumPy (pair
scores, contraction, the pin-count and gain arrays) and hands the
per-vertex / per-move loop to one of these wrappers when the default
backend resolves to native (:func:`partition_kernels`).  Each wrapper
takes plain arrays — this module imports nothing from the hypergraph
layer — mutates the state arrays it is given in place, and replays the
Python loop it replaces move for move (see ``partition.c``), so the
partition it leaves behind is bit-identical.

With ``REPRO_NATIVE_DEBUG=1`` every wrapper validates its CSR offsets
(start at 0, nondecreasing, end at the item count), its vertex and net
ids and, for FM, that every initial gain lies within ``±gain_bound``,
raising :class:`~repro.errors.VerificationError` before entering C.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VerificationError
from repro.native import build as _build
from repro.native.ops import _f64, _i64, _validate

__all__ = [
    "fm_passes",
    "greedy_grow",
    "hcm_match",
    "kway_polish",
    "partition_kernels",
    "random_fill",
]

_ERR_NOMEM = -1
_ERR_GAIN = -2


def partition_kernels():
    """The kernel library when ``backend=None`` resolves to native, else
    None (the partitioner then runs its NumPy loops)."""
    if _build.resolve_backend(None) != "native":
        return None
    return _build.get_kernels()


def _check_csr(kernel: str, name: str, offsets: np.ndarray, nrows: int, nitems: int) -> None:
    if offsets.size != nrows + 1:
        raise VerificationError(
            f"native {kernel}: {name} has {offsets.size} offsets, expected {nrows + 1}"
        )
    if offsets[0] != 0 or offsets[-1] != nitems or np.any(np.diff(offsets) < 0):
        raise VerificationError(
            f"native {kernel}: {name} is not a monotone CSR offset array "
            f"from 0 to {nitems} — refusing to enter the unchecked C loop"
        )


def _check_status(kernel: str, status: int) -> None:
    if status == _ERR_NOMEM:
        raise MemoryError(f"native {kernel}: scratch allocation failed")


def fm_passes(
    lib, *, xpins, pins, ncosts, xnets, nets, vipt, vnets, gain_bound: int,
    weights, inv_limits, zero_limit, part, pc, gain, pw, cut: int,
    max_passes: int, stall_fraction: int,
) -> int | None:
    """Run FM's pass loop in C; returns the final cut.

    ``part`` (int8), ``pc`` (int64, nets x 2), ``gain`` (int64) and
    ``pw`` (float64, 2 x ncon) are updated in place.  Returns None when
    a gain left the ``±gain_bound`` bucket range mid-run; the state
    arrays are then stale and the caller reruns its Python loop.
    """
    n, ncon = weights.shape
    nnets = xpins.size - 1
    xpins, pins, ncosts, xnets, nets, vipt, vnets = map(
        _i64, (xpins, pins, ncosts, xnets, nets, vipt, vnets)
    )
    if _build.debug_bounds_enabled():
        _check_csr("fm_passes", "xpins", xpins, nnets, pins.size)
        _check_csr("fm_passes", "xnets", xnets, n, nets.size)
        _check_csr("fm_passes", "vipt", vipt, n, vnets.size)
        _validate(
            "fm_passes", n,
            ("pins", pins, n, pins.size),
            ("nets", nets, nnets, nets.size),
            ("vnets", vnets, nnets, vnets.size),
            ("part", part, 2, n),
        )
        if gain.size != n or pc.shape != (nnets, 2) or pw.shape != (2, ncon):
            raise VerificationError("native fm_passes: state array shapes disagree")
        if n and int(np.abs(gain).max()) > gain_bound:
            raise VerificationError(
                f"native fm_passes: an initial gain lies outside ±{gain_bound} "
                "(the bucket range) — refusing to enter the unchecked C loop"
            )
    out = np.array([cut], dtype=np.int64)
    status = lib.fm_passes(
        n, nnets, ncon, max_passes, gain_bound, stall_fraction,
        xpins, pins, ncosts, xnets, nets, vipt, vnets,
        _f64(weights), _f64(inv_limits),
        np.ascontiguousarray(zero_limit, dtype=np.uint8),
        part, pc, gain, pw, out,
    )
    if status == _ERR_GAIN:
        return None
    _check_status("fm_passes", status)
    return int(out[0])


def kway_polish(
    lib, *, xnets, nets, vipt, vnets, ncosts, weights, limit, part, pc, pw,
    max_passes: int,
) -> None:
    """Run the K-way greedy polish in C; ``part`` (int64), ``pc``
    (int64, nets x K) and ``pw`` (float64, K x ncon) are updated in
    place."""
    n, ncon = weights.shape
    nnets, k = pc.shape
    xnets, nets, vipt, vnets, ncosts = map(_i64, (xnets, nets, vipt, vnets, ncosts))
    if _build.debug_bounds_enabled():
        _check_csr("kway_polish", "xnets", xnets, n, nets.size)
        _check_csr("kway_polish", "vipt", vipt, n, vnets.size)
        _validate(
            "kway_polish", n,
            ("nets", nets, nnets, nets.size),
            ("vnets", vnets, nnets, vnets.size),
            ("part", part, k, n),
        )
        if ncosts.size != nnets or pw.shape != (k, ncon) or limit.size != ncon:
            raise VerificationError("native kway_polish: state array shapes disagree")
    status = lib.kway_polish(
        n, nnets, k, ncon, max_passes, xnets, nets, vipt, vnets, ncosts,
        _f64(weights), _f64(limit), part, pc, pw,
    )
    _check_status("kway_polish", status)


def hcm_match(lib, order, indptr, indices, data, mate) -> None:
    """Heavy-connectivity matching walk over the pair-score CSR rows in
    visitation ``order``; ``mate`` (int64, -1 = unmatched) is updated
    in place."""
    n = mate.size
    order, indptr, indices = map(_i64, (order, indptr, indices))
    if _build.debug_bounds_enabled():
        _check_csr("hcm_match", "indptr", indptr, n, indices.size)
        _validate(
            "hcm_match", n,
            ("order", order, n, n),
            ("indices", indices, n, indices.size),
        )
    lib.hcm_match(n, order, indptr, indices, _f64(data), mate)


def random_fill(lib, order, vweights, t0, part) -> None:
    """Move each vertex of ``order`` to part 0 while it fits under
    ``t0``; ``part`` (int8, all ones) is updated in place."""
    n, ncon = vweights.shape
    order = _i64(order)
    if _build.debug_bounds_enabled():
        _validate("random_fill", n, ("order", order, n, n))
    status = lib.random_fill(n, ncon, order, _i64(vweights), _f64(t0), part)
    _check_status("random_fill", status)


def greedy_grow(
    lib, *, order, xpins, pins, xnets, nets, valid, contrib, vweights, t0, part
) -> None:
    """Greedy hypergraph growing of part 0 from the seeds in ``order``;
    ``part`` (int8, all ones) is updated in place."""
    n, ncon = vweights.shape
    nnets = xpins.size - 1
    order, xpins, pins, xnets, nets = map(_i64, (order, xpins, pins, xnets, nets))
    if _build.debug_bounds_enabled():
        _check_csr("greedy_grow", "xpins", xpins, nnets, pins.size)
        _check_csr("greedy_grow", "xnets", xnets, n, nets.size)
        _validate(
            "greedy_grow", n,
            ("order", order, n, n),
            ("pins", pins, n, pins.size),
            ("nets", nets, nnets, nets.size),
        )
    status = lib.greedy_grow(
        n, ncon, order, xpins, pins, xnets, nets,
        np.ascontiguousarray(valid, dtype=np.uint8), _f64(contrib),
        _i64(vweights), _f64(t0), part,
    )
    _check_status("greedy_grow", status)
