"""Array-level wrappers over the native kernel library.

Each function mirrors one NumPy formulation used by the compiled
runtime and produces bit-identical float64 results (same element
order, same rounding — see ``kernels.c``).  All take the loaded
:class:`~repro.native.build.KernelLib` first; callers resolve the
backend and fetch the library once per plan, so the per-apply
overhead is a handful of ctypes calls.

``group`` arguments are ``(index, length)`` pairs produced by
:func:`compact_group` from a duck-typed group plan with the
:class:`repro.runtime.plan._GroupPlan` fields (``mode``, ``index``,
``length``, ``take``); this module deliberately does not import the
runtime, so the dependency points one way (runtime → native; lint rule
``REP007``).

With ``REPRO_NATIVE_DEBUG=1`` (resolved by
:func:`repro.native.build.debug_bounds_enabled` — the flag is never
read here) every wrapper validates its index arrays and size contracts
*before* crossing the ctypes boundary, raising
:class:`~repro.errors.VerificationError` instead of letting the C
loops write out of bounds.  This is the pure-Python complement of the
``sanitize=True`` build: the sanitizer catches what validation cannot
model, validation gives exact array-level diagnostics the sanitizer
cannot phrase.
"""

from __future__ import annotations

import numpy as np

from repro.errors import VerificationError
from repro.native import build as _build

__all__ = [
    "compact_group",
    "fused_group_gather",
    "fused_group_gather_many",
    "group_apply",
    "group_apply_many",
    "scatter_products",
    "scatter_products_many",
    "scatter_sum",
    "scatter_sum_many",
]


def _validate(kernel: str, n: int, *index_specs) -> None:
    """Debug-mode pre-call validator: each ``(name, idx, bound, size)``
    spec asserts ``idx`` is a size-``size`` int array into ``[0, bound)``.

    Runs only under ``REPRO_NATIVE_DEBUG=1``; the kernels themselves
    perform no checks (that is what makes them fast), so this is the
    last line before raw writes into NumPy-owned buffers.
    """
    for name, idx, bound, size in index_specs:
        idx = np.asarray(idx)
        if idx.size != size:
            raise VerificationError(
                f"native {kernel}: {name} has {idx.size} entries, "
                f"expected {size}"
            )
        if idx.size and not (int(idx.min()) >= 0 and int(idx.max()) < bound):
            raise VerificationError(
                f"native {kernel}: {name} indexes outside [0, {bound}) "
                f"(min {idx.min()}, max {idx.max()}) — refusing to enter "
                f"the unchecked C loop over {n} items"
            )


def _f64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64)


def _i64(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.int64)


def compact_group(gp) -> tuple[np.ndarray, int]:
    """Densify a group plan to ``(index, n_groups)`` for the C kernels.

    Hist-mode plans scatter into a key-*span*-sized accumulator and
    gather the surviving bins afterwards (``sums[take]``) — fine for
    one ``np.bincount`` call, but for the native path the span alloc
    (often 10× the item count) and the take gather dominate.  Ranking
    each key among the surviving bins (``searchsorted(take, index)``)
    lets the kernel scatter straight into a dense ``take.size``
    accumulator with no post-gather.  Bit-identity is preserved: the
    elements of each output group still accumulate in exactly the same
    input order, so every per-group sum performs the identical FP
    additions.  Scatter-mode indices are already dense.  Precompute
    once per plan (this is O(n log n)); applies then reuse the pair.
    """
    if gp.mode == "hist":
        return _i64(np.searchsorted(gp.take, gp.index)), int(gp.take.size)
    return _i64(gp.index), int(gp.length)


def fused_group_gather(lib, group, vals, cols, x) -> np.ndarray:
    """``gp.apply(vals * x[cols])`` without the two temporaries."""
    idx, length = group
    if _build.debug_bounds_enabled():
        _validate(
            "gather_mul_scatter", vals.size,
            ("cols", cols, x.size, vals.size),
            ("group index", idx, length, vals.size),
        )
    acc = np.zeros(length)
    lib.gather_mul_scatter(vals.size, _f64(vals), _i64(cols), _f64(x), idx, acc)
    return acc


def group_apply(lib, group, values) -> np.ndarray:
    """``gp.apply(values)``: one index-order scatter-add pass."""
    idx, length = group
    if _build.debug_bounds_enabled():
        _validate(
            "scatter_add", values.size,
            ("group index", idx, length, values.size),
        )
    acc = np.zeros(length)
    lib.scatter_add(values.size, idx, _f64(values), acc)
    return acc


def scatter_products(lib, rows, vals, cols, x, nrows: int) -> np.ndarray:
    """``np.bincount(rows, weights=vals * x[cols], minlength=nrows)``."""
    if _build.debug_bounds_enabled():
        _validate(
            "gather_mul_scatter", vals.size,
            ("rows", rows, nrows, vals.size),
            ("cols", cols, x.size, vals.size),
        )
    y = np.zeros(nrows)
    lib.gather_mul_scatter(vals.size, _f64(vals), _i64(cols), _f64(x), _i64(rows), y)
    return y


def scatter_sum(lib, rows, values, nrows: int) -> np.ndarray:
    """``np.bincount(rows, weights=values, minlength=nrows)``."""
    if _build.debug_bounds_enabled():
        _validate(
            "scatter_add", values.size,
            ("rows", rows, nrows, values.size),
        )
    out = np.zeros(nrows)
    lib.scatter_add(values.size, _i64(rows), _f64(values), out)
    return out


# ---------------------------------------------------------------- batched


def fused_group_gather_many(lib, group, vals, cols, xs) -> np.ndarray:
    """Batched :func:`fused_group_gather` over ``xs`` of shape (ncols, r)."""
    idx, length = group
    r = xs.shape[1]
    if _build.debug_bounds_enabled():
        _validate(
            "gather_mul_scatter_many", vals.size,
            ("cols", cols, xs.shape[0], vals.size),
            ("group index", idx, length, vals.size),
        )
    acc = np.zeros((length, r))
    lib.gather_mul_scatter_many(
        vals.size, r, _f64(vals), _i64(cols), _f64(xs), idx, acc
    )
    return acc


def group_apply_many(lib, group, values) -> np.ndarray:
    """Batched :func:`group_apply` over ``values`` of shape (items, r)."""
    idx, length = group
    if _build.debug_bounds_enabled():
        _validate(
            "scatter_add_many", values.shape[0],
            ("group index", idx, length, values.shape[0]),
        )
    acc = np.zeros((length, values.shape[1]))
    lib.scatter_add_many(values.shape[0], values.shape[1], idx, _f64(values), acc)
    return acc


def scatter_products_many(lib, rows, vals, cols, xs, nrows: int) -> np.ndarray:
    """Batched :func:`scatter_products` over ``xs`` of shape (ncols, r)."""
    if _build.debug_bounds_enabled():
        _validate(
            "gather_mul_scatter_many", vals.size,
            ("rows", rows, nrows, vals.size),
            ("cols", cols, xs.shape[0], vals.size),
        )
    y = np.zeros((nrows, xs.shape[1]))
    lib.gather_mul_scatter_many(
        vals.size, xs.shape[1], _f64(vals), _i64(cols), _f64(xs), _i64(rows), y
    )
    return y


def scatter_sum_many(lib, rows, values, nrows: int) -> np.ndarray:
    """Batched :func:`scatter_sum` over ``values`` of shape (items, r)."""
    if _build.debug_bounds_enabled():
        _validate(
            "scatter_add_many", values.shape[0],
            ("rows", rows, nrows, values.shape[0]),
        )
    out = np.zeros((nrows, values.shape[1]))
    lib.scatter_add_many(values.shape[0], values.shape[1], _i64(rows), _f64(values), out)
    return out
