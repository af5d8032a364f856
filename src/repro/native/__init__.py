"""Native C kernel backend for the compiled SpMV runtime.

The compiled :class:`~repro.runtime.CommPlan` reduced every multiply
to a handful of NumPy gathers and scatter-sums, but each of those is
still a multi-pass, temporary-allocating operation; on the bench
matrices ``plan.apply`` sat ~5–6× above the raw single-core scipy CSR
floor.  This package closes most of that gap with four tiny C loops
(``kernels.c``) that fuse gather → multiply → group-sum scatter into
single passes, compiled on demand with the host ``cc`` into a
content-hash-named ``.so`` under a build cache (``build.py``), loaded
via :mod:`ctypes`, and dispatched behind a feature flag:

- ``backend="numpy" | "native" | "auto"`` kwargs on
  :meth:`~repro.runtime.CommPlan.apply` /
  :meth:`~repro.runtime.CommPlan.apply_many` and the solvers, and
  ``--backend`` on the CLI ``solve``/``table`` subcommands;
- the ``REPRO_NATIVE`` environment flag (``0`` forces NumPy, ``1`` or
  unset prefers native where a compiler exists);
- when no compiler is available, ``auto`` silently falls back to the
  NumPy kernels and records the reason (``native_status()``, surfaced
  by the CLI ``native-info`` subcommand).

The C accumulations iterate in index order, so every sum reproduces
``np.bincount``/``np.add.at`` element order bit for bit — the golden
y/ledger/flops pins hold unchanged under the native backend.

The same library also carries the multilevel partitioner's hot loops
(``partition.c``, wrapped by :mod:`repro.native.partition`): FM passes,
the K-way polish, HCM matching and the initial bisections, each making
the same moves as its NumPy loop.
"""

from repro.native import ops
from repro.native.build import (
    BACKENDS,
    CACHE_ENV,
    DEBUG_ENV,
    FLAG_ENV,
    SANITIZE_ENV,
    KernelLib,
    cache_dir,
    debug_bounds_enabled,
    find_compiler,
    get_kernels,
    native_status,
    resolve_backend,
    sanitize_default,
    set_default_backend,
)

__all__ = [
    "BACKENDS",
    "CACHE_ENV",
    "DEBUG_ENV",
    "FLAG_ENV",
    "SANITIZE_ENV",
    "KernelLib",
    "cache_dir",
    "debug_bounds_enabled",
    "find_compiler",
    "get_kernels",
    "native_status",
    "ops",
    "resolve_backend",
    "sanitize_default",
    "set_default_backend",
]
