"""Initial bisections for the coarsest hypergraph.

Two constructors, used as alternating trials by the multilevel driver:

- :func:`random_bisection` — shuffled greedy fill to the target weight;
- :func:`greedy_growing` — greedy hypergraph growing (GHG): grow part 0
  from a random seed, always absorbing the vertex most connected to the
  growing part, until the target weight is reached.

Both return a 0/1 part array; quality is left to FM refinement.

Greedy growing keeps one float gain array; the connectivity bumps after
an absorption are applied to all pins of the absorbed vertex's scoring
nets in one scatter-add (the seed implementation walked every pin in
Python), and only the touched vertices re-enter the selection heap —
selection stays O(log n) per step even when coarsening stalls and the
coarsest hypergraph is large.  Vertices that once failed the balance
check are retired permanently — part-0 weight only grows, so they can
never fit again.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.hypergraph.hypergraph import Hypergraph
from repro.kernels import concat_ranges
from repro.native import partition as native_partition
from repro.native.partition import partition_kernels

__all__ = ["random_bisection", "greedy_growing"]


def _fits(pw0: np.ndarray, w: np.ndarray, t0: np.ndarray) -> bool:
    """Would adding weight ``w`` keep part 0 at or below its target?"""
    return bool(np.all(pw0 + w <= t0))


def random_bisection(
    hg: Hypergraph, targets: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Fill part 0 with randomly ordered vertices up to its target weight."""
    t0 = np.asarray(targets[0], dtype=np.float64)
    part = np.ones(hg.nvertices, dtype=np.int8)
    order = rng.permutation(hg.nvertices)
    lib = partition_kernels()
    if lib is not None:
        native_partition.random_fill(lib, order, hg.vweights, t0, part)
        return part
    pw0 = np.zeros(hg.nconstraints, dtype=np.int64)
    for v in order:
        w = hg.vweights[v]
        if _fits(pw0, w, t0):
            part[v] = 0
            pw0 += w
    return part


def greedy_growing(
    hg: Hypergraph, targets: tuple[np.ndarray, np.ndarray], rng: np.random.Generator
) -> np.ndarray:
    """Greedy hypergraph growing from a random seed vertex."""
    n = hg.nvertices
    if n == 0:
        return np.ones(0, dtype=np.int8)
    t0 = np.asarray(targets[0], dtype=np.float64)
    part = np.ones(n, dtype=np.int8)
    vw = hg.vweights

    xpins, pins = hg.xpins, hg.pins
    xnets, nets = hg.xnets, hg.nets
    sizes = hg.net_sizes()
    valid = sizes >= 2
    contrib = np.zeros(hg.nnets, dtype=np.float64)
    np.divide(
        hg.ncosts, sizes - 1, out=contrib, where=valid
    )
    seed_order = rng.permutation(n)
    lib = partition_kernels()
    if lib is not None:
        native_partition.greedy_grow(
            lib, order=seed_order, xpins=xpins, pins=pins, xnets=xnets,
            nets=nets, valid=valid, contrib=contrib, vweights=vw, t0=t0,
            part=part,
        )
        return part

    pw0 = np.zeros(hg.nconstraints, dtype=np.float64)
    gain = np.zeros(n, dtype=np.float64)
    absorbed = np.zeros(n, dtype=bool)
    retired = np.zeros(n, dtype=bool)

    # Lazy-deletion heap over gain snapshots: stale entries (absorbed,
    # retired, or superseded by a later bump) are skipped on pop.  Ties
    # break on the lower vertex id, which keeps the grown region
    # compact on regular instances.
    heap: list[tuple[float, int]] = []
    seed_ptr = 0

    while True:
        v = -1
        while heap:
            g, u = heapq.heappop(heap)
            if not absorbed[u] and not retired[u] and -g == gain[u]:
                v = u
                break
        if v < 0:
            # (Re)seed: the next untaken vertex in random order.
            while seed_ptr < n and (
                absorbed[seed_order[seed_ptr]] or retired[seed_order[seed_ptr]]
            ):
                seed_ptr += 1
            if seed_ptr >= n:
                break
            v = int(seed_order[seed_ptr])
            gain[v] = 0.0
        w = vw[v]
        if not _fits(pw0, w, t0):
            retired[v] = True
            continue
        absorbed[v] = True
        part[v] = 0
        pw0 += w
        if np.all(pw0 >= t0):
            break
        en = nets[xnets[v] : xnets[v + 1]]
        en = en[valid[en]]
        if en.size:
            us = pins[concat_ranges(xpins[en], xpins[en + 1])]
            np.add.at(gain, us, np.repeat(contrib[en], sizes[en]))
            for u in np.unique(us).tolist():
                if not absorbed[u] and not retired[u]:
                    heapq.heappush(heap, (-gain[u], u))
    return part
