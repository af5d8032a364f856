"""Outside-in layer decomposition: the benchmark's own spans.

Nothing here instruments ``src/``.  The benchmark calls each layer's
public entry point itself and wraps the call in a ``repro.obs`` span
named after the layer, so a traced pass attributes its wall time layer
by layer while an untraced pass runs the very same calls (every
``obs.span`` is a no-op when no trace is open).

Layer span names (the ``<name>`` part of the per-layer metrics):

- ``generators``            matrix generation
- ``engine.init``           :class:`PartitionEngine` construction
- ``hypergraph.colnet``     ``plan("1d-rowwise")`` (column-net model)
- ``hypergraph.finegrain``  ``plan("finegrain")``
- ``sparse.blocks``         ``PartitionEngine.block_structure``
- ``dm.block_dm``           ``PartitionEngine.block_dm``
- ``core.s2d``              ``plan("s2d-heuristic")`` (Algorithm 1)
- ``core.s2d_bounded``      ``plan("s2d-bounded")``
- ``simulate.run``          ``PartitionEngine.evaluate``
- ``runtime.compile``       ``PartitionEngine.compiled_plan``
- ``runtime.apply``         ``CommPlan.apply_y``
- ``solvers.solve``         one ``repro.solvers`` call
- ``baseline.matvec`` / ``baseline.solve``  scipy reference work
- ``sweep.cache_store`` / ``sweep.cache_fetch``  ``ArtifactCache``
"""

from __future__ import annotations

from repro import obs
from repro.engine import PartitionEngine

LAYERS = (
    "generators",
    "engine.init",
    "hypergraph.colnet",
    "hypergraph.finegrain",
    "sparse.blocks",
    "dm.block_dm",
    "core.s2d",
    "core.s2d_bounded",
    "simulate.run",
    "runtime.compile",
    "runtime.apply",
    "solvers.solve",
    "baseline.matvec",
    "baseline.solve",
    "sweep.cache_store",
    "sweep.cache_fetch",
)


class TracedCache:
    """An :class:`~repro.sweep.ArtifactCache` whose ``store_*`` and
    ``fetch_*`` calls each run inside a ``sweep.cache_*`` span.

    Duck-types the engine's ``artifacts`` parameter by delegation.
    """

    def __init__(self, cache) -> None:
        self._cache = cache

    def __getattr__(self, name):
        fn = getattr(self._cache, name)
        if not name.startswith(("store_", "fetch_")):
            return fn
        layer = "sweep.cache_store" if name.startswith("store_") else "sweep.cache_fetch"

        def call(*args, **kwargs):
            with obs.span(layer, op=name):
                return fn(*args, **kwargs)

        return call


def _plan(engine: PartitionEngine, layer: str, method: str, k: int, config):
    """``engine.plan`` under ``layer``; the span records whether the
    call built the plan or hit the engine memo."""
    misses = engine.cache_stats["misses"]
    with obs.span(layer, method=method, k=k) as sp:
        plan = engine.plan(method, k, config=config)
        if sp is not None:
            sp.attrs["built"] = engine.cache_stats["misses"] > misses
    return plan


def build_plan(engine: PartitionEngine, scheme: str, k: int, config):
    """Build one plan layer by layer, in the order the engine's
    registry would, so every stage runs inside its own span and the
    final ``plan`` call only assembles memoized intermediates."""
    if scheme == "1d-rowwise":
        return _plan(engine, "hypergraph.colnet", scheme, k, config)
    if scheme == "finegrain":
        return _plan(engine, "hypergraph.finegrain", scheme, k, config)
    if scheme not in ("s2d-heuristic", "s2d-bounded"):
        raise ValueError(f"no layer decomposition for scheme {scheme!r}")
    base = _plan(engine, "hypergraph.colnet", "1d-rowwise", k, config)
    vectors = base.partition.vectors
    with obs.span("sparse.blocks", k=k):
        engine.block_structure(vectors)
    with obs.span("dm.block_dm", k=k) as sp:
        blocks = engine.block_dm(vectors)
        if sp is not None:
            sp.attrs["blocks"] = len(blocks)
    plan = _plan(engine, "core.s2d", "s2d-heuristic", k, config)
    if scheme == "s2d-bounded":
        plan = _plan(engine, "core.s2d_bounded", scheme, k, config)
    return plan


def evaluate(engine: PartitionEngine, plan, machine):
    with obs.span("simulate.run", method=plan.method, k=plan.nparts):
        return engine.evaluate(plan, machine=machine)


# ----------------------------------------------------------------------
# Reading a traced pass
# ----------------------------------------------------------------------


def layer_spans(trace: obs.Trace):
    """``(span, self_seconds)`` for every layer span in ``trace``.

    Self time is the span's duration minus the durations of the
    nearest layer spans nested inside it (a cache store inside a
    partitioner call is charged to the cache, not the partitioner).
    """
    out = []

    def nested(sp):
        total = 0.0
        for child in sp.children:
            total += child.dur if child.name in LAYERS else nested(child)
        return total

    for sp in trace.walk():
        if sp.name in LAYERS:
            out.append((sp, sp.dur - nested(sp)))
    return out


def layer_table(trace: obs.Trace, wall: float) -> tuple[dict, float]:
    """Per-layer ``{name: {"calls", "self_s", "share"}}`` over ``wall``
    seconds, plus the share of ``wall`` the layer spans cover."""
    table: dict[str, dict] = {}
    for sp, self_s in layer_spans(trace):
        row = table.setdefault(sp.name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += self_s
    for row in table.values():
        row["share"] = row["self_s"] / wall if wall > 0 else 0.0
    covered = sum(row["self_s"] for row in table.values())
    return table, (covered / wall if wall > 0 else 0.0)


def format_layer_table(table: dict, wall: float, coverage: float) -> str:
    lines = [f"{'layer':<24}{'calls':>8}{'seconds':>11}{'share':>8}"]
    for name in sorted(table, key=lambda n: -table[n]["self_s"]):
        row = table[name]
        lines.append(
            f"{name:<24}{row['calls']:>8}{row['self_s']:>11.4f}"
            f"{100 * row['share']:>7.1f}%"
        )
    lines.append(f"{'traced wall':<32}{wall:>11.4f}  layers cover {100 * coverage:.1f}%")
    return "\n".join(lines)


def built_calls(trace: obs.Trace, layer: str) -> int:
    """Number of ``layer`` spans whose ``plan`` call actually built."""
    return sum(
        1 for sp in trace.walk() if sp.name == layer and sp.attrs.get("built")
    )


def attr_sum(trace: obs.Trace, layer: str, attr: str) -> int:
    return sum(sp.attrs.get(attr, 0) for sp in trace.walk() if sp.name == layer)


def counter_sum(span, counter: str) -> float:
    """``counter`` summed over ``span`` and every span inside it."""
    return sum(sp.counters.get(counter, 0) for sp in span.walk())


def durations(trace: obs.Trace, layer: str) -> list[float]:
    return [sp.dur for sp in trace.walk() if sp.name == layer]


def self_outside(trace: obs.Trace, layer: str, inner: str) -> list[float]:
    """Per ``layer`` span: its duration minus the ``inner`` spans inside
    it.  ``inner`` names a span the program itself records (the solvers'
    ``plan.apply``); a trace without any raises instead of reading as
    zero."""
    out, found = [], 0
    for sp in trace.walk():
        if sp.name == layer:
            spans = [d for d in sp.walk() if d.name == inner]
            found += len(spans)
            out.append(sp.dur - sum(d.dur for d in spans))
    if out and not found:
        raise RuntimeError(f"no {inner!r} spans inside {layer!r} spans")
    return out
