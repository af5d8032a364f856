"""The unified tracing/metrics layer (``repro.obs``).

Contract under test:

- ``span`` builds a properly nested tree in the ambient trace, restores
  the open-span stack on exceptions (labelling the failed span with
  ``error=<type>``), and is a pure no-op when no ``tracing`` block is
  open — so instrumented code never branches on whether it is traced;
- the JSON export round-trips exactly and refuses unknown schema
  versions; the Chrome export maps ``worker`` attrs to ``tid`` rows so
  Perfetto renders per-worker slices;
- the partitioner and the simulated executors record their stages as
  ``partition.*`` / ``simulate.*`` spans and counters, and
  ``stage_table``/``stage_totals`` (the ``--profile`` view) sum them by
  stage name under one root span;
- ``gather_stats`` aggregates engine memo and artifact-cache counters.
"""

import json

import pytest

from repro import obs
from repro.obs import (
    Span,
    Trace,
    from_json,
    stage_table,
    stage_totals,
    to_chrome,
    to_json,
    tree_str,
    write_trace,
)


# ----------------------------------------------------------------------
# Span tree mechanics
# ----------------------------------------------------------------------


def test_span_nesting_builds_tree():
    with obs.tracing() as tr:
        with obs.span("outer", k=4) as outer:
            obs.add("hits", 2)
            with obs.span("inner") as inner:
                obs.add("hits")
            assert obs.current_span() is outer
        obs.event("marker", note="done")
    assert [sp.name for sp in tr.spans] == ["outer", "marker"]
    root = tr.spans[0]
    assert root.attrs == {"k": 4}
    assert [c.name for c in root.children] == ["inner"]
    assert root.counters == {"hits": 2}
    assert root.children[0].counters == {"hits": 1}
    assert root.dur >= root.children[0].dur >= 0.0
    assert tr.total_counters() == {"hits": 3}
    assert [sp.name for sp in tr.walk()] == ["outer", "inner", "marker"]


def test_span_restores_stack_on_exception():
    with obs.tracing() as tr:
        with obs.span("parent"):
            with pytest.raises(RuntimeError):
                with obs.span("child"):
                    raise RuntimeError("boom")
            # Stack restored: new spans nest under parent, not the
            # failed child.
            with obs.span("sibling"):
                pass
        assert obs.current_span() is None
    child, sibling = tr.spans[0].children
    assert child.attrs["error"] == "RuntimeError"
    assert child.dur > 0.0
    assert sibling.name == "sibling" and "error" not in sibling.attrs


def test_no_trace_is_a_noop():
    assert obs.active_trace() is None
    with obs.span("orphan") as sp:
        assert sp is None
        obs.add("ignored")
        obs.event("ignored")
        obs.record("ignored", 0.0, 1.0)
    assert obs.active_trace() is None and obs.current_span() is None


def test_tracing_nests_and_restores():
    with obs.tracing() as outer:
        with obs.span("a"):
            with obs.tracing() as inner:
                assert obs.active_trace() is inner
                # The inner collector starts a fresh stack: spans root
                # at the inner trace, invisible to the outer tree.
                with obs.span("b"):
                    pass
            assert obs.active_trace() is outer
    assert [sp.name for sp in outer.walk()] == ["a"]
    assert [sp.name for sp in inner.walk()] == ["b"]


def test_ambient_collector_save_restore():
    # The ambient slot behind ``tracing``: an exception escaping an
    # inner block restores the outer trace and its open-span stack,
    # then the outermost exit restores None.
    assert obs.active_trace() is None
    with obs.tracing() as outer:
        assert obs.active_trace() is outer
        with obs.span("a") as a:
            given = Trace()
            with pytest.raises(ValueError):
                with obs.tracing(given) as inner:
                    assert inner is given and obs.active_trace() is given
                    with obs.span("b"):
                        raise ValueError("boom")
            assert obs.active_trace() is outer
            assert obs.current_span() is a
    assert obs.active_trace() is None
    assert obs.current_span() is None
    assert [sp.name for sp in given.walk()] == ["b"]
    assert [sp.name for sp in outer.walk()] == ["a"]


def test_add_between_spans_hits_trace_counters():
    with obs.tracing() as tr:
        obs.add("global", 5)
    assert tr.counters == {"global": 5}


def test_record_appends_measured_span():
    with obs.tracing() as tr:
        obs.record("parallel.superstep", 12.5, 0.25, worker=1, step=0)
    (sp,) = tr.spans
    assert (sp.t0, sp.dur) == (12.5, 0.25)
    assert sp.attrs == {"worker": 1, "step": 0}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


def _sample_trace() -> Trace:
    tr = Trace(t0=100.0, counters={"words": 7})
    root = Span("solver.cg", t0=100.5, dur=2.0, attrs={"k": 4})
    root.children.append(
        Span("solver.matvec", t0=101.0, dur=0.5, counters={"flops": 3.0})
    )
    tr.spans = [root, Span("native.cache_hit", t0=102.0, attrs={"worker": 2})]
    return tr


def test_json_round_trip_exact():
    doc = to_json(_sample_trace())
    rebuilt = from_json(json.loads(json.dumps(doc)))
    assert to_json(rebuilt) == doc
    assert doc["schema"] == obs.SCHEMA_VERSION


def test_json_rejects_unknown_schema():
    doc = to_json(_sample_trace())
    doc["schema"] = 999
    with pytest.raises(ValueError, match="schema"):
        from_json(doc)
    with pytest.raises(ValueError):
        from_json({})


def test_chrome_export_shape():
    doc = to_chrome(_sample_trace())
    assert doc["displayTimeUnit"] == "ms"
    by_name = {ev["name"]: ev for ev in doc["traceEvents"]}
    root = by_name["solver.cg"]
    assert root["ph"] == "X"
    assert root["ts"] == pytest.approx(0.5e6)  # µs from trace t0
    assert root["dur"] == pytest.approx(2.0e6)
    assert by_name["solver.matvec"]["args"] == {"flops": 3.0}
    marker = by_name["native.cache_hit"]
    assert marker["ph"] == "i"  # zero-duration span → instant event
    assert marker["tid"] == 2  # worker attr → timeline row


def test_write_trace_formats(tmp_path):
    tr = _sample_trace()
    out = tmp_path / "t.json"
    write_trace(tr, out, fmt="json")
    assert to_json(from_json(json.loads(out.read_text()))) == to_json(tr)
    write_trace(tr, out, fmt="chrome")
    assert "traceEvents" in json.loads(out.read_text())
    write_trace(tr, out, fmt="tree")
    assert "solver.cg" in out.read_text()
    with pytest.raises(ValueError, match="unknown trace format"):
        write_trace(tr, out, fmt="xml")


def test_tree_str_renders_counters():
    text = tree_str(_sample_trace())
    assert "solver.cg" in text and "  solver.matvec" in text
    assert "counters:" in text and "words=7" in text


# ----------------------------------------------------------------------
# Stage tables: the --profile view over the trace
# ----------------------------------------------------------------------


def test_stage_totals_sum_by_stage_name():
    root = Span("root", t0=0.0, dur=4.0, counters={"partition.bisections": 1})
    root.children += [
        Span("partition.coarsen", t0=0.0, dur=0.5),
        Span("partition.refine", t0=0.0, dur=1.0),
        Span("other", t0=1.0, dur=1.0, children=[
            Span("partition.refine", t0=1.0, dur=0.75,
                 counters={"partition.bisections": 2, "plan.msgs": 9}),
        ]),
    ]
    seconds, counters = stage_totals(root, "partition.")
    assert list(seconds) == ["coarsen", "refine"]
    assert seconds["refine"] == pytest.approx(1.75)
    assert counters == {"bisections": 3}
    text = stage_table(root, "partition.", label="phase")
    assert text.splitlines()[0].startswith("phase")
    assert "refine" in text and " 43.8%" in text  # 1.75 of 4.0 s
    assert "total" in text and "bisections=3" in text


def test_partitioner_and_executors_emit_spans(small_partition):
    from repro.hypergraph import PartitionConfig, column_net_model, partition_kway
    from repro.simulate import run_single_phase

    hg = column_net_model(small_partition.matrix)
    with obs.tracing() as tr:
        with obs.span("root") as root:
            partition_kway(hg, 4, PartitionConfig(seed=1))
            run_single_phase(small_partition)
    names = {sp.name for sp in tr.walk()}
    assert {"partition.coarsen", "partition.initial", "partition.refine",
            "partition.kway"} <= names
    assert {"simulate.precompute", "simulate.verify"} <= names
    _, counters = stage_totals(root, "partition.")
    assert counters["bisections"] == 3  # K=4 recursive bisection tree
    assert counters["levels"] >= 0
    assert tr.total_counters()["simulate.runs"] == 1


def test_simulate_stage_noop_without_collectors(small_partition):
    # No trace open: the instrumented executors run unchanged.
    from repro.simulate import run_single_phase

    assert obs.active_trace() is None
    run_single_phase(small_partition)
    assert obs.active_trace() is None


@pytest.fixture(scope="module")
def small_partition():
    from repro.generators.mesh import knn_mesh
    from repro.hypergraph import PartitionConfig
    from repro.partition import partition_1d_rowwise

    mesh = knn_mesh(200, 6, dim=2, seed=3)
    return partition_1d_rowwise(mesh, 4, PartitionConfig(seed=5, ninitial=2))


# ----------------------------------------------------------------------
# Stats aggregation (satellite 3)
# ----------------------------------------------------------------------


def test_gather_stats_aggregates_engines(small_partition):
    from repro.engine import PartitionEngine

    eng = PartitionEngine(small_partition.matrix)
    try:
        eng.plan("1d", 2)
        eng.plan("1d", 2)  # memo hit
        report = obs.gather_stats(engines=[eng], caches=[], native=False)
    finally:
        eng.clear_cache()
    assert report["engine_totals"]["hits"] >= 1
    assert report["engine_totals"]["misses"] >= 1
    assert report["native"] is None
    text = obs.stats_text(report)
    assert "engine" in text
