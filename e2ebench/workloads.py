"""The benchmark's three workloads.

Each workload is a closed loop with one client and fills a
:class:`Run`: end-to-end metrics from untraced work, per-layer metrics
from a separate traced pass (``Run.trace``), and a correctness check
per cell, per solve and per probe.

- ``table2-cold``: ``run_table2`` at scale ``tiny`` with ``jobs =
  nproc`` and a fresh artifact cache per grid.  The unit of work is a
  whole cold grid (72 cells); at least three identical grids run.
- ``solve-cg-mesh`` / ``solve-power-dense``: one operator partitioned
  once at K=64 and compiled, then a stream of seeded solves.  The unit
  of work is one solve.

``latency_rel.p50`` is the median unit's time over the median time of
a fixed reference timed in the same run: ten plain scipy matvecs on the
operator after every solve, three fresh interpreters importing numpy
and scipy before every grid.  Other tenants of a shared host slow the
unit and its reference alike; the ratio of the median CG solve to the
median matvec stayed within ±3% while either one's seconds moved by
20-50%.  The seconds are printed, not reported as metrics.

The measured work is the same in every run, so that a run-to-run
change is the program's or the host's, not the input's.  The solve
operators and their partitions are fixed (``OPERATOR_SEED``) and
``--seed`` drives the right-hand sides: a seed-dependent mesh moves
``quality.max_msgs`` of the single K=64 plan between 9 and 14.  Every
table grid uses the fixed experiment seed ``TABLE_SEED`` and ``--seed``
drives the probe vectors every cell is re-checked on.
"""

from __future__ import annotations

import contextlib
import pathlib
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

import layers
from repro import obs
from repro.engine import PartitionEngine
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import run_table2, table_grid
from repro.generators.circuit import circuit_like
from repro.generators.mesh import knn_mesh
from repro.hypergraph import PartitionConfig
from repro.jobs import host_cpus
from repro.metrics import geomean
from repro.simulate.common import resolve_x
from repro.simulate.report import run_partition
from repro.solvers import conjugate_gradient, power_iteration
from repro.sweep import ArtifactCache, derive_seed, quality_identical

SCALE = "tiny"
SETUP_REPS = 2
TABLE_SETUP_REPS = 3  # per grid; a table set-up is one short interpreter start
TABLE_GRIDS = 3
TABLE_SEED = 1
K_SOLVE = 64
OPERATOR_SEED = 1
MIN_SOLVES = 200
MAX_ITERS = 2000
APPLY_SAMPLES = 500
APPLY_BLOCK = 50
BASELINE_SOLVES = 20
REFERENCE_MATVECS = 10  # after every solve
MACHINE = ExperimentConfig(scale=SCALE).machine
L2_BYTES = 4 * 2**20
L3_BYTES = 300 * 2**20

#: ``run_table2`` record columns → scheme names of the grid.
TABLE2_COLUMNS = {"1D": "1d-rowwise", "2D": "finegrain", "s2D": "s2d-heuristic"}


@dataclass
class Run:
    """One benchmark invocation: inputs, outcomes and checks."""

    seed: int
    seconds: float
    trace: bool
    workdir: pathlib.Path
    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    lines: list = field(default_factory=list)
    trace_obj: obs.Trace | None = None

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def pct(samples, q: float) -> float:
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def quality_metrics(qualities) -> dict:
    qs = list(qualities)
    return {
        "quality.volume": geomean(q.total_volume for q in qs),
        "quality.max_msgs": geomean(q.max_msgs for q in qs),
        "quality.load_ratio": geomean(1.0 + q.load_imbalance for q in qs),
        "quality.sim_speedup": geomean(q.speedup for q in qs),
    }


def y_matches(a, x: np.ndarray, y: np.ndarray) -> bool:
    """``y`` equals ``a @ x`` within a rounding bound of ``|a| |x|``."""
    ref = a @ x
    return bool(np.all(np.abs(y - ref) <= 1e-12 * (abs(a) @ np.abs(x))))


# ======================================================================
# table2-cold
# ======================================================================

#: What a table run pays before its grid: interpreter start, imports,
#: native kernel warm-up and artifact-cache creation.
_TABLE_SETUP = (
    "import sys\n"
    "from repro.native import resolve_backend\n"
    "from repro.sweep import ArtifactCache\n"
    "resolve_backend('auto')\n"
    "ArtifactCache(sys.argv[1])\n"
)


#: The reference work a table grid's time is divided by: a fresh
#: interpreter importing numpy and scipy, interpreter-bound like the
#: partitioner and independent of this repository's code.
_TABLE_REFERENCE = "import numpy, scipy.sparse, scipy.sparse.linalg\n"


def _interpreter_s(code: str, *args: str) -> float:
    """Wall time of a fresh interpreter running ``code``."""
    t0 = obs.now()
    subprocess.run(
        [sys.executable, "-c", code, *args],
        check=True, timeout=120, capture_output=True,
    )
    return obs.now() - t0


def _table_cells(result) -> dict:
    """``{(matrix, scheme, K): PartitionQuality}`` of a Table II result."""
    return {
        (rec["name"], scheme, rec["K"]): rec[column]
        for rec in result.records
        for column, scheme in TABLE2_COLUMNS.items()
    }


def _cell_config(task, cell) -> PartitionConfig:
    """The partitioner config the sweep derives for one cell."""
    return PartitionConfig(
        epsilon=task.epsilon,
        seed=derive_seed(task.seed, task.matrix_index, cell.slot),
    )


def _recheck_from_cache(run: Run, cfg, cache_dir, cells: dict) -> None:
    """Re-evaluate every cell from the partitions the cold grid stored.

    A cell passes when its partition is in the artifact cache, its
    re-evaluation is bit-identical to the record, and both the record's
    simulated ``y`` and the partition's ``y`` on a probe ``x`` drawn
    from ``--seed`` equal scipy's ``A @ x``.
    """
    cache = ArtifactCache(cache_dir)
    for task in table_grid(2, cfg).tasks():
        engine = PartitionEngine(
            task.ref.materialize(), seed=task.seed, epsilon=task.epsilon,
            machine=task.machines[0], artifacts=cache,
        )
        a = engine.matrix.tocsr()
        x = resolve_x(None, a.shape[1])
        probe = np.random.default_rng(
            [run.seed, cfg.seed, task.task_index]
        ).standard_normal(a.shape[1])
        for cell in task.cells:
            misses = cache.stats["misses"]
            plan = engine.plan(cell.scheme, cell.k, config=_cell_config(task, cell))
            q = engine.evaluate(plan, machine=task.machines[cell.machine_index])
            rec = cells[(task.name, cell.scheme, cell.k)]
            run.check(
                cache.stats["misses"] == misses
                and quality_identical(q, rec)
                and y_matches(a, x, rec.run.y)
                and y_matches(a, probe, run_partition(plan.partition, probe).y),
                f"cell {task.name}/{cell.scheme}/K={cell.k} does not re-evaluate "
                "from its cached partition",
            )


def _decompose_task(task, cache) -> dict:
    """Walk one sweep task serially through each layer's public calls,
    every call inside its layer span; mirrors the sweep's cell path
    (record fetch, plan, evaluate, record store)."""
    cells = {}
    with obs.span("generators", matrix=task.name) as g:
        a = task.ref.materialize()
        if g is not None:
            g.attrs["nnz"] = int(a.nnz)
    with obs.span("engine.init"):
        engine = PartitionEngine(
            a, seed=task.seed, epsilon=task.epsilon,
            machine=task.machines[0], artifacts=cache,
        )
        digest = engine.matrix_digest
    for cell in task.cells:
        machine = task.machines[cell.machine_index]
        config = _cell_config(task, cell)
        key = engine.plan_key(cell.scheme, cell.k, config=config)
        mkey = ("machine", machine.alpha, machine.beta, machine.gamma)
        cache.fetch_record(digest, key, mkey)
        plan = layers.build_plan(engine, cell.scheme, cell.k, config)
        q = layers.evaluate(engine, plan, machine)
        cache.store_record(digest, key, mkey, q)
        cells[(task.name, cell.scheme, cell.k)] = q
    return cells


def _decompose_table(run: Run, cfg):
    """The serial decomposition of the grid, traced and untraced.

    The two passes alternate task by task (in alternating order), so
    host speed drift cancels out of ``trace.overhead``.  Returns
    ``(trace, {traced: wall seconds}, {traced: cells})``."""
    trace = obs.Trace()
    walls = {True: 0.0, False: 0.0}
    cells = {True: {}, False: {}}
    caches = {
        traced: layers.TracedCache(ArtifactCache(run.workdir / f"decomposed-{traced}"))
        for traced in (True, False)
    }
    for task in table_grid(2, cfg).tasks():
        for traced in (True, False) if task.task_index % 2 == 0 else (False, True):
            t0 = obs.now()
            with obs.tracing(trace) if traced else contextlib.nullcontext():
                cells[traced].update(_decompose_task(task, caches[traced]))
            walls[traced] += obs.now() - t0
    return trace, walls, cells


def table2_cold(run: Run) -> None:
    jobs = host_cpus()
    cfg = ExperimentConfig(scale=SCALE, seed=TABLE_SEED)
    # Set-ups run before each grid, so that they sample the host's speed
    # drift over the whole run as the grids do.  Tracing runs one grid,
    # the untraced reference for the traced pass.
    grids, setups, refs = [], [], []
    t_start = obs.now()
    while len(grids) < (1 if run.trace else TABLE_GRIDS) or (
        not run.trace and obs.now() - t_start < run.seconds
    ):
        for _ in range(TABLE_SETUP_REPS):
            setup_dir = run.workdir / f"setup-{len(setups)}"
            setups.append(_interpreter_s(_TABLE_SETUP, str(setup_dir)))
            refs.append(_interpreter_s(_TABLE_REFERENCE))
        cache_dir = run.workdir / f"grid-{len(grids)}"
        t0 = obs.now()
        result = run_table2(cfg, jobs=jobs, cache_dir=cache_dir)
        grids.append((result, obs.now() - t0, cache_dir))

    first = _table_cells(grids[0][0])
    for result, _, cache_dir in grids:
        cells = _table_cells(result)
        for key, q in first.items():
            run.check(quality_identical(q, cells[key]), f"cold grids differ at {key}")
        _recheck_from_cache(run, cfg, cache_dir, cells)

    walls = [wall for _, wall, _ in grids]
    task_s = [e["task_s"] for result, _, _ in grids for e in result.meta["engines"]]
    run.metrics.update(
        {
            "setup_s": statistics.median(setups),
            "latency_rel.p50": statistics.median(walls) / statistics.median(refs),
            **quality_metrics(first.values()),
        }
    )
    run.lines.append(
        f"table2-cold: {len(grids)} cold grids of {len(first)} cells in "
        f"{len(task_s)} tasks at jobs={jobs}: "
        + ", ".join(f"{w:.2f} s" for w in walls)
        + f"; {len(first) * len(grids) / sum(walls):.2f} cells/s; sweep task "
        f"p50 {pct(task_s, 50):.3f} s, p95 {pct(task_s, 95):.3f} s; reference "
        f"interpreter p50 {statistics.median(refs):.3f} s"
    )
    if run.trace:
        result, wall, cache_dir = grids[0]
        _table_layers(run, cfg, jobs, result, wall, cache_dir)


def _table_layers(run, cfg, jobs, first, first_wall, first_cache) -> None:
    cells = _table_cells(first)
    engines = first.meta["engines"]
    task_s = [e["task_s"] for e in engines]
    hits = sum(e["hits"] for e in engines)
    misses = sum(e["misses"] for e in engines)

    t0 = obs.now()
    warm = run_table2(cfg, jobs=jobs, cache_dir=first_cache)
    warm_s = obs.now() - t0
    warm_cells = _table_cells(warm)
    for key, q in cells.items():
        run.check(quality_identical(q, warm_cells[key]), f"warm rerun differs at {key}")
    ahits = sum(e["artifacts"]["hits"] for e in warm.meta["engines"])
    amisses = sum(e["artifacts"]["misses"] for e in warm.meta["engines"])

    trace, walls, decomposed = _decompose_table(run, cfg)
    wall = walls[True]
    for key, q in cells.items():
        run.check(
            quality_identical(q, decomposed[True][key])
            and quality_identical(q, decomposed[False][key]),
            f"serial decomposition differs from run_table2 at {key}",
        )
    table, coverage = layers.layer_table(trace, wall)
    run.trace_obj = trace
    run.lines.append(layers.format_layer_table(table, wall, coverage))
    run.metrics.update(
        _layer_metrics(trace, table, coverage)
        | {
            "engine.memo_hit_ratio": hits / max(hits + misses, 1),
            "sweep.pool_util": sum(task_s) / (jobs * first_wall),
            "sweep.task_s.max": max(task_s),
            "sweep.cache_stores": sum(e["artifacts"]["stores"] for e in engines),
            "sweep.cache_store_s": table.get("sweep.cache_store", {}).get("self_s", 0.0),
            "sweep.warm_rerun_s": warm_s,
            "sweep.cache_hit_ratio": ahits / max(ahits + amisses, 1),
            "trace.overhead": wall / walls[False],
        }
    )


def _layer_metrics(trace: obs.Trace, table: dict, coverage: float) -> dict:
    """Per-layer metrics every traced pass reports the same way."""

    def self_s(name: str) -> float:
        return table.get(name, {}).get("self_s", 0.0)

    return {
        "hypergraph.finegrain_s": self_s("hypergraph.finegrain"),
        "hypergraph.colnet_s": self_s("hypergraph.colnet"),
        "hypergraph.calls": layers.built_calls(trace, "hypergraph.colnet")
        + layers.built_calls(trace, "hypergraph.finegrain"),
        "sparse.blocks_s": self_s("sparse.blocks"),
        "dm.block_dm_s": self_s("dm.block_dm"),
        "dm.blocks": layers.attr_sum(trace, "dm.block_dm", "blocks"),
        "core.s2d_s": self_s("core.s2d"),
        "core.s2d_bounded_s": self_s("core.s2d_bounded"),
        "simulate.run_s": self_s("simulate.run"),
        "simulate.runs": table.get("simulate.run", {}).get("calls", 0),
        "runtime.compile_s": self_s("runtime.compile"),
        "generators.s": self_s("generators"),
        "generators.nnz": layers.attr_sum(trace, "generators", "nnz"),
        "trace.coverage": coverage,
    }


# ======================================================================
# solve-cg-mesh / solve-power-dense
# ======================================================================


def mesh_laplacian() -> sp.coo_matrix:
    """SPD graph Laplacian ``1.01·D − W`` of a symmetrised 2-D k-NN mesh."""
    a = knn_mesh(10_000, 12, dim=2, seed=OPERATOR_SEED).tocsr()
    w = abs(a)
    w.setdiag(0)
    w.eliminate_zeros()
    w = ((w + w.T) * 0.5).tocsr()
    d = np.asarray(w.sum(axis=1)).ravel()
    return (sp.diags(1.01 * d) - w).tocoo()


def dense_circuit() -> sp.coo_matrix:
    """rajat30-like circuit matrix with four dense power nets."""
    return circuit_like(
        6000, avg_degree=9.6, ndense=4, dense_fraction=0.55, seed=OPERATOR_SEED
    )


@dataclass(frozen=True)
class SolveSpec:
    name: str
    operator: object
    method: str
    solver: str
    tol: float

    def rhs(self, seed: int, i: int, n: int) -> np.ndarray:
        rng = np.random.default_rng([seed, i])
        if self.solver == "cg":
            return rng.standard_normal(n)
        return rng.random(n) + 0.5  # positive start vector

    def solve(self, setup, rhs: np.ndarray):
        part, cplan = setup.plan.partition, setup.cplan
        with obs.span("solvers.solve", solver=self.solver):
            if self.solver == "cg":
                return conjugate_gradient(
                    part, rhs, iters=MAX_ITERS, tol=self.tol, plan=cplan
                )
            return power_iteration(
                part, iters=MAX_ITERS, tol=self.tol, x0=rhs, plan=cplan
            )


SOLVES = {
    "solve-cg-mesh": SolveSpec(
        "solve-cg-mesh", mesh_laplacian, "s2d-heuristic", "cg", 1e-8
    ),
    "solve-power-dense": SolveSpec(
        "solve-power-dense", dense_circuit, "s2d-bounded", "power", 1e-10
    ),
}


@dataclass
class Setup:
    engine: PartitionEngine
    plan: object
    cplan: object
    quality: object
    csr: sp.csr_matrix
    seconds: float


def solve_setup(spec: SolveSpec) -> Setup:
    """Generate, partition, compile and evaluate the operator."""
    t0 = obs.now()
    with obs.span("generators") as g:
        a = spec.operator()
        if g is not None:
            g.attrs["nnz"] = int(a.nnz)
    with obs.span("engine.init"):
        engine = PartitionEngine(a, seed=OPERATOR_SEED)
    plan = layers.build_plan(engine, spec.method, K_SOLVE, engine.partitioner())
    with obs.span("runtime.compile"):
        cplan = engine.compiled_plan(plan)
    quality = layers.evaluate(engine, plan, MACHINE)
    seconds = obs.now() - t0
    return Setup(engine, plan, cplan, quality, engine.matrix.tocsr(), seconds)


class SolveChecker:
    """Judges one solve against scipy-recomputed quantities."""

    def __init__(self, spec: SolveSpec, csr: sp.csr_matrix) -> None:
        self.spec, self.csr = spec, csr
        if spec.solver == "power":
            n = csr.shape[0]
            vals = spla.eigs(csr, k=1, which="LM", v0=np.ones(n),
                             return_eigenvectors=False)
            self.lam_ref = float(np.real(vals[0]))

    def ok(self, cplan, rhs: np.ndarray, res) -> bool:
        csr, tol = self.csr, self.spec.tol
        # The solvers bill one plan's words and messages per matvec, so
        # this guards the number of matvecs per iteration; the traced
        # pass also checks the bill against the plan's own counters.
        bill = (
            res.comm_words == res.iterations * cplan.words
            and res.comm_msgs == res.iterations * cplan.msgs
        )
        if self.spec.solver == "cg":
            # True residual; the slack covers rounding between CG's
            # recursive residual and a recomputed one.
            true = np.linalg.norm(rhs - csr @ res.x) / np.linalg.norm(rhs)
            accurate = true <= tol * (1 + 1e-6)
        else:
            # The stopping test bounds the last eigenvalue change; the
            # error is the geometric tail after it (ratio ~0.87 here,
            # so about 7x the last change): allow 10x tol.
            lam = float(res.x @ (csr @ res.x))
            accurate = abs(lam - self.lam_ref) <= 10 * tol * abs(self.lam_ref)
        return bool(res.converged and bill and accurate)


def _solve_once(run: Run, spec, setup, checker, i: int):
    """Solve the ``i``-th seeded right-hand side and check it; returns
    ``(seconds, result)``."""
    rhs = spec.rhs(run.seed, i, setup.csr.shape[0])
    t0 = obs.now()
    res = spec.solve(setup, rhs)
    seconds = obs.now() - t0
    run.check(checker.ok(setup.cplan, rhs, res), f"solve {i} failed its check")
    return seconds, res


def _probe(run: Run, setup: Setup) -> None:
    x = np.random.default_rng([run.seed, 1 << 20]).standard_normal(setup.csr.shape[1])
    run.check(
        np.array_equal(setup.cplan.apply_y(x), run_partition(setup.plan.partition, x).y),
        "CommPlan.apply_y differs from run_partition(...).y on the probe x",
    )


def plan_stream_bytes(cplan) -> int:
    """Bytes one apply reads and writes, computed from array sizes: the
    plan's index/value streams, the gathered ``x`` entries and ``y``."""
    arrays = [cplan.pre_cols, cplan.pre_vals, cplan.fold_rows,
              cplan.main_rows, cplan.main_cols, cplan.main_vals]
    for group in (cplan.group1, cplan.group2):
        if group is not None:
            arrays += [group.index, group.take]
    streams = sum(a.nbytes for a in arrays if a is not None)
    gathers = cplan.pre_cols.size + (0 if cplan.main_cols is None else cplan.main_cols.size)
    return int(streams + 8 * gathers + 8 * cplan.nrows)


def working_set_line(spec: SolveSpec, setup: Setup) -> str:
    csr = setup.csr
    csr_bytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    plan_bytes = plan_stream_bytes(setup.cplan)
    total = csr_bytes + plan_bytes + 8 * 6 * csr.shape[0]  # solver vectors
    where = "L2" if total <= L2_BYTES else "L3" if total <= L3_BYTES else "memory"
    return (
        f"{spec.name}: working set {total / 2**20:.1f} MiB (CSR "
        f"{csr_bytes / 2**20:.1f} MiB + plan streams {plan_bytes / 2**20:.1f} MiB"
        f" + vectors) vs L2 4 MiB/core, L3 300 MiB: fits in {where}; "
        "no bandwidth claim"
    )


def _reference_matvecs(csr: sp.csr_matrix, x: np.ndarray) -> list:
    """Times of REFERENCE_MATVECS plain scipy matvecs on the operator."""
    times = []
    for _ in range(REFERENCE_MATVECS):
        t0 = obs.now()
        csr @ x
        times.append(obs.now() - t0)
    return times


def solve_stream(run: Run, name: str) -> None:
    spec = SOLVES[name]
    if run.trace:
        _solve_traced(run, spec)
        return
    # The stream runs in shares, each on the plan its own set-up just
    # built: host speed drifts over seconds, so spreading the solves
    # over the whole run samples more of that drift than one contiguous
    # block would.
    samples, matvecs, setup_s, checker = [], [], [], None
    for rep in range(SETUP_REPS):
        setup = solve_setup(spec)
        setup_s.append(setup.seconds)
        checker = checker or SolveChecker(spec, setup.csr)
        _probe(run, setup)
        x = spec.rhs(run.seed, 1 << 22, setup.csr.shape[0])
        share = (rep + 1) / SETUP_REPS
        while len(samples) < MIN_SOLVES * share or sum(samples) < run.seconds * share:
            samples.append(_solve_once(run, spec, setup, checker, len(samples))[0])
            matvecs += _reference_matvecs(setup.csr, x)
    run.metrics.update(
        {
            "setup_s": statistics.median(setup_s),
            "latency_rel.p50": statistics.median(samples) / statistics.median(matvecs),
            **quality_metrics([setup.quality]),
        }
    )
    run.lines.append(
        f"{name}: {len(samples)} solves, K={K_SOLVE} {setup.cplan.executor} plan, "
        "setups " + ", ".join(f"{t:.2f} s" for t in setup_s)
        + f"; {len(samples) / sum(samples):.2f} solves/s; solve best "
        f"{min(samples):.4f} s, p50 {pct(samples, 50):.4f} s, p95 {pct(samples, 95):.4f} s;"
        f" reference matvec p50 {1e6 * statistics.median(matvecs):.1f} us"
    )
    run.lines.append(working_set_line(spec, setup))


def _baseline_solve(spec: SolveSpec, csr, rhs: np.ndarray) -> None:
    """The same problem with plain scipy, single-threaded."""
    with obs.span("baseline.solve"):
        if spec.solver == "cg":
            _, info = spla.cg(csr, rhs, rtol=spec.tol, atol=0.0, maxiter=MAX_ITERS)
            if info != 0:
                raise RuntimeError(f"scipy cg did not converge (info={info})")
            return
        x = rhs / np.linalg.norm(rhs)
        lam_old = 0.0
        for it in range(1, MAX_ITERS + 1):
            y = csr @ x
            lam = float(x @ y)
            x = y / np.linalg.norm(y)
            if it > 1 and abs(lam - lam_old) <= spec.tol * max(abs(lam), 1.0):
                return
            lam_old = lam


def _solve_traced(run: Run, spec: SolveSpec) -> None:
    trace = obs.Trace()
    with obs.tracing(trace), obs.span(f"bench.{spec.name}"):
        setup = solve_setup(spec)
        n = setup.csr.shape[0]
        x = np.random.default_rng([run.seed, 1 << 21]).standard_normal(n)
        # Alternating blocks: each kernel runs warm, host drift cancels.
        for _ in range(APPLY_SAMPLES // APPLY_BLOCK):
            for _ in range(APPLY_BLOCK):
                with obs.span("runtime.apply"):
                    setup.cplan.apply_y(x)
            for _ in range(APPLY_BLOCK):
                with obs.span("baseline.matvec"):
                    setup.csr @ x
        for i in range(BASELINE_SOLVES):
            _baseline_solve(spec, setup.csr, spec.rhs(run.seed, i, n))
    # Each traced solve is followed by the same solve untraced, so host
    # speed drift cancels out of trace.overhead.
    checker = SolveChecker(spec, setup.csr)
    traced, untraced_s = [], []
    for i in range(MIN_SOLVES):
        b = spec.rhs(run.seed, i, n)
        with obs.tracing(trace):
            traced.append(spec.solve(setup, b))
        res, solve_span = traced[-1], trace.spans[-1]
        # The plan counts its own words and messages on every apply.
        counted = (
            layers.counter_sum(solve_span, "plan.sent_words"),
            layers.counter_sum(solve_span, "plan.msgs"),
        )
        run.check(
            checker.ok(setup.cplan, b, res) and counted == (res.comm_words, res.comm_msgs),
            f"traced solve {i} failed its check",
        )
        seconds, res = _solve_once(run, spec, setup, checker, i)
        untraced_s.append(seconds)
        run.check(np.array_equal(traced[-1].x, res.x), f"traced solve {i} differs from untraced")
    _probe(run, setup)
    wall = sum(sp.dur for sp in trace.spans)

    table, coverage = layers.layer_table(trace, wall)
    run.trace_obj = trace
    run.lines.append(layers.format_layer_table(table, wall, coverage))
    run.lines.append(working_set_line(spec, setup))
    apply_s = layers.durations(trace, "runtime.apply")
    solve_s = layers.durations(trace, "solvers.solve")
    apply_p50 = pct(apply_s, 50)
    self_s = layers.self_outside(trace, "solvers.solve", "plan.apply")
    matvec_p50 = pct(layers.durations(trace, "baseline.matvec"), 50)
    info = setup.engine.cache_info()
    run.metrics.update(
        _layer_metrics(trace, table, coverage)
        | {
            "engine.memo_hit_ratio": info["hits"] / max(info["hits"] + info["misses"], 1),
            "runtime.apply_s.p50": apply_p50,
            "runtime.apply_s.p95": pct(apply_s, 95),
            "runtime.vs_scipy": apply_p50 / matvec_p50,
            "runtime.words_per_apply": setup.cplan.words,
            "runtime.msgs_per_apply": setup.cplan.msgs,
            "runtime.bytes_per_apply_computed": plan_stream_bytes(setup.cplan),
            "solvers.iterations": sum(res.iterations for res in traced),
            "solvers.self_s": statistics.median(self_s),
            "baseline.matvec_s": matvec_p50,
            "baseline.solve_s": pct(layers.durations(trace, "baseline.solve"), 50),
            "trace.overhead": pct(solve_s, 50) / pct(untraced_s, 50),
        }
    )


WORKLOADS = {
    "table2-cold": table2_cold,
    "solve-cg-mesh": lambda run: solve_stream(run, "solve-cg-mesh"),
    "solve-power-dense": lambda run: solve_stream(run, "solve-power-dense"),
}
