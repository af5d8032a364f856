"""Native partitioner loops: move-for-move identity with the NumPy path.

The four hot loops of the multilevel partitioner — FM's pass loop, the
K-way polish, the HCM matching walk and the two initial bisections —
run in C when the default backend resolves to native.  Each must leave
exactly the partition (and, where it draws one, the RNG state) the
NumPy loop leaves, on any hypergraph: duplicate pins, single-pin and
zero-cost nets, zero-weight vertices, one to three constraints,
zero-limit targets and empty inputs.  Table II's text pins the whole
pipeline end to end.  The dispatch discipline of the SpMV kernels
carries over: the ``REPRO_NATIVE_DEBUG`` validators, the sanitizer
build and the silent no-compiler fallback.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native.build as native_build
from repro.errors import VerificationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.tables import run_table2
from repro.hypergraph import Hypergraph, PartitionConfig, partition_kway
from repro.hypergraph.coarsen import coarsen_once
from repro.hypergraph.initial import greedy_growing, random_bisection
from repro.hypergraph.kway import kway_greedy_refine
from repro.hypergraph.refine import _context, _FMState, fm_refine
from repro.native import DEBUG_ENV, native_status, set_default_backend
from repro.native import partition as native_partition
from repro.native.build import _reset_native_state

from tests.test_native_sanitize import _run_child, _skip_if_unloadable


def _outcome(fn):
    """``fn()``'s result, or the type and text of what it raised."""
    try:
        return "ok", fn()
    except Exception as exc:  # both backends must fail alike
        return "raised", (type(exc).__name__, str(exc))


def _both(fn):
    """Run ``fn`` under the NumPy and the native default backend."""
    out = {}
    try:
        for backend in ("numpy", "native"):
            set_default_backend(backend)
            out[backend] = _outcome(fn)
    finally:
        set_default_backend(None)
    return out["numpy"], out["native"]


def _same(a, b) -> None:
    assert a[0] == b[0], (a, b)
    if a[0] == "raised":
        assert a[1] == b[1]
        return
    for x, y in zip(a[1], b[1]):
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        else:
            assert x == y


@st.composite
def hypergraphs(draw, max_vertices: int = 14, max_nets: int = 14):
    n = draw(st.integers(0, max_vertices))
    ncon = draw(st.integers(1, 3))
    pins = st.lists(st.integers(0, n - 1), max_size=6) if n else st.just([])
    nets = draw(st.lists(pins, max_size=max_nets))
    costs = draw(st.lists(st.integers(0, 4), min_size=len(nets), max_size=len(nets)))
    weights = draw(
        st.lists(
            st.lists(st.integers(0, 4), min_size=ncon, max_size=ncon),
            min_size=n, max_size=n,
        )
    )
    return Hypergraph.from_net_lists(
        nets, n,
        vweights=np.array(weights, dtype=np.int64).reshape(n, ncon),
        ncosts=np.array(costs, dtype=np.int64),
    )


_TARGET_SCALES = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])


@st.composite
def bisection_inputs(draw):
    hg = draw(hypergraphs())
    total = hg.total_weight().astype(np.float64)
    s0 = np.array([draw(_TARGET_SCALES) for _ in range(hg.nconstraints)])
    s1 = np.array([draw(_TARGET_SCALES) for _ in range(hg.nconstraints)])
    part = np.array(
        draw(st.lists(st.integers(0, 1), min_size=hg.nvertices, max_size=hg.nvertices)),
        dtype=np.int8,
    )
    eps = draw(st.sampled_from([0.0, 0.03, 0.5]))
    seed = draw(st.integers(0, 2**16))
    return hg, (total * s0, total * s1), part, eps, seed


# ----------------------------------------------------------------------
# Loop-level differential tests
# ----------------------------------------------------------------------


@pytest.mark.native
@settings(max_examples=300, deadline=None)
@given(bisection_inputs(), st.integers(1, 4))
def test_fm_refine_matches_python(args, passes):
    hg, targets, part, eps, _seed = args
    _same(*_both(lambda: fm_refine(hg, part, targets, eps, max_passes=passes)))


@pytest.mark.native
@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.integers(2, 5), st.integers(0, 2**16), st.integers(1, 3))
def test_kway_polish_matches_python(hg, k, seed, passes):
    part = np.random.default_rng(seed).integers(0, k, size=hg.nvertices)
    eps = (0.0, 0.03, 0.5)[seed % 3]
    _same(*_both(lambda: (kway_greedy_refine(hg, part, k, eps, max_passes=passes),)))


@pytest.mark.native
@settings(max_examples=200, deadline=None)
@given(hypergraphs(), st.integers(0, 2**16), st.sampled_from([2, 3, 200]))
def test_coarsening_matches_python(hg, seed, max_net_size):
    def run():
        rng = np.random.default_rng(seed)
        cmap, coarse = coarsen_once(hg, rng, max_net_size=max_net_size)
        return (
            cmap, coarse.xpins, coarse.pins, coarse.vweights, coarse.ncosts,
            rng.bit_generator.state,
        )

    _same(*_both(run))


@pytest.mark.native
@settings(max_examples=300, deadline=None)
@given(bisection_inputs())
def test_initial_bisections_match_python(args):
    hg, targets, _part, _eps, seed = args
    for construct in (greedy_growing, random_bisection):
        def run():
            rng = np.random.default_rng(seed)
            return construct(hg, targets, rng), rng.bit_generator.state

        _same(*_both(run))


@pytest.mark.native
@settings(max_examples=60, deadline=None)
@given(hypergraphs(max_vertices=40, max_nets=40), st.integers(1, 6), st.integers(0, 99))
def test_partition_kway_matches_python(hg, k, seed):
    cfg = PartitionConfig(seed=seed, coarsen_to=4)
    _same(*_both(lambda: (partition_kway(hg, k, cfg),)))


@pytest.mark.native
def test_generator_models_match_python():
    """Column-net, fine-grain and the multi-constraint checkerboard
    stages on generator matrices: identical partitions."""
    from repro.engine import PartitionEngine
    from repro.generators.suite import table1_suite

    for sm in table1_suite("tiny")[:3]:
        a = sm.matrix()

        def plans():
            eng = PartitionEngine(a, seed=4)
            return tuple(
                eng.plan(scheme, 8).partition.nnz_part
                for scheme in ("1d-rowwise", "finegrain", "checkerboard")
            )

        _same(*_both(plans))


@pytest.mark.native
@pytest.mark.slow
def test_table2_text_identical_across_backends():
    """Golden pin: Table II at tiny scale, byte for byte."""
    cfg = ExperimentConfig(scale="tiny")
    texts = {}
    try:
        for backend in ("numpy", "native"):
            set_default_backend(backend)
            texts[backend] = run_table2(cfg, jobs=2).text
    finally:
        set_default_backend(None)
    assert texts["numpy"] == texts["native"]


# ----------------------------------------------------------------------
# REPRO_NATIVE_DEBUG validators (raise before C is entered)
# ----------------------------------------------------------------------


def _fm_kwargs(hg: Hypergraph, part: np.ndarray) -> dict:
    total = hg.total_weight().astype(np.float64)
    st_ = _FMState(hg, part.copy(), (total / 2, total / 2), 0.03)
    ctx = _context(hg)
    return dict(
        xpins=hg.xpins.copy(), pins=hg.pins.copy(), ncosts=hg.ncosts,
        xnets=hg.xnets.copy(), nets=hg.nets.copy(), vipt=ctx.vnets_indptr.copy(),
        vnets=ctx.vnets.copy(), gain_bound=ctx.gain_bound, weights=st_.wfloat,
        inv_limits=st_.inv_limits, zero_limit=~st_.limit_pos, part=st_.part,
        pc=st_.pc, gain=st_.gain, pw=st_.pw, cut=st_.cut, max_passes=2,
        stall_fraction=8,
    )


def test_debug_validators_refuse_bad_fm_inputs(monkeypatch):
    monkeypatch.setenv(DEBUG_ENV, "1")
    hg = Hypergraph.from_net_lists([[0, 1, 2], [2, 3], [3, 4, 0]], 5)
    part = np.array([0, 0, 1, 1, 1], dtype=np.int8)

    kw = _fm_kwargs(hg, part)
    kw["pins"][1] = 9  # pin id out of range
    with pytest.raises(VerificationError, match="pins indexes outside"):
        native_partition.fm_passes(None, **kw)

    kw = _fm_kwargs(hg, part)
    kw["nets"][0] = -1  # net id out of range
    with pytest.raises(VerificationError, match="nets indexes outside"):
        native_partition.fm_passes(None, **kw)

    kw = _fm_kwargs(hg, part)
    kw["xpins"][1], kw["xpins"][2] = kw["xpins"][2], kw["xpins"][1]
    with pytest.raises(VerificationError, match="xpins is not a monotone CSR"):
        native_partition.fm_passes(None, **kw)

    kw = _fm_kwargs(hg, part)
    kw["gain"][3] = kw["gain_bound"] + 1
    with pytest.raises(VerificationError, match="initial gain lies outside"):
        native_partition.fm_passes(None, **kw)


def test_debug_validators_refuse_bad_polish_matching_and_growing_inputs(monkeypatch):
    monkeypatch.setenv(DEBUG_ENV, "1")
    hg = Hypergraph.from_net_lists([[0, 1], [1, 2]], 3)
    with pytest.raises(VerificationError, match="part indexes outside"):
        native_partition.kway_polish(
            None, xnets=hg.xnets, nets=hg.nets, vipt=hg.xnets, vnets=hg.nets,
            ncosts=hg.ncosts, weights=np.ones((3, 1)), limit=np.ones(1),
            part=np.array([0, 1, 2]), pc=np.zeros((2, 2), dtype=np.int64),
            pw=np.zeros((2, 1)), max_passes=1,
        )
    mate = np.full(3, -1, dtype=np.int64)
    with pytest.raises(VerificationError, match="indptr is not a monotone CSR"):
        native_partition.hcm_match(
            None, np.arange(3), np.array([0, 2, 1, 2]), np.array([1, 0]),
            np.ones(2), mate,
        )
    with pytest.raises(VerificationError, match="order indexes outside"):
        native_partition.greedy_grow(
            None, order=np.array([0, 1, 3]), xpins=hg.xpins, pins=hg.pins,
            xnets=hg.xnets, nets=hg.nets, valid=np.ones(2, dtype=bool),
            contrib=np.ones(2), vweights=hg.vweights, t0=np.ones(1),
            part=np.ones(3, dtype=np.int8),
        )


@pytest.mark.native
def test_debug_mode_keeps_partitions_identical(monkeypatch):
    """Valid inputs pass the validators and partition identically."""
    monkeypatch.setenv(DEBUG_ENV, "1")
    from repro.generators.mesh import knn_mesh
    from repro.hypergraph import column_net_model

    hg = column_net_model(knn_mesh(300, 6, dim=2, seed=3))
    _same(*_both(lambda: (partition_kway(hg, 6, PartitionConfig(seed=2)),)))


# ----------------------------------------------------------------------
# No compiler, sanitizer build
# ----------------------------------------------------------------------


def test_no_compiler_partition_falls_back_silently(monkeypatch):
    """``auto`` on a compiler-less host: NumPy loops, same partition,
    and the reason in ``native_status()``."""
    from repro.generators.mesh import knn_mesh
    from repro.hypergraph import column_net_model

    hg = column_net_model(knn_mesh(300, 6, dim=2, seed=3))
    cfg = PartitionConfig(seed=2)
    _reset_native_state()
    set_default_backend("numpy")
    expected = partition_kway(hg, 6, cfg)
    set_default_backend(None)
    monkeypatch.setattr(native_build, "find_compiler", lambda: None)
    try:
        assert native_partition.partition_kernels() is None
        assert np.array_equal(partition_kway(hg, 6, cfg), expected)
        status = native_status()
        assert status["available"] is False
        assert "no C compiler" in status["reason"]
    finally:
        _reset_native_state()


_SANITIZED_PARTITIONER_CHILD = """
import numpy as np
from repro.native import build, set_default_backend
from repro.native.partition import partition_kernels

lib = build.get_kernels()
if lib is None:
    print("SKIP-NATIVE:", build.native_status()["sanitize_reason"])
    raise SystemExit(0)
assert build.native_status()["variant"] == "sanitize"

from repro.engine import PartitionEngine
from repro.generators.suite import table1_suite

for sm in table1_suite("tiny")[:2]:
    a = sm.matrix()
    parts = {}
    for backend in ("numpy", "native"):
        set_default_backend(backend)
        assert (partition_kernels() is not None) == (backend == "native")
        eng = PartitionEngine(a, seed=4)
        parts[backend] = [
            eng.plan(s, 8).partition.nnz_part
            for s in ("1d-rowwise", "finegrain", "checkerboard")
        ]
    for x, y in zip(parts["numpy"], parts["native"]):
        assert np.array_equal(x, y), sm.name
print("OK-SANITIZED-PARTITIONER")
"""


@pytest.mark.native
@pytest.mark.sanitize
def test_sanitized_partitioner_loops_match_python():
    """The ASan/UBSan build of the partitioner loops runs the golden
    generator instances clean and bit-identical to the NumPy path."""
    proc = _run_child(_SANITIZED_PARTITIONER_CHILD)
    _skip_if_unloadable(proc)
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "OK-SANITIZED-PARTITIONER" in proc.stdout
