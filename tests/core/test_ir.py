"""Property-based suite for the primitive IR, planner, and backends.

The central contract -- every backend executes every legal plan
*bit-identically* -- is pinned here with Hypothesis over random shape
classes (levels, dim, features, window, ids, approximation), not just
the handful of grid points the benchmarks time.  Alongside it: planner
policy invariants (cache behaviour, chunk sizing, error bounds), the
window-selection maths of multifold approximation, and the
content-hash kernel memoization the encoders share packed tables
through.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoders import GenericEncoder, NgramEncoder
from repro.core.ir import (
    BACKENDS,
    BACKEND_TO_ENGINE,
    ENGINE_TO_BACKEND,
    EncodeSources,
    KernelPlanner,
    PlanRequest,
    plan_encode,
    select_windows,
)
from repro.core.kernels import (
    GenericPackedKernel,
    clear_packed_kernel_cache,
    pack_bits,
    packed_kernel_cache_info,
    unpack_bits,
)
from repro.core.hypervector import random_bipolar, to_binary


# --- shared strategy: one random encode shape class -------------------------

shape_classes = st.fixed_dictionaries(
    {
        "num_levels": st.integers(min_value=2, max_value=32),
        "dim": st.integers(min_value=8, max_value=320),
        "window": st.integers(min_value=1, max_value=5),
        "extra_feats": st.integers(min_value=0, max_value=24),
        "use_ids": st.booleans(),
        "n_samples": st.integers(min_value=1, max_value=6),
        "fold_frac": st.one_of(
            st.none(), st.floats(min_value=0.1, max_value=1.0)
        ),
    }
)


def _materialize(shape, seed=0):
    """Random fitted tables + bins for one drawn shape class."""
    rng = np.random.default_rng(seed)
    n_features = shape["window"] + shape["extra_feats"]
    n_windows = n_features - shape["window"] + 1
    folds = None
    if shape["fold_frac"] is not None:
        folds = max(1, int(round(shape["fold_frac"] * n_windows)))
    levels = random_bipolar(rng, shape["dim"], size=shape["num_levels"])
    ids = (
        random_bipolar(rng, shape["dim"], size=n_windows)
        if shape["use_ids"] else None
    )
    bins = rng.integers(
        0, shape["num_levels"], size=(shape["n_samples"], n_features)
    )
    return n_features, folds, levels, ids, bins


def _plan_for(shape, n_features, folds, engine):
    return plan_encode(
        n_features=n_features,
        window=shape["window"],
        dim=shape["dim"],
        num_levels=shape["num_levels"],
        use_ids=shape["use_ids"],
        engine=engine,
        approx_folds=folds,
    )


def _sources(levels, ids, shape):
    kernel = GenericPackedKernel(
        levels, ids, window=shape["window"], dim=shape["dim"]
    )
    return (
        EncodeSources(levels=levels, ids=ids),
        EncodeSources(kernel=kernel),
    )


class TestCrossBackendIdentity:
    """Backends are bit-identical over random shape classes."""

    @given(shape=shape_classes)
    @settings(max_examples=60, deadline=None)
    def test_full_plans_bit_identical(self, shape):
        n_features, folds, levels, ids, bins = _materialize(shape)
        ref_plan = _plan_for(shape, n_features, folds, "reference")
        pk_plan = _plan_for(shape, n_features, folds, "packed")
        ref_src, pk_src = _sources(levels, ids, shape)
        ref_out = ref_plan.execute(ref_src, bins)
        pk_out = pk_plan.execute(pk_src, bins)
        assert ref_out.dtype == pk_out.dtype == np.int32
        np.testing.assert_array_equal(ref_out, pk_out)

    @pytest.mark.skipif("numba-jit" not in BACKENDS,
                        reason="numba not installed")
    @given(shape=shape_classes)
    @settings(max_examples=25, deadline=None)
    def test_numba_plans_bit_identical(self, shape):
        """The optional JIT backend joins the bit-identity contract."""
        n_features, folds, levels, ids, bins = _materialize(shape, seed=4)
        ref_plan = _plan_for(shape, n_features, folds, "reference")
        nb_plan = _plan_for(shape, n_features, folds, "numba")
        ref_src, pk_src = _sources(levels, ids, shape)
        np.testing.assert_array_equal(
            ref_plan.execute(ref_src, bins), nb_plan.execute(pk_src, bins)
        )

    @given(shape=shape_classes)
    @settings(max_examples=40, deadline=None)
    def test_approx_at_all_windows_is_exact(self, shape):
        """``approx_folds == n_windows`` must be bit-identical to exact."""
        n_features, _, levels, ids, bins = _materialize(shape, seed=1)
        n_windows = n_features - shape["window"] + 1
        exact = _plan_for(shape, n_features, None, "packed")
        ident = _plan_for(shape, n_features, n_windows, "packed")
        _, pk_src = _sources(levels, ids, shape)
        np.testing.assert_array_equal(
            exact.execute(pk_src, bins), ident.execute(pk_src, bins)
        )
        assert ident.error_bound is None

    @given(shape=shape_classes)
    @settings(max_examples=40, deadline=None)
    def test_approx_error_bound_holds(self, shape):
        """|approx - exact| <= n_windows - folds, elementwise."""
        n_features, folds, levels, ids, bins = _materialize(shape, seed=2)
        if folds is None:
            folds = 1
        exact_plan = _plan_for(shape, n_features, None, "packed")
        approx_plan = _plan_for(shape, n_features, folds, "packed")
        _, pk_src = _sources(levels, ids, shape)
        exact = exact_plan.execute(pk_src, bins)
        approx = approx_plan.execute(pk_src, bins)
        n_windows = n_features - shape["window"] + 1
        bound = n_windows - min(folds, n_windows)
        assert np.abs(approx - exact).max() <= bound
        if bound > 0:
            eb = approx_plan.error_bound
            assert eb["max_abs_count_error"] == bound
            assert eb["skipped_windows"] == bound

    @given(shape=shape_classes)
    @settings(max_examples=30, deadline=None)
    def test_primitive_popcount_search_agrees(self, shape):
        """The search primitive matches across domains too."""
        rng = np.random.default_rng(7)
        dim = shape["dim"]
        queries = rng.choice([-1, 1], size=(3, dim)).astype(np.int8)
        classes = rng.choice([-1, 1], size=(4, dim)).astype(np.int8)
        ref = BACKENDS.get("numpy-reference").popcount_search(
            queries, classes
        )
        from repro.core.kernels import pack_bits

        pk = BACKENDS.get("packed-uint64").popcount_search(
            pack_bits(queries < 0), pack_bits(classes < 0)
        )
        np.testing.assert_array_equal(np.asarray(ref), np.asarray(pk))


class TestSelectWindows:
    @given(
        n=st.integers(min_value=1, max_value=500),
        k=st.integers(min_value=1, max_value=500),
    )
    @settings(max_examples=100, deadline=None)
    def test_selection_invariants(self, n, k):
        sel = select_windows(n, k)
        if k >= n:
            assert sel is None  # exact case
            return
        assert len(sel) == k
        assert sel[0] == 0
        assert sel[-1] < n
        assert np.all(np.diff(sel) >= 1)  # strictly increasing

    def test_exact_sentinels(self):
        assert select_windows(10, None) is None
        assert select_windows(10, 10) is None
        assert select_windows(10, 99) is None
        with pytest.raises(ValueError):
            select_windows(10, 0)


class TestPlannerPolicy:
    def test_cache_hits_on_same_request(self):
        planner = KernelPlanner()
        req = PlanRequest(n_features=20, window=3, dim=256, num_levels=16)
        a = planner.plan(req)
        b = planner.plan(
            PlanRequest(n_features=20, window=3, dim=256, num_levels=16)
        )
        assert a is b
        info = planner.cache_info()
        assert info["plans"] == 1 and info["built"] == 1
        planner.clear_cache()
        assert planner.cache_info()["plans"] == 0

    def test_engine_resolution(self):
        planner = KernelPlanner()
        for engine, backend in ENGINE_TO_BACKEND.items():
            if backend not in BACKENDS:
                continue
            assert planner.resolve_backend(engine) == backend
            assert BACKEND_TO_ENGINE[backend] == engine
        assert planner.resolve_backend("auto") == BACKENDS.best().name
        with pytest.raises((KeyError, ValueError)):
            planner.resolve_backend("no-such-engine")

    @given(shape=shape_classes)
    @settings(max_examples=50, deadline=None)
    def test_chunking_respects_budget(self, shape):
        from repro.core.ir.planner import CHUNK_BUDGET

        n_features, folds, _, _, _ = _materialize(shape)
        plan = _plan_for(shape, n_features, folds, "packed")
        assert plan.chunk_samples >= 1
        assert plan.bytes_per_sample >= 1
        if plan.chunk_samples > 1:
            assert plan.chunk_samples * plan.bytes_per_sample <= CHUNK_BUDGET

    @given(shape=shape_classes)
    @settings(max_examples=30, deadline=None)
    def test_describe_and_op_counts(self, shape):
        n_features, folds, _, _, _ = _materialize(shape)
        plan = _plan_for(shape, n_features, folds, "auto")
        text = plan.describe()
        assert plan.backend_name in text
        prims = plan.primitive_ops(4)
        assert prims and all(v >= 0 for v in prims.values())
        # logical op totals scale linearly with sample count
        once = plan.primitive_ops(1)
        assert all(prims[k] == 4 * once[k] for k in once)


class TestKernelMemoization:
    def test_content_equal_tables_share_kernel(self):
        clear_packed_kernel_cache()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 20))
        a = GenericEncoder(dim=128, num_levels=8, seed=3, window=2,
                           engine="packed").fit(X)
        b = GenericEncoder(dim=128, num_levels=8, seed=3, window=2,
                           engine="packed").fit(X)
        assert a._kernel is b._kernel  # content hash matched
        info = packed_kernel_cache_info()
        assert 1 <= info["size"] <= info["max_size"]

    def test_different_content_different_kernel(self):
        clear_packed_kernel_cache()
        rng = np.random.default_rng(0)
        X = rng.normal(size=(12, 20))
        a = GenericEncoder(dim=128, num_levels=8, seed=3, window=2,
                           engine="packed").fit(X)
        b = GenericEncoder(dim=128, num_levels=8, seed=4, window=2,
                           engine="packed").fit(X)
        assert a._kernel is not b._kernel

    def test_pair_table_is_cached_and_consistent(self):
        rng = np.random.default_rng(1)
        levels = random_bipolar(rng, 192, size=8)
        kernel = GenericPackedKernel(levels, None, window=3, dim=192)
        pair = kernel.pair_table(0)
        assert pair is kernel.pair_table(0)  # lazily built once
        assert not pair.flags.writeable
        # pair(j) == rho^j(levels) ^ rho^{j+1}(levels) for all bin pairs
        bins = rng.integers(0, 8, size=(4, 5))
        bt = np.ascontiguousarray(bins.T)
        direct = kernel.tables[0][bt[0:3]] ^ kernel.tables[1][bt[1:4]]
        fused = pair[bt[0:3], bt[1:4]]
        np.testing.assert_array_equal(direct, fused)


class TestEncoderIntegration:
    def test_numba_engine_gated_when_absent(self):
        enc = GenericEncoder(dim=64, num_levels=4, seed=0)
        if "numba-jit" in BACKENDS:  # pragma: no cover - optional dep
            enc.engine = "numba"
            assert enc.engine == "numba"
        else:
            with pytest.raises(ValueError, match="numba"):
                enc.engine = "numba"

    def test_plan_pinned_and_reset_on_engine_change(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(8, 15))
        enc = GenericEncoder(dim=96, num_levels=8, seed=0, window=2,
                             engine="packed").fit(X)
        plan = enc.encode_plan()
        assert enc.encode_plan() is plan
        enc.engine = "reference"
        assert enc.encode_plan() is not plan
        assert enc.encode_plan().backend_name == "numpy-reference"

    def test_approx_folds_roundtrip_through_encoder(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 24))
        exact = GenericEncoder(dim=128, num_levels=8, seed=0, window=3,
                               engine="packed").fit(X)
        approx = GenericEncoder(dim=128, num_levels=8, seed=0, window=3,
                                engine="packed",
                                approx_folds=exact.n_windows).fit(X)
        np.testing.assert_array_equal(
            exact.encode_batch(X), approx.encode_batch(X)
        )
        approx.approx_folds = 2
        eb = approx.encode_plan().error_bound
        assert eb["max_abs_count_error"] == approx.n_windows - 2


def _signs_of(counts: np.ndarray) -> np.ndarray:
    """The counts -> sign -> pack oracle of the sign read-out."""
    return pack_bits(to_binary(np.where(counts >= 0, 1, -1)))


class TestSignReadout:
    """``encode_signs_packed`` == sign-quantized ``encode_batch``, packed."""

    @given(
        dim=st.tuples(st.integers(0, 3), st.integers(8, 63)).map(
            lambda wt: 64 * wt[0] + wt[1]
        ),
        window=st.integers(min_value=1, max_value=4),
        extra_feats=st.integers(min_value=0, max_value=20),
        use_ids=st.booleans(),
        ngram=st.booleans(),
        engine=st.sampled_from(["packed", "reference"]),
        fold_frac=st.one_of(st.none(), st.floats(0.05, 1.0)),
        tile_rows=st.one_of(st.none(), st.integers(1, 5)),
        n_jobs=st.sampled_from([None, 2]),
        n_samples=st.integers(min_value=1, max_value=9),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=80, deadline=None)
    def test_signs_equal_packed_sign_of_counts(
        self, dim, window, extra_feats, use_ids, ngram, engine, fold_frac,
        tile_rows, n_jobs, n_samples, seed,
    ):
        n_features = window + extra_feats
        n_windows = extra_feats + 1
        folds = (None if fold_frac is None
                 else max(1, int(round(fold_frac * n_windows))))
        X = np.random.default_rng(seed).normal(size=(n_samples, n_features))
        if ngram:
            mk = lambda e: NgramEncoder(dim=dim, num_levels=6, seed=seed,
                                        window=window, engine=e,
                                        approx_folds=folds)
        else:
            mk = lambda e: GenericEncoder(dim=dim, num_levels=6, seed=seed,
                                          window=window, use_ids=use_ids,
                                          engine=e, approx_folds=folds)
        enc = mk(engine).fit(X)
        if tile_rows is not None:
            # force row tiling: each tile is folded and read out alone
            enc._plan = dataclasses.replace(enc.encode_plan(),
                                            tile_rows=tile_rows)
        chunk = 2 if n_jobs else None
        signs = enc.encode_signs_packed(X, chunk=chunk, n_jobs=n_jobs)
        assert signs.dtype == np.uint64
        assert signs.shape == (n_samples, -(-dim // 64))
        counts = enc.encode_batch(X)
        np.testing.assert_array_equal(signs, _signs_of(counts))
        # and against an independent reference-engine encoding
        ref_counts = mk("reference").fit(X).encode_batch(X)
        np.testing.assert_array_equal(signs, _signs_of(ref_counts))

    def test_ties_read_out_as_plus_one(self):
        # k = 2 windows without ids: half the dims tie at count 0
        X = np.random.default_rng(3).normal(size=(16, 3))
        enc = GenericEncoder(dim=100, num_levels=4, seed=3, window=2,
                             use_ids=False, engine="packed").fit(X)
        counts = enc.encode_batch(X)
        assert (counts == 0).any()
        bits = unpack_bits(enc.encode_signs_packed(X), 100)
        np.testing.assert_array_equal(bits, (counts < 0).astype(np.uint8))
        # padding bits above dim are zero
        assert not (enc.encode_signs_packed(X)[:, -1] >> np.uint64(36)).any()

    def test_planner_window_blocking(self):
        # a shape whose planned tile is a few rows: 400 windows x 166
        # words fold 531 KB per row, so a tile holds 15 rows
        X = np.random.default_rng(5).normal(size=(34, 402))
        enc = GenericEncoder(dim=10563, num_levels=4, seed=5,
                             engine="packed").fit(X)
        tile = enc.encode_plan().tile_rows
        assert 1 < tile < len(X) // 2
        ref = GenericEncoder(dim=10563, num_levels=4, seed=5,
                             engine="reference").fit(X)
        ref_counts = ref.encode_batch(X)
        for rows in (tile - 1, tile, tile + 1):
            # one call on ``rows`` rows, or two threaded calls on as many
            for n, n_jobs in ((rows, 1), (2 * rows, 2)):
                counts = enc.encode_batch(X[:n], chunk=rows, n_jobs=n_jobs)
                np.testing.assert_array_equal(counts, ref_counts[:n])
                signs = enc.encode_signs_packed(X[:n], chunk=rows,
                                                n_jobs=n_jobs)
                np.testing.assert_array_equal(signs,
                                              _signs_of(ref_counts[:n]))

    def test_encode_span_identical_for_both_read_outs(self):
        from repro.obs import trace as obs_trace
        from repro.obs.export import CollectorSink

        X = np.random.default_rng(0).normal(size=(5, 40))
        enc = GenericEncoder(dim=200, num_levels=8, seed=0).fit(X)
        sink = CollectorSink()
        obs_trace.enable_tracing(sink)
        try:
            enc.encode_batch(X)
            enc.encode_signs_packed(X)
        finally:
            obs_trace.disable_tracing()
        counts_span, signs_span = [
            r for r in sink.spans if r["name"] == "encode"
        ]
        assert counts_span["attrs"] == signs_span["attrs"]
        assert counts_span["ops"] == signs_span["ops"]


class TestPerCallWindowBlocks:
    """Row tiles of a call stay bit-identical at every tile boundary."""

    DIM = 200  # not a multiple of 64: the sign words carry padding bits

    @pytest.fixture(scope="class")
    def data(self):
        return np.random.default_rng(21).normal(size=(2080, 256))

    @pytest.fixture(scope="class", params=[None, 100])
    def encoders(self, request, data):
        mk = lambda engine: GenericEncoder(
            dim=self.DIM, num_levels=16, seed=21, engine=engine,
            approx_folds=request.param,
        ).fit(data)
        ref = mk("reference")
        return mk("packed"), ref.encode_batch(data)

    @staticmethod
    def _tile(plan) -> int:
        """Rows per tile: the most whose fold of every window fits the slab."""
        from repro.core.ir.planner import SLAB

        fold_row = plan.folds * plan.ctx.words * 8
        assert plan.tile_rows == SLAB // fold_row
        return plan.tile_rows

    def test_block_shrinks_as_rows_grow(self, encoders):
        from repro.core.ir.backends import _row_tiles

        tile = self._tile(encoders[0].encode_plan())
        for rows in (0, 1, 32, tile - 1, tile, tile + 1, 3 * tile + 5):
            tiles = _row_tiles(rows, tile)
            assert len(tiles) == max(1, -(-rows // tile))
            assert tiles[0].start == 0 and tiles[-1].stop == rows
            assert all(a.stop == b.start for a, b in zip(tiles, tiles[1:]))
            assert all(t.stop - t.start <= tile for t in tiles)

    @pytest.mark.parametrize("n_jobs", [None, 2])
    def test_counts_and_signs_around_the_slab_boundary(
        self, encoders, data, n_jobs,
    ):
        packed, ref_counts = encoders
        t = self._tile(packed.encode_plan())
        for rows in (1, 32, t - 1, t, t + 1, len(data)):
            # one call on ``rows`` rows, or two threaded calls on as many
            n = rows if n_jobs is None else min(2 * rows, len(data))
            X = data[:n]
            counts = packed.encode_batch(X, chunk=rows, n_jobs=n_jobs)
            np.testing.assert_array_equal(counts, ref_counts[:n])
            signs = packed.encode_signs_packed(X, chunk=rows, n_jobs=n_jobs)
            np.testing.assert_array_equal(signs, _signs_of(ref_counts[:n]))

    def test_training_chunk_folds_blocks(self, encoders, data, monkeypatch):
        # a full planned chunk is folded ceil(chunk / tile_rows) tiles apart
        from repro.core.ir.backends import PackedUint64Backend

        packed, _ = encoders
        plan = packed.encode_plan()
        tiles = -(-plan.chunk_samples // plan.tile_rows)
        assert tiles > 1
        sizes = []
        bundle = PackedUint64Backend.bundle

        def counting_bundle(self, fold):
            sizes.append(fold.shape[1])
            return bundle(self, fold)

        monkeypatch.setattr(PackedUint64Backend, "bundle", counting_bundle)
        X = np.resize(data, (plan.chunk_samples, data.shape[1]))
        packed.encode_signs_packed(X, n_jobs=1)
        assert len(sizes) == tiles
        assert sum(sizes) == plan.chunk_samples
        assert max(sizes) == plan.tile_rows
