"""Tests for the bit-packed encoding kernels (repro.core.kernels).

The contract under test: the packed engine is *bit-identical* to the
reference bipolar engine for every GENERIC/ngram configuration, chunk
size, and thread count -- it is an implementation swap, never a model
change.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.encoders import GenericEncoder, NgramEncoder
from repro.core.encoders.base import _CHUNK_BUDGET
from repro.core.kernels import (
    GenericPackedKernel,
    add_planes,
    bit_slice_counts,
    bit_slice_planes,
    pack_bits,
    plane_counts,
    planes_at_least,
    popcount,
    popcount_words,
    unpack_bits,
    _popcount_words_lut,
)

SEEDS = st.integers(min_value=0, max_value=2**31 - 1)


def _data(seed: int, n: int, d: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(n, d))


def _pair(dim, window, use_ids, seed=3, num_levels=8):
    """Reference and packed encoders built from the same seed."""
    mk = lambda engine: GenericEncoder(
        dim=dim, num_levels=num_levels, seed=seed, window=window,
        use_ids=use_ids, engine=engine,
    )
    return mk("reference"), mk("packed")


class TestEngineEquivalence:
    @pytest.mark.parametrize("dim", [64, 100, 256])  # incl. dim % 64 != 0
    @pytest.mark.parametrize("window", [1, 2, 3])
    @pytest.mark.parametrize("use_ids", [True, False])
    def test_packed_matches_reference(self, dim, window, use_ids):
        X = _data(11, 16, 10)
        ref, pk = _pair(dim, window, use_ids)
        ref.fit(X)
        pk.fit(X)
        assert np.array_equal(ref.encode_batch(X), pk.encode_batch(X))

    def test_ngram_mode(self):
        X = _data(5, 12, 9)
        ref = NgramEncoder(dim=100, num_levels=8, seed=2, engine="reference").fit(X)
        pk = NgramEncoder(dim=100, num_levels=8, seed=2, engine="packed").fit(X)
        assert np.array_equal(ref.encode_batch(X), pk.encode_batch(X))

    def test_auto_resolves_to_packed(self):
        X = _data(0, 8, 8)
        enc = GenericEncoder(dim=64, num_levels=8, seed=1).fit(X)
        assert enc.engine == "auto"
        assert enc._kernel is not None  # packed tables built at fit

    def test_reference_engine_builds_no_kernel(self):
        X = _data(0, 8, 8)
        enc = GenericEncoder(dim=64, num_levels=8, seed=1,
                             engine="reference").fit(X)
        assert enc._kernel is None

    def test_engine_switch_after_fit(self):
        X = _data(4, 10, 8)
        enc = GenericEncoder(dim=96, num_levels=8, seed=1,
                             engine="reference").fit(X)
        ref_out = enc.encode_batch(X)
        enc.engine = "packed"
        assert np.array_equal(enc.encode_batch(X), ref_out)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown encode engine"):
            GenericEncoder(dim=64, engine="simd")

    def test_kernel_tracks_level_table_swap(self):
        """Fault injection rebinds levels.vectors; the kernel must follow."""
        X = _data(9, 10, 8)
        enc = GenericEncoder(dim=64, num_levels=8, seed=1,
                             engine="packed").fit(X)
        before = enc.encode_batch(X)
        enc.levels.vectors = -enc.levels.vectors  # global sign flip
        after = enc.encode_batch(X)
        assert not np.array_equal(before, after)
        ref = GenericEncoder(dim=64, num_levels=8, seed=1,
                             engine="reference").fit(X)
        ref.levels.vectors = -ref.levels.vectors
        assert np.array_equal(after, ref.encode_batch(X))


@given(
    seed=SEEDS,
    dim=st.integers(min_value=65, max_value=160),
    d=st.integers(min_value=4, max_value=20),
    window=st.integers(min_value=1, max_value=4),
    use_ids=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_property_packed_equals_reference(seed, dim, d, window, use_ids):
    window = min(window, d)
    X = _data(seed, 6, d)
    ref, pk = _pair(dim, window, use_ids, seed=seed % 100)
    ref.fit(X)
    pk.fit(X)
    assert np.array_equal(ref.encode_batch(X), pk.encode_batch(X))


class TestParallelPipeline:
    def test_thread_count_never_changes_encodings(self):
        X = _data(21, 33, 14)
        enc = GenericEncoder(dim=128, num_levels=8, seed=2).fit(X)
        serial = enc.encode_batch(X, chunk=5, n_jobs=1)
        for jobs in (2, 4, -1):
            assert np.array_equal(serial, enc.encode_batch(X, chunk=5, n_jobs=jobs))

    def test_parallel_across_engines(self):
        X = _data(22, 17, 11)
        ref, pk = _pair(100, 3, True)
        ref.fit(X)
        pk.fit(X)
        assert np.array_equal(
            ref.encode_batch(X, chunk=3, n_jobs=3),
            pk.encode_batch(X, chunk=4, n_jobs=2),
        )

    def test_classifier_encode_jobs(self, toy_problem):
        X_train, y_train, X_test, _ = toy_problem
        from repro.core.classifier import HDClassifier

        mk = lambda jobs: HDClassifier(
            GenericEncoder(dim=128, num_levels=8, seed=5),
            epochs=2, seed=5, encode_jobs=jobs,
        ).fit(X_train, y_train)
        assert np.array_equal(mk(None).predict(X_test), mk(2).predict(X_test))


class TestChunkCost:
    def test_generic_cost_exceeds_base_estimate(self):
        """Windowed encoders must report their n_windows-scale buffers."""
        X = _data(1, 6, 40)
        enc = GenericEncoder(dim=256, num_levels=8, seed=1,
                             engine="reference").fit(X)
        base_estimate = enc.n_features * enc.dim
        assert enc._chunk_cost() > base_estimate

    def test_reference_cost_scales_with_window(self):
        X = _data(1, 6, 40)
        small = GenericEncoder(dim=256, num_levels=8, window=2,
                               engine="reference").fit(X)
        large = GenericEncoder(dim=256, num_levels=8, window=8,
                               engine="reference").fit(X)
        assert large._chunk_cost() > small._chunk_cost()

    def test_packed_cost_far_below_reference(self):
        X = _data(1, 6, 40)
        ref, pk = _pair(256, 3, True, seed=1)
        ref.fit(X)
        pk.fit(X)
        assert pk._chunk_cost() < ref._chunk_cost() // 4

    def test_auto_chunk_honors_budget(self):
        X = _data(1, 6, 40)
        enc = GenericEncoder(dim=256, num_levels=8, seed=1,
                             engine="reference").fit(X)
        chunk = enc._auto_chunk(10**9)
        assert 1 <= chunk * enc._chunk_cost() <= 2 * _CHUNK_BUDGET


class TestBitPrimitives:
    def test_popcount_words_matches_lut(self):
        rng = np.random.default_rng(3)
        words = rng.integers(0, 2**64, size=(5, 7), dtype=np.uint64)
        assert np.array_equal(popcount_words(words), _popcount_words_lut(words))

    def test_popcount_row_sum(self):
        words = np.array([[0, 0xFF, 0xFFFFFFFFFFFFFFFF]], dtype=np.uint64)
        assert popcount(words)[0] == 8 + 64
        # LUT path agrees
        assert _popcount_words_lut(words).sum() == 8 + 64

    def test_popcount_noncontiguous_input(self):
        rng = np.random.default_rng(4)
        big = rng.integers(0, 2**64, size=(6, 10), dtype=np.uint64)
        view = big[::2, 1::3]
        expected = np.array([
            [bin(int(w)).count("1") for w in row] for row in view
        ]).sum(axis=-1)
        assert np.array_equal(popcount(view), expected)

    def test_bit_slice_counts_matches_unpack(self):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, size=(37, 4, 130), dtype=np.uint8)
        words = pack_bits(bits)  # (37, 4, 3)
        counts = bit_slice_counts(words)
        assert counts.shape == (4, 192)
        assert np.array_equal(counts[:, :130], bits.sum(axis=0, dtype=np.int32))

    def test_bit_slice_counts_single_word(self):
        words = pack_bits(np.array([[1, 0, 1, 1]], dtype=np.uint8))  # (1, 1)
        counts = bit_slice_counts(words)
        assert counts.shape == (64,)
        assert counts[:4].tolist() == [1, 0, 1, 1]
        assert counts[4:].sum() == 0

    def test_bit_slice_counts_rejects_flat_input(self):
        with pytest.raises(ValueError, match="packed words"):
            bit_slice_counts(np.zeros(4, dtype=np.uint64))


def _true_counts(words: np.ndarray) -> np.ndarray:
    """Oracle: unpack every slab and sum (int64)."""
    return unpack_bits(words, words.shape[-1] * 64).sum(axis=0,
                                                         dtype=np.int64)


class TestBitPlanes:
    """The carry-save planes and their two read-outs."""

    @pytest.mark.parametrize("m", [1, 2, 255, 256, 300])
    def test_counts_readout_at_dtype_boundaries(self, m):
        # m = 255 is the largest count the uint8 accumulator holds;
        # 256 and 300 need the uint16 one.  All-ones slabs hit the max.
        rng = np.random.default_rng(m)
        words = rng.integers(0, 2**64, size=(m, 3, 2), dtype=np.uint64)
        words[:, 0, :] = np.iinfo(np.uint64).max
        planes = bit_slice_planes(words)
        assert len(planes) == m.bit_length()
        counts = plane_counts(planes)
        assert counts.dtype == np.int32
        np.testing.assert_array_equal(counts, _true_counts(words))
        assert (counts[0] == m).all()
        np.testing.assert_array_equal(bit_slice_counts(words), counts)

    @given(
        m=st.integers(min_value=1, max_value=80),
        rows=st.integers(min_value=1, max_value=20),
        n_words=st.integers(min_value=1, max_value=70),
        seed=SEEDS,
    )
    @settings(max_examples=60, deadline=None)
    def test_planes_are_the_binary_count(self, m, rows, n_words, seed):
        words = np.random.default_rng(seed).integers(
            0, 2**64, size=(m, rows, n_words), dtype=np.uint64
        )
        before = words.copy()
        planes = bit_slice_planes(words)
        np.testing.assert_array_equal(words, before)  # input untouched
        weights = sum(
            unpack_bits(p, n_words * 64).astype(np.int64) << b
            for b, p in enumerate(planes)
        )
        np.testing.assert_array_equal(weights, _true_counts(words))

    @given(
        m=st.integers(min_value=1, max_value=300),
        split=st.floats(min_value=0.0, max_value=1.0),
        seed=SEEDS,
    )
    @settings(max_examples=40, deadline=None)
    def test_comparator_matches_counts(self, m, split, seed):
        words = np.random.default_rng(seed).integers(
            0, 2**64, size=(m, 2, 3), dtype=np.uint64
        )
        counts = _true_counts(words)
        planes = bit_slice_planes(words)
        # block-wise planes ripple-added read out the same counts
        cut = int(split * m)
        if 0 < cut < m:
            summed = add_planes(bit_slice_planes(words[:cut]),
                                bit_slice_planes(words[cut:]))
            np.testing.assert_array_equal(plane_counts(summed), counts)
            planes = summed
        for t in (0, 1, m // 2, m // 2 + 1, m, m + 1):
            got = unpack_bits(planes_at_least(planes, t), 3 * 64)
            np.testing.assert_array_equal(got, counts >= t)

    def test_comparator_returns_fresh_words(self):
        words = np.random.default_rng(0).integers(
            0, 2**64, size=(254, 1, 2), dtype=np.uint64
        )
        planes = bit_slice_planes(words)
        top = planes_at_least(planes, 128)  # k = 254: the top plane
        np.testing.assert_array_equal(top, planes[7])
        top[:] = 0
        assert planes[7].any()


class TestKernelValidation:
    def test_level_shape_mismatch(self):
        with pytest.raises(ValueError, match="level table"):
            GenericPackedKernel(np.ones((4, 32), np.int8), None, 2, 64)

    def test_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            GenericPackedKernel(np.ones((4, 64), np.int8), None, 0, 64)

    def test_window_longer_than_input(self):
        k = GenericPackedKernel(np.ones((4, 64), np.int8), None, 5, 64)
        with pytest.raises(ValueError, match="longer than input"):
            k.encode_bins(np.zeros((2, 3), dtype=np.int64))

    def test_table_footprint_reported(self):
        k = GenericPackedKernel(np.ones((4, 64), np.int8), None, 3, 64)
        assert k.nbytes() == 3 * 4 * 1 * 8  # offsets x levels x words x 8B


class TestRestoredModelPath:
    def test_import_model_uses_packed_engine(self, tmp_path, toy_problem):
        """Restored encoders skip fit(); the kernel must build lazily."""
        from repro.core import model_io
        from repro.core.classifier import HDClassifier

        X_train, y_train, X_test, _ = toy_problem
        enc = GenericEncoder(dim=128, num_levels=8, seed=4)
        clf = HDClassifier(enc, epochs=2, seed=4).fit(X_train, y_train)
        image = model_io.export_model(clf)
        restored = model_io.import_model(image)
        assert restored.encoder.engine == "auto"
        assert np.array_equal(restored.predict(X_test), clf.predict(X_test))


class TestCrossEngineOpAccounting:
    """The two engines must agree on *logical* op counts.

    The packed kernel executes 64 dimensions per uint64 XOR, but the
    device/energy models charge per-dimension logical work; if the
    packed engine reported word ops, every traced packed run would look
    ~64x cheaper than the identical reference run.
    """

    @pytest.mark.parametrize("use_ids", [True, False])
    def test_op_profile_identical_across_engines(self, use_ids):
        X = _data(7, 6, 10)
        ref, pk = _pair(128, 3, use_ids)
        ref.fit(X)
        pk.fit(X)
        assert ref.op_profile() == pk.op_profile()

    @pytest.mark.parametrize("use_ids", [True, False])
    def test_kernel_reports_logical_not_word_ops(self, use_ids):
        X = _data(9, 4, 12)
        _, pk = _pair(128, 2, use_ids)
        pk.fit(X)
        profile = pk.op_profile()
        counts = pk._current_kernel().op_counts(n_features=12, n_samples=1)
        assert counts["xor_ops"] == profile.xor_ops
        assert counts["add_ops"] == profile.add_ops
        # the physical word count is dim/64-fold smaller -- never what
        # gets reported as the logical total
        assert counts["word_xor_ops"] * 64 == counts["xor_ops"]
        assert counts["word_xor_ops"] < counts["xor_ops"]

    def test_op_counts_scale_with_samples(self):
        X = _data(2, 4, 10)
        _, pk = _pair(64, 2, True)
        pk.fit(X)
        kernel = pk._current_kernel()
        one = kernel.op_counts(n_features=10, n_samples=1)
        many = kernel.op_counts(n_features=10, n_samples=5)
        assert many["xor_ops"] == 5 * one["xor_ops"]
        assert many["add_ops"] == 5 * one["add_ops"]

    def test_window_longer_than_input_rejected(self):
        k = GenericPackedKernel(np.ones((4, 64), np.int8), None, 3, 64)
        with pytest.raises(ValueError, match="window"):
            k.op_counts(n_features=2)

    def test_traced_spans_agree_across_engines(self):
        """End to end: identical encode spans from both engines."""
        from repro.obs import trace as obs_trace
        from repro.obs.export import CollectorSink

        X = _data(13, 8, 10)
        ref, pk = _pair(128, 3, True)
        ref.fit(X)
        pk.fit(X)
        sink = CollectorSink()
        obs_trace.enable_tracing(sink)
        try:
            ref.encode_batch(X)
            pk.encode_batch(X)
        finally:
            obs_trace.reset()
        ref_rec, pk_rec = sink.spans
        assert ref_rec["attrs"]["engine"] == "reference"
        assert pk_rec["attrs"]["engine"] == "packed"
        assert ref_rec["ops"] == pk_rec["ops"]
