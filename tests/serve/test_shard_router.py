"""ShardRouter: shortest-queue picks, partitioning, and the exact top-k merge.

The load-bearing property (the class-partitioned serving mode depends
on it): merging per-shard ``topk_to_classes`` results by the
``(distance, row)`` key is **bit-identical** to a single-process
``predict_packed`` over the full class matrix, for every D / class
count / shard count / tie pattern.  Hypothesis drives that across
random packed models.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.packed import PackedModel
from repro.serve.sharded.router import (
    ShardRouter,
    merge_topk,
    partition_classes,
)


class TestPartitionClasses:
    @given(n_classes=st.integers(1, 200), n_shards=st.integers(1, 16))
    @settings(max_examples=60, deadline=None)
    def test_partition_covers_exactly(self, n_classes, n_shards):
        spans = [partition_classes(n_classes, n_shards)[s]
                 for s in range(n_shards)]
        covered = []
        for span in spans:
            covered.extend(range(span.start, span.stop))
            assert span.stop - span.start >= 0
        assert covered == list(range(n_classes))
        sizes = [s.stop - s.start for s in spans]
        assert max(sizes) - min(sizes) <= 1


def _random_packed(rng, n_classes, n_words):
    words = rng.integers(0, 2 ** 64, size=(n_classes, n_words),
                         dtype=np.uint64)
    model = PackedModel.__new__(PackedModel)
    model.encoder = None
    model.class_words = words
    model.class_labels = np.arange(n_classes)
    model.dim = n_words * 64
    model.shared_segment = None
    return model


class TestMergeExactness:
    @given(
        seed=st.integers(0, 2 ** 32 - 1),
        n_classes=st.integers(1, 40),
        n_words=st.integers(1, 8),
        n_shards=st.integers(1, 6),
        n_queries=st.integers(1, 12),
        prefix_words=st.integers(0, 8),
        k=st.integers(1, 4),
        low_entropy=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_partitioned_topk_merge_is_bit_identical(
        self, seed, n_classes, n_words, n_shards, n_queries,
        prefix_words, k, low_entropy,
    ):
        rng = np.random.default_rng(seed)
        model = _random_packed(rng, n_classes, n_words)
        if low_entropy:
            # force Hamming-distance ties so the (distance, row)
            # tie-break is actually exercised
            model.class_words = model.class_words & np.uint64(0x3)
        queries = rng.integers(0, 2 ** 64, size=(n_queries, n_words),
                               dtype=np.uint64)
        if low_entropy:
            queries = queries & np.uint64(0x3)
        dim = None
        if 0 < prefix_words < n_words:
            dim = prefix_words * 64

        ref = model.predict_packed(queries, dim=dim)

        partials = {}
        for shard in range(n_shards):
            span = partition_classes(n_classes, n_shards)[shard]
            if span.start >= span.stop:
                partials[shard] = (np.empty((n_queries, 0)),
                                   np.empty((n_queries, 0), dtype=np.int64))
                continue
            partials[shard] = model.topk_to_classes(
                queries, k=k, dim=dim, rows=span
            )
        dists, rows = merge_topk(
            [partials[s][0] for s in range(n_shards)],
            [partials[s][1] for s in range(n_shards)], k=k,
        )
        np.testing.assert_array_equal(model.class_labels[rows[:, 0]], ref)
        # and the winning distance equals the true minimum
        nw = n_words if dim is None else dim // 64
        from repro.core.kernels import packed_hamming
        full = packed_hamming(queries[:, None, :nw],
                              model.class_words[None, :, :nw])
        np.testing.assert_array_equal(dists[:, 0], full.min(axis=1))


def _loaded(loads, mode="replica"):
    router = ShardRouter(len(loads), mode=mode, n_classes=8)
    for shard, load in enumerate(loads):
        for _ in range(load):
            router.dispatched(shard)
    return router


class TestRouterPick:
    def test_idle_shard_takes_every_pick(self):
        # loads 2:0 -- the busy shard never gets a third batch
        router = _loaded([2, 0])
        assert [router.pick([0, 1]) for _ in range(10)] == [1] * 10

    def test_equal_loads_alternate(self):
        router = _loaded([1, 1])
        picks = [router.pick([0, 1]) for _ in range(10)]
        assert picks == [0, 1] * 5

    def test_pick_avoids_ineligible(self):
        router = ShardRouter(4, mode="replica")
        for _ in range(50):
            assert router.pick(eligible=[2]) == 2
        # even when the ineligible shards are idle
        loaded = _loaded([0, 5, 0, 0])
        assert {loaded.pick([1]) for _ in range(10)} == {1}

    def test_least_loaded_override(self):
        router = ShardRouter(2, mode="replica")
        # pile synthetic load onto shard 0
        for _ in range(10):
            router.dispatched(0)
        counts = {0: 0, 1: 0}
        for _ in range(40):
            counts[router.pick(eligible=[0, 1])] += 1
        assert counts[1] > counts[0]

    def test_partition_encode_phase_is_least_loaded(self):
        router = _loaded([1, 0, 1], mode="partition")
        assert router.pick([0, 1, 2]) == 1

    def test_partition_rows(self):
        router = ShardRouter(3, mode="partition", n_classes=8)
        spans = [router.shard_rows(s) for s in range(3)]
        assert [s.stop - s.start for s in spans] == [3, 3, 2]

    def test_no_eligible_still_returns_a_shard(self):
        # the caller's breaker path owns total outage; pick still
        # returns a valid shard index rather than raising mid-dispatch
        router = _loaded([3, 1])
        assert router.pick(eligible=[]) in (0, 1)
        assert ShardRouter(2, mode="replica").pick(eligible=[]) in (0, 1)

    @given(loads=st.lists(st.integers(0, 6), min_size=1, max_size=8),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_pick_is_eligible_and_least_loaded(self, loads, data):
        router = _loaded(loads)
        n = len(loads)
        eligible = data.draw(st.lists(st.integers(0, n - 1), min_size=1,
                                      unique=True))
        for _ in range(data.draw(st.integers(1, 2 * n))):
            shard = router.pick(eligible)
            assert shard in eligible
            current = router.loads()
            assert current[shard] == min(current[s] for s in eligible)
            if data.draw(st.booleans()):
                router.dispatched(shard)
