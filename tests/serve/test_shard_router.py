"""ShardRouter: shortest-queue picks over replica shards."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve.sharded.router import ShardRouter


def _loaded(loads):
    router = ShardRouter(len(loads))
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
        router = ShardRouter(4)
        for _ in range(50):
            assert router.pick(eligible=[2]) == 2
        # even when the ineligible shards are idle
        loaded = _loaded([0, 5, 0, 0])
        assert {loaded.pick([1]) for _ in range(10)} == {1}

    def test_least_loaded_override(self):
        router = ShardRouter(2)
        # pile synthetic load onto shard 0
        for _ in range(10):
            router.dispatched(0)
        counts = {0: 0, 1: 0}
        for _ in range(40):
            counts[router.pick(eligible=[0, 1])] += 1
        assert counts[1] > counts[0]

    def test_no_eligible_still_returns_a_shard(self):
        # the caller's breaker path owns total outage; pick still
        # returns a valid shard index rather than raising mid-dispatch
        router = _loaded([3, 1])
        assert router.pick(eligible=[]) in (0, 1)
        assert ShardRouter(2).pick(eligible=[]) in (0, 1)

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
