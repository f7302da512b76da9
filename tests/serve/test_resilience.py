"""Resilience layer: breakers, deadlines/retries, chaos, degradation."""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.faultspec import FaultSpec
from repro.serve import (
    Backpressure,
    BreakerConfig,
    ChaosPolicy,
    CircuitBreaker,
    DeadlineExceeded,
    DegradationLadder,
    DegradeConfig,
    InferenceServer,
    LoadShedPolicy,
    ModelRegistry,
    Request,
    RetryPolicy,
    ServeConfig,
    ServeError,
    WorkerError,
)
from repro.serve.resilience import CLOSED, HALF_OPEN, OPEN


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


# ---------------------------------------------------------------------------
# circuit breaker
# ---------------------------------------------------------------------------


class TestCircuitBreaker:
    def make(self, **kw):
        clock = FakeClock()
        cfg = BreakerConfig(**{"window": 8, "min_samples": 4,
                               "error_threshold": 0.5, "open_duration": 1.0,
                               "half_open_probes": 2, **kw})
        return CircuitBreaker(cfg, name="t", time_fn=clock), clock

    def test_stays_closed_under_min_samples(self):
        breaker, _ = self.make()
        for _ in range(3):
            breaker.record_failure()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_opens_on_error_rate(self):
        breaker, _ = self.make()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        assert breaker.opened == 1

    def test_opens_on_latency(self):
        breaker, _ = self.make(latency_threshold=0.1, error_threshold=1.0)
        for _ in range(6):
            breaker.record_success(latency=0.5)
        assert breaker.state == OPEN

    def test_full_cycle_open_half_open_closed(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(1.01)
        assert breaker.state == HALF_OPEN
        assert breaker.half_opened == 1
        # two probe permits, then the gate shuts
        assert breaker.allow() and breaker.allow()
        assert not breaker.allow()
        breaker.record_success(0.001)
        breaker.record_success(0.001)
        assert breaker.state == CLOSED
        assert breaker.closed_from_half_open == 1
        assert breaker.error_rate() is None  # window cleared

    def test_failed_probe_reopens(self):
        breaker, clock = self.make()
        for _ in range(4):
            breaker.record_failure()
        clock.advance(1.01)
        assert breaker.allow()
        breaker.record_failure(0.001)
        assert breaker.state == OPEN
        assert breaker.reopened == 1
        # and the open timer restarted
        clock.advance(0.5)
        assert breaker.state == OPEN
        clock.advance(0.6)
        assert breaker.state == HALF_OPEN

    def test_force_open(self):
        breaker, _ = self.make()
        breaker.force_open()
        assert breaker.state == OPEN and not breaker.allow()

    def test_state_codes(self):
        breaker, clock = self.make()
        assert breaker.state_code == 0
        breaker.force_open()
        assert breaker.state_code == 2
        clock.advance(1.01)
        assert breaker.state_code == 1

    def test_stats_schema(self):
        breaker, _ = self.make()
        assert set(breaker.stats()) == {
            "state", "error_rate", "recent_p95_s", "opened", "half_opened",
            "closed_from_half_open", "reopened",
        }

    def test_eight_thread_hammer(self):
        """8 threads of mixed traffic: no crash, sane counters, legal state."""
        breaker = CircuitBreaker(BreakerConfig(
            window=16, min_samples=4, error_threshold=0.5,
            open_duration=0.002, half_open_probes=2,
        ), name="hammer")
        stop = time.monotonic() + 0.5
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                while time.monotonic() < stop:
                    if breaker.allow():
                        if rng.random() < 0.5:
                            breaker.record_failure(rng.random() * 1e-3)
                        else:
                            breaker.record_success(rng.random() * 1e-3)
                    _ = breaker.state, breaker.error_rate(), breaker.stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert breaker.state in (CLOSED, OPEN, HALF_OPEN)
        # 50% failures against a 0.5 threshold must have tripped it
        assert breaker.opened >= 1
        rate = breaker.error_rate()
        assert rate is None or 0.0 <= rate <= 1.0


# ---------------------------------------------------------------------------
# retry policy (property-based)
# ---------------------------------------------------------------------------


class TestRetryPolicy:
    @given(
        backoff=st.floats(1e-4, 0.1),
        factor=st.floats(1.0, 4.0),
        cap=st.floats(0.01, 1.0),
        attempts=st.integers(1, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_delays_non_decreasing_and_capped(self, backoff, factor, cap,
                                              attempts):
        policy = RetryPolicy(max_retries=attempts, backoff=backoff,
                             backoff_factor=factor, max_backoff=cap)
        delays = [policy.delay_for(a) for a in range(1, attempts + 1)]
        assert all(d <= cap + 1e-12 for d in delays)
        assert all(b >= a for a, b in zip(delays, delays[1:]))

    @given(
        max_retries=st.integers(0, 5),
        attempts=st.integers(0, 8),
        budget=st.floats(-0.1, 0.5),
    )
    @settings(max_examples=200, deadline=None)
    def test_never_schedules_past_the_deadline(self, max_retries, attempts,
                                               budget):
        """A retry is only allowed when its backoff fits in the budget."""
        policy = RetryPolicy(max_retries=max_retries, backoff=0.01,
                             backoff_factor=2.0, max_backoff=0.2)
        now = 100.0
        req = Request(x=np.zeros(4), model="m", deadline=now + budget,
                      attempts=attempts)
        err = ServeError("boom", retryable=True)
        if policy.should_retry(req, err, now):
            assert attempts < max_retries
            assert policy.delay_for(attempts + 1) <= budget + 1e-9

    def test_non_retryable_never_retries(self):
        policy = RetryPolicy(max_retries=5)
        req = Request(x=np.zeros(2), model="m")
        assert not policy.should_retry(req, ValueError("plain"), 0.0)
        assert not policy.should_retry(
            req, DeadlineExceeded("late"), 0.0)

    def test_retry_count_respected(self):
        policy = RetryPolicy(max_retries=2)
        err = ServeError("x", retryable=True)
        req = Request(x=np.zeros(2), model="m")  # no deadline: inf budget
        req.attempts = 1
        assert policy.should_retry(req, err, 0.0)
        req.attempts = 2
        assert not policy.should_retry(req, err, 0.0)


# ---------------------------------------------------------------------------
# end-to-end: server + chaos
# ---------------------------------------------------------------------------


def _drain(futures, timeout=15.0):
    ok, failures = [], []
    for f in futures:
        try:
            ok.append(f.result(timeout=timeout))
        except Exception as exc:
            failures.append(exc)
    return ok, failures


class TestChaosEndToEnd:
    def test_injected_faults_are_retried_to_success(self, serve_classifier,
                                                    serve_queries):
        chaos = ChaosPolicy(fault_rate=0.25, seed=11)
        server = InferenceServer(
            ServeConfig(n_workers=2, max_batch=8, max_retries=4,
                        default_deadline=5.0),
            chaos=chaos,
        )
        server.register("m", serve_classifier)
        with server:
            futures = [server.submit("m", x) for x in serve_queries[:48]]
            ok, failures = _drain(futures)
            stats = server.stats()
        assert not failures
        assert len(ok) == 48
        assert chaos.injected_faults > 0
        assert stats["counters"]["retries"] >= chaos.injected_faults
        # retried requests report their attempt count
        assert any(p.attempts > 0 for p in ok)

    def test_memory_bitflips_leave_accuracy_usable(self, serve_classifier,
                                                   serve_queries,
                                                   toy_problem):
        _, _, X_test, y_test = toy_problem
        chaos = ChaosPolicy(
            fault=FaultSpec(error_rate=1e-4, bits=8), seed=5,
        )
        server = InferenceServer(ServeConfig(n_workers=2, max_batch=8),
                                 chaos=chaos)
        server.register("m", serve_classifier)
        with server:
            preds = server.predict_many("m", X_test, timeout=15.0)
        assert chaos.bitflip_injections > 0
        acc = np.mean([p.label for p in preds] == np.asarray(y_test))
        clean = serve_classifier.score(X_test, y_test)
        assert acc >= clean - 0.02  # paper's Fig. 6 resilience claim

    def test_worker_kills_are_respawned_and_requests_survive(
            self, serve_classifier, serve_queries):
        chaos = ChaosPolicy(kill_rate=0.5, max_kills=4, seed=3)
        server = InferenceServer(
            ServeConfig(n_workers=2, max_batch=4, max_retries=5,
                        default_deadline=10.0),
            chaos=chaos,
        )
        server.register("m", serve_classifier)
        with server:
            futures = [server.submit("m", x) for x in serve_queries[:40]]
            ok, failures = _drain(futures)
            deadline = time.monotonic() + 5.0
            while (server.worker_restarts < chaos.injected_kills
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            restarts = server.worker_restarts
        assert not failures
        assert len(ok) == 40
        assert chaos.injected_kills == 4
        assert restarts >= chaos.injected_kills
        assert not server.executor.running  # clean shutdown afterwards

    def test_no_hung_futures_after_stop(self, serve_classifier,
                                        serve_queries):
        """Every submitted future resolves, even through a chaotic stop."""
        chaos = ChaosPolicy(fault_rate=0.3, kill_rate=0.1, max_kills=2,
                            seed=9)
        server = InferenceServer(
            ServeConfig(n_workers=2, max_batch=4, max_retries=3,
                        default_deadline=5.0),
            chaos=chaos,
        )
        server.register("m", serve_classifier)
        server.start()
        futures = [server.submit("m", x) for x in serve_queries[:64]]
        time.sleep(0.05)
        server.stop()
        unresolved = [f for f in futures if not f.done()]
        assert unresolved == []


class TestDeadlines:
    def test_expired_requests_are_shed(self, serve_classifier,
                                       serve_queries):
        chaos = ChaosPolicy(latency_rate=1.0, latency=0.05, seed=2)
        server = InferenceServer(ServeConfig(n_workers=1, max_batch=4),
                                 chaos=chaos)
        server.register("m", serve_classifier)
        with server:
            futures = [server.submit("m", x, deadline=0.03)
                       for x in serve_queries[:24]]
            ok, failures = _drain(futures)
            stats = server.stats()
        assert ok or failures
        assert all(isinstance(e, DeadlineExceeded) for e in failures)
        assert len(failures) >= 1
        assert stats["counters"]["deadline_expired"] == len(failures)
        # shed-on-expiry bounds tail latency: whatever completed was fast
        assert all(p.latency < 0.5 for p in ok)

    def test_default_deadline_from_config(self, serve_classifier):
        server = InferenceServer(
            ServeConfig(n_workers=1, default_deadline=3.0))
        server.register("m", serve_classifier)
        with server:
            fut = server.submit("m", np.zeros(24))
            fut.result(timeout=5.0)
        # reach into the request path: deadline was stamped
        req = Request(x=np.zeros(2), model="m", deadline=None)
        assert not req.expired()
        assert req.remaining() == float("inf")


class TestWorkerErrorStructure:
    """The PR's bugfix: worker exceptions become structured, counted errors."""

    def test_model_exception_resolves_future_with_worker_error(
            self, serve_classifier):
        server = InferenceServer(ServeConfig(n_workers=1, max_retries=2))
        server.register("m", serve_classifier)
        with server:
            # a query with the wrong feature count blows up encode()
            fut = server.submit("m", np.zeros(3))
            with pytest.raises(WorkerError) as excinfo:
                fut.result(timeout=10.0)
            stats = server.stats()
        err = excinfo.value
        assert err.model == "m"
        assert err.worker is not None
        assert err.retryable is False  # deterministic: retrying is useless
        assert err.cause is not None
        assert stats["counters"]["errors"] >= 1
        d = err.to_dict()
        assert d["kind"] == "worker_error" and d["model"] == "m"


# ---------------------------------------------------------------------------
# degradation ladder
# ---------------------------------------------------------------------------


class TestDegradationLadder:
    def make(self, n_breakers=4, **cfg):
        clock = FakeClock()
        registry = ModelRegistry()
        policy = LoadShedPolicy(max_level=8)
        ladder = DegradationLadder(
            registry, policy,
            config=DegradeConfig(**{"cooldown": 0.0, "recover_after": 1.0,
                                    **cfg}),
            time_fn=clock,
        )
        breakers = [CircuitBreaker(BreakerConfig(), time_fn=clock)
                    for _ in range(n_breakers)]
        return ladder, breakers, policy, registry, clock

    def test_escalates_tier_by_tier(self):
        ladder, breakers, policy, _, clock = self.make()
        for b in breakers[:2]:
            b.force_open()
        assert ladder.observe(breakers) == 1
        clock.advance(0.1)
        assert ladder.observe(breakers) == 2  # approx encoding tier
        clock.advance(0.1)
        assert ladder.observe(breakers) == 3
        assert policy.level >= 4  # dim_shed forced the shed floor
        clock.advance(0.1)
        assert ladder.observe(breakers) == 4
        assert ladder.rejecting
        clock.advance(0.1)
        assert ladder.observe(breakers) == 4  # ceiling

    def test_recovers_after_quiet_period(self):
        ladder, breakers, _, _, clock = self.make(recover_after=0.5)
        breakers[0].force_open()
        breakers[1].force_open()
        ladder.observe(breakers)
        assert ladder.tier == 1
        # after open_duration the breakers go half-open (no longer open),
        # which starts the ladder's all-closed recovery timer
        clock.advance(1.01)
        ladder.observe(breakers)
        clock.advance(0.6)
        assert ladder.observe(breakers) == 0
        assert ladder.stats()["recoveries"] == 1

    def test_engine_fallback_and_restore(self, serve_classifier):
        ladder, breakers, _, registry, clock = self.make(n_breakers=2)
        registry.register("m", serve_classifier)
        dep = registry.get("m")
        original = dep.model.encoder.engine
        ladder.force_tier(1)
        assert dep.degraded
        assert dep.model.encoder.engine == "reference"
        ladder.force_tier(0)
        assert not dep.degraded
        assert dep.model.encoder.engine == original

    def test_approx_fallback_and_restore(self, serve_classifier):
        ladder, breakers, _, registry, clock = self.make(n_breakers=2)
        registry.register("m", serve_classifier)
        dep = registry.get("m")
        encoder = dep.model.encoder
        original = encoder.approx_folds
        assert original is None
        ladder.force_tier(2)
        assert dep.approx_degraded
        expected = max(1, round(0.5 * encoder.n_windows))
        assert encoder.approx_folds == expected
        # the plan carries the error bound for the sampled fold
        plan = encoder.encode_plan()
        assert plan.error_bound is not None
        assert plan.error_bound["max_abs_count_error"] == (
            encoder.n_windows - expected
        )
        ladder.force_tier(0)
        assert not dep.approx_degraded
        assert encoder.approx_folds is None

    def test_backpressure_raised_at_top_tier(self, serve_classifier):
        server = InferenceServer(ServeConfig(n_workers=1))
        server.register("m", serve_classifier)
        with server:
            server.ladder.force_tier(4)
            with pytest.raises(Backpressure):
                server.submit("m", np.zeros(24))
            stats = server.stats()
            server.ladder.force_tier(0)
            fut = server.submit("m", np.zeros(24))
            fut.result(timeout=10.0)
        assert stats["counters"]["degraded_rejections"] == 1
        # Backpressure is catchable as QueueFull (admission-control family)
        from repro.serve import QueueFull

        assert issubclass(Backpressure, QueueFull)

    def test_open_breakers_drive_server_ladder(self, serve_classifier,
                                               serve_queries):
        """Forcing every breaker open escalates the live server's ladder."""
        server = InferenceServer(ServeConfig(
            n_workers=2,
            degrade=DegradeConfig(cooldown=0.0, recover_after=30.0),
        ))
        server.register("m", serve_classifier)
        with server:
            for b in server.breakers:
                b.force_open()
            deadline = time.monotonic() + 5.0
            while server.ladder.tier == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.ladder.tier >= 1
            stats = server.stats()
        assert stats["resilience"]["ladder"]["escalations"] >= 1

    def test_stopped_while_degraded_leaves_the_callers_model(
            self, serve_classifier, serve_queries):
        # the deployment degrades its own copy of the model's encoder;
        # the classifier the caller registered keeps its settings
        encoder = serve_classifier.encoder
        engine, folds = encoder.engine, encoder.approx_folds
        server = InferenceServer(ServeConfig(n_workers=1))
        server.register("m", serve_classifier)
        with server:
            server.ladder.force_tier(2)
            dep = server.registry.get("m")
            assert dep.degraded and dep.approx_degraded
            server.predict("m", serve_queries[0], timeout=10.0)
        assert (encoder.engine, encoder.approx_folds) == (engine, folds)


# ---------------------------------------------------------------------------
# chaos policy unit behavior
# ---------------------------------------------------------------------------


class TestChaosPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="fault_rate"):
            ChaosPolicy(fault_rate=1.5)
        with pytest.raises(ValueError, match="latency"):
            ChaosPolicy(latency=-1.0)

    def test_target_workers_scope_injection(self):
        chaos = ChaosPolicy(fault_rate=1.0, target_workers=[1], seed=0)
        chaos.on_group(0, "m")  # out of scope: no raise
        from repro.serve import InjectedFault

        with pytest.raises(InjectedFault):
            chaos.on_group(1, "m")

    def test_max_kills_cap(self):
        from repro.serve import WorkerKilled

        chaos = ChaosPolicy(kill_rate=1.0, max_kills=2, seed=0)
        for _ in range(2):
            with pytest.raises(WorkerKilled):
                chaos.on_group(0, "m")
        chaos.on_group(0, "m")  # cap reached: no more kills
        assert chaos.injected_kills == 2

    def test_memory_fault_draws_are_independent_but_seeded(self):
        spec = FaultSpec(error_rate=0.01)
        a = ChaosPolicy(fault=spec, seed=4)
        b = ChaosPolicy(fault=spec, seed=4)
        spec_a, rng_a = a.memory_fault(0)
        spec_b, rng_b = b.memory_fault(0)
        assert spec_a is spec
        words = np.zeros(32, dtype=np.uint64)
        first_a = spec_a.corrupt_words(words, rng_a)
        first_b = spec_b.corrupt_words(words, rng_b)
        np.testing.assert_array_equal(first_a, first_b)
        # and the next draw differs from the first
        _, rng_a2 = a.memory_fault(0)
        assert not np.array_equal(spec_a.corrupt_words(words, rng_a2),
                                  first_a)
