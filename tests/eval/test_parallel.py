"""Tests for the evaluation harness's parallel fan-out helpers.

The contract is that ``n_jobs`` only changes wall-clock, never results:
every experiment cell is independently seeded, so a parallel run must
be indistinguishable from the serial one.
"""

import pytest

from repro.core.jobs import resolve_jobs, usable_cpus
from repro.eval.experiments import ablations, fig5, table1
from repro.eval.harness import parallel_map


def _square(x):
    return x * x


class TestResolveJobs:
    """``parallel_map`` resolves with ``default=1``: None stays serial."""

    def test_none_and_zero_mean_serial(self):
        assert resolve_jobs(None, default=1) == 1
        assert resolve_jobs(0, default=1) == 1

    def test_minus_one_means_all_cores(self):
        assert resolve_jobs(-1, default=1) == usable_cpus()

    def test_positive_passthrough(self):
        assert resolve_jobs(3, default=1) == 3


class TestParallelMap:
    def test_serial_default(self):
        assert parallel_map(_square, [1, 2, 3]) == [1, 4, 9]

    def test_empty(self):
        assert parallel_map(_square, [], n_jobs=4) == []

    @pytest.mark.parametrize("mode", ["process", "thread"])
    def test_parallel_matches_serial_in_order(self, mode):
        items = list(range(17))
        serial = parallel_map(_square, items)
        fanned = parallel_map(_square, items, n_jobs=2, mode=mode)
        assert fanned == serial  # same values, same order

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="parallel mode"):
            parallel_map(_square, [1], n_jobs=2, mode="fiber")


class TestExperimentParallelEquivalence:
    """n_jobs=2 reproduces the serial tables bit-for-bit (tiny profile)."""

    def test_table1_cell_task_is_picklable_and_seeded(self):
        task = ("ISOLET", "generic", "tiny", 512, 2, 0)
        a = table1._evaluate_cell(task)
        b = table1._evaluate_cell(task)
        assert a == b

    def test_table1_parallel_equals_serial(self):
        serial = table1.run(profile="tiny", dim=512, epochs=2,
                            datasets=("ISOLET",))
        fanned = table1.run(profile="tiny", dim=512, epochs=2,
                            datasets=("ISOLET",), n_jobs=2)
        assert serial.rows == fanned.rows
        assert serial.data["table"] == fanned.data["table"]

    def test_fig5_parallel_equals_serial(self):
        serial = fig5.run(profile="tiny", dim=512, epochs=2,
                          datasets=("EEG",))
        fanned = fig5.run(profile="tiny", dim=512, epochs=2,
                          datasets=("EEG",), n_jobs=2)
        assert serial.data["curves"] == fanned.data["curves"]

    def test_window_sweep_parallel_equals_serial(self):
        serial = ablations.run_window_sweep(profile="tiny", dim=512)
        fanned = ablations.run_window_sweep(profile="tiny", dim=512, n_jobs=2)
        assert serial.rows == fanned.rows
