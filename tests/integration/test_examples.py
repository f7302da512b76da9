"""The shipped examples must at least parse, and the quick ones must run."""

import pathlib
import subprocess
import sys

import pytest

EXAMPLES = sorted(pathlib.Path("examples").glob("*.py"))


class TestExamplesCompile:
    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_compiles(self, path):
        source = path.read_text()
        compile(source, str(path), "exec")

    def test_at_least_five_examples(self):
        assert len(EXAMPLES) >= 5

    @pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
    def test_has_main_guard_and_docstring(self, path):
        source = path.read_text()
        assert '"""' in source.split("\n", 1)[0] + source.split("\n", 2)[1]
        assert 'if __name__ == "__main__":' in source


class TestQuickstartRuns:
    def test_quickstart_end_to_end(self):
        result = subprocess.run(
            [sys.executable, "examples/quickstart.py"],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        assert "hardware accuracy" in result.stdout
        assert "energy/input" in result.stdout


class TestPlanDescribeRuns:
    def test_plan_describe_prints_both_backends(self):
        result = subprocess.run(
            [sys.executable, "examples/plan_describe.py"],
            capture_output=True,
            text=True,
            timeout=240,
        )
        assert result.returncode == 0, result.stderr
        assert "numpy-reference" in result.stdout
        assert "packed-uint64" in result.stdout
        assert "word_ops" not in result.stdout
        assert "xor_fold" in result.stdout
