"""Every public export list names something its package really holds."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.baselines",
    "repro.core",
    "repro.core.encoders",
    "repro.datasets",
    "repro.eval",
    "repro.fleet",
    "repro.hardware",
    "repro.obs",
    "repro.platforms",
    "repro.rtl",
    "repro.serve",
    "repro.serve.resilience",
    "repro.serve.sharded",
    "repro.stream",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_every_exported_name_resolves(name):
    package = importlib.import_module(name)
    missing = [attr for attr in package.__all__
               if not hasattr(package, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(package.__all__)) == len(package.__all__)
