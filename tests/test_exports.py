"""Every name a package lists in ``__all__`` must resolve on import."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.core",
    "repro.analysis",
    "repro.simulation",
    "repro.runtime",
]


@pytest.mark.parametrize("package", PACKAGES)
def test_all_names_resolve(package):
    module = importlib.import_module(package)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)
