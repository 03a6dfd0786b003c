"""Public-API hygiene: every documented name imports and resolves."""

import importlib

import pytest

MODULES = [
    "repro",
    "repro.core",
    "repro.core.predictor",
    "repro.sptc",
    "repro.sptc.sell",
    "repro.sptc.tcgnn",
    "repro.graphs",
    "repro.gnn",
    "repro.prune",
    "repro.baselines",
    "repro.distributed",
    "repro.distributed.multilevel",
    "repro.bench",
    "repro.parallel",
    "repro.cli",
    "repro.obs",
    "repro.obs.metrics",
    "repro.obs.trace",
    "repro.obs.events",
    "repro.obs.logconfig",
]


@pytest.mark.parametrize("module_name", MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    mod = importlib.import_module(module_name)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module_name}.__all__ lists missing {name!r}"


def test_version():
    import repro

    assert repro.__version__


def test_top_level_exports():
    import repro

    for name in ("reorder", "find_best_pattern", "BitMatrix", "VNMPattern", "Permutation"):
        assert hasattr(repro, name)


def test_public_functions_documented():
    """Every public callable in the core packages carries a docstring."""
    undocumented = []
    for module_name in MODULES:
        mod = importlib.import_module(module_name)
        for name in getattr(mod, "__all__", []):
            obj = getattr(mod, name)
            if callable(obj) and not (obj.__doc__ or "").strip():
                undocumented.append(f"{module_name}.{name}")
    assert not undocumented, undocumented
