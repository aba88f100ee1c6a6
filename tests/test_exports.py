"""Export lists name only what their modules define.

A name left in an `__all__` after its definition is deleted fails only
at `from module import *`, which no other test runs.
"""

import importlib

import pytest

MODULES = ["cyclosense", "cyclosense.siggen", "cyclosense.scd", "cyclosense.detect",
           "cyclosense.harness"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
