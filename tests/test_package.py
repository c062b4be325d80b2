"""The package's public names."""

import importlib
import pkgutil

import pytest

import bseq

MODULES = sorted(m.name for m in pkgutil.iter_modules(bseq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"bseq.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
