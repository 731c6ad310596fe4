"""Public API: every exported name exists."""

import importlib
import pkgutil

import pytest

import hangerfit

MODULES = ["hangerfit"] + [f"hangerfit.{info.name}"
                           for info in pkgutil.iter_modules(hangerfit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_exists(name):
    module = importlib.import_module(name)
    exports = getattr(module, "__all__", [])
    assert [export for export in exports if not hasattr(module, export)] == []


def test_star_import():
    namespace = {}
    exec("from hangerfit import *", namespace)
    assert "fit_linear" in namespace
