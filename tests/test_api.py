"""Public-surface hygiene: every exported name resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import wavecascade

MODULES = ("errors", "spectral", "dynamics", "observability", "hum", "insensitize", "runner")


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_resolves(module_name):
    module = importlib.import_module(f"wavecascade.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_package_reexports_resolve():
    tree = ast.parse(Path(wavecascade.__file__).read_text())
    for node in tree.body:
        if not isinstance(node, ast.ImportFrom):
            continue
        module = importlib.import_module(f"wavecascade.{node.module}")
        for alias in node.names:
            assert getattr(wavecascade, alias.name) is getattr(module, alias.name)


def test_every_traced_layer_resolves_to_a_wavecascade_function(monkeypatch):
    # a retired or renamed function would otherwise read as a layer with 0 calls
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    for span in layers.LAYERS:
        module, name = span.split(".", 1)
        assert callable(getattr(importlib.import_module(f"wavecascade.{module}"), name, None)), span
