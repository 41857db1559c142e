"""Public-surface hygiene: every exported name resolves and is used by a run or a demo, and SciPy loads only where it is used."""

import ast
import configparser
import dataclasses
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import wavecascade
from wavecascade.dynamics import TimeGrid
from wavecascade.hum import HUMProblem, TimeSampledControl
from wavecascade.insensitize import InsensitizeProblem

MODULES = ("errors", "spectral", "dynamics", "observability", "hum", "insensitize", "runner")


@pytest.mark.parametrize("module_name", MODULES)
def test_module_all_resolves(module_name):
    module = importlib.import_module(f"wavecascade.{module_name}")
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_no_public_callable_takes_a_private_parameter():
    # a private knob on a public signature is state that belongs to an object
    private = []
    for module_name in MODULES:
        module = importlib.import_module(f"wavecascade.{module_name}")
        for name in getattr(module, "__all__", ()):
            try:
                parameters = inspect.signature(getattr(module, name)).parameters
            except (TypeError, ValueError):  # not callable, or a builtin type such as an exception class
                continue
            private += [f"{module_name}.{name}({p})" for p in parameters if p.startswith("_")]
    assert private == []


def test_control_problems_pin_their_fields():
    # the observer's kind is the case and one TimeGrid the time grid; a change that adds a settable value edits this pin
    names = lambda cls: [field.name for field in dataclasses.fields(cls)]
    assert names(HUMProblem) == ["initial_data", "coupling", "observer", "grid", "source"]
    assert names(InsensitizeProblem) == [
        "known_position", "known_velocity", "observation_weight", "grid", "control_operator", "source",
        "perturbation_count", "seed",
    ]
    assert names(TimeSampledControl) == ["values", "grid"]
    assert names(TimeGrid) == ["horizon", "n_steps"]


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


ROOT = Path(__file__).resolve().parents[1]


def _used_names(monkeypatch):
    """Names referenced by the package modules or a demo, and the names of the traced layers.

    A function that only tests call is an oracle for tests/oracles.py, not package surface; the traced
    layers stay until the harness stops tracing them.
    """
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = {span.split(".", 1)[1] for span in importlib.import_module("layers").LAYERS}
    sources = [path for path in (ROOT / "src" / "wavecascade").glob("*.py") if path.name != "__init__.py"]
    referenced = set()
    for path in sources + sorted((ROOT / "demos").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return referenced | spans


def test_every_reexported_callable_is_used_by_the_package_or_a_demo(monkeypatch):
    exported = {
        alias.name
        for node in ast.parse(Path(wavecascade.__file__).read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if callable(getattr(wavecascade, alias.name))
    }
    assert sorted(exported - _used_names(monkeypatch)) == []


@pytest.mark.parametrize("module_name", MODULES)
def test_every_module_exported_callable_is_used_by_the_package_or_a_demo(monkeypatch, module_name):
    # a module's surface, re-exported or not: an export only tests call belongs in tests/oracles.py
    module = importlib.import_module(f"wavecascade.{module_name}")
    exported = {name for name in getattr(module, "__all__", ()) if callable(getattr(module, name))}
    assert sorted(exported - _used_names(monkeypatch)) == []


def test_no_module_imports_scipy_sparse():
    # every spectrum is dense at every N: a sparse or ARPACK route would be a second way to the same number
    found = []
    for path in sorted((ROOT / "src" / "wavecascade").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(name == "scipy.sparse" or name.startswith("scipy.sparse.") for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_the_only_scipy_import_is_expm():
    # every worst case is a numpy eigenvalue; expm builds the one-step propagator of min_eigenvalue
    found = []
    for path in sorted((ROOT / "src" / "wavecascade").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [alias.name for alias in node.names if alias.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                if node.module.split(".")[0] == "scipy":
                    found += [f"{node.module}.{alias.name}" for alias in node.names]
    assert found == ["scipy.linalg.expm"]


def _runner_reads():
    """(section, key) pairs the runner names literally, and the sections it reads plateaus ('pieces', 'core') from.

    The key of a plateau section is None.
    """
    tree = ast.parse((ROOT / "src" / "wavecascade" / "runner.py").read_text())
    read = set()
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "count", "has", "coefficient_function")
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("config", "self")
        ):
            continue
        names = []
        for arg in node.args[:2]:  # a leading literal section, then a literal key
            if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
                break
            names.append(arg.value)
        if names:
            read.add((names[0], names[1] if len(names) == 2 else None))
    return read


def test_runner_reads_a_pinned_key_set():
    # a change that adds a config key edits this pin, as a new problem field edits the fields' pin
    read = _runner_reads()
    assert sorted(pair for pair in read if pair[1] is not None) == [
        ("audit", "samples"),
        ("grid", "horizon"), ("grid", "n_steps"), ("grid", "step_phase"),
        ("observer", "b_left"), ("observer", "b_right"), ("observer", "kind"),
        ("source", "amplitude"), ("source", "frequency"), ("source", "kind"),
        ("spectral", "n_modes"),
        ("sweep", "axis"), ("sweep", "values"),
    ]
    assert sorted(section for section, key in read if key is None) == ["coupling", "observer", "source"]


def test_every_config_section_the_runner_reads_is_documented():
    # a section or key read by the runner but missing from its line of the README's config block is a knob
    # no one can find
    read = _runner_reads()
    block = (ROOT / "README.md").read_text().split("Config sections (schema 1):", 1)[1].split("```")[1]
    lines = dict(re.findall(r"^\[(\w+)\](.*)$", block, re.MULTILINE))
    assert {"spectral", "grid", "audit"} <= {section for section, _ in read}
    assert {section for section, _ in read} - set(lines) == set()
    undocumented = [(s, k) for s, k in read if k is not None and not re.search(rf"\b{k}\b", lines.get(s, ""))]
    assert undocumented == []


def test_shipped_configs_carry_only_keys_the_runner_reads():
    # a key no code reads (a stale bound, say) would look like a setting and change nothing
    read = _runner_reads()
    known = {pair for pair in read if pair[1] is not None}
    known |= {("experiment", key) for key in ("schema", "kind", "seed", "expect")}
    known |= {(section, key) for section, k in read if k is None for key in ("pieces", "core")}
    unread = []
    for path in sorted((ROOT / "configs").glob("*.ini")):
        parser = configparser.ConfigParser()
        parser.read(path)
        unread += [f"{path.name}: [{s}] {k}" for s in parser.sections() for k in parser[s] if (s, k) not in known]
    assert unread == []


# Runs configs in a fresh interpreter (this one has SciPy loaded already) and
# prints which SciPy modules the runs loaded.
_LOADED_SCIPY = """
import sys, tempfile
from wavecascade.runner import parse_config, run

for name in sys.argv[1:]:
    with tempfile.TemporaryDirectory() as out:
        assert run(parse_config(f"configs/{name}.ini"), out).status == 0, name
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _scipy_modules_after(*configs):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", _LOADED_SCIPY, *configs],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return set(result.stdout.split())


def test_control_insensitize_and_audit_runs_never_load_scipy():
    loaded = _scipy_modules_after("criterion08_hum_boundary", "criterion09_insensitize_interior", "criterion06_audit")
    assert loaded == set()


def test_gramian_run_loads_dense_linalg_only():
    loaded = _scipy_modules_after("criterion04_gramian_boundary")
    assert "scipy.linalg" in loaded
    assert "scipy.sparse.linalg" not in loaded
