"""Smoke test of the benchmark harness on toy sizes.

    python3 -m pytest -q perfbench/test_harness.py

Checks that every declared metric is emitted, that a wrong verdict or a
changed artifact counts as a failure, and that spans nest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from clock import REFERENCE_S, SpeedSampler  # noqa: E402
import worker  # noqa: E402
from layers import declared  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import LAB, Experiment  # noqa: E402

# Shrink every experiment of the lab so a traced pass takes seconds; labels,
# kinds and artifacts stay those of the real workloads.
TOY = {
    "audit": ("spectral.n_modes=6", "grid.step_phase=0.2", "audit.ensemble=2", "audit.samples=2"),
    "gramian_interior": ("spectral.n_modes=8", "checks.ensemble=2"),
    "gramian_boundary": ("spectral.n_modes=8", "checks.ensemble=2"),
    "gramian_interior_n64": ("spectral.n_modes=8", "checks.ensemble=2"),
    "trends": ("checks.ensemble=2",),
    "short_horizon": (),
    "decoupled": ("spectral.n_modes=8", "checks.ensemble=2"),
    "hum_interior": ("spectral.n_modes=8",),
    "hum_boundary": ("spectral.n_modes=8",),
    "hum_boundary_n80": ("spectral.n_modes=8",),
    "insensitize_interior": ("spectral.n_modes=8", "insensitize.perturbations=2"),
    "insensitize_boundary": ("spectral.n_modes=8", "insensitize.perturbations=2"),
    "converse": ("spectral.n_modes=8", "insensitize.perturbations=2"),
}
TOY_LAB = tuple(Experiment(e.label, e.config, e.overrides + TOY[e.label]) for e in LAB)


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def job(tmp_path, workload="control", seconds=0.0) -> dict:
    return {"workload": workload, "seed": 3, "seconds": seconds, "root": str(ROOT), "workdir": str(tmp_path)}


def test_toy_lab_covers_every_experiment():
    assert set(TOY) == {e.label for e in LAB}


def test_every_end_to_end_metric_is_emitted(tmp_path):
    result = worker.measure(job(tmp_path), experiments=TOY_LAB[-1:])
    metrics, lines = run.end_to_end(result, ([0.5, 0.6, 0.7], [0.6, 0.7, 0.8]))
    declared_e2e = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == declared_e2e
    assert all(m["value"] > 0 for m in metrics.values())
    assert all(any(line.startswith(name) for line in lines) for name in declared_e2e)


def test_every_per_layer_metric_is_emitted(tmp_path):
    result = worker.trace(job(tmp_path), lab=TOY_LAB)
    assert all(o["status"] == 0 for p in result["passes"] for o in p["outcomes"])
    metrics, _ = run.per_layer(result)
    listed = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert listed == {name: unit for name, unit, _ in declared()}
    assert {name: m["unit"] for name, m in metrics.items()} == listed
    cg_iterations = [m["value"] for name, m in metrics.items() if name.startswith("hum.cg_iterations.")]
    assert metrics["hum.apply_hum_gramian.calls"]["value"] == sum(cg_iterations)


def test_wrong_verdict_and_changed_artifacts_fail(tmp_path):
    toy = {e.label: e for e in TOY_LAB}
    wrong = Experiment("decoupled", "criterion05_decoupled", toy["decoupled"].overrides + ("experiment.expect=pass",))
    result = worker.measure(job(tmp_path), experiments=(toy["hum_boundary"], wrong))
    reference = {}
    attempted, failed, failures = run.gate(result["passes"], reference)
    assert (attempted, failed) == (2, 1)
    assert "decoupled" in failures[0]
    assert set(reference) == {"hum_boundary"}

    reference["hum_boundary"] = "0" * 64
    assert run.gate(result["passes"], reference)[1] == 2


def test_reruns_reproduce_artifacts(tmp_path):
    toy = {e.label: e for e in TOY_LAB}
    first = worker.measure(job(tmp_path), experiments=(toy["hum_interior"],))
    again = worker.measure(job(tmp_path), experiments=(toy["hum_interior"],))
    reference = {}
    assert run.gate(first["passes"] + again["passes"], reference)[1] == 0


def test_scaling_removes_kernel_time_and_divides_by_speed():
    sampler = SpeedSampler()
    sampler.samples = [3 * REFERENCE_S, 1 * REFERENCE_S]
    scaled, speed = sampler.scale(1.0, since=0)
    assert speed == pytest.approx(2.0)
    assert scaled == pytest.approx((1.0 - 4 * REFERENCE_S) / 2.0)
    assert sampler.scale(0.5, since=2) == pytest.approx((0.5 / 2.0, 2.0))


def test_spans_nest_and_self_time_excludes_children():
    tracer = Tracer()

    def inner(x):
        return x + 1

    inner = tracer.wrap("m.inner", inner)

    def outer(x, depth=0):
        if depth < 1:
            outer(x, depth + 1)
        return inner(inner(x))

    outer = tracer.wrap("m.outer", outer)
    assert outer(1) == 3
    names = [(s.name, s.parent, s.nested) for s in tracer.spans]
    assert names == [("m.outer", -1, False), ("m.outer", 0, True), ("m.inner", 1, False),
                     ("m.inner", 1, False), ("m.inner", 0, False), ("m.inner", 0, False)]
    for index, span in enumerate(tracer.spans):
        children = [s for s in tracer.spans if s.parent == index]
        assert span.child_s == pytest.approx(sum(s.duration for s in children))
        assert 0.0 <= span.self_s <= span.duration
        assert all(span.start <= s.start and s.end <= span.end for s in children)
    summary = tracer.summary()
    assert summary["m.outer"]["calls"] == 2
    assert summary["m.outer"]["s"] == pytest.approx(tracer.spans[0].duration)
    assert summary["m.inner"]["calls"] == 4


def test_install_patches_every_binding_and_uninstall_restores():
    import wavecascade
    import wavecascade.hum
    import wavecascade.insensitize  # noqa: F401  (a module, not the re-exported function)

    insensitize_module = sys.modules["wavecascade.insensitize"]
    original = wavecascade.hum.solve_hum
    with Tracer() as tracer:
        tracer.install("wavecascade", {"hum": ("solve_hum",)})
        wrapped = wavecascade.hum.solve_hum
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert insensitize_module.solve_hum is wrapped
        assert wavecascade.solve_hum is wrapped
    assert wavecascade.hum.solve_hum is original
    assert insensitize_module.solve_hum is original
    assert wavecascade.solve_hum is original


def test_harness_refuses_a_directory_without_sources(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(run.HarnessError):
        run.main(["--workload", "control", "--seed", "1", "--seconds", "1"])
    assert capsys.readouterr().out == ""
