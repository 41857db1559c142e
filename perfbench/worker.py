"""Benchmark worker: one process, one experiment at a time, in a closed loop.

Started by ``run.py`` with the BLAS thread count already fixed in its
environment and ``src`` on its path.  It prints one JSON object on stdout.

    python3 perfbench/worker.py setup   '{"workload": "control", "root": "."}'
    python3 perfbench/worker.py measure '{"workload": "control", "seed": 1, "seconds": 20, ...}'
    python3 perfbench/worker.py trace   '{"workload": "control", "seed": 1, ...}'
"""

from __future__ import annotations

import hashlib
import importlib
import json
import resource
import shutil
import sys
from pathlib import Path
from time import perf_counter, process_time

from clock import SpeedSampler
from workloads import LAB, WORKLOADS, Experiment


def run_pass(runner, experiments, seed, configs: Path, workdir: Path, sampler: SpeedSampler) -> dict:
    """Parse, solve and write every experiment once; timing excludes hashing and cleanup.

    ``wall_s``/``cpu_s`` are scaled to reference CPU speed (see clock.py);
    ``raw_wall_s``/``raw_cpu_s`` are as read from the clocks.
    """
    for exp in experiments:
        shutil.rmtree(workdir / exp.label, ignore_errors=True)
    outcomes = []
    mark, wall0, cpu0 = sampler.mark(), perf_counter(), process_time()
    for exp in experiments:
        since, start = sampler.mark(), perf_counter()
        try:
            config = runner.parse_config(configs / f"{exp.config}.ini", exp.config_overrides(seed))
            status = runner.run(config, workdir / exp.label).status
            error = "" if status == 0 else f"runner status {status}"
        except Exception as exc:  # one crashing experiment is one failure, not a lost run
            status, error = -1, f"{type(exc).__name__}: {exc}"
        raw = perf_counter() - start
        outcomes.append({"label": exp.label, "status": status, "error": error,
                         "raw_wall_s": raw, "wall_s": sampler.scale(raw, since)[0]})
    raw_wall, raw_cpu = perf_counter() - wall0, process_time() - cpu0
    wall, speed = sampler.scale(raw_wall, mark)
    for outcome in outcomes:
        outcome["digest"], outcome["bytes"] = digest_dir(workdir / outcome["label"])
    return {"wall_s": wall, "cpu_s": sampler.scale(raw_cpu, mark)[0], "raw_wall_s": raw_wall,
            "raw_cpu_s": raw_cpu, "speed": speed, "samples": sampler.mark() - mark, "outcomes": outcomes}


def digest_dir(path: Path) -> tuple[str, int]:
    """SHA-256 over every artifact's name and bytes, and their total size."""
    sha, size = hashlib.sha256(), 0
    for item in sorted(p for p in path.rglob("*") if p.is_file()) if path.exists() else ():
        data = item.read_bytes()
        sha.update(item.relative_to(path).as_posix().encode() + b"\0" + data)
        size += len(data)
    return sha.hexdigest(), size


def platform_record() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def setup(job: dict) -> dict:
    """Import the package and parse the workload's configs, as every CLI call does."""
    with SpeedSampler() as sampler:
        runner = importlib.import_module("wavecascade.runner")
        configs = Path(job["root"]) / "configs"
        for exp in WORKLOADS[job["workload"]]:
            runner.parse_config(configs / f"{exp.config}.ini", exp.config_overrides(job.get("seed")))
    speed = sampler.scale(0.0, 0)[1]
    return {"kernel_s": sum(sampler.samples), "speed": speed}


def measure(job: dict, experiments: tuple[Experiment, ...] | None = None) -> dict:
    """Passes of one workload until another pass would overrun the time budget."""
    runner = importlib.import_module("wavecascade.runner")
    experiments = experiments or WORKLOADS[job["workload"]]
    configs, workdir = Path(job["root"]) / "configs", Path(job["workdir"])
    passes = []
    start = perf_counter()
    with SpeedSampler() as sampler:
        while True:
            passes.append(run_pass(runner, experiments, job.get("seed"), configs, workdir, sampler))
            if perf_counter() - start + passes[-1]["raw_wall_s"] > job["seconds"]:
                break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"passes": passes, "peak_rss_mb": peak_kib / 1024.0, "platform": platform_record()}


def trace(job: dict, lab: tuple[Experiment, ...] = LAB) -> dict:
    """An untraced pass of the workload, then one traced pass over the whole lab."""
    from layers import WORK, health_metrics, span_metrics, traced_functions
    from spans import Tracer

    runner = importlib.import_module("wavecascade.runner")
    configs, workdir = Path(job["root"]) / "configs", Path(job["workdir"])
    mine = [e for e in lab if e.label in {w.label for w in WORKLOADS[job["workload"]]}]
    with SpeedSampler() as sampler:
        untraced = run_pass(runner, mine, job.get("seed"), configs, workdir / "untraced", sampler)
        with Tracer() as tracer:
            tracer.install("wavecascade", traced_functions(), WORK)
            traced = run_pass(runner, lab, job.get("seed"), configs, workdir / "traced", sampler)
    run_spans = [s for s in tracer.spans if s.name == "runner.run" and s.parent < 0]
    metrics = span_metrics(tracer.summary(), {e.label: s.duration for e, s in zip(lab, run_spans)})
    outcomes = traced["outcomes"]
    metrics["runner.artifact_bytes"] = sum(o["bytes"] for o in outcomes)
    if all(o["status"] == 0 for o in outcomes):
        metrics.update(health_metrics({e.label: workdir / "traced" / e.label for e in lab}))
    walls = {o["label"]: o["wall_s"] for o in outcomes}
    metrics["trace.overhead_s"] = sum(walls[o["label"]] - o["wall_s"] for o in untraced["outcomes"])
    metrics["trace.spans"] = len(tracer.spans)
    metrics["trace.speed_factor"] = traced["speed"]
    return {"passes": [untraced, traced], "metrics": metrics, "platform": platform_record()}


JOBS = {"setup": setup, "measure": measure, "trace": trace}

if __name__ == "__main__":
    print(json.dumps(JOBS[sys.argv[1]](json.loads(sys.argv[2]))))
