"""End-to-end and per-layer benchmark of the wavecascade laboratory.

    python3 perfbench/run.py --workload control --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn

Run from the root of a source checkout (``src/`` and ``configs/`` present).
Load is one process running one experiment at a time in a closed loop: a
batch laboratory whose every caller waits for its verdict.  Each experiment
goes through the public entry point ``wavecascade.runner.parse_config`` +
``wavecascade.runner.run``; the seed reaches the program only as an
``experiment.seed`` override (without ``--seed`` each config keeps its own).

``--trace 0`` reports, for the named workload:
  wall_s       median wall time of one pass (parse, solve, write artifacts,
               evaluate checks) in a process that already imported the package
  cpu_s        median user+sys CPU time of the same passes
  setup_s      median over fresh interpreters of ``import wavecascade`` plus
               parsing the workload's configs
  peak_rss_mb  peak resident set of the process that ran only this workload
The three times are scaled to reference CPU speed (``clock.py``): this host's
cores switch between two speeds, and the raw times, printed alongside, spread
too widely to compare commits.
``--trace 1`` reports the per-layer metrics of ``layers.py`` from one traced
pass over all workloads' experiments, and the tracing overhead on the named
workload (traced minus untraced wall time).

An experiment fails when its runner status is not 0 (``expect = fail``
configs are inverted by the runner) or when its artifacts' SHA-256 differs
from the first run of the same sources and seed, recorded under
``.perfbench_state/``.  ``failed``/``attempted`` in the result count these;
``failed_ratio`` is printed with the summary.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.  Exit status: 0 when
every experiment passed, 1 when one failed, 2 on a usage or environment
error (no result printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

BLAS_THREADS = 1  # at most nproc; 2 threads were not faster and spun to ~1.9x the CPU time
SETUP_REPEATS = 5
DEADLINE_S = 170.0  # every run must end within 180 s
STATE_DIR = ".perfbench_state"


class HarnessError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(root: Path) -> dict[str, str]:
    env = dict(os.environ)
    threads = str(BLAS_THREADS)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(root / "src"), str(HERE)])
    return env


def call_worker(root: Path, job_name: str, job: dict, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise HarnessError("out of time before the worker started")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), job_name, json.dumps(job)],
            cwd=root, env=child_env(root), capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise HarnessError(f"worker {job_name} exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise HarnessError(f"worker {job_name} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(lines[-1])


def setup_seconds(root: Path, workload: str, seed, deadline: float) -> tuple[list[float], list[float]]:
    """Scaled and raw seconds of fresh interpreters that import the package and parse the configs."""
    scaled, raw = [], []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        got = call_worker(root, "setup", {"workload": workload, "root": str(root), "seed": seed}, deadline)
        raw.append(time.perf_counter() - start)
        scaled.append((raw[-1] - got["kernel_s"]) / got["speed"])
    return scaled, raw


def source_digest(root: Path) -> str:
    """Identity of the code under test: every file under src/ and configs/."""
    sha = hashlib.sha256()
    for base in ("src", "configs"):
        for path in sorted((root / base).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                sha.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return sha.hexdigest()


def git_sha(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root:
        return None
    return lines[1]


def reference_digests(root: Path, digest: str, seed) -> tuple[Path, dict]:
    path = root / STATE_DIR / "digests" / f"{digest[:16]}-seed{seed}.json"
    return path, json.loads(path.read_text()) if path.exists() else {}


def gate(passes: list[dict], reference: dict) -> tuple[int, int, list[str]]:
    """Count attempted and failed experiments; passing labels not yet seen extend ``reference``."""
    attempted, failures = 0, []
    for number, pass_ in enumerate(passes):
        for outcome in pass_["outcomes"]:
            attempted += 1
            label = outcome["label"]
            if outcome["status"] != 0:
                failures.append(f"pass {number} {label}: {outcome['error']}")
            elif reference.setdefault(label, outcome["digest"]) != outcome["digest"]:
                failures.append(f"pass {number} {label}: artifacts differ from the first run of this code and seed")
    return attempted, len(failures), failures


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"median {values[0]:.4g}"
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"median {q2:.4g} (q1 {q1:.4g}, q3 {q3:.4g})"


def end_to_end(result: dict, setups: tuple[list[float], list[float]]) -> tuple[dict, list[str]]:
    passes = result["passes"]
    samples = {
        "wall_s": ([p["wall_s"] for p in passes], [p["raw_wall_s"] for p in passes]),
        "cpu_s": ([p["cpu_s"] for p in passes], [p["raw_cpu_s"] for p in passes]),
        "setup_s": setups,
    }
    metrics = {name: {"value": statistics.median(scaled), "unit": "s"} for name, (scaled, _) in samples.items()}
    metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    lines = [f"{name:12s} {metrics[name]['value']:10.6g} s   n={len(scaled)}  {quartiles(scaled)}  "
             f"raw {quartiles(raw)}" for name, (scaled, raw) in samples.items()]
    lines.append(f"{'peak_rss_mb':12s} {result['peak_rss_mb']:10.6g} MB  n=1")
    lines.append(f"speed factor {quartiles([p['speed'] for p in passes])} "
                 "(mean kernel time over reference; times above are scaled by it)")
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    from layers import declared

    units = {name: unit for name, unit, _ in declared()}
    missing = sorted(set(units) - set(result["metrics"]))
    metrics = {name: {"value": result["metrics"][name], "unit": units[name]}
               for name in units if name in result["metrics"]}
    lines = [f"{name:52s} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
    lines += [f"{name:52s} missing (a traced experiment failed)" for name in missing]
    return metrics, lines


def bench(root: Path, workload: str, seed, seconds: float, trace: int) -> tuple[dict, int, int]:
    """Run one workload, print its report, and return (metrics, attempted, failed)."""
    deadline = time.monotonic() + DEADLINE_S
    env = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "git_sha": git_sha(root),
        "source_sha256": source_digest(root),
        "loadavg_start": os.getloadavg(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
    }
    workdir = root / STATE_DIR / f"work-{os.getpid()}"
    job = {"workload": workload, "seed": seed, "seconds": seconds, "root": str(root), "workdir": str(workdir)}
    try:
        if trace:
            result = call_worker(root, "trace", job, deadline)
            metrics, lines = per_layer(result)
        else:
            setups = setup_seconds(root, workload, seed, deadline)
            result = call_worker(root, "measure", job, deadline)
            metrics, lines = end_to_end(result, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ref_path, reference = reference_digests(root, env["source_sha256"], seed)
    attempted, failed, failures = gate(result["passes"], reference)
    write_json(ref_path, reference)
    env.update(result["platform"], loadavg_end=os.getloadavg())
    stamp = time.strftime("%Y%m%dT%H%M%S")
    write_json(root / STATE_DIR / "results" / f"{stamp}-{workload}-seed{seed}-trace{trace}.json",
               {"env": env, "passes": result["passes"], "metrics": metrics, "failures": failures})
    print(f"== {workload}")
    print("env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines))
    print(f"failed_ratio {failed / attempted:.6g} ({failed} of {attempted} experiments, "
          f"{len(result['passes'])} passes)")
    for failure in failures:
        print(f"FAILED {failure}")
    return metrics, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                        help="one workload, or all of them in turn (metrics then carry a workload prefix)")
    parser.add_argument("--seed", type=int, default=None, help="experiment.seed for every config")
    parser.add_argument("--seconds", type=float, default=15.0, help="measurement budget of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd().resolve()
    for needed in ("src/wavecascade/runner.py", "configs"):
        if not (root / needed).exists():
            raise HarnessError(f"{root} is not a wavecascade checkout: {needed} is missing")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, tried, bad = bench(root, name, args.seed, args.seconds, args.trace)
        metrics.update({f"{name}.{k}" if len(names) > 1 else k: v for k, v in got.items()})
        attempted, failed = attempted + tried, failed + bad
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps a running worker.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
