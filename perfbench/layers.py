"""Per-layer metrics: which public functions are traced and how spans and
artifacts become named numbers.

Every metric comes from one traced pass over the whole lab (all workloads'
experiments), so each layer is measured in every traced run whichever
workload is named.  Numeric health is read back from the artifacts the
runner writes; none of it needs code in ``src/``.
"""

from __future__ import annotations

import csv
from pathlib import Path

from workloads import LAB, WORKLOADS

# span name -> statistics reported for it.  "steps" is the work count the
# wrapper records (time steps of the grid argument); "us_per_step" divides
# inclusive time by it.
LAYERS: dict[str, tuple[str, ...]] = {
    "spectral.assemble_multiplication_matrix": ("calls", "s"),
    "dynamics.evolve_forced_scalar": ("calls", "s", "steps", "us_per_step"),
    "dynamics.evolve_cascade": ("calls", "s", "steps"),
    "dynamics.cascade_step_matrix": ("calls", "s"),
    "observability.min_eigenvalue": ("calls", "s"),
    "observability.gramian_matrix": ("calls", "s"),
    "observability.empirical_ratios": ("s", "self_s"),
    "observability.estimate_uniform_constants": ("s", "self_s"),
    "observability.inequality_chain_audit": ("calls", "s", "self_s"),
    "observability.admissibility_constant": ("s",),
    "hum.solve_hum": ("s", "self_s"),
    "hum.apply_hum_gramian": ("calls", "s"),
    "hum.dense_hum_matrix": ("calls", "s"),
    "hum.controlled_forward": ("calls", "s"),
    "hum.verify_transposition": ("s",),
    "insensitize.insensitize": ("s", "self_s"),
    "insensitize.verify_converse": ("s",),
    "runner.run": (),  # reported per experiment as runner.run.s.<label>
    "runner.write_csv": ("calls", "s"),
}


def _grid_steps(position: int):
    def steps(args, kwargs) -> int:
        grid = kwargs["grid"] if "grid" in kwargs else args[position]
        return grid.n_steps

    return steps


WORK = {
    "dynamics.evolve_forced_scalar": _grid_steps(2),
    "dynamics.evolve_cascade": _grid_steps(2),
}


def traced_functions() -> dict[str, tuple[str, ...]]:
    """Module -> function names, in the form ``Tracer.install`` takes."""
    out: dict[str, tuple[str, ...]] = {}
    for name in LAYERS:
        module, fn = name.split(".", 1)
        out[module] = out.get(module, ()) + (fn,)
    return out


UNITS = {"calls": "count", "s": "s", "self_s": "s", "steps": "count", "us_per_step": "us"}

# Audit-ledger rows that are identities: their margin is minus the residual.
IDENTITY_ROWS = ("coupling_duality_identity", "driven_energy_balance")
# Rows of the two sweep.csv tables, as T<horizon>.N<modes>.
SWEEP_ROWS = {"trends": ("T4.N16", "T8.N16", "T16.N16"), "short_horizon": ("T0.1.N16", "T0.1.N32", "T0.1.N64")}
GRAMIAN_LABELS = tuple(e.label for e in WORKLOADS["observe"] if e.label not in SWEEP_ROWS)
HUM_LABELS = tuple(e.label for e in WORKLOADS["control"])
INSENSITIZE_LABELS = tuple(e.label for e in WORKLOADS["insensitize"])


def declared() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better); BENCHMARK.json lists the same."""
    out = []
    for span, stats in LAYERS.items():
        out += [(f"{span}.{stat}", UNITS[stat], "lower") for stat in stats]
    out += [(f"runner.run.s.{e.label}", "s", "lower") for e in LAB]
    out += [("runner.artifact_bytes", "B", "lower")]
    out += [(f"hum.cg_iterations.{label}", "count", "lower") for label in HUM_LABELS + INSENSITIZE_LABELS]
    out += [("hum.terminal_rel_max", "ratio", "lower"), ("hum.duality_residual_max", "1", "lower")]
    out += [(f"observability.min_eig.{label}", "1", "higher") for label in GRAMIAN_LABELS]
    out += [(f"observability.min_eig.{label}.{row}", "1", "higher")
            for label, rows in SWEEP_ROWS.items() for row in rows]
    out += [("observability.audit_identity_residual_max", "1", "lower")]
    out += [("insensitize.fd_agreement_max", "ratio", "lower"),
            ("insensitize.max_derivative_relative_max", "ratio", "lower")]
    out += [("trace.overhead_s", "s", "lower"), ("trace.spans", "count", "lower"),
            ("trace.speed_factor", "ratio", "lower")]
    return out


def span_metrics(summary: dict, run_walls: dict[str, float]) -> dict[str, float]:
    """Named values from ``Tracer.summary()`` and per-experiment ``runner.run`` times."""
    out = {}
    for span, stats in LAYERS.items():
        row = summary.get(span, {"calls": 0, "s": 0.0, "self_s": 0.0, "work": 0})
        for stat in stats:
            if stat == "steps":
                value = row["work"]
            elif stat == "us_per_step":
                value = 1e6 * row["s"] / row["work"] if row["work"] else 0.0
            else:
                value = row[stat]
            out[f"{span}.{stat}"] = value
    for label, seconds in run_walls.items():
        out[f"runner.run.s.{label}"] = seconds
    return out


def _key_values(path: Path) -> dict[str, str]:
    pairs = (line.split(None, 1) for line in path.read_text().splitlines() if line.strip())
    return {key: value.strip() for key, value in pairs}


def _csv_rows(path: Path) -> list[dict[str, str]]:
    with path.open(newline="") as handle:
        return list(csv.DictReader(handle))


def health_metrics(outdirs: dict[str, Path]) -> dict[str, float]:
    """Numeric health read from the artifacts of one pass over the lab."""
    out: dict[str, float] = {}
    terminal, duality = [], []
    for label in HUM_LABELS:
        manifest = _key_values(outdirs[label] / "manifest.txt")
        scale = max(float(manifest["initial_norm"]), 1e-300)
        terminal += [float(v) / scale for k, v in manifest.items()
                     if k.startswith("terminal_") and k != "terminal_total"]
        duality.append(float(manifest["duality_residual"]))
        out[f"hum.cg_iterations.{label}"] = int(manifest["cg_iterations"])
    fd, derivative = [], []
    for label in INSENSITIZE_LABELS:
        report = _key_values(outdirs[label] / "report.txt")
        out[f"hum.cg_iterations.{label}"] = int(report["cg_iterations"])
        fd.append(float(report["fd_agreement"]))
        derivative.append(float(report["max_derivative_relative"]))
    out["hum.terminal_rel_max"] = max(terminal)
    out["hum.duality_residual_max"] = max(duality)
    for label in GRAMIAN_LABELS:
        (row,) = _csv_rows(outdirs[label] / "gramian_report.csv")
        out[f"observability.min_eig.{label}"] = float(row["min_eig_full"])
    for label in SWEEP_ROWS:
        for row in _csv_rows(outdirs[label] / "sweep.csv"):
            out[f"observability.min_eig.{label}.T{float(row['T']):g}.N{row['N']}"] = float(row["min_eig_full"])
    ledger = _csv_rows(outdirs["audit"] / "audit_ledger.csv")
    out["observability.audit_identity_residual_max"] = max(
        -float(row["margin"]) for row in ledger if row["inequality_name"] in IDENTITY_ROWS
    )
    out["insensitize.fd_agreement_max"] = max(fd)
    out["insensitize.max_derivative_relative_max"] = max(derivative)
    return out
