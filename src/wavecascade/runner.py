"""Batch front-end: config-driven experiments with CSV artifacts.

Experiments are described in versioned INI files and dispatched on their
``kind``: simulate, gramian, sweep, hum, insensitize, or audit.  Every run
writes its tabular results as CSV (headers mandatory, deterministic float
formatting) so that identical configs and seeds produce byte-identical
artifacts.  The exit status is 0 when all required checks hold, 1 when a
check fails or a solve is refused, and 2 for configuration errors; expected
negative runs invert the check outcome.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConvergenceError, RefusalError, ValidationError
from .spectral import CoefficientFunction, ModalCoefficients, PlateauBump, SpectralSpace
from .dynamics import (
    CascadeState,
    CouplingOperator,
    Observer,
    TimeGrid,
    evolve_cascade,
)
from .observability import (
    admissibility_constant,
    empirical_horizon,
    empirical_ratios,
    estimate_uniform_constants,
    inequality_chain_audit,
    min_eigenvalue,
    observation_history,
    random_cascade_states,
    theoretical_constants,
)
from .hum import HUMProblem, solve_hum
from .insensitize import InsensitizeProblem, insensitize, verify_converse

__all__ = ["ExperimentConfig", "ConfigError", "run", "main", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
KINDS = ("simulate", "gramian", "sweep", "hum", "insensitize", "audit")


class ConfigError(ValidationError):
    """Configuration file failed to parse or validate."""


def _number(cast, text: str, what: str):
    """cast(text), reporting a malformed value as a ConfigError about ``what``."""
    try:
        return cast(text)
    except ValueError as exc:
        raise ConfigError(f"bad value for {what}: {text!r}") from exc


def _floats(text: str, what: str) -> list[float]:
    return [_number(float, p, what) for p in text.split(",")]


def _pieces(text: str, section: str) -> list[list[float]]:
    """Plateau entries 'lo, hi, margin, height; ...' of one section."""
    out = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = _floats(chunk, f"[{section}] pieces")
        if len(parts) != 4:
            raise ConfigError(f"[{section}] pieces entries need four numbers, got {chunk!r}")
        out.append(parts)
    return out


def _fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# configuration


@dataclass
class ExperimentConfig:
    """Typed view of one experiment description."""

    kind: str
    seed: int
    expect: str  # "pass" or "fail"
    sections: dict = field(repr=False, default_factory=dict)

    def get(self, section: str, key: str, default=None, cast=str):
        try:
            raw = self.sections[section][key]
        except KeyError:
            if default is None and cast is not bool:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        if cast is bool:
            return raw.strip().lower() in ("1", "true", "yes", "on")
        return _number(cast, raw, f"[{section}] {key}")

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return section in self.sections
        return section in self.sections and key in self.sections[section]

    # -- typed pieces ------------------------------------------------------

    def spectral_space(self, n_modes: int | None = None) -> SpectralSpace:
        n = n_modes if n_modes is not None else self.get("spectral", "n_modes", cast=int)
        panels = self.get("spectral", "quadrature_panels", default=0, cast=int)
        return SpectralSpace(n, panels)

    def coefficient_function(self, section: str) -> CoefficientFunction | None:
        if not self.has(section, "pieces"):
            return None
        pieces = []
        for lo, hi, margin, height in _pieces(self.sections[section]["pieces"], section):
            if not (0.0 <= lo < hi <= 1.0):
                raise ConfigError(f"[{section}] plateau ({lo}, {hi}) not inside (0, 1)")
            pieces.append(PlateauBump(lo, hi, margin, height))
        core = None
        if self.has(section, "core"):
            core = tuple(_floats(self.sections[section]["core"], f"[{section}] core"))
            if len(core) != 2 or not (0.0 <= core[0] < core[1] <= 1.0):
                raise ConfigError(f"[{section}] core must be 'lo,hi' inside (0, 1)")
        if not pieces and core is None:
            return CoefficientFunction(())
        return CoefficientFunction(tuple(pieces), core_region=core)

    def coupling(self, space: SpectralSpace) -> CouplingOperator | None:
        fn = self.coefficient_function("coupling")
        if fn is None or fn.core_region is None:
            return None
        return CouplingOperator(fn, space)

    def observer(self) -> Observer:
        kind = self.get("observer", "kind", default="interior")
        if kind == "interior":
            weight = self.coefficient_function("observer")
            if weight is None:
                raise ConfigError("[observer] needs pieces for the interior kind")
            return Observer("interior", weight=weight)
        if kind == "boundary":
            return Observer(
                "boundary",
                b_left=self.get("observer", "b_left", default=0.0, cast=float),
                b_right=self.get("observer", "b_right", default=0.0, cast=float),
            )
        raise ConfigError(f"unknown observer kind {kind!r}")

    def grid(self, space: SpectralSpace, horizon: float | None = None) -> TimeGrid:
        T = horizon if horizon is not None else self.get("grid", "horizon", cast=float)
        if self.has("grid", "n_steps"):
            return TimeGrid(T, self.get("grid", "n_steps", cast=int))
        return TimeGrid.for_space(space, T, self.get("grid", "step_phase", default=0.4, cast=float))

    def random_state(self, space: SpectralSpace, rng) -> CascadeState:
        data_kind = self.get("data", "kind", default="random")
        if data_kind == "zero":
            return CascadeState.zero(space)
        if data_kind == "random":
            return CascadeState.from_vector(rng.standard_normal(4 * space.n_modes), space)
        raise ConfigError(f"unknown data kind {data_kind!r}")

    def source(self, space: SpectralSpace, rng):
        if not self.has("source", "kind"):
            return None
        kind = self.get("source", "kind")
        if kind == "none":
            return None
        if kind == "separable":
            fn = self.coefficient_function("source")
            if fn is not None and fn.pieces:
                from .spectral import project

                profile = project(fn, space).coeffs
            else:
                profile = rng.standard_normal(space.n_modes)
                profile /= np.linalg.norm(profile)
            frequency = self.get("source", "frequency", default=np.pi, cast=float)
            amplitude = self.get("source", "amplitude", default=1.0, cast=float)
            for key, value in (("frequency", frequency), ("amplitude", amplitude)):
                if not np.isfinite(value):
                    raise ConfigError(f"[source] {key} must be finite, got {value}")
            return lambda t: amplitude * np.sin(frequency * t) * profile
        raise ConfigError(f"unknown source kind {kind!r}")


def parse_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for override in overrides or []:
        if "=" not in override or "." not in override.split("=", 1)[0]:
            raise ConfigError(f"overrides take the form section.key=value, got {override!r}")
        target, value = override.split("=", 1)
        section, key = target.split(".", 1)
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section.strip(), key.strip(), value.strip())
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")
    schema = _number(int, sections["experiment"].get("schema", "0"), "[experiment] schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema} (expected {SCHEMA_VERSION})")
    kind = sections["experiment"].get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    seed = _number(int, sections["experiment"].get("seed", "0"), "[experiment] seed")
    expect = sections["experiment"].get("expect", "pass")
    if expect not in ("pass", "fail"):
        raise ConfigError("expect must be 'pass' or 'fail'")
    return ExperimentConfig(kind=kind, seed=seed, expect=expect, sections=sections)


# ---------------------------------------------------------------------------
# runners per kind


@dataclass
class RunResult:
    status: int
    artifacts: list
    checks: list  # (name, passed, detail)

    def summary(self) -> str:
        lines = [f"status {self.status}"]
        for name, ok, detail in self.checks:
            lines.append(f"  [{'pass' if ok else 'FAIL'}] {name}: {detail}")
        for art in self.artifacts:
            lines.append(f"  wrote {art}")
        return "\n".join(lines)


def _run_simulate(config: ExperimentConfig, outdir: Path) -> RunResult:
    space = config.spectral_space()
    coupling = config.coupling(space)
    grid = config.grid(space)
    rng = np.random.default_rng(config.seed)
    state = config.random_state(space, rng)
    traj = evolve_cascade(state, coupling, grid)
    observer = config.observer()
    obs = observation_history(traj, observer)
    obs_sq = (obs**2).sum(axis=1)
    e1_u1 = traj.energy_series(1, 1)
    e0_u1 = traj.energy_series(1, 0)
    e1_u2 = traj.energy_series(2, 1)
    e0_u2 = traj.energy_series(2, 0)
    rows = []
    for k, t in enumerate(grid.times):
        rows.append([t, e1_u1[k], e0_u1[k], e1_u2[k], e0_u2[k], obs_sq[k]])
    path = outdir / "trajectory.csv"
    write_csv(path, ["t", "e1_u1", "e0_u1", "e1_u2", "e0_u2", "obs_norm_sq"], rows)

    checks = []
    tol = config.get("checks", "conservation_tol", default=1e-10, cast=float)
    scale = max(e1_u1[0], 1e-300)
    drift1 = float(np.max(np.abs(e1_u1 - e1_u1[0]))) / scale
    scale0 = max(e0_u1[0], 1e-300)
    drift0 = float(np.max(np.abs(e0_u1 - e0_u1[0]))) / scale0
    checks.append(("first_component_energy_conserved", drift1 <= tol, f"drift {drift1:.3e}"))
    checks.append(("first_component_weak_energy_conserved", drift0 <= tol, f"drift {drift0:.3e}"))
    status = 0 if all(ok for _, ok, _ in checks) else 1
    return RunResult(status, [path], checks)


_GRAMIAN_HEADER = ["T", "N", "min_eig_full", "min_eig_u1block", "d1_emp", "d2_emp", "admissibility", "k2_emp", "r2_emp"]


def _gramian_row(config, horizon, n_modes, ensemble, seed):
    """Eigen report and CSV row (``_GRAMIAN_HEADER`` columns) of one Gramian case."""
    space = config.spectral_space(n_modes)
    coupling = config.coupling(space)
    observer = config.observer()
    grid = config.grid(space, horizon)
    report = min_eigenvalue(coupling, observer, grid, space)
    try:
        ratios = empirical_ratios(coupling, observer, grid, space, ensemble=ensemble, seed=seed)
    except RefusalError:
        ratios = {"d1_emp": float("nan"), "d2_emp": float("nan"), "k2_emp": float("nan"),
                  "r2_emp": float("nan"), "admissibility": float("nan")}
    row = [
        horizon, n_modes, report.min_eig, report.block_min.get("u1", float("nan")),
        ratios["d1_emp"], ratios["d2_emp"], ratios["admissibility"], ratios["k2_emp"], ratios["r2_emp"],
    ]
    return report, row


def _run_gramian(config: ExperimentConfig, outdir: Path) -> RunResult:
    space = config.spectral_space()
    horizon = config.get("grid", "horizon", cast=float)
    ensemble = config.get("checks", "ensemble", default=16, cast=int)
    report, row = _gramian_row(config, horizon, space.n_modes, ensemble, config.seed)
    path = outdir / "gramian_report.csv"
    write_csv(path, _GRAMIAN_HEADER, [row])
    floor = config.get("checks", "floor", default=1e-6, cast=float)
    observable = report.min_eig > floor * report.max_eig
    checks = [(
        "gramian_coercive",
        observable,
        f"min {report.min_eig:.3e} vs floor {floor:.1e} x max {report.max_eig:.3e}",
    )]
    status = 0 if observable else 1
    return RunResult(status, [path], checks)


def _shift_observer(config: ExperimentConfig, offset: float) -> ExperimentConfig:
    """Copy of the config with the interior observer region translated."""
    if config.get("observer", "kind", default="interior") != "interior":
        raise ConfigError("region_offset sweeps need an interior observer")
    sections = {name: dict(vals) for name, vals in config.sections.items()}
    pieces = [
        f"{lo + offset},{hi + offset},{margin},{height}"
        for lo, hi, margin, height in _pieces(sections["observer"]["pieces"], "observer")
    ]
    sections["observer"]["pieces"] = "; ".join(pieces)
    if "core" in sections["observer"]:
        core = _floats(sections["observer"]["core"], "[observer] core")
        sections["observer"]["core"] = ",".join(f"{v + offset}" for v in core)
    return ExperimentConfig(kind=config.kind, seed=config.seed, expect=config.expect, sections=sections)


def _run_sweep(config: ExperimentConfig, outdir: Path) -> RunResult:
    axis = config.get("sweep", "axis")
    values = [v.strip() for v in config.get("sweep", "values").split(",") if v.strip()]
    ensemble = config.get("checks", "ensemble", default=16, cast=int)
    rows = []
    path = outdir / "sweep.csv"
    if not values:
        write_csv(path, _GRAMIAN_HEADER, [])
        return RunResult(0, [path], [("sweep_nonempty", True, "empty axis, empty table")])
    base_n = config.spectral_space().n_modes
    base_t = config.get("grid", "horizon", cast=float)
    for value in values:
        shifted = config
        if axis == "horizon":
            horizon, n_modes = _number(float, value, "[sweep] values"), base_n
        elif axis == "n_modes":
            horizon, n_modes = base_t, _number(int, value, "[sweep] values")
        elif axis == "region_offset":
            horizon, n_modes = base_t, base_n
            shifted = _shift_observer(config, _number(float, value, "[sweep] values"))
        else:
            raise ConfigError(f"unknown sweep axis {axis!r}")
        rows.append(_gramian_row(shifted, horizon, n_modes, ensemble, config.seed)[1])
    write_csv(path, _GRAMIAN_HEADER, rows)
    checks = []
    if axis == "horizon" and config.get("checks", "trends", default=False, cast=bool):
        for key, idx, power in (("d1_emp", 4, 3.0), ("d2_emp", 5, 1.0), ("r2_emp", 8, 2.0)):
            series = [row[idx] * row[0] ** power for row in rows]
            ok = all(series[i + 1] <= 2.0 * series[i] for i in range(len(series) - 1))
            checks.append((f"trend_{key}_T{power:g}", ok, ", ".join(f"{s:.3g}" for s in series)))
        k2 = [row[7] for row in rows]
        checks.append(("trend_k2_bounded", max(k2) <= 2.0 * min(k2), ", ".join(f"{s:.3g}" for s in k2)))
    if axis == "n_modes" and config.get("checks", "refinement_decay", default=False, cast=bool):
        eigs = [row[2] for row in rows]
        ok = all(eigs[i] / eigs[i + 1] >= 2.0 for i in range(len(eigs) - 1))
        checks.append(("min_eig_decays_per_doubling", ok, ", ".join(f"{e:.3e}" for e in eigs)))
    status = 0 if all(ok for _, ok, _ in checks) else 1
    return RunResult(status, [path], checks)


def _run_hum(config: ExperimentConfig, outdir: Path) -> RunResult:
    space = config.spectral_space()
    coupling = config.coupling(space)
    observer = config.observer()
    grid = config.grid(space)
    rng = np.random.default_rng(config.seed)
    state = config.random_state(space, rng)
    problem = HUMProblem(
        config.get("hum", "case", default=observer.kind),
        state,
        coupling,
        observer,
        grid,
        source=config.source(space, rng),
        cg_tolerance=config.get("hum", "cg_tolerance", default=1e-10, cast=float),
        max_iterations=config.get("hum", "max_iterations", default=2000, cast=int),
        observability_floor=config.get("hum", "observability_floor", default=1e-8, cast=float),
    )
    solution = solve_hum(problem)

    artifacts = []
    if problem.case == "interior":
        x_points = np.linspace(0.0, 1.0, config.get("output", "x_samples", default=33, cast=int))
        basis = space.basis_matrix(x_points)
        rows = []
        for k, t in enumerate(grid.times):
            values = basis @ solution.control.values[k]
            for x, v in zip(x_points, values):
                rows.append([t, x, v])
        control_path = outdir / "control.csv"
        write_csv(control_path, ["t", "x", "v"], rows)
    else:
        # control columns are the active endpoints in left, right order
        sides = np.zeros((grid.n_steps + 1, 2))
        sides[:, [problem.observer.b_left > 0, problem.observer.b_right > 0]] = solution.control.values
        rows = [[t, v_left, v_right] for t, (v_left, v_right) in zip(grid.times, sides)]
        control_path = outdir / "control.csv"
        write_csv(control_path, ["t", "v_left", "v_right"], rows)
    artifacts.append(control_path)

    trace_path = outdir / "cg_trace.csv"
    write_csv(trace_path, ["iteration", "residual"], [[i, r] for i, r in enumerate(solution.cg_trace)])
    artifacts.append(trace_path)

    manifest = [
        f"case {problem.case}",
        f"n_modes {space.n_modes}",
        f"horizon {_fmt(grid.horizon)}",
        f"cg_iterations {solution.cg_iterations}",
        f"final_residual {_fmt(solution.final_residual)}",
        f"duality_residual {_fmt(solution.duality_residual)}",
        f"initial_norm {_fmt(solution.initial_norm)}",
    ]
    for name, value in solution.terminal_norms.items():
        manifest.append(f"terminal_{name} {_fmt(value)}")
    manifest_path = outdir / "manifest.txt"
    manifest_path.write_text("\n".join(manifest) + "\n")
    artifacts.append(manifest_path)

    tol = config.get("checks", "terminal_tol", default=1e-6, cast=float)
    scale = max(solution.initial_norm, 1e-300)
    worst = max(v for k, v in solution.terminal_norms.items() if k != "total") / scale
    checks = [
        ("terminal_state_null", worst <= tol, f"worst relative terminal {worst:.3e}"),
        ("transposition_identity", solution.duality_residual <= 1e-6, f"{solution.duality_residual:.3e}"),
    ]
    status = 0 if all(ok for _, ok, _ in checks) else 1
    return RunResult(status, artifacts, checks)


def _run_insensitize(config: ExperimentConfig, outdir: Path) -> RunResult:
    space = config.spectral_space()
    rng = np.random.default_rng(config.seed)
    observation = config.coefficient_function("coupling") or CoefficientFunction(())
    observer = config.observer()
    lam = space.eigenvalues
    y0 = ModalCoefficients(rng.standard_normal(space.n_modes) / np.sqrt(lam), space)
    y1 = ModalCoefficients(rng.standard_normal(space.n_modes), space)
    kwargs = dict(
        known_position=y0,
        known_velocity=y1,
        observation_weight=observation,
        horizon=config.get("grid", "horizon", cast=float),
        control_kind=observer.kind,
        source=config.source(space, rng),
        cg_tolerance=config.get("hum", "cg_tolerance", default=1e-10, cast=float),
        max_iterations=config.get("hum", "max_iterations", default=2000, cast=int),
        perturbation_count=config.get("insensitize", "perturbations", default=10, cast=int),
        seed=config.seed + 1,
    )
    if config.has("grid", "n_steps"):
        kwargs["n_steps"] = config.get("grid", "n_steps", cast=int)
    if observer.kind == "interior":
        kwargs["control_weight"] = observer.weight
    else:
        kwargs["b_left"] = observer.b_left
        kwargs["b_right"] = observer.b_right
    if kwargs["perturbation_count"] < 1:
        raise ConfigError("[insensitize] perturbations must be at least 1")
    problem = InsensitizeProblem(**kwargs)
    control, certificate = insensitize(problem)
    converse = verify_converse(problem, control)

    cert_path = outdir / "certificate.csv"
    write_csv(
        cert_path,
        ["perturbation_id", "dphi_tau0_analytic", "dphi_tau0_fd", "dphi_tau1_analytic", "dphi_tau1_fd"],
        [[r.index, r.dphi_tau0_analytic, r.dphi_tau0_fd, r.dphi_tau1_analytic, r.dphi_tau1_fd]
         for r in certificate.records],
    )
    report_lines = [
        f"phi_baseline {_fmt(certificate.phi_baseline)}",
        f"max_terminal_relative {_fmt(certificate.max_terminal_relative)}",
        f"max_derivative_relative {_fmt(certificate.max_derivative_relative)}",
        f"fd_agreement {_fmt(certificate.fd_agreement)}",
        f"robustness_exponent {_fmt(certificate.robustness_exponent)}",
        f"cg_iterations {certificate.cg_iterations}",
        f"converse_directions_agree {converse.directions_agree}",
        f"converse_terminal_relative {_fmt(converse.terminal_relative)}",
    ]
    report_path = outdir / "report.txt"
    report_path.write_text("\n".join(report_lines) + "\n")

    checks = [
        ("terminal_state_null", certificate.max_terminal_relative <= 1e-6,
         f"{certificate.max_terminal_relative:.3e}"),
        ("sensitivity_derivatives_null", certificate.max_derivative_relative <= 1e-6,
         f"{certificate.max_derivative_relative:.3e}"),
        ("fd_agreement", certificate.fd_agreement <= 1e-5, f"{certificate.fd_agreement:.3e}"),
        ("robustness_quadratic", certificate.robustness_exponent >= 1.9,
         f"exponent {certificate.robustness_exponent:.3f}"),
        ("converse_agrees", converse.directions_agree, f"terminal {converse.terminal_relative:.3e}"),
    ]
    status = 0 if all(ok for _, ok, _ in checks) else 1
    return RunResult(status, [cert_path, report_path], checks)


def _run_audit(config: ExperimentConfig, outdir: Path) -> RunResult:
    samples = config.get("audit", "samples", default=50, cast=int)
    if samples < 1:
        raise ConfigError("[audit] samples must be at least 1")
    space = config.spectral_space()
    coupling = config.coupling(space)
    if coupling is None:
        raise ConfigError("audit needs a coupling with a core region")
    observer = config.observer()
    horizon_factor = config.get("audit", "horizon_factor", default=1.25, cast=float)
    geometric = empirical_horizon(coupling, observer)
    horizon = config.get("grid", "horizon", default=horizon_factor * geometric, cast=float)
    grid = config.grid(space, horizon)
    inflation = config.get("audit", "inflation", default=2.0, cast=float)
    ensemble = config.get("audit", "ensemble", default=32, cast=int)

    if config.has("constants", "gamma0"):
        gamma0 = config.get("constants", "gamma0", cast=float)
        delta0 = config.get("constants", "delta0", default=1.0, cast=float)
        eta0 = config.get("constants", "eta0", cast=float)
        alpha0 = config.get("constants", "alpha0", cast=float)
    else:
        gamma0, delta0 = estimate_uniform_constants(coupling, grid, space, ensemble=ensemble, seed=config.seed)
        eta0, alpha0 = estimate_uniform_constants(observer, grid, space, ensemble=ensemble, seed=config.seed + 1)
        gamma0, delta0, eta0, alpha0 = (inflation * v for v in (gamma0, delta0, eta0, alpha0))
    constants = theoretical_constants(
        alpha=coupling.alpha,
        beta=coupling.beta,
        gamma0=gamma0,
        eta0=eta0,
        alpha0=max(alpha0, 1e-12),
        t0=config.get("constants", "t0", default=geometric, cast=float),
        c1=config.get("constants", "c1", default=4.0, cast=float),
        c2=config.get("constants", "c2", default=16.0, cast=float),
        c3=config.get("constants", "c3", default=32.0, cast=float),
        c4=config.get("constants", "c4", default=128.0, cast=float),
        delta0=max(delta0, 1e-12),
    )
    bound = inflation * admissibility_constant(
        coupling, observer, grid, space, ensemble=ensemble, seed=config.seed + 2
    )

    # the ledger keeps the worst-margin row of each name; a check holds
    # only when every sample's row holds against that sample's own scale
    states = random_cascade_states(space, samples, config.seed + 3)
    worst, failing = {}, {}
    audited = inequality_chain_audit(states, coupling, observer, constants, grid, admissibility_bound=bound)
    for sample_rows in audited:
        for row in sample_rows:
            prev = worst.get(row.name)
            if prev is None or row.margin < prev.margin:
                worst[row.name] = row
            failing[row.name] = failing.get(row.name, 0) + (not row.satisfied)
    rows = [[name, r.lhs, r.rhs, r.margin] for name, r in sorted(worst.items())]
    path = outdir / "audit_ledger.csv"
    write_csv(path, ["inequality_name", "lhs", "rhs", "margin"], rows)

    checks = []
    for name, row in sorted(worst.items()):
        if row.must_hold:
            detail = f"lhs {row.lhs:.4e} rhs {row.rhs:.4e}"
            if failing[name]:
                detail += f", fails on {failing[name]} of {samples} samples"
            checks.append((name, not failing[name], detail))
    status = 0 if all(ok for _, ok, _ in checks) else 1
    return RunResult(status, [path], checks)


_RUNNERS = {
    "simulate": _run_simulate,
    "gramian": _run_gramian,
    "sweep": _run_sweep,
    "hum": _run_hum,
    "insensitize": _run_insensitize,
    "audit": _run_audit,
}


def run(config: ExperimentConfig, outdir: str | Path) -> RunResult:
    """Dispatch one experiment and write its artifacts."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    try:
        result = _RUNNERS[config.kind](config, outdir)
    except RefusalError as exc:
        detail = "; ".join(f"{k}={v}" for k, v in exc.diagnostic.items())
        result = RunResult(1, [], [("refusal", False, f"{exc} ({detail})")])
    except ConvergenceError as exc:
        result = RunResult(1, [], [("convergence", False, str(exc))])
    if config.expect == "fail":
        flipped = 0 if result.status == 1 else 1
        result = RunResult(flipped, result.artifacts, result.checks)
    return result


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="wavecascade",
        description="Run cascade wave observability/control experiments from a config file.",
    )
    parser.add_argument("config", help="experiment description (INI, schema 1)")
    parser.add_argument("-o", "--output-dir", default="out", help="artifact directory")
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="SECTION.KEY=VALUE",
        help="override a config value (repeatable)",
    )
    parser.add_argument(
        "--expect-fail",
        action="store_true",
        help="negative test mode: succeed exactly when the checks fail",
    )
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config, args.overrides)
        if args.expect_fail:
            config.expect = "fail"
        result = run(config, args.output_dir)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}")
        return 2
    print(result.summary())
    return result.status
