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

from .errors import RefusalError, ValidationError
from .spectral import CoefficientFunction, ModalCoefficients, PlateauBump, SpectralSpace
from .dynamics import (
    CascadeState,
    CouplingOperator,
    Observer,
    TimeGrid,
    evolve_cascade,
)
from .observability import (
    ALPHA0_FLOOR,
    ObservabilityConstants,
    empirical_horizon,
    empirical_ratios,
    estimate_uniform_constants,
    inequality_chain_audit,
    min_eigenvalue,
    observation_history,
    random_cascade_states,
)
from .hum import HUMProblem, solve_hum
from .insensitize import InsensitizeProblem, insensitize

__all__ = ["ExperimentConfig", "ConfigError", "run", "main", "SCHEMA_VERSION"]

SCHEMA_VERSION = 1
KINDS = ("simulate", "gramian", "sweep", "hum", "insensitize", "audit")

# Fixed check bounds and run settings: no config key loosens a verdict.
CONSERVATION_TOL = 1e-12  # first_component_(weak_)energy_conserved: relative drift of the first component's energies
COERCIVITY_FLOOR = 1e-6  # gramian_coercive: min eig over max eig of the metric-scaled Gramian
TERMINAL_TOL = 1e-6  # terminal_state_null: worst terminal component norm over the initial norm
AUDIT_INFLATION = 2.0  # the audit's estimated constants and admissibility bound, inflated
AUDIT_HORIZON_FACTOR = 1.25  # the audit's default horizon, in units of the geometric horizon
X_SAMPLES = 33  # points per time of the interior hum control.csv
MAX_STEPS = 2**17  # time steps of the largest grid a run builds, about 10x criterion03's 13,406


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
    """Header and rows as CSV, numbers as ``_fmt`` writes them.

    One %-format serves every row, chosen from the cell types of the first.
    """
    lines = [",".join(header)]
    if rows:
        fmt = ",".join(
            "%s" if isinstance(v, str) else "%d" if isinstance(v, (int, np.integer)) else "%.17g" for v in rows[0]
        )
        lines += [fmt % tuple(row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def write_field_csv(path: Path, header: list[str], times: np.ndarray, points: np.ndarray, values) -> None:
    """Header and one row (t, x, value) per time and point, times outer, as ``write_csv`` writes them.

    ``values`` yields one array per time, one value per point.  Each t and
    x cell is formatted once, and each time's rows are one line template
    filled with that time's values as Python floats.
    """
    tails = [f",{_fmt(x)},%.17g\n" for x in points]
    lines = [",".join(header) + "\n"]
    for t, row in zip(times.tolist(), values):
        t_cell = _fmt(t)
        lines.append((t_cell + t_cell.join(tails)) % tuple(row.tolist()))
    path.write_text("".join(lines))


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
            if default is None:
                raise ConfigError(f"missing required key [{section}] {key}")
            return default
        return _number(cast, raw, f"[{section}] {key}")

    def count(self, section: str, key: str, default: int) -> int:
        """An integer entry that must be at least 1."""
        value = self.get(section, key, default=default, cast=int)
        if value < 1:
            raise ConfigError(f"[{section}] {key} must be at least 1")
        return value

    def has(self, section: str, key: str | None = None) -> bool:
        if key is None:
            return section in self.sections
        return section in self.sections and key in self.sections[section]

    # -- typed pieces ------------------------------------------------------

    def spectral_space(self, n_modes: int | None = None) -> SpectralSpace:
        n = n_modes if n_modes is not None else self.get("spectral", "n_modes", cast=int)
        try:
            return SpectralSpace(n)
        except ValidationError as exc:
            raise ConfigError(f"[spectral] {exc}") from None

    def coefficient_function(self, section: str) -> CoefficientFunction | None:
        if not self.has(section, "pieces"):
            return None
        plateaus = _pieces(self.sections[section]["pieces"], section)
        core = None
        if self.has(section, "core"):
            core = tuple(_floats(self.sections[section]["core"], f"[{section}] core"))
            if len(core) != 2:
                raise ConfigError(f"[{section}] core must be 'lo,hi', got {len(core)} numbers")
        if not plateaus and core is None:
            return CoefficientFunction(())
        try:  # a plateau or core outside (0, 1), a negative margin or height, or a core where the function vanishes
            return CoefficientFunction(tuple(PlateauBump(*p) for p in plateaus), core_region=core)
        except ValidationError as exc:
            raise ConfigError(f"[{section}] {exc}") from None

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
        if kind != "boundary":
            raise ConfigError(f"[observer] unknown kind {kind!r}")
        b_left = self.get("observer", "b_left", default=0.0, cast=float)
        b_right = self.get("observer", "b_right", default=0.0, cast=float)
        try:
            return Observer("boundary", b_left=b_left, b_right=b_right)
        except ValidationError as exc:
            raise ConfigError(f"[observer] {exc}") from None

    def grid(self, space: SpectralSpace, horizon: float | None = None) -> TimeGrid:
        """The [grid] time grid; a ConfigError over ``MAX_STEPS`` steps or where ``TimeGrid`` refuses it."""
        T = horizon if horizon is not None else self.get("grid", "horizon", cast=float)
        n_steps = self.get("grid", "n_steps", cast=int) if self.has("grid", "n_steps") else None
        step_phase = self.get("grid", "step_phase", default=0.4, cast=float) if n_steps is None else None
        try:
            grid = TimeGrid.for_space(space, T, step_phase) if n_steps is None else TimeGrid(T, n_steps)
            if grid.n_steps > MAX_STEPS:  # before dt: an integer count too large for a float overflows it
                digits = str(grid.n_steps)
                count = digits if len(digits) <= 12 else f"at least 10^{len(digits) - 1}"
                raise ValidationError(f"takes {count} time steps, over the budget of {MAX_STEPS}; "
                                      "lower horizon or n_steps, or raise step_phase")
            grid.validate_for(space)
        except ValidationError as exc:
            raise ConfigError(f"[grid] {exc}") from None
        return grid

    def source(self, space: SpectralSpace, rng, horizon: float):
        if not self.sections.get("source"):
            return None
        kind = self.get("source", "kind")  # a [source] without a kind would go unread
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
            if not np.isfinite(frequency * horizon):  # sin(frequency * t) would overflow on the grid
                raise ConfigError(f"[source] frequency {frequency:g} times the horizon {horizon:g} leaves the float range")
            return lambda t: amplitude * np.sin(frequency * t) * profile
        raise ConfigError(f"[source] unknown kind {kind!r}")


def parse_config(path: str | Path, overrides: list[str] | None = None) -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)  # a '%' in a value is read as written
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"could not parse {path}: {exc}") from exc
    if not read:
        raise ConfigError(f"config file not found: {path}")
    for override in overrides or []:
        target, equals, value = override.partition("=")
        section, dot, key = (part.strip() for part in target.partition("."))
        # configparser's default section is no section an override can name
        if not (equals and dot and section and key) or section == parser.default_section:
            raise ConfigError(f"overrides take the form section.key=value, got {override!r}")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())
    sections = {name: dict(parser.items(name)) for name in parser.sections()}
    if "experiment" not in sections:
        raise ConfigError("missing [experiment] section")
    schema = _number(int, sections["experiment"].get("schema", "0"), "[experiment] schema")
    if schema != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {schema} (expected {SCHEMA_VERSION})")
    kind = sections["experiment"].get("kind")
    if kind not in KINDS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    if "source" in sections and kind not in ("hum", "insensitize"):  # it would go unread, and the run pass
        raise ConfigError(f"[source] is read only by the hum and insensitize kinds, not by {kind}")
    seed = _number(int, sections["experiment"].get("seed", "0"), "[experiment] seed")
    if seed < 0:  # numpy's generators take no negative seed
        raise ConfigError(f"[experiment] seed must be nonnegative, got {seed}")
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


def _run_simulate(config: ExperimentConfig, outdir: Path) -> tuple[list, list]:
    space = config.spectral_space()
    coupling = config.coupling(space)
    grid = config.grid(space)
    rng = np.random.default_rng(config.seed)
    state = CascadeState.from_vector(rng.standard_normal(4 * space.n_modes), space)
    traj = evolve_cascade(state, coupling, grid)
    observer = config.observer()
    with np.errstate(over="ignore", invalid="ignore"):  # a series out of the float range is refused next
        obs_sq = (observation_history(traj, observer) ** 2).sum(axis=1)
        e1_u1 = traj.energy_series(1, 1)
        e0_u1 = traj.energy_series(1, 0)
        e1_u2 = traj.energy_series(2, 1)
        e0_u2 = traj.energy_series(2, 0)
    if not (np.all(np.isfinite(e1_u2)) and np.all(np.isfinite(e0_u2))):
        raise ConfigError("[coupling] is too large: the driven component's energy leaves the float range")
    if not np.all(np.isfinite(obs_sq)):
        raise ConfigError("[observer] is too large: the observation leaves the float range")
    rows = []
    for k, t in enumerate(grid.times):
        rows.append([t, e1_u1[k], e0_u1[k], e1_u2[k], e0_u2[k], obs_sq[k]])
    path = outdir / "trajectory.csv"
    write_csv(path, ["t", "e1_u1", "e0_u1", "e1_u2", "e0_u2", "obs_norm_sq"], rows)

    checks = []
    scale = max(e1_u1[0], 1e-300)
    drift1 = float(np.max(np.abs(e1_u1 - e1_u1[0]))) / scale
    scale0 = max(e0_u1[0], 1e-300)
    drift0 = float(np.max(np.abs(e0_u1 - e0_u1[0]))) / scale0
    checks.append(("first_component_energy_conserved", drift1 <= CONSERVATION_TOL, f"drift {drift1:.3e}"))
    checks.append(("first_component_weak_energy_conserved", drift0 <= CONSERVATION_TOL, f"drift {drift0:.3e}"))
    return [path], checks


_GRAMIAN_HEADER = ["T", "N", "min_eig_full", "min_eig_u1block", "d1_emp", "d2_emp", "admissibility", "k2_emp", "r2_emp"]


def _gramian_row(config, horizon, n_modes):
    """Eigen report and CSV row (``_GRAMIAN_HEADER`` columns) of one Gramian case."""
    space = config.spectral_space(n_modes)
    coupling = config.coupling(space)
    observer = config.observer()
    grid = config.grid(space, horizon)
    report = min_eigenvalue(coupling, observer, grid, space)
    try:
        ratios = empirical_ratios(report, coupling, grid, space)
    except RefusalError:
        ratios = {"d1_emp": float("nan"), "d2_emp": float("nan"), "k2_emp": float("nan"),
                  "r2_emp": float("nan"), "admissibility": float("nan")}
    row = [
        horizon, n_modes, report.min_eig, report.block_min["u1"],
        ratios["d1_emp"], ratios["d2_emp"], ratios["admissibility"], ratios["k2_emp"], ratios["r2_emp"],
    ]
    return report, row


def _run_gramian(config: ExperimentConfig, outdir: Path) -> tuple[list, list]:
    space = config.spectral_space()
    horizon = config.get("grid", "horizon", cast=float)
    report, row = _gramian_row(config, horizon, space.n_modes)
    path = outdir / "gramian_report.csv"
    write_csv(path, _GRAMIAN_HEADER, [row])
    checks = [(
        "gramian_coercive",
        report.min_eig > COERCIVITY_FLOOR * report.max_eig,
        f"min {report.min_eig:.3e} vs floor {COERCIVITY_FLOOR:.1e} x max {report.max_eig:.3e}",
    )]
    return [path], checks


def _run_sweep(config: ExperimentConfig, outdir: Path) -> tuple[list, list]:
    axis = config.get("sweep", "axis")
    if axis not in ("horizon", "n_modes"):
        raise ConfigError(f"unknown sweep axis {axis!r}; the axes are horizon and n_modes")
    cast = int if axis == "n_modes" else float  # the whole list, before any row is computed
    values = [_number(cast, v, "[sweep] values") for v in map(str.strip, config.get("sweep", "values").split(",")) if v]
    if not values:  # an empty table would run no check and pass
        raise ConfigError("[sweep] values is empty")
    if len(values) < 2:  # a trend or a decay over one value compares nothing, and passes
        raise ConfigError(f"[sweep] values needs at least two values, got {len(values)}")
    if axis == "n_modes" and min(values) < 1:  # not [spectral] n_modes, which the sweep overrides
        raise ConfigError(f"[sweep] values must be positive mode counts, got {min(values)}")
    rows = []
    path = outdir / "sweep.csv"
    base_n = config.spectral_space().n_modes
    base_t = config.get("grid", "horizon", cast=float)
    for value in values:
        horizon, n_modes = (value, base_n) if axis == "horizon" else (base_t, value)
        rows.append(_gramian_row(config, horizon, n_modes)[1])
    write_csv(path, _GRAMIAN_HEADER, rows)
    if axis == "n_modes":
        eigs = [row[2] for row in rows]
        zero_at = [row[1] for row in rows[1:] if row[2] == 0.0]  # a ratio over 0 decides nothing
        ok = not zero_at and all(eigs[i] / eigs[i + 1] >= 2.0 for i in range(len(eigs) - 1))
        detail = ", ".join(f"{e:.3e}" for e in eigs)
        if zero_at:
            detail += "; exactly 0 at N = " + ", ".join(map(str, zero_at))
        return [path], [("min_eig_decays_per_doubling", ok, detail)]
    checks = []
    for key, idx, power in (("d1_emp", 4, 3.0), ("d2_emp", 5, 1.0), ("r2_emp", 8, 2.0)):
        series = [row[idx] * row[0] ** power for row in rows]
        ok = all(series[i + 1] <= 2.0 * series[i] for i in range(len(series) - 1))
        checks.append((f"trend_{key}_T{power:g}", ok, ", ".join(f"{s:.3g}" for s in series)))
    k2 = [row[7] for row in rows]
    checks.append(("trend_k2_bounded", max(k2) <= 2.0 * min(k2), ", ".join(f"{s:.3g}" for s in k2)))
    return [path], checks


def _run_hum(config: ExperimentConfig, outdir: Path) -> tuple[list, list]:
    space = config.spectral_space()
    coupling = config.coupling(space)
    observer = config.observer()
    grid = config.grid(space)
    rng = np.random.default_rng(config.seed)
    state = CascadeState.from_vector(rng.standard_normal(4 * space.n_modes), space)  # drawn before the source
    problem = HUMProblem(state, coupling, observer, grid, source=config.source(space, rng, grid.horizon))
    solution = solve_hum(problem)

    artifacts = []
    if observer.kind == "interior":
        x_points = np.linspace(0.0, 1.0, X_SAMPLES)
        basis = space.basis_matrix(x_points)
        control_path = outdir / "control.csv"
        fields = (basis @ node for node in solution.control.values)
        write_field_csv(control_path, ["t", "x", "v"], grid.times, x_points, fields)
    else:
        # control columns are the active endpoints in left, right order
        sides = np.zeros((grid.n_steps + 1, 2))
        sides[:, [observer.b_left > 0, observer.b_right > 0]] = solution.control.values
        rows = [[t, v_left, v_right] for t, (v_left, v_right) in zip(grid.times, sides)]
        control_path = outdir / "control.csv"
        write_csv(control_path, ["t", "v_left", "v_right"], rows)
    artifacts.append(control_path)

    manifest = [
        f"case {observer.kind}",
        f"n_modes {space.n_modes}",
        f"horizon {_fmt(grid.horizon)}",
        "cg_iterations 0",  # no conjugate-gradient iteration runs; the benchmark's health metrics read the line
        f"final_residual {_fmt(solution.final_residual)}",
        f"duality_residual {_fmt(solution.duality_residual)}",
        f"initial_norm {_fmt(solution.initial_norm)}",
        f"gramian_contrast {_fmt(solution.gramian_contrast)}",
    ]
    for name, value in solution.terminal_norms.items():
        manifest.append(f"terminal_{name} {_fmt(value)}")
    manifest_path = outdir / "manifest.txt"
    manifest_path.write_text("\n".join(manifest) + "\n")
    artifacts.append(manifest_path)

    worst = solution.max_terminal_relative
    checks = [
        ("terminal_state_null", worst <= TERMINAL_TOL, f"worst relative terminal {worst:.3e}"),
        ("transposition_identity", solution.duality_residual <= 1e-6, f"{solution.duality_residual:.3e}"),
    ]
    return artifacts, checks


def _run_insensitize(config: ExperimentConfig, outdir: Path) -> tuple[list, list]:
    space = config.spectral_space()
    rng = np.random.default_rng(config.seed)
    observation = config.coefficient_function("coupling") or CoefficientFunction(())
    observer = config.observer()
    lam = space.eigenvalues
    y0 = ModalCoefficients(rng.standard_normal(space.n_modes) / np.sqrt(lam), space)
    y1 = ModalCoefficients(rng.standard_normal(space.n_modes), space)
    grid = config.grid(space)
    problem = InsensitizeProblem(
        known_position=y0,
        known_velocity=y1,
        observation_weight=observation,
        grid=grid,
        control_operator=observer,
        source=config.source(space, rng, grid.horizon),
        seed=config.seed + 1,
    )
    _, certificate = insensitize(problem)
    converse = certificate.converse

    cert_path = outdir / "certificate.csv"
    write_csv(
        cert_path,
        ["perturbation_id", "dphi_tau0_analytic", "dphi_tau0_polarized", "dphi_tau1_analytic", "dphi_tau1_polarized"],
        [[r.index, r.dphi_tau0_analytic, r.dphi_tau0_polarized, r.dphi_tau1_analytic, r.dphi_tau1_polarized]
         for r in certificate.records],
    )
    report_lines = [
        f"phi_baseline {_fmt(certificate.phi_baseline)}",
        f"max_terminal_relative {_fmt(certificate.max_terminal_relative)}",
        f"gramian_contrast {_fmt(certificate.gramian_contrast)}",
        f"max_derivative_relative {_fmt(certificate.max_derivative_relative)}",
        f"fd_agreement {_fmt(certificate.fd_agreement)}",
        f"fd_reference_agreement {_fmt(certificate.fd_reference_agreement)}",
        f"response_stepper_gap {_fmt(certificate.response_stepper_gap)}",
        f"robustness_exponent {_fmt(certificate.robustness_exponent)}",
        "cg_iterations 0",  # no conjugate-gradient iteration runs; the benchmark's health metrics read the line
        f"converse_directions_agree {converse.directions_agree}",
        f"converse_terminal_relative {_fmt(converse.terminal_relative)}",
    ]
    report_path = outdir / "report.txt"
    report_path.write_text("\n".join(report_lines) + "\n")

    checks = [
        ("terminal_state_null", certificate.max_terminal_relative <= TERMINAL_TOL,
         f"{certificate.max_terminal_relative:.3e}"),
        ("sensitivity_derivatives_null", certificate.max_derivative_relative <= 1e-6,
         f"{certificate.max_derivative_relative:.3e}"),
        ("fd_agreement", certificate.fd_agreement <= 1e-5, f"{certificate.fd_agreement:.3e}"),
        ("fd_reference_agreement", certificate.fd_reference_agreement <= 1e-5,
         f"{certificate.fd_reference_agreement:.3e} at derivative {certificate.fd_reference[0]:.3e}"),
        # measured 2.47e-14 to 7.35e-14 over the criterion 9 and 10 configs; the bound is 136x the worst
        ("response_stepper_gap", certificate.response_stepper_gap <= 1e-11,
         f"{certificate.response_stepper_gap:.3e}"),
        ("robustness_quadratic", certificate.robustness_exponent >= 1.9,
         f"exponent {certificate.robustness_exponent:.3f}"),
        ("converse_agrees", converse.directions_agree, f"terminal {converse.terminal_relative:.3e}"),
    ]
    return [cert_path, report_path], checks


def _run_audit(config: ExperimentConfig, outdir: Path) -> tuple[list, list]:
    samples = config.count("audit", "samples", 50)
    space = config.spectral_space()
    coupling = config.coupling(space)
    if coupling is None:
        raise ConfigError("audit needs a coupling with a core region")
    observer = config.observer()
    geometric = empirical_horizon(coupling, observer)
    horizon = config.get("grid", "horizon", default=AUDIT_HORIZON_FACTOR * geometric, cast=float)
    grid = config.grid(space, horizon)

    estimates = estimate_uniform_constants(coupling, observer, grid, space, seed=config.seed)
    gamma0, eta0, alpha0 = (AUDIT_INFLATION * v for v in estimates)
    x = random_cascade_states(space, samples, config.seed + 3)
    try:
        constants = ObservabilityConstants(coupling.alpha, coupling.beta, gamma0, eta0, alpha0, t0=geometric)
        audited = inequality_chain_audit(x, coupling, observer, constants, grid, AUDIT_INFLATION)
    except ValidationError as exc:
        if str(exc).startswith("["):  # it names its own key: the observer's solver Gramian left the float range
            raise
        end = "small" if coupling.alpha < 1.0 else "large"  # a tiny alpha, squared in the chain, underflows to 0
        raise ConfigError(f"[coupling] is too {end}: {exc}") from None

    # the ledger shows one sample per name, the first on ties: an inequality's worst margin, an identity's
    # largest |lhs| (its residuals are quadrature and rounding noise); a check fails on any failing sample
    ledger, checks = [], []
    for row in sorted(audited, key=lambda row: row.name):
        i = np.argmax(abs(row.lhs)) if row.kind == "identity" else np.argmin(row.margin)
        ledger.append([row.name, row.lhs[i], row.rhs[i], row.margin[i]])
        if not row.must_hold:
            continue
        detail = f"lhs {row.lhs[i]:.4e} rhs {row.rhs[i]:.4e}"
        if row.kind == "identity":
            detail += f", worst relative residual {np.max(abs(row.lhs - row.rhs) / row.scale):.3e}"
        if row.name == "source_observability_driven" and estimates[2] == ALPHA0_FLOOR:
            detail += f", alpha0 at its {ALPHA0_FLOOR:g} floor"  # no forced sample set it
        failing = int(np.count_nonzero(~row.satisfied))
        if failing:
            detail += f", fails on {failing} of {samples} samples"
        checks.append((row.name, not failing, detail))
    path = outdir / "audit_ledger.csv"
    write_csv(path, ["inequality_name", "lhs", "rhs", "margin"], ledger)
    return [path], checks


# each runner writes its artifacts and returns their paths and its checks; run() decides the status
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
        artifacts, checks = _RUNNERS[config.kind](config, outdir)
    except RefusalError as exc:
        detail = "; ".join(f"{k}={v}" for k, v in exc.diagnostic.items())
        artifacts, checks = [], [("refusal", False, f"{exc} ({detail})")]
    passed = all(ok for _, ok, _ in checks)
    if config.expect == "fail":  # an expected negative succeeds exactly when a check fails
        passed = not passed
    return RunResult(0 if passed else 1, artifacts, checks)


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
    args = parser.parse_args(argv)
    try:
        config = parse_config(args.config, args.overrides)
        result = run(config, args.output_dir)
    except (ConfigError, ValidationError) as exc:
        print(f"configuration error: {exc}")
        return 2
    print(result.summary())
    return result.status
