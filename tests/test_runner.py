"""Tests for the config-driven batch front-end."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wavecascade.runner import ConfigError, main, parse_config, run, write_csv, write_field_csv

CONFIG_DIR = "configs"
ROOT = Path(__file__).resolve().parents[1]


def write_config(tmp_path, text):
    path = tmp_path / "exp.ini"
    path.write_text(text)
    return path


MINIMAL_SIMULATE = """
[experiment]
schema = 1
kind = simulate
seed = 4

[spectral]
n_modes = 8

[grid]
horizon = 1.0
n_steps = 128

[coupling]
pieces = 0.2, 0.3, 0.05, 1.0
core = 0.2, 0.3

[observer]
kind = interior
pieces = 0.6, 0.7, 0.05, 1.0
core = 0.6, 0.7
"""


def _assert_the_shipped_run(tmp_path, capsys, config, override):
    """The run of ``config`` with ``override`` set has the exit code, stdout and artifacts of the config as shipped."""
    path = f"{CONFIG_DIR}/{config}.ini"
    code = main([path, "-o", str(tmp_path / "plain")])
    plain = capsys.readouterr().out.replace(str(tmp_path / "plain"), "OUT")
    assert main([path, "-o", str(tmp_path / "set"), "--set", override]) == code
    assert capsys.readouterr().out.replace(str(tmp_path / "set"), "OUT") == plain
    files = sorted(p.name for p in (tmp_path / "plain").iterdir())
    assert files and files == sorted(p.name for p in (tmp_path / "set").iterdir())
    for name in files:
        assert (tmp_path / "set" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


class TestParsing:
    def test_minimal_config(self, tmp_path):
        config = parse_config(write_config(tmp_path, MINIMAL_SIMULATE))
        assert config.kind == "simulate"
        assert config.seed == 4
        assert config.expect == "pass"

    def test_missing_file_is_config_error(self):
        with pytest.raises(ConfigError):
            parse_config("/nonexistent/path.ini")

    def test_unknown_kind_rejected(self, tmp_path):
        bad = MINIMAL_SIMULATE.replace("kind = simulate", "kind = frobnicate")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad))

    def test_schema_version_enforced(self, tmp_path):
        bad = MINIMAL_SIMULATE.replace("schema = 1", "schema = 99")
        with pytest.raises(ConfigError):
            parse_config(write_config(tmp_path, bad))

    def test_region_outside_interval_rejected(self, tmp_path):
        bad = MINIMAL_SIMULATE.replace("0.2, 0.3, 0.05, 1.0", "0.2, 1.3, 0.05, 1.0")
        config = parse_config(write_config(tmp_path, bad))
        with pytest.raises(ConfigError):
            run(config, tmp_path / "out")

    def test_overrides_change_values(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_SIMULATE)
        config = parse_config(path, overrides=["experiment.seed=9", "grid.n_steps=64"])
        assert config.seed == 9
        assert config.get("grid", "n_steps", cast=int) == 64

    def test_bad_override_shape_rejected(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_SIMULATE)
        with pytest.raises(ConfigError):
            parse_config(path, overrides=["justakey"])

    @pytest.mark.parametrize(
        "override",
        ["experiment.schema=x", "experiment.seed=x", "coupling.pieces=a,b,c,d", "coupling.core=a,b"],
    )
    def test_non_numeric_value_exits_2(self, tmp_path, override):
        path = write_config(tmp_path, MINIMAL_SIMULATE)
        assert main([str(path), "-o", str(tmp_path / "out"), "--set", override]) == 2

    @pytest.mark.parametrize("config", ["criterion02_conservation", "criterion04_gramian_interior"])
    def test_non_finite_horizon_exits_2(self, tmp_path, config):
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", "grid.horizon=nan"]) == 2
        assert not list(out.glob("*.csv"))


    @pytest.mark.parametrize("config, override", [("criterion06_audit", "audit.samples=0")])
    def test_empty_certificate_pool_exits_2(self, tmp_path, config, override):
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", override]) == 2
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "config, overrides, key",
        [
            ("criterion08_hum_interior", ["source.kind=separable", "source.amplitude=nan"], "amplitude"),
            ("criterion09_insensitize_interior", ["source.frequency=inf"], "frequency"),
            # frequency * t had overflowed into a line that named no section, with numpy warnings
            ("criterion08_hum_boundary", ["source.kind=separable", "source.frequency=1e308"], "frequency"),
        ],
    )
    def test_non_finite_source_exits_2_naming_the_key(self, tmp_path, capsys, config, overrides, key):
        args = [f"{CONFIG_DIR}/{config}.ini", "-o", str(tmp_path / "out")]
        for override in overrides:
            args += ["--set", override]
        assert main(args) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("configuration error: [source] ") and key in line

    @pytest.mark.parametrize(
        "config, override",
        [
            ("criterion08_hum_boundary", "observer.b_left=nan"),
            ("criterion08_hum_boundary", "observer.b_right=inf"),
            # a coupling far too large had been blamed on the inflation, or escaped as a traceback
            ("criterion06_audit", "coupling.pieces=0.2,0.3,0.05,1e200"),
            ("criterion08_hum_interior", "coupling.pieces=0.2,0.3,0.05,1e200"),
            ("criterion09_insensitize_interior", "coupling.pieces=0.2,0.3,0.05,1e200"),
            # an empty value list had returned before the axis was read, and passed
            ("criterion07_trends", "sweep.axis=frobnicate sweep.values="),
            # a negative seed had escaped from numpy's generators as a traceback, exit 1
            ("criterion08_hum_interior", "experiment.seed=-1"),
            ("criterion02_conservation", "experiment.seed=-1"),
            ("criterion06_audit", "experiment.seed=-1"),
            ("criterion09_insensitize_interior", "experiment.seed=-1"),
            ("criterion04_gramian_interior", "experiment.seed=-1"),
            # an observation weight out of the float range had failed a check with an inf spectrum, exit 1,
            # or, in the audit, been blamed on the coupling
            ("criterion04_gramian_interior", "observer.pieces=0.6,0.7,0.05,1e160"),
            ("criterion04_gramian_interior", "observer.pieces=0.6,0.7,0.05,1e200"),
            ("criterion04_gramian_interior", "observer.pieces=0.6,0.7,0.05,1e300"),
            ("criterion04_gramian_boundary", "observer.b_left=1e200"),
            ("criterion07_trends", "observer.pieces=0.6,0.7,0.05,1e200"),
            ("criterion05_short_horizon", "observer.pieces=0.6,0.7,0.05,1e200"),
            ("criterion06_audit", "observer.pieces=0.6,0.7,0.05,1e200"),
            # the audit's solver Gramian had overflowed into an eigvalsh traceback
            ("criterion06_audit", "observer.pieces=0.6,0.7,0.05,1e152"),
            # the insensitize kind had built its own grid at a fixed step phase, and passed
            ("criterion09_insensitize_interior", "grid.step_phase=nan"),
            ("criterion09_insensitize_interior", "grid.step_phase=-1"),
            # an axis no sweep computes
            ("criterion07_trends", "sweep.axis=region_offset"),
            # a grid over the step budget had escaped as a traceback: numpy refused the array size, an
            # allocation of 46.6 TiB failed, or T / n_steps overflowed
            ("criterion06_audit", "grid.step_phase=1e-300"),
            ("criterion08_hum_boundary", "grid.step_phase=1e-300"),
            ("criterion09_insensitize_interior", "grid.step_phase=1e-300"),
            ("criterion06_audit", "grid.horizon=1e300"),
            ("criterion02_conservation", "grid.n_steps=100000000000"),
            ("criterion08_hum_interior", "grid.n_steps=1" + "0" * 400),
            # a driven energy or an observation out of the float range had been written as inf rows, exit 0
            ("criterion02_conservation", "coupling.pieces=0.2,0.3,0.05,1e200"),
            ("criterion02_conservation", "observer.pieces=0.6,0.7,0.05,1e200"),
            ("criterion01_solver", "coupling.pieces=0.2,0.3,0.05,1e300"),
            # an empty sweep had written a header-only table and passed, its trends switch checking nothing
            ("criterion07_trends", "sweep.values="),
            # a [source] without a kind had gone unread, and the run had passed without its source
            ("criterion10_converse", "source.amplitude=1e8"),
            # a [source] given to a kind that never reads it had gone unread, and the run had passed
            ("criterion06_audit", "source.amplitude=1e8"),
            ("criterion04_gramian_interior", "source.kind=separable"),
            # configparser's default section had escaped as a ValueError traceback, exit 1
            ("criterion01_solver", "DEFAULT.seed=3"),
            # an empty section or key had set nothing, and the run had passed
            ("criterion08_hum_interior", ".horizon=3"),
            ("criterion08_hum_interior", "grid.=3"),
            # a '%' had been read as configparser interpolation and escaped as a traceback, exit 1
            ("criterion08_hum_interior", "grid.horizon=4%"),
            ("criterion08_hum_interior", "grid.horizon=%(n_modes)s"),
        ],
    )
    def test_malformed_input_exits_2_with_one_line(self, tmp_path, capsys, config, override):
        out = tmp_path / "out"
        args = [f"{CONFIG_DIR}/{config}.ini", "-o", str(out)]
        for one in override.split():
            args += ["--set", one]
        assert main(args) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("configuration error: ")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize(
        "config, override, section",
        [
            ("criterion08_hum_interior", "coupling.pieces=0.2,0.3,0.05,-1", "coupling"),
            ("criterion09_insensitize_interior", "source.pieces=0.3,0.6,0.05,-1", "source"),
            ("criterion08_hum_interior", "coupling.pieces=0.2,0.3,-0.05,1", "coupling"),
            ("criterion04_gramian_interior", "observer.core=0.9,0.95", "observer"),
            ("criterion04_gramian_interior", "spectral.n_modes=0", "spectral"),
            ("criterion05_short_horizon", "sweep.values=16,0", "sweep"),
            ("criterion08_hum_interior", "grid.step_phase=inf", "grid"),
            ("criterion08_hum_interior", "grid.horizon=-1", "grid"),
            ("criterion02_conservation", "grid.n_steps=3", "grid"),
            ("criterion04_gramian_interior", "observer.kind=Interior", "observer"),
            ("criterion08_hum_interior", "source.kind=Separable", "source"),
            # plateau and core ranges are PlateauBump's and CoefficientFunction's checks, not the runner's
            ("criterion08_hum_interior", "coupling.pieces=0.2,1.5,0.05,1", "coupling"),
            ("criterion04_gramian_interior", "observer.core=0.9,1.2", "observer"),
        ],
    )
    def test_coefficient_and_space_refusals_name_the_section(self, tmp_path, capsys, config, override, section):
        # these lines had named no section
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", override]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"configuration error: [{section}] ")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("config, values", [("criterion05_short_horizon", "64"), ("criterion07_trends", "4")])
    def test_one_value_sweep_exits_2_naming_the_values(self, tmp_path, capsys, config, values):
        # one value had run its axis's check over nothing to compare, and passed
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", f"sweep.values={values}"]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("configuration error: [sweep] values ")
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "config",
        [
            "criterion01_solver",
            "criterion04_gramian_interior",
            "criterion06_audit",
            "criterion08_hum_interior",
            "criterion09_insensitize_interior",
        ],
    )
    def test_coarse_grid_exits_2_naming_the_grid(self, tmp_path, capsys, config):
        # the refusal had named no section and told the user to set a TimeGrid argument no key reaches
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", "grid.n_steps=10"]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("configuration error: [grid] time step resolves the fastest mode poorly")
        assert "n_steps" in line and "step_phase" in line
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "config, override, count",
        [
            # its doubling is logarithmic in the step count: it had run about 1e302 steps and exited 0
            ("criterion04_gramian_interior", "grid.step_phase=1e-300", "at least 10^302"),
            # the count is never a float: T / n_steps had overflowed
            ("criterion08_hum_interior", "grid.n_steps=1" + "0" * 400, "at least 10^400"),
            ("criterion02_conservation", "grid.n_steps=100000000000", "100000000000"),
        ],
    )
    def test_grid_over_the_step_budget_exits_2_naming_the_grid(self, tmp_path, capsys, config, override, count):
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", override]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"configuration error: [grid] takes {count} time steps, over the budget of 131072;")
        assert not list(out.glob("*"))

    def test_the_step_budget_admits_its_own_count(self):
        # the grid is built lazily, so neither call allocates its nodes
        from wavecascade.runner import MAX_STEPS

        config = parse_config(f"{CONFIG_DIR}/criterion02_conservation.ini", [f"grid.n_steps={MAX_STEPS}"])
        assert config.grid(config.spectral_space()).n_steps == MAX_STEPS
        config = parse_config(f"{CONFIG_DIR}/criterion02_conservation.ini", [f"grid.n_steps={MAX_STEPS + 2}"])
        with pytest.raises(ConfigError, match=r"^\[grid\] takes 131074 time steps"):
            config.grid(config.spectral_space())

    def test_the_coercivity_floor_is_not_a_key(self, tmp_path):
        # T = 0.3 is far below the geometric control time; a [checks] floor of 0 had passed gramian_coercive
        args = [f"{CONFIG_DIR}/criterion04_gramian_interior.ini", "-o", str(tmp_path / "out")]
        assert main(args + ["--set", "grid.horizon=0.3", "--set", "checks.floor=0"]) != 0

    @pytest.mark.parametrize(
        "config, override",
        [
            ("criterion04_gramian_interior", "checks.floor=-1"),
            # an expected negative: a NaN floor had failed its check and so read as a pass
            ("criterion05_decoupled", "checks.floor=nan"),
            ("criterion08_hum_interior", "checks.terminal_tol=nan"),
            ("criterion08_hum_interior", "hum.observability_floor=0.5"),
            ("criterion09_insensitize_interior", "hum.observability_floor=0.5"),
            ("criterion08_hum_interior", "output.x_samples=-2"),
            ("criterion06_audit", "audit.inflation=1e300"),
            ("criterion06_audit", "audit.horizon_factor=100"),
            # a sweep's [checks] switch set to 0 had run no check, and the sweep had passed
            ("criterion05_short_horizon", "checks.refinement_decay=0"),
            ("criterion07_trends", "checks.trends=0"),
            # one perturbation direction had shrunk the certificate to a single random draw
            ("criterion10_converse", "insensitize.perturbations=1"),
        ],
    )
    def test_a_fixed_bound_ignores_its_old_key(self, tmp_path, capsys, config, override):
        # each key had set a check's bound, switched checks off or set a sampling setting; the run, its
        # verdict and its artifacts are now those of the config as shipped
        _assert_the_shipped_run(tmp_path, capsys, config, override)

    def test_a_padded_override_is_read_stripped(self, tmp_path, capsys):
        # the padded section had been looked up unstripped and escaped as a NoSectionError traceback, exit 1;
        # a source of kind none is the shipped run
        _assert_the_shipped_run(tmp_path, capsys, "criterion08_hum_interior", " source . kind = none ")

    @pytest.mark.parametrize("step_phase", ["0", "-1"])
    def test_non_positive_step_phase_exits_2_naming_it(self, tmp_path, capsys, step_phase):
        out = tmp_path / "out"
        config = f"{CONFIG_DIR}/criterion04_gramian_boundary.ini"
        assert main([config, "-o", str(out), "--set", f"grid.step_phase={step_phase}"]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("configuration error: [grid] step_phase must be positive and finite")
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "config, override, start",
        [
            ("criterion06_audit", "coupling.pieces=0.2,0.3,0.05,1e200", "[coupling] is too large: constant chain"),
            # a tiny coupling's alpha**2 underflows in the chain; the line had named the large end
            ("criterion06_audit", "coupling.pieces=0.2,0.3,0.05,1e-200",
             "[coupling] is too small: constant chain leaves the float range"),
            ("criterion04_gramian_interior", "coupling.pieces=0.2,0.3,0.05,1e30", "[coupling] is too large: "),
            ("criterion09_insensitize_interior", "source.amplitude=1e308", "[source] is too large: "),
            ("criterion06_audit", "observer.pieces=0.6,0.7,0.05,1e152", "[observer] is too large: the audit's solver"),
            # the control Gramian's line had named no section
            ("criterion08_hum_interior", "coupling.pieces=0.2,0.3,0.05,1e200",
             "[coupling] or [observer] is too large: the control Gramian"),
            ("criterion09_insensitize_interior", "coupling.pieces=0.2,0.3,0.05,1e308",
             "[coupling] or [observer] is too large: the control Gramian"),
        ],
    )
    def test_input_out_of_the_float_range_is_named(self, tmp_path, capsys, config, override, start):
        # the gramian had escaped as an SVD traceback, the source as a line naming no key
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", override]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith(f"configuration error: {start}")
        assert not list(out.glob("*.csv"))

    @pytest.mark.parametrize("override", ["observer.b_left=nan", "observer.b_right=inf"])
    def test_boundary_weight_refusal_names_the_observer(self, tmp_path, capsys, override):
        # the observer's own refusal had reached the line naming no key
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/criterion08_hum_boundary.ini", "-o", str(out), "--set", override]) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("configuration error: [observer] boundary weights must be finite")

    def test_insensitize_grid_follows_the_step_phase(self, tmp_path, monkeypatch):
        # the insensitize kind had built its own grid at a fixed step phase of 0.4
        from wavecascade import runner
        from wavecascade.dynamics import TimeGrid
        from wavecascade.errors import RefusalError

        steps = []

        def record(problem):  # stops the run before the solve
            steps.append(problem.grid.n_steps)
            raise RefusalError("grid recorded")

        monkeypatch.setattr(runner, "insensitize", record)
        config = f"{CONFIG_DIR}/criterion09_insensitize_interior.ini"
        for phase in (0.4, 0.3):
            run(parse_config(config, [f"grid.step_phase={phase}"]), tmp_path / str(phase))
        space = parse_config(config).spectral_space()
        assert steps == [TimeGrid.for_space(space, 4.0, phase).n_steps for phase in (0.4, 0.3)]
        assert steps[1] > steps[0]


class TestRunKinds:
    def test_gramian_row_builds_one_gramian(self, tmp_path, monkeypatch):
        # the ratios read min_eigenvalue's square root: no solver step is built,
        # and weighted_gram sums only the k2_emp form
        from wavecascade import observability

        calls = {"cascade_step_matrix": 0, "weighted_gram": 0}

        def counted(name):
            original = getattr(observability, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(observability, name, counted(name))
        assert main([f"{CONFIG_DIR}/criterion04_gramian_interior.ini", "-o", str(tmp_path / "g")]) == 0
        assert calls == {"cascade_step_matrix": 0, "weighted_gram": 1}

    def test_audit_run_doubles_once(self, tmp_path, monkeypatch):
        # the audit's stepper forms, its step^M and the admissibility constant's
        # solver Gramian all come from one doubling of one step
        import traceback

        from wavecascade import observability

        callers = {"_doubling": [], "cascade_step_matrix": []}

        def counted(name):
            original = getattr(observability, name)

            def wrapper(*args, **kwargs):
                names = [frame.name for frame in traceback.extract_stack()]
                callers[name].append(next(n for n in names if n in ("_audit_forms", "admissibility_constant")))
                return original(*args, **kwargs)

            return wrapper

        for name in callers:
            monkeypatch.setattr(observability, name, counted(name))
        assert main([f"{CONFIG_DIR}/criterion06_audit.ini", "-o", str(tmp_path / "a")]) == 0
        assert callers == {"_doubling": ["_audit_forms"], "cascade_step_matrix": ["_audit_forms"]}

    @staticmethod
    def _march_callers(monkeypatch, args):
        import sys

        from wavecascade import dynamics, hum

        insensitize = sys.modules["wavecascade.insensitize"]  # the package re-exports the function
        callers = []
        original = dynamics.march

        def counted(*args, **kwargs):
            callers.append(sys._getframe(1).f_code.co_name)
            return original(*args, **kwargs)

        for module in (dynamics, hum, insensitize):
            monkeypatch.setattr(module, "march", counted)
        assert main(args) == 0
        return callers

    def test_hum_run_marches_only_its_forward_sweep(self, tmp_path, monkeypatch):
        # the adjoint sweeps (control extraction, transposition probes) march only the
        # driven block in their own loop, and the source-free right-hand side reads
        # P^-M from the Gramian's doubling: the full step is marched forward once
        args = [f"{CONFIG_DIR}/criterion08_hum_boundary.ini", "-o", str(tmp_path / "h")]
        assert self._march_callers(monkeypatch, args) == ["controlled_forward"]

    def test_sourced_hum_run_marches_its_source_from_rest(self, tmp_path, monkeypatch):
        # a source's terminal state is marched from rest once, for the right-hand side and the data norm
        args = [
            f"{CONFIG_DIR}/criterion08_hum_boundary.ini",
            "-o",
            str(tmp_path / "h"),
            "--set",
            "source.kind=separable",
        ]
        assert self._march_callers(monkeypatch, args) == ["source_terminal", "controlled_forward"]

    @pytest.mark.parametrize(
        "config, expected",
        [
            ("criterion10_converse", ["controlled_forward", "_response", "controlled_forward"]),
            ("criterion09_insensitize_interior",
             ["source_terminal", "controlled_forward", "_response", "controlled_forward"]),
        ],
    )
    def test_insensitize_run_marches_each_trajectory_once(self, tmp_path, monkeypatch, config, expected):
        # the HUM trajectory, the robustness response and the zero-control reference;
        # the converse reads the HUM trajectory, and a source is marched from rest once
        args = [f"{CONFIG_DIR}/{config}.ini", "-o", str(tmp_path / "i")]
        assert self._march_callers(monkeypatch, args) == expected

    def test_gramian_decoupled_expected_negative(self, tmp_path):
        result_code = main([f"{CONFIG_DIR}/criterion05_decoupled.ini", "-o", str(tmp_path / "g")])
        assert result_code == 0  # the config declares expect = fail
        report = (tmp_path / "g" / "gramian_report.csv").read_text().splitlines()
        values = dict(zip(report[0].split(","), report[1].split(",")))
        assert float(values["min_eig_u1block"]) <= 1e-10

    def test_expect_fail_flag_inverts_passing_run(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_SIMULATE)
        assert main([str(path), "-o", str(tmp_path / "a")]) == 0
        assert main([str(path), "-o", str(tmp_path / "b"), "--set", "experiment.expect=fail"]) == 1

    def test_refinement_decay_fails_on_an_exact_zero(self, tmp_path, capsys):
        # one boundary row per node, 13 and 23 nodes against 4N = 64 and 128
        # columns: every min eig is the padding 0.0, which the decay check must
        # refuse, not divide by
        code = main([
            f"{CONFIG_DIR}/criterion05_short_horizon.ini",
            "-o",
            str(tmp_path / "sweep"),
            "--set",
            "observer.kind=boundary",
            "--set",
            "observer.b_left=1.0",
            "--set",
            "sweep.values=16, 32",
        ])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "status 1"
        assert lines[1].startswith("  [FAIL] min_eig_decays_per_doubling: 0.000e+00, 0.000e+00")
        assert lines[1].endswith("; exactly 0 at N = 32")
        assert lines[2:] == [f"  wrote {tmp_path / 'sweep' / 'sweep.csv'}"]

    def test_sweep_values_are_parsed_before_the_first_row(self, tmp_path, capsys, monkeypatch):
        # a bad value late in the list had been refused only after every earlier row was computed
        from wavecascade import runner

        def never(*args):
            raise AssertionError("a Gramian row was computed")

        monkeypatch.setattr(runner, "_gramian_row", never)
        args = [f"{CONFIG_DIR}/criterion07_trends.ini", "-o", str(tmp_path / "s"), "--set", "sweep.values=4,8,16,x"]
        assert main(args) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line == "configuration error: bad value for [sweep] values: 'x'"

    def test_large_source_hum_run_passes(self, tmp_path):
        # the terminal residual had been scaled by the known data alone: 4.8e-6 at this amplitude, a failure
        overrides = ["source.kind=separable", "source.amplitude=1e8", "source.pieces=0.3,0.6,0.05,1"]
        result = run(parse_config(f"{CONFIG_DIR}/criterion08_hum_boundary.ini", overrides), tmp_path)
        assert result.status == 0, result.checks

    @pytest.mark.parametrize(
        "config, artifact, keys",
        [
            ("criterion08_hum_interior", "manifest.txt", ["cg_iterations", "initial_norm", "duality_residual"]),
            ("criterion09_insensitize_interior", "report.txt",
             ["cg_iterations", "fd_agreement", "max_derivative_relative"]),
        ],
    )
    def test_artifacts_carry_the_benchmark_health_keys(self, tmp_path, config, artifact, keys):
        # perfbench's health metrics read these keys; a rename would break its trace pass silently
        result = run(parse_config(f"{CONFIG_DIR}/{config}.ini", ["spectral.n_modes=8"]), tmp_path)
        assert result.status == 0
        pairs = dict(line.split(None, 1) for line in (tmp_path / artifact).read_text().splitlines())
        if artifact == "manifest.txt":
            terminal = [k for k in pairs if k.startswith("terminal_")]
            assert sorted(terminal) == ["terminal_dy1", "terminal_dy2", "terminal_total", "terminal_y1", "terminal_y2"]
            keys = keys + terminal
        for key in keys:
            assert np.isfinite(float(pairs[key])), key

    @pytest.mark.parametrize(
        "config, artifact", [("criterion08_hum_interior", "manifest.txt"), ("criterion09_insensitize_interior", "report.txt")]
    )
    def test_artifacts_carry_the_gramian_contrast(self, tmp_path, config, artifact):
        # the contrast the refusal reads; not a terminal_* key, which the benchmark sums
        from wavecascade.hum import OBSERVABILITY_FLOOR

        result = run(parse_config(f"{CONFIG_DIR}/{config}.ini", ["spectral.n_modes=8"]), tmp_path)
        assert result.status == 0
        pairs = dict(line.split(None, 1) for line in (tmp_path / artifact).read_text().splitlines())
        contrast = float(pairs["gramian_contrast"])
        assert np.isfinite(contrast) and contrast >= OBSERVABILITY_FLOOR

    @pytest.mark.parametrize("config", ["criterion08_hum_interior", "criterion09_insensitize_interior"])
    def test_observability_floor_refuses_with_one_line(self, tmp_path, capsys, config):
        # a coupling of height 1e150 keeps both control Gramians in range but drives their contrast below the floor
        code = main([
            f"{CONFIG_DIR}/{config}.ini",
            "-o",
            str(tmp_path / "out"),
            "--set",
            "coupling.pieces=0.2,0.3,0.05,1e150",
        ])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "status 1"
        assert lines[1].startswith("  [FAIL] refusal: control Gramian fails the observability floor")
        assert "floor=1e-08" in lines[1]
        assert len(lines) == 2

    def test_config_error_exit_code(self, tmp_path):
        assert main([str(tmp_path / "missing.ini")]) == 2

    def test_sweep_empty_axis_is_refused_naming_the_values(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("kind = simulate", "kind = sweep") + (
            "\n[sweep]\naxis = horizon\nvalues =\n"
        )
        config = parse_config(write_config(tmp_path, text))
        with pytest.raises(ConfigError, match=r"^\[sweep\] values is empty"):
            run(config, tmp_path / "out")
        assert not list((tmp_path / "out").glob("*"))

    def test_hum_run_produces_control_and_manifest(self, tmp_path):
        text = """
[experiment]
schema = 1
kind = hum
seed = 2

[spectral]
n_modes = 8

[grid]
horizon = 4.0
step_phase = 0.4

[coupling]
pieces = 0.2, 0.3, 0.05, 1.0
core = 0.2, 0.3

[observer]
kind = interior
pieces = 0.6, 0.7, 0.05, 1.0
core = 0.6, 0.7
"""
        config = parse_config(write_config(tmp_path, text))
        result = run(config, tmp_path / "out")
        assert result.status == 0
        control = (tmp_path / "out" / "control.csv").read_text().splitlines()
        assert control[0] == "t,x,v"
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "terminal_total" in manifest

    def test_audit_run_writes_ledger(self, tmp_path):
        result_code = main([
            f"{CONFIG_DIR}/criterion03_identities.ini",
            "-o",
            str(tmp_path / "audit"),
            "--set",
            "audit.samples=5",
            "--set",
            "spectral.n_modes=8",
        ])
        assert result_code == 0
        ledger = (tmp_path / "audit" / "audit_ledger.csv").read_text().splitlines()
        assert ledger[0] == "inequality_name,lhs,rhs,margin"
        names = {line.split(",")[0] for line in ledger[1:]}
        assert "coupling_duality_identity" in names

    def test_transposition_check_fails_on_a_non_finite_control(self, tmp_path, monkeypatch, capsys):
        # the identity is checked on a control with one NaN sample
        from wavecascade import hum

        checked = hum._node_sums

        def poisoned(sums, observed, samples, *args):
            # the identity reads a copy: the control the forward solve runs on stays finite
            samples = samples.copy()
            samples[-1, 0] = np.nan
            return checked(sums, observed, samples, *args)

        monkeypatch.setattr(hum, "_node_sums", poisoned)
        code = main([
            f"{CONFIG_DIR}/criterion08_hum_boundary.ini",
            "-o",
            str(tmp_path / "hum"),
            "--set",
            "spectral.n_modes=8",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] transposition_identity: nan" in out
        assert "[pass] terminal_state_null" in out  # only the identity fails

    def test_audit_check_fails_when_any_sample_fails(self, tmp_path, monkeypatch, capsys):
        # the worst-margin sample holds against its large scale, while a
        # small-scale sample with a milder margin fails against its own
        from wavecascade import runner
        from wavecascade.observability import AuditRow

        def two_samples(*args, **kwargs):
            lhs, rhs, scale = np.array([1.0, 1e-9]), np.array([1.0 - 1e-6, 0.0]), np.array([1e4, 1e-9])
            return [AuditRow("crafted_bound", lhs, rhs, True, scale)]

        monkeypatch.setattr(runner, "inequality_chain_audit", two_samples)
        code = main([
            f"{CONFIG_DIR}/criterion06_audit.ini",
            "-o",
            str(tmp_path / "audit"),
            "--set",
            "spectral.n_modes=4",
            "--set",
            "audit.samples=2",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] crafted_bound: lhs 1.0000e+00" in out
        assert "fails on 1 of 2 samples" in out
        ledger = (tmp_path / "audit" / "audit_ledger.csv").read_text().splitlines()
        assert ledger[1].startswith("crafted_bound,1,0.99999899999999997,")


class TestCsv:
    @staticmethod
    def reference(header, rows):
        """Per-cell formatting: strings as they are, integers by str, floats at 17 digits."""
        def cell(v):
            if isinstance(v, str):
                return v
            if isinstance(v, (int, np.integer)):
                return str(int(v))
            return format(float(v), ".17g")

        return "\n".join([",".join(header)] + [",".join(cell(v) for v in row) for row in rows]) + "\n"

    def test_cells_format_like_the_reference(self, tmp_path):
        header = ["name", "i", "j", "x", "y"]
        rows = [
            ["a", 0, np.int64(-7), 0.1, np.float64(1.0 / 3.0)],
            ["b c", 12345678901234, np.int64(2**62), float("nan"), float("inf")],
            ["", -1, np.int64(0), float("-inf"), -0.0],
            ["d", 3, np.int64(4), 5e-324, 1e300],
            ["e", 5, np.int64(6), np.float64(-2.5e-17), 2.0],
        ]
        write_csv(tmp_path / "t.csv", header, rows)
        assert (tmp_path / "t.csv").read_text() == self.reference(header, rows)

    def test_empty_rows_write_the_header(self, tmp_path):
        write_csv(tmp_path / "t.csv", ["a", "b"], [])
        assert (tmp_path / "t.csv").read_text() == self.reference(["a", "b"], []) == "a,b\n"

    def test_field_writer_matches_write_csv_on_an_interior_control(self, tmp_path):
        # the interior control.csv: one row (t, x, v) per node and sample point, its
        # t and x cells formatted once by _fmt as the writer had them before
        from wavecascade.dynamics import CascadeState, CouplingOperator, Observer, TimeGrid
        from wavecascade.hum import HUMProblem, solve_hum
        from wavecascade.runner import _fmt
        from wavecascade.spectral import CoefficientFunction, PlateauBump, SpectralSpace

        space = SpectralSpace(8)
        bump = lambda a, b: CoefficientFunction((PlateauBump(a, b, 0.05, 1.0),), core_region=(a, b))
        problem = HUMProblem(
            CascadeState.from_vector(np.random.default_rng(3).standard_normal(32), space),
            CouplingOperator(bump(0.2, 0.3), space),
            Observer("interior", weight=bump(0.6, 0.7)),
            TimeGrid.for_space(space, 4.0, 0.4),
        )
        times = problem.grid.times
        points = np.linspace(0.0, 1.0, 33)
        fields = [space.basis_matrix(points) @ node for node in solve_hum(problem).control.values]
        rows = [[_fmt(t), _fmt(x), v] for t, field in zip(times, fields) for x, v in zip(points, field)]
        write_csv(tmp_path / "rows.csv", ["t", "x", "v"], rows)
        write_field_csv(tmp_path / "field.csv", ["t", "x", "v"], times, points, fields)
        assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


class TestAuditLedger:
    SMALL = [
        f"{CONFIG_DIR}/criterion06_audit.ini", "--set", "spectral.n_modes=6", "--set", "grid.step_phase=0.2",
        "--set", "audit.samples=8",
    ]

    def test_identity_rows_do_not_follow_rounding_noise(self, tmp_path, monkeypatch):
        # every identity residual is noise: moving the residuals of the samples
        # the ledger does not show by 1e-13 must leave the ledger as it was
        from dataclasses import replace

        from wavecascade import runner

        audit = runner.inequality_chain_audit
        moved = {}

        def jittered(*args, **kwargs):
            rows = audit(*args, **kwargs)
            for j, row in enumerate(rows):
                if row.kind == "identity":
                    shown = np.argmax(abs(row.lhs))
                    rhs = row.rhs + np.where(np.arange(row.rhs.size) % 2, 1e-13, -1e-13)
                    rhs[shown] = row.rhs[shown]
                    rows[j] = replace(row, rhs=rhs)
                    moved[row.name] = np.argmin(rows[j].margin) != np.argmin(row.margin)
            return rows

        assert main(self.SMALL + ["-o", str(tmp_path / "plain")]) == 0
        monkeypatch.setattr(runner, "inequality_chain_audit", jittered)
        assert main(self.SMALL + ["-o", str(tmp_path / "jittered")]) == 0
        # the jitter does move the worst residual, so a worst-residual ledger would change
        assert any(moved.values())
        plain = (tmp_path / "plain" / "audit_ledger.csv").read_bytes()
        assert (tmp_path / "jittered" / "audit_ledger.csv").read_bytes() == plain

    def test_identity_check_reports_worst_relative_residual(self, tmp_path, capsys):
        assert main(self.SMALL + ["-o", str(tmp_path / "audit")]) == 0
        out = capsys.readouterr().out
        for name in ("coupling_duality_identity", "driven_energy_balance"):
            line = next(line for line in out.splitlines() if f"] {name}:" in line)
            assert float(line.rsplit("worst relative residual ", 1)[1]) <= 1e-6


    def test_alpha0_at_its_floor_is_named_in_the_check_detail(self, tmp_path, capsys):
        # at criterion 6's seed no forced sample lifts alpha0 off its floor, so the check that uses it says
        # so; on the small lab observed at one end up to T = 4 one does (alpha0 1.10), and it does not
        boundary = ["--set", "observer.kind=boundary", "--set", "observer.b_left=1.0", "--set", "grid.horizon=4"]
        for args, floored in (([f"{CONFIG_DIR}/criterion06_audit.ini"], True), (self.SMALL + boundary, False)):
            assert main(args + ["-o", str(tmp_path / "audit")]) == 0
            out = capsys.readouterr().out
            line = next(line for line in out.splitlines() if "] source_observability_driven:" in line)
            assert line.endswith(", alpha0 at its 1e-12 floor") == floored


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        for label in ("one", "two"):
            code = main([f"{CONFIG_DIR}/criterion11_determinism.ini", "-o", str(tmp_path / label)])
            assert code == 0
        first = (tmp_path / "one" / "trajectory.csv").read_bytes()
        second = (tmp_path / "two" / "trajectory.csv").read_bytes()
        assert first == second

    @pytest.mark.parametrize("config", ["criterion04_gramian_interior", "criterion07_trends"])
    def test_gramian_artifacts_do_not_depend_on_the_seed(self, tmp_path, config):
        # every column is an eigenvalue: no random draw is left in a gramian or sweep run
        artifacts = []
        for label, seed in (("config", []), ("seed1", ["--set", "experiment.seed=1"])):
            assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(tmp_path / label), *seed]) == 0
            (csv,) = (tmp_path / label).glob("*.csv")
            artifacts.append(csv.read_bytes())
        assert artifacts[0] == artifacts[1]

    @pytest.mark.parametrize(
        "config",
        [
            "criterion04_gramian_boundary",
            "criterion06_audit",
            "criterion07_trends",
            "criterion08_hum_boundary",
            "criterion09_insensitize_interior",
        ],
    )
    def test_artifacts_do_not_depend_on_the_blas_thread_count(self, tmp_path, config):
        # a BLAS reduction over the time nodes had rounded with the thread partition in the first three
        # configs, and OpenBLAS's threaded LU factor of the control Gramian in the hum and insensitize ones
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
        digests = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
            out = tmp_path / threads
            result = subprocess.run(
                [sys.executable, "-m", "wavecascade", f"{CONFIG_DIR}/{config}.ini", "-o", str(out)],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
            )
            assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
            digests.append({path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in out.iterdir()})
        assert digests[0] and digests[0] == digests[1]

    def test_different_seed_changes_bytes(self, tmp_path):
        base = [f"{CONFIG_DIR}/criterion11_determinism.ini"]
        main(base + ["-o", str(tmp_path / "a")])
        main(base + ["-o", str(tmp_path / "b"), "--set", "experiment.seed=124"])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() != (
            tmp_path / "b" / "trajectory.csv"
        ).read_bytes()
