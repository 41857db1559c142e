"""Tests for the config-driven batch front-end."""

import numpy as np
import pytest

from wavecascade.runner import ConfigError, main, parse_config, run

CONFIG_DIR = "configs"


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

    def test_non_numeric_region_offset_piece_exits_2(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("kind = simulate", "kind = sweep") + (
            "\n[sweep]\naxis = region_offset\nvalues = 0.1\n"
        )
        path = write_config(tmp_path, text)
        assert main([str(path), "-o", str(tmp_path / "out"), "--set", "observer.pieces=0.6,0.7,x,1"]) == 2

    @pytest.mark.parametrize("config", ["criterion02_conservation", "criterion04_gramian_interior"])
    def test_non_finite_horizon_exits_2(self, tmp_path, config):
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", "grid.horizon=nan"]) == 2
        assert not list(out.glob("*.csv"))


    @pytest.mark.parametrize(
        "config, override",
        [("criterion06_audit", "audit.samples=0"), ("criterion10_converse", "insensitize.perturbations=0")],
    )
    def test_empty_certificate_pool_exits_2(self, tmp_path, config, override):
        out = tmp_path / "out"
        assert main([f"{CONFIG_DIR}/{config}.ini", "-o", str(out), "--set", override]) == 2
        assert not list(out.glob("*"))

    @pytest.mark.parametrize(
        "config, overrides, key",
        [
            ("criterion08_hum_interior", ["source.kind=separable", "source.amplitude=nan"], "amplitude"),
            ("criterion09_insensitize_interior", ["source.frequency=inf"], "frequency"),
        ],
    )
    def test_non_finite_source_exits_2_naming_the_key(self, tmp_path, capsys, config, overrides, key):
        args = [f"{CONFIG_DIR}/{config}.ini", "-o", str(tmp_path / "out")]
        for override in overrides:
            args += ["--set", override]
        assert main(args) == 2
        (line,) = capsys.readouterr().out.splitlines()
        assert line.startswith("configuration error: [source] ") and key in line


class TestRunKinds:
    def test_simulate_zero_data_writes_zero_energies(self, tmp_path):
        text = MINIMAL_SIMULATE + "\n[data]\nkind = zero\n"
        config = parse_config(write_config(tmp_path, text))
        result = run(config, tmp_path / "out")
        assert result.status == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().strip().splitlines()
        assert lines[0] == "t,e1_u1,e0_u1,e1_u2,e0_u2,obs_norm_sq"
        for line in lines[1:]:
            assert [float(v) for v in line.split(",")[1:]] == [0.0] * 5

    def test_gramian_decoupled_expected_negative(self, tmp_path):
        result_code = main([f"{CONFIG_DIR}/criterion05_decoupled.ini", "-o", str(tmp_path / "g")])
        assert result_code == 0  # the config declares expect = fail
        report = (tmp_path / "g" / "gramian_report.csv").read_text().splitlines()
        values = dict(zip(report[0].split(","), report[1].split(",")))
        assert float(values["min_eig_u1block"]) <= 1e-10

    def test_expect_fail_flag_inverts_passing_run(self, tmp_path):
        path = write_config(tmp_path, MINIMAL_SIMULATE)
        assert main([str(path), "-o", str(tmp_path / "a")]) == 0
        assert main([str(path), "-o", str(tmp_path / "b"), "--expect-fail"]) == 1

    def test_cg_stall_exits_1_with_one_line(self, tmp_path, capsys):
        code = main([
            f"{CONFIG_DIR}/criterion08_hum_interior.ini",
            "-o",
            str(tmp_path / "hum"),
            "--set",
            "hum.max_iterations=3",
        ])
        assert code == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "status 1"
        assert lines[1].startswith("  [FAIL] convergence: conjugate gradient stalled")
        assert len(lines) == 2

    def test_config_error_exit_code(self, tmp_path):
        assert main([str(tmp_path / "missing.ini")]) == 2

    def test_sweep_empty_axis_writes_empty_table(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("kind = simulate", "kind = sweep") + (
            "\n[sweep]\naxis = horizon\nvalues =\n"
        )
        config = parse_config(write_config(tmp_path, text))
        result = run(config, tmp_path / "out")
        assert result.status == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 1  # header only

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

[hum]
cg_tolerance = 1e-10
max_iterations = 500
"""
        config = parse_config(write_config(tmp_path, text))
        result = run(config, tmp_path / "out")
        assert result.status == 0
        control = (tmp_path / "out" / "control.csv").read_text().splitlines()
        assert control[0] == "t,x,v"
        manifest = (tmp_path / "out" / "manifest.txt").read_text()
        assert "terminal_total" in manifest

    def test_region_offset_sweep(self, tmp_path):
        text = MINIMAL_SIMULATE.replace("kind = simulate", "kind = sweep") + (
            "\n[grid]\nhorizon = 4.0\n\n[sweep]\naxis = region_offset\nvalues = 0.0, 0.1\n"
            "\n[checks]\nensemble = 4\n"
        )
        # drop the duplicate short-horizon grid block from the template
        text = text.replace("[grid]\nhorizon = 1.0\nn_steps = 128\n", "", 1)
        config = parse_config(write_config(tmp_path, text))
        result = run(config, tmp_path / "out")
        assert result.status == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().strip().splitlines()
        assert len(lines) == 3  # header + two offsets

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

    def test_audit_check_fails_when_any_sample_fails(self, tmp_path, monkeypatch, capsys):
        # the worst-margin sample holds against its large scale, while a
        # small-scale sample with a milder margin fails against its own
        from wavecascade import runner
        from wavecascade.observability import _row

        def two_samples(*args, **kwargs):
            return [
                [_row("crafted_bound", 1.0, 1.0 - 1e-6, True, 1e4)],
                [_row("crafted_bound", 1e-9, 0.0, True, 1e-9)],
            ]

        monkeypatch.setattr(runner, "inequality_chain_audit", two_samples)
        code = main([
            f"{CONFIG_DIR}/criterion06_audit.ini",
            "-o",
            str(tmp_path / "audit"),
            "--set",
            "spectral.n_modes=4",
            "--set",
            "audit.ensemble=2",
            "--set",
            "audit.samples=2",
        ])
        assert code == 1
        out = capsys.readouterr().out
        assert "[FAIL] crafted_bound: lhs 1.0000e+00" in out
        assert "fails on 1 of 2 samples" in out
        ledger = (tmp_path / "audit" / "audit_ledger.csv").read_text().splitlines()
        assert ledger[1].startswith("crafted_bound,1,0.99999899999999997,")


class TestDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        for label in ("one", "two"):
            code = main([f"{CONFIG_DIR}/criterion11_determinism.ini", "-o", str(tmp_path / label)])
            assert code == 0
        first = (tmp_path / "one" / "trajectory.csv").read_bytes()
        second = (tmp_path / "two" / "trajectory.csv").read_bytes()
        assert first == second

    def test_different_seed_changes_bytes(self, tmp_path):
        base = [f"{CONFIG_DIR}/criterion11_determinism.ini"]
        main(base + ["-o", str(tmp_path / "a")])
        main(base + ["-o", str(tmp_path / "b"), "--set", "experiment.seed=124"])
        assert (tmp_path / "a" / "trajectory.csv").read_bytes() != (
            tmp_path / "b" / "trajectory.csv"
        ).read_bytes()
