import json

import numpy as np
import pytest

import dampedwave as dw
from dampedwave import cli
from dampedwave import config as cfg
from dampedwave.errors import ConfigError

from helpers import LINEAR_DEMO_CFG, reference_spec


class TestConfigParsing:
    def test_round_trip_linear(self):
        spec = cfg.parse_config(LINEAR_DEMO_CFG)
        assert cfg.parse_config(cfg.emit_config(spec)) == spec

    def test_round_trip_variants(self):
        specs = [
            reference_spec(),
            cfg.RunSpec(
                grid=cfg.GridSpec(mode="auto", dx=0.05, padding=2.0),
                potential=cfg.PotentialSpec(family="gaussian", V0=0.02, nu=0.5,
                                            beta=None, L=None),
                damping=cfg.DampingSpec(family="plateau", eps1=0.5, L=2.0, ramp="smooth"),
                data=cfg.DataSpec(
                    u0=cfg.FieldSpec("bump", 0.1, 1.5, 0.25),
                    u1=cfg.FieldSpec("gaussian", 1e-3, 1.0, 0.0),
                    support_radius=4.0),
                time=cfg.TimeSpec(t_end=12.5, cfl=0.8, record_every=5),
                nonlinearity=cfg.NonlinearitySpec(kind="power", p=11.0),
            ),
            cfg.RunSpec(
                grid=cfg.GridSpec(mode="auto", dx=0.02, padding=3.0),
                potential=cfg.PotentialSpec(family="none", V0=None, beta=None,
                                            nu=None, L=None),
                damping=cfg.DampingSpec(family="none", eps1=None, L=None),
                data=cfg.DataSpec(u1=cfg.FieldSpec("gaussian", 1e-3, 1.0, 0.0)),
                time=cfg.TimeSpec(t_end=5.0),
            ),
        ]
        for spec in specs:
            assert cfg.parse_config(cfg.emit_config(spec)) == spec

    def test_missing_section_named(self):
        broken = LINEAR_DEMO_CFG.replace("[damping]", "[dampink]")
        with pytest.raises(ConfigError, match=r"damping"):
            cfg.parse_config(broken)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys"):
            cfg.parse_config(LINEAR_DEMO_CFG.replace("cfl = 0.9", "cfl = 0.9\nturbo = yes"))

    def test_bad_number_reports_section_and_key(self):
        with pytest.raises(ConfigError, match=r"\[time\] t_end"):
            cfg.parse_config(LINEAR_DEMO_CFG.replace("t_end = 30.0", "t_end = soon"))

    def test_nonfinite_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            cfg.parse_config(LINEAR_DEMO_CFG.replace("u0_amplitude = 0.001",
                                                     "u0_amplitude = nan"))

    def test_mismatched_core_radii_rejected(self):
        spec = cfg.parse_config(LINEAR_DEMO_CFG.replace("L = 1.0\nramp", "L = 2.0\nramp"))
        with pytest.raises(ConfigError, match="must agree"):
            cfg.build_problem(spec)

    def test_auto_grid_sizing(self):
        spec = cfg.parse_config(LINEAR_DEMO_CFG.replace(
            "mode = explicit\nx_min = -60.0\nx_max = 60.0\nn_cells = 3000",
            "mode = auto\ndx = 0.05\npadding = 2.0"))
        grid, profile, data = cfg.build_problem(spec)
        # domain sized from the analytic truncation radius; the grid-inferred
        # support can sit up to one cell inside it
        gap = grid.x_max - (data.support_radius + 30.0 + 2.0)
        assert 0.0 <= gap <= 2 * grid.dx


@pytest.fixture()
def demo_config(tmp_path):
    path = tmp_path / "demo.cfg"
    path.write_text(LINEAR_DEMO_CFG)
    return path


class TestCli:
    def test_validate_ok(self, demo_config, capsys):
        assert cli.main(["validate", str(demo_config)]) == 0
        out = capsys.readouterr().out
        assert "smallness_V0" in out and "pass" in out

    def test_validate_json_payload(self, demo_config, capsys):
        assert cli.main(["validate", str(demo_config), "--json"]) == 0
        out = capsys.readouterr().out
        payload = json.loads(out.strip().splitlines()[-1])
        assert payload["passed"] is True
        assert payload["c_star"] > 0

    def test_validate_rejects_shallow_decay(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(LINEAR_DEMO_CFG.replace("beta = 2.0", "beta = 0.5"))
        assert cli.main(["validate", str(path)]) == 2

    def test_validate_missing_section(self, tmp_path):
        path = tmp_path / "broken.cfg"
        path.write_text(LINEAR_DEMO_CFG.replace("[damping]", "[dampink]"))
        assert cli.main(["validate", str(path)]) == 2

    def test_run_emits_schema_and_manifest(self, demo_config, tmp_path, capsys):
        out = tmp_path / "out"
        assert cli.main(["run", str(demo_config), "--out", str(out)]) == 0
        csv_path = out / "demo.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header == ("t,E_u,l2_u,l2_local,dissipation_cum,G_k,"
                          "identity_residual,lemma25_residual,lemma25_ratio,au2_cum")
        manifest = json.loads((out / "demo.manifest.json").read_text())
        assert manifest["termination"]["kind"] == "completed"
        assert manifest["files"]["csv"] == "demo.csv"
        assert manifest["derived_constants"]["k"] > 2.0
        assert len(manifest["config_hash"]) == 64

    def test_reruns_are_byte_identical(self, demo_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(demo_config), "--out", str(out1)]) == 0
        assert cli.main(["run", str(demo_config), "--out", str(out2)]) == 0
        assert (out1 / "demo.csv").read_bytes() == (out2 / "demo.csv").read_bytes()

    def test_env_var_output_dir(self, demo_config, tmp_path, monkeypatch):
        monkeypatch.setenv("DAMPEDWAVE_OUT", str(tmp_path / "envout"))
        assert cli.main(["run", str(demo_config)]) == 0
        assert (tmp_path / "envout" / "demo.csv").exists()

    def test_semilinear_blowup_reported_not_fatal(self, tmp_path):
        text = LINEAR_DEMO_CFG.replace(
            "kind = none", "kind = power\np = 2.0").replace(
            "u0_amplitude = 0.001", "u0_amplitude = 4.0").replace(
            "t_end = 30.0", "t_end = 20.0")
        path = tmp_path / "blow.cfg"
        path.write_text(text)
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "blow.manifest.json").read_text())
        assert manifest["termination"]["kind"] == "blowup"
        assert manifest["termination"]["time"] > 0

    def test_instability_exit_code(self, demo_config, tmp_path, monkeypatch):
        from dampedwave import runner, solver

        real_execute = runner.execute

        def broken_execute(*args, **kwargs):
            lab = real_execute(*args, **kwargs)
            lab.result.termination = solver.Termination(solver.INSTABILITY, 1.0)
            return lab

        monkeypatch.setattr(cli.runner, "execute", broken_execute)
        assert cli.main(["run", str(demo_config), "--out", str(tmp_path)]) == 3

    def test_fit_subcommand(self, demo_config, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["run", str(demo_config), "--out", str(out)])
        capsys.readouterr()
        code = cli.main(["fit", str(out / "demo.manifest.json"),
                         "--quantity", "E_u", "--window", "5", "30"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("quantity,")
        exponent = float(lines[1].split(",")[3])
        assert exponent < -0.9

    def test_poincare_subcommand_matches_api(self, capsys):
        assert cli.main(["poincare", "--L", "1.0", "--domain", "40", "--nodes", "512"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "L,c_star,lambda_min,residual"
        c_csv = float(lines[1].split(",")[1])
        expected = dw.estimate_c_star(dw.poincare_problem(dw.Grid(-40.0, 40.0, 512), 1.0))
        assert c_csv == pytest.approx(expected.c_star, rel=1e-12)

    def test_sweep_subcommand(self, tmp_path, capsys):
        code = cli.main(["sweep", "--beta", "2", "--p", "2,11", "--i0", "1e-4,20",
                         "--t-end", "10", "--dx", "0.1", "--workers", "1",
                         "--out", str(tmp_path), "--name", "sw"])
        assert code == 0
        lines = (tmp_path / "sw.csv").read_text().strip().splitlines()
        assert lines[0].startswith("p\\I0,")
        assert len(lines) == 3
        manifest = json.loads((tmp_path / "sw.manifest.json").read_text())
        assert manifest["p_critical"] == 9.0

    @pytest.mark.parametrize("extra", [["--L", "10"], ["--dx", "0"]])
    def test_sweep_invalid_for_every_cell_exits_2(self, extra, tmp_path, capsys):
        code = cli.main(["sweep", "--p", "11", "--i0", "1e-3", "--t-end", "5", *extra,
                         "--workers", "1", "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert "invalid sweep configuration: " in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_fit_all_nan_column_exits_1(self, tmp_path, capsys):
        rows = [",".join(cli.CSV_COLUMNS)]
        for t in np.linspace(0.0, 40.0, 41):
            values = {name: 1.0 / (1.0 + t) for name in cli.CSV_COLUMNS}
            values.update(t=t, G_k=float("nan"))
            rows.append(",".join(cli._fmt(values[name]) for name in cli.CSV_COLUMNS))
        path = tmp_path / "fw.csv"
        path.write_text("\n".join(rows) + "\n")
        assert cli.main(["fit", str(path), "--quantity", "G_k", "--window", "10", "30"]) == 1
        assert capsys.readouterr().out == ""

    def test_fit_negative_value_exits_1(self, tmp_path, capsys):
        rows = [",".join(cli.CSV_COLUMNS)]
        for t in np.linspace(0.0, 40.0, 41):
            values = {name: 1.0 / (1.0 + t) for name in cli.CSV_COLUMNS}
            values.update(t=t)
            if t == 20.0:
                values.update(E_u=-1e-3)
            rows.append(",".join(cli._fmt(values[name]) for name in cli.CSV_COLUMNS))
        path = tmp_path / "neg.csv"
        path.write_text("\n".join(rows) + "\n")
        assert cli.main(["fit", str(path), "--quantity", "E_u", "--window", "10", "30"]) == 1
        assert capsys.readouterr().out == ""

    def test_plot_generates_four_panels(self, demo_config, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["run", str(demo_config), "--out", str(out)])
        assert cli.main(["plot", str(out / "demo.manifest.json")]) == 0
        script = (out / "demo.plot.py").read_text()
        for marker in ("energy decay", "solution norm", "multiplier functional",
                       "identity residuals"):
            assert marker in script

    def test_plot_free_wave_has_slope_guide(self, tmp_path):
        text = LINEAR_DEMO_CFG.replace(
            "family = example1\nV0 = 0.01\nbeta = 2.0\nL = 1.0", "family = none").replace(
            "family = plateau\neps1 = 1.0\nL = 1.0\nramp = sharp", "family = none").replace(
            "u0_kind = gaussian", "u0_kind = zero").replace(
            "u1_kind = zero", "u1_kind = gaussian\nu1_amplitude = 0.001\nu1_width = 1.0")
        path = tmp_path / "free.cfg"
        path.write_text(text)
        out = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out)]) == 0
        assert cli.main(["plot", str(out / "free.manifest.json")]) == 0
        script = (out / "free.plot.py").read_text()
        assert "slope-1 guide" in script and "FREE_WAVE = True" in script

    def test_plot_refuses_empty_series(self, tmp_path):
        (tmp_path / "empty.csv").write_text(",".join(cli.CSV_COLUMNS) + "\n")
        manifest = {"files": {"csv": "empty.csv"}, "coefficients": {}}
        mpath = tmp_path / "empty.manifest.json"
        mpath.write_text(json.dumps(manifest))
        assert cli.main(["plot", str(mpath)]) == 1

    def test_missing_config_file(self):
        assert cli.main(["run", "/nonexistent/path.cfg"]) == 1
