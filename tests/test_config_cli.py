import errno
import hashlib
import json
import math
import os
import re
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings

import dampedwave as dw
from dampedwave import analysis, cli, runner
from dampedwave import config as cfg
from dampedwave.errors import ConfigError

from helpers import CONFIGS, LINEAR_DEMO_CFG, centred_specs, reference_spec


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

    def test_emitted_text_is_canonical(self):
        full_data = ("u0_center = 0.0\nu1_kind = zero\nu1_amplitude = 0.0\n"
                     "u1_width = 1.0\nu1_center = 0.0\n")
        assert (cfg.emit_config(cfg.parse_config(LINEAR_DEMO_CFG))
                == LINEAR_DEMO_CFG.replace("u1_kind = zero\n", full_data))

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(spec=centred_specs())
    def test_round_trip_property(self, spec):
        assert cfg.check_spec(spec) is spec
        assert cfg.parse_config(cfg.emit_config(spec)) == spec

    @pytest.mark.parametrize("path", CONFIGS, ids=[p.stem for p in CONFIGS])
    def test_committed_configs_round_trip(self, path):
        spec, _raw = cfg.load_config(str(path))
        assert cfg.parse_config(cfg.emit_config(spec)) == spec

    def test_numpy_scalars_emit_as_plain_numbers(self):
        spec = reference_spec()
        spec = replace(spec, potential=replace(spec.potential, V0=np.float64(0.01)),
                       grid=replace(spec.grid, n_cells=np.int64(6000)))
        assert "V0 = 0.01\n" in cfg.emit_config(spec)
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
        # check_spec names it, so text, emitted text and a hand-built spec
        # all fail alike
        text = LINEAR_DEMO_CFG.replace("L = 1.0\nramp", "L = 2.0\nramp")
        assert text != LINEAR_DEMO_CFG
        with pytest.raises(ConfigError, match="must agree"):
            cfg.parse_config(text)
        spec = cfg.parse_config(LINEAR_DEMO_CFG)
        spec = replace(spec, damping=replace(spec.damping, L=2.0))
        with pytest.raises(ConfigError, match="must agree"):
            cfg.emit_config(spec)
        with pytest.raises(ConfigError, match="must agree"):
            cfg.build_problem(spec)

    @pytest.mark.parametrize("path, key", [
        ("grid.dx", "[grid] dx"), ("time.t_end", "[time] t_end"),
        ("potential.V0", "[potential] V0"), ("data.u0.width", "[data] u0_width"),
    ])
    def test_non_finite_hand_built_spec_named(self, path, key):
        def with_nan(node, names):
            value = math.nan if len(names) == 1 else with_nan(getattr(node, names[0]),
                                                              names[1:])
            return replace(node, **{names[0]: value})
        spec = replace(reference_spec(), grid=cfg.GridSpec(mode="auto", dx=0.05))
        spec = with_nan(spec, path.split("."))
        with pytest.raises(ConfigError, match=re.escape(f"{key} must be finite, got nan")):
            cfg.build_problem(spec)

    @pytest.mark.parametrize("key, change", [
        ("[data] u0_kind", lambda s: replace(s, data=replace(s.data, u0=cfg.FieldSpec("foo")))),
        ("[potential] family", lambda s: replace(s, potential=cfg.PotentialSpec("foo"))),
        ("[grid] mode", lambda s: replace(s, grid=cfg.GridSpec(mode="foo"))),
        ("[damping] ramp", lambda s: replace(s, damping=replace(s.damping, ramp="foo"))),
        ("[data] support_radius",
         lambda s: replace(s, data=replace(s.data, support_radius=-1.0))),
        ("[grid] n_cells", lambda s: replace(s, grid=replace(s.grid, n_cells=600.5))),
        ("[potential] beta is required",
         lambda s: replace(s, potential=replace(s.potential, beta=None))),
        ("[time] cfl", lambda s: replace(s, time=replace(s.time, cfl=1.5))),
        ("[time] record_every", lambda s: replace(s, time=replace(s.time, record_every=0))),
        ("[data] u0_width",
         lambda s: replace(s, data=replace(s.data, u0=replace(s.data.u0, width=-1.0)))),
        ("[potential] L", lambda s: replace(s, potential=cfg.PotentialSpec(
            "gaussian", V0=0.01, nu=1.0, L=2.0), damping=cfg.DampingSpec("none"))),
        ("[time] t_end must be positive",
         lambda s: replace(s, time=replace(s.time, t_end=-1.0))),
    ], ids=["kind", "family", "mode", "ramp", "support_radius", "n_cells", "beta", "cfl",
            "record_every", "width", "key_outside_variant", "t_end"])
    def test_bad_hand_built_spec_named(self, key, change):
        spec = change(reference_spec(n_cells=600, t_end=1.0))
        for build in (cfg.build_problem, cfg.emit_config):
            with pytest.raises(ConfigError, match=re.escape(key)):
                build(spec)

    def test_auto_grid_sizing(self):
        spec = cfg.parse_config(LINEAR_DEMO_CFG.replace(
            "mode = explicit\nx_min = -60.0\nx_max = 60.0\nn_cells = 3000",
            "mode = auto\ndx = 0.05\npadding = 2.0"))
        profile, data = cfg.build_problem(spec)
        grid = profile.grid
        # domain sized from the analytic truncation radius; the grid-inferred
        # support can sit up to one cell inside it
        gap = grid.x_max - (data.support_radius + 30.0 + 2.0)
        assert 0.0 <= gap <= 2 * grid.dx


def edited_config(tmp_path, stem, **values):
    """configs/<stem>.cfg with its one `key = ...` line set to value for each
    key, in tmp_path."""
    text = next(path for path in CONFIGS if path.stem == stem).read_text()
    for key, value in values.items():
        text, count = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        assert count == 1
    path = tmp_path / f"{stem}.cfg"
    path.write_text(text)
    return path


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
        assert payload["c_star_continuum"] == dw.c_star_continuum(1.0)
        assert re.search(r"(?m)^C\*_continuum\s+1\.35103388688$", out)

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
        assert manifest["config_hash"] == hashlib.sha256(demo_config.read_bytes()).hexdigest()
        assert manifest["time"]["mirrored"] is True  # centred data on [-60, 60]
        assert manifest["time"]["forcing_skipped_steps"] is None  # a linear run

    @pytest.mark.parametrize("amplitude", ["0.00012", "1.2"])
    def test_manifest_counts_the_steps_without_forcing(self, amplitude, tmp_path):
        # small data skip |u|^p after first(); large data keep it throughout
        config = edited_config(tmp_path, "semilinear_demo", t_end="5.0",
                               u0_amplitude=amplitude)
        assert cli.main(["run", str(config), "--out", str(tmp_path)]) == 0
        time = json.loads((tmp_path / "semilinear_demo.manifest.json").read_text())["time"]
        expected = {"0.00012": time["n_steps"] - 1, "1.2": 0}[amplitude]
        assert time["forcing_skipped_steps"] == expected

    def test_reruns_are_byte_identical(self, demo_config, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(demo_config), "--out", str(out1)]) == 0
        assert cli.main(["run", str(demo_config), "--out", str(out2)]) == 0
        assert (out1 / "demo.csv").read_bytes() == (out2 / "demo.csv").read_bytes()

    def test_manifest_reports_c_star_solve_and_reruns_byte_identical(self, demo_config,
                                                                         tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", str(demo_config), "--out", str(out1)]) == 0
        assert cli.main(["run", str(demo_config), "--out", str(out2)]) == 0
        raw = (out1 / "demo.manifest.json").read_bytes()
        assert raw == (out2 / "demo.manifest.json").read_bytes()
        derived = json.loads(raw)["derived_constants"]
        assert derived["c_star_iterations"] >= 1
        assert 0.0 <= derived["c_star_residual"] <= 1e-10
        assert 0.0 <= derived["c_star_edge_tail"] < 1e-3
        assert derived["c_star_continuum"] == dw.c_star_continuum(1.0)

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

    @pytest.mark.parametrize("option, value", [
        ("--L", "nan"), ("--L", "inf"), ("--domain", "inf"), ("--domain", "nan"),
    ])
    def test_poincare_invalid_float_exits_2(self, option, value, capsys):
        args = {"--L": "1.0", "--domain": "40", option: value}
        argv = ["poincare", "--nodes", "64"] + [x for kv in args.items() for x in kv]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"invalid poincare input: {option}")

    @pytest.mark.parametrize("argv", [
        ["--nodes", "1", "--L", "1", "--domain", "5"],
        ["--nodes", "3", "--L", "1", "--domain", "5"],
        ["--domain", "-5", "--L", "1", "--nodes", "64"],
        ["--L", "0", "--domain", "5", "--nodes", "64"],
        ["--L", "10", "--domain", "5", "--nodes", "64"],
    ], ids=["one-cell", "no-inner-mass", "negative-domain", "zero-L", "L-beyond-domain"])
    def test_poincare_invalid_configuration_exits_2(self, argv, capsys):
        assert cli.main(["poincare", *argv]) == cli.EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("invalid poincare input: ")

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_sweep_workers_below_one_exits_2(self, workers, tmp_path, capsys):
        code = cli.main(["sweep", "--p", "11", "--i0", "1e-3", "--t-end", "5",
                         "--workers", workers, "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert "invalid sweep configuration: workers must be >= 1" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

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

    def test_sweep_csv_is_unchanged(self, tmp_path):
        # pinned outcome tokens: the way cells are built must not move them
        argv = ["sweep", "--p", "3,11", "--i0", "1,30", "--dx", "0.05", "--t-end", "5",
                "--workers", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        assert (tmp_path / "sweep.csv").read_bytes() == (
            b"p\\I0,1,30\n3,bounded,blowup(t=0.416667)\n11,bounded,blowup(t=0.0833333)\n")

    def test_sweep_manifest_holds_its_base_spec(self, tmp_path, monkeypatch):
        bases = []
        sweep = analysis.semilinear_sweep
        monkeypatch.setattr(analysis, "semilinear_sweep",
                            lambda spec, *a, **k: bases.append(spec) or sweep(spec, *a, **k))
        argv = ["sweep", "--beta", "3", "--V0", "0.02", "--L", "1.5", "--eps1", "0.5",
                "--p", "11", "--i0", "1e-3", "--t-end", "3", "--dx", "0.1",
                "--workers", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        base = cfg.parse_config(manifest["base_config"])
        assert bases == [base]
        assert (base.potential.beta, base.potential.V0, base.damping.L, base.damping.eps1,
                base.time.t_end, base.grid.dx) == (3.0, 0.02, 1.5, 0.5, 3.0, 0.1)

    @pytest.mark.parametrize("extra", [["--L", "10"], ["--dx", "0"], ["--p", "nan"],
                                       ["--i0", "1e-3,inf"], ["--p", "11,-inf"],
                                       ["--beta", "nan"], ["--L", "nan"], ["--dx", "nan"],
                                       ["--t-end", "inf"], ["--V0", "nan"], ["--eps1", "inf"],
                                       ["--p", "3,11", "--i0", "1", "--t-end", "1e-170"],
                                       ["--L", "1e-100"], ["--beta", "1000", "--L", "2"]])
    def test_sweep_invalid_for_every_cell_exits_2(self, extra, tmp_path, capsys):
        code = cli.main(["sweep", "--p", "11", "--i0", "1e-3", "--t-end", "5", *extra,
                         "--workers", "1", "--out", str(tmp_path)])
        assert code == cli.EXIT_VALIDATION
        assert "invalid sweep configuration: " in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_fit_l2_u_sq_matches_fit_decay(self, demo_config, tmp_path, capsys):
        # the CLI reads ||u||^2 from the CSV through the lookup fit_decay uses
        out = tmp_path / "out"
        assert cli.main(["run", str(demo_config), "--out", str(out)]) == 0
        capsys.readouterr()
        assert cli.main(["fit", str(out / "demo.csv"), "--quantity", "l2_u_sq",
                         "--window", "5", "30"]) == 0
        printed = capsys.readouterr().out.strip().splitlines()[1].split(",")
        spec, _raw = cfg.load_config(str(demo_config))
        profile, data = cfg.build_problem(spec)
        lab = runner.execute(cfg.run_config_from_spec(spec, profile, data))
        fit = dw.fit_decay(lab.result.records, "l2_u_sq", (5.0, 30.0))
        assert float(printed[3]) == fit.exponent

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

    @pytest.mark.filterwarnings("error")
    def test_fit_header_only_csv_exits_1_without_a_warning(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(",".join(cli.CSV_COLUMNS) + "\n")
        assert cli.main(["fit", str(path), "--quantity", "E_u",
                         "--window", "0", "10"]) == cli.EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "cannot fit: window [0.0, 10.0] holds 0 records; need 10\n"

    @pytest.mark.parametrize("rate", ["nan", "inf"])
    def test_fit_non_finite_claimed_rate_exits_1(self, rate, tmp_path, capsys):
        (tmp_path / "run.csv").write_text(
            "t,E_u\n" + "".join(f"{t},{1.0 / (1.0 + t)}\n" for t in range(40)))
        manifest = tmp_path / "run.manifest.json"
        manifest.write_text(json.dumps({"files": {"csv": "run.csv"}}))
        assert cli.main(["fit", str(manifest), "--claimed-rate", rate]) == cli.EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("cannot fit: claimed rate must be finite")

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

    def test_missing_config_file(self):
        assert cli.main(["run", "/nonexistent/path.cfg"]) == 1

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_grid_too_large_to_allocate_exits_1(self, command, demo_config, tmp_path,
                                                monkeypatch, capsys):
        # stands in for a dx = 1e-9 grid, without allocating anything
        def too_large(spec):
            raise MemoryError("Unable to allocate 1.57 TiB for an array")
        monkeypatch.setattr(cfg, "build_problem", too_large)
        argv = {"validate": ["validate", str(demo_config)],
                "run": ["run", str(demo_config), "--out", str(tmp_path)],
                "sweep": ["sweep", "--p", "3", "--i0", "1", "--workers", "1",
                          "--out", str(tmp_path)]}[command]
        assert cli.main(argv) == cli.EXIT_ERROR
        out = capsys.readouterr()
        assert out.err == "cannot allocate: Unable to allocate 1.57 TiB for an array\n"
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["validate", "run", "sweep", "poincare"])
    def test_grid_numpy_cannot_address_exits_2(self, command, tmp_path, capsys):
        config = edited_config(tmp_path, "semilinear_demo", dx="1e-300")
        argv = {"validate": ["validate", str(config)],
                "run": ["run", str(config), "--out", str(tmp_path)],
                "sweep": ["sweep", "--p", "3", "--i0", "1", "--dx", "1e-300",
                          "--out", str(tmp_path)],
                "poincare": ["poincare", "--L", "1", "--domain", "10",
                             "--nodes", str(10**20)]}[command]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        out = capsys.readouterr()
        lines = (out.out + out.err).splitlines()
        assert len(lines) == 1 and "more nodes than numpy can address" in lines[0]
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("domain, message", [
        ("1e308", "grid [-1e+308, 1e+308] is wider than a float"),
        ("1e155", "C* is out of float range"), ("1e200", "C* is out of float range")])
    def test_poincare_beyond_float_range_exits_2(self, domain, message, capsys):
        argv = ["poincare", "--L", "1", "--domain", domain, "--nodes", "10"]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith(f"invalid poincare input: {message}")
        assert out.err.count("\n") == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t_end", ["1e-170", "1e-150"])
    def test_run_t_end_far_below_the_cfl_step_exits_2(self, t_end, tmp_path, capsys):
        config = edited_config(tmp_path, "linear_demo", t_end=t_end)
        assert cli.main(["run", str(config), "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        err = capsys.readouterr().err
        assert err.startswith(f"invalid run configuration: t_end = {t_end} is below 1e-08 "
                              "of the CFL step")
        assert err.count("\n") == 1
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.parametrize("edits, message", [
        ({"p": "0.5"}, "power nonlinearity needs p > 1"),
        ({"p": "1.0"}, "power nonlinearity needs p > 1"),
        ({"u0_kind": "bump", "u0_width": "0.5"},
         "semilinear runs require support radius R > L"),
        ({"t_end": "1e-150"}, "t_end = 1e-150 is below 1e-08 of the CFL step"),
        ({"u0_width": "1e-300"}, "gaussian bump needs width > 0 and 2 width^2 in float range")],
        ids=["p=0.5", "p=1", "bump_inside_core", "t_end=1e-150", "width=1e-300"])
    def test_validate_refuses_what_run_refuses(self, edits, message, tmp_path, capsys):
        config = edited_config(tmp_path, "semilinear_demo", **edits)
        assert cli.main(["validate", str(config)]) == cli.EXIT_VALIDATION
        validated = capsys.readouterr()
        assert cli.main(["run", str(config), "--out", str(tmp_path)]) == cli.EXIT_VALIDATION
        ran = capsys.readouterr()
        assert ran.err.startswith(f"invalid run configuration: {message}")
        assert validated.out == "INVALID: " + ran.err.removeprefix("invalid run configuration: ")
        assert list(tmp_path.glob("*.csv")) == []

    @pytest.mark.filterwarnings("error")
    def test_data_norms_beyond_float_range_exit_2(self, tmp_path, capsys):
        # data far below the blowup threshold whose (u1 + a u0)^2 / V
        # overflows where V ~ 1e-300: refused before --out is made
        config = edited_config(tmp_path, "linear_demo", V0="1e-300", u0_amplitude="1e5")
        message = "initial data's weighted_norm needs its square in float range, got inf\n"
        out = tmp_path / "out"
        assert cli.main(["validate", str(config)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().out == f"INVALID: {message}"
        assert cli.main(["run", str(config), "--out", str(out)]) == cli.EXIT_VALIDATION
        assert capsys.readouterr().err == f"invalid run configuration: {message}"
        assert not out.exists()

    def test_data_beyond_the_blowup_threshold_exits_2(self, tmp_path, capsys):
        # level 0 is never screened: such data would stop the march at once;
        # u1 is screened by the same rule as u0
        messages = {
            "initial data max|u0| = 1e+09 exceeds the blowup threshold 1e+08\n":
                {"u0_amplitude": "1e9"},
            "initial data max|u1| = 1e+12 exceeds the blowup threshold 1e+08\n":
                {"u1_kind": "gaussian\nu1_amplitude = 1e12\nu1_width = 1.5"}}
        out = tmp_path / "out"
        for message, edits in messages.items():
            config = edited_config(tmp_path, "linear_demo", **edits)
            assert cli.main(["validate", str(config)]) == cli.EXIT_VALIDATION
            assert capsys.readouterr().out == f"INVALID: {message}"
            assert cli.main(["run", str(config), "--out", str(out)]) == cli.EXIT_VALIDATION
            assert capsys.readouterr().err == f"invalid run configuration: {message}"
            assert not out.exists()
        argv = ["sweep", "--p", "3", "--i0", "1,1e12", "--dx", "0.1", "--t-end", "2",
                "--workers", "1", "--out", str(tmp_path)]
        assert cli.main(argv) == cli.EXIT_OK
        assert (tmp_path / "sweep.csv").read_text() == (
            "p\\I0,1,1000000000000\n3,bounded,error(ConfigError)\n")

    @pytest.mark.filterwarnings("error::RuntimeWarning",
                                "ignore:overflow encountered in square:RuntimeWarning")
    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_cfl_step_that_rounds_to_0_exits_2(self, command, tmp_path, capsys):
        # max(V) dx^2 overflows, so the CFL step is 0; of the samplers only
        # gaussian_bump warns, as x^2 overflows where exp(-x^2 / 2w^2) would
        # not (a real loss of value)
        config = edited_config(tmp_path, "linear_demo", x_min="-1e160", x_max="1e160",
                               n_cells="4")
        out = tmp_path / "out"
        argv, dx = {"validate": (["validate", str(config)], "5e+159"),
                    "run": (["run", str(config), "--out", str(out)], "5e+159"),
                    "sweep": (["sweep", "--p", "3", "--i0", "1", "--dx", "1e200",
                               "--t-end", "1e200", "--workers", "1", "--out", str(out)],
                              "1e+200")}[command]
        assert cli.main(argv) == cli.EXIT_VALIDATION
        printed = capsys.readouterr()
        assert (printed.out + printed.err).endswith(
            f"the CFL step rounds to 0: dx = {dx} with max V = 0.02\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_output_dir_is_checked_before_the_march(self, command, demo_config, tmp_path,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(cli.solver, "run", lambda *a, **k: pytest.fail("marched"))
        taken = tmp_path / "taken"
        taken.write_text("")
        argv = {"run": ["run", str(demo_config)],
                "sweep": ["sweep", "--p", "3", "--i0", "1", "--dx", "0.1", "--t-end", "2",
                          "--workers", "1"]}[command]
        assert cli.main([*argv, "--out", str(taken)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err == f"cannot access {taken}: File exists\n"

    def test_closed_stdout_exits_1_quietly(self, demo_config, tmp_path, monkeypatch, capsys):
        # `dampedwave validate --json cfg | head -c 10`: the reader leaves
        # early, so writes to stdout raise BrokenPipeError
        sink = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)

        class ClosedPipe:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

            def flush(self):
                pass

            def fileno(self):
                return sink

        monkeypatch.setattr(sys, "stdout", ClosedPipe())
        try:
            assert cli.main(["validate", str(demo_config), "--json"]) == cli.EXIT_ERROR
            # stdout now writes to the null device, so exit cannot raise again
            assert os.path.samestat(os.fstat(sink), os.stat(os.devnull))
        finally:
            os.close(sink)
        assert capsys.readouterr().err == ""


class TestUnreadableInput:
    """Bad files end in a named message and a documented exit code."""

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_directory_as_config_exits_1(self, command, tmp_path, capsys):
        assert cli.main([command, str(tmp_path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"cannot access {tmp_path}: ")

    @pytest.mark.parametrize("command", ["run", "validate"])
    def test_config_not_utf8_exits_2(self, command, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(LINEAR_DEMO_CFG.encode() + b"# caf\xe9\n")
        assert cli.main([command, str(path)]) == cli.EXIT_VALIDATION
        out = capsys.readouterr()
        assert f"{path} is not UTF-8 text" in out.out + out.err

    def test_fit_csv_without_t_column_exits_1(self, tmp_path, capsys):
        path = tmp_path / "no_t.csv"
        path.write_text("s,E_u\n" + "".join(f"{s},{1.0 / (1.0 + s)}\n" for s in range(40)))
        assert cli.main(["fit", str(path), "--window", "5", "30"]) == cli.EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == "" and "no column 't'" in out.err

    @pytest.mark.parametrize("text", ["t,E_u,extra\n1,2\n2,3\n", "t\n1,2\n2,3\n"],
                             ids=["header_wider", "rows_wider"])
    def test_fit_csv_header_and_rows_of_different_width_exits_1(self, text, tmp_path,
                                                                 capsys):
        path = tmp_path / "ragged.csv"
        path.write_text(text)
        assert cli.main(["fit", str(path), "--quantity", "extra"]) == cli.EXIT_ERROR
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("cannot read series: ")
        assert "the header names" in out.err

    @pytest.mark.parametrize("command, message", [("fit", "cannot read series: ")])
    @pytest.mark.parametrize("text", ['{"coefficients": {}}', "[1, 2]", "not json"],
                             ids=["no_files", "not_an_object", "not_json"])
    def test_not_a_run_manifest_exits_1(self, command, message, text, tmp_path, capsys):
        path = tmp_path / "bad.manifest.json"
        path.write_text(text)
        assert cli.main([command, str(path)]) == cli.EXIT_ERROR
        assert capsys.readouterr().err.startswith(message)
