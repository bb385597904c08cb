import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "same_outputs.py"
_spec = importlib.util.spec_from_file_location("same_outputs", _PATH)
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

RUN_CSV = "t,E_u,l2_u\n0,1.5,0.25\n1,0.75,0.125\n"
SWEEP_CSV = "p\\I0,0.1,1\n3,decayed_at_rate,blowup(t=2.5)\n"
MANIFEST = '{\n  "c_star": 1.25,\n  "files": {"csv": "run.csv"}\n}\n'
VALIDATE = ('smallness_V0  pass  V(0) = 0.02\nC*  1.25\n1/(4C*)  0.2\n'
            '{"c_star": 1.25, "checks": [{"margin": 0.5, "name": "smallness_V0"}]}\n')


def write_dir(path: Path, files: dict[str, str]) -> Path:
    path.mkdir()
    for name, text in files.items():
        (path / name).write_text(text)
    return path


@pytest.fixture()
def parent(tmp_path):
    return write_dir(tmp_path / "parent", {
        "run.csv": RUN_CSV, "run.manifest.json": MANIFEST, "sweep.csv": SWEEP_CSV})


def compare(parent, tmp_path, **changed):
    files = {"run.csv": RUN_CSV, "run.manifest.json": MANIFEST, "sweep.csv": SWEEP_CSV}
    files.update(changed)
    files = {name: text for name, text in files.items() if text is not None}
    return dict(same_outputs.compare_dirs(parent, write_dir(tmp_path / "change", files)))


class TestCompareDirs:
    def test_identical_trees(self, parent, tmp_path):
        assert compare(parent, tmp_path) == {
            "run.csv": None, "run.manifest.json": None, "sweep.csv": None}

    def test_csv_reports_largest_relative_column_difference(self, parent, tmp_path):
        got = compare(parent, tmp_path, **{"run.csv": RUN_CSV.replace("0.75", "0.7500003")
                                           .replace("0.125", "0.12500000001")})
        assert got["run.csv"] == ("largest relative difference 4e-07 in column E_u "
                                  "(2 cells differ)")
        assert got["run.manifest.json"] is None

    def test_sweep_token_change_is_a_difference(self, parent, tmp_path):
        got = compare(parent, tmp_path, **{"sweep.csv": SWEEP_CSV.replace("t=2.5", "t=2.6")})
        assert got["sweep.csv"] == "largest relative difference inf in column 1 (1 cells differ)"

    def test_csv_shape_and_header_changes(self, parent, tmp_path):
        got = compare(parent, tmp_path, **{"run.csv": RUN_CSV + "2,0.5,0.1\n",
                                           "sweep.csv": SWEEP_CSV.replace("p\\I0", "p")})
        assert got["run.csv"] == "shapes differ (2 vs 3 rows)"
        assert got["sweep.csv"] == "headers differ"

    def test_manifest_reports_largest_relative_key_difference(self, parent, tmp_path):
        changed = MANIFEST.replace("1.25", "1.5").replace(
            '"run.csv"}', '"run.csv", "log": "run.log"}')
        got = compare(parent, tmp_path, **{"run.manifest.json": changed})
        assert got["run.manifest.json"] == (
            "largest relative difference 0.167 in key c_star (1 values differ); "
            "keys only in the change: files.log")

    def test_json_keys_on_one_side_and_text_values(self):
        got = same_outputs.json_difference(
            '{"a": {"b": [1, 2.0]}, "k": "nan", "old": 1}',
            '{"a": {"b": [1, 2.000002]}, "k": 0.5, "new": {"x": 1}}')
        assert got == ("largest relative difference inf in key k (2 values differ); "
                       "keys only in the parent: old; keys only in the change: new.x")

    def test_validate_output_reports_lines_and_json_keys(self, tmp_path):
        parent = write_dir(tmp_path / "parent", {"v.validate.txt": VALIDATE})
        changed = VALIDATE.replace("1/(4C*)", "C*_continuum  1.3\n1/(4C*)").replace(
            '"margin": 0.5', '"margin": 0.50000001')
        got = dict(same_outputs.compare_dirs(
            parent, write_dir(tmp_path / "change", {"v.validate.txt": changed})))
        assert got["v.validate.txt"] == (
            "1 lines only in the change, the first 'C*_continuum 1.3'; "
            "JSON line: largest relative difference 2e-08 in key checks.0.margin "
            "(1 values differ)")

    def test_file_on_one_side_only(self, parent, tmp_path):
        got = compare(parent, tmp_path, **{"sweep.csv": None, "extra.csv": RUN_CSV})
        assert got["sweep.csv"] == "written by the parent only"
        assert got["extra.csv"] == "written by the change only"


ROOT = Path(__file__).resolve().parents[1]
CONFIG_PATHS = sorted((ROOT / "configs").glob("*.cfg"))


def test_sweep_command_comes_from_the_benchmark():
    sweep = same_outputs.sweep_args(ROOT)
    derived = [Path("/cfg/off.cfg"), Path("/cfg/toggle.cfg")]
    argv = same_outputs.commands(ROOT, Path("/out"), sweep, derived)
    assert [a[0] for a in argv] == ["run"] * (len(CONFIG_PATHS) + 2) + [
        "validate"] * (len(CONFIG_PATHS) + 2) + ["sweep"] * 3
    assert argv[len(CONFIG_PATHS):len(CONFIG_PATHS) + 2] == [
        ["run", str(path), "--out", "/out"] for path in derived]
    assert [a for a in argv if a[0] == "validate"] == [
        ["validate", str(path), "--json"] for path in CONFIG_PATHS + derived]
    options = ["sweep", "--p", "1.5,2,3,5,7,9,11,13", "--i0", "0.1,1,3,10,30",
               "--dx", "0.02", "--t-end", "40"]
    assert argv[-3:] == [
        [*options, "--workers", "2", "--out", "/out", "--name", "sweep_pxI0"],
        [*options, "--workers", "3", "--out", "/out", "--name", "sweep_pxI0_workers3"],
        [*options, "--workers", "1", "--out", "/out", "--name", "sweep_pxI0_workers1"]]


def test_validate_stdout_and_exit_status_are_kept(tmp_path, monkeypatch):
    # only the validate commands, from this checkout: freewave_demo fails
    # its hypotheses by design and exits 2
    commands = same_outputs.commands
    monkeypatch.setattr(same_outputs, "commands", lambda *args: [
        argv for argv in commands(*args) if argv[0] == "validate"])
    codes = same_outputs.write_outputs(ROOT, tmp_path, [])
    validated = CONFIG_PATHS + [Path(name) for name in same_outputs.DERIVED]
    assert codes == {f"validate {path.name}": 2 if path.stem == "freewave_demo" else 0
                     for path in validated}
    for path in validated:
        text = (tmp_path / f"{path.stem}.validate.txt").read_text()
        assert text.splitlines()[-1].startswith('{"c_star": ')


def changed_lines(tmp_path, name):
    """(committed line, copied line) wherever the DERIVED copy name differs."""
    paths = same_outputs.derived_configs(ROOT, tmp_path / "configs")
    assert paths == [tmp_path / "configs" / n for n in same_outputs.DERIVED]
    source = same_outputs.DERIVED[name][0]
    original = (ROOT / "configs" / source).read_text().splitlines()
    copy = (tmp_path / "configs" / name).read_text().splitlines()
    assert len(copy) == len(original)
    return [(a, b) for a, b in zip(original, copy) if a != b]


def test_off_centre_copy_moves_only_the_data_centre(tmp_path):
    assert changed_lines(tmp_path, "linear_offcentre.cfg") == [
        ("u0_center = 0.0", "u0_center = 0.5")]


def test_toggle_copy_raises_only_the_amplitude(tmp_path):
    assert changed_lines(tmp_path, "semilinear_toggle.cfg") == [
        ("u0_amplitude = 0.00012", "u0_amplitude = 0.12")]
