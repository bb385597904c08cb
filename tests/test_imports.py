"""Import footprint of `dampedwave` processes: no module of the package
loads SciPy; a fresh `import dampedwave.cli` loads no multiprocessing and
no OpenSSL (`_hashlib`) either; the `validate`, `run` and `poincare`
commands load no SciPy; no command loads `hashlib` or OpenSSL: `run`
hashes its config with CPython's built-in SHA-256, whose digest is
hashlib's; and a sweep on more than one process forks them itself,
without `concurrent.futures` or `multiprocessing`."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMO_CFG = str(ROOT / "configs" / "semilinear_demo.cfg")
LINEAR_CFG = str(ROOT / "configs" / "linear_demo.cfg")
MARKER = "--- modules ---"


def loaded_modules(code: str) -> set[str]:
    """sys.modules at the end of a fresh interpreter running code."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    code += f"\nprint({MARKER!r}); print('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    return set(out.split(MARKER, 1)[1].split())


def scipy_modules(loaded: set[str]) -> list[str]:
    return sorted(m for m in loaded if m == "scipy" or m.startswith("scipy."))


def test_package_loads_no_scipy():
    loaded = loaded_modules(
        "import importlib, pkgutil, sys, dampedwave\n"
        "for module in pkgutil.iter_modules(dampedwave.__path__):\n"
        "    importlib.import_module(f'dampedwave.{module.name}')"
    )
    assert {"dampedwave.analysis", "dampedwave.cli", "dampedwave.spectral"} <= loaded
    assert not scipy_modules(loaded), scipy_modules(loaded)


def test_cli_import_leaves_unused_scipy_unloaded():
    loaded = loaded_modules("import sys, dampedwave.cli")
    assert "dampedwave.cli" in loaded
    assert not scipy_modules(loaded), scipy_modules(loaded)
    unwanted = {"multiprocessing", "concurrent.futures", "_hashlib"}
    assert not loaded & unwanted, sorted(loaded & unwanted)


@pytest.mark.parametrize("argv", [
    ["validate", DEMO_CFG],
    ["run", DEMO_CFG, "--out", "{out}"],
    ["poincare", "--L", "1", "--domain", "20", "--nodes", "1000"],
])
def test_commands_load_no_scipy(argv, tmp_path):
    argv = [arg.format(out=tmp_path) for arg in argv]
    loaded = loaded_modules(
        "import sys\nfrom dampedwave import cli\n"
        f"assert cli.main({argv!r}) == cli.EXIT_OK"
    )
    assert not scipy_modules(loaded), scipy_modules(loaded)


@pytest.fixture(scope="module")
def run_csv(tmp_path_factory):
    """A run's CSV, written in this process."""
    from dampedwave import cli

    out = tmp_path_factory.mktemp("run")
    assert cli.main(["run", LINEAR_CFG, "--out", str(out)]) == cli.EXIT_OK
    return out / "linear_demo.csv"


@pytest.mark.parametrize("argv", [
    ["validate", DEMO_CFG],
    ["poincare", "--L", "1", "--domain", "20", "--nodes", "1000"],
    ["fit", "{csv}", "--window", "10", "200"],
    ["sweep", "--p", "3,11", "--i0", "1,30", "--dx", "0.05", "--t-end", "5",
     "--workers", "1", "--out", "{out}"],
    ["run", DEMO_CFG, "--out", "{out}"],
], ids=["validate", "poincare", "fit", "sweep", "run"])
def test_no_command_loads_openssl(argv, run_csv, tmp_path):
    argv = [arg.format(out=tmp_path, csv=run_csv) for arg in argv]
    loaded = loaded_modules(
        "import sys\nfrom dampedwave import cli\n"
        f"assert cli.main({argv!r}) == cli.EXIT_OK"
    )
    openssl = loaded & {"hashlib", "_hashlib"}
    assert not openssl, sorted(openssl)


def test_forked_sweep_loads_no_process_pool(tmp_path):
    argv = ["sweep", "--p", "3,11", "--i0", "1,30", "--dx", "0.1", "--t-end", "2",
            "--workers", "2", "--out", str(tmp_path)]
    loaded = loaded_modules(
        "import sys\nfrom dampedwave import cli\n"
        f"assert cli.main({argv!r}) == cli.EXIT_OK"
    )
    pools = {m for m in loaded if m.split(".")[0] in ("concurrent", "multiprocessing")}
    assert not pools, sorted(pools)


@pytest.mark.parametrize("builtin", [True, False], ids=["builtin", "hashlib_fallback"])
def test_config_hash_is_sha256(builtin, monkeypatch):
    from dampedwave import cli

    if not builtin:  # a build without a built-in SHA-256
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        raw = path.read_bytes()
        assert cli._config_hash(raw) == hashlib.sha256(raw).hexdigest(), path.name
