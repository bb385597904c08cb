"""Import footprint of a fresh `dampedwave` process: it loads no SciPy
subpackage at import time; the C* solvers import scipy.linalg when called."""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
UNUSED_SCIPY = {"scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse",
                "scipy.special"}


def test_cli_import_leaves_unused_scipy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    code = "import sys, dampedwave.cli; print('\\n'.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    loaded = set(out.split())
    assert "dampedwave.cli" in loaded
    assert not loaded & UNUSED_SCIPY, sorted(loaded & UNUSED_SCIPY)
