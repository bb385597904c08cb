"""The `dampedwave` console script with a stopwatch on the marching call.

    python3 bench/timed_cli.py TIMING_JSON <dampedwave arguments...>

Runs `dampedwave.cli.main` on the arguments exactly as the installed
console script does, and writes to TIMING_JSON the wall time of each
call of the marching function: `solver.run` for `run`, the pooled
`analysis.semilinear_sweep` for `sweep`. The stopwatch is two clock
reads around a public function; nothing inside the package changes.
"""

import json
import sys
from pathlib import Path

from common import ROOT, stopwatch

sys.path.insert(0, str(ROOT / "src"))

from dampedwave import analysis, cli, solver  # noqa: E402


def main() -> int:
    timing_path, argv = sys.argv[1], sys.argv[2:]
    walls: list[float] = []
    # cli and runner reach these through the module attribute; a sweep's
    # pool workers march with the untouched solver.run
    if argv and argv[0] == "sweep":
        analysis.semilinear_sweep = stopwatch(analysis.semilinear_sweep, walls)
    else:
        solver.run = stopwatch(solver.run, walls)
    code = cli.main(argv)
    Path(timing_path).write_text(json.dumps({"march_s": walls}))
    return code


if __name__ == "__main__":
    sys.exit(main())
