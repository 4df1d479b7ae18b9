"""The benchmark harness still runs against the library.

``bench/tracing.py`` wraps names that ``hydent.run`` imports and reads
``LearnerGraph`` fields, so a rename in ``src/`` can break a traced
benchmark run without failing any library test.  One traced unit of the
smallest workload catches that.  Its spans go to the git-ignored
``bench/out/``.  The tracer also reads some arguments by position, which a
reorder would mislabel without failing the run, so their names are pinned.
"""

import inspect
import json
import subprocess
import sys
from pathlib import Path

from hydent.propagate import propagate_round
from hydent.teaching import bcd_solve

BENCH = Path(__file__).resolve().parents[1] / "bench" / "run.py"


def test_traced_protocol_unit_runs_clean():
    child = subprocess.run(
        [sys.executable, str(BENCH), "--workload", "protocol-n200", "--seed", "0",
         "--seconds", "1", "--units", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout.strip().splitlines()[-1])
    assert result["correct"] is True, child.stderr
    assert result["failed"] == 0 and result["attempted"] > 0


def test_traced_arguments_keep_their_positions():
    # the tracer reads these arguments by position: propagate.rows from
    # propagate_round's curriculum and learned, and teaching.selected_ratio's
    # denominator from bcd_solve's s; a reorder would count the wrong ones
    # while the traced run above still ran clean
    round_params = list(inspect.signature(propagate_round).parameters)
    assert (round_params[2], round_params[4]) == ("curriculum", "learned")
    assert list(inspect.signature(bcd_solve).parameters)[3] == "s"
