"""perfbench/tracer.py wraps psolv's functions and methods by name, so a
rename or a deletion it misses breaks every traced benchmark run. This
checks that it still installs, in a fresh interpreter, so that such a
change fails here and not only in the traced benchmark steps."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_the_tracer_installs_on_the_current_names():
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "from tracer import Tracer; Tracer().install()")
    run = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
