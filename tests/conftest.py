"""Make psolv importable from an uninstalled checkout, in subprocesses too.

pyproject.toml puts src/ on sys.path for this interpreter only; tests that
run the command line in a child process read PYTHONPATH instead.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
