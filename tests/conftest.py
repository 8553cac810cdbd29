"""Lets the CLI subprocesses started by the tests import the package from
src/ without an install; pyproject's pytest `pythonpath` covers the
in-process imports."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)
