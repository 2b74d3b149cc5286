"""Let the processes the tests start (`python -m bentkit`, `python -c`)
import bentkit from this checkout's `src`, as the test process itself
does through pyproject's pytest `pythonpath`, so that a bare `pytest`
passes without installing the package."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    [_SRC, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
)
