import os
from pathlib import Path

import pytest

import qtnabla


@pytest.fixture
def child_env():
    """os.environ for a child interpreter that must import this qtnabla,
    whether or not the package is installed."""
    src = str(Path(qtnabla.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
