"""The package namespace: lazy public names, and no numpy on import."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import volentropy


def test_import_leaves_numpy_unloaded():
    script = "import sys, volentropy\nprint('numpy' in sys.modules)\n"
    src = str(Path(__file__).resolve().parent.parent / "src")
    done = subprocess.run(
        [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False\n"


def test_public_names_resolve():
    for name in volentropy.__all__:
        assert getattr(volentropy, name).__name__ == name
    namespace = {}
    exec("from volentropy import *", namespace)
    assert set(volentropy.__all__) <= set(namespace)
    assert set(volentropy.__all__) <= set(dir(volentropy))


def test_unknown_name_is_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        volentropy.no_such_name
