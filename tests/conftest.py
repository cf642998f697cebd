"""Helpers shared by the test modules."""

import gc
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env(env=None) -> dict:
    """The current environment updated with ``env``, with ``src`` first
    on ``PYTHONPATH``, so that a child process finds the package without
    an install."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH", "")]))
    return env


def cli(*args, env=None):
    """Run ``mec-bazaar`` with ``args`` in a child process, under
    ``child_env(env)``."""
    return subprocess.run([sys.executable, "-m", "mec_bazaar.cli", *args],
                          capture_output=True, text=True, env=child_env(env))


def traced_peak(fn, *args, **kwargs) -> int:
    """The peak of Python and numpy allocations, in bytes, while
    ``fn(*args, **kwargs)`` runs."""
    gc.collect()
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
