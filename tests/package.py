"""The package under test, and how a test starts it in a child process.

The package under test is the ``wmpower`` that the tests import: this
checkout's ``src/`` (``PYTHONPATH=src``), a mutated copy (``tests/mutants.py``)
or an installed wheel. Every child process that a test starts gets the
directory holding it first on ``PYTHONPATH``, so the child runs that same code.
"""

import os
import subprocess
import sys
from pathlib import Path

import wmpower

# The import path entry that holds the package under test.
DIRECTORY = Path(wmpower.__file__).resolve().parents[1]


def environment(**variables: str) -> dict[str, str]:
    """This process's environment with ``PYTHONPATH=DIRECTORY``, plus ``variables``."""
    return dict(os.environ, PYTHONPATH=str(DIRECTORY), **variables)


def run_python(*args, timeout, python=sys.executable, text=True, cwd=None, **variables):
    """Run ``python *args`` on the package under test, capturing its output."""
    return subprocess.run(
        [python, *args], cwd=cwd, env=environment(**variables),
        capture_output=True, text=text, timeout=timeout,
    )


def run_cli(*argv, **options):
    """Run ``python -m wmpower.cli *argv``; ``options`` as for :func:`run_python`."""
    return run_python("-m", "wmpower.cli", *argv, **options)
