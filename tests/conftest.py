"""Fixtures shared between test modules."""

import io
from contextlib import redirect_stdout

import pytest

from fussnarayana.cli import main as cli_main

CRITERION_08_ARGV = ["mc", "-d", "1,1.5,0.5", "-n", "300", "-K", "3", "--trials", "200", "--seed", "7"]
"""The documented Monte Carlo gate command, as the README shows it."""


@pytest.fixture(scope="session")
def criterion_08_run():
    """Exit code and stdout of the criterion-08 ``mc`` command, run once per session."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli_main(CRITERION_08_ARGV)
    return code, buffer.getvalue()
