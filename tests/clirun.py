"""Runs a parafrob command line in process, as a shell would see it."""

from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from typing import NamedTuple

from parafrob.cli import main


class CliResult(NamedTuple):
    exit_code: int
    output: str  # stdout and stderr, interleaved as written


def run_cli(args) -> CliResult:
    buffer = StringIO()
    with redirect_stdout(buffer), redirect_stderr(buffer):
        try:
            main(list(args), prog_name="parafrob")
            code = 0
        except SystemExit as exc:
            code = exc.code or 0
    return CliResult(code, buffer.getvalue())
