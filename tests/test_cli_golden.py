"""The CLI prints the recorded stdout and exit code on every command that
``record_cli_golden.py`` lists."""

import json

import pytest

from record_cli_golden import GOLDEN, command_lines
from sympla.cli import run

RECORDED = json.loads(GOLDEN.read_text(encoding="utf-8"))


@pytest.mark.parametrize("argv", command_lines(), ids=" ".join)
def test_cli_output_matches_the_recording(argv):
    code, stdout = run(argv)
    assert {"code": code, "stdout": stdout} == RECORDED[" ".join(argv)]
