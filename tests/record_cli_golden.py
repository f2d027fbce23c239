"""Record the CLI outputs that ``test_cli_golden.py`` compares against.

    PYTHONPATH=src python tests/record_cli_golden.py

Run from the repository root on the commit whose output is the contract.  It
writes ``tests/cli_golden.json``: the exit code and stdout of ``rank``,
``lagrangian``, ``base`` with each strategy and ``analyze`` on every catalog
name with its defaults, on ``aff?n=3`` and on ``tn_cotangent?n=4``.
"""

from __future__ import annotations

import json
from pathlib import Path

from sympla import catalog, cli

GOLDEN = Path(__file__).resolve().parent / "cli_golden.json"
SPECS = catalog.names() + ("aff?n=3", "tn_cotangent?n=4")
COMMANDS = (
    ("rank",),
    ("lagrangian",),
    ("base", "--strategy", "central"),
    ("base", "--strategy", "any"),
    ("base", "--strategy", "greedy"),
    ("analyze",),
)


def command_lines() -> list[list[str]]:
    return [[cmd[0], "catalog:" + spec, *cmd[1:]] for spec in SPECS for cmd in COMMANDS]


def record() -> dict[str, dict]:
    golden = {}
    for argv in command_lines():
        code, stdout = cli.run(argv)
        golden[" ".join(argv)] = {"code": code, "stdout": stdout}
    return golden


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1) + "\n", encoding="utf-8")
