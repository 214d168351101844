"""Same-bytes replay of a fixed CLI command list, and its recorder.

``cli_bytes.json`` holds each command of the list with the exit code, stdout
and stderr that ``cli.main`` gave it, run in this process with COLUMNS=80.
It is the one place that holds a command's expected bytes: the tests that
assert what the output means check keys, statuses and messages, not bytes.
Output is kept as lists of lines, each with its line ending, so a re-recording
shows as a line diff.  ``tests/test_cli_bytes.py`` replays the list and checks
that the file is as this recorder writes it, with each command once;
``tests/test_cli.py::TestSharedParser`` replays records in sequence.

A change that moves output on purpose re-records the file from the
repository root:

    PYTHONPATH=src python tests/cli_replay.py

which rewrites ``cli_bytes.json`` and prints every line that moved.  A new
command goes in as a record with its command alone (exit null, no lines),
then is recorded the same way.
"""

from __future__ import annotations

import contextlib
import difflib
import io
import json
import os
import shlex
import sys
from pathlib import Path
from unittest import mock

from anomaly_forge.cli import main

DATA = Path(__file__).with_name("cli_bytes.json")


def run(command: str) -> dict:
    """The record of one command: its exit code, stdout and stderr lines."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, COLUMNS="80"), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(shlex.split(command))
    return {"command": command, "exit": code,
            "stdout": out.getvalue().splitlines(keepends=True),
            "stderr": err.getvalue().splitlines(keepends=True)}


def load() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


def dumps(records: list[dict]) -> str:
    """The text of ``cli_bytes.json`` that holds ``records``."""
    return json.dumps(records, indent=1, ensure_ascii=False) + "\n"


def _lines(record: dict) -> list[str]:
    return ([f"exit {record['exit']}\n"] + [f"stdout {line}" for line in record["stdout"]]
            + [f"stderr {line}" for line in record["stderr"]])


def moved(old: list[dict], new: list[dict]) -> list[str]:
    """Each moved line of ``new`` against ``old``, the same commands in the same order,
    as '- ' and '+ ' lines under the command."""
    lines = []
    for before, after in zip(old, new):
        changed = [line for line in difflib.ndiff(_lines(before), _lines(after))
                   if line[:2] in ("- ", "+ ")]
        if changed:
            lines += [f"{after['command']}\n", *changed]
    return lines


if __name__ == "__main__":
    old = load()
    new = [run(record["command"]) for record in old]
    DATA.write_text(dumps(new), encoding="utf-8")
    sys.stdout.writelines(moved(old, new))
