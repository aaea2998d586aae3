"""Write cli_golden.json: exit code, stdout and stderr of a fixed argv matrix.

Each argv runs in-process through ``metrocap.cli.main``, with ``COLUMNS=80``
so that argparse's help and usage text wraps the same on every terminal; a
``SystemExit`` (argparse's help and refusals) is recorded as the exit code.
The fixture pins the CLI's bytes, so it is generated from a known-good tree
and replayed by ``tests/test_cli.py`` against the current one:

    PYTHONPATH=<that tree>/src python tests/golden/make_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path

FIXTURE = Path(__file__).with_name("cli_golden.json")


def matrix() -> list[list[str]]:
    out = []
    for fmt in ("json", "csv"):
        for base in ("e", "2"):
            tail = ["--base", base, "--format", fmt]
            for command in ("decompose", "capacity", "bounds"):
                for model, n, t in (("mp", 4, 2), ("su", 5, 3)):
                    for l in ("1", "3", "inf"):
                        out.append([command, "--model", model, "--n", str(n),
                                    "--t", str(t), "--l", l] + tail)
            out.append(["bounds", "--model", "mp", "--n", "3", "--t", "2", "--eps", "0.25",
                        "--alpha", "1.5", "--beta", "0.5"] + tail)
            for model, n, state, extra in (
                ("mp", 3, "bs4", ["--codebook", "lattice"]),
                ("mp", 4, "noon", []),
                ("su", 2, "bn1", []),
                ("su", 3, "noon", []),
            ):
                out.append(["simulate", "--model", model, "--n", str(n), "--t", "2",
                            "--state", state] + extra + tail)
            out.append(["scaling", "--model", "mp", "--t", "2", "--n-range", "10:50:10"] + tail)
            out.append(["scaling", "--model", "su", "--t", "3", "--n-range", "4:12:4"] + tail)
    out += [
        ["capacity", "--model", "su", "--n", "3", "--t", "2"],
        ["simulate", "--model", "mp", "--n", "2", "--t", "2", "--format", "csv"],
        # validation failures: exit 2, one line on stderr
        ["bounds", "--model", "mp", "--n", "3", "--t", "2", "--eps", "1.5"],
        ["bounds", "--model", "mp", "--n", "3", "--t", "2", "--alpha", "2.0"],
        ["capacity", "--model", "mp", "--n", "3", "--t", "2", "--l", "0"],
        ["capacity", "--model", "mp", "--n", "0", "--t", "2"],
        ["simulate", "--model", "su", "--n", "13", "--t", "2", "--state", "bn1"],
        ["simulate", "--model", "mp", "--n", "13", "--t", "2", "--state", "bs4"],
        ["simulate", "--model", "mp", "--n", "2", "--t", "2", "--state", "bn1"],
        ["simulate", "--model", "su", "--n", "2", "--t", "2", "--state", "bs4",
         "--codebook", "lattice"],
        ["scaling", "--model", "mp", "--t", "2", "--n-range", "10:20"],
        ["scaling", "--model", "mp", "--t", "2", "--n-range", "10:20:10"],
        ["capacity", "--model", "mp", "--n", "3", "--t", "1"],
        ["decompose", "--model", "su", "--n", "3", "--t", "2", "--l", "x"],
        ["scaling", "--model", "su", "--t", "2", "--n-range", "0:20:1"],
        ["scaling", "--model", "mp", "--t", "2", "--n-range", "1:9:0"],
        ["decompose", "--model", "su", "--n", "5", "--t", "3", "--l", "0"],
        ["simulate", "--model", "mp", "--n", "0", "--t", "2"],
        # argparse's help text
        ["--help"],
        ["decompose", "--help"],
        ["scaling", "--help"],
        # argparse's refusals: usage lines, then one error line, exit 2
        [],
        ["frobnicate", "--model", "mp"],
        ["capacity", "--n", "3", "--t", "2"],
        ["capacity", "--model", "xx", "--n", "3", "--t", "2"],
        ["capacity", "--model", "mp", "--n", "3", "--t", "2", "--base", "10"],
        ["decompose", "--model", "mp", "--n", "3", "--t", "2", "--format", "xml"],
        ["simulate", "--model", "mp", "--n", "3", "--t", "2", "--state", "ghz"],
        ["simulate", "--model", "mp", "--n", "3", "--t", "2", "--codebook", "grid"],
        ["capacity", "--model", "mp", "--n", "abc", "--t", "2"],
        ["simulate", "--model", "mp", "--n", "3", "--t", "2", "--seed", "7"],
        # forms argparse reads although they are not one exact --flag value pair each
        ["capacity", "--mod", "mp", "--n", "3", "--t", "2"],
        ["capacity", "--model", "mp", "--n=4", "--t", "2"],
        ["scaling", "--model", "mp", "--t", "2", "--n", "10:50:10"],
        ["capacity", "--model", "mp", "--n", "3", "--n", "4", "--t", "2"],
        ["capacity", "--model", "mp", "--n", "3", "--t", "2", "--l", "-1"],
    ]
    return out


def record(argv: list[str]) -> dict:
    from metrocap.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's help and refusals
            code = exc.code
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    golden = {" ".join(argv): record(argv) for argv in matrix()}
    FIXTURE.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(golden)} argv -> {FIXTURE}")
