"""The CLI's two argv readers.

``cli._read_canonical`` reads a canonical argv (a subcommand, then exact
``--flag value`` pairs) straight from the flag table; argparse, through
``cli.build_parser``, reads every other argv and writes all help, usage and
refusal text.  Where the table reader accepts an argv it must give the config
argparse's reading gives; where argparse exits (help or a refusal) it must
decline.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from metrocap import cli

CANONICAL = [
    ["decompose", "--model", "su", "--n", "4", "--t", "3", "--l", "2", "--format", "csv"],
    ["capacity", "--model", "mp", "--n", "5"],
    ["bounds", "--model", "mp", "--n", "3", "--t", "2", "--eps", "0.25", "--alpha", "1.5",
     "--beta", "0.5", "--base", "2"],
    ["simulate", "--state", "noon", "--model", "mp", "--n", "3", "--codebook", "lattice"],
    ["scaling", "--model", "su", "--t", "3", "--n-range", "4:12:4"],
    # values argparse passes on as they are, for config_from_args to refuse
    ["capacity", "--model", "mp", "--n", "3", "--l", "0"],
    ["capacity", "--model", "mp", "--n", "3", "--l", ""],
    ["scaling", "--model", "mp", "--n-range", "10:20"],
    # int and float read these as Python does, on both paths
    ["bounds", "--model", "su", "--n", " 5", "--eps", "nan"],
    ["bounds", "--model", "su", "--n", "1_0", "--eps", "1e400", "--t", " -2"],
]

# argv that argparse reads but that are not canonical, and argparse's help
# and refusals: the table reader declines each of them.
DECLINED = [
    [],
    ["-h"],
    ["--help"],
    ["capacity", "--help"],
    ["capacity", "--model", "mp", "--n", "3", "-h"],
    ["frobnicate", "--model", "mp"],
    ["capacit", "--model", "mp", "--n", "3"],
    ["capacity", "--mod", "mp", "--n", "3"],  # an abbreviation
    ["scaling", "--model", "mp", "--n", "10:50:10"],  # argparse reads --n-range
    ["capacity", "--model", "mp", "--n=4"],
    ["capacity", "--model", "mp", "--n", "3", "--n", "4"],  # repeated: the last wins
    ["capacity", "--model", "mp", "--n", "3", "--model", "mp"],
    ["capacity", "--model", "mp", "--n", "3", "--l", "-1"],  # a negative value
    ["bounds", "--model", "mp", "--n", "3", "--eps", "-1e3"],  # argparse reads an option
    ["capacity", "--model", "-h", "--n", "3"],
    ["capacity", "--model", "mp", "--n", "--t"],
    ["capacity", "--n", "3"],  # --model is required
    ["capacity", "--model", "mp"],  # --n is required
    ["scaling", "--model", "mp", "--t", "2"],  # --n-range is required
    ["capacity", "--model", "xx", "--n", "3"],  # not a choice
    ["capacity", "--model", "mp", "--n", "3", "--format", "xml"],
    ["simulate", "--model", "mp", "--n", "3", "--codebook", "grid"],
    ["capacity", "--model", "mp", "--n", "abc"],  # not an int
    ["capacity", "--model", "mp", "--n", "3.0"],
    ["bounds", "--model", "mp", "--n", "3", "--eps", "x"],  # not a float
    ["decompose", "--model", "mp", "--n", "3", "--eps", "0.5"],  # another command's flag
    ["scaling", "--model", "mp", "--n", "3", "--n-range", "10:50:10"],
    ["simulate", "--model", "mp", "--n", "3", "--l", "2"],
    ["simulate", "--model", "mp", "--n", "3", "--seed", "7"],
    ["capacity", "--model", "mp", "--n", "3", "--t"],  # a flag without its value
    ["capacity", "--model", "mp", "--n", "3", "extra", "word"],
    ["capacity", "--model", "mp", "--n", "3", "--", "--t", "2"],
]


def config_of(args) -> str:
    """repr of the config config_from_args makes of ``args``, or of the
    ValueError it raises (repr, as NaN != NaN)."""
    try:
        return repr(cli.config_from_args(args))
    except ValueError as exc:
        return f"ValueError({exc})"


def argparse_config(argv):
    """config_of argparse's reading of ``argv``, or None when argparse exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit:
            return None
    return config_of(args)


@pytest.mark.parametrize("argv", CANONICAL, ids=" ".join)
def test_canonical_argv_reads_as_argparse_reads_it(argv):
    args = cli._read_canonical(argv)
    assert args is not None
    assert config_of(args) == argparse_config(argv)


@pytest.mark.parametrize("argv", DECLINED, ids=" ".join)
def test_other_argv_is_left_to_argparse(argv):
    assert cli._read_canonical(argv) is None


def test_a_canonical_request_builds_no_parser(capsys, monkeypatch):
    def refuse():
        raise AssertionError("argparse read a canonical argv")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert cli.main(["bounds", "--model", "su", "--n", "5", "--t", "3", "--eps", "0.2"]) == 0
    assert cli.main(["capacity", "--model", "su", "--n", "3", "--l", "0"]) == 2
    assert capsys.readouterr().err == "error: --l must be positive, got 0\n"
    with pytest.raises(AssertionError, match="argparse read"):
        cli.main(["capacity", "--model", "su", "--n=3"])


COMMANDS = ["decompose", "capacity", "bounds", "simulate", "scaling", "frobnicate", "bound",
            "", "-h"]
FLAGS = ["--model", "--n", "--t", "--l", "--base", "--format", "--eps", "--alpha", "--beta",
         "--state", "--codebook", "--n-range",
         "--mod", "--n-r", "--fo", "--e", "--al", "--st", "-h", "--help", "--n=4",
         "--model=mp", "--eps=0.5", "--seed", "--"]
VALUES = ["mp", "su", "xx", "1", "3", "0", "-1", "-1e3", "-h", "0.5", "2.0", "nan", "1e400",
          " 5", "1_0", "", "inf", "10:50:10", "json", "csv", "e", "2", "bs4", "bn1", "lattice"]
# values each flag accepts, so that many draws are canonical
VALID = {"--model": ["mp", "su"], "--n": ["3", "4"], "--t": ["2", "3"], "--l": ["1", "inf"],
         "--base": ["e", "2"], "--format": ["json", "csv"], "--eps": ["0.5"],
         "--alpha": ["1.5"], "--beta": ["0.5"], "--state": ["noon", "bs4"],
         "--codebook": ["lattice"], "--n-range": ["4:12:4"]}


@st.composite
def argvs(draw):
    """A command, each of its required flags nine times in ten and up to
    three more (mostly the command's own, some repeated), in any order,
    values mostly valid for their flag, and in two draws of seven one or two
    stray tokens."""
    rng = draw(st.randoms(use_true_random=True))
    command = rng.choice(COMMANDS[:5] * 3 + COMMANDS)
    spec = cli._COMMANDS.get(command)
    own = list(spec.flags) if spec else FLAGS
    required = [name for name in own if spec and spec.flags[name].required]
    flags = [name for name in required if rng.random() < 0.9]
    flags += [rng.choice(own if rng.random() < 0.9 else FLAGS) for _ in range(rng.randint(0, 3))]
    rng.shuffle(flags)
    argv = [command]
    for flag in flags:
        argv += [flag, rng.choice(VALID.get(flag, VALUES) if rng.random() < 0.85 else VALUES)]
    for _ in range(rng.choice([0, 0, 0, 0, 0, 1, 2])):
        argv.insert(rng.randint(0, len(argv)), rng.choice(FLAGS + VALUES))
    return argv


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(argv=argvs())
@example(argv=["bounds", "--model", "mp", "--n", "3", "--n", "4"])
@example(argv=["decompose", "--model", "mp", "--n", "3", "--alpha", "2.0"])
@example(argv=["scaling", "--model", "su", "--n-range", "4:12:4", "--base", "-h"])
def test_table_reader_agrees_with_argparse(argv):
    """Where the table reader accepts an argv, its config is argparse's;
    where argparse exits, the table reader has declined."""
    args = cli._read_canonical(argv)
    expected = argparse_config(argv)
    if args is not None:
        assert config_of(args) == expected
    if expected is None:
        assert args is None


def test_only_help_and_refusals_import_argparse():
    """A canonical request runs without argparse (and the gettext it
    imports); help text loads it."""
    script = """if True:
        import contextlib, io, sys
        before = set(sys.modules)
        from metrocap.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["bounds", "--model", "su", "--n", "20", "--t", "3", "--l", "1"]) == 0
        added = set(sys.modules) - before
        assert not {"argparse", "gettext"} & added, sorted(added)
        with contextlib.redirect_stdout(io.StringIO()) as out:
            try:
                main(["--help"])
            except SystemExit as exc:
                code = exc.code
        assert code == 0 and out.getvalue().startswith("usage: metrocap")
        assert "argparse" in sys.modules
    """
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
