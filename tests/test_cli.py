import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from metrocap.cli import RunConfig, main, report_to_csv, run

LN2 = math.log(2.0)
GOLDEN = json.loads((Path(__file__).parent / "golden" / "cli_golden.json").read_text())


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    return json.loads(out)


# ---------------------------------------------------------------- commands

def test_capacity_command_known_value(capsys):
    report = run_json(
        capsys, ["capacity", "--model", "su", "--n", "2", "--t", "2", "--l", "inf"]
    )
    assert report["schema"] == "1"
    assert report["command"] == "capacity"
    assert report["capacity_nats"] == pytest.approx(math.log(10), rel=1e-15)
    assert report["support"] == "10"
    assert report["l"] == "inf"
    assert {"label": [2, 0], "p": "9/10"} in report["optimal_p"]


def test_decompose_command_dims_are_strings(capsys):
    report = run_json(capsys, ["decompose", "--model", "su", "--n", "3", "--t", "2"])
    assert report["entries"][0] == {
        "label": [3, 0],
        "dim": "4",
        "mult": "1",
        "eff_mult": "4",
    }


def test_bounds_command_default_bracket(capsys):
    report = run_json(
        capsys,
        ["bounds", "--model", "mp", "--n", "3", "--t", "2", "--eps", "0.5"],
    )
    assert report["alpha"] == 2.0 and report["beta"] == 0.0
    assert report["lower_nats"] == pytest.approx(0.0, abs=1e-12)
    assert report["upper_nats"] == pytest.approx(math.log(8), rel=1e-12)


def test_bounds_command_general(capsys):
    report = run_json(
        capsys,
        [
            "bounds", "--model", "mp", "--n", "3", "--t", "2",
            "--eps", "0.25", "--alpha", "1.5", "--beta", "0.5",
        ],
    )
    r = math.log(4)
    assert report["lower_nats"] == pytest.approx(
        r - (math.log(2) - math.log(0.25)) / 0.5, rel=1e-12
    )
    assert report["upper_nats"] == pytest.approx(
        r + math.log(0.75) / (0.5 - 1.0), rel=1e-12
    )


def test_simulate_bs4_lattice(capsys):
    report = run_json(
        capsys,
        [
            "simulate", "--model", "mp", "--n", "3", "--t", "2",
            "--state", "bs4", "--codebook", "lattice",
        ],
    )
    assert report["state_tag"] == "bs4"
    assert report["codebook_tag"] == "lattice"
    assert report["success_prob"] == pytest.approx(1.0, abs=1e-9)
    assert report["entropy_nats"] == pytest.approx(math.log(4), abs=1e-9)


def test_simulate_noon_without_codebook(capsys):
    report = run_json(
        capsys, ["simulate", "--model", "mp", "--n", "4", "--t", "2", "--state", "noon"]
    )
    assert report["success_prob"] is None
    assert report["codebook_tag"] is None
    assert report["entropy_nats"] == pytest.approx(math.log(2), abs=1e-9)


def test_simulate_bn1(capsys):
    report = run_json(
        capsys, ["simulate", "--model", "su", "--n", "2", "--t", "2", "--state", "bn1"]
    )
    assert report["entropy_nats"] == pytest.approx(math.log(10), abs=1e-6)


def test_scaling_command_slope(capsys):
    code, out, err = run_cli(
        capsys,
        ["scaling", "--model", "mp", "--t", "2", "--n-range", "10:1000:10",
         "--format", "csv"],
    )
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "model,n,t,l,capacity_nats,baseline_nats,fitted_slope"
    assert len(lines) == 1 + 100
    slope = float(lines[1].rsplit(",", 1)[1])
    assert abs(slope - 1.0) < 0.1
    assert all(line.endswith(lines[1].rsplit(",", 1)[1]) for line in lines[1:])


def test_scaling_json_rows(capsys):
    report = run_json(
        capsys, ["scaling", "--model", "su", "--t", "2", "--n-range", "20:60:20"]
    )
    assert report["l"] == "inf"
    assert [row["n"] for row in report["rows"]] == [20, 40, 60]
    assert report["rows"][0]["capacity_nats"] == pytest.approx(
        math.log(21 * 22 * 23 / 6), rel=1e-12
    )


# ---------------------------------------------------------------- formats

@pytest.mark.parametrize(
    "argv",
    [
        ["decompose", "--model", "su", "--n", "4", "--t", "2", "--l", "2"],
        ["capacity", "--model", "mp", "--n", "5", "--t", "3"],
        ["bounds", "--model", "su", "--n", "3", "--t", "2", "--eps", "0.1"],
        ["simulate", "--model", "mp", "--n", "3", "--t", "2", "--state", "bs4",
         "--codebook", "lattice"],
        ["scaling", "--model", "mp", "--t", "3", "--n-range", "10:50:10"],
    ],
)
def test_json_csv_round_trip(capsys, argv):
    code, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 0
    code, csv_out, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    assert report_to_csv(json.loads(json_out)) == csv_out
    assert "\r" not in csv_out


def test_base_two_divides_by_ln2(capsys):
    args = ["capacity", "--model", "su", "--n", "6", "--t", "2", "--l", "inf"]
    nats = run_json(capsys, args)["capacity_nats"]
    bits = run_json(capsys, args + ["--base", "2"])["capacity_bits"]
    assert bits == pytest.approx(nats / LN2, rel=1e-12)

    args = ["bounds", "--model", "mp", "--n", "4", "--t", "2", "--eps", "0.2"]
    e_report = run_json(capsys, args)
    two_report = run_json(capsys, args + ["--base", "2"])
    assert two_report["lower_bits"] == pytest.approx(e_report["lower_nats"] / LN2, rel=1e-12)
    assert two_report["upper_bits"] == pytest.approx(e_report["upper_nats"] / LN2, rel=1e-12)

    args = ["scaling", "--model", "mp", "--t", "2", "--n-range", "10:100:10"]
    slope_e = run_json(capsys, args)["fitted_slope"]
    slope_2 = run_json(capsys, args + ["--base", "2"])["fitted_slope"]
    assert slope_2 == pytest.approx(slope_e / LN2, rel=1e-12)


def test_env_var_default_format(capsys, monkeypatch):
    monkeypatch.setenv("METROCAP_FORMAT", "csv")
    code, out, _ = run_cli(capsys, ["capacity", "--model", "mp", "--n", "3", "--t", "2"])
    assert code == 0
    assert out.startswith("model,n,t,l,log_base,capacity_nats")
    # explicit flag still wins
    code, out, _ = run_cli(
        capsys,
        ["capacity", "--model", "mp", "--n", "3", "--t", "2", "--format", "json"],
    )
    assert out.startswith("{")


def test_env_var_invalid(capsys, monkeypatch):
    monkeypatch.setenv("METROCAP_FORMAT", "yaml")
    code, _, err = run_cli(capsys, ["capacity", "--model", "mp", "--n", "3", "--t", "2"])
    assert code == 2
    assert "METROCAP_FORMAT" in err


# ---------------------------------------------------------------- exit codes

def test_unknown_model_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["capacity", "--model", "xx", "--n", "2", "--t", "2"])
    assert exc.value.code == 2


def test_unknown_command_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", "--model", "mp"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["bounds", "--model", "mp", "--n", "3", "--t", "2", "--eps", "1.5"], "eps"),
        (["bounds", "--model", "mp", "--n", "3", "--t", "2", "--alpha", "2.0"], "together"),
        (["capacity", "--model", "mp", "--n", "3", "--t", "2", "--l", "0"], "--l"),
        (["capacity", "--model", "mp", "--n", "0", "--t", "2"], "positive"),
        (["simulate", "--model", "su", "--n", "9", "--t", "2", "--state", "bn1"], "8"),
        (["simulate", "--model", "mp", "--n", "13", "--t", "2", "--state", "bs4"], "4096"),
        (["simulate", "--model", "mp", "--n", "2", "--t", "2", "--state", "bn1"], "su"),
        (["simulate", "--model", "su", "--n", "2", "--t", "2", "--state", "bs4",
          "--codebook", "lattice"], "mp"),
        (["scaling", "--model", "mp", "--t", "2", "--n-range", "10:20"], "start:stop:stride"),
        (["scaling", "--model", "mp", "--t", "2", "--n-range", "10:20:10"], "three"),
    ],
)
def test_validation_failures_exit_2(capsys, argv, needle):
    code, out, err = run_cli(capsys, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert needle in err


@pytest.mark.parametrize(
    "argv,count",
    [
        (["decompose", "--model", "mp", "--n", "1000", "--t", "6"], "8459043543951"),
        (["capacity", "--model", "mp", "--n", "1000", "--t", "6"], "8459043543951"),
        (["scaling", "--model", "su", "--t", "6", "--n-range", "1000:1020:10"], "blocks"),
    ],
)
def test_block_budget_exits_2_at_once(capsys, argv, count):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and count in err and "1000000" in err


# ---------------------------------------------------------------- golden bytes

@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_bytes(capsys, monkeypatch, key):
    """stdout, stderr and exit code match the pinned fixture byte for byte."""
    monkeypatch.delenv("METROCAP_FORMAT", raising=False)
    code, out, err = run_cli(capsys, key.split(" "))
    assert (code, out, err) == tuple(GOLDEN[key][k] for k in ("code", "stdout", "stderr"))


# ---------------------------------------------------------------- library use

def test_run_config_direct():
    cfg = RunConfig(command="capacity", model="mp", n=4, t=2, l=1)
    assert run(cfg) == 0


def test_run_unknown_command_raises():
    from metrocap.cli import CLIError

    with pytest.raises(CLIError):
        run(RunConfig(command="nope"))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "metrocap", "capacity", "--model", "su",
         "--n", "2", "--t", "2", "--l", "inf"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["support"] == "10"
    assert proc.stdout.endswith("\n")
