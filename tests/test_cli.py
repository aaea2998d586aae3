import ast
import gc
import json
import math
import os
import re
import subprocess
import sys
import time
import warnings
from collections import Counter
from fractions import Fraction
from itertools import chain
from pathlib import Path

import numpy as np
import pytest

import metrocap
from metrocap import cli, oracle, rep_core
from metrocap.cli import RunConfig, Table, main, render, run
from metrocap.capacity import capacity
from metrocap.distinguish import m_eps_capacity_bounds
from metrocap.rep_core import UNBOUNDED, decompose
from reference import (
    digit_work,
    factorial_multinomial,
    hook_length_count,
    pairwise_weyl_dim,
    partition_rows,
    report_to_csv,
    weight_vectors,
)

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


def test_simulate_refuses_flag_combinations_before_any_state(capsys, monkeypatch):
    """Each flag combination simulate refuses is refused with its own
    message before any state or spectrum is made, at n past the dense cap
    (2^40) too; the tags that argparse never passes raise from run."""
    for name in ("mp_optimal_state", "noon_state", "su2_optimal_state", "twirled_spectrum"):
        monkeypatch.setattr(oracle, name, _refuse)
    for flags, message in [
        (["--model", "mp", "--t", "3", "--state", "bs4"], "simulate ships t = 2 states only"),
        (["--model", "mp", "--t", "2", "--state", "bn1"], "--state bn1 needs --model su"),
        (["--model", "su", "--t", "2", "--state", "noon", "--codebook", "lattice"],
         "--codebook lattice needs --model mp"),
        (["--model", "mp", "--t", "2", "--state", "bn1", "--codebook", "lattice"],
         "--state bn1 needs --model su"),
    ]:
        for n in ("12", "40"):
            assert run_cli(capsys, ["simulate", "--n", n, *flags]) == \
                (2, "", f"error: {message}\n")
    with pytest.raises(ValueError, match="^unknown state tag 'ghz'$"):
        run(RunConfig("simulate", "mp", 12, 2, state="ghz"))
    with pytest.raises(ValueError, match="^unknown codebook tag 'grid'$"):
        run(RunConfig("simulate", "mp", 12, 2, codebook="grid"))


@pytest.mark.parametrize("cfg, message", [
    (RunConfig("bounds", "mp", 3, base="10"), "unknown base tag '10'"),
    (RunConfig("capacity", "su", 200, format="xml"), "unknown format tag 'xml'"),
    (RunConfig("decompose", "xx", 3), "unknown model tag 'xx'"),
    (RunConfig("simulate", "mp", 3, 3, state="ghz"), "unknown state tag 'ghz'"),
    (RunConfig("simulate", "su", 3, codebook="grid"), "unknown codebook tag 'grid'"),
    (RunConfig("scaling", "su", base=None, n_range=(1, 9, 1)), "unknown base tag None"),
    (RunConfig("simulate", "mp", True), "n must be an integer, got True"),
    (RunConfig("simulate", "mp", 2.0), "n must be an integer, got 2.0"),
    (RunConfig("decompose", "su", 3, False), "t must be an integer, got False"),
    (RunConfig("bounds", "mp", 3, eps="0.1"), "eps must be a number, got '0.1'"),
    (RunConfig("bounds", "mp", 3, alpha="2", beta=0.5), "alpha must be a number, got '2'"),
    (RunConfig("bounds", "mp", 3, alpha=2.0, beta=True), "beta must be a number, got True"),
])
def test_run_refuses_a_bad_tag_before_any_builder(monkeypatch, cfg, message):
    """run checks every field that the command's flags declare with choices
    against them before its builder runs, so a bad tag is named first even
    where the config has other faults (simulate at t = 3, or a codebook
    with su).  It checks every int and float field the same way, in
    _check_config's words: a bool is no number, an int field takes no float
    and a float field no text."""
    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, command._replace(build=_refuse))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(cfg)


def test_run_lets_ints_and_none_through_a_number_field(monkeypatch):
    """A float field takes an int, and a number field left at None passes:
    each config reaches its builder."""
    for name, command in cli._COMMANDS.items():
        monkeypatch.setitem(cli._COMMANDS, name, command._replace(build=_refuse))
    for cfg in (RunConfig("bounds", "mp", 3, eps=1, alpha=2, beta=0.5),
                RunConfig("bounds", "mp", 3), RunConfig("simulate", "mp", 3)):
        with pytest.raises(AssertionError, match="^not on this path$"):
            run(cfg)


def test_none_is_the_unbounded_reference(capsys):
    """UNBOUNDED is None, no reference size: decompose and run read l=None as
    unbounded, and the report writes it as "inf"."""
    assert UNBOUNDED is None
    assert decompose("su", 5, 3, None) == decompose("su", 5, 3, UNBOUNDED)
    assert run(RunConfig("capacity", "su", 5, 3, l=None)) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["l"] == "inf"
    assert report == run_json(capsys, ["capacity", "--model", "su", "--n", "5", "--t", "3",
                                       "--l", "inf"])


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


def _written(report: dict, fmt: str) -> list:
    """Each string render writes, in order."""
    out = []
    render(report, fmt, out.append)
    return out


def test_row_table_writer_on_percent_signs_and_empty_tables():
    """Constant text of a template holds '%' only doubled: in a JSON key, a
    row-list key and a CSV cell from the report."""
    rows = Table((("a%s", '"%d"'), ("b%%", "%r"), ("label", "[]")), [(10**30, 0.5), (-1, 1e300)])
    report = {"schema": "1%d", "rows%": rows}
    dict_form = {"schema": "1%d", "rows%": [
        {"a%s": str(10**30), "b%%": 0.5, "label": []}, {"a%s": "-1", "b%%": 1e300, "label": []}]}
    assert "".join(_written(report, "json")) == json.dumps(dict_form, indent=2) + "\n"
    assert "".join(_written({**report, "rows%": Table(rows.columns, [])}, "json")) == \
        json.dumps({**dict_form, "rows%": []}, indent=2) + "\n"
    report = {"schema": "1", "command": "decompose", "model": "m%d%%", "n": 1, "t": 1, "l": "%s",
              "entries": Table((("label", '[\n        %d\n      ]'), ("dim", '"%d"'),
                                ("mult", '"%d"'), ("eff_mult", '"%d"')), [(1, 1, 1, 1)])}
    assert "".join(_written(report, "csv")) == \
        "model,n,t,l,label,dim,mult,eff_mult\nm%d%%,1,1,%s,1,1,1,1\n"
    assert "".join(_written({**report, "entries": Table(report["entries"].columns, [])}, "csv")) \
        == "model,n,t,l,label,dim,mult,eff_mult\n"


def test_row_table_writer_round_trips_any_text_and_float_cells():
    """The chunks are formatted as bytes and written as str, one write per
    chunk after the lead's: report-level CSV cells of non-ASCII text and a
    lone surrogate reach every chunk unchanged, %r float cells read as repr,
    and a '%' in a JSON key stays literal."""
    count = cli.CHUNK_CELLS // 4 + 5  # two chunks of rows of width 4
    columns = (("label", cli._label(1)), ("dim", '"%d"'), ("mult", '"%d"'), ("eff_mult", '"%d"'))
    rows = [(k, 1, 3**k, 1) for k in range(count)]
    report = {"schema": "1", "command": "decompose", "model": "µ-\ud800", "n": 2, "t": 1,
              "l": "∞%d", "entries": Table(columns, rows)}
    writes = _written(report, "csv")
    assert [type(w) for w in writes] == [str, str, str]
    assert "".join(writes) == "model,n,t,l,label,dim,mult,eff_mult\n" + "".join(
        f"µ-\ud800,2,1,∞%d,{k},1,{3**k},1\n" for k in range(count))
    floats = (0.1, -0.0, 1e300, 5e-324)
    table = Table((("%d µ%", "%r"), ("n%", "%d")), [(x, k) for k, x in enumerate(floats)])
    writes = _written({"schema": "1%", "rows%r": table}, "json")
    assert [type(w) for w in writes] == [str, str, str]
    assert "".join(writes) == json.dumps({"schema": "1%", "rows%r": [
        {"%d µ%": x, "n%": k} for k, x in enumerate(floats)]}, indent=2) + "\n"


def _row_counts(count: int, width: int) -> list:
    """The row counts of ``count`` rows of ``width`` cells cut into chunks of
    at most max(1, CHUNK_CELLS // width) rows."""
    size = max(1, cli.CHUNK_CELLS // width)
    return [min(size, count - i) for i in range(0, count, size)]


@pytest.mark.parametrize("count", [0, 1, 4095, 4096, 4097, 8193])
def test_row_table_writer_at_chunk_boundaries(count):
    """Rows of width 4, cut by the writer into chunks of CHUNK_CELLS // 4 =
    4096 rows, around each edge: JSON is json.dumps of the dict rows, CSV
    the dict-row reference on it, and each write after the lead holds one
    chunk.  A report with no row table is one write."""
    assert cli.CHUNK_CELLS // 4 == 4096
    rows = [(k, k % 7, 3**k, k % 5) for k in range(count)]  # (*label, dim, mult, eff)
    columns = (("label", cli._label(1)), ("dim", '"%d"'), ("mult", '"%d"'), ("eff_mult", '"%d"'))
    head = {"schema": "1", "command": "decompose", "model": "su", "n": 5, "t": 1, "l": "inf"}
    dicts = [{"label": [a], "dim": str(dim), "mult": str(mult), "eff_mult": str(eff)}
             for a, dim, mult, eff in rows]
    json_writes = _written({**head, "entries": Table(columns, iter(rows))}, "json")
    json_out = "".join(json_writes)
    assert json_out == json.dumps({**head, "entries": dicts}, indent=2) + "\n"
    # the lead and the closing bracket are writes of their own; no rows, one write
    assert len(json_writes) == (len(_row_counts(count, 4)) + 2 if count else 1)
    csv_writes = _written({**head, "entries": Table(columns, iter(rows))}, "csv")
    assert "".join(csv_writes) == report_to_csv(json.loads(json_out))
    assert [w.count("\n") for w in csv_writes] == [1] + _row_counts(count, 4)  # the header first
    assert len(_written(head, "json")) == 1


@pytest.mark.parametrize("cfg,key,count,width", [
    (RunConfig("decompose", model="mp", n=100, t=3), "entries", math.comb(102, 2), 3 + 1),
    (RunConfig("decompose", model="su", n=9, t=3, l=2), "entries",
     len(decompose("su", 9, 3, 2).rows), 3 + 3),
    (RunConfig("capacity", model="mp", n=100, t=3, l=1), "optimal_p", math.comb(102, 2), 3),
    (RunConfig("capacity", model="su", n=9, t=4, l=1), "optimal_p",
     len(decompose("su", 9, 4, 1).rows), 4 + 2),
    (RunConfig("scaling", model="su", t=3, n_range=(2, 20, 3)), "rows", 7, 3),
    (RunConfig("scaling", model="mp", t=2, n_range=(1, 5000, 1)), "rows", 5000, 3),
    (RunConfig("decompose", model="mp", n=1, t=2000), "entries", 2000, 2000 + 1),
    (RunConfig("decompose", model="su", n=2, t=20000), "entries", 2, 20000 + 3),
])
def test_every_builder_chunk_holds_rows_times_width_cells(cfg, key, count, width):
    """Each row a builder hands render holds one cell per % field of the
    column formats (a label's one per entry), literal columns (mp's dim,
    eff_mult and p) taking none; the JSON writer cuts them into chunks of
    max(1, CHUNK_CELLS // width) rows, one write each after the lead."""
    table = cli._COMMANDS[cfg.command].build(cfg)[key]
    assert sum(len(re.findall("%[dr]", f)) for _, f in table.columns) == width
    assert Counter(map(len, table.rows)) == {width: count}
    objects = []  # the row objects of each write
    report = cli._COMMANDS[cfg.command].build(cfg)
    render(report, "json", lambda text: objects.append(text.count("    {\n")))
    assert objects[1:-1] == _row_counts(count, width)


def test_row_table_writer_reads_width_from_the_formats(monkeypatch):
    """A literal column takes no cell and a %% in a column name is no field:
    each row's cells are read as width 3, in chunks of one, two and three
    rows."""
    columns = (("b%%", "%r"), ("one", '"1"'), ("label", cli._label(2)))
    rows = [(0.5, 1, 2), (-1.25, 3, 4), (1e300, 5, 6)]
    dicts = [{"b%%": b, "one": "1", "label": [x, y]} for b, x, y in rows]
    head = {"schema": "1"}
    for size in (1, 2, 3):
        monkeypatch.setattr(cli, "CHUNK_CELLS", 3 * size)
        writes = _written({**head, "rows": Table(columns, rows)}, "json")
        assert "".join(writes) == json.dumps({**head, "rows": dicts}, indent=2) + "\n"
        assert len(writes) == -(-3 // size) + 2


def test_run_writes_a_long_report_in_chunks(monkeypatch):
    """decompose --model mp --n 100 --t 3 has C(102, 2) = 5151 rows, more
    than one chunk: run hands stdout more than one write, which together are
    the whole report."""
    writes = []
    monkeypatch.setattr(sys, "stdout", type("Out", (), {"write": staticmethod(writes.append)})())
    assert run(RunConfig("decompose", model="mp", n=100, t=3, format="csv")) == 0
    assert len(writes) > 1
    assert len("".join(writes).splitlines()) == 5151 + 1


def test_decompose_rows_json_round_trip(capsys):
    report = run_json(capsys, ["decompose", "--model", "su", "--n", "3", "--t", "2"])
    assert (report["model"], report["n"], report["t"], report["l"]) == ("su", 3, 2, "inf")
    assert report["entries"] == [
        {"label": [3, 0], "dim": "4", "mult": "1", "eff_mult": "4"},
        {"label": [2, 1], "dim": "2", "mult": "2", "eff_mult": "2"},
    ]
    assert run_json(capsys, ["decompose", "--model", "mp", "--n", "2", "--l", "3"])["l"] == 3


def test_decompose_rows_stay_exact_when_huge(capsys):
    report = run_json(capsys, ["decompose", "--model", "mp", "--n", "60", "--l", "1"])
    mults = [int(e["mult"]) for e in report["entries"]]
    assert max(mults) == math.comb(60, 30)  # far past float precision
    assert all(isinstance(e[k], str) for e in report["entries"] for k in ("dim", "mult"))


CAPACITY_JSON_GRID = [("mp", 40, 3, "2"), ("su", 30, 3, "1"), ("su", 8, 4, "inf")] + [
    (model, n, t, l)
    for model, sizes in (("mp", [(1, 2), (9, 2), (10, 3), (4, 6)]),
                         ("su", [(1, 2), (9, 2), (15, 3), (9, 4), (5, 25)]))
    for n, t in sizes for l in ("1", "2", "3", "inf")] + [
    ("su", n, t, l) for n, t in ((1, 3), (1, 4), (12, 5), (1, 7), (8, 7), (20, 1000))
    for l in ("1", "2", "inf")]


@pytest.mark.parametrize("model,n,t,l", CAPACITY_JSON_GRID)
def test_capacity_rows_match_library_capacity(capsys, model, n, t, l):
    """The CLI's p_b rows equal the exact fractions of capacity(decompose(...)),
    entry for entry: the slow reference, which builds every block with its
    multiplicity and checks the rows.  For su the decompose report's rows
    are decompose(...).rows, cell for cell, and both match the per-shape
    references: the labels partition_rows in order, each mult the
    hook-length count, each dim the pairwise Weyl product (below t = 1000,
    where 627 of them take 25 s; there the fill and the Cauchy total hold
    them), eff min(l mult, dim), and each p dim eff / support in lowest
    terms.  t = 1000 at n = 20 telescopes the zero tail of every shape."""
    args = ["--model", model, "--n", str(n), "--t", str(t), "--l", l]
    report = run_json(capsys, ["capacity", *args])
    ref = UNBOUNDED if l == "inf" else int(l)
    d = decompose(model, n, t, ref)
    r = capacity(d)
    assert report["capacity_nats"] == r.value
    assert report["support"] == str(r.support)
    assert report["optimal_p"] == [{"label": list(row[:t]), "p": f"{row[t]}/{row[t + 1]}"}
                                   for row in r.p_rows]
    assert all(math.gcd(num, den) == 1 for *_, num, den in r.p_rows)
    if model == "mp":
        return
    entries = run_json(capsys, ["decompose", *args])["entries"]
    assert [(*e["label"], int(e["dim"]), int(e["mult"]), int(e["eff_mult"]))
            for e in entries] == list(d.rows)
    labels = list(partition_rows(n, t))
    assert [row[:t] for row in d.rows] == [row[:t] for row in r.p_rows] == labels
    for label, row, p in zip(labels, d.rows, report["optimal_p"]):
        dim, mult, eff = row[t:]
        assert mult == hook_length_count(label), label
        if t < 1000:
            assert dim == pairwise_weyl_dim(label), label
        assert eff == (dim if ref is UNBOUNDED else min(ref * mult, dim)), label
        assert Fraction(p["p"]) == Fraction(dim * eff, r.support), label


@pytest.mark.parametrize("n,t", [(1, 2), (12, 2), (9, 3), (100, 3), (4, 5)])
def test_mp_literal_cells_match_the_library_rows(capsys, n, t):
    """mp decompose writes dim and eff_mult, and mp JSON capacity writes p,
    as literals of the row template, not read from the rows; each still
    equals the library's row, cell for cell, in JSON and in CSV.
    decompose --model mp --n 100 --t 3 has 5151 rows, more than one chunk."""
    assert math.comb(100 + 2, 2) > cli.CHUNK_CELLS // 4  # the (100, 3) decompose spans two
    for l in ("1", "inf"):
        size = ["--model", "mp", "--n", str(n), "--t", str(t), "--l", l]
        ref = UNBOUNDED if l == "inf" else int(l)
        rows = decompose("mp", n, t, ref).rows
        entries = run_json(capsys, ["decompose", *size])["entries"]
        assert [(*e["label"], e["dim"], e["mult"], e["eff_mult"]) for e in entries] == \
            [(*row[:t], *map(str, row[t:])) for row in rows]
        code, out, err = run_cli(capsys, ["decompose", *size, "--format", "csv"])
        assert code == 0, err
        assert [line.split(",")[4:] for line in out.splitlines()[1:]] == \
            [["|".join(map(str, row[:t])), *map(str, row[t:])] for row in rows]
        p_rows = capacity(decompose("mp", n, t, ref)).p_rows
        optimal_p = run_json(capsys, ["capacity", *size])["optimal_p"]
        assert [(*e["label"], e["p"]) for e in optimal_p] == \
            [(*row[:t], f"{row[t]}/{row[t + 1]}") for row in p_rows]


# t = 2: the one run, its row built from scratch; t >= 3: rows by Pascal steps
# and resets to r = 0; n = 1 at t = 2000: runs of one or two blocks
MP_CELL_GRID = [(n, 2) for n in (1, 2, 3, 8, 61, 128, 300)] + \
    [(n, t) for t, top in ((3, 40), (4, 14), (5, 9), (6, 7)) for n in (1, 2, 3, top)] + [(1, 2000)]


@pytest.mark.parametrize("n,t", MP_CELL_GRID)
def test_mp_cells_match_the_rows_and_factorial_multinomials(n, t):
    """The cells of mp decompose, read from the weight runs, are the
    flattened rows (*label, mult) of decompose(...).rows, the labels every
    occupation vector by stars and bars (tests/reference.py) in descending
    order, and each mult its multinomial by factorials; the cells of mp JSON
    capacity are the same labels."""
    rows = decompose("mp", n, t, 1).rows
    cells = list(chain.from_iterable(
        cli._build_decompose(RunConfig("decompose", "mp", n, t))["entries"].rows))
    assert cells == list(chain.from_iterable(row[:t] + row[-2:-1] for row in rows))
    labels = [tuple(cells[i:i + t]) for i in range(0, len(cells), t + 1)]
    assert labels == sorted(weight_vectors(n, t), reverse=True)
    assert cells[t::t + 1] == list(map(factorial_multinomial, labels))
    p_cells = list(chain.from_iterable(
        cli._build_capacity(RunConfig("capacity", "mp", n, t))["optimal_p"].rows))
    assert p_cells == list(chain.from_iterable(labels))


def test_mp_reports_check_the_runs_before_any_byte(capsys, monkeypatch):
    """One lost run moves the multinomials' sum off t^n and the label count
    off C(n+t-1, t-1): mp decompose and JSON capacity each raise
    ArithmeticError, a failed self-check and not a refusal, before any byte
    is written."""
    runs, walk = rep_core._weight_runs, rep_core._weight_walk
    monkeypatch.setattr(cli, "_weight_runs", lambda n, t: list(runs(n, t))[1:])
    with pytest.raises(ArithmeticError, match="^blocks do not fill the full space$"):
        main(["decompose", "--model", "mp", "--n", "6", "--t", "3"])
    assert capsys.readouterr() == ("", "")
    monkeypatch.setattr(cli, "_weight_walk", lambda n, t: list(walk(n, t))[1:])
    with pytest.raises(ArithmeticError, match="expected C"):
        main(["capacity", "--model", "mp", "--n", "6", "--t", "3"])
    assert capsys.readouterr() == ("", "")


def _refuse(*args, **kwargs):
    raise AssertionError("not on this path")


@pytest.mark.parametrize("model", ["mp", "su"])
def test_capacity_json_builds_no_decomposition(capsys, monkeypatch, model):
    """The JSON capacity report makes only the block weights: with the
    Decomposition class replaced by a stand-in whose constructor refuses, it
    still runs at any l, and an su decompose request (which builds its
    record) does not.  mp decompose reads the weight runs and builds no
    record either."""
    want = {l: run_json(capsys, ["capacity", "--model", model, "--n", "7", "--t", "3", "--l", l])
            for l in ("1", "3", "inf")}
    monkeypatch.setattr(rep_core, "Decomposition", type("Refused", (), {"__new__": _refuse}))
    for l, report in want.items():
        assert run_json(capsys, ["capacity", "--model", model, "--n", "7", "--t", "3",
                                 "--l", l]) == report
    with pytest.raises(AssertionError, match="not on this path"):
        main(["decompose", "--model", "su", "--n", "7", "--t", "3"])
    assert len(run_json(capsys, ["decompose", "--model", "mp", "--n", "7", "--t", "3"])
               ["entries"]) == math.comb(7 + 2, 2)


def test_capacity_json_at_unbounded_l_needs_no_multiplicity(capsys, monkeypatch):
    """The weights are d^2 for su with an unbounded reference and 1 for mp
    at any l, so neither report computes a tableau count: the shape walk
    calls multiplicity_su for every f it gives, and not once at --l inf."""
    su_args = ["capacity", "--model", "su", "--n", "9", "--t", "3"]
    want = run_json(capsys, su_args)
    monkeypatch.setattr(rep_core, "multiplicity_su", _refuse)
    su = run_json(capsys, su_args)
    assert su == want and su["support"] == str(math.comb(17, 8))
    for l in ("1", "inf"):
        mp = run_json(capsys, ["capacity", "--model", "mp", "--n", "9", "--t", "3", "--l", l])
        assert mp["support"] == "55" and {e["p"] for e in mp["optimal_p"]} == {"1/55"}
    with pytest.raises(AssertionError, match="not on this path"):
        main(su_args + ["--l", "1"])


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
        (["simulate", "--model", "su", "--n", "13", "--t", "2", "--state", "bn1"], "12"),
        (["simulate", "--model", "mp", "--n", "13", "--t", "2", "--state", "bs4"], "4096"),
        (["simulate", "--model", "mp", "--n", "2", "--t", "2", "--state", "bn1"], "su"),
        (["simulate", "--model", "su", "--n", "2", "--t", "2", "--state", "bs4",
          "--codebook", "lattice"], "mp"),
        (["scaling", "--model", "mp", "--t", "2", "--n-range", "10:20"], "start:stop:stride"),
        (["scaling", "--model", "mp", "--t", "2", "--n-range", "10:20:10"], "three"),
        # bounds checks eps, then alpha/beta, then n, t and l
        (["bounds", "--model", "mp", "--n", "0", "--t", "2", "--eps", "1.5"], "eps"),
        (["bounds", "--model", "su", "--n", "0", "--t", "1"], "n must be positive"),
        (["bounds", "--model", "mp", "--n", "3", "--t", "1"], "t must be at least 2"),
        # scaling checks t as the exact commands do
        (["scaling", "--model", "su", "--t", "1", "--n-range", "1:3:1"], "t must be at least 2"),
        (["simulate", "--model", "mp", "--n", "2", "--t", "3"], "simulate ships t = 2 states only"),
        (["scaling", "--model", "mp", "--t", "2", "--n-range", "1:x:3"], "--n-range needs integers"),
        (["simulate", "--model", "mp", "--n", "0", "--t", "2"], "n must be positive"),
        # the beta -> 0 limit is the default bracket's, and refused as a flag
        (["bounds", "--model", "mp", "--n", "3", "--t", "2", "--alpha", "2", "--beta", "0"],
         "error: beta must lie in (0, 1), got 0.0\n"),
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
        (["decompose", "--model", "su", "--n", "1000", "--t", "6"], "7049112"),
    ],
)
def test_block_budget_exits_2_at_once(capsys, argv, count):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and count in err and "1000000" in err


def test_digit_work_budget_exits_2_at_once(capsys):
    """Reports whose integers would take more than MAX_DIGIT_WORK digit^2 to
    convert are refused before any block is made, naming the estimate: for
    mp the blocks C(n+t-1, t-1) times the squared digits of t^n (30103 of
    2^100000, 668 of 3^1400, 4939 of 2^16404).  Without the budget su
    n = 3400, t = 3 wrote 1.2 GB in 37 s.  mp n = 16403, t = 2, of estimate
    16404 * 4938^2, just under the budget, is admitted; the boundary is
    checked first, on the builder alone, which writes nothing."""
    cli._build_decompose(RunConfig("decompose", "mp", 16403, 2))
    with pytest.raises(ValueError, match="MAX_DIGIT_WORK"):
        cli._build_decompose(RunConfig("decompose", "mp", 16404, 2))
    refused = [
        (["decompose", "--model", "mp", "--n", "16404", "--t", "2"], 16405 * 4939**2),
        (["decompose", "--model", "mp", "--n", "100000", "--t", "2"], 100001 * 30103**2),
        (["decompose", "--model", "mp", "--n", "1400", "--t", "3"], math.comb(1402, 2) * 668**2),
        (["decompose", "--model", "su", "--n", "3400", "--t", "3", "--format", "csv"], None),
    ]
    for argv, work in refused:
        start = time.perf_counter()
        code, out, err = run_cli(capsys, argv)
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (2, "")
        estimate = int(re.fullmatch(
            r"error: the report's integers need about (\d+) digit\^2 of decimal conversion "
            r"\(the sum of their squared digit counts\), more than the budget of "
            r"400000000000 \(MAX_DIGIT_WORK\)\n", err)[1])
        assert estimate > cli.MAX_DIGIT_WORK == 4 * 10**11
        assert work is None or estimate == work


@pytest.mark.parametrize("model", ["mp", "su"])
def test_early_digit_refusal_is_sound(model):
    """The digit-work estimate, made before any block exists, is at least
    the sum of squared digit counts of the integers decompose writes, by
    brute force (tests/reference.py), on a grid from one block to large n
    and, for su, t = 1000; at the larger sizes it is within a factor of 4
    of it."""
    grid = {2: (1, 2, 3, 10, 99, 400), 3: (1, 2, 5, 31, 90), 4: (1, 3, 12, 30), 5: (1, 4, 16, 25)}
    if model == "su":
        grid[1000] = (20,)
    for t, sizes in grid.items():
        for n in sizes:
            blocks = rep_core._admit(model, n, t, UNBOUNDED)
            estimate, real = cli._digit_work(model, n, t, blocks), digit_work(model, n, t)
            assert real <= estimate, (n, t, real, estimate)
            if n >= 90:
                assert estimate <= 4 * real, (n, t, real, estimate)


@pytest.mark.parametrize("model", ["mp", "su"])
def test_decompose_runs_without_int_max_str_digits(capsys, monkeypatch, model):
    """Interpreters before 3.10.7 have no sys.get_int_max_str_digits and no
    limit: run lifts none, and the report is the same bytes."""
    argv = ["decompose", "--model", model, "--n", "5", "--t", "3", "--l", "2"]
    with_limit = run_cli(capsys, argv)
    assert with_limit[0] == 0
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert run_cli(capsys, argv) == with_limit


@pytest.mark.parametrize("argv,code,digits", [
    (["decompose", "--model", "mp", "--n", "2200", "--t", "2", "--format", "csv"], 0, 661),
    (["decompose", "--model", "su", "--n", "2200", "--t", "2"], 0, 659),
    (["decompose", "--model", "su", "--n", "14299", "--t", "2", "--format", "csv"], 0, 4301),
    (["decompose", "--model", "su", "--n", "40", "--t", "4", "--l", "2"], 0, 19),
    (["capacity", "--model", "mp", "--n", "14292", "--t", "2"], 0, 15),
    (["capacity", "--model", "su", "--n", "30", "--t", "3", "--l", "2"], 0, 15),
    (["bounds", "--model", "mp", "--n", "1" + "0" * 600, "--t", "2"], 0, 601),
    (["decompose", "--model", "mp", "--n", "1400", "--t", "3"], 2, 12),
], ids=["mp-2200", "su-2200", "su-14299", "su-40-t4", "capacity-mp", "capacity-su", "bounds",
        "refused"])
def test_reports_are_the_same_bytes_under_any_digit_limit(capsys, argv, code, digits):
    """The interpreter's limit on int to str digits, 0 (none), 640 or the
    default of 4300, decides nothing: the request gives the same stdout,
    stderr and exit code under all three, its longest run of digits
    ``digits`` long: past 640 (C(2200, 1100) has 661) and, at su n = 14299,
    t = 2, past 4300.  The limit is back as it was after each."""
    before = sys.get_int_max_str_digits()
    outputs = []
    try:
        for limit in (0, 640, 4300):
            sys.set_int_max_str_digits(limit)
            outputs.append(run_cli(capsys, argv))
            assert sys.get_int_max_str_digits() == limit
    finally:
        sys.set_int_max_str_digits(before)
    assert outputs[0] == outputs[1] == outputs[2]
    status, out, err = outputs[0]
    assert status == code
    assert max(map(len, re.findall(r"\d+", out + err))) == digits


@pytest.mark.parametrize("command", ["decompose", "capacity"])
def test_label_entry_budget_exits_2_at_once(capsys, command):
    """2001 blocks, within MAX_BLOCKS, whose labels hold 4 004 001 entries.
    One past the largest single-qudit report, so that without the budget the
    request would still end.  JSON, because both reports write every label."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, [command, "--model", "mp", "--n", "1", "--t", "2001",
                                      "--format", "json"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "2001 blocks of 2001 label entries" in err
    assert "4000000" in err


@pytest.mark.parametrize("t,n,support", [(2001, 1, 2001), (6, 1000, math.comb(1005, 5))])
def test_capacity_csv_needs_no_block_budget(capsys, t, n, support):
    """The CSV capacity row is the log of the support alone, so requests
    whose JSON report the block budgets refuse run at once."""
    argv = ["capacity", "--model", "mp", "--n", str(n), "--t", str(t)]
    assert run_cli(capsys, argv)[0] == 2
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv + ["--format", "csv"])
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert out == f"model,n,t,l,log_base,capacity_nats\nmp,{n},{t},inf,e,{math.log(support)!r}\n"


def test_capacity_csv_converts_no_support(capsys):
    """The CSV capacity row shows no support, so a support past the
    interpreter's default limit of 4300 digits, C(19999, 9999) at n = 10000,
    t = 100, is never written as a string: the request runs, and its
    capacity is the log of that support, the one bounds brackets."""
    argv = ["--model", "su", "--n", "10000", "--t", "100"]
    support = math.comb(19999, 9999)
    assert support >= 10**4300
    code, out, err = run_cli(capsys, ["capacity", *argv, "--format", "csv"])
    assert (code, err) == (0, "")
    value = float(out.splitlines()[1].split(",")[-1])
    assert value == math.log(support)
    report = run_json(capsys, ["bounds", *argv])
    assert report["lower_nats"] == value - (LN2 - math.log(0.1))


def test_finite_l_su_bounds_needs_no_enumeration(capsys):
    """The finite-l su support is the Cauchy total minus a short deficit sum:
    n = 2000 at t = 3 has 334 334 blocks, of which four shapes are counted.
    The deficit is the one the full enumeration of the blocks gave."""
    start = time.perf_counter()
    report = run_json(capsys, ["bounds", "--model", "su", "--n", "2000", "--t", "3", "--l", "1"])
    assert time.perf_counter() - start < 2.0
    support = math.comb(2008, 8) - 43932061005000
    assert report["lower_nats"] == math.log(support) - (LN2 - math.log(0.1))


def test_finite_l_su_bounds_counts_only_the_first_rows_that_matter(capsys):
    """At n = 87, t = 8, l = 1 only the 80 unsaturated shapes are walked, and
    only the shapes of their first rows are counted, so the label budget
    admits the request.  The support is the brute enumerated one
    (tests/reference.enumerated_su_support, which takes about half a minute)."""
    start = time.perf_counter()
    report = run_json(capsys, ["bounds", "--model", "su", "--n", "87", "--t", "8", "--l", "1"])
    assert time.perf_counter() - start < 1.0
    support = 13672120764081890733648607260901736169613360
    assert report["lower_nats"] == math.log(support) - (LN2 - math.log(0.1))


def test_finite_l_su_deficit_keeps_a_shape_budget(capsys, monkeypatch):
    """The shapes of the first rows the deficit sum keeps are counted before
    any is visited, and refused past MAX_BLOCKS: at n = 2000, t = 3 the first
    rows 2000..1998 hold 4 shapes."""
    monkeypatch.setattr(rep_core, "MAX_BLOCKS", 3)
    code, out, err = run_cli(capsys, ["bounds", "--model", "su", "--n", "2000", "--t", "3",
                                      "--l", "1"])
    assert (code, out) == (2, "")
    assert err == "error: 4 blocks exceed the enumeration budget of 3 (MAX_BLOCKS)\n"


def _su_blocks_of_three(t):
    """(dim, mult) of the SU(t) irreps of 3 boxes: Sym^3, the mixed shape, Lambda^3."""
    return [(math.comb(t + 2, 3), 1), (t * (t * t - 1) // 3, 2), (math.comb(t, 3), 1)]


def test_large_t_decompose_does_not_recurse(capsys):
    """Blocks are enumerated iteratively: t far past the recursion limit works."""
    t = 2000
    code, out, err = run_cli(capsys, ["decompose", "--model", "mp", "--n", "1", "--t", str(t),
                                      "--format", "csv"])
    assert (code, err) == (0, "")
    lines = out.splitlines()[1:]
    assert len(lines) == t
    for k, line in enumerate(lines):  # weights e_0, e_1, ... in descending order
        label = ["0"] * t
        label[k] = "1"
        assert line == f"mp,1,{t},inf,{'|'.join(label)},1,1,1"

    report = run_json(capsys, ["decompose", "--model", "su", "--n", "3", "--t", str(t)])
    assert [e["label"][:4] for e in report["entries"]] == [[3, 0, 0, 0], [2, 1, 0, 0], [1, 1, 1, 0]]
    assert [(int(e["dim"]), int(e["mult"])) for e in report["entries"]] == _su_blocks_of_three(t)
    assert all(e["eff_mult"] == e["dim"] for e in report["entries"])


@pytest.mark.parametrize("command,l", [("capacity", 1), ("bounds", 2)])
def test_large_t_finite_reference_does_not_recurse(capsys, command, l):
    t = 1200
    report = run_json(capsys, [command, "--model", "su", "--n", "3", "--t", str(t), "--l", str(l)])
    support = sum(dim * min(l * mult, dim) for dim, mult in _su_blocks_of_three(t))
    if command == "capacity":
        assert report["support"] == str(support)
        assert report["capacity_nats"] == math.log(support)
    else:
        assert report["lower_nats"] == math.log(support) - (LN2 - math.log(0.1))


@pytest.mark.parametrize("argv,support", [
    (["bounds", "--model", "mp", "--n", "1000", "--t", "6", "--l", "1"], math.comb(1005, 5)),
    (["bounds", "--model", "su", "--n", "1000", "--t", "6", "--alpha", "1.5", "--beta", "0.5"],
     math.comb(1035, 35)),
])
def test_bounds_needs_no_block_budget(capsys, argv, support):
    """Where every block saturates, bounds is a closed form: sizes past the
    enumeration budget run."""
    start = time.perf_counter()
    report = run_json(capsys, argv)
    assert time.perf_counter() - start < 1.0
    r = math.log(support)
    if report["alpha"] == 2.0:
        assert report["lower_nats"] == r - (math.log(2.0) - math.log(0.1))
    else:
        assert report["upper_nats"] == r + math.log1p(-0.1) / (0.5 - 1.0)


@pytest.mark.parametrize("model,t", [("mp", 2), ("mp", 4), ("su", 2), ("su", 3)])
@pytest.mark.parametrize("n", [1, 3, 7])
@pytest.mark.parametrize("l", ["1", "2", "inf"])
def test_bounds_matches_enumerated_capacity(capsys, model, t, n, l):
    """The closed-form bracket is the one built from the enumerated blocks."""
    report = run_json(capsys, ["bounds", "--model", model, "--n", str(n), "--t", str(t),
                               "--l", l, "--eps", "0.2"])
    decomp = decompose(model, n, t, UNBOUNDED if l == "inf" else int(l))
    b = m_eps_capacity_bounds(decomp, 0.2)
    assert (report["lower_nats"], report["upper_nats"]) == (b.lower, b.upper)


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "mp", "--n", "10", "--t", "2", "--state", "bs4",
     "--codebook", "lattice"],
    ["simulate", "--model", "mp", "--n", "9", "--t", "2", "--state", "noon"],
    ["simulate", "--model", "su", "--n", "8", "--t", "2", "--state", "bn1"],
    ["simulate", "--model", "su", "--n", "7", "--t", "2", "--state", "noon"],
])
def test_simulate_needs_no_dense_twirl(capsys, monkeypatch, argv):
    """simulate takes the twirled spectrum block-wise: no density matrix,
    dense twirl or full-dimension eigensolve; the lattice SRM success is
    read off it, with no coded state, Gram matrix or Gram eigensolve."""
    expected = run_cli(capsys, argv)

    def refuse(*args, **kwargs):
        raise AssertionError("dense route called")

    for name in ("pure_density", "mp_twirl", "su2_twirl"):
        monkeypatch.setattr(oracle, name, refuse)
    for name in ("eigvalsh", "eigh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for name in ("vdot", "tensordot"):
        monkeypatch.setattr(np, name, refuse)
    assert run_cli(capsys, argv) == expected
    assert expected[0] == 0


def test_oversized_scaling_sweep_exits_2_at_once(capsys):
    """The point count is read off the range before any capacity is computed."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["scaling", "--model", "mp", "--t", "2", "--n-range", "1:100000000:1"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: 100000000 n values exceed the scaling budget of 10000 points "
                   "(MAX_SCALING_POINTS)\n")
    report = run_json(capsys, ["scaling", "--model", "mp", "--t", "2", "--n-range", "1:10000:1"])
    assert len(report["rows"]) == 10000  # at the budget


@pytest.mark.parametrize("stop,low,high", [
    # 3 points: would take seconds, so a missing budget fails fast
    (100002, 3 * 483437, 3 * 483444),
    # 10 000 points, which would take hours
    (109999, 10000 * 483437, 10000 * 517395),
])
def test_costly_scaling_sweep_exits_2_at_once(capsys, stop, low, high):
    """The sweep's binomial sizes are estimated before any is computed.  The
    estimate lies between the point count times the bit lengths of the first
    and the last binomial, C(1 099 999, 999 999) and C(stop + 999 999, 999 999)."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["scaling", "--model", "su", "--t", "1000", "--n-range", f"100000:{stop}:1"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    count = stop - 100000 + 1
    assert err.startswith(f"error: {count} binomials of about ")
    assert low < int(err.split()[5]) < high
    assert err.endswith(" bits in all exceed the scaling budget of 1000000 bits "
                        "(MAX_SCALING_BITS)\n")


@pytest.mark.parametrize("argv", [
    ["bounds", "--model", "su", "--n", "1000000", "--t", "1000"],
    ["bounds", "--model", "su", "--n", "1000000", "--t", "1000", "--l", "1"],
    ["capacity", "--model", "su", "--n", "1000000", "--t", "1000", "--format", "csv"],
    ["bounds", "--model", "mp", "--n", "1000000", "--t", "1000000"],
])
def test_oversized_support_exits_2_at_once(capsys, argv):
    """bounds and CSV capacity compute one binomial, C(1 999 999, 999 999)
    here, whose size is estimated first: log2 C(2m, m) is about
    2m - log2(pi m) / 2, so it has some 1 999 988 bits."""
    start = time.perf_counter()
    code, out, err = run_cli(capsys, argv)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err.startswith("error: the support C(1999999, 999999) of about ")
    assert 1999980 < int(err.split()[7]) < 2000000
    assert err.endswith(" bits exceeds the budget of 1000000 bits (MAX_SCALING_BITS)\n")


def _log2_binomial(n, d):
    """log2 C(n+d, d) from its product form, sum_j log2((m + j) / j) over
    j <= k = min(n, d), with m = max(n, d)."""
    k, m = sorted((n, d))
    return math.fsum(math.log2(m + j) - math.log2(j) for j in range(1, k + 1))


# (n, d) = (10^a, 10^b) up to 10^400 with min(n, d) <= 10^4 for the product
# form, where the binomial has 1000 bits or more: 0.1% of it is a bit or more
_GRID = [(a, b) for a in (0, 1, 2, 3, 4, 22, 100, 400) for b in (0, 1, 2, 3, 4, 22, 100, 400)
         if min(a, b) <= 4 and _log2_binomial(10**a, 10**b) >= 1000]


@pytest.mark.parametrize("a,b", _GRID, ids=[f"10^{a}-10^{b}" for a, b in _GRID])
def test_binomial_bits_estimate_is_within_a_thousandth(a, b):
    """The support-size estimate against the bit length of C(n+d, d)."""
    n, d = 10**a, 10**b
    bit_length = math.floor(_log2_binomial(n, d)) + 1
    if min(n, d) == 1:  # C(m+1, 1) = m+1
        assert bit_length == (n + d).bit_length()
    assert abs(cli._binomial_bits(n, d) - bit_length) <= bit_length / 1000


def test_binomial_bits_estimate_past_float_range():
    """At k = m = 10^400, past float range, the estimate is the central
    binomial's log2 C(2m, m) = 2m - log2(pi m) / 2 + O(1/m)."""
    m = 10**400
    half_log2_pi_m = (math.log2(m) + math.log2(math.pi)) / 2
    assert abs(cli._binomial_bits(m, m) - 2 * m + round(half_log2_pi_m)) <= 1


def test_support_past_float_range_is_refused_at_once(capsys):
    """C(10^22 + 100 488, 100 488) has 5 819 095 bits: the estimate, free of
    cancellation, refuses it before it is computed."""
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, ["bounds", "--model", "su", "--n", "10000000000000000000000", "--t", "317"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == ("error: the support C(10000000000000000100488, 100488) of about 5819095 "
                   "bits exceeds the budget of 1000000 bits (MAX_SCALING_BITS)\n")


def test_mp_support_past_float_range_runs(capsys):
    """At n = 10^400 the mp support at t = 2 is C(n+1, 1) = n+1, some 1329 bits."""
    n = 10**400
    report = run_json(capsys, ["bounds", "--model", "mp", "--n", str(n), "--t", "2"])
    r = math.log(n + 1)
    assert (report["lower_nats"], report["upper_nats"]) == \
        (r - (LN2 - math.log(0.1)), r - math.log1p(-0.1))
    code, out, err = run_cli(
        capsys, ["capacity", "--model", "mp", "--n", str(n), "--t", "2", "--format", "csv"])
    assert (code, err) == (0, "")
    assert float(out.split(",")[-1]) == math.log(n + 1)


@pytest.mark.parametrize("argv,code", [
    (["bounds", "--model", "mp", "--n", "2", "--t", str(10**400)], 0),
    (["bounds", "--model", "su", "--n", "2", "--t", str(10**400)], 0),
    (["capacity", "--model", "su", "--n", "2", "--t", str(10**400), "--format", "csv"], 0),
    (["bounds", "--model", "su", "--n", str(10**400), "--t", str(10**400)], 2),
    (["capacity", "--model", "mp", "--n", str(10**400), "--t", "3", "--format", "csv"], 0),
    (["capacity", "--model", "mp", "--n", str(10**400), "--t", str(10**400), "--format", "csv"],
     2),
    (["scaling", "--model", "su", "--t", str(10**400), "--n-range", "1:3:1"], 2),
    (["scaling", "--model", "mp", "--t", "2", "--n-range", f"{10**400}:{10**400 + 2}:1"], 2),
    # d = t^2 - 1 fits a float, but (d/2) log n does not at the last n
    (["scaling", "--model", "su", "--t", str(13 * 10**153), "--n-range", "7:9:1"], 2),
    (["scaling", "--model", "su", "--t", str(13 * 10**153), "--base", "2", "--n-range", "5:7:1"],
     2),
])
def test_sizes_past_float_range_exit_0_or_2(capsys, argv, code):
    """--n or --t past float range gives a report or a one-line refusal,
    never a traceback."""
    got, out, err = run_cli(capsys, argv)
    assert got == code
    assert (err == "") if code == 0 else (out == "" and err.startswith("error: ")
                                          and err.count("\n") == 1)


def test_scaling_refusal_names_the_coincident_log_n(capsys):
    """Distinct n near 10^400 have one float log n, so no slope can be fitted,
    and the refusal says so rather than calling the n equal."""
    n = 10**400
    argv = ["scaling", "--model", "mp", "--t", "2", "--n-range", f"{n}:{n + 2}:1"]
    assert run_cli(capsys, argv) == (2, "", f"error: n values share the float log n = "
                                            f"{math.log(n)!r}, so no slope against log n "
                                            "can be fitted\n")
    assert math.log(n) == math.log(n + 1) == math.log(n + 2)


def test_simulate_has_no_seed_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--model", "mp", "--n", "2", "--seed", "7"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 7" in capsys.readouterr().err


def test_su_scaling_needs_no_block_budget(capsys):
    """The su sweep is a closed form, so sizes past the enumeration budget run."""
    start = time.perf_counter()
    report = run_json(capsys, ["scaling", "--model", "su", "--t", "6", "--n-range", "1000:1020:10"])
    assert time.perf_counter() - start < 1.0
    assert [row["n"] for row in report["rows"]] == [1000, 1010, 1020]
    for row in report["rows"]:
        assert row["capacity_nats"] == math.log(math.comb(row["n"] + 35, 35))


@pytest.mark.parametrize("n_range", [(1, 9, 0), (0, 9, 1), (9, 1, 1), (0, 20, 1), (1.0, 9, 1)],
                         ids=lambda r: "%s:%s:%s" % r)
def test_scaling_n_range_rule_is_the_same_for_argv_and_library(capsys, n_range):
    """A sweep's range is checked on the tuple, so a RunConfig built in code
    is refused with the --n-range message that argv gets, before any size
    estimate: a stride of 0 no longer reaches range(), nor a start of 0 the
    argument check, nor a float start range()."""
    text = "%s:%s:%s" % n_range
    rule = "integers" if float in map(type, n_range) else "1 <= start <= stop and stride >= 1"
    message = f"--n-range needs {rule}, got {text!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run(RunConfig(command="scaling", model="mp", t=2, n_range=n_range))
    argv = ["scaling", "--model", "mp", "--t", "2", "--n-range", text]
    assert run_cli(capsys, argv) == (2, "", f"error: {message}\n")


def test_library_warning_is_one_line_without_path(capsys):
    """A warning from the oracle reaches stderr as one line and leaves stdout alone."""
    argv = ["simulate", "--model", "mp", "--n", "5", "--t", "2", "--state", "noon",
            "--codebook", "lattice"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        quiet = run_cli(capsys, argv)
    code, out, err = run_cli(capsys, argv)
    assert quiet == (0, out, "")
    assert code == 0
    assert err.startswith("warning: degenerate codebook:") and err.count("\n") == 1
    assert "oracle.py" not in err and "/" not in err and "\\" not in err


# ---------------------------------------------------------------- golden bytes

@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_golden_bytes(capsys, monkeypatch, key):
    """stdout, stderr and exit code match the pinned fixture byte for byte,
    argparse's help and refusals (a SystemExit) at the fixture's 80 columns."""
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code, out, err = run_cli(capsys, key.split())
    except SystemExit as exc:
        captured = capsys.readouterr()
        code, out, err = exc.code, captured.out, captured.err
    assert (code, out, err) == tuple(GOLDEN[key][k] for k in ("code", "stdout", "stderr"))


# ---------------------------------------------------------------- library use

def test_run_config_direct():
    cfg = RunConfig(command="capacity", model="mp", n=4, t=2, l=1)
    assert run(cfg) == 0


def test_config_from_args_keeps_defaults_of_unset_flags():
    """Fields a subcommand does not define, or flags left unset, take
    RunConfig's defaults."""
    parse = cli.build_parser().parse_args
    assert cli.config_from_args(parse(["capacity", "--model", "su", "--n", "3"])) == \
        RunConfig("capacity", model="su", n=3)
    assert cli.config_from_args(parse(["scaling", "--model", "mp", "--n-range", "1:9:4"])) == \
        RunConfig("scaling", n_range=(1, 9, 4))


def test_scaling_echoes_the_reference_it_sweeps():
    """mp sweeps its exact path at l = 1, and the report echoes that l; the
    config it was given is left as it was."""
    cfg = RunConfig("scaling", model="mp", t=2, n_range=(10, 30, 10))
    assert cli._build_scaling(cfg)["l"] == 1
    assert cfg.l is UNBOUNDED


def test_run_unknown_command_raises():
    with pytest.raises(ValueError, match="unknown command 'nope'"):
        run(RunConfig(command="nope"))


def test_exact_commands_never_import_numpy():
    """Only simulate needs the dense oracle, and with it numpy."""
    script = """if True:
        import contextlib, io, json, sys
        from metrocap.cli import main
        for argv in (["decompose", "--model", "su", "--n", "4", "--t", "3"],
                     ["capacity", "--model", "mp", "--n", "5", "--t", "3"],
                     ["capacity", "--model", "su", "--n", "9", "--t", "3", "--l", "2",
                      "--format", "csv"],
                     ["bounds", "--model", "su", "--n", "20", "--t", "3", "--l", "1"],
                     ["scaling", "--model", "mp", "--t", "3", "--n-range", "10:50:10"]):
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(argv) == 0, argv
        assert "numpy" not in sys.modules
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["simulate", "--model", "mp", "--n", "3", "--codebook", "lattice"]) == 0
        assert "numpy" in sys.modules
        assert 0 < json.loads(out.getvalue())["success_prob"] <= 1
    """
    src = str(Path(rep_core.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_dataclasses_inspect_or_numpy():
    """Start-up is most of a small exact request's wall time, so importing the
    CLI loads none of dataclasses, the inspect machinery it pulls in, numpy,
    or argparse and the gettext it imports (only help and refusals need
    them).  Modules the interpreter loaded before the import do not count."""
    script = """if True:
        import sys
        before = set(sys.modules)
        import metrocap.cli
        added = set(sys.modules) - before
        print(*sorted({"dataclasses", "inspect", "numpy", "argparse", "gettext"} & added))
    """
    src = str(Path(rep_core.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


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


def test_closed_stdout_pipe_exits_1_quietly():
    """A reader that closes the pipe early (as `| head -c 100` does) ends a
    long report with exit 1 and nothing on stderr.  Buffered stdout, as an
    interactive shell gives it: PYTHONUNBUFFERED is unset."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(rep_core.__file__).resolve().parents[1])
    argv = ["decompose", "--model", "mp", "--n", "400", "--t", "3", "--format", "csv"]
    with subprocess.Popen([sys.executable, "-m", "metrocap", *argv], env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.read(100).startswith(b"model,n,t,l,label,dim,mult,eff_mult\n")
        proc.stdout.close()  # several MB are still to come, far past a pipe's buffer
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (1, b"")


# ---------------------------------------------------------------- garbage collection

def _crash(cfg):
    raise RuntimeError("not a refusal")


def _crash_in_render(cfg):
    """A report whose rows fail once render reads them, while the digit
    limit is lifted."""
    def rows():
        assert sys.get_int_max_str_digits() == 0
        raise RuntimeError("not a refusal, while writing")
        yield

    return cli._report(cfg, "model", {"rows": Table((("n", "%d"),), rows())})


class _ClosedPipe:
    """A stdout whose reader has gone: every write raises BrokenPipeError.
    Its file descriptor is one the caller opened, which main points at
    devnull."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError

    def fileno(self):
        return self.fd


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_collector_as_it_found_it(capsys, monkeypatch, enabled):
    """main pauses the cyclic collector for the request, and run lifts the
    interpreter's digit limit (here 640 digits, or 0 for none) while the
    report is written; both are put back as found on every way out: exit 0,
    a refusal (exit 2), a closed pipe while writing (exit 1), argparse's
    refusal, and an error that is not a refusal, in the builder or while
    writing."""
    was, before = gc.isenabled(), sys.get_int_max_str_digits()
    limit = 640 if enabled else 0
    fd = os.open(os.devnull, os.O_WRONLY)

    def as_found():
        return gc.isenabled() is enabled and sys.get_int_max_str_digits() == limit

    try:
        (gc.enable if enabled else gc.disable)()
        sys.set_int_max_str_digits(limit)
        assert main(["capacity", "--model", "mp", "--n", "3"]) == 0
        assert as_found()
        assert main(["decompose", "--model", "mp", "--n", "0"]) == 2
        assert as_found()
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", _ClosedPipe(fd))
            assert main(["capacity", "--model", "mp", "--n", "3"]) == 1
        assert as_found()
        with pytest.raises(SystemExit):
            main(["capacity", "--model", "mp"])
        assert as_found()
        for builder, message in ((_crash, "not a refusal$"), (_crash_in_render, "while writing")):
            monkeypatch.setitem(cli._COMMANDS, "capacity",
                                cli._COMMANDS["capacity"]._replace(build=builder))
            with pytest.raises(RuntimeError, match=message):
                main(["capacity", "--model", "mp", "--n", "3"])
            assert as_found()
    finally:
        (gc.enable if was else gc.disable)()
        sys.set_int_max_str_digits(before)
        os.close(fd)


def test_a_large_report_runs_without_a_collection(capsys):
    """The 31 626 blocks of an mp report at n = 250, t = 3, made as weight
    runs and cell tuples, trigger no cyclic collection: they hold no cycle,
    so reference counting frees them (the collector, left on, would run
    passes over them)."""
    starts = []

    def note(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    was = gc.isenabled()
    gc.enable()
    gc.collect()  # the parse before the pause starts from an empty youngest generation
    gc.callbacks.append(note)
    try:
        assert main(["decompose", "--model", "mp", "--n", "250", "--t", "3"]) == 0
    finally:
        gc.callbacks.remove(note)
        if not was:
            gc.disable()
    assert starts == []
    assert capsys.readouterr().out.count('"label"') == 31_626


def test_a_closed_pipe_leaves_no_descriptor_open(monkeypatch):
    """main points a closed stdout at devnull and closes the descriptor it
    opened for that, so closed-pipe requests run in-process leave the count
    of open descriptors as they found it."""
    fd = os.open(os.devnull, os.O_WRONLY)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        before = len(os.listdir("/dev/fd"))
        for _ in range(3):
            assert main(["capacity", "--model", "mp", "--n", "3"]) == 1
        assert len(os.listdir("/dev/fd")) == before
    finally:
        os.close(fd)


# ---------------------------------------------------------------- package surface

# Public top-level names that no module of the package uses, each kept for
# the benchmark test that imports it.
UNUSED_BUT_KEPT = {
    "distinguish.m_eps_capacity_bounds": "perfbench test_wrappers_are_restored_after_tracing_"
                                         "even_on_error wraps its capacity import",
    "oracle.pure_density": "perfbench test_twirl_useful_ratio_matches_a_direct_count",
    "oracle.mp_twirl": "perfbench test_twirl_useful_ratio_matches_a_direct_count",
    "oracle.su2_twirl": "perfbench test_twirl_useful_ratio_matches_a_direct_count",
    "oracle.random_pure_state": "perfbench test_twirl_useful_ratio_matches_a_direct_count",
}


def test_the_package_exports_the_decomposition_api():
    """The top-level names are the decomposition record, its entry point and
    the unbounded reference size; a model is its tag, "mp" or "su", and the
    tableau count is the shape walk's own step."""
    assert metrocap.__all__ == ["UNBOUNDED", "Decomposition", "decompose", "__version__"]
    assert not hasattr(metrocap, "multiplicity_su")


def test_every_public_name_is_used_or_kept():
    """Each public top-level function, class or constant of the package is
    named by some other top-level statement of it, or is one of the kept
    references above: what only the tests use lives in tests/reference.py."""
    statements = []  # (top-level statement, the names it refers to)
    defined = {}  # "module.name" -> its defining statement
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            names = set()
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom) and node.module:
                    names.update(alias.name for alias in node.names)
            statements.append((stmt, names))
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                targets = [stmt.name]
            elif isinstance(stmt, ast.Assign):
                targets = [t.id for t in stmt.targets if isinstance(t, ast.Name)]
            else:
                targets = [stmt.target.id] if isinstance(stmt, ast.AnnAssign) else []
            defined.update({f"{path.stem}.{name}": stmt for name in targets
                            if not name.startswith("_")})
    unused = {qualified for qualified, definition in defined.items()
              if not any(qualified.split(".")[1] in names
                         for stmt, names in statements if stmt is not definition)}
    assert unused == set(UNUSED_BUT_KEPT)
