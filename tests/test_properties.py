"""Property tests of the identities the exact paths and the report layer rely on.

Sizes stay small (n <= 30, t <= 5), except in the JSON layout test, whose
reports need at least 1000 rows.  Examples are derandomized, so every run
checks the same cases, in a few seconds.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from metrocap.capacity import su2_closed_form, su_square_sum
from metrocap.cli import _json_cells, main, report_to_csv
from metrocap.rep_core import (
    WeightVector,
    _weight_rows,
    enumerate_partitions,
    multiplicity_mp,
    multiplicity_su,
)
from reference import enumerated_square_sum, factorial_multinomial, hook_length_count

SMALL = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@SMALL
@given(n=st.integers(0, 30), t=st.integers(2, 5))
def test_cauchy_identity_matches_enumeration(n, t):
    """sum over lam |- n, <= t rows, of dim_lam^2 = dim Sym^n(C^t (x) C^t)."""
    assert su_square_sum(n, t) == enumerated_square_sum(n, t)


@SMALL
@given(n=st.integers(1, 30))
def test_su2_closed_form_matches_enumeration(n):
    assert su2_closed_form(n) == enumerated_square_sum(n, 2)


@st.composite
def partitions(draw):
    """Any partition of n <= 30 into at most t <= 5 rows."""
    n = draw(st.integers(0, 30))
    t = draw(st.integers(1, 5))
    return draw(st.sampled_from(enumerate_partitions(n, t)))


@SMALL
@given(lam=partitions())
def test_frobenius_matches_hook_length(lam):
    assert multiplicity_su(lam, lam.n) == hook_length_count(lam.rows)


@SMALL
@given(counts=st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_multinomial_matches_factorials(counts):
    assert multiplicity_mp(WeightVector(tuple(counts))) == factorial_multinomial(counts)


@SMALL
@given(n=st.integers(0, 25), t=st.integers(1, 5))
def test_incremental_multinomials_match_factorials(n, t):
    """Each weight's multinomial, updated from the one before, is exact."""
    for counts, _, mult, _ in _weight_rows(n, t):
        assert mult == factorial_multinomial(counts)


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0, err.getvalue()
    return out.getvalue()


@st.composite
def argvs(draw):
    """One valid argv: any command, model, small n and t, l and base."""
    command = draw(st.sampled_from(["decompose", "capacity", "bounds", "simulate", "scaling"]))
    model = draw(st.sampled_from(["mp", "su"]))
    base = draw(st.sampled_from(["e", "2"]))
    if command == "simulate":  # dense oracle: t = 2 and 2^n-dimensional states
        state = "bn1" if model == "su" else draw(st.sampled_from(["bs4", "noon"]))
        n = draw(st.integers(1, 4))
        return [command, "--model", model, "--n", str(n), "--t", "2", "--state", state,
                "--base", base]
    t = draw(st.integers(2, 5))
    if command == "scaling":
        start = draw(st.integers(1, 10))
        return [command, "--model", model, "--t", str(t), "--n-range", f"{start}:{start + 20}:10",
                "--base", base]
    n = draw(st.integers(1, 30 if t <= 3 else 12))
    l = draw(st.sampled_from(["1", "2", "5", "inf"]))
    return [command, "--model", model, "--n", str(n), "--t", str(t), "--l", l, "--base", base]


@SMALL
@given(argv=argvs())
def test_json_csv_round_trip(argv):
    json_out = _cli(argv + ["--format", "json"])
    csv_out = _cli(argv + ["--format", "csv"])
    report = json.loads(json_out)
    assert report_to_csv(report) == csv_out
    if argv[0] == "decompose":
        n, t = report["n"], report["t"]
        assert sum(int(e["dim"]) * int(e["mult"]) for e in report["entries"]) == t**n
        assert all(1 <= int(e["eff_mult"]) <= int(e["dim"]) for e in report["entries"])


# Smallest n at which a (model, t) decomposition has 1000 blocks; the largest
# golden output is 772 bytes, so these reports are far larger.
_THOUSAND_BLOCKS = {("su", 3): 107, ("su", 4): 48, ("su", 5): 34,
                    ("mp", 3): 44, ("mp", 4): 17, ("mp", 5): 10}


@st.composite
def large_argvs(draw):
    """One valid argv whose report lists at least 1000 rows (one row for bounds)."""
    command = draw(st.sampled_from(["decompose", "capacity", "bounds", "scaling"]))
    model = draw(st.sampled_from(["mp", "su"]))
    t = draw(st.integers(3, 5))
    base = draw(st.sampled_from(["e", "2"]))
    if command == "scaling":
        start = draw(st.integers(1, 50))
        return [command, "--model", model, "--t", str(t),
                "--n-range", f"{start}:{start + 1998}:2", "--base", base]
    n = _THOUSAND_BLOCKS[model, t] + draw(st.integers(0, 10))
    l = draw(st.sampled_from(["1", "2", "5", "inf"]))
    return [command, "--model", model, "--n", str(n), "--t", str(t), "--l", l, "--base", base]


@settings(max_examples=16, deadline=None, derandomize=True, database=None)
@given(argv=large_argvs())
def test_large_reports_have_the_stdlib_json_layout(argv):
    """The JSON writer against the stdlib as the independent reference."""
    json_out = _cli(argv + ["--format", "json"])
    report = json.loads(json_out)
    assert json_out == json.dumps(report, indent=2) + "\n"
    assert _cli(argv + ["--format", "csv"]) == report_to_csv(report)


_scalars = (st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6))
_json_values = st.recursive(
    _scalars, lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=4), kids),
    max_leaves=10)


@st.composite
def _row_lists(draw):
    """Lists of rows: dicts with one key order, as reports hold them."""
    keys = draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
    size = draw(st.integers(0, 3))
    cell = _scalars | st.lists(st.integers(), min_size=size, max_size=size) | _json_values
    return draw(st.lists(st.fixed_dictionaries({k: cell for k in keys}), min_size=1, max_size=5))


@SMALL
@given(value=_json_values | _row_lists(), pad=st.sampled_from(["", "  ", "    "]))
def test_json_writer_matches_stdlib(value, pad):
    assert _json_cells([value], pad) == [json.dumps(value, indent=2).replace("\n", "\n" + pad)]
