"""Property tests of the identities the exact paths and the report layer rely on.

Sizes stay small (n <= 30, t <= 5) and examples are derandomized, so every
run checks the same cases in about a second.
"""

import contextlib
import io
import json
from math import factorial

from hypothesis import given, settings
from hypothesis import strategies as st

from metrocap.capacity import su2_closed_form, su_square_sum
from metrocap.cli import main, report_to_csv
from metrocap.rep_core import WeightVector, enumerate_partitions, multiplicity_mp, multiplicity_su
from reference import enumerated_square_sum, hook_length_count

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
    expected = factorial(sum(counts))
    for c in counts:
        expected //= factorial(c)
    assert multiplicity_mp(WeightVector(tuple(counts))) == expected


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
