"""Property tests of the identities the exact paths and the report layer rely on.

Sizes stay small (n <= 30, t <= 5), except in the shape-walk tests, which
reach t = 40, in the JSON layout test, whose reports need at least 1000 rows,
and in the row-table writer test, whose exact integers reach 10^400.
Examples are derandomized, so every run checks the same cases, in a few
seconds.
"""

import contextlib
import io
import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from metrocap import cli
from metrocap.capacity import capacity_support, su_square_sum
from metrocap.cli import Table, _label, main, render
from metrocap.rep_core import UNBOUNDED, _shape_rows, _weight_rows, decompose
from reference import (
    check_rows,
    enumerated_square_sum,
    enumerated_su_support,
    factorial_multinomial,
    hook_length_count,
    pairwise_weyl_dim,
    partition_rows,
    report_to_csv,
    short_decreasing_counts,
    symmetric_matrix_count,
)

SMALL = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@SMALL
@given(n=st.integers(0, 30), t=st.integers(2, 5))
def test_cauchy_identity_matches_enumeration(n, t):
    """sum over lam |- n, <= t rows, of dim_lam^2 = dim Sym^n(C^t (x) C^t)."""
    assert su_square_sum(n, t) == enumerated_square_sum(n, t)


@SMALL
@given(n=st.integers(1, 30), t=st.integers(2, 5), l=st.integers(1, 6))
def test_finite_reference_support_matches_enumeration(n, t, l):
    """Cauchy total minus the deficit of the walked unsaturated shapes ==
    sum_lam d min(l f, d)."""
    assert capacity_support("su", n, t, l) == enumerated_su_support(n, t, l)


@SMALL
@given(n=st.integers(1, 30))
def test_su2_closed_form_matches_enumeration(n):
    assert (n + 1) * (n + 2) * (n + 3) // 6 == enumerated_square_sum(n, 2)


@st.composite
def partitions(draw):
    """Any partition of n <= 30 into at most t <= 5 rows, zero-padded to t."""
    n = draw(st.integers(0, 30))
    t = draw(st.integers(2, 5))
    return draw(st.sampled_from(list(partition_rows(n, t))))


@SMALL
@given(rows=partitions())
def test_frobenius_matches_hook_length(rows):
    """The walk's f = d M / Q of any shape is its hook-length count."""
    walked = {row[:len(rows)]: row[-2] for row in _shape_rows(sum(rows), len(rows))}
    assert walked[rows] == hook_length_count(rows)


@SMALL
@given(n=st.integers(0, 30), t=st.integers(2, 40))
def test_shape_walk_matches_per_shape_formulas(n, t):
    """The walk's carried products give, shape by shape and in order, the
    Weyl dimension and tableau count computed from each shape alone."""
    assert list(_shape_rows(n, t)) == [rows + (pairwise_weyl_dim(rows), hook_length_count(rows),
                                               pairwise_weyl_dim(rows))
                                       for rows in partition_rows(n, t)]


@SMALL
@given(n=st.integers(0, 8), t=st.integers(2, 5))
def test_shape_walk_counts_what_rsk_counts(n, t):
    """By Robinson-Schensted-Knuth, over shapes of at most t rows sum f^2
    counts the permutations with no decreasing subsequence longer than t,
    and sum f the involutions among them."""
    fs = [row[-2] for row in _shape_rows(n, t)]
    assert (sum(f * f for f in fs), sum(fs)) == short_decreasing_counts(n, t)


@SMALL
@given(n=st.integers(0, 40), t=st.integers(2, 7))
def test_shape_walk_dims_count_symmetric_matrices(n, t):
    """sum d counts the semistandard tableaux with entries 1..t, which RSK
    puts in bijection with the symmetric N-matrices of total n."""
    assert sum(row[-1] for row in _shape_rows(n, t, tableaux=False)) == \
        symmetric_matrix_count(n, t)


@SMALL
@given(n=st.integers(1, 30), t=st.integers(2, 40), l=st.integers(1, 6))
def test_pruned_shape_walk_is_the_filtered_walk(n, t, l):
    """Handed l and pruned, the walk yields exactly the rows of the full
    walk handed l with eff = l f < d, element for element and in order."""
    assert list(_shape_rows(n, t, l=l, prune=True)) == \
        [row for row in _shape_rows(n, t, l=l) if row[-1] < row[-3]]


@SMALL
@given(counts=st.lists(st.integers(0, 6), min_size=2, max_size=5))
def test_multinomial_matches_factorials(counts):
    """The multinomial of any one occupation vector of t >= 2 levels, in its
    weight row."""
    counts = tuple(counts)
    (mult,) = [row[-2] for row in _weight_rows(sum(counts), len(counts))
               if row[:-3] == counts]
    assert mult == factorial_multinomial(counts)


@SMALL
@given(n=st.integers(0, 25), t=st.integers(2, 5))
def test_incremental_multinomials_match_factorials(n, t):
    """Each weight's multinomial, updated from the one before, is exact."""
    for *counts, _, mult, _ in _weight_rows(n, t):
        assert mult == factorial_multinomial(counts)


@SMALL
@given(model=st.sampled_from(["mp", "su"]), n=st.integers(1, 12), t=st.integers(2, 5),
       l=st.one_of(st.integers(1, 6), st.just(UNBOUNDED)))
def test_decompose_rows_keep_the_row_rules(model, n, t, l):
    """decompose checks only the fill at run time; the rows its walks make
    keep every other row rule too (check_rows), on both models, with a
    finite or unbounded reference."""
    check_rows(model, n, t, decompose(model, n, t, l).rows)


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


@st.composite
def _tables(draw):
    """A decompose, capacity or scaling report as its builder hands it to
    render, with its rows as a Table of flat rows, the same report as plain
    dicts, and a chunk budget of cells that cuts the rows anywhere."""
    command = draw(st.sampled_from(["decompose", "capacity", "scaling"]))
    width = draw(st.integers(1, 8))
    exact = st.integers(0, 10**400)
    real = st.floats(allow_nan=False, allow_infinity=False)
    head = {"schema": "1", "command": command, "model": draw(st.text(max_size=4)),
            "n": draw(st.integers()), "t": width, "l": draw(st.integers(1) | st.just("inf")),
            "log_base": draw(st.sampled_from(["e", "2"])), "fitted_slope": draw(real)}
    u = "nats" if head["log_base"] == "e" else "bits"
    if command == "decompose":
        key, columns = "entries", (("label", _label(width)), ("dim", '"%d"'), ("mult", '"%d"'),
                                   ("eff_mult", '"%d"'))
        rows = draw(st.lists(st.tuples(*[st.integers()] * width, exact, exact, exact), max_size=5))
        dicts = [{"label": list(r[:width]), "dim": str(r[-3]), "mult": str(r[-2]),
                  "eff_mult": str(r[-1])} for r in rows]
    elif command == "capacity":
        head[f"capacity_{u}"] = draw(real)
        key, columns = "optimal_p", (("label", _label(width)), ("p", '"%d/%d"'))
        rows = draw(st.lists(st.tuples(*[st.integers()] * width, exact, exact), max_size=5))
        dicts = [{"label": list(r[:width]), "p": f"{r[-2]}/{r[-1]}"} for r in rows]
    else:
        key, columns = "rows", (("n", "%d"), (f"capacity_{u}", "%r"), (f"baseline_{u}", "%r"))
        rows = draw(st.lists(st.tuples(st.integers(), real, real), max_size=5))
        dicts = [{"n": n, f"capacity_{u}": c, f"baseline_{u}": b} for n, c, b in rows]
    return {**head, key: Table(columns, rows)}, {**head, key: dicts}, draw(st.integers(1, 40))


def _rendered(report: dict, fmt: str) -> str:
    """What render writes, joined."""
    out = []
    render(report, fmt, out.append)
    return "".join(out)


@SMALL
@given(reports=_tables())
def test_row_table_writer_matches_stdlib(reports):
    """One %-template per report against json.dumps of the dict rows, and
    its CSV against the dict-row reference on the parsed JSON, with the rows
    cut into chunks anywhere."""
    report, dict_form, budget = reports
    with mock.patch.object(cli, "CHUNK_CELLS", budget):
        json_out = _rendered(report, "json")
        assert json_out == json.dumps(dict_form, indent=2) + "\n"
        assert _rendered(report, "csv") == report_to_csv(json.loads(json_out))
