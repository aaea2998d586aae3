"""Mutation sweep of the exact walks, block_capacity's unsaturated rows and
p reduction, the Renyi bracket, the oracle's Schur basis, the CLI's
collector pause, closed-pipe descriptor, chunk writer, mp runs, digit-work
budget, lifted digit limit, argv table reader, run's check of the
table's choices and number types, and scaling's range rule: each listed
fault must fail a test.

The list holds 65 mutants.  Run from anywhere, with pytest and hypothesis
installed:

    python tests/mutants.py

For each entry of MUTANTS the sweep copies ``src`` to a temporary directory,
replaces one exact snippet of one file there, and runs the entry's test
files against the copy with ``-x``, so a killed mutant stops at its first
failing test, under a 2 GiB cap on the run's address space (RLIMIT_AS), so a
mutant that admits an infeasible request dies of a MemoryError.  By default
those are the exact-layer tests (tests/test_rep_core.py,
tests/test_capacity.py, tests/test_properties.py);
block_capacity's mutants name tests/test_capacity.py, or the one test there
that kills them (path::test), as do the effective multiplicities', the bracket's
tests/test_distinguish.py, the oracle's tests/test_oracle.py, the CLI's
tests/test_cli.py and its argv table reader's tests/test_argv.py.  The
unmutated copy must pass every test file of the list first.  A mutant marked
equivalent computes the same results by construction and is expected to pass
every test; its reason says why.

Exits 1 when a mutant that is not equivalent survives, when an equivalent one
is killed, when a snippet does not occur exactly once in its file, or when
pytest collects no test under a name the entry gives, so the list cannot go
stale silently.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
TESTS = ("tests/test_rep_core.py", "tests/test_capacity.py", "tests/test_properties.py")
CAPACITY_TESTS = ("tests/test_capacity.py",)
ORACLE_TESTS = ("tests/test_oracle.py",)
BRACKET_TESTS = ("tests/test_distinguish.py",)
CLI_TESTS = ("tests/test_cli.py",)
ARGV_TESTS = ("tests/test_argv.py",)
TIMEOUT_S = 600  # a mutant that makes the tests run this long counts as killed
MEMORY_CAP = 2 << 30  # bytes of address space per test run: a mutant that passes it dies


class Mutant(NamedTuple):
    path: str  # relative to src/metrocap
    snippet: str  # must occur exactly once in the file
    replacement: str
    reason: str
    equivalent: bool = False
    tests: tuple[str, ...] = TESTS  # relative to the repository root


MUTANTS = [
    # The shape walk's pruning with a finite reference size l.
    Mutant("rep_core.py", "if fill_q <= l * fill_m:", "if fill_q < l * fill_m:",
           "keeps a row whose greedy fill is exactly saturated (Q = l M)"),
    Mutant("rep_core.py", "if eff >= dim:  # saturated", "if eff > dim:  # saturated",
           "yields last-two-rows shapes with l f = d"),
    Mutant("rep_core.py", "floor = r + 1", "floor = r",
           "the kept run starts one row too narrow, at a saturated greedy fill"),
    Mutant("rep_core.py", "floor = r + 1", "floor = r + 2",
           "the kept run starts one row too wide and loses its narrowest row"),
    Mutant("rep_core.py", "s = min(r, left)", "s = left",
           "the greedy fill ignores the row cap, so it is no longer a completion"),
    Mutant("rep_core.py", "elif prune and not k:  # t = 2: each shape is a first row",
           "elif False:  # t = 2: each shape is a first row",
           "at t = 2 the kept first rows are not counted under the budgets"),
    Mutant("rep_core.py", "shapes += partition_count(boxes - r, t - 1, r)",
           "shapes += partition_count(boxes - r, t - 1)",
           "at t >= 3 the first rows' shapes are counted without the row cap"),
    Mutant("rep_core.py", "shapes += partition_count(boxes - r, t - 1, r)",
           "shapes += partition_count(boxes - r, t - 1, r - 1)",
           "at t >= 3 the first rows' shapes are counted under a cap one too low"),
    Mutant("capacity.py", "dim * (dim - l_f)", "dim * (dim - f)",
           "the deficit ignores the reference size"),
    # block_capacity: the one pass that weighs, merges and checks each shape.
    Mutant("capacity.py", "w = dim * due[-1]", "w = dim * dim",
           "an unsaturated shape weighs d^2, as if saturated", tests=CAPACITY_TESTS),
    Mutant("capacity.py", "if shape == due[:-2]:", "if shape[:-1] == due[:-3]:",
           "an unsaturated shape of another dimension than the full walk's passes unnoticed",
           tests=(f"{CAPACITY_TESTS[0]}::test_block_capacity_refuses_an_unsaturated_shape_it_"
                  "does_not_meet",)),
    Mutant("capacity.py", "list(_shape_rows(n, t, l=l, prune=True))", "list(_shape_rows(n, t, l=l))",
           "the unpruned walk handed l: every shape's tableau count is made, the saturated "
           "shapes' rows made twice",
           tests=(f"{CAPACITY_TESTS[0]}::test_capacity_json_takes_tableau_counts_only_for_"
                  "unsaturated_shapes",)),
    Mutant("capacity.py", "if walked != squares:", "if False:",
           "the full walk's sum d^2 is not checked against the Cauchy total",
           tests=(f"{CAPACITY_TESTS[0]}::test_block_capacity_checks_the_walk_against_the_"
                  "closed_forms",)),
    Mutant("capacity.py", "g = gcd(w, total)\n", "g = 1\n",
           "block_capacity's p keep the unreduced denominator sum w",
           tests=(f"{CAPACITY_TESTS[0]}::test_capacity_optimal_p_exact",)),
    # capacity()'s own reduction, the slow reference's.
    Mutant("capacity.py", "total // gcd(w, total))", "total)",
           "capacity()'s p keep the unreduced denominator sum w",
           tests=(f"{CAPACITY_TESTS[0]}::test_capacity_optimal_p_exact",)),
    # The shape walk and the tableau count without l.
    Mutant("rep_core.py", "floor = -(-boxes // (t - k))", "floor = -(-boxes // (t - k)) + 1",
           "the row floor one higher drops the shapes whose rows are all equal"),
    Mutant("rep_core.py", "q * comb(r + t - 1 - k, r), h, boxes - r)",
           "q * comb(r + t - k, r), h, boxes - r)",
           "Q's shift off by one in the walk's chosen rows"),
    Mutant("rep_core.py", "shape = rows + (0,) * (t - k)", "shape = rows + (0,) * (t - k - 1)",
           "a shape that ends before row t is padded with one zero row too few"),
    Mutant("rep_core.py", "shape = rows + (0,) * (t - k)", "shape = (0,) * (t - k) + rows",
           "a shape that ends before row t gets its zero rows first: d and f, and so the "
           "fill, unchanged, but the label no longer non-increasing",
           tests=("tests/test_properties.py::test_decompose_rows_keep_the_row_rules",)),
    Mutant("rep_core.py", "if tableaux:\n            m *= comb(boxes, widest)",
           "if tableaux:\n            m *= comb(boxes - 1, widest)",
           "M of the last two rows starts from the wrong binomial"),
    Mutant("rep_core.py", "raise ArithmeticError(f\"non-integer binomial C({boxes}, {a - 1})\")",
           "pass",
           "the binomial step's guard: m a / (b+1) is the prefix's M times C(boxes, a-1), so "
           "it cannot fire on a correct walk, and a wrong comb trips the tableau-count guard "
           "of the shape before it", equivalent=True),
    # The mp weight walk and its multinomials.
    Mutant("rep_core.py", "moved = counts[last] + 1", "moved = counts[last]",
           "the units moved to level k+1 lose the one taken from level k"),
    Mutant("rep_core.py", "divmod(mult * num, den)", "divmod(mult * num, den + 1)",
           "the multinomial step divides by one too many"),
    Mutant("rep_core.py", "if k + 1 < last:", "if k + 1 <= last:",
           "a move into the last level also empties it and marks it live"),
    Mutant("rep_core.py", "            counts[last] = 0\n", "",
           "the last level keeps its units when they move up to level k+1"),
    # The mp runs: a binomial row per run, half of it times the run's multinomial, mirrored.
    Mutant("rep_core.py", "row = tuple(map(add, row + (0,), (0,) + row))",
           "row = tuple(map(add, row + (0,), (0, 0) + row))",
           "the Pascal step shifted by one: C(r, a) takes C(r-1, a-2) for C(r-1, a-1)"),
    Mutant("rep_core.py", "if row and r == len(row):  # r rose by one", "if row:  # r rose by one",
           "the row of the run before is stepped even after a reset to r = 0"),
    Mutant("rep_core.py", "half + half[:(r + 1) // 2][::-1]", "half + half[:r // 2 + 1][::-1]",
           "the mirror off by one: at even r the middle multinomial is written twice",
           tests=("tests/test_rep_core.py::test_weight_runs_are_the_walk_by_its_last_two_levels",)),
    Mutant("rep_core.py", "zip(range(r, -1, -1), range(r + 1), *columns)",
           "zip(range(r + 1), range(r, -1, -1), *columns)",
           "_run_rows expands a run in ascending a, for decompose and the CLI's mp reports"),
    # Admission and the su effective multiplicities, made in the shape walk.
    Mutant("rep_core.py", "eff = l * f\n", "eff = f\n",
           "su eff_mult ignores the reference size"),
    Mutant("rep_core.py", "                        break\n                    eff = dim\n",
           "                        break\n",
           "a saturated shape's eff is written as l f, past its dimension",
           tests=("tests/test_rep_core.py::test_rows_match_slow_references",)),
    Mutant("rep_core.py", "eff = l * f\n", "eff = dim\n",
           "an unsaturated shape's eff is written as d, as if saturated",
           tests=("tests/test_rep_core.py::test_rows_match_slow_references",)),
    Mutant("rep_core.py", "dim if l is None else min(l * f, dim)", "dim",
           "a shape whose zero rows telescope gets eff = d, saturated or not",
           tests=("tests/test_rep_core.py::test_rows_match_slow_references",)),
    Mutant("rep_core.py", "or l < 1):", "or l < 0):",
           "a reference size of 0 is admitted"),
    Mutant("rep_core.py", "return n // 2 + 1", "return n // 2",
           "the t = 2 count and the su admission shortcut name one block too few"),
    Mutant("rep_core.py", "return ((n + 3) ** 2 + 6) // 12", "return ((n + 3) ** 2) // 12",
           "the t = 3 count rounds down, one too few where (n+3)^2 mod 12 >= 6"),
    # decompose's one runtime check of its walks: a wrong su dimension.
    Mutant("rep_core.py", "    _check_fill(sum(map(mul, map(itemgetter(-3), rows), "
           "map(itemgetter(-2), rows))), n, t)\n    return Decomposition(",
           "    return Decomposition(",
           "decompose no longer checks that its su blocks fill t^n",
           tests=(f"{CAPACITY_TESTS[0]}::test_block_capacity_checks_the_walk_against_the_"
                  "closed_forms",)),
    # The Renyi bracket on log M_eps.
    Mutant("distinguish.py", "beta = 0.0", "beta = 0.5",
           "the beta -> 0 limit takes beta = 1/2", tests=BRACKET_TESTS),
    Mutant("distinguish.py", "/ (beta - 1.0)", "/ (1.0 - beta)",
           "the upper bound's divisor changes sign", tests=BRACKET_TESTS),
    Mutant("distinguish.py", "/ (alpha - 1.0)", "/ alpha",
           "the lower bound divides by alpha, not alpha - 1", tests=BRACKET_TESTS),
    # The SU(2) Schur basis, coupled one qubit at a time.
    Mutant("oracle.py", "math.sqrt((two_j - i) / two_j) * up[i]",
           "math.sqrt((two_j - i + 1) / two_j) * up[i]",
           "the up coupling's sqrt((j + m) / 2j) reads j + m + 1", tests=ORACLE_TESTS),
    Mutant("oracle.py", "= -math.sqrt((i + 1) / (two_j + 2)) * down[i + 1]",
           "= math.sqrt((i + 1) / (two_j + 2)) * down[i + 1]",
           "the down coupling loses its Condon-Shortley minus sign", tests=ORACLE_TESTS),
    Mutant("oracle.py", "math.sqrt((two_j + 1 - i) / (two_j + 2)) * down[i]",
           "math.sqrt((two_j + 2 - i) / (two_j + 2)) * down[i]",
           "the down coupling's sqrt((j + m + 1) / (2j + 2)) reads j + m + 2", tests=ORACLE_TESTS),
    Mutant("oracle.py", "for w, (rows, cols) in enumerate(zip(classes, columns)):",
           "for w, (rows, cols) in enumerate(zip(classes[:-1], columns)):",
           "the orthonormality check skips the last weight class", tests=ORACLE_TESTS),
    Mutant("oracle.py", "basis[classes[w], start : start + mult] = vec",
           "basis[classes[w][::-1], start : start + mult] = vec",
           "each class is written in reversed row order: still orthonormal class by class, "
           "but no longer the lowering layout", tests=ORACLE_TESTS),
    # main's pause of the cyclic garbage collector.
    Mutant("cli.py", "gc.enable()", "pass",
           "the pause is never restored: main leaves the collector off", tests=CLI_TESTS),
    Mutant("cli.py", "gc.disable()", "pass",
           "the pause is never taken: a large report runs the collector", tests=CLI_TESTS),
    Mutant("cli.py", "os.close(devnull)", "pass",
           "a closed-pipe request leaves its devnull descriptor open", tests=CLI_TESTS),
    # render's chunk writer: one bytes % per chunk over its flat cells, decoded for write.
    Mutant("cli.py", 'template, ",\\n", opening', 'template, ",", opening',
           "JSON rows of a chunk, and the chunks, are joined without the newline",
           tests=CLI_TESTS),
    Mutant("cli.py", 'width = sum(f.count("%") for _, f in table.columns)',
           'width = sum(f.count("%") for _, f in table.columns) - 1',
           "the row width counted one field short: a chunk's cells are read as more rows",
           tests=CLI_TESTS),
    Mutant("cli.py", "budget = max(1, CHUNK_CELLS // width) * width",
           "budget = max(1, CHUNK_CELLS // width)",
           "chunks cut by cells, not whole rows: a chunk holds a width-th of its rows, or a "
           "row's cells split across two chunks",
           tests=(f"{CLI_TESTS[0]}::test_every_builder_chunk_holds_rows_times_width_cells",)),
    Mutant("cli.py", 's.encode("utf-8", "surrogatepass")', 's.encode("utf-8", "strict")',
           "the templates encoded strictly: a report-level cell holding a lone surrogate, "
           "which the str writer wrote, raises",
           tests=(f"{CLI_TESTS[0]}::test_row_table_writer_round_trips_any_text_and_float_cells",)),
    # The CLI's mp reports from the runs, and their checks before any byte.
    Mutant("cli.py", "_check_fill(sum(map(sum, map(itemgetter(2), runs))), cfg.n, cfg.t)", "pass",
           "mp decompose writes runs whose multinomials do not fill t^n", tests=CLI_TESTS),
    Mutant("cli.py", "if blocks != support:", "if False:",
           "mp JSON capacity writes runs that miss a label", tests=CLI_TESTS),
    # decompose's digit-work budget, and the digit limit lifted for render.
    Mutant("cli.py", "if work > MAX_DIGIT_WORK:", "if work <= MAX_DIGIT_WORK:",
           "the budget comparison inverted: only the reports over the budget are written",
           tests=(f"{CLI_TESTS[0]}::test_digit_work_budget_exits_2_at_once",)),
    Mutant("cli.py", "work = _digit_work(cfg.model, cfg.n, cfg.t, blocks)", "work = 0",
           "the estimate dropped: every report under the block budget is written",
           tests=(f"{CLI_TESTS[0]}::test_digit_work_budget_exits_2_at_once",)),
    Mutant("cli.py", "sys.set_int_max_str_digits(0)", "pass",
           "the limit not lifted: a report's integers past the interpreter's limit fail "
           "in render", tests=(f"{CLI_TESTS[0]}::test_reports_are_the_same_bytes_under_any_"
                               "digit_limit",)),
    # The argv table reader: what it must leave to argparse.
    Mutant("cli.py", "if flag is None or flag.dest in values or", "if flag is None or",
           "a repeated flag is read, where canonical argv give each flag once",
           tests=ARGV_TESTS),
    Mutant("cli.py", "if flag.choices is not None and value not in flag.choices:", "if False:",
           "a value outside the flag's choices is read, where argparse refuses it",
           tests=ARGV_TESTS),
    Mutant("cli.py", "if not command.required <= values.keys():", "if False:",
           "an argv without a required flag is read, where argparse refuses it",
           tests=ARGV_TESTS),
    Mutant("cli.py", ' or text.startswith("-"):', ":",
           "a value starting with - is read, where argparse may read an option",
           tests=ARGV_TESTS),
    Mutant("cli.py", "flag, text = command.flags.get(argv[i]), argv[i + 1]",
           "flag, text = {f.name: f for c in _COMMANDS.values()\n"
           "                      for f in c.flags.values()}.get(argv[i]), argv[i + 1]",
           "another subcommand's flag is read, where argparse refuses it", tests=ARGV_TESTS),
    # run's check of the table's choices, before any builder.
    Mutant("cli.py", "if f.choices and value not in f.choices and value != "
                     "RunConfig._field_defaults[f.dest]:", "if False:",
           "a library config with a bad tag reaches its builder: bounds writes bits under "
           "log_base '10'", tests=(f"{CLI_TESTS[0]}::test_run_refuses_a_bad_tag_before_any_"
                                  "builder",)),
    # run's check of the table's number types, and scaling's range rule on the tuple.
    Mutant("cli.py", "if f.type in (int, float) and value is not None and (", "if False and (",
           "a library config with n=True reaches its builder: simulate writes \"n\": true",
           tests=(f"{CLI_TESTS[0]}::test_run_refuses_a_bad_tag_before_any_builder",)),
    Mutant("cli.py", "if start < 1 or stride < 1 or stop < start:",
           "if start < 1 or stop < start:",
           "a stride of 0 reaches range(), whose own message names no flag",
           tests=(f"{CLI_TESTS[0]}::test_scaling_n_range_rule_is_the_same_for_argv_and_"
                  "library",)),
]


def _cap_memory() -> None:
    """Cap the test run's address space, in the child before pytest starts:
    a mutant that admits an infeasible request then fails at once with a
    MemoryError instead of growing until the timeout."""
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def run(workdir: Path, tests, mutant: Optional[Mutant] = None) -> tuple[bool, str]:
    """Run the test files on a fresh copy of src, with one mutant applied if
    given; (killed, note)."""
    src = workdir / "src"
    if src.exists():
        shutil.rmtree(src)
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    if mutant is not None:
        target = src / "metrocap" / mutant.path
        text = target.read_text()
        count = text.count(mutant.snippet)
        if count != 1:
            raise LookupError(f"{mutant.path}: snippet occurs {count} times: {mutant.snippet!r}")
        target.write_text(text.replace(mutant.snippet, mutant.replacement))
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    where = subprocess.run([sys.executable, "-c", "import metrocap; print(metrocap.__file__)"],
                           env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    if not where.stdout.strip().startswith(str(src)):
        raise RuntimeError(f"the tests would import metrocap from {where.stdout.strip()}")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=TIMEOUT_S,
            preexec_fn=_cap_memory)
    except subprocess.TimeoutExpired:
        return True, f"timed out after {TIMEOUT_S} s"
    if done.returncode in (4, 5):  # pytest's usage error (a name not found) or no tests
        raise LookupError(f"pytest collects no test under {' '.join(tests)}: "
                          f"{done.stdout.strip().splitlines()[-1:]}")
    if done.returncode == 0:
        return False, "every test passed"
    failed = [line for line in done.stdout.splitlines() if line.startswith("FAILED")]
    return True, failed[0] if failed else f"pytest exited {done.returncode}"


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory(prefix="metrocap-mutants-") as tmp:
        every = list(dict.fromkeys(test for mutant in MUTANTS for test in mutant.tests))
        failed, note = run(Path(tmp), every)
        if failed:  # every mutant would count as killed
            print(f"the unmutated source fails the tests: {note}")
            return 1
        for i, mutant in enumerate(MUTANTS, 1):
            start = time.perf_counter()
            try:
                killed, note = run(Path(tmp), mutant.tests, mutant)
            except LookupError as exc:
                killed, note = None, str(exc)
            ok = killed is not None and killed != mutant.equivalent
            bad += not ok
            status = {None: "STALE", True: "killed", False: "survived"}[killed]
            tag = "equivalent, " if mutant.equivalent else ""
            print(f"{i:2d} {'ok ' if ok else 'BAD'} {status} ({tag}{time.perf_counter() - start:.1f} s) "
                  f"{mutant.path}: {mutant.reason}\n     {note}", flush=True)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
