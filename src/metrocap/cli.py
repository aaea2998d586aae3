"""Command-line front end.

Emits decompositions, capacities, distinguishability bounds, oracle
simulations and scaling sweeps as JSON or CSV on stdout.  Output is
deterministic for a fixed config; validation failures exit with
status 2 and one diagnostic line on stderr, and argparse's refusals with
status 2 after its usage lines and its error line.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import sys
import warnings
from functools import lru_cache
from itertools import chain, islice
from json.encoder import encode_basestring_ascii as _json_str
from operator import add, itemgetter
from types import SimpleNamespace
from typing import Callable, Iterable, NamedTuple, Optional, Sequence

from . import capacity as cap
from . import distinguish as dist
from .rep_core import (
    UNBOUNDED,
    _admit,
    _check_config,
    _check_fill,
    _weight_runs,
    _weight_walk,
    decompose,
)

SCHEMA = "1"
_LN2 = math.log(2.0)

# Most n values a scaling sweep may hold; larger sweeps are refused before
# any work.  Time and memory grow with the point count: 100 000 points of mp
# at t = 2 took 3.5 s and 125 MiB on a 2-vCPU Xeon VM (Python 3.11).
MAX_SCALING_POINTS = 10_000

# Most bits the support binomials of a report may hold together (every row
# of a scaling sweep, or the one of bounds and CSV capacity), estimated by
# _binomial_bits before any is computed.  The cost of one binomial grows faster
# than its size: C(n+t^2-1, t^2-1) took 0.97 s at 483 437 bits (n = 10^5,
# t = 1000) and 3.2 s at 780 017 bits (n = 2 * 10^5), so the budget keeps a
# report to seconds.
MAX_SCALING_BITS = 1_000_000

# Most conversion work a decompose report may take, in digit^2: the sum of
# D^2 over the integers it writes, D a number's decimal digit count, as
# _digit_work bounds it before any block is made.  CPython's int to str
# conversion is quadratic in D, about 1.6e-11 s per digit^2 in whole
# processes on a 2-vCPU Xeon VM (Python 3.11), and the bound is 1.7-2.7
# times the real sum (1.7 near the budget).  So the budget admits su
# n <= 2140 and mp n <= 1368 at t = 3 (su CSV 5.8 s at 226 MiB, mp JSON at
# 143 MiB, whole processes, the slowest admitted), and mp n <= 16403 and
# su n <= 20665 at t = 2; at t >= 4 MAX_BLOCKS refuses first.
MAX_DIGIT_WORK = 4 * 10**11

# Most cells render formats and writes at once: both writers (_write_chunks,
# _write_runs) cut a report's rows into chunks of max(1, CHUNK_CELLS // width)
# rows of ``width`` cells each, 4096 rows of mp decompose at t = 3 and 8 at
# t = 2000.  A report is held whole only as what its builder reads (a
# Decomposition's rows, a CapacityReport's, the mp runs); the text is written
# one chunk at a time, so a writer adds one chunk's cells or suffixes,
# template and text to that, whatever the report's length or t.  mp decompose
# at n = 16403, t = 2, one run of 16 404 rows whose chunks of 5461 rows hold
# up to 26 MiB of text, peaks at 98 MiB of RSS (whole process, 2-vCPU Xeon
# VM, Python 3.11): the runs and at most one chunk as bytes and as str.
CHUNK_CELLS = 16384


class RunConfig(NamedTuple):
    command: str
    model: str = "mp"
    n: int = 1
    t: int = 2
    l: Optional[int] = UNBOUNDED
    eps: float = 0.1
    alpha: Optional[float] = None
    beta: Optional[float] = None
    base: str = "e"
    format: str = "json"
    n_range: Optional[tuple] = None
    state: str = "bs4"
    codebook: Optional[str] = None


def _unit(base: str) -> str:
    return "nats" if base == "e" else "bits"


def _scaled(x: float, base: str) -> float:
    return x if base == "e" else x / _LN2


def _parse_l(text: str) -> Optional[int]:
    if text == "inf":
        return UNBOUNDED
    try:
        value = int(text)
    except ValueError:
        raise ValueError(f"--l must be a positive integer or 'inf', got {text!r}")
    if value < 1:
        raise ValueError(f"--l must be positive, got {value}")
    return value


def _parse_n_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"--n-range must look like start:stop:stride, got {text!r}")
    try:
        start, stop, stride = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"--n-range needs integers, got {text!r}")
    return start, stop, stride


class Table(NamedTuple):
    """A report's row list: for each column its name and the %-format of its
    cell as JSON writes it (``_label`` for a label, which takes one cell per
    entry), and the rows as an iterable of flat tuples, read once, in order,
    by render: one cell per % field of the formats, in column order.  A
    format without a % field is a literal, the same in every row, which
    takes no cell: mp decompose's dim and eff_mult ("1") and mp JSON
    capacity's p ("1/support"); at least one format has a field.  The
    formats are applied as bytes formats (_write_chunks), where %d, "%d/%d"
    and %r of a float give the text they give in str; a cell is an int or a
    float."""

    columns: tuple
    rows: Iterable[tuple]


class Runs(NamedTuple):
    """A report's row list as the mp weight runs (rep_core._weight_runs),
    each (prefix, r) or (prefix, r, cells): the rows (*prefix, a, r-a) or
    (*prefix, a, r-a, cell) for a = r, ..., 0, the tuple ``cells`` holding
    the one cell per row of the fields after the label, in that order.  The
    columns are a Table's, with the label first; render writes the same text
    as for the Table of those flat rows (_write_runs)."""

    columns: tuple
    runs: Iterable[tuple]


_EXACT = '"%d"'  # an exact integer, written as a decimal string


def _label(width: int) -> str:
    """JSON %-format of a label of ``width`` integers at the depth of a row
    field, as json.dumps(..., indent=2) lays it out there."""
    return "[\n" + ",\n".join(["        %d"] * width) + "\n      ]"


def _report(cfg: RunConfig, echo: str, body: dict) -> dict:
    """Report preamble: schema, command, the config fields named in ``echo``
    (in that order), then the command's own ``body``."""
    l = "inf" if cfg.l is UNBOUNDED else cfg.l
    config = {"model": cfg.model, "n": cfg.n, "t": cfg.t, "l": l, "log_base": cfg.base}
    echoed = {k: config[k] for k in echo.split()}
    return {"schema": SCHEMA, "command": cfg.command, **echoed, **body}


def _digit_work(model: str, n: int, t: int, blocks: int) -> int:
    """An upper bound, from closed forms, of sum D^2 over the dim, mult and
    eff_mult cells of the decompose report of ``blocks`` blocks, D a cell's
    decimal digit count.  Every mult is at most dim * mult <= t^n, of
    floor(n log10 t) + 1 digits (the float product is within 1e-9 of the
    exact log under the block budget, far less than the 1e-6 added).  Every
    su dim, and eff_mult <= dim, is at most isqrt(C(n+t^2-1, t^2-1)), as
    sum dim^2 is that Cauchy total, whose log _binomial_bits estimates within
    a quarter of a digit: a whole digit of margin.  mp writes dim and eff_mult
    as literals."""
    mult = math.floor(n * math.log10(t) + 1e-6) + 1
    if model == "mp":
        return blocks * mult * mult
    dim = math.floor(_binomial_bits(n, t * t - 1) * math.log10(2) / 2) + 2
    return blocks * (mult * mult + 2 * dim * dim)


def _build_decompose(cfg: RunConfig) -> dict:
    """Every block as a row (*label, dim, mult, eff_mult), for su the flat
    rows of decompose as they are; for mp the row is (*label, mult), and dim
    and eff_mult, 1 in every block, are literals of the row template.  The
    request is validated and its block budget and digit work
    (_digit_work, at most MAX_DIGIT_WORK) checked first; su's decompose then
    admits it again, a small fraction of the walk's cost.
    mp reads the runs of _weight_runs and holds no Decomposition or rows:
    their multinomials are checked to fill t^n by decompose's own fill
    check (_check_fill), before any byte is written, and render gets the
    runs as Runs."""
    blocks = _admit(cfg.model, cfg.n, cfg.t, cfg.l)
    work = _digit_work(cfg.model, cfg.n, cfg.t, blocks)
    if work > MAX_DIGIT_WORK:
        raise ValueError(f"the report's integers need about {work} digit^2 of decimal "
                         f"conversion (the sum of their squared digit counts), more than "
                         f"the budget of {MAX_DIGIT_WORK} (MAX_DIGIT_WORK)")
    label_column = ("label", _label(cfg.t))
    if cfg.model == "mp":
        runs = list(_weight_runs(cfg.n, cfg.t))
        _check_fill(sum(map(sum, map(itemgetter(2), runs))), cfg.n, cfg.t)
        columns = (label_column, ("dim", '"1"'), ("mult", _EXACT), ("eff_mult", '"1"'))
        return _report(cfg, "model n t l", {"entries": Runs(columns, runs)})
    rows = decompose(cfg.model, cfg.n, cfg.t, cfg.l).rows
    columns = (label_column, ("dim", _EXACT), ("mult", _EXACT), ("eff_mult", _EXACT))
    return _report(cfg, "model n t l", {"entries": Table(columns, rows)})


def _build_capacity(cfg: RunConfig) -> dict:
    """The capacity; in JSON also its support and every block's optimal
    weight p = num/den as a row (*label, num, den); for mp the row is the
    label alone, and p = 1/support, the same in every block, is a literal of
    the row template.  The mp labels are the runs of the weight walk over
    t-1 levels, handed to render as Runs; their row count, sum (r+1), must
    be C(n+t-1, t-1) before any byte is written.  The su rows are
    block_capacity's flat p rows, written cell for cell."""
    if cfg.format == "csv":  # the one CSV row shows neither: build no blocks, write no support
        support, body = _support(cfg), {}
    else:
        label_column = ("label", _label(cfg.t))
        if cfg.model == "mp":
            support = _admit(cfg.model, cfg.n, cfg.t, cfg.l)  # C(n+t-1, t-1) weights
            runs = [(counts[:-1], counts[-1]) for counts, _, _ in _weight_walk(cfg.n, cfg.t - 1)]
            blocks = sum(map(itemgetter(1), runs)) + len(runs)
            if blocks != support:
                raise ArithmeticError(f"{blocks} weights, expected C(n+t-1, t-1) = {support}")
            table = Runs((label_column, ("p", f'"1/{support}"')), runs)
        else:
            r = cap.block_capacity(cfg.n, cfg.t, cfg.l)
            support = r.support
            table = Table((label_column, ("p", '"%d/%d"')), r.p_rows)
        body = {"support": str(support), "optimal_p": table}
    return _report(cfg, "model n t l log_base", {
        f"capacity_{_unit(cfg.base)}": _scaled(math.log(support), cfg.base),
        **body,
    })


def _build_bounds(cfg: RunConfig) -> dict:
    if not 0.0 < cfg.eps < 1.0:
        raise ValueError(f"--eps must lie in (0, 1), got {cfg.eps}")
    if (cfg.alpha is None) != (cfg.beta is None):
        raise ValueError("--alpha and --beta must be given together")
    r = math.log(_support(cfg))
    # the optimal twirled spectrum is flat: each Renyi entropy is the capacity
    alpha = 2.0 if cfg.alpha is None else cfg.alpha
    b = dist.m_bounds_general(r, r, alpha, cfg.beta, cfg.eps)
    u = _unit(cfg.base)
    return _report(cfg, "model n t l log_base", {
        "alpha": b.alpha,
        "beta": b.beta,
        "epsilon": b.epsilon,
        f"lower_{u}": _scaled(b.lower, cfg.base),
        f"upper_{u}": _scaled(b.upper, cfg.base),
    })


def _build_simulate(cfg: RunConfig) -> dict:
    """The twirled spectrum's entropy of the requested state and, with a
    codebook, the lattice SRM success.  Every flag combination is checked
    before the oracle (numpy) is imported or any state built."""
    if cfg.t != 2:
        raise ValueError("simulate ships t = 2 states only")
    if cfg.state == "bn1" and cfg.model != "su":
        raise ValueError("--state bn1 needs --model su")
    if cfg.codebook is not None and cfg.model != "mp":
        raise ValueError("--codebook lattice needs --model mp")
    from . import oracle  # numpy, which only this command needs

    state = {"bs4": oracle.mp_optimal_state, "noon": oracle.noon_state,
             "bn1": oracle.su2_optimal_state}[cfg.state]
    spectrum = oracle.twirled_spectrum(state(cfg.n), cfg.model, cfg.n, cfg.t)
    success = None
    if cfg.codebook is not None:
        success = oracle.lattice_srm_success(spectrum, cfg.n, cfg.t)
    return _report(cfg, "model n t log_base", {
        "state_tag": cfg.state,
        "codebook_tag": cfg.codebook,
        "success_prob": success,
        f"entropy_{_unit(cfg.base)}": _scaled(oracle.empirical_mi(spectrum), cfg.base),
    })


def _binomial_bits(n: int, d: int) -> int:
    """log2 C(n+d, d) to the nearest bit, estimated without computing it.

    With k = min(n, d) and m = max(n, d), Stirling's formula gives

        ln C(m+k, k) ~ k ln(1 + m/k) + m ln(1 + k/m) + ln((m+k) / (2 pi m k)) / 2,

    off by less than 1/(6k).  No term is a difference of large numbers (a
    log-gamma difference loses the size to cancellation past about 2^57),
    and math.log reads ints of any size exactly.
    """
    k, m = (n, d) if n < d else (d, n)
    r = k / m  # 0.0 once m/k passes float range, where m ln(1 + k/m) is k
    log_k, log_mk = math.log(k), math.log(m + k)
    rate = log_mk - log_k + (math.log1p(r) / r if r else 1.0)  # nats per unit of k
    tail = (log_mk - math.log(m) - log_k - math.log(2 * math.pi)) / 2
    if k < 1e300:
        return round((k * rate + tail) / _LN2)
    # k * rate passes float range: the product in integers, in units of 2^-32 bits
    return (k * round(rate / _LN2 * 2**32) + round(tail / _LN2 * 2**32) + 2**31) >> 32


def _check_binomial_bits(model: str, t: int, ns: range) -> int:
    """The parameter count d (t-1 phases for mp, t^2-1 generators for su),
    once the support binomials C(n+d, d) over ``ns`` are admitted: their
    sizes, estimated by _binomial_bits before any is computed, may add up to
    MAX_SCALING_BITS; more is refused, naming the estimate."""
    d = t - 1 if model == "mp" else t * t - 1
    bits = sum(_binomial_bits(n, d) for n in ns)
    if bits <= MAX_SCALING_BITS:
        return d
    if len(ns) == 1:
        raise ValueError(f"the support C({ns[0] + d}, {d}) of about {bits} bits exceeds the "
                         f"budget of {MAX_SCALING_BITS} bits (MAX_SCALING_BITS)")
    raise ValueError(f"{len(ns)} binomials of about {bits} bits in all exceed the scaling "
                     f"budget of {MAX_SCALING_BITS} bits (MAX_SCALING_BITS)")


def _support(cfg: RunConfig) -> int:
    """capacity_support of the request, once its arguments are valid and its
    binomial, C(n+t^2-1, t^2-1) for su and C(n+t-1, t-1) for mp, is admitted."""
    _check_config(cfg.model, cfg.n, cfg.t, cfg.l)
    _check_binomial_bits(cfg.model, cfg.t, range(cfg.n, cfg.n + 1))
    return cap.capacity_support(cfg.model, cfg.n, cfg.t, cfg.l)


def _build_scaling(cfg: RunConfig) -> dict:
    """One row (n, capacity, baseline) per n of the sweep, and the slope.
    The range rule, ints with 1 <= start <= stop and stride >= 1, is checked
    here on the tuple, for argv and library configs alike."""
    if cfg.n_range is None:
        raise ValueError("scaling needs --n-range start:stop:stride")
    start, stop, stride = cfg.n_range
    text = f"{start}:{stop}:{stride}"
    if not all(isinstance(x, int) and not isinstance(x, bool) for x in cfg.n_range):
        raise ValueError(f"--n-range needs integers, got {text!r}")
    if start < 1 or stride < 1 or stop < start:
        raise ValueError(f"--n-range needs 1 <= start <= stop and stride >= 1, got {text!r}")
    ns = range(start, stop + 1, stride)
    if len(ns) < 3:
        raise ValueError("scaling needs at least three n values for a slope")
    if len(ns) > MAX_SCALING_POINTS:
        raise ValueError(f"{len(ns)} n values exceed the scaling budget of "
                         f"{MAX_SCALING_POINTS} points (MAX_SCALING_POINTS)")
    _check_config(cfg.model, start, cfg.t, UNBOUNDED)  # before the size estimate
    d = _check_binomial_bits(cfg.model, cfg.t, ns)
    try:  # the largest baseline, at the last n, bounds every row's
        finite = math.isfinite(_scaled(0.5 * d * math.log(ns[-1]), cfg.base))
    except OverflowError:  # d itself passes float range
        finite = False
    if not finite:
        raise ValueError(f"the baseline (d/2) log n passes float range at d = {d}")
    # the exact paths behind the sweep: l = 1 for mp, unbounded for su
    l_eff = 1 if cfg.model == "mp" else UNBOUNDED
    u = _unit(cfg.base)
    rows = [(n, _scaled(math.log(cap.capacity_support(cfg.model, n, cfg.t, l_eff)), cfg.base),
             _scaled(0.5 * d * math.log(n), cfg.base)) for n in ns]
    columns = (("n", "%d"), (f"capacity_{u}", "%r"), (f"baseline_{u}", "%r"))
    return _report(cfg._replace(l=l_eff), "model t l log_base", {
        "n_range": text,
        "fitted_slope": cap.scaling_fit([(n, value) for n, value, _ in rows]),
        "rows": Table(columns, rows),
    })


def _cell(value) -> str:
    """One report-level CSV cell; floats use repr so JSON and CSV carry
    identical digits."""
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_format(fmt: str) -> str:
    """CSV %-format of a row cell from its JSON one: a label's entries joined
    by '|', strings without their quotes."""
    if fmt.startswith("["):
        return "|".join(["%d"] * fmt.count("%d"))
    return fmt.strip('"')


def _write_chunks(table: Table, template: str, sep: str, lead: str,
                  write: Callable[[str], object]) -> bool:
    """Write ``lead`` and then the rows of ``table`` in chunks of
    max(1, CHUNK_CELLS // width) rows, width the % fields of its formats:
    each chunk is one ``%`` of a chunk template over the chunk's flat cells,
    the row ``template`` once per row, ``sep`` between rows and between
    chunks.  A later chunk's template is built once per chunk size.  Returns
    whether any row was written; a table without rows writes nothing, not
    even ``lead``.

    The templates are bytes, encoded once as UTF-8 with "surrogatepass" (any
    str round-trips), and each chunk's text is decoded back for ``write``:
    bytes ``%`` copies the literal text between fields whole, where str
    ``%`` reads it one character at a time.  ``%d`` and ``%%`` mean the same
    in bytes, and ``%r`` is ``%a``, the same text for floats."""
    width = sum(f.count("%") for _, f in table.columns)  # cells per row
    flat = chain.from_iterable(table.rows)
    budget = max(1, CHUNK_CELLS // width) * width  # the cells of whole rows
    chunks = iter(lambda: tuple(islice(flat, budget)), ())
    cells = next(chunks, None)
    if cells is None:
        return False
    template, sep = (s.encode("utf-8", "surrogatepass") for s in (template, sep))
    write(lead)
    write((sep.join([template] * (len(cells) // width)) % cells).decode("utf-8", "surrogatepass"))
    size = 0
    for cells in chunks:
        rows = len(cells) // width
        if rows != size:
            size, chunk_template = rows, (sep + template) * rows
        write((chunk_template % cells).decode("utf-8", "surrogatepass"))
    return True


def _write_runs(table: Runs, template: str, sep: str, lead: str,
                write: Callable[[str], object]) -> bool:
    """Write what _write_chunks writes for the flat rows of ``table``'s
    runs, write for write, without making the rows: ``lead``, then chunks of
    max(1, CHUNK_CELLS // width) rows, a run longer than a chunk cut between
    rows.

    The row ``template`` is cut before the label's last two fields (each
    %d), the pair (a, r-a).  Each run's prefix text is its part before the
    pair, formatted once per run with its literal ``%`` still escaped.  A
    row's suffix is the concatenation of two texts made once per report for
    each integer i up to the largest r: i's text and the literal up to r-a's
    field, for a = i, and i's text and the rest of the template, its fields
    still open, for r-a = i.  The suffixes of an r are made once, and kept
    for reuse where r recurs (t >= 4, a prefix of two entries or more).  The
    rows of a run in one chunk are then one bytes join of their suffixes
    around the prefix text and one ``%`` over their cells (none for a
    capacity run, where the ``%`` only unescapes ``%%``)."""
    runs = iter(table.runs)
    run = next(runs, None)
    if run is None:
        return False
    template, sep = (s.encode("utf-8", "surrogatepass") for s in (template, sep))
    fields = [m.span() for m in re.finditer(rb"%[dr%]", template) if m.group() != b"%%"]
    k = len(run[0])  # the prefix's fields
    (a_start, a_end), (b_start, b_end) = fields[k:k + 2]
    head = template[:a_start].replace(b"%%", b"%%%%")
    mid, rest = template[a_end:b_start], template[b_end:]
    size = max(1, CHUNK_CELLS // len(fields))  # rows per chunk
    firsts, seconds = [], []  # i's text and mid, i's text and rest, for i = 0, 1, ...
    kept = {}  # suffixes by r where r recurs, for this report only
    write(lead)
    pieces, free = [], size  # the current chunk's texts and its rows still free
    between = b""  # the text before a piece's first row: sep after the report's first row
    for prefix, r, *cells in chain((run,), runs):
        suffixes = kept.get(r)
        if suffixes is None:
            if r >= len(firsts):
                firsts += [b"%d" % i + mid for i in range(len(firsts), r + 1)]
                seconds += [b"%d" % i + rest for i in range(len(seconds), r + 1)]
            suffixes = list(map(add, firsts[r::-1], seconds[:r + 1]))
            if k >= 2:  # t >= 4; at t = 3 each r comes once
                kept[r] = suffixes
        text = head % prefix
        joiner = sep + text
        start = 0
        while start <= r:
            stop = min(r + 1, start + free)
            part = between + text + joiner.join(suffixes[start:stop])
            pieces.append(part % cells[0][start:stop] if cells else part % ())
            between, free, start = sep, free - (stop - start), stop
            if not free:
                _write_pieces(pieces, write)
                free = size
    if pieces:
        _write_pieces(pieces, write)
    return True


def _write_pieces(pieces: list, write: Callable[[str], object]) -> None:
    """Write the bytes of ``pieces`` as one str, the list emptied before
    ``write`` is called, so that only the str is alive while ``write`` runs
    (a real stdout encodes it again); a chunk of one piece is not copied."""
    text = b"".join(pieces).decode("utf-8", "surrogatepass")
    pieces.clear()
    write(text)


def render(report: dict, fmt: str, write: Callable[[str], object]) -> None:
    """Write the report through ``write`` as JSON (the layout of
    json.dumps(report, indent=2)) or as CSV with LF line endings.

    A report is a dict in output order; its row list, if any, is a Table or
    Runs, last.  The rows are written with one %-template per report and
    format: for JSON the row's object, for CSV its line with the
    report-level cells already in place.  _write_chunks (a Table) or
    _write_runs (Runs) writes the JSON preamble or CSV header, then cuts the
    rows into chunks, each one bytes ``%`` of that template repeated once
    per row over the chunk's flat cells (or, for runs, over each run's
    joined suffixes), decoded to one str for one call of ``write``, so no
    more than one chunk's text exists at a time, as bytes and as str.  The
    JSON preamble is json.dumps itself; a report without rows is json.dumps
    whole, in one call, and a CSV report whose one row is all from the
    report one line.
    """
    *head, (key, table) = report.items()
    write_rows = _write_runs if isinstance(table, Runs) else _write_chunks
    if fmt == "json":
        if not isinstance(table, (Table, Runs)):
            write(json.dumps(report, indent=2) + "\n")
            return
        preamble = json.dumps(dict(head), indent=2)[:-2]  # without the closing "\n}"
        fields = ",\n".join(f"      {_json_str(name).replace('%', '%%')}: {f}"
                            for name, f in table.columns)
        template = f"    {{\n{fields}\n    }}"
        opening = f"{preamble},\n  {_json_str(key)}: ["
        if write_rows(table, template, ",\n", opening + "\n", write):
            write("\n  ]\n}\n")
        else:
            write(opening + "]\n}\n")
    elif fmt == "csv":
        header = _COMMANDS[report["command"]].csv.format(u=_unit(report.get("log_base", "e")))
        names = header.split(",")
        if set(names) <= report.keys():  # one row, all from the report
            write(header + "\n" + ",".join([_cell(report[c]) for c in names]) + "\n")
            return
        formats = {name: _csv_format(f) for name, f in table.columns}
        template = ",".join([formats[c] if c in formats else _cell(report[c]).replace("%", "%%")
                             for c in names]) + "\n"
        if not write_rows(table, template, "", header + "\n", write):
            write(header + "\n")  # no rows: the header alone
    else:
        raise ValueError(f"unknown format tag {fmt!r}")


def run(config: RunConfig) -> int:
    """Validate, compute and print one report on stdout, one chunk of rows
    at a time (render).  Returns the exit status; a refused request, by the
    CLI or the library, raises ValueError before any byte is written.

    The command is read from _COMMANDS.  Before its builder runs, each field
    that the command declares, in the order of its flags, is checked: one
    with choices (model, base, format, and simulate's state and codebook)
    must be one of them, or RunConfig's default (codebook's None), else
    "unknown <field> tag" names the value; one of type int (n, t) must be an
    int, and one of type float (eps, alpha, beta) an int or a float, neither
    a bool, unless it is None, else "<field> must be an integer" or "a
    number" names it."""
    command = _COMMANDS.get(config.command)
    if command is None:
        raise ValueError(f"unknown command {config.command!r}")
    for f in command.flags.values():
        value = getattr(config, f.dest)
        if f.choices and value not in f.choices and value != RunConfig._field_defaults[f.dest]:
            raise ValueError(f"unknown {f.dest} tag {value!r}")
        if f.type in (int, float) and value is not None and (
                isinstance(value, bool) or not isinstance(value, (int, f.type))):
            kind = "an integer" if f.type is int else "a number"
            raise ValueError(f"{f.dest} must be {kind}, got {value!r}")
    report = command.build(config)
    # The interpreter's digit limit on int to str (none before CPython
    # 3.10.7) is lifted for the report's integers, whose conversion work the
    # builders bound, and put back on every way out; argv keeps it.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        render(report, config.format, sys.stdout.write)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


class _Flag(NamedTuple):
    """One option of a subcommand, as argparse declares it."""

    name: str
    dest: str
    type: Callable = str  # int, float, or str, which keeps the text
    choices: Optional[tuple] = None
    required: bool = False
    help: Optional[str] = None
    metavar: Optional[str] = None


class _Command(NamedTuple):
    """One subcommand: its summary line, its flags, the builder of its
    report, and its CSV header, where ``{u}`` is the unit.  A report that
    holds every column of the header is one CSV row; else its last item
    holds the rows, and a column that they lack is read from the report."""

    help: str
    flags: dict  # option string -> _Flag, in argparse's order
    required: frozenset  # dests of the required flags
    build: Callable[[RunConfig], dict]
    csv: str


def _command(summary: str, build: Callable[[RunConfig], dict], csv: str,
             *flags: _Flag) -> _Command:
    return _Command(summary, {f.name: f for f in flags},
                    frozenset(f.dest for f in flags if f.required), build, csv)


_MODEL = _Flag("--model", "model", choices=("mp", "su"), required=True)
_N = _Flag("--n", "n", int, required=True)
_T = _Flag("--t", "t", int)
_L = _Flag("--l", "l", help="reference size or 'inf'")
_BASE = _Flag("--base", "base", choices=("e", "2"))
_FORMAT = _Flag("--format", "format", choices=("json", "csv"))

# Every subcommand, in the order of their help text: the one declaration of
# its flags, builder and CSV header, which build_parser, _read_canonical, run
# and render read.
_COMMANDS = {
    "decompose": _command("list irrep blocks with exact sizes", _build_decompose,
                          "model,n,t,l,label,dim,mult,eff_mult",
                          _MODEL, _N, _T, _L, _BASE, _FORMAT),
    "capacity": _command("capacity and optimal block weights", _build_capacity,
                         "model,n,t,l,log_base,capacity_{u}",
                         _MODEL, _N, _T, _L, _BASE, _FORMAT),
    "bounds": _command("two-sided bracket on log M_eps", _build_bounds,
                       "model,n,t,l,alpha,beta,epsilon,lower_{u},upper_{u}",
                       _MODEL, _N, _T, _L, _BASE, _FORMAT, _Flag("--eps", "eps", float),
                       _Flag("--alpha", "alpha", float), _Flag("--beta", "beta", float)),
    "simulate": _command("dense-matrix experiment at small n", _build_simulate,
                         "model,n,t,state_tag,codebook_tag,success_prob,entropy_{u}",
                         _MODEL, _N, _T, _BASE, _FORMAT,
                         _Flag("--state", "state", choices=("bs4", "noon", "bn1")),
                         _Flag("--codebook", "codebook", choices=("lattice",))),
    "scaling": _command("capacity sweep against (d/2) log n", _build_scaling,
                        "model,n,t,l,capacity_{u},baseline_{u},fitted_slope",
                        _MODEL, _T, _BASE, _FORMAT,
                        _Flag("--n-range", "n_range", required=True, metavar="START:STOP:STRIDE")),
}


@lru_cache(maxsize=None)
def build_parser():
    """The argparse parser of _COMMANDS, built on first use and then reused:
    it reads every argv that _read_canonical declines, and is the one source
    of help, usage and refusal text."""
    import argparse  # with gettext, which only help and refusals need

    parser = argparse.ArgumentParser(
        prog="metrocap",
        description="Capacities, bounds and brute-force checks for "
        "tensor-power metrology models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sp = sub.add_parser(name, help=command.help)
        for f in command.flags.values():
            sp.add_argument(f.name, dest=f.dest, type=f.type, choices=f.choices,
                            required=f.required, help=f.help, metavar=f.metavar)
    return parser


def _read_canonical(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """The arguments of a canonical argv, read from _COMMANDS as argparse
    would read them, or None for any other argv.

    Canonical is a subcommand's exact name, then exact ``--flag value``
    pairs: each flag the subcommand's, at most once, and each value not
    starting with "-" (argparse may read such a value as an option), passing
    the flag's type and choices; every required flag present.  Abbreviated
    flags, ``--flag=value``, repeated flags, help and every refusal are
    argparse's to read."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None or not len(argv) % 2:
        return None
    values = {"command": argv[0]}
    for i in range(1, len(argv), 2):
        flag, text = command.flags.get(argv[i]), argv[i + 1]
        if flag is None or flag.dest in values or text.startswith("-"):
            return None
        try:
            value = flag.type(text)
        except ValueError:
            return None
        if flag.choices is not None and value not in flag.choices:
            return None
        values[flag.dest] = value
    if not command.required <= values.keys():
        return None
    return SimpleNamespace(**values)


def config_from_args(args) -> RunConfig:
    """RunConfig from every field the subcommand defines; unset flags keep
    RunConfig's defaults.  ``args`` holds one attribute per parsed flag, as
    argparse's namespace or _read_canonical's."""
    values = {name: getattr(args, name) for name in RunConfig._fields
              if getattr(args, name, None) is not None}
    for name, parse in (("l", _parse_l), ("n_range", _parse_n_range)):
        if name in values:
            values[name] = parse(values[name])
    return RunConfig(**values)


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One stderr line per library warning, without the source location, so
    stderr does not depend on where the package is installed."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one request from ``argv``; returns the exit status.

    The cyclic garbage collector is paused while the request runs and its
    output is flushed, and put back as it was found on every way out.  A
    report holds no cycle (row and label tuples, ints, strings), so
    reference counting frees it, and a collection would find only the few
    objects of json.dumps's encoder closures; yet the tens of thousands of
    row tuples of a large report trigger a hundred collections or more,
    which scan the rows and free none of them.

    A canonical argv (_read_canonical) is read from the flag table; argparse
    reads any other, and exits itself on help and on its refusals.
    """
    args = _read_canonical(sys.argv[1:] if argv is None else argv)
    if args is None:
        args = build_parser().parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            status = run(config_from_args(args))
        sys.stdout.flush()  # a closed pipe raises here, not at interpreter exit
        return status
    except ValueError as exc:  # every refusal, the CLI's and the library's
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader closed stdout (as `| head` does).  Python's documented
        # recipe: point stdout at devnull so that the flush at exit cannot
        # raise again, and fail quietly.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
