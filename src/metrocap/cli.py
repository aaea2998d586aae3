"""Command-line front end.

Emits decompositions, capacities, distinguishability bounds, oracle
simulations and scaling sweeps as JSON or CSV on stdout.  Output is
deterministic for a fixed config and seed; validation failures exit with
status 2 and one diagnostic line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass, fields, replace
from functools import lru_cache
from json.encoder import encode_basestring_ascii as _json_str
from typing import NamedTuple, Optional, Sequence

from . import capacity as cap
from . import distinguish as dist
from .rep_core import (
    UNBOUNDED,
    Model,
    RefSize,
    _admit,
    _check_config,
    decompose,
)

SCHEMA = "1"
_LN2 = math.log(2.0)

# Most n values a scaling sweep may hold; larger sweeps are refused before
# any work.  Time and memory grow with the point count: 100 000 points of mp
# at t = 2 took 3.5 s and 125 MiB on a 2-vCPU Xeon VM (Python 3.11).
MAX_SCALING_POINTS = 10_000

# Most bits the support binomials of a report may hold together (every row
# of a scaling sweep, or the one of bounds and CSV capacity), estimated from
# log-gamma before any is computed.  The cost of one binomial grows faster
# than its size: C(n+t^2-1, t^2-1) took 0.97 s at 483 437 bits (n = 10^5,
# t = 1000) and 3.2 s at 780 017 bits (n = 2 * 10^5), so the budget keeps a
# report to seconds.
MAX_SCALING_BITS = 1_000_000


class CLIError(Exception):
    """Invalid configuration; maps to exit status 2."""


@dataclass
class RunConfig:
    command: str
    model: str = "mp"
    n: int = 1
    t: int = 2
    l: RefSize = UNBOUNDED
    eps: float = 0.1
    alpha: Optional[float] = None
    beta: Optional[float] = None
    base: str = "e"
    format: str = "json"
    seed: int = 0
    n_range: Optional[tuple] = None
    state: str = "bs4"
    codebook: Optional[str] = None


def _unit(base: str) -> str:
    return "nats" if base == "e" else "bits"


def _scaled(x: float, base: str) -> float:
    return x if base == "e" else x / _LN2


def _parse_l(text: str) -> RefSize:
    if text == "inf":
        return UNBOUNDED
    try:
        value = int(text)
    except ValueError:
        raise CLIError(f"--l must be a positive integer or 'inf', got {text!r}")
    if value < 1:
        raise CLIError(f"--l must be positive, got {value}")
    return value


def _parse_n_range(text: str) -> tuple:
    parts = text.split(":")
    if len(parts) != 3:
        raise CLIError(f"--n-range must look like start:stop:stride, got {text!r}")
    try:
        start, stop, stride = (int(p) for p in parts)
    except ValueError:
        raise CLIError(f"--n-range needs integers, got {text!r}")
    if start < 1 or stride < 1 or stop < start:
        raise CLIError(f"--n-range needs 1 <= start <= stop and stride >= 1, got {text!r}")
    return start, stop, stride


class Table(NamedTuple):
    """A report's row list: flat row tuples, and for each column its name and
    the %-format of its cell as JSON writes it (``_label`` for a label,
    which takes one tuple element per entry)."""

    columns: tuple
    rows: list


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


def _refuse_digits(log_largest: float, limit: int) -> None:
    """The refusal of a report whose largest multiplicity, of natural log
    ``log_largest``, reaches 10^limit."""
    digits = max(limit + 1, math.floor(log_largest / math.log(10)) + 1)
    raise CLIError(f"the largest multiplicity has about {digits} digits, more than "
                   f"the {limit} digits of the interpreter's limit for integer "
                   f"string conversion (sys.get_int_max_str_digits())")


def _check_multiplicity_digits(n: int, t: int) -> None:
    """Refuse an mp report whose largest multiplicity has more decimal digits
    than the interpreter converts to a string (sys.get_int_max_str_digits(),
    0 for no limit), before any block is made.

    The largest multinomial n! / prod_k c_k! is the balanced occupation's:
    moving a unit from a count to one at least two smaller raises it.  It is
    built level by level as the product of the binomials C(c_0+...+c_k, c_k),
    one exact factor (a+j)/j at a time; the product never falls, so the loop
    stops once it reaches 10^limit.  The digit count named is from log-gamma.
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    q, extra = divmod(n, t)
    counts = [q + 1] * extra + [q] * (t - extra)
    ceiling = 10**limit
    product, filled = 1, counts[0]
    for c in counts[1:]:
        for j in range(1, c + 1):
            product = product * (filled + j) // j
            if product >= ceiling:
                _refuse_digits(math.lgamma(n + 1) - math.fsum(math.lgamma(k + 1) for k in counts),
                               limit)
        filled += c


def _check_tableau_digits(n: int) -> None:
    """As ``_check_multiplicity_digits``, for su: refuse a report whose two-row
    tableau counts f_k = C(n,k) - C(n,k-1) = n! (n-2k+1) / (k! (n-k+1)!)
    reach 10^limit.  f_{k+1} >= f_k exactly when (n-2k)^2 >= n+2, so the
    binomials are built one exact factor at a time up to the peak k*, and the
    loop stops at the first count that reaches 10^limit.

    At t = 2 these are all the multiplicities, so the check is exact.  At
    t >= 3 a longer shape may count more, so the check is sound but not
    complete, and the writer's ValueError (exit 2) stays the backstop; under
    the default limit it cannot fire, since f_lambda <= t^n and the block
    budget caps t = 3 at n = 3461 (1652 digits).
    """
    limit = sys.get_int_max_str_digits()
    if not limit:
        return
    peak = (n - math.isqrt(n + 1) + 1) // 2
    ceiling = 10**limit
    below = binom = 1  # C(n, k-1) and C(n, k)
    for k in range(1, peak + 1):
        below, binom = binom, binom * (n - k + 1) // k
        if binom - below >= ceiling:
            _refuse_digits(math.lgamma(n + 1) - math.lgamma(peak + 1) - math.lgamma(n - peak + 2)
                           + math.log(n - 2 * peak + 1), limit)


def _build_decompose(cfg: RunConfig) -> dict:
    """Every block as a row (*label, dim, mult, eff_mult).  Requests are
    validated and their block budget checked once, first, so that the digit
    checks only see admitted requests."""
    model = _admit(cfg.model, cfg.n, cfg.t, cfg.l)
    if model is Model.MULTI_PHASE:
        _check_multiplicity_digits(cfg.n, cfg.t)
    else:
        _check_tableau_digits(cfg.n)
    d = decompose(model, cfg.n, cfg.t, cfg.l, admitted=True)
    columns = (("label", _label(cfg.t)), ("dim", _EXACT), ("mult", _EXACT), ("eff_mult", _EXACT))
    rows = [(*label, dim, mult, eff) for label, dim, mult, eff in d.rows]
    return _report(cfg, "model n t l", {"entries": Table(columns, rows)})


def _build_capacity(cfg: RunConfig) -> dict:
    """The capacity and its support; in JSON also every block's optimal
    weight p = num/den as a row (*label, num, den)."""
    weights = {}
    if cfg.format == "csv":  # the one CSV row shows no block weights: build no blocks
        support = _support(cfg)
    else:
        r = cap.block_capacity(cfg.model, cfg.n, cfg.t, cfg.l)
        support = r.support
        columns = (("label", _label(cfg.t)), ("p", '"%d/%d"'))
        rows = [(*label, num, den) for label, num, den in r.p_rows]
        weights["optimal_p"] = Table(columns, rows)
    return _report(cfg, "model n t l log_base", {
        f"capacity_{_unit(cfg.base)}": _scaled(cap.log_integer(support), cfg.base),
        "support": str(support),
        **weights,
    })


def _build_bounds(cfg: RunConfig) -> dict:
    if not 0.0 < cfg.eps < 1.0:
        raise CLIError(f"--eps must lie in (0, 1), got {cfg.eps}")
    if (cfg.alpha is None) != (cfg.beta is None):
        raise CLIError("--alpha and --beta must be given together")
    r = cap.log_integer(_support(cfg))
    if cfg.alpha is None:
        b = dist.m_eps_bounds(r, cfg.eps)
    else:  # optimal twirled spectrum is flat
        b = dist.m_bounds_general(r, r, cfg.alpha, cfg.beta, cfg.eps)
    u = _unit(cfg.base)
    return _report(cfg, "model n t l log_base", {
        "alpha": b.alpha,
        "beta": b.beta,
        "epsilon": b.epsilon,
        f"lower_{u}": _scaled(b.lower, cfg.base),
        f"upper_{u}": _scaled(b.upper, cfg.base),
    })


def _build_simulate(cfg: RunConfig) -> dict:
    if cfg.t != 2:
        raise CLIError("simulate ships t = 2 states only")
    from . import oracle  # numpy, which only this command needs

    model = Model(cfg.model)
    if cfg.state == "bs4":
        psi = oracle.mp_optimal_state(cfg.n)
    elif cfg.state == "noon":
        psi = oracle.noon_state(cfg.n)
    elif cfg.state == "bn1":
        if model is not Model.SPECIAL_UNITARY:
            raise CLIError("--state bn1 needs --model su")
        psi = oracle.su2_optimal_state(cfg.n)
    else:
        raise CLIError(f"unknown state tag {cfg.state!r}")
    entropy = oracle.empirical_mi(psi, model, cfg.n, cfg.t)
    success = None
    if cfg.codebook is not None:
        if cfg.codebook != "lattice":
            raise CLIError(f"unknown codebook tag {cfg.codebook!r}")
        if model is not Model.MULTI_PHASE:
            raise CLIError("--codebook lattice needs --model mp")
        unitaries = [oracle.mp_unitary(theta, cfg.t) for theta in dist.mp_lattice(cfg.n, cfg.t)]
        success = oracle.srm_discrimination(unitaries, psi, cfg.n, cfg.t)
    return _report(cfg, "model n t log_base", {
        "state_tag": cfg.state,
        "codebook_tag": cfg.codebook,
        "seed": cfg.seed,
        "success_prob": success,
        f"entropy_{_unit(cfg.base)}": _scaled(entropy, cfg.base),
    })


def _check_binomial_bits(model: Model, t: int, ns: range) -> int:
    """The parameter count d (t-1 phases for mp, t^2-1 generators for su),
    once the support binomials C(n+d, d) over ``ns`` are admitted: their
    sizes, estimated from log-gamma before any is computed, may add up to
    MAX_SCALING_BITS; more is refused, naming the estimate."""
    d = t - 1 if model is Model.MULTI_PHASE else t * t - 1
    bits = round(math.fsum((math.lgamma(n + d + 1) - math.lgamma(d + 1) - math.lgamma(n + 1))
                           / _LN2 for n in ns))
    if bits <= MAX_SCALING_BITS:
        return d
    if len(ns) == 1:
        raise CLIError(f"the support C({ns[0] + d}, {d}) of about {bits} bits exceeds the "
                       f"budget of {MAX_SCALING_BITS} bits (MAX_SCALING_BITS)")
    raise CLIError(f"{len(ns)} binomials of about {bits} bits in all exceed the scaling "
                   f"budget of {MAX_SCALING_BITS} bits (MAX_SCALING_BITS)")


def _support(cfg: RunConfig) -> int:
    """capacity_support of the request, once its arguments are valid and its
    binomial, C(n+t^2-1, t^2-1) for su and C(n+t-1, t-1) for mp, is admitted."""
    model = _check_config(cfg.model, cfg.n, cfg.t, cfg.l)
    _check_binomial_bits(model, cfg.t, range(cfg.n, cfg.n + 1))
    return cap.capacity_support(model, cfg.n, cfg.t, cfg.l)


def _build_scaling(cfg: RunConfig) -> dict:
    """One row (n, capacity, baseline) per n of the sweep, and the slope."""
    if cfg.n_range is None:
        raise CLIError("scaling needs --n-range start:stop:stride")
    start, stop, stride = cfg.n_range
    ns = range(start, stop + 1, stride)
    if len(ns) < 3:
        raise CLIError("scaling needs at least three n values for a slope")
    if len(ns) > MAX_SCALING_POINTS:
        raise CLIError(f"{len(ns)} n values exceed the scaling budget of "
                       f"{MAX_SCALING_POINTS} points (MAX_SCALING_POINTS)")
    model = Model(cfg.model)
    if cfg.t < 2:  # as capacity_support says, before the size estimate
        raise CLIError("t must be at least 2")
    d = _check_binomial_bits(model, cfg.t, ns)
    # the exact paths behind the sweep: l = 1 for mp, unbounded for su
    l_eff = 1 if model is Model.MULTI_PHASE else UNBOUNDED
    u = _unit(cfg.base)
    rows = [(n, _scaled(cap.log_integer(cap.capacity_support(model, n, cfg.t, l_eff)), cfg.base),
             _scaled(0.5 * d * math.log(n), cfg.base)) for n in ns]
    columns = (("n", "%d"), (f"capacity_{u}", "%r"), (f"baseline_{u}", "%r"))
    return _report(replace(cfg, l=l_eff), "model t l log_base", {
        "n_range": f"{start}:{stop}:{stride}",
        "fitted_slope": cap.scaling_fit([(n, value) for n, value, _ in rows]),
        "rows": Table(columns, rows),
    })


_BUILDERS = {
    "decompose": _build_decompose,
    "capacity": _build_capacity,
    "bounds": _build_bounds,
    "simulate": _build_simulate,
    "scaling": _build_scaling,
}

# command -> (key of its row list, or None for a one-row report; CSV header).
# A column that the rows lack is read from the report itself.
_CSV = {
    "decompose": ("entries", "model,n,t,l,label,dim,mult,eff_mult"),
    "capacity": (None, "model,n,t,l,log_base,capacity_{u}"),
    "bounds": (None, "model,n,t,l,alpha,beta,epsilon,lower_{u},upper_{u}"),
    "simulate": (None, "model,n,t,state_tag,codebook_tag,seed,success_prob,entropy_{u}"),
    "scaling": ("rows", "model,n,t,l,capacity_{u},baseline_{u},fitted_slope"),
}


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


def render(report: dict, fmt: str) -> str:
    """The report as JSON (the layout of json.dumps(report, indent=2)) or as
    CSV with LF line endings.

    A report is a dict in output order; its row list, if any, is a Table.
    The rows are written with one %-template per report and format, so each
    row is a single ``template % row``: for JSON the row's object, for CSV
    its line with the report-level cells already in place.  The JSON
    preamble is json.dumps itself; a report without rows is json.dumps whole.
    """
    if fmt == "json":
        *head, (key, table) = report.items()
        if not isinstance(table, Table):
            return json.dumps(report, indent=2) + "\n"
        preamble = json.dumps(dict(head), indent=2)[:-2]  # without the closing "\n}"
        fields = ",\n".join(f"      {_json_str(name).replace('%', '%%')}: {f}"
                            for name, f in table.columns)
        template = f"    {{\n{fields}\n    }}"
        body = ",\n".join(map(template.__mod__, table.rows))
        return f"{preamble},\n  {_json_str(key)}: " + (f"[\n{body}\n  ]\n}}\n" if body else "[]\n}\n")
    if fmt == "csv":
        key, header = _CSV[report["command"]]
        header = header.format(u=_unit(report.get("log_base", "e")))
        table = report[key] if key else Table((), [()])  # one row, all from the report
        formats = {name: _csv_format(f) for name, f in table.columns}
        template = ",".join([formats[c] if c in formats else _cell(report[c]).replace("%", "%%")
                             for c in header.split(",")]) + "\n"
        return header + "\n" + "".join(map(template.__mod__, table.rows))
    raise CLIError(f"unknown format {fmt!r}")


def run(config: RunConfig) -> int:
    """Validate, compute and print one report.  Returns the exit status."""
    builder = _BUILDERS.get(config.command)
    if builder is None:
        raise CLIError(f"unknown command {config.command!r}")
    try:
        text = render(builder(config), config.format)
    except ValueError as exc:  # library-level validation surfaces as exit 2
        raise CLIError(str(exc))
    sys.stdout.write(text)
    return 0


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and then reused: building it
    costs more than answering a small exact request."""
    parser = argparse.ArgumentParser(
        prog="metrocap",
        description="Capacities, bounds and brute-force checks for "
        "tensor-power metrology models.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(command, summary, with_n=True, with_l=True):
        """One subcommand with the flags every command shares."""
        sp = sub.add_parser(command, help=summary)
        sp.add_argument("--model", required=True, choices=["mp", "su"])
        if with_n:
            sp.add_argument("--n", required=True, type=int)
        sp.add_argument("--t", type=int, default=2)
        if with_l:
            sp.add_argument("--l", default="inf", help="reference size or 'inf'")
        sp.add_argument("--base", choices=["e", "2"], default="e")
        sp.add_argument("--format", choices=["json", "csv"], default=None)
        return sp

    add("decompose", "list irrep blocks with exact sizes")
    add("capacity", "capacity and optimal block weights")
    sp = add("bounds", "two-sided bracket on log M_eps")
    sp.add_argument("--eps", type=float, default=0.1)
    sp.add_argument("--alpha", type=float, default=None)
    sp.add_argument("--beta", type=float, default=None)
    sp = add("simulate", "dense-matrix experiment at small n", with_l=False)
    sp.add_argument("--state", choices=["bs4", "noon", "bn1"], default="bs4")
    sp.add_argument("--codebook", choices=["lattice"], default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp = add("scaling", "capacity sweep against (d/2) log n", with_n=False, with_l=False)
    sp.add_argument("--n-range", required=True, metavar="START:STOP:STRIDE")

    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """RunConfig from every field the subcommand defines; unset flags keep
    the dataclass defaults."""
    fmt = args.format or os.environ.get("METROCAP_FORMAT", "json")
    if fmt not in ("json", "csv"):
        raise CLIError(f"METROCAP_FORMAT must be json or csv, got {fmt!r}")
    values = {f.name: getattr(args, f.name) for f in fields(RunConfig)
              if getattr(args, f.name, None) is not None}
    for name, parse in (("l", _parse_l), ("n_range", _parse_n_range)):
        if name in values:
            values[name] = parse(values[name])
    return RunConfig(**{**values, "format": fmt})


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """One stderr line per library warning, without the source location, so
    stderr does not depend on where the package is installed."""
    print(f"warning: {message}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _show_warning
            return run(config_from_args(args))
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
