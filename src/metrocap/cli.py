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
from json.encoder import encode_basestring_ascii as _json_str
from typing import Optional, Sequence

from . import capacity as cap
from . import distinguish as dist
from . import oracle
from .rep_core import UNBOUNDED, Model, RefSize, decompose

SCHEMA = "1"
_LN2 = math.log(2.0)


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


def _report(cfg: RunConfig, echo: str, body: dict) -> dict:
    """Report preamble: schema, command, the config fields named in ``echo``
    (in that order), then the command's own ``body``."""
    l = "inf" if cfg.l is UNBOUNDED else cfg.l
    config = {"model": cfg.model, "n": cfg.n, "t": cfg.t, "l": l, "log_base": cfg.base}
    echoed = {k: config[k] for k in echo.split()}
    return {"schema": SCHEMA, "command": cfg.command, **echoed, **body}


def _build_decompose(cfg: RunConfig) -> dict:
    d = decompose(cfg.model, cfg.n, cfg.t, cfg.l)
    entries = [
        {"label": list(label), "dim": str(dim), "mult": str(mult), "eff_mult": str(eff)}
        for label, dim, mult, eff in d.rows
    ]
    return _report(cfg, "model n t l", {"entries": entries})


def _build_capacity(cfg: RunConfig) -> dict:
    r = cap.capacity(decompose(cfg.model, cfg.n, cfg.t, cfg.l))
    return _report(cfg, "model n t l log_base", {
        f"capacity_{_unit(cfg.base)}": _scaled(r.value, cfg.base),
        "support": str(r.support),
        "optimal_p": [{"label": list(label), "p": f"{num}/{den}"} for label, num, den in r.p_rows],
    })


def _build_bounds(cfg: RunConfig) -> dict:
    if not 0.0 < cfg.eps < 1.0:
        raise CLIError(f"--eps must lie in (0, 1), got {cfg.eps}")
    if (cfg.alpha is None) != (cfg.beta is None):
        raise CLIError("--alpha and --beta must be given together")
    r = cap.log_integer(cap.capacity_support(cfg.model, cfg.n, cfg.t, cfg.l))
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
        cb = oracle.codebook_from_lattice(dist.mp_lattice(cfg.n, cfg.t))
        success = oracle.srm_discrimination(cb, psi, cfg.n, cfg.t)
    return _report(cfg, "model n t log_base", {
        "state_tag": cfg.state,
        "codebook_tag": cfg.codebook,
        "seed": cfg.seed,
        "success_prob": success,
        f"entropy_{_unit(cfg.base)}": _scaled(entropy, cfg.base),
    })


def _build_scaling(cfg: RunConfig) -> dict:
    if cfg.n_range is None:
        raise CLIError("scaling needs --n-range start:stop:stride")
    start, stop, stride = cfg.n_range
    ns = list(range(start, stop + 1, stride))
    if len(ns) < 3:
        raise CLIError("scaling needs at least three n values for a slope")
    model = Model(cfg.model)
    value_fn = cap.mp_capacity if model is Model.MULTI_PHASE else cap.su_capacity
    u = _unit(cfg.base)
    rows = []
    for n in ns:
        value = _scaled(value_fn(n, cfg.t), cfg.base)
        baseline = _scaled(cap.standard_scaling_baseline(model, n, cfg.t), cfg.base)
        rows.append({"n": n, f"capacity_{u}": value, f"baseline_{u}": baseline})
    # the exact paths behind the sweep: l = 1 for mp, unbounded for su
    l_eff = 1 if model is Model.MULTI_PHASE else UNBOUNDED
    return _report(replace(cfg, l=l_eff), "model t l log_base", {
        "n_range": f"{start}:{stop}:{stride}",
        "fitted_slope": cap.scaling_fit([(row["n"], row[f"capacity_{u}"]) for row in rows]),
        "rows": rows,
    })


_BUILDERS = {
    "decompose": _build_decompose,
    "capacity": _build_capacity,
    "bounds": _build_bounds,
    "simulate": _build_simulate,
    "scaling": _build_scaling,
}

# command -> (key of its row list, or None for a one-row report; CSV header).
# A column that a row lacks is read from the report itself.
_CSV = {
    "decompose": ("entries", "model,n,t,l,label,dim,mult,eff_mult"),
    "capacity": (None, "model,n,t,l,log_base,capacity_{u}"),
    "bounds": (None, "model,n,t,l,alpha,beta,epsilon,lower_{u},upper_{u}"),
    "simulate": (None, "model,n,t,state_tag,codebook_tag,seed,success_prob,entropy_{u}"),
    "scaling": ("rows", "model,n,t,l,capacity_{u},baseline_{u},fitted_slope"),
}


def _cell(value) -> str:
    """One CSV cell; floats use repr so JSON and CSV carry identical digits,
    and labels join their components with '|'."""
    if isinstance(value, str):  # most cells: exact integers and tags
        return value
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return "|".join(map(str, value))
    return str(value)


def report_to_csv(report: dict) -> str:
    """Render a parsed JSON report as CSV, LF line endings.

    This is the only CSV path, so regenerating from a re-parsed JSON report
    is byte-identical by construction.
    """
    command = report.get("command")
    if command not in _CSV:
        raise CLIError(f"no CSV rendering for command {command!r}")
    key, header = _CSV[command]
    header = header.format(u=_unit(report.get("log_base", "e")))
    rows = report[key] if key else [report]
    lines = [header]
    if rows:
        # (column, its rendered report-level value, or None if each row has one)
        cells = [(c, None if c in rows[0] else _cell(report[c])) for c in header.split(",")]
        for row in rows:
            lines.append(",".join([_cell(row[c]) if s is None else s for c, s in cells]))
    return "\n".join(lines) + "\n"


def _json_cells(values: list, pad: str) -> list:
    """Each of ``values`` as json.dumps(value, indent=2) writes it at
    indentation ``pad``.

    json.dumps lays out indented JSON in pure Python, value by value.  Here
    values of one kind are written a column at a time: strings, ints, lists
    of one length (their items pooled into one column, then regrouped) and
    rows, i.e. dicts with the same string keys in the same order (one column
    per key).  Any other value is json.dumps with its line breaks indented by
    ``pad``, which is exact because JSON strings hold no raw line breaks.
    """
    kinds = set(map(type, values))
    if kinds == {str}:
        return list(map(_json_str, values))
    if kinds == {int}:
        return list(map(int.__repr__, values))
    inner = pad + "  "
    lengths = set(map(len, values)) if kinds == {list} else ()
    if len(lengths) == 1 and 0 not in lengths:  # lists of one length, e.g. labels
        (size,) = lengths
        items = _json_cells([x for v in values for x in v], inner)
        groups = map((",\n" + inner).join, zip(*[iter(items)] * size))  # regrouped in C
        return [f"[\n{inner}{group}\n{pad}]" for group in groups]
    if kinds == {dict}:
        keys = list(values[0])
        if keys and set(map(type, keys)) == {str} and all(list(v) == keys for v in values):
            fields = ",\n".join(f"{inner}{_json_str(k).replace('%', '%%')}: %s" for k in keys)
            row = f"{{\n{fields}\n{pad}}}"
            columns = [_json_cells([v[k] for v in values], inner) for k in keys]
            return list(map(row.__mod__, zip(*columns)))
    return [json.dumps(v, indent=2).replace("\n", "\n" + pad) for v in values]


def _json_report(report: dict) -> str:
    """json.dumps(report, indent=2): the preamble by json.dumps itself, and
    the report's trailing row list, if any, by _json_cells."""
    *head, (key, rows) = report.items()
    if not head or type(key) is not str or type(rows) is not list:
        return json.dumps(report, indent=2)
    preamble = json.dumps(dict(head), indent=2)[:-2]  # without the closing "\n}"
    return f"{preamble},\n  {_json_str(key)}: {_json_cells([rows], '  ')[0]}\n}}"


def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return _json_report(report) + "\n"
    if fmt == "csv":
        return report_to_csv(report)
    raise CLIError(f"unknown format {fmt!r}")


def run(config: RunConfig) -> int:
    """Validate, compute and print one report.  Returns the exit status."""
    builder = _BUILDERS.get(config.command)
    if builder is None:
        raise CLIError(f"unknown command {config.command!r}")
    try:
        report = builder(config)
    except ValueError as exc:  # library-level validation surfaces as exit 2
        raise CLIError(str(exc))
    sys.stdout.write(render(report, config.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
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
