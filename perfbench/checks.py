"""Output checks for benchmark requests, from identities independent of the code.

Every check raises ``CheckFailed`` on a wrong answer.  Integers are compared
exactly; floats derived from them within ``_REL``.
"""

from __future__ import annotations

import json
import math
from math import comb

_REL = 1e-12  # float results that are one log of an exact integer
_DERIVED = 1e-9  # floats after a few more float operations, and the oracle


class CheckFailed(Exception):
    """The program's output contradicts an identity it must satisfy."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _close(got: float, want: float, tol: float, what: str) -> None:
    _require(
        math.isclose(got, want, rel_tol=tol, abs_tol=tol),
        f"{what}: got {got!r}, expected {want!r}",
    )


def cauchy_total(model: str, n: int, t: int) -> int:
    """Unbounded-reference support: C(n+t^2-1, t^2-1) for su (the Cauchy
    identity), C(n+t-1, t-1) weight classes for mp."""
    d = t * t if model == "su" else t
    return comb(n + d - 1, d - 1)


def block_count(model: str, n: int, t: int) -> int:
    """Blocks of a decomposition: weight vectors for mp, partitions of n into
    at most t parts for su (counted by the usual recurrence)."""
    if model == "mp":
        return comb(n + t - 1, t - 1)
    ways = [1] + [0] * n  # partitions into parts of size <= t, i.e. <= t parts
    for part in range(1, t + 1):
        for m in range(part, n + 1):
            ways[m] += ways[m - part]
    return ways[n]


def _to_base(nats: float, base: str) -> float:
    return nats if base == "e" else nats / math.log(2.0)


def _unit(base: str) -> str:
    return "nats" if base == "e" else "bits"


def _parse(out: str, fmt: str):
    """JSON report as a dict, or CSV as a list of {column: text} rows."""
    if fmt == "json":
        return json.loads(out)
    _require(out.endswith("\n"), "CSV output lacks the final newline")
    lines = out[:-1].split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    _require(all(len(r) == len(header) for r in rows), "ragged CSV row")
    return rows


def _check_echo(report: dict, p: dict, keys) -> None:
    for key in keys:
        want = p[key]
        got = report.get(key)
        _require(str(got) == str(want), f"{key} echoed as {got!r}, asked for {want!r}")


def _check_decompose(p: dict, parsed) -> None:
    model, n, t, l = p["model"], p["n"], p["t"], p["l"]
    if p["format"] == "json":
        _check_echo(parsed, p, ("model", "n", "t", "l"))
        entries = parsed["entries"]
    else:
        entries = parsed
    blocks = [(int(e["dim"]), int(e["mult"]), int(e["eff_mult"])) for e in entries]
    _require(len(blocks) == block_count(model, n, t), f"{len(blocks)} blocks")
    _require(sum(d * m for d, m, _ in blocks) == t**n, "sum of dim*mult is not t^n")
    for d, m, eff in blocks:
        want = d if l == "inf" else min(l * m, d)
        _require(eff == want, f"eff_mult {eff} for dim {d}, mult {m}, l {l}")
    _check_support(model, n, t, l, sum(d * eff for d, _, eff in blocks))


def _check_support(model: str, n: int, t: int, l, support: int) -> None:
    total = cauchy_total(model, n, t)
    if l == "inf":
        _require(support == total, f"support {support} != Cauchy total {total}")
    else:
        _require(1 <= support <= total, f"support {support} exceeds Cauchy total {total}")


def _check_probabilities(optimal_p: list, support: int) -> None:
    """The optimal distribution sums to exactly 1."""
    parts = [tuple(int(x) for x in e["p"].split("/")) for e in optimal_p]
    _require(all(support % den == 0 for _, den in parts),
             "an optimal_p denominator does not divide the support")
    _require(sum(num * (support // den) for num, den in parts) == support,
             "optimal_p does not sum to 1")


def _check_capacity(p: dict, parsed) -> None:
    model, n, t, l, base = p["model"], p["n"], p["t"], p["l"], p["base"]
    key = f"capacity_{_unit(base)}"
    if p["format"] == "json":
        _check_echo(parsed, p, ("model", "n", "t", "l"))
        support = int(parsed["support"])
        _check_support(model, n, t, l, support)
        _close(parsed[key], _to_base(math.log(support), base), _REL, "capacity")
        _require(len(parsed["optimal_p"]) == block_count(model, n, t), "optimal_p length")
        _check_probabilities(parsed["optimal_p"], support)
        return
    (row,) = parsed
    value = float(row[key])
    bound = _to_base(math.log(cauchy_total(model, n, t)), base)
    if l == "inf":
        _close(value, bound, _REL, "capacity")
    else:
        _require(0.0 <= value <= bound * (1 + _REL), f"capacity {value} above {bound}")


def _check_bounds(p: dict, parsed) -> None:
    model, n, t, l, base, eps = p["model"], p["n"], p["t"], p["l"], p["base"], p["eps"]
    row = parsed if p["format"] == "json" else parsed[0]
    alpha, beta = p.get("alpha"), p.get("beta")
    if alpha is None:  # capacity form: alpha = 2 and the beta -> 0 limit
        alpha, beta = 2.0, 0.0
    _close(float(row["alpha"]), alpha, 0.0, "alpha")
    _close(float(row["beta"]), beta, 0.0, "beta")
    _close(float(row["epsilon"]), eps, 0.0, "epsilon")
    u = _unit(base)
    scale = _to_base(1.0, base)
    lower = float(row[f"lower_{u}"]) / scale
    upper = float(row[f"upper_{u}"]) / scale
    below = (math.log(2.0) - math.log(eps)) / (alpha - 1.0)
    above = -math.log1p(-eps) if beta == 0.0 else math.log1p(-eps) / (beta - 1.0)
    # lower = R - below and upper = R + above share one capacity R
    _close(upper - lower, above + below, _DERIVED, "bracket width")
    capacity = lower + below
    total = math.log(cauchy_total(model, n, t))
    if l == "inf":
        _close(capacity, total, _DERIVED, "capacity inside the bracket")
    else:
        _require(capacity <= total * (1 + _DERIVED), f"capacity {capacity} above {total}")


def _check_scaling(p: dict, parsed) -> None:
    model, t, base = p["model"], p["t"], p["base"]
    start, stop, stride = p["n_range"]
    ns = list(range(start, stop + 1, stride))
    u = _unit(base)
    rows = parsed["rows"] if p["format"] == "json" else parsed
    _require([int(r["n"]) for r in rows] == ns, "scaling rows do not follow --n-range")
    d = t - 1 if model == "mp" else t * t - 1
    points = []
    for n, r in zip(ns, rows):
        value = _to_base(math.log(cauchy_total(model, n, t)), base)
        _close(float(r[f"capacity_{u}"]), value, _REL, f"capacity at n={n}")
        baseline = _to_base(0.5 * d * math.log(n), base)
        _close(float(r[f"baseline_{u}"]), baseline, _DERIVED, f"baseline at n={n}")
        points.append((math.log(n), value))
    xbar = sum(x for x, _ in points) / len(points)
    ybar = sum(y for _, y in points) / len(points)
    slope = sum((x - xbar) * (y - ybar) for x, y in points) / sum(
        (x - xbar) ** 2 for x, _ in points
    )
    got = parsed["fitted_slope"] if p["format"] == "json" else float(rows[0]["fitted_slope"])
    _close(float(got), slope, _DERIVED, "fitted slope")


def expected_entropy(model: str, state: str, n: int) -> float:
    """Entropy in nats of the twirled input: the number of equally weighted
    dimensions it spreads over."""
    if state == "bn1":
        return math.log((n + 1) * (n + 2) * (n + 3) / 6)
    if state == "noon" and model == "mp":
        return math.log(2.0)
    return math.log(n + 1)  # bs4, or su noon inside the spin-n/2 block


def _check_simulate(p: dict, parsed) -> None:
    model, n, base = p["model"], p["n"], p["base"]
    row = parsed if p["format"] == "json" else parsed[0]
    _require(row["state_tag"] == p["state"], "state tag")
    entropy = float(row[f"entropy_{_unit(base)}"])
    want = _to_base(expected_entropy(model, p["state"], n), base)
    _require(abs(entropy - want) <= _DERIVED, f"entropy {entropy!r}, expected {want!r}")
    success = row["success_prob"]
    if p.get("codebook") is None:
        _require(success in (None, ""), f"success_prob {success!r} without a codebook")
    else:
        _require(abs(float(success) - 1.0) <= _DERIVED, f"success_prob {success!r}")


_CHECKS = {
    "decompose": _check_decompose,
    "capacity": _check_capacity,
    "bounds": _check_bounds,
    "scaling": _check_scaling,
    "simulate": _check_simulate,
}


def check(params: dict, out: str) -> None:
    """Raise CheckFailed unless ``out`` is a correct report for ``params``."""
    try:
        parsed = _parse(out, params["format"])
        _CHECKS[params["command"]](params, parsed)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckFailed(f"malformed output: {exc!r}") from exc
