"""Seeded request generation for the metrocap CLI benchmark.

A workload is a fixed *set* of requests that a run repeats in passes (see
``run.py``).  The sizes, commands and formats of a set are the same for every
seed, so the multiset of request costs is too, and order statistics compare
across seeds.  The seed draws what leaves the cost alone: the reference size
``l``, ``--eps``/``--alpha``/``--beta``, the log base, and the order of each
pass.  The program only ever sees the argv lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("exact-su", "exact-mp", "oracle-dense")

# (command, t, n, format) per model: each command meets each t once, at the
# lower, middle or upper part of the t's size band (su: t=3 200-280, t=4
# 80-120, t=5 40-60; mp: t=3 150-250, t=4 40-60, t=5 15-30).  The format
# moves a large report's time and memory, so it is fixed, not drawn.
EXACT_REQUESTS = {
    "su": (
        ("decompose", 3, 200, "csv"), ("capacity", 3, 240, "json"), ("bounds", 3, 280, "csv"),
        ("decompose", 4, 100, "json"), ("capacity", 4, 120, "csv"), ("bounds", 4, 80, "json"),
        ("decompose", 5, 60, "csv"), ("capacity", 5, 40, "json"), ("bounds", 5, 50, "csv"),
    ),
    "mp": (
        ("decompose", 3, 250, "json"), ("capacity", 3, 200, "csv"), ("bounds", 3, 150, "json"),
        ("decompose", 4, 50, "csv"), ("capacity", 4, 60, "json"), ("bounds", 4, 40, "csv"),
        ("decompose", 5, 22, "json"), ("capacity", 5, 15, "csv"), ("bounds", 5, 30, "json"),
    ),
}

# Scaling sweeps (t, start, stop, stride, format).  The su t=4 sweep is where
# su_square_sum dominates; the mp sweeps cost milliseconds.
SCALING_SWEEPS = {
    "su": ((4, 40, 200, 10, "json"), (3, 100, 320, 20, "csv"), (5, 20, 70, 5, "json")),
    "mp": ((3, 100, 300, 10, "csv"), (4, 40, 200, 10, "json")),
}

# Dense-oracle requests (model, state, codebook, n, format).  Requests that
# take seconds are left out, so that a run fits enough passes for a steady
# median: su bn1 at n = 8 (7 s, dense dimension 2304) and mp at n = 11
# (2-3 s); mp at n = 12 takes 13 s and over 1 GB.
ORACLE_REQUESTS = (
    ("su", "bn1", None, 6, "csv"), ("su", "bn1", None, 7, "json"),
    ("su", "noon", None, 6, "json"), ("su", "noon", None, 7, "csv"), ("su", "noon", None, 8, "json"),
    ("mp", "bs4", "lattice", 8, "json"), ("mp", "bs4", "lattice", 9, "csv"),
    ("mp", "bs4", "lattice", 10, "json"),
    ("mp", "noon", None, 8, "json"), ("mp", "noon", None, 9, "csv"), ("mp", "noon", None, 10, "json"),
    ("mp", "bs4", None, 9, "json"),
)

REF_SIZES = (1, 2, 4, "inf")
EPSILONS = (0.01, 0.05, 0.1, 0.25)
ALPHA_BETA = ((2.0, 0.5), (1.5, 0.25))


@dataclass(frozen=True)
class Request:
    """One CLI invocation: the argv the program sees and the parameters the
    checker compares its output against."""

    argv: tuple
    params: dict

    @property
    def kind(self) -> str:
        return f"{self.params['model']} {self.params['command']}"


def _balanced(rng: random.Random, values, k: int) -> list:
    """k values that use each of ``values`` as evenly as possible, shuffled."""
    out = [values[i % len(values)] for i in range(k)]
    rng.shuffle(out)
    return out


def _request(command: str, model: str, t: int, fmt: str, base: str, **extra) -> Request:
    params = {"command": command, "model": model, "t": t, "format": fmt, "base": base}
    params.update(extra)
    argv = [command, "--model", model, "--t", str(t)]
    for key in ("n", "l", "eps", "alpha", "beta", "state", "codebook"):
        if params.get(key) is not None:
            argv += [f"--{key}", str(params[key])]
    if "n_range" in params:
        argv += ["--n-range", "%d:%d:%d" % params["n_range"]]
    argv += ["--format", fmt, "--base", base]
    return Request(tuple(argv), params)


def _exact_requests(model: str, rng: random.Random) -> list:
    specs = [(command, t, fmt, {"n": n}) for command, t, n, fmt in EXACT_REQUESTS[model]]
    specs += [("scaling", t, fmt, {"n_range": (start, stop, stride)})
              for t, start, stop, stride, fmt in SCALING_SWEEPS[model]]
    bases = _balanced(rng, ("e", "e", "2"), len(specs))
    refs = _balanced(rng, REF_SIZES, len(specs))
    out = []
    for (command, t, fmt, extra), base, l in zip(specs, bases, refs):
        if command != "scaling":
            extra["l"] = l
        if command == "bounds":
            extra["eps"] = rng.choice(EPSILONS)
            if rng.random() < 1 / 3:
                extra["alpha"], extra["beta"] = rng.choice(ALPHA_BETA)
        out.append(_request(command, model, t, fmt, base, **extra))
    return out


def _oracle_requests(rng: random.Random) -> list:
    bases = _balanced(rng, ("e", "e", "2"), len(ORACLE_REQUESTS))
    return [
        _request("simulate", model, 2, fmt, base, n=n, state=state, codebook=codebook)
        for (model, state, codebook, n, fmt), base in zip(ORACLE_REQUESTS, bases)
    ]


def requests(workload: str, seed: int) -> list:
    """The request set of ``workload`` under ``seed``; deterministic."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}/{seed}")
    if workload == "oracle-dense":
        return _oracle_requests(rng)
    return _exact_requests(workload.split("-")[1], rng)


def pass_order(workload: str, seed: int, index: int, count: int) -> list:
    """The order in which pass ``index`` runs the ``count`` requests of the set."""
    order = list(range(count))
    random.Random(f"{workload}/{seed}/pass {index}").shuffle(order)
    return order
