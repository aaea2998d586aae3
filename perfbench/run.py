"""Closed-loop benchmark of the metrocap command line, one client, one process.

    python3 perfbench/run.py --workload exact-su --seed 1 --seconds 30 --trace 0

Drives ``metrocap.cli.main(argv)`` in-process from the checkout's ``src/``
with stdout captured, and checks every report against independent
identities.  A run repeats the workload's request set (see ``workloads.py``)
in passes: at least two, and more while one more fits in ``--seconds``.

Every timed step is bracketed by a fixed reference computation that uses no
metrocap code, and its wall time is scaled by how much slower or faster
than usual the reference ran around it (``run_loop``).  On a shared 2-vCPU
virtual machine the speed of interpreted code drifts by up to a third over
seconds to minutes; the scaling takes most of that drift out of the
end-to-end times.  Each request of the set then counts with the median of
its scaled times over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs every request
twice, untraced and traced in alternating order, and prints the per-layer
metrics (unscaled).  The line before the last holds the environment, the
failure ratio, each request's scaled and wall time, both metric sets known
to the run, and the per-command split of self time.  The last line is the
result object.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path

import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
# Fixed so that runs compare.  One thread: a two-thread BLAS call needs both
# vCPUs of a shared 2-vCPU host at once, and stalls when the other is busy.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_PASSES = 2
SETUP_RUNS = 11
# Typical time of reference_work() on the 2-vCPU machine the benchmark was
# tuned on; scaled times read in seconds at that machine's usual speed.
REFERENCE_S = 0.017
MIB = 1024.0  # ru_maxrss is in KiB on Linux


def load_cli():
    """Import metrocap.cli from this checkout's src/, nowhere else."""
    src = ROOT / "src"
    if not (src / "metrocap" / "cli.py").is_file():
        raise SystemExit(f"error: no metrocap sources under {src}")
    sys.path.insert(0, str(src))
    import metrocap.cli
    import metrocap.oracle

    if src.resolve() not in Path(metrocap.cli.__file__).resolve().parents:
        raise SystemExit(f"error: metrocap imported from {metrocap.cli.__file__}, not {src}")
    return metrocap.cli, metrocap.oracle.schur_basis_su2.cache_clear


def blas_threads():
    """Threads OpenBLAS reports, or None when no OpenBLAS library is found."""
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def reference_work() -> int:
    """A fixed computation that uses no metrocap code: exact big-integer
    binomials and object building, the interpreted work that the host's
    speed drift slows most."""
    total = 0
    for n in range(200, 300):
        for k in range(80):
            total += comb(n, k) * (k + 1)
    return total + len(json.dumps({i: str(i) for i in range(10000)}))


def reference_s() -> float:
    gc.collect()  # leave the previous step's garbage out of the reference
    gc.disable()
    try:
        start = time.perf_counter()
        reference_work()
        return time.perf_counter() - start
    finally:
        gc.enable()


def setup_once() -> float:
    """Wall seconds of a fresh interpreter importing metrocap.cli, with the
    BLAS thread count of this process."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    child = subprocess.run([sys.executable, "-c", "import metrocap.cli"], env=env, cwd=ROOT,
                           stdin=subprocess.DEVNULL)
    wall = time.perf_counter() - start
    if child.returncode != 0:
        raise SystemExit(f"error: importing metrocap.cli exited {child.returncode}")
    return wall


def call(cli, argv) -> tuple:
    """One CLI call: (seconds, exit status or None, stdout, error text)."""
    out, err = io.StringIO(), io.StringIO()
    status, error = None, ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = cli.main(list(argv))
    except SystemExit as exc:
        status = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crashing request is a counted failure, not a stop
        error = repr(exc)
    elapsed = time.perf_counter() - start
    return elapsed, status, out.getvalue(), error or err.getvalue().strip()


def verdict(request, status, out, error, passed: dict) -> str:
    """Empty when the request succeeded and its output passed the check.
    ``passed`` maps argv to an output that passed; the same output again
    passes without being parsed a second time."""
    if status != 0:
        return f"exit {status}: {error}"
    if passed.get(request.argv) == out:
        return ""
    try:
        checks.check(request.params, out)
    except checks.CheckFailed as exc:
        return str(exc)
    passed[request.argv] = out
    return ""


def run_loop(cli, clear_cache, workload: str, seed: int, seconds: float, tracer=None):
    """Run the workload's request set in passes, each in its own seeded
    order: at least MIN_PASSES, more while one more still fits in
    ``seconds``.  Set-up is sampled SETUP_RUNS times spread over the first
    passes, so that it sees the same machine as the requests.

    The reference computation runs between every two timed steps; each step
    gets ``scale``, REFERENCE_S over the mean of the references on either
    side of it, which turns its wall time into seconds at the usual speed.

    Returns (request set, per-execution result dicts, scaled set-up seconds)."""
    requests = workloads.requests(workload, seed)
    results, setup, passed = [], [], {}
    step = max(1, MIN_PASSES * len(requests) // SETUP_RUNS)
    setup_once()  # warm-up: the first interpreter reads files from disk
    start = time.perf_counter()
    reference_s()  # warm-up
    before = reference_s()

    def scale():
        nonlocal before
        after = reference_s()
        factor, before = 2 * REFERENCE_S / (before + after), after
        return factor

    index, pass_s = 0, 0.0
    while index < MIN_PASSES or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        for i in workloads.pass_order(workload, seed, index, len(requests)):
            if len(results) % step == 0 and len(setup) < SETUP_RUNS:
                wall = setup_once()
                setup.append(wall * scale())
            result = run_one(cli, clear_cache, requests[i], tracer, len(results), passed)
            results.append(dict(result, index=i, scale=scale()))
        pass_s = time.perf_counter() - pass_start
        index += 1
    while len(setup) < SETUP_RUNS:
        wall = setup_once()
        setup.append(wall * scale())
    return requests, results, setup


def run_one(cli, clear_cache, request, tracer, position: int, passed: dict) -> dict:
    def fresh():  # what a new process would see: no cached Schur basis
        clear_cache()
        gc.collect()

    if tracer is None:
        fresh()
        elapsed, status, out, error = call(cli, request.argv)
        return {"request": request, "seconds": elapsed, "bytes": len(out),
                "failure": verdict(request, status, out, error, passed)}

    runs = {}
    for traced in ((False, True) if position % 2 == 0 else (True, False)):
        fresh()
        if traced:
            with tracer.installed(), tracer.request() as trace:
                runs[True] = call(cli, request.argv)
        else:
            runs[False] = call(cli, request.argv)
    elapsed, status, out, error = runs[False]
    failure = verdict(request, status, out, error, passed)
    if not failure and runs[True][2] != out:
        failure = "traced output differs from untraced output"
    return {"request": request, "seconds": elapsed, "bytes": len(out), "failure": failure,
            "traced_seconds": runs[True][0], "buckets": dict(trace.buckets),
            "counts": trace.counts()}


def per_request(requests: list, results: list, key) -> list:
    """For each request of the set, the median of ``key`` over its executions."""
    values = [[] for _ in requests]
    for r in results:
        values[r["index"]].append(key(r))
    return [statistics.median(v) for v in values]


def end_to_end(requests: list, results: list, setup: list) -> tuple:
    times = per_request(requests, results, lambda r: r["seconds"] * r["scale"])
    failed = sum(1 for r in results if r["failure"])
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_p50_s": (statistics.median(times), "s"),
        "request_tail_s": (max(times), "s"),
        "requests_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / MIB, "MiB"),
    }
    wall = per_request(requests, results, lambda r: r["seconds"])
    scales = sorted(r["scale"] for r in results)
    extra = {
        "fail_ratio": failed / len(results),
        "passes": len(results) // len(requests),
        "request_s": {" ".join(q.argv): {"scaled": t, "wall": w}
                      for q, t, w in zip(requests, times, wall)},
        "scale_min_median_max": [scales[0], statistics.median(scales), scales[-1]],
        "setup_samples_s": setup,
    }
    return metrics, extra


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0


def per_layer(results: list) -> tuple:
    n = len(results)

    def self_s(*buckets):
        return sum(r["buckets"].get(b, (0, 0))[0] for r in results for b in buckets) / 1e9 / n

    def calls(bucket):
        return sum(r["buckets"].get(bucket, (0, 0))[1] for r in results) / n

    counts = [r["counts"] for r in results]
    blocks = sum(c["blocks"] for c in counts)
    unsaturated = sum(c["unsaturated"] for c in counts)
    metrics = {
        "rep_core.multiplicity_s": (self_s("rep_core.multiplicity"), "s"),
        "rep_core.multiplicity_calls": (calls("rep_core.multiplicity"), "count"),
        "rep_core.self_s": (self_s("rep_core.self"), "s"),
        "rep_core.blocks": (blocks / n, "count"),
        "rep_core.unsaturated_ratio": (unsaturated / blocks if blocks else 0.0, "ratio"),
        "capacity.self_s": (self_s("capacity.self", "capacity.square_sum"), "s"),
        "capacity.square_sum_s": (self_s("capacity.square_sum"), "s"),
        "capacity.support_bits": (_mean([b for c in counts for b in c["support_bits"]]), "bit"),
        "distinguish.self_s": (self_s("distinguish.self"), "s"),
        "oracle.schur_basis_s": (self_s("oracle.schur_basis"), "s"),
        "oracle.state_prep_s": (self_s("oracle.state_prep"), "s"),
        "oracle.density_s": (self_s("oracle.density"), "s"),
        "oracle.twirl_s": (self_s("oracle.twirl"), "s"),
        "oracle.entropy_s": (self_s("oracle.entropy"), "s"),
        "oracle.srm_s": (self_s("oracle.srm"), "s"),
        "oracle.dense_dim": (_mean([d for c in counts for d in c["dense_dim"]]), "count"),
        "oracle.dense_useful_ratio": (_mean([u for c in counts for u in c["useful_ratio"]]),
                                      "ratio"),
        "cli.self_s": (self_s("cli.self"), "s"),
        "cli.render_s": (self_s("cli.render"), "s"),
        "cli.stdout_bytes": (_mean([r["bytes"] for r in results]), "B"),
        "trace.overhead_ratio": (sum(r["traced_seconds"] for r in results)
                                 / sum(r["seconds"] for r in results), "ratio"),
    }
    return metrics, {"by_kind": split_by_kind(results)}


def split_by_kind(results: list) -> dict:
    """Share of traced wall time per bucket, for each request kind."""
    kinds = {}
    for r in results:
        entry = kinds.setdefault(r["request"].kind, {"requests": 0, "wall_s": 0.0, "self_s": {}})
        entry["requests"] += 1
        entry["wall_s"] += r["traced_seconds"]
        for bucket, (ns, _) in r["buckets"].items():
            entry["self_s"][bucket] = entry["self_s"].get(bucket, 0.0) + ns / 1e9
    for entry in kinds.values():
        entry["share"] = {b: round(s / entry["wall_s"], 4)
                          for b, s in sorted(entry["self_s"].items(), key=lambda kv: -kv[1])}
        entry["covered"] = round(sum(entry["self_s"].values()) / entry["wall_s"], 4)
        del entry["self_s"]
    return kinds


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for name in BLAS_ENV:  # before numpy is first imported
        os.environ[name] = str(BLAS_THREADS)
    cli, clear_cache = load_cli()
    env = environment(args.seed)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    requests, results, setup = run_loop(cli, clear_cache, args.workload, args.seed,
                                        args.seconds, tracer)

    e2e, detail = end_to_end(requests, results, setup)
    detail.update(env, workload=args.workload, trace=args.trace,
                  failures=[(" ".join(r["request"].argv), r["failure"])
                            for r in results if r["failure"]][:10])
    metrics = e2e
    if tracer is not None:
        metrics, layer_detail = per_layer(results)
        detail.update(layer_detail, end_to_end=as_json(e2e))
    print(json.dumps({"detail": detail}))
    failed = sum(1 for r in results if r["failure"])
    print(json.dumps({"correct": failed == 0, "attempted": len(results), "failed": failed,
                      "metrics": as_json(metrics)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
