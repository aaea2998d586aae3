"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from tracer import Tracer, twirl_useful_ratio

CLI, CLEAR_CACHE = run.load_cli()


def _argvs(workload, seed):
    return [r.argv for r in workloads.requests(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_are_deterministic_per_seed_and_differ_across_seeds(workload):
    assert _argvs(workload, 7) == _argvs(workload, 7)
    assert _argvs(workload, 7) != _argvs(workload, 8)
    count = len(_argvs(workload, 7))
    assert workloads.pass_order(workload, 7, 0, count) == workloads.pass_order(workload, 7, 0, count)
    assert workloads.pass_order(workload, 7, 0, count) != workloads.pass_order(workload, 7, 1, count)
    assert sorted(workloads.pass_order(workload, 7, 1, count)) == list(range(count))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_mixes_in_csv_and_base_2(workload):
    argvs = _argvs(workload, 3)
    assert any("csv" in a for a in argvs)
    assert any(a[a.index("--base") + 1] == "2" for a in argvs)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_request_passes_its_check(workload):
    passed = {}
    for i, request in enumerate(workloads.requests(workload, 0)):
        result = run.run_one(CLI, CLEAR_CACHE, request, None, i, passed)
        assert result["failure"] == "", (request.argv, result["failure"])
    assert len(passed) == i + 1


def test_a_repeated_output_is_checked_again_unless_it_passed():
    request = workloads._request("capacity", "mp", 3, "json", "e", n=9, l=2)
    _, status, out, error = run.call(CLI, request.argv)
    passed = {}
    assert run.verdict(request, status, out, error, passed) == ""
    assert passed == {request.argv: out}
    wrong = out.replace('"support"', '"support_"')
    assert run.verdict(request, status, wrong, error, passed) != ""
    assert passed == {request.argv: out}


def test_scaled_times_are_per_request_medians():
    requests = workloads.requests("exact-mp", 0)[:2]
    results = [{"index": 0, "seconds": 1.0, "scale": 1.0, "failure": ""},
               {"index": 0, "seconds": 2.0, "scale": 0.5, "failure": ""},
               {"index": 0, "seconds": 9.0, "scale": 1.0, "failure": ""},
               {"index": 1, "seconds": 3.0, "scale": 1.0, "failure": ""}]
    metrics, extra = run.end_to_end(requests, results, [0.2, 0.3, 0.1])
    assert metrics["request_p50_s"][0] == 2.0  # median of 1.0 and 3.0
    assert metrics["request_tail_s"][0] == 3.0
    assert metrics["requests_per_s"][0] == pytest.approx(2 / 4.0)
    assert metrics["setup_s"][0] == 0.2
    assert extra["passes"] == 2


def _output(argv):
    _, status, out, _ = run.call(CLI, argv)
    assert status == 0
    return out


@pytest.mark.parametrize("command, model, extra, field", [
    ("capacity", "su", {"n": 12, "l": "inf"}, "support"),
    ("capacity", "mp", {"n": 9, "l": 2}, "capacity_nats"),
    ("bounds", "su", {"n": 12, "l": "inf", "eps": 0.1}, "upper_nats"),
    ("scaling", "su", {"n_range": (10, 30, 10)}, "fitted_slope"),
    ("simulate", "mp", {"n": 5, "state": "noon"}, "entropy_nats"),
])
def test_check_rejects_a_wrong_number(command, model, extra, field):
    t = 2 if command == "simulate" else 3
    request = workloads._request(command, model, t, "json", "e", **extra)
    report = json.loads(_output(request.argv))
    checks.check(request.params, json.dumps(report))
    value = report[field]
    report[field] = str(int(value) + 1) if isinstance(value, str) else value * (1 + 1e-6)
    with pytest.raises(checks.CheckFailed):
        checks.check(request.params, json.dumps(report))


def test_check_rejects_a_wrong_multiplicity_in_csv():
    request = workloads._request("decompose", "mp", 3, "csv", "2", n=6, l=1)
    lines = _output(request.argv).split("\n")
    checks.check(request.params, "\n".join(lines))
    fields = lines[1].split(",")
    fields[-2] = str(int(fields[-2]) + 1)
    lines[1] = ",".join(fields)
    with pytest.raises(checks.CheckFailed):
        checks.check(request.params, "\n".join(lines))


def _metrocap_attributes():
    return {(name, attr): obj for name, module in sys.modules.items()
            if name == "metrocap" or name.startswith("metrocap.")
            for attr, obj in vars(module).items()}


def test_wrappers_are_restored_after_tracing_even_on_error():
    before = _metrocap_attributes()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            assert sys.modules["metrocap.cli"].decompose is not before[("metrocap.cli", "decompose")]
            assert sys.modules["metrocap.distinguish"].capacity is not \
                before[("metrocap.distinguish", "capacity")]
            raise RuntimeError("leave the block early")
    after = _metrocap_attributes()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_traced_request_attributes_every_block_and_the_whole_call():
    tracer = Tracer()
    argv = ("decompose", "--model", "su", "--n", "30", "--t", "3", "--l", "2")
    with tracer.installed(), tracer.request() as trace:
        elapsed, status, out, _ = run.call(CLI, argv)
    assert status == 0
    blocks = checks.block_count("su", 30, 3)
    assert trace.buckets["rep_core.multiplicity"][1] == blocks
    assert trace.buckets["cli.self"][1] >= 1
    total_self = sum(ns for ns, _ in trace.buckets.values()) / 1e9
    assert 0 < total_self <= elapsed
    counts = trace.counts()
    assert counts["blocks"] == blocks
    assert 0 < counts["unsaturated"] < blocks


@pytest.mark.parametrize("model", ["mp", "su"])
def test_twirl_useful_ratio_matches_a_direct_count(model):
    """A generic input fills every entry the twirl allows, and no other."""
    from metrocap import oracle

    n, ref_dim = 4, 2
    rho = oracle.pure_density(oracle.random_pure_state(np.random.default_rng(5), n, 2, ref_dim))
    if model == "mp":
        matrix = oracle.mp_twirl(rho, n, 2).matrix
    else:
        basis, _ = oracle.schur_basis_su2(n)
        w = np.kron(basis, np.eye(ref_dim))
        matrix = w.T @ oracle.su2_twirl(rho, n).matrix @ w
    direct = np.count_nonzero(np.abs(matrix) > 1e-12) / matrix.size
    assert twirl_useful_ratio(model, n, ref_dim) == direct


def test_missing_sources_exit_nonzero(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "ROOT", Path(tmp_path))
    with pytest.raises(SystemExit) as exc:
        run.load_cli()
    assert exc.value.code != 0
