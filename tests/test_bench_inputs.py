"""The benchmark's generators still build inputs that qrv verifies.

``bench/workloads.py`` calls the library to generate each workload named in
``BENCHMARK.json``, so an API change that breaks a generator fails here
rather than only in a benchmark run; ``bench/check.py``, the benchmark's own
output check, then checks what verify wrote, so a change that would lower
``verdict_ok_ratio`` fails here too; ``bench/tracer.py`` must still see the
bound layer of a verify run.  Each module is imported from its file, without
writing bytecode next to it.
"""

import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

import qrv.cli
import qrv.verifier
from qrv.cli import main

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


def _bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # its dataclasses look the module up
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def generators():
    return _bench_module("workloads").GENERATORS


@pytest.fixture(scope="module")
def check():
    return _bench_module("check")


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_verifies_and_rechecks(name, generators, check, tmp_path):
    workload = generators[name](0, tmp_path)
    report, sidecar = tmp_path / "report.json", tmp_path / "adversarial.json"
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(workload.verify_args(report, sidecar) + ["--omit-timings"]) == 0
        assert main(["recheck", str(workload.classifier_path), str(workload.dataset_path),
                     str(report), str(sidecar)]) == 0
    assert out.getvalue().strip().endswith("consistent")
    reference = json.loads((ROOT / "bench" / "baseline.json").read_text())["reference"]
    inputs = check.Inputs(workload)
    result = check.check_run(inputs, 0, report, sidecar, reference[name]["0"])
    assert result.attempted == len(inputs.dataset) * len(workload.epsilons)
    assert (result.failed, result.problems) == (0, [])


# Witnesses the exact path builds for seed 0 of each workload: one per entry
# that the largest radius reports not robust (it built one per bound before,
# 16 and 14).
WITNESSES_BUILT = {"noisy_mixed": 3, "image_exact": 6}


@pytest.mark.parametrize("name", WORKLOADS)
def test_witness_only_where_a_radius_reports_one(name, generators, tmp_path, monkeypatch):
    built = []
    witness = qrv.verifier._witness_factor
    monkeypatch.setattr(qrv.verifier, "_witness_factor",
                        lambda *args: built.append(args) or witness(*args))
    workload = generators[name](0, tmp_path)
    report, sidecar = tmp_path / "report.json", tmp_path / "adversarial.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(workload.verify_args(report, sidecar) + ["--omit-timings"]) == 0
    entries = {entry["source_index"] for entry in json.loads(sidecar.read_text())["states"]}
    assert len(built) == len(entries) == WITNESSES_BUILT[name]


# Correct entries that the margin leaves undecided at the largest radius of
# seed 0 of each workload: each gets one bound.
EXACT_ENTRIES = {"noisy_mixed": 16, "image_exact": 14}


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracer_sees_the_bound_layer(name, generators, tmp_path):
    tracer = _bench_module("tracer")
    workload = generators[name](0, tmp_path)
    report, sidecar = tmp_path / "report.json", tmp_path / "adversarial.json"
    spans = tracer.Tracer(name)
    spans.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert qrv.cli.main(workload.verify_args(report, sidecar) + ["--omit-timings"]) == 0
    finally:
        spans.uninstall()
    metrics = tracer.layer_metrics(spans.records(), [])
    doc = json.loads(report.read_text())
    widest = max(doc.get("runs", [doc]), key=lambda run: run["epsilon"])  # one run or a set
    exact = sum(v["correct"] and not v["margin_certified"] for v in widest["verdicts"])
    assert metrics["verifier.compute_optimal_bound.calls"] == exact == EXACT_ENTRIES[name]
    assert metrics["states.fidelity.calls"] == WITNESSES_BUILT[name]
    assert metrics["verifier.delta_reuse_ratio"] == 1.0
