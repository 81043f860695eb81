"""qrv benchmark: timed ``qrv verify`` processes on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Set-up generates the workload's inputs from
the seed (three times, reporting the median) and warms the imports.  The
timed region then starts fresh ``python -m qrv.cli verify`` processes one
after another until they fill S seconds to within half a process (at
least two), and reports their median.
Every process's outputs are checked outside the timed region.  With
``--trace 1`` one more verify process runs with layer spans recorded (see
``tracer.py``) and the per-layer metrics are reported instead of the
end-to-end ones.  The last line of standard output is the JSON result;
the full record, metadata included, goes to ``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3
# A child is killed after CHILD_TIMEOUT_S, and no timed child starts once
# one more would end after TIMED_DEADLINE_S from the start of the run, so
# the checks and the traced child still end within 180 s on a slow host.
CHILD_TIMEOUT_S = 50
TIMED_DEADLINE_S = 110
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_SAMPLES = 2


def declared_units(trace: int) -> dict:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], log: Path) -> tuple[float, float, int]:
    """(wall seconds, peak RSS in MB, exit code) of one child process.

    The child is killed after CHILD_TIMEOUT_S seconds; a killed child
    reports a negative exit code.
    """
    with open(log, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=fh,
                                stderr=subprocess.STDOUT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n <= 10:
        return None
    p = (100 * (n - 10)) // n
    rank = max(1, -(-n * p // 100))
    return p, sorted(values)[rank - 1]


def metadata(seed: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None  # not a git checkout
    digest = hashlib.sha256()
    for path in sorted((SRC / "qrv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "seed": seed,
    }


class Bench:
    """One benchmark run of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        import workloads

        self.name, self.seed = name, seed
        self.generate = workloads.GENERATORS[name]
        self.dir = OUT / name / f"seed{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        self.spans_path = self.dir / "spans.jsonl"
        self.spans_path.unlink(missing_ok=True)

    def setup(self) -> tuple[object, list[float]]:
        """Generate inputs and warm the imports SETUP_REPEATS times."""
        warm = [sys.executable, "-c", "import qrv.cli"]
        times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload = self.generate(self.seed, self.dir)
            _, _, code = run_child(warm, self.dir / "warmup.log")
            if code != 0:
                raise RuntimeError(f"warm-up import exited {code}")
            times.append(time.perf_counter() - start)
        return workload, times

    def traced_setup(self) -> list[dict]:
        """One more set-up with the layers traced in this process."""
        from tracer import Tracer

        tracer = Tracer(f"{self.name}-{self.seed}-setup")
        tracer.install()
        try:
            self.generate(self.seed, self.dir)
        finally:
            tracer.uninstall()
        tracer.write_jsonl(self.spans_path)
        return tracer.records()

    def verify(self, workload, tag: str, traced: bool = False):
        """Run one verify process; returns (wall, rss_mb, code, report, sidecar)."""
        report, sidecar = self.dir / f"report-{tag}.json", self.dir / f"adv-{tag}.json"
        report.unlink(missing_ok=True)
        sidecar.unlink(missing_ok=True)
        args = workload.verify_args(report, sidecar)
        if traced:
            argv = [sys.executable, str(BENCH / "traced_verify.py"), str(self.spans_path),
                    f"{self.name}-{self.seed}-verify", "--", *args]
        else:
            argv = [sys.executable, "-m", "qrv.cli", *args]
        wall, rss, code = run_child(argv, self.dir / f"verify-{tag}.log")
        return wall, rss, code, report, sidecar


def summarize(values: list[float]) -> dict:
    tail = tail_percentile(values)
    return {
        "median": statistics.median(values),
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "samples": len(values),
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "qrv" / "cli.py").is_file():
        print(f"bench: no qrv sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    sys.path.insert(0, str(SRC))

    import workloads
    from check import Inputs, check_run

    if args.workload not in workloads.GENERATORS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.GENERATORS)}")
    bench = Bench(args.workload, args.seed)
    workload, setup_times = bench.setup()
    inputs = Inputs(workload)
    invariants = inputs.invariants()
    reference = _reference(args.workload, args.seed)

    walls, rss, checks = [], [], []
    while len(walls) < MIN_SAMPLES or (
        sum(walls) + statistics.median(walls) / 2 < args.seconds
        and time.perf_counter() - started + max(walls) < TIMED_DEADLINE_S
    ):
        wall, peak, code, report, sidecar = bench.verify(workload, f"run{len(walls)}")
        walls.append(wall)
        rss.append(peak)
        checks.append(check_run(inputs, code, report, sidecar, reference))
    verify_s = statistics.median(walls)

    record = {
        "workload": args.workload,
        "meta": metadata(args.seed),
        "invariants": invariants,
        "reference_checked": reference is not None,
        "setup_s": summarize(setup_times),
        "verify_s": summarize(walls),
        "peak_rss_mb": summarize(rss),
    }
    if args.trace:
        from tracer import layer_metrics, read_jsonl

        setup_spans = bench.traced_setup()
        wall, _, code, report, sidecar = bench.verify(workload, "traced", traced=True)
        checks.append(check_run(inputs, code, report, sidecar, reference))
        verify_spans = read_jsonl(bench.spans_path, f"{args.workload}-{args.seed}-verify")
        metrics = layer_metrics(verify_spans, setup_spans)
        metrics["trace.verify_s"] = wall
        metrics["trace.overhead_s"] = wall - verify_s
        record["spans"] = str(bench.spans_path.relative_to(ROOT))
    totals = {key: sum(getattr(c, key) for c in checks)
              for key in ("attempted", "failed", "exact_attempted")}
    failed_ratio = totals["failed"] / totals["attempted"]
    if not args.trace:
        pairs = invariants["entries"] * len(invariants["epsilons"])
        metrics = {
            "verify_s": verify_s,
            "verdicts_per_s": pairs / verify_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": statistics.median(rss),
            "verdict_ok_ratio": 1.0 - failed_ratio,
        }

    problems = list(dict.fromkeys(p for c in checks for p in c.problems))
    correct = totals["failed"] == 0 and not problems
    record.update(metrics=metrics, totals=totals, failed_ratio=failed_ratio,
                  correct=correct, problems=problems,
                  robust_accuracy=checks[0].robust_accuracy,
                  under_approx=checks[0].under_approx)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    out_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=2) + "\n")

    units = declared_units(args.trace)
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"BENCHMARK.json declares unmeasured metrics {sorted(missing)}")
    metrics = {name: metrics[name] for name in units}
    print_summary(record, metrics, units, out_path)
    print(json.dumps({
        "correct": correct,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def _reference(workload: str, seed: int) -> dict | None:
    """RA/URA per epsilon recorded at the seed commit, if this seed has one."""
    baseline = BENCH / "baseline.json"
    if not baseline.is_file():
        return None
    refs = json.loads(baseline.read_text()).get("reference", {})
    return refs.get(workload, {}).get(str(seed))


def print_summary(record: dict, metrics: dict, units: dict, out_path: Path) -> None:
    inv = record["invariants"]
    print(f"workload {record['workload']} seed {record['meta']['seed']}: "
          f"{inv['entries']} entries x {len(inv['epsilons'])} eps, dim {inv['dim']}, "
          f"{inv['classes']} classes, {inv['exact_pairs']} exact (entry, eps) pairs")
    print(f"  meta {json.dumps(record['meta'])}")
    for key in ("setup_s", "verify_s", "peak_rss_mb"):
        s = record[key]
        tail = s["tail"]
        tail_text = "no tail (<11 samples)" if tail is None else \
            f"p{tail['percentile']} {tail['value']:.4f}"
        print(f"  {key:<14} median {s['median']:.4f}  {tail_text}  n={s['samples']}")
    print(f"  failed_ratio   {record['failed_ratio']:.4f}  "
          f"({record['totals']['failed']} of {record['totals']['attempted']} verdicts; "
          f"{record['totals']['exact_attempted']} exact)")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    for name, value in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    print(f"  full record: {out_path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
