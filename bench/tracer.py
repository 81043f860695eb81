"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of the traced ``qrv`` modules
and rebinds every module-level name that refers to one of them, including
names a module imported with ``from ... import``, so nothing under
``src/`` changes.  Spans (name, start, end, parent, run id) stay in memory
until :meth:`Tracer.write_jsonl`.  :func:`layer_metrics` derives the
per-layer metrics from the recorded spans.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import os
import sys
import time

LAYERS = ("cli", "formats", "classifiers", "verifier", "sdp", "states",
          "casestudy", "sampling")


def _state_key(state) -> str:
    data = getattr(state, "amplitudes", None)
    if data is None:
        data = getattr(state, "matrix", state)
    return hashlib.sha1(data.tobytes()).hexdigest()


def _report_counts(report) -> dict:
    verdicts = report.verdicts
    exact = [v for v in verdicts if v.correct and not v.margin_certified]
    return {
        "sdp_solves": int(report.solver_stats.get("sdp_solves", 0)),
        "verdicts": len(verdicts),
        "correct": sum(1 for v in verdicts if v.correct),
        "margin_certified": sum(1 for v in verdicts if v.margin_certified),
        "exact": len(exact),
        "exact_robust": sum(1 for v in exact if v.robust is True),
    }


# Counts taken where the work happens: (args, kwargs, result) -> attrs.
HOOKS = {
    "sdp.solve": lambda a, k, r: {"iterations": int(r.iterations)},
    "formats.write_json": lambda a, k, r: {
        "bytes": os.path.getsize(a[0] if a else k["path"])
    },
    "verifier.verify_dataset": lambda a, k, r: _report_counts(r),
    "verifier.compute_optimal_bound": lambda a, k, r: {"state": _state_key(a[1])},
    "verifier.pure_state_optimal_bound": lambda a, k, r: {"state": _state_key(a[1])},
}


class Tracer:
    """In-memory span recorder for one run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent, attrs]
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    def record(self, name: str, start: float, end: float) -> None:
        """Add a span measured by the caller."""
        self.spans.append([name, start, end, None, None])

    def _wrap(self, name: str, fn):
        spans, stack, hook = self.spans, self._stack, HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = time.perf_counter()
            if hook is not None:
                span[4] = hook(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap each traced module's public functions everywhere they are
        bound inside the ``qrv`` package."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules.get(f"qrv.{layer}")
            if module is None:
                continue
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and not attr.startswith("_")
                        and value.__module__ == module.__name__):
                    wrappers[id(value)] = self._wrap(f"{layer}.{attr}", value)
        for name, module in list(sys.modules.items()):
            if name != "qrv" and not name.startswith("qrv."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._rebound.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()

    def records(self) -> list[dict]:
        return [
            {"run": self.run_id, "id": i, "name": name, "start": start, "end": end,
             "parent": parent, "attrs": attrs}
            for i, (name, start, end, parent, attrs) in enumerate(self.spans)
        ]

    def write_jsonl(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for record in self.records():
                fh.write(json.dumps(record) + "\n")


def read_jsonl(path, run_id: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    return [r for r in records if r["run"] == run_id]


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


class _Spans:
    """Durations, busy time and self time over one run's span records."""

    def __init__(self, records: list[dict]):
        self.records = records
        self.duration = [r["end"] - r["start"] for r in records]
        child_time = [0.0] * len(records)
        for i, r in enumerate(records):
            if r["parent"] is not None:
                child_time[r["parent"]] += self.duration[i]
        self.self_time = [d - c for d, c in zip(self.duration, child_time)]

    def named(self, name: str) -> list[int]:
        return [i for i, r in enumerate(self.records) if r["name"] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def busy(self, prefix: str) -> float:
        """Time inside spans whose name is ``prefix`` or starts with
        ``prefix.``, counting nested ones once."""
        def inside(name):
            return name == prefix or name.startswith(prefix + ".")

        # A parent is recorded before its children, so one forward pass
        # knows whether any ancestor already matched.
        covered = [False] * len(self.records)
        total = 0.0
        for i, r in enumerate(self.records):
            parent = r["parent"]
            ancestor = parent is not None and covered[parent]
            if inside(r["name"]):
                covered[i] = True
                if not ancestor:
                    total += self.duration[i]
            else:
                covered[i] = ancestor
        return total

    def self_s(self, prefix: str) -> float:
        return sum(
            (self.self_time[i] for i, r in enumerate(self.records)
             if r["name"] == prefix or r["name"].startswith(prefix + ".")),
            0.0,
        )

    def ms(self, name: str, q: float) -> float:
        return 1e3 * _percentile([self.duration[i] for i in self.named(name)], q)

    def attr_sum(self, name: str, key: str) -> int:
        return sum(self.records[i]["attrs"][key] for i in self.named(name))


def layer_metrics(verify_records: list[dict], setup_records: list[dict]) -> dict:
    """Per-layer metrics of one traced verify run and one traced set-up."""
    run, setup = _Spans(verify_records), _Spans(setup_records)
    m = {
        "cli.import_s": run.busy("cli.import"),
        "cli.self_s": run.self_s("cli.main"),
    }
    for layer in ("formats", "classifiers", "verifier", "sdp", "states"):
        m[f"{layer}.self_s"] = run.self_s(layer)
    for name in ("formats.load_classifier", "formats.load_dataset",
                 "formats.emit_report", "formats.emit_adversarial_sidecar",
                 "formats.write_json"):
        m[f"{name}.busy_s"] = run.busy(name)
    m["formats.write_json.bytes"] = run.attr_sum("formats.write_json", "bytes")

    m["classifiers.classify.calls"] = run.calls("classifiers.classify")
    m["classifiers.classify.busy_s"] = run.busy("classifiers.classify")

    m["verifier.under_robust_accuracy.busy_s"] = run.busy("verifier.under_robust_accuracy")
    m["verifier.verify_dataset.self_s"] = run.self_s("verifier.verify_dataset")
    bound = "verifier.compute_optimal_bound"
    m[f"{bound}.calls"] = run.calls(bound)
    m[f"{bound}.busy_s"] = run.busy(bound)
    m[f"{bound}.p50_ms"] = run.ms(bound, 50)
    m[f"{bound}.p90_ms"] = run.ms(bound, 90)
    pure = "verifier.pure_state_optimal_bound"
    m[f"{pure}.calls"] = run.calls(pure)
    m[f"{pure}.busy_s"] = run.busy(pure)
    m[f"{pure}.p50_ms"] = run.ms(pure, 50)
    bound_spans = run.named(bound) + run.named(pure)
    distinct = len({run.records[i]["attrs"]["state"] for i in bound_spans})
    m["verifier.delta_reuse_ratio"] = distinct / len(bound_spans) if bound_spans else 1.0
    counts = {key: run.attr_sum("verifier.verify_dataset", key)
              for key in ("sdp_solves", "correct", "margin_certified", "exact",
                          "exact_robust")}
    m["verifier.margin_certified_ratio"] = (
        counts["margin_certified"] / counts["correct"] if counts["correct"] else 0.0
    )
    m["verifier.exact_robust_ratio"] = (
        counts["exact_robust"] / counts["exact"] if counts["exact"] else 0.0
    )

    solves = run.calls("sdp.solve")
    m["sdp.solve.calls"] = solves
    m["sdp.solve.busy_s"] = run.busy("sdp.solve")
    m["sdp.solve.p50_ms"] = run.ms("sdp.solve", 50)
    m["sdp.solve.p90_ms"] = run.ms("sdp.solve", 90)
    iterations = run.attr_sum("sdp.solve", "iterations")
    m["sdp.iterations"] = iterations
    m["sdp.iterations_per_solve"] = iterations / solves if solves else 0.0
    m["sdp.retries"] = solves - counts["sdp_solves"]
    m["sdp.sqrt_fidelity_sdp.busy_s"] = run.busy("sdp.sqrt_fidelity_sdp")
    m["sdp.extract_fidelity_solution.busy_s"] = run.busy("sdp.extract_fidelity_solution")

    m["states.fidelity.calls"] = run.calls("states.fidelity")
    m["states.fidelity.busy_s"] = run.busy("states.fidelity")

    m["casestudy.busy_s"] = setup.busy("casestudy")
    m["casestudy.generate_qubit_case_study.busy_s"] = setup.busy(
        "casestudy.generate_qubit_case_study")
    m["casestudy.encode_image.busy_s"] = setup.busy("casestudy.encode_image")
    m["sampling.busy_s"] = setup.busy("sampling")
    return m
