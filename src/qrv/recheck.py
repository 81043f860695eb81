"""Offline re-check of a saved verification report, solving nothing: one
batched classification, one cached ``eigh`` per gap operator, and per exact
verdict the dual value at each rival's recorded shift w > 0 (sound by weak
duality), with r from a square-root factor of rho as the verifier takes it;
the least value is delta, and its rival (the first on a tie) the adversarial
class.  The same factor measures the entry's witness, so rho is factored once.
A null shift certifies an unbounded radius if the rival is unreachable, else 0.
"""

from __future__ import annotations

import math

import numpy as np

from .classifiers import Classifier, LabeledDataset, classify_batch
from .errors import SchemaError
from .formats import FORMAT_TAG
from .states import _factor_sqrt_fidelity, _state_factor
from .verifier import WITNESS_BUDGET, _dual_value

__all__ = ["recheck_report", "DELTA_TOL", "DISTANCE_TOL"]

DELTA_TOL = 1e-12  # recorded delta and margins against their recomputation
DISTANCE_TOL = 1e-9  # recorded witness distances against 1 - F recomputed


def _number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool) and math.isfinite(x)


def _same(got, value, tol=None) -> bool:
    """Equal and of one type or, given ``tol``, numbers within it."""
    return (got == value and type(got) is type(value) if tol is None
            else _number(got) and abs(got - value) <= tol)


def recheck_report(
    classifier: Classifier, dataset: LabeledDataset, report: dict, witnesses
) -> tuple[list[str], str]:
    """One line per mismatch between ``report`` (a parsed verification
    report or report set) and its recomputation, and a summary.  Each
    non-robust verdict takes the next of the sidecar's ``witnesses``,
    ``(state, entry)`` pairs in file order."""
    n = len(dataset)
    kind = report.get("kind") if isinstance(report, dict) else None
    runs = report.get("runs") if kind == "verification_report_set" else [report]
    if (kind not in ("verification_report", "verification_report_set")
            or report.get("format") != FORMAT_TAG or not isinstance(runs, list)):
        raise SchemaError(f"expected a {FORMAT_TAG} verification report or report set")
    if not runs:
        raise SchemaError("a report set needs at least one run", "runs")
    for j, run in enumerate(runs):
        verdicts = run.get("verdicts") if isinstance(run, dict) else None
        if not (isinstance(verdicts, list) and len(verdicts) == n
                and all(isinstance(v, dict) for v in verdicts)):
            raise SchemaError(f"expected {n} verdict objects", f"runs[{j}].verdicts")
        if not (_number(run.get("epsilon")) and 0.0 < run["epsilon"] < 1.0):
            raise SchemaError("epsilon must be a number in (0, 1)", f"runs[{j}].epsilon")
    states, labels = zip(*dataset)
    batch = classify_batch(classifier, states)
    correct = batch.labels == labels
    n_correct = int(np.count_nonzero(correct))
    wbatch = classify_batch(classifier, [s for s, _ in witnesses]) if witnesses else None
    queue = iter(enumerate(witnesses))
    roots, problems = {}, []

    def root(i) -> np.ndarray:
        if i not in roots:  # one factor of rho per entry, not per rival or witness
            roots[i] = _state_factor(states[i])
        return roots[i]

    def certified(i, shifts) -> tuple[float, int | None]:
        """Entry i's least radius the shifts certify, and its first rival."""
        best, rival = math.inf, None
        for k, w in enumerate(shifts):
            if k == labels[i]:
                continue
            a, vectors = classifier.gap_spectrum(labels[i], k)
            if w is None:
                value = math.inf if a[0] > 0.0 else 0.0
            else:
                r = (np.abs(vectors.conj().T @ root(i)) ** 2).sum(axis=1)
                value = _dual_value(w, a, r)
            if value < best:
                best, rival = value, k
        return best, rival

    for run in runs:
        eps = run["epsilon"]
        by_margin = batch.margins > np.sqrt(2.0 * eps)
        non_robust = solves = 0
        for i, v in enumerate(run["verdicts"]):
            def bad(field, message):
                problems.append(f"eps={eps} index={i} {field}: {message}")

            def expect(field, value, tol=None, got=None) -> bool:
                got = v.get(field) if got is None else got
                same = _same(got, value, tol)
                if not same:
                    bad(field, f"recorded {got!r}, recomputed {value!r}")
                return same

            ok = bool(correct[i])
            expect("index", i)
            expect("label", labels[i])
            expect("status", "ok" if ok else "misclassified")
            expect("predicted", int(batch.labels[i]))
            expect("correct", ok)
            expect("tie", bool(batch.ties[i]))
            expect("margin", float(batch.margins[i]), DELTA_TOL)
            expect("margin_certified", ok and bool(by_margin[i]))
            if not ok or by_margin[i]:  # no bound, so no bound or witness field
                expect("robust", True if ok else None)
                expect("delta_unbounded", False)
                for field in ("delta", "dual_shifts", "adversarial_class",
                              "adversarial_distance"):
                    expect(field, None)
                continue

            shifts = v.get("dual_shifts")
            if not (isinstance(shifts, list) and len(shifts) == classifier.n_classes
                    and all(w is None or _number(w) and w > 0.0 for w in shifts)
                    and shifts[labels[i]] is None):
                bad("dual_shifts", f"{shifts!r} is not a null or positive shift per "
                    "class, null at the label")
                shifts = [None] * classifier.n_classes
            solves += len(shifts) - shifts.count(None)
            (value, rival), delta = certified(i, shifts), v.get("delta")
            expect("delta_unbounded", value == math.inf)
            if value == math.inf:
                expect("delta", None)
            elif not expect("delta", value, DELTA_TOL):
                delta = value
            robust = value == math.inf or eps <= delta
            expect("robust", robust)
            if robust:
                expect("adversarial_class", None)
                expect("adversarial_distance", None)
                continue

            non_robust += 1
            expect("adversarial_class", rival)
            j, (sigma, entry) = next(queue, (None, (None, None)))
            if j is None or entry.get("source_index") != i:
                bad("source_index", "no sidecar witness is left" if j is None
                    else f"sidecar entry {j} is for entry {entry.get('source_index')!r}")
                continue
            expect("adversarial_class", entry.get("target_class"))
            distance = 1.0 - _factor_sqrt_fidelity(root(i), _state_factor(sigma)) ** 2
            expect("adversarial_distance", distance, DISTANCE_TOL)
            expect(f"sidecar[{j}].label", labels[i], got=entry["label"])
            expect(f"sidecar[{j}].distance", distance, DISTANCE_TOL, entry.get("distance"))
            if distance > eps + WITNESS_BUDGET:
                bad("adversarial_distance", f"sidecar entry {j} lies at {distance!r}, "
                    f"beyond eps + {WITNESS_BUDGET}")
            if wbatch.labels[j] == labels[i] and not wbatch.ties[j]:
                bad("adversarial_class", f"sidecar entry {j} keeps label {labels[i]}")

        ura = 1.0 - (n - int(np.count_nonzero(by_margin))) / n
        for field, value in (("n_states", n), ("n_correct", n_correct),
                             ("accuracy", n_correct / n), ("adversarial_count", non_robust),
                             ("robust_accuracy", 1.0 - non_robust / n),
                             ("under_approx_robust_accuracy", ura),
                             ("solver_stats", {"sdp_solves": solves})):
            if not _same(run.get(field), value):
                problems.append(f"eps={eps} {field}: recorded {run.get(field)!r}, "
                                f"recomputed {value!r}")
    left = sum(1 for _ in queue)
    if left:
        problems.append(f"sidecar: {left} witness(es) no verdict refers to")
    return problems, f"{len(runs)} run(s), {len(witnesses)} witness(es)"
