"""Offline re-check of a saved verification report, solving nothing.

Each run is rebuilt by the verifier's own ``assemble_reports`` from one
batched classification and, per exact verdict, the bound its recorded
shifts certify (``bound_at``: the dual value at each w > 0, sound by weak
duality).  A recorded delta or margin within ``DELTA_TOL`` of its
recomputation, or a witness distance within ``DISTANCE_TOL``, is kept; then
every key of the rebuilt document must be present and equal the recorded
one, in value and type, a dict's entries too.  Each non-robust verdict takes
the next sidecar witness, whose ``source_index`` must be its entry's index,
an int; the witness must target the rival that sets delta, carry its label
and distance, lie within ``eps + WITNESS_BUDGET`` and change the class.  A
recorded figure counts as a number as :mod:`qrv.formats` reads one.  The
bound and the witness distance read rho's cached factor, rotated once per
rival for all runs.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from .classifiers import Classifier, LabeledDataset, classify_batch
from .errors import SchemaError
from .formats import FORMAT_TAG, _number, emit_report
from .states import sqrt_fidelity
from .verifier import WITNESS_BUDGET, OptimalBound, _rotate, assemble_reports, bound_at

__all__ = ["recheck_report", "DELTA_TOL", "DISTANCE_TOL"]

DELTA_TOL = 1e-12  # recorded delta and margins against their recomputation
DISTANCE_TOL = 1e-9  # recorded witness distances against 1 - F recomputed


def _kept(recorded, value, tol):
    """The recorded figure where it lies within ``tol`` of ``value``, its
    recomputation; else ``value``."""
    return recorded if _number(recorded) and abs(recorded - value) <= tol else value


_ABSENT = object()  # what a key the recorded document lacks reads as: equal to nothing


def _mismatches(where: str, rebuilt: dict, recorded: dict) -> list[str]:
    """One line per key of ``rebuilt`` whose recorded value is absent or differs
    in value or type, a dict's entries by the same rule, prefixed by ``where``."""
    return [f"{where}{key}: " + ("absent" if got is _ABSENT else f"recorded {got!r}")
            + f", recomputed {value!r}" for key, value in rebuilt.items()
            if (got := recorded.get(key, _ABSENT)) != value or type(got) is not type(value)
            or type(value) is dict and _mismatches(where, value, got)]


def recheck_report(
    classifier: Classifier, dataset: LabeledDataset, report: dict, witnesses
) -> tuple[list[str], str]:
    """One line per mismatch between ``report`` (a parsed verification
    report or report set) and its rebuild, and a summary.  Each non-robust
    verdict takes the next of the sidecar's ``witnesses``, ``(state, entry)``
    pairs in file order."""
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
        if type(run.get("seed")) is not int:
            raise SchemaError("seed must be an integer", f"runs[{j}].seed")
    states, labels = zip(*dataset)
    batch = classify_batch(classifier, states)
    wbatch = classify_batch(classifier, [s for s, _ in witnesses]) if witnesses else None
    queue = iter(enumerate(witnesses))
    weights = functools.cache(lambda i, k: _rotate(classifier, states[i].factor, labels[i], k)[1])
    problems = []

    for run in runs:
        eps, verdicts = run["epsilon"], run["verdicts"]

        def bad(i, field, message):
            problems.append(f"eps={eps} index={i} {field}: {message}")

        def recorded_bound(i) -> tuple[OptimalBound, float]:
            """Entry i's bound as its recorded shifts certify it, and its
            witness, the next in the sidecar, if it is not robust."""
            v, label = verdicts[i], labels[i]
            shifts = v.get("dual_shifts")
            if not (isinstance(shifts, list) and len(shifts) == classifier.n_classes
                    and all(w is None or _number(w) and w >= sys.float_info.min for w in shifts)
                    and shifts[label] is None):
                bad(i, "dual_shifts", f"{shifts!r} is not a null or normal positive shift "
                    "per class, null at the label")
                shifts = [None] * classifier.n_classes
            bound = bound_at(classifier, lambda k: weights(i, k), label, shifts)
            if not bound.unbounded:
                bound = bound._replace(delta=_kept(v.get("delta"), bound.delta, DELTA_TOL))
            if bound.robust_at(eps):
                return bound, 0.0
            distance = v.get("adversarial_distance")  # kept unchecked with no witness
            j, (sigma, entry) = next(queue, (None, (None, None)))
            if j is None or type(got := entry.get("source_index")) is not int or got != i:
                bad(i, "source_index", "no sidecar witness is left" if j is None
                    else f"sidecar entry {j} is for entry {got!r}")
                return bound._replace(witness_distance=distance), 0.0
            measured = 1.0 - sqrt_fidelity(states[i], sigma) ** 2
            problems.extend(_mismatches(f"eps={eps} index={i} sidecar[{j}].", {
                "label": label, "target_class": bound.argmin_class,
                "distance": _kept(entry.get("distance"), measured, DISTANCE_TOL),
            }, entry))
            if measured > eps + WITNESS_BUDGET:
                bad(i, "adversarial_distance", f"sidecar entry {j} lies at {measured!r}, "
                    f"beyond eps + {WITNESS_BUDGET}")
            if wbatch.labels[j] == label and not wbatch.ties[j]:
                bad(i, "adversarial_class", f"sidecar entry {j} keeps label {label}")
            distance = _kept(distance, measured, DISTANCE_TOL)
            return bound._replace(witness=sigma, witness_distance=distance), 0.0

        margins = [_kept(v.get("margin"), m, DELTA_TOL)
                   for v, m in zip(verdicts, batch.margins.tolist())]
        [rebuilt] = assemble_reports(batch._replace(margins=np.array(margins)), labels,
                                     [eps], recorded_bound, 0.0, run["seed"])
        doc = emit_report(rebuilt, include_timings=False)
        del doc["under_approx_seconds"]  # a timing, like the timings left out
        for i, (verdict, recorded) in enumerate(zip(doc.pop("verdicts"), verdicts)):
            problems.extend(_mismatches(f"eps={eps} index={i} ", verdict, recorded))
        problems.extend(_mismatches(f"eps={eps} ", doc, run))
    left = sum(1 for _ in queue)
    if left:
        problems.append(f"sidecar: {left} witness(es) no verdict refers to")
    return problems, f"{len(runs)} run(s), {len(witnesses)} witness(es)"
