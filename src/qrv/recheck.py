"""Offline re-check of a saved verification report, solving nothing.

It has no reader of its own: each run, as :func:`qrv.formats.report_runs`
reads it, is rebuilt by the verifier's ``assemble_reports`` from one batched
classification and, per exact verdict, the bound its recorded shifts certify
(``bound_at``: the dual value at each w > 0, sound by weak duality) or, if
they are malformed, the recorded delta and rival, so witnesses still pair
with the recorded verdicts and the shifts are named once.  A recorded delta
or margin within ``DELTA_TOL`` of its recomputation, or a witness distance
within ``DISTANCE_TOL``, is kept; then every key of the rebuilt document
must be present and equal the recorded one, in value and type, a dict's
entries too.  Each non-robust verdict takes the next sidecar witness, whose
``source_index`` must be its entry's index, an int; the witness must take
its entry's form, target the rival that sets delta, carry its label and
distance, lie within ``eps + WITNESS_BUDGET`` and change the class.  Figures are numbers as :mod:`qrv.formats` reads them; the
bound and witness distance read rho's cached factor, rotated once per rival.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from .classifiers import Classifier, LabeledDataset, classify_batch
from .formats import _number, _state_kind, emit_report, report_runs
from .states import fidelity
from .verifier import WITNESS_BUDGET, OptimalBound, _rotate, assemble_reports, bound_at

__all__ = ["recheck_report", "DELTA_TOL", "DISTANCE_TOL"]

DELTA_TOL = 1e-12  # recorded delta and margins against their recomputation
DISTANCE_TOL = 1e-9  # recorded witness distances against 1 - F recomputed


def _kept(recorded, value, tol):
    """The recorded figure if within ``tol`` of its recomputation ``value``, else ``value``."""
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
    """One line per mismatch between ``report``'s runs and their rebuild, and
    a summary; each non-robust verdict takes the next of the sidecar's
    ``witnesses``, ``(state, entry)`` pairs in file order."""
    runs = report_runs(report, len(dataset))
    states, labels = zip(*dataset)
    batch = classify_batch(classifier, states)
    wbatch = classify_batch(classifier, [s for s, _ in witnesses])
    queue = iter(enumerate(witnesses))
    weights = functools.cache(lambda i, k: _rotate(classifier, states[i].factor, labels[i], k)[1])
    problems = []

    for run in runs:
        eps, verdicts = run["epsilon"], run["verdicts"]
        malformed = set()  # entries whose shifts bad() has named

        def bad(i, field, message):
            problems.append(f"eps={eps} index={i} {field}: {message}")

        def recorded_bound(i) -> tuple[OptimalBound, float]:
            """Entry i's bound as its recorded shifts certify it, and its
            witness, the next in the sidecar, if it is not robust."""
            v, label = verdicts[i], labels[i]
            shifts, tol = v.get("dual_shifts"), DELTA_TOL
            if not (isinstance(shifts, list) and len(shifts) == classifier.n_classes
                    and all(w is None or _number(w) and w >= sys.float_info.min for w in shifts)
                    and shifts[label] is None):
                bad(i, "dual_shifts", f"{shifts!r} is not a null or normal positive shift "
                    "per class, null at the label")
                malformed.add(i)
                shifts, tol = [None] * classifier.n_classes, np.inf
            bound = bound_at(classifier, lambda k: weights(i, k), label, shifts)
            if not bound.unbounded:
                bound = bound._replace(delta=_kept(v.get("delta"), bound.delta, tol))
            if i in malformed and type(rival := v.get("adversarial_class")) is int \
                    and bound.per_class.get(rival) is not None:  # a reachable rival, kept
                bound = bound._replace(argmin_class=rival)
            if bound.robust_at(eps):
                return bound, 0.0
            distance = v.get("adversarial_distance")  # kept unchecked with no witness
            j, (sigma, entry) = next(queue, (None, (None, None)))
            if j is None or type(got := entry.get("source_index")) is not int or got != i:
                bad(i, "source_index", "no sidecar witness is left" if j is None
                    else f"sidecar entry {j} is for entry {got!r}")
                return bound._replace(witness_distance=distance), 0.0
            measured = 1.0 - fidelity(states[i], sigma)
            problems.extend(_mismatches(f"eps={eps} index={i} sidecar[{j}].", {
                "kind": _state_kind(states[i]), "label": label, "target_class": bound.argmin_class,
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
            if i in malformed:
                del verdict["dual_shifts"]
            problems.extend(_mismatches(f"eps={eps} index={i} ", verdict, recorded))
        problems.extend(_mismatches(f"eps={eps} ", doc, run))
    left = sum(1 for _ in queue)
    if left:
        problems.append(f"sidecar: {left} witness(es) no verdict refers to")
    return problems, f"{len(runs)} run(s), {len(witnesses)} witness(es)"
