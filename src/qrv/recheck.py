"""Offline re-check of a saved verification report, solving nothing.

Each run is rebuilt by the verifier's own ``assemble_reports`` from one
batched classification and, per exact verdict, the bound its recorded
shifts certify (``bound_at``: the dual value at each w > 0, sound by weak
duality).  A recorded delta or margin within ``DELTA_TOL`` of its
recomputation, or a witness distance within ``DISTANCE_TOL``, is kept; then
every key of the rebuilt document must equal the recorded one.  Each
non-robust verdict takes the next sidecar witness, which must be for its
entry, target the rival that sets delta, carry its label and distance, lie
within ``eps + WITNESS_BUDGET`` and change the class.  The bound and the
witness distance read one factor of rho.
"""

from __future__ import annotations

import functools
import sys

import numpy as np

from .classifiers import Classifier, LabeledDataset, classify_batch
from .errors import SchemaError
from .formats import FORMAT_TAG, emit_report
from .states import _factor_sqrt_fidelity, _state_factor
from .verifier import WITNESS_BUDGET, OptimalBound, assemble_reports, bound_at

__all__ = ["recheck_report", "DELTA_TOL", "DISTANCE_TOL"]

DELTA_TOL = 1e-12  # recorded delta and margins against their recomputation
DISTANCE_TOL = 1e-9  # recorded witness distances against 1 - F recomputed


def _number(x) -> bool:
    """A finite float, or an int in its range; ``x`` is not converted."""
    return (isinstance(x, (int, float)) and not isinstance(x, bool)
            and abs(x) <= sys.float_info.max)


def _kept(recorded, value, tol):
    """The recorded figure where it lies within ``tol`` of ``value``, its
    recomputation; else ``value``."""
    return recorded if _number(recorded) and abs(recorded - value) <= tol else value


def _mismatches(where: str, rebuilt: dict, recorded: dict) -> list[str]:
    """One line per key of ``rebuilt`` whose recorded value differs in value
    or type, the key prefixed by ``where``."""
    return [f"{where}{key}: recorded {got!r}, recomputed {value!r}"
            for key, value in rebuilt.items()
            if (got := recorded.get(key)) != value or type(got) is not type(value)]


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
    root = functools.cache(lambda i: _state_factor(states[i]))  # one factor per entry
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
                    and all(w is None or _number(w) and w > 0.0 for w in shifts)
                    and shifts[label] is None):
                bad(i, "dual_shifts", f"{shifts!r} is not a null or positive shift per "
                    "class, null at the label")
                shifts = [None] * classifier.n_classes
            solved = shifts.count(None) < len(shifts)  # else rho is not read
            radii, rival = bound_at(classifier, root(i) if solved else None, label, shifts)
            delta = None if rival is None else _kept(v.get("delta"), radii[rival], DELTA_TOL)
            bound = OptimalBound(delta=delta, unbounded=rival is None, argmin_class=rival,
                                 witness=None, per_class=radii, shifts=dict(enumerate(shifts)))
            if bound.robust_at(eps):
                return bound, 0.0
            distance = v.get("adversarial_distance")  # kept unchecked with no witness
            j, (sigma, entry) = next(queue, (None, (None, None)))
            if j is None or entry.get("source_index") != i:
                bad(i, "source_index", "no sidecar witness is left" if j is None
                    else f"sidecar entry {j} is for entry {entry.get('source_index')!r}")
                return bound._replace(witness_distance=distance), 0.0
            measured = 1.0 - _factor_sqrt_fidelity(root(i), _state_factor(sigma)) ** 2
            problems.extend(_mismatches(f"eps={eps} index={i} sidecar[{j}].", {
                "label": label, "target_class": rival,
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
        [rebuilt] = assemble_reports(
            classifier, batch._replace(margins=np.array(margins)), labels,
            [eps], recorded_bound, 0.0, run["seed"])
        doc = emit_report(rebuilt, include_timings=False)
        for i, (verdict, recorded) in enumerate(zip(doc.pop("verdicts"), verdicts)):
            problems.extend(_mismatches(f"eps={eps} index={i} ", verdict, recorded))
        problems.extend(_mismatches(f"eps={eps} ", doc, run))
    left = sum(1 for _ in queue)
    if left:
        problems.append(f"sidecar: {left} witness(es) no verdict refers to")
    return problems, f"{len(runs)} run(s), {len(witnesses)} witness(es)"
