"""Output checker for one ``qrv verify`` run.

Runs outside the timed region and uses only public ``qrv`` functions.  A
verdict (one entry at one epsilon) fails when it is a ``solver_failure``
or ``inconclusive``, when its margin certificate or misclassification
does not recompute, when its witness fails the re-check, or when the
process exited non-zero.  Report-level checks (URA recomputed from the
margins, RA from the verdicts, RA/URA against the seed reference) add
problems without counting verdicts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from qrv import PureState, classify, fidelity, formats, pure_to_density

WITNESS_SLACK = 1e-5  # 1 - F(rho, sigma) may exceed epsilon by this much
REFERENCE_TOL = 1e-9


@dataclass
class CheckResult:
    attempted: int = 0
    failed: int = 0
    exact_attempted: int = 0
    robust_accuracy: list = field(default_factory=list)
    under_approx: list = field(default_factory=list)
    problems: list = field(default_factory=list)


def _density(state):
    return pure_to_density(state) if isinstance(state, PureState) else state


class Inputs:
    """The generated classifier and dataset, parsed once, with each entry's
    classification recomputed independently of the report."""

    def __init__(self, workload):
        self.workload = workload
        self.classifier = formats.load_classifier(workload.classifier_path)
        self.dataset = formats.load_dataset(workload.dataset_path)
        self.outcomes = [classify(self.classifier, s) for s, _ in self.dataset]

    def invariants(self) -> dict:
        """Entries, epsilons, dim, classes and exact (entry, epsilon) pairs:
        correct entries whose margin does not exceed sqrt(2 epsilon)."""
        labels = [label for _, label in self.dataset]
        correct = [c for c, label in zip(self.outcomes, labels) if c.label_index == label]
        epsilons = self.workload.epsilons
        return {
            "entries": len(labels),
            "epsilons": list(epsilons),
            "mode": self.workload.mode,
            "dim": self.classifier.dim,
            "classes": self.classifier.n_classes,
            "misclassified": len(labels) - len(correct),
            "exact_pairs": sum(1 for eps in epsilons for c in correct
                               if c.margin <= math.sqrt(2.0 * eps)),
            "min_margin": min(c.margin for c in self.outcomes),
        }


def _witness_problem(inputs: Inputs, index: int, eps: float, entry, raw) -> str | None:
    state, label = inputs.dataset.entries[index]
    if raw.get("source_index") != index:
        return f"entry {index}: sidecar holds source_index {raw.get('source_index')}"
    sigma = entry[0]
    distance = 1.0 - fidelity(_density(state), _density(sigma))
    if distance > eps + WITNESS_SLACK:
        return f"entry {index}: witness distance {distance:.3g} exceeds eps {eps}"
    outcome = classify(inputs.classifier, sigma)
    if outcome.label_index == label and not outcome.tie:
        return f"entry {index}: witness keeps label {label}"
    return None


def _verdict_problem(inputs: Inputs, v: dict, eps: float, witnesses) -> str | None:
    index = v["index"]
    outcome = inputs.outcomes[index]
    label = inputs.dataset.entries[index][1]
    correct = outcome.label_index == label
    if v["status"] in ("solver_failure", "inconclusive"):
        return f"entry {index}: status {v['status']}"
    if abs(v["margin"] - outcome.margin) > 1e-9:
        return f"entry {index}: margin {v['margin']} recomputes to {outcome.margin}"
    if v["status"] == "misclassified":
        return None if not correct else f"entry {index}: wrongly misclassified"
    if not correct:
        return f"entry {index}: misclassified entry got status {v['status']}"
    if v["margin_certified"]:
        if outcome.margin > math.sqrt(2.0 * eps) and v["robust"] is True:
            return None
        return f"entry {index}: margin certificate does not hold"
    if v["robust"] is True:
        if v["delta_unbounded"] or v["delta"] >= eps:
            return None
        return f"entry {index}: robust with delta {v['delta']} < eps {eps}"
    if v["adversarial_class"] is None:
        return f"entry {index}: non-robust verdict without a witness"
    entry, raw = next(witnesses, (None, {}))
    if entry is None:
        return f"entry {index}: witness missing from the sidecar"
    return _witness_problem(inputs, index, eps, entry, raw)


def check_run(inputs: Inputs, exit_code: int, report_path, sidecar_path,
              reference: dict | None) -> CheckResult:
    """Check one verify process's exit code, report and sidecar."""
    wl = inputs.workload
    result = CheckResult()
    n = len(inputs.dataset)
    if exit_code != 0:
        result.attempted = result.failed = n * len(wl.epsilons)
        result.problems.append(f"verify exited with code {exit_code}")
        return result
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    docs = report["runs"] if report["kind"] == "verification_report_set" else [report]
    with open(sidecar_path, encoding="utf-8") as fh:
        sidecar_doc = json.load(fh)
    raw_witnesses = sidecar_doc["states"]
    parsed = formats.parse_dataset(sidecar_doc).entries if raw_witnesses else ()
    witnesses = zip(parsed, raw_witnesses)

    if [d["epsilon"] for d in docs] != list(wl.epsilons):
        result.problems.append("report epsilons differ from the requested ones")
        return result
    for doc, eps in zip(docs, wl.epsilons):
        non_robust = 0
        for v in doc["verdicts"]:
            result.attempted += 1
            if v["correct"] and not v["margin_certified"]:
                result.exact_attempted += 1
            non_robust += v["robust"] is False
            problem = _verdict_problem(inputs, v, eps, witnesses)
            if problem is not None:
                result.failed += 1
                if len(result.problems) < 20:
                    result.problems.append(f"eps={eps}: {problem}")
        flagged = sum(1 for c in inputs.outcomes if c.margin <= math.sqrt(2.0 * eps))
        ura, ra = 1.0 - flagged / n, 1.0 - non_robust / n
        if abs(ura - doc["under_approx_robust_accuracy"]) > 1e-12:
            result.problems.append(f"eps={eps}: URA recomputes to {ura}")
        if abs(ra - doc["robust_accuracy"]) > 1e-12:
            result.problems.append(f"eps={eps}: RA recomputes to {ra}")
        result.robust_accuracy.append(doc["robust_accuracy"])
        result.under_approx.append(doc["under_approx_robust_accuracy"])
    if next(witnesses, None) is not None:
        result.problems.append("sidecar holds witnesses no verdict refers to")
    if reference is not None:
        for key, found in (("ra", result.robust_accuracy), ("ura", result.under_approx)):
            expected = reference[key]
            if len(expected) != len(found) or any(
                abs(a - b) > REFERENCE_TOL for a, b in zip(expected, found)
            ):
                result.problems.append(f"{key} {found} differs from reference {expected}")
    return result
