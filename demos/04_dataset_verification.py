"""Whole-dataset verification with the filter-then-solve strategy.

The margin bound filters out everything it can certify in one pass of
classification; only the leftovers pay for the exact bound (one dual
solve per rival class).  The bound does not depend on the radius, so one
call verifies the whole table: each leftover entry is bounded once, and
every radius thresholds that bound.
The under-approximated robust accuracy (margin row) never exceeds the
exact one, both fall as the radius grows, and the filter row costs a
tiny fraction of the exact row's time.
"""

import time

from qrv import (
    generate_qubit_case_study,
    under_robust_accuracy,
    verify_epsilons,
)
from qrv.classifiers import accuracy

classifier, train, _val = generate_qubit_case_study(n_train=200, n_val=40, seed=7)
print(f"regenerated qubit case study: {len(train)} training states, "
      f"accuracy {accuracy(classifier, train):.4f}")

epsilons = (0.001, 0.002, 0.003, 0.004)
rows = []
reports = verify_epsilons(classifier, train, epsilons)
for eps, report in zip(epsilons, reports):
    t0 = time.perf_counter()
    ura = under_robust_accuracy(classifier, train, eps)
    rows.append((eps, ura, time.perf_counter() - t0, report))

header = "".join(f"  eps={eps:<8}" for eps in epsilons)
print(f"\n{'Robust Accuracy (%)':<32}{header}")
print(f"{'  margin bound (under-approx)':<32}"
      + "".join(f"  {100 * ura:>10.2f}" for _, ura, _, _ in rows))
print(f"{'  exact verification':<32}"
      + "".join(f"  {100 * r.robust_accuracy:>10.2f}" for *_, r in rows))
# A column's exact time is the shared classification plus the bound time of
# that radius's exact entries: what verifying at that radius alone costs.
print("Verification time (s)")
print(f"{'  margin bound (under-approx)':<32}"
      + "".join(f"  {t:>10.4f}" for _, _, t, _ in rows))
print(f"{'  exact verification':<32}"
      + "".join(f"  {r.timings['total_seconds']:>10.4f}" for *_, r in rows))

print("\nadversarial examples extracted per eps:")
for eps, _, _, report in rows:
    print(f"  eps = {eps}: {report.adversarial_count} witnesses "
          f"({report.solver_stats['sdp_solves']} bound solves)")
witness = rows[-1][3].adversarial[0]
print("\nfirst witness at the largest eps: source index "
      f"{witness.source_index}, rival class {witness.target_class}, "
      f"distance {witness.distance:.6f}")
