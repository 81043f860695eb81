"""From the cheap margin certificate to the exact robust bound.

Three levels of answer for "is this state robust at radius eps?":

1. margin bound: sqrt(p1) - sqrt(p2) > sqrt(2 eps) certifies robustness
   from the outcome probabilities alone (sound, not complete);
2. optimal robust bound delta from the two-multiplier fidelity dual:
   robust exactly when eps <= delta, with a concrete nearest flipping state;
3. pure-state bound: the same question when adversaries must stay pure;
   for a pure state it equals delta (the joint numerical range of two
   Hermitian forms is convex), and the witness becomes a pure state.
"""

import numpy as np

from qrv import (
    PureState,
    classify,
    compute_optimal_bound,
    check_epsilon_robust,
    fidelity,
    margin_robust_bound,
    pure_state_optimal_bound,
    pure_to_density,
    qubit_rotation_classifier,
    xz_plane_state,
)

classifier = qubit_rotation_classifier()
psi = xz_plane_state(1.0)
rho = pure_to_density(psi)
out = classify(classifier, rho)
print(f"state at Bloch angle 1.0: class {classifier.labels[out.label_index]}, "
      f"margin {out.margin:.4f}")

eps_values = (0.0005, 0.002, 0.01)
print("\nmargin certificate per eps (False = inconclusive, not a refutation):")
for eps in eps_values:
    print(f"  eps = {eps:<7} certified: {margin_robust_bound(classifier, rho, eps)}")

bound = compute_optimal_bound(classifier, rho)
print(f"\noptimal robust bound delta = {bound.delta:.6f} "
      f"(rival class {classifier.labels[bound.argmin_class]})")
sigma = bound.witness  # a density matrix, as rho is one
flip = classify(classifier, sigma)
print(f"nearest flipping state: classified {classifier.labels[flip.label_index]}, "
      f"distance {1 - fidelity(rho, sigma):.6f}")
print("its matrix:")
print(np.round(sigma.matrix, 4))

print("\nexact verdicts agree with eps <= delta:")
for eps in eps_values:
    result = check_epsilon_robust(classifier, rho, out.label_index, eps)
    print(f"  eps = {eps:<7} robust: {result.robust}   "
          f"(delta comparison: {eps <= bound.delta})")

pure = pure_state_optimal_bound(classifier, psi)
phi = pure.phi_star
phi_class = classifier.labels[classify(classifier, phi).label_index]
print(f"\npure-state bound: {pure.delta:.6f} (status {pure.status}); "
      f"pure witness classified {phi_class}, "
      f"distance {1 - abs(phi.overlap(psi)) ** 2:.6f} next to delta {bound.delta:.6f}")
