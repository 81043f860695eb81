"""Channels in Kraus form and the classifier they make up.

A classifier is a POVM, one effect per class; the predicted class is the
argmax of the outcome probabilities ``p_k = tr(N_k rho)``.  A channel
followed by a measurement is the POVM of its Heisenberg-picture effects
``N_k = channel^dag(M_k^dag M_k)``.  This demo wires up the single-qubit
rotation classifier from the case-study generator, then degrades it with
depolarizing noise, applied to the effects in the Heisenberg picture, to
show how class margins shrink.
"""

from qrv import (
    Classifier,
    classify,
    depolarizing,
    qubit_rotation_classifier,
    xz_plane_state,
)

classifier = qubit_rotation_classifier(theta_star=0.4835)
print("classifier:", classifier)
print()

print("classification along the X-Z plane (angle from the z axis):")
for angle in (0.6, 1.0, 1.0873, 1.23, 1.6):
    out = classify(classifier, xz_plane_state(angle))
    label = classifier.labels[out.label_index]
    print(
        f"  angle {angle:6.4f} -> class {label}  "
        f"p = ({out.probabilities[0]:.4f}, {out.probabilities[1]:.4f})  "
        f"margin = {out.margin:+.4f}{'  (tie)' if out.tie else ''}"
    )

print()
print("appending depolarizing noise shrinks every margin:")
state = xz_plane_state(1.0)
for p in (0.0, 0.2, 0.5, 1.0):
    noise = depolarizing(p)
    noisy = Classifier([noise.dual_apply(n) for n in classifier.dual_effects],
                       classifier.labels)
    out = classify(noisy, state)
    print(f"  noise strength {p:.1f}: margin = {out.margin:.4f}"
          f"{'  (tie)' if out.tie else ''}")
