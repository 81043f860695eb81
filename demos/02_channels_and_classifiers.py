"""Channels in Kraus form and the classifier they make up.

A classifier is a channel followed by a measurement family, one operator
per class; the predicted class is the argmax of the outcome
probabilities.  This demo wires up the single-qubit rotation classifier
from the case-study generator, then degrades it with depolarizing noise
to show how class margins shrink.
"""

import numpy as np

from qrv import (
    Classifier,
    classify,
    compose,
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
    noisy = Classifier(
        compose(depolarizing(p), classifier.channel),
        classifier.measurement,
        classifier.labels,
    )
    out = classify(noisy, state)
    print(f"  noise strength {p:.1f}: margin = {out.margin:.4f}"
          f"{'  (tie)' if out.tie else ''}")
