"""Shared helpers: random instances and independent oracles."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.optimize

from qrv.classifiers import LabeledDataset, classify, classify_batch
from qrv.sampling import (
    random_classifier,
    random_density_matrix,
    random_pure_state,
)
from qrv.states import PureState


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def classified_instance(rng, dim=2, n_classes=2, kraus_rank=1, pure=False,
                        min_margin=1e-3):
    """(classifier, state, label) with a strict, comfortable argmax."""
    for _ in range(200):
        classifier = random_classifier(dim, rng, n_classes=n_classes,
                                       kraus_rank=kraus_rank)
        state = (
            random_pure_state(dim, rng) if pure else random_density_matrix(dim, rng)
        )
        outcome = classify(classifier, state)
        if not outcome.tie and outcome.margin > min_margin:
            return classifier, state, outcome.label_index
    raise AssertionError("could not draw a confidently classified instance")


def tied_dataset():
    """(classifier, dataset): 40 dim-16 pure states on the decision boundary
    of a 2-class classifier, each labelled by batch classification.  Each
    is ``sqrt(t) v_i + sqrt(1 - t) e^{i phi} v_k`` for gap eigenpairs with
    ``a_i < 0 < a_k`` and ``t = a_k / (a_k - a_i)``: ``tr(A rho) = 0`` in
    exact arithmetic, so which class wins is decided by rounding."""
    classifier = random_classifier(16, np.random.default_rng(1), n_classes=2,
                                   kraus_rank=2)
    a, v = classifier.gap_spectrum(0, 1)
    below, above = np.flatnonzero(a < 0.0), np.flatnonzero(a > 0.0)
    states = []
    for j in range(40):
        i, k = below[j % len(below)], above[j // len(below) % len(above)]
        t = a[k] / (a[k] - a[i])
        phase = np.exp(2j * np.pi * j / 40)
        states.append(PureState(np.sqrt(t) * v[:, i] + np.sqrt(1.0 - t) * phase * v[:, k]))
    labels = classify_batch(classifier, states).labels.tolist()
    return classifier, LabeledDataset(zip(states, labels))


def max_tied_overlap(p_sorted: np.ndarray) -> float:
    """Independent oracle for the margin-bound derivation.

    Maximizes x . sqrt(p) over unit vectors x >= 0 whose first entry ties
    at least one other entry (the nearest competing outcome vector).  The
    tie constraint is a product over branches; each branch x_1 = x_j is
    maximized separately by sequential quadratic programming and the best
    branch wins.
    """
    root_p = np.sqrt(np.asarray(p_sorted, dtype=float))
    n = root_p.size
    best = -np.inf
    for j in range(1, n):
        def objective(x):
            return -(x @ root_p)

        constraints = [
            {"type": "eq", "fun": lambda x: x @ x - 1.0},
            {"type": "eq", "fun": lambda x, j=j: x[0] - x[j]},
        ]
        bounds = [(0.0, 1.0)] * n
        starts = [root_p.copy(), np.ones(n) / np.sqrt(n)]
        mid = root_p.copy()
        mid[0] = mid[j] = np.sqrt((p_sorted[0] + p_sorted[j]) / 2.0)
        starts.append(mid / np.linalg.norm(mid))
        for x0 in starts:
            res = scipy.optimize.minimize(
                objective, x0, method="SLSQP", bounds=bounds,
                constraints=constraints, options={"maxiter": 200, "ftol": 1e-14},
            )
            x = np.clip(res.x, 0.0, None)
            norm = np.linalg.norm(x)
            if norm < 1e-9:
                continue
            x = x / norm
            if abs(x[0] - x[j]) > 1e-7:
                continue
            best = max(best, float(x @ root_p))
    return best
