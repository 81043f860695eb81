"""Quantum classifiers and labeled datasets.

A classifier is a channel followed by a measurement family {M_k}, one
operator per class.  Class probabilities are ``p_k = tr(M_k^dag M_k
channel(rho))`` and the predicted label is the argmax, with ties broken
toward the lowest index and flagged.  Classification works on a stack of
states at once (one contraction against the stacked Heisenberg-picture
effects); a single state is a stack of one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import KrausChannel, isometry_defect
from .config import ISOMETRY_TOL, TIE_TOL
from .errors import DimensionMismatch, ValidationError
from .states import DensityMatrix, PureState, as_complex_matrix, state_matrix

__all__ = [
    "Measurement",
    "Classifier",
    "Classification",
    "BatchClassification",
    "LabeledDataset",
    "classify",
    "classify_batch",
    "accuracy",
    "WELL_TRAINED_THRESHOLD",
]

# Classifiers are conventionally trusted when train/validation accuracy
# reaches this level; verification still runs below it, with a warning.
WELL_TRAINED_THRESHOLD = 0.95


class Measurement:
    """An ordered measurement family {M_k}, one operator per class label,
    and its POVM effects ``effects`` = (M_k^dag M_k, ...)."""

    __slots__ = ("operators", "dim", "effects")

    def __init__(self, operators):
        mats = [as_complex_matrix(m, square=True) for m in operators]
        if len(mats) < 2:
            raise ValidationError("a measurement needs at least two operators")
        dim = mats[0].shape[0]
        for m in mats:
            if m.shape[0] != dim:
                raise ValidationError("measurement operators have mixed dims")
        defect = isometry_defect(mats)
        if defect > ISOMETRY_TOL:
            raise ValidationError(
                f"measurement is not complete: max |sum M^dag M - I| = {defect:.3e}"
            )
        self.operators = tuple(mats)
        self.dim = dim
        self.effects = tuple(m.conj().T @ m for m in mats)

    def __len__(self) -> int:
        return len(self.operators)

    def __repr__(self) -> str:
        return f"Measurement(dim={self.dim}, outcomes={len(self.operators)})"


def computational_measurement(dim: int = 2) -> Measurement:
    """Projective measurement onto the computational basis states."""
    ops = []
    for k in range(dim):
        m = np.zeros((dim, dim), dtype=complex)
        m[k, k] = 1.0
        ops.append(m)
    return Measurement(ops)


class Classifier:
    """A channel plus a measurement, with one string label per class.

    ``dual_effects`` is the ``(n_classes, dim, dim)`` stack of
    Heisenberg-picture effects ``N_k = channel^dag(M_k^dag M_k)``, computed
    at construction.  With it, ``p_k = tr(N_k rho)`` costs one inner product
    per class, and a whole dataset is classified in one contraction, which
    is what makes margin filtering over a large dataset cheap.
    """

    __slots__ = ("channel", "measurement", "labels", "dual_effects", "_gap_spectra")

    def __init__(
        self,
        channel: KrausChannel,
        measurement: Measurement,
        labels: Sequence[str] | None = None,
    ):
        if channel.dim_out != measurement.dim:
            raise DimensionMismatch(
                f"channel output dim {channel.dim_out} does not match "
                f"measurement dim {measurement.dim}"
            )
        if channel.dim_in != channel.dim_out:
            raise ValidationError(
                "classifier channels must preserve the dimension; model "
                "qubit-discarding pooling by measuring a subsystem instead"
            )
        if labels is None:
            labels = [str(k) for k in range(len(measurement))]
        labels = [str(x) for x in labels]
        if len(labels) != len(measurement):
            raise ValidationError(
                f"{len(labels)} labels for {len(measurement)} measurement operators"
            )
        self.channel = channel
        self.measurement = measurement
        self.labels = tuple(labels)
        self.dual_effects = np.stack([channel.dual_apply(e) for e in measurement.effects])
        self._gap_spectra = {}

    @property
    def dim(self) -> int:
        return self.channel.dim_in

    @property
    def n_classes(self) -> int:
        return len(self.measurement)

    def class_gap_operator(self, winner: int, rival: int) -> np.ndarray:
        """N_winner - N_rival; states with tr(G sigma) <= 0 lose the argmax."""
        return self.dual_effects[winner] - self.dual_effects[rival]

    def gap_spectrum(self, winner: int, rival: int) -> tuple[np.ndarray, np.ndarray]:
        """Ascending eigenvalues and eigenvectors of the class gap operator.

        Computed once per (winner, rival) pair and cached, so every state
        verified against this classifier reuses the same decomposition.
        """
        key = (winner, rival)
        if key not in self._gap_spectra:
            self._gap_spectra[key] = np.linalg.eigh(self.class_gap_operator(winner, rival))
        return self._gap_spectra[key]

    def __repr__(self) -> str:
        return f"Classifier(dim={self.dim}, labels={list(self.labels)})"


@dataclass(frozen=True)
class Classification:
    """Argmax outcome for one state."""

    label_index: int
    probabilities: np.ndarray
    margin: float  # sqrt(p_1) - sqrt(p_2) over the top two probabilities
    tie: bool


@dataclass(frozen=True)
class BatchClassification:
    """Argmax outcomes for a stack of states, one entry per state."""

    labels: np.ndarray  # (n,) predicted class indices
    probabilities: np.ndarray  # (n, n_classes)
    margins: np.ndarray  # (n,) sqrt(p_1) - sqrt(p_2)
    ties: np.ndarray  # (n,) bool


def _probability_rows(classifier: Classifier, states) -> np.ndarray:
    """p[n, k] = tr(N_k rho_n) for a sequence of states, clamped to [0, 1].

    Pure states are contracted as amplitude vectors and everything else as
    density matrices, each group in one contraction with the stacked
    effects.
    """
    effects = classifier.dual_effects
    vector_rows, vectors, matrix_rows, matrices = [], [], [], []
    for i, state in enumerate(states):
        if isinstance(state, PureState):
            dim = state.dim
            vector_rows.append(i)
            vectors.append(state.amplitudes)
        else:
            m = state_matrix(state)
            dim = m.shape[0]
            matrix_rows.append(i)
            matrices.append(m)
        if dim != classifier.dim:
            raise DimensionMismatch(
                f"state dim {dim} does not match classifier dim {classifier.dim}"
            )
    probs = np.empty((len(vectors) + len(matrices), len(effects)))
    if vectors:
        v = np.array(vectors)
        probs[vector_rows] = ((v.conj() @ effects) * v).sum(axis=-1).real.T
    if matrices:
        flat = np.array(matrices).reshape(len(matrices), -1)
        # tr(N rho) = sum_ij conj(N_ij) rho_ij for Hermitian N
        probs[matrix_rows] = (flat @ effects.reshape(len(effects), -1).conj().T).real
    return np.clip(probs, 0.0, 1.0)


def classify_batch(classifier: Classifier, states) -> BatchClassification:
    """Argmax classification of every state in ``states`` at once.

    The margin is sqrt(p_1) - sqrt(p_2) where p_1 >= p_2 are the two
    largest outcome probabilities; a tie (within ``TIE_TOL``) is
    broken toward the lowest index and flagged.
    """
    probs = _probability_rows(classifier, states)
    order = np.argsort(-probs, axis=1, kind="stable")
    rows = np.arange(len(probs))
    p1 = probs[rows, order[:, 0]]
    p2 = probs[rows, order[:, 1]]
    return BatchClassification(
        labels=order[:, 0],
        probabilities=probs,
        margins=np.sqrt(p1) - np.sqrt(p2),
        ties=p1 - p2 <= TIE_TOL,
    )


def classify(classifier: Classifier, state) -> Classification:
    """Argmax classification of one state, with margin and tie flag
    (see :func:`classify_batch`)."""
    batch = classify_batch(classifier, [state])
    return Classification(
        label_index=int(batch.labels[0]),
        probabilities=batch.probabilities[0],
        margin=float(batch.margins[0]),
        tie=bool(batch.ties[0]),
    )


class LabeledDataset:
    """States paired with class indices."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        items = []
        for state, label in entries:
            label = int(label)
            if label < 0:
                raise ValidationError(f"negative label index {label}")
            if not isinstance(state, (PureState, DensityMatrix)):
                raise ValidationError(
                    "dataset states must be PureState or DensityMatrix, got "
                    f"{type(state).__name__}"
                )
            items.append((state, label))
        self.entries = tuple(items)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def check_compatible(self, classifier: Classifier) -> None:
        for i, (state, label) in enumerate(self.entries):
            dim = state.dim
            if dim != classifier.dim:
                raise DimensionMismatch(
                    f"entry {i} has dim {dim}, classifier expects {classifier.dim}"
                )
            if label >= classifier.n_classes:
                raise ValidationError(
                    f"entry {i} has label {label} but the classifier only has "
                    f"{classifier.n_classes} classes"
                )


def accuracy(classifier: Classifier, dataset: LabeledDataset) -> float:
    """Fraction of dataset entries the classifier labels correctly."""
    if len(dataset) == 0:
        raise ValidationError("cannot compute accuracy of an empty dataset")
    dataset.check_compatible(classifier)
    states, labels = zip(*dataset)
    predicted = classify_batch(classifier, states).labels
    return int(np.count_nonzero(predicted == labels)) / len(dataset)
