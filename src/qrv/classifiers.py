"""Quantum classifiers and labeled datasets.

A classifier is a POVM {N_k}, one effect per class: class probabilities
are ``p_k = tr(N_k rho)`` and the predicted label is the argmax, with
ties broken toward the lowest index and flagged.  A channel E followed by
a measurement {M_k} is the POVM of its Heisenberg-picture effects
``N_k = E^dag(M_k^dag M_k)`` (:meth:`Classifier.from_kraus`), which is
all the robust bound and the adversarial search depend on.
Classification works on a stack of states at once (one contraction
against the stacked effects); a single state is a stack of one.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .config import ISOMETRY_TOL, PSD_TOL, TIE_TOL, check_dimension
from .errors import DimensionMismatch, ValidationError
from .states import (
    DensityMatrix,
    PureState,
    as_complex_matrix,
    require_hermitian,
    state_matrix,
)

__all__ = [
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


class Classifier:
    """A POVM on the input space, one effect per class, with one string
    label per class.

    ``dual_effects`` is the ``(n_classes, dim, dim)`` stack of effects
    ``N_k``.  Construction validates a POVM: at least two square effects of
    one dim, each Hermitian to ``HERM_TOL`` and with no eigenvalue below
    ``-PSD_TOL``, summing to the identity within ``ISOMETRY_TOL``.  With the
    stack, ``p_k = tr(N_k rho)`` costs one inner product per class, and a
    whole dataset is classified in one contraction, which is what makes
    margin filtering over a large dataset cheap.
    """

    __slots__ = ("labels", "dual_effects", "dim", "n_classes", "_gap_spectra")

    def __init__(self, effects, labels: Sequence[str] | None = None):
        mats = [require_hermitian(n, f"effect {k}") for k, n in enumerate(effects)]
        if len(mats) < 2:
            raise ValidationError("a classifier needs at least two effects")
        dim = mats[0].shape[0]
        if any(n.shape[0] != dim for n in mats):
            raise DimensionMismatch(
                f"effects have mixed dims {sorted({n.shape[0] for n in mats})}")
        check_dimension(dim)
        for k, n in enumerate(mats):
            lo = float(np.linalg.eigvalsh(n)[0])
            if lo < -PSD_TOL:
                raise ValidationError(f"effect {k} has negative eigenvalue {lo:.3e}")
        stack = np.stack(mats)
        defect = float(np.max(np.abs(stack.sum(axis=0) - np.eye(dim))))
        if defect > ISOMETRY_TOL:
            raise ValidationError(
                f"effects do not sum to the identity: max |sum N - I| = {defect:.3e}")
        if labels is None:
            labels = [str(k) for k in range(len(mats))]
        labels = [str(x) for x in labels]
        if len(labels) != len(mats):
            raise ValidationError(f"{len(labels)} labels for {len(mats)} effects")
        self.labels = tuple(labels)
        self.dual_effects = stack
        self.dim = dim
        self.n_classes = len(mats)
        self._gap_spectra = {}

    @classmethod
    def from_kraus(
        cls,
        channel,
        operators,
        labels: Sequence[str] | None = None,
    ) -> "Classifier":
        """The classifier ``channel`` (a :class:`~qrv.channels.KrausChannel`)
        then measurement ``{M_k}``: effects ``N_k = channel^dag(M_k^dag M_k)``
        on the channel's input space, validated as a POVM like any other."""
        mats = [as_complex_matrix(m) for m in operators]
        return cls([channel.dual_apply(m.conj().T @ m) for m in mats], labels)

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


class Classification(NamedTuple):
    """Argmax outcome for one state."""

    label_index: int
    probabilities: np.ndarray
    margin: float  # sqrt(p_1) - sqrt(p_2) over the top two probabilities
    tie: bool


class BatchClassification(NamedTuple):
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
