"""Quantum classifiers and labeled datasets.

A classifier is a POVM {N_k}, one effect per class: class probabilities
are ``p_k = tr(N_k rho)`` and the predicted label is the argmax (the lowest
index only on an exact tie), flagged when the runner-up is within ``TIE_TOL``.
A channel E then a measurement {M_k} is the POVM of its Heisenberg-picture
effects ``N_k = E^dag(M_k^dag M_k)`` (:meth:`Classifier.from_kraus`), which is
all the robust bound and the adversarial search depend on.
Classification works on a stack of states at once (one contraction against
the stacked effects); a single state is a stack of one.  Each input rule has
one owner that this module calls: ``states.check_state`` a state of the
classifier's dim, ``config.check_label`` a class index and
``states.require_psd`` a PSD effect.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .config import GAP_ROUNDING, ISOMETRY_TOL, TIE_TOL, check_dimension, check_label
from .errors import DimensionMismatch, ValidationError
from .states import PureState, as_complex_matrix, check_state, require_hermitian, require_psd

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
            require_psd(n, f"effect {k}")
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
        """Ascending eigenvalues and eigenvectors of the class gap operator as
        the bound reads them: eigenvalues within ``GAP_ROUNDING * dim`` of the
        least (a repeated one ``eigh`` split) are set to it, and a least one in
        (0, ``TIE_TOL``], a tie to :func:`classify_batch`, is lowered to 0, so
        the rival is reachable.  Each lower operator widens the flip set, so
        the bound stays sound.  Computed once per (winner, rival) and cached.
        """
        key = (winner, rival)
        if key not in self._gap_spectra:
            a, vectors = np.linalg.eigh(self.class_gap_operator(winner, rival))
            a = np.where(a - a[0] <= GAP_ROUNDING * len(a), a[0], a)
            self._gap_spectra[key] = (a - a[0] if 0.0 < a[0] <= TIE_TOL else a), vectors
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

    def certified(self, eps: float) -> np.ndarray:
        """(n,) bool: the margin certificate sqrt(p_1) - sqrt(p_2) > sqrt(2 eps)
        of eps-robustness; False is inconclusive, not a counterexample."""
        return self.margins > np.sqrt(2.0 * eps)

    def under_approx(self, eps: float) -> float:
        """URA, the robust accuracy's under-approximation: the share certified."""
        n = len(self.margins)
        if not n:
            raise ValidationError("batch is empty")
        return 1.0 - (n - int(np.count_nonzero(self.certified(eps)))) / n


def _probability_rows(classifier: Classifier, states) -> np.ndarray:
    """p[n, k] = tr(N_k rho_n) for a sequence of states, clamped to [0, 1].

    Pure states are contracted as amplitude vectors and density matrices as
    matrices, each group in one contraction with the stacked effects.
    """
    effects = classifier.dual_effects
    vector_rows, vectors, matrix_rows, matrices = [], [], [], []
    for i, state in enumerate(states):
        check_state(state, classifier.dim)
        if isinstance(state, PureState):
            vector_rows.append(i)
            vectors.append(state.amplitudes)
        else:
            matrix_rows.append(i)
            matrices.append(state.matrix)
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

    The margin is sqrt(p_1) - sqrt(p_2) where p_1 >= p_2 are the two largest
    outcome probabilities; p_1 - p_2 <= ``TIE_TOL`` is flagged as a tie, and
    only an exact one goes to the lowest index (a near one, to p_1).
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
    """States paired with class indices, checked by check_state and check_label."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        items = []
        for i, (state, label) in enumerate(entries):
            label = check_label(label, f"entry {i}: ")
            items.append((check_state(state, what="dataset states"), label))
        self.entries = tuple(items)

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def check_compatible(self, classifier: Classifier) -> None:
        """Refuse an empty dataset, or an entry the classifier cannot take."""
        if not self.entries:
            raise ValidationError("dataset is empty")
        for i, (state, label) in enumerate(self.entries):
            check_state(state, classifier.dim, f"entry {i}")
            check_label(label, f"entry {i}: ", classifier.n_classes)


def accuracy(classifier: Classifier, dataset: LabeledDataset) -> float:
    """Fraction of dataset entries the classifier labels correctly."""
    dataset.check_compatible(classifier)
    states, labels = zip(*dataset)
    predicted = classify_batch(classifier, states).labels
    return int(np.count_nonzero(predicted == labels)) / len(dataset)
