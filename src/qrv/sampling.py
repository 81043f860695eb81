"""Seeded random states, channels and classifiers.

Used by the benchmark inputs, the demos and the tests' oracles.  All
draws go through an explicit ``numpy.random.Generator`` so that fixed
seeds reproduce identical objects bit for bit.
"""

from __future__ import annotations

import numpy as np

from .channels import KrausChannel
from .classifiers import Classifier
from .states import DensityMatrix, PureState, matrix_sqrt_psd

__all__ = [
    "random_unitary",
    "random_pure_state",
    "random_density_matrix",
    "random_kraus_channel",
    "random_classifier",
]


def _ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))


def _haar_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Haar-distributed isometry (rows >= cols) via QR with phase correction."""
    q, r = np.linalg.qr(_ginibre(rng, rows, cols))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary."""
    return _haar_isometry(rng, dim, dim)


def random_pure_state(dim: int, rng: np.random.Generator) -> PureState:
    v = _ginibre(rng, dim, 1).ravel()
    return PureState(v / np.linalg.norm(v))


def random_density_matrix(
    dim: int, rng: np.random.Generator, rank: int | None = None
) -> DensityMatrix:
    """Hilbert-Schmidt-style random state G G^dag / tr, optionally low rank."""
    g = _ginibre(rng, dim, rank or dim)
    m = g @ g.conj().T
    return DensityMatrix(m / float(np.real(np.trace(m))))


def random_kraus_channel(
    dim: int, rng: np.random.Generator, kraus_rank: int = 2
) -> KrausChannel:
    """Random CPTP map from a Haar isometry split into Kraus blocks; at
    ``kraus_rank=1`` the isometry is the draw :func:`random_unitary` makes."""
    isometry = _haar_isometry(rng, dim * kraus_rank, dim)
    kraus = [isometry[i * dim : (i + 1) * dim, :] for i in range(kraus_rank)]
    return KrausChannel(kraus)


def random_classifier(
    dim: int,
    rng: np.random.Generator,
    n_classes: int = 2,
    kraus_rank: int = 1,
) -> Classifier:
    """Random classifier: a channel, then a random complete measurement
    whose effects are normalized Ginibre ones."""
    channel = random_kraus_channel(dim, rng, kraus_rank)
    gram = [g @ g.conj().T for g in (_ginibre(rng, dim, dim) for _ in range(n_classes))]
    w, v = np.linalg.eigh(np.sum(gram, axis=0))
    inv_sqrt = (v / np.sqrt(np.clip(w, 1e-14, None))) @ v.conj().T
    # M_k = sqrt(effect), squared again by from_kraus: passing the effect
    # directly would move dual_effects in the last bits, and so the reports.
    operators = [matrix_sqrt_psd(inv_sqrt @ g @ inv_sqrt) for g in gram]
    return Classifier.from_kraus(channel, operators)
