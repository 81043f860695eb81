"""Quantum states and the distance metrics between them.

Pure states are unit complex vectors; mixed states are density matrices
(Hermitian, positive semidefinite, unit trace).  Each state has a
``matrix`` and a square-root ``factor`` R with ``rho = R R^dag``: a pure
state's amplitude column, or a density matrix's scaled eigenvectors,
computed on first use and cached.  The distance used for robustness
verdicts is ``D(rho, sigma) = 1 - F(rho, sigma)`` where ``F`` is the
fidelity ``[tr sqrt(sqrt(rho) sigma sqrt(rho))]^2``, read from the two
factors alone (Uhlmann: ``sqrt(F) = ||R^dag S||_tr``); the trace distance
is provided alongside for comparison.  :func:`require_psd` owns the PSD rule
of a density matrix and of a classifier's effect.
"""

from __future__ import annotations

import numpy as np

from .config import (
    HERM_TOL,
    NORM_REJECT,
    PSD_REJECT,
    PSD_TOL,
    TRACE_TOL,
    check_dimension,
)
from .errors import DimensionMismatch, ValidationError

__all__ = [
    "PureState",
    "DensityMatrix",
    "as_complex_matrix",
    "require_hermitian",
    "require_psd",
    "matrix_sqrt_psd",
    "pure_to_density",
    "fidelity",
    "sqrt_fidelity",
    "trace_distance",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
]

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


def as_complex_matrix(m, *, square: bool = False) -> np.ndarray:
    """Coerce to a finite 2-D complex array (C-ordered copy)."""
    arr = np.array(m, dtype=complex, order="C")
    if arr.ndim != 2:
        raise ValidationError(f"expected a matrix, got array of ndim {arr.ndim}")
    if arr.size == 0:
        raise ValidationError("empty matrix")
    if not np.all(np.isfinite(arr.view(float))):
        raise ValidationError("matrix contains NaN or Inf entries")
    if square and arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {arr.shape}")
    return arr


def require_hermitian(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Validate Hermiticity to ``HERM_TOL`` and return the exactly
    symmetrized matrix."""
    m = as_complex_matrix(m, square=True)
    defect = float(np.max(np.abs(m - m.conj().T)))
    if defect > HERM_TOL:
        raise ValidationError(
            f"{what} is not Hermitian: max |M - M^dag| = {defect:.3e} "
            f"> {HERM_TOL:.1e}"
        )
    return 0.5 * (m + m.conj().T)


def require_psd(m: np.ndarray, what: str = "matrix") -> None:
    """Refuse a Hermitian ``m`` with an eigenvalue below ``-PSD_TOL``, the one
    PSD rule of a density matrix and of an effect."""
    lo = float(np.linalg.eigvalsh(m)[0])
    if lo < -PSD_TOL:
        raise ValidationError(f"{what} has negative eigenvalue {lo:.3e}")


class PureState:
    """A unit-norm complex amplitude vector.

    Inputs whose norm deviates from 1 by more than ``NORM_REJECT``
    are rejected; smaller deviations are silently renormalized so the
    stored amplitudes are always unit norm to machine precision.
    """

    __slots__ = ("amplitudes", "dim", "factor")

    def __init__(self, amplitudes):
        arr = np.asarray(amplitudes, dtype=complex).reshape(-1).copy()
        if arr.size < 1:
            raise ValidationError("pure state needs at least one amplitude")
        if not np.all(np.isfinite(arr.view(float))):
            raise ValidationError("amplitudes contain NaN or Inf")
        norm = float(np.linalg.norm(arr))
        if abs(norm - 1.0) > NORM_REJECT:
            raise ValidationError(
                f"state vector is not normalized: ||psi|| = {norm:.9f}"
            )
        if abs(norm - 1.0) > 1e-12:  # keep construction idempotent bit-for-bit
            arr /= norm
        check_dimension(arr.size)
        self.amplitudes = arr
        self.dim = arr.size
        self.factor = arr[:, None]  # rho = |psi><psi| = factor factor^dag

    @property
    def matrix(self) -> np.ndarray:
        """The projector |psi><psi|."""
        return np.outer(self.amplitudes, self.amplitudes.conj())

    def overlap(self, other: "PureState") -> complex:
        """Inner product <self|other>."""
        _check_same_dims(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def __repr__(self) -> str:
        return f"PureState(dim={self.dim})"


class DensityMatrix:
    """A mixed quantum state: Hermitian, PSD, unit-trace matrix.

    Construction validates all three invariants: Hermitian to
    ``HERM_TOL``, trace 1 to ``TRACE_TOL``, no eigenvalue below
    ``-PSD_TOL``.  Its ``factor`` is computed on first use and cached.
    """

    __slots__ = ("matrix", "dim", "_factor")

    def __init__(self, matrix):
        m = require_hermitian(matrix, "density matrix")
        check_dimension(m.shape[0])
        trace = float(np.real(np.trace(m)))
        if abs(trace - 1.0) > TRACE_TOL:
            raise ValidationError(f"density matrix has trace {trace:.12f}, not 1")
        require_psd(m, "density matrix")
        self.matrix = m
        self.dim = m.shape[0]
        self._factor = None

    @property
    def factor(self) -> np.ndarray:
        """R with ``rho = R R^dag``: the eigenvectors of nonzero eigenvalue
        (after :func:`_suppress_spectral_junk`) scaled by their square roots."""
        if self._factor is None:
            w, v = np.linalg.eigh(self.matrix)
            w = _suppress_spectral_junk(w)
            keep = w > 0.0
            self._factor = v[:, keep] * np.sqrt(w[keep])
        return self._factor

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def __repr__(self) -> str:
        return f"DensityMatrix(dim={self.dim})"


def pure_to_density(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi| of a pure state."""
    return DensityMatrix(psi.matrix)


def _suppress_spectral_junk(w: np.ndarray) -> np.ndarray:
    """Zero eigenvalues at relative machine noise.

    Square roots amplify +1e-16 rounding junk on rank-deficient spectra
    into 1e-8 errors, so anything below ``max(w) * dim * 16 eps`` is
    treated as an exact zero before a root is taken.
    """
    w = np.clip(w, 0.0, None)
    cutoff = float(np.max(w, initial=0.0)) * w.size * 16 * np.finfo(float).eps
    w[w < cutoff] = 0.0
    return w


def matrix_sqrt_psd(m) -> np.ndarray:
    """Hermitian PSD square root.

    Eigenvalues in ``[-PSD_REJECT, 0)``, the rounding of a computed PSD
    matrix such as an effect ``sampling.random_classifier`` takes the root
    of, are clamped to zero so they cannot put NaNs in the root; anything
    below ``-PSD_REJECT`` is rejected, as is a matrix not Hermitian to ``HERM_TOL``.
    """
    w, v = np.linalg.eigh(require_hermitian(m))
    if w[0] < -PSD_REJECT:
        raise ValidationError(
            f"matrix is not positive semidefinite: min eigenvalue {w[0]:.3e}"
        )
    w = _suppress_spectral_junk(w)
    root = (v * np.sqrt(w)) @ v.conj().T
    return 0.5 * (root + root.conj().T)


def _check_same_dims(rho, sigma) -> None:
    if rho.dim != sigma.dim:
        raise DimensionMismatch(f"state dims {rho.dim} and {sigma.dim} differ")


def sqrt_fidelity(rho, sigma) -> float:
    """sqrt(F) = tr sqrt(sqrt(rho) sigma sqrt(rho)) in [0, 1] of two
    states, each a PureState or a DensityMatrix: the trace norm of
    ``R^dag S`` for their factors (its Euclidean norm if it has one row or
    column), clamped to [0, 1]."""
    _check_same_dims(rho, sigma)
    m = rho.factor.conj().T @ sigma.factor
    value = float(np.linalg.norm(m) if 1 in m.shape
                  else np.sum(np.linalg.svd(m, compute_uv=False)))
    return min(max(value, 0.0), 1.0)


def fidelity(rho, sigma) -> float:
    """Fidelity [tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 in [0, 1].

    Either argument is a PureState or a DensityMatrix.  Computed as
    ``||R^dag S||_tr^2`` from factors ``rho = R R^dag``, ``sigma = S S^dag``
    (one cached ``eigh`` per density matrix, none for a pure state); symmetric
    in its arguments up to numerical noise.  For pure states it is
    |<psi|phi>|^2.
    """
    return sqrt_fidelity(rho, sigma) ** 2


def trace_distance(rho, sigma) -> float:
    """Trace distance 0.5 * ||rho - sigma||_tr in [0, 1] of two states, each
    a PureState or a DensityMatrix."""
    _check_same_dims(rho, sigma)
    diff = rho.matrix - sigma.matrix
    w = np.linalg.eigvalsh(0.5 * (diff + diff.conj().T))
    return min(max(0.5 * float(np.sum(np.abs(w))), 0.0), 1.0)
