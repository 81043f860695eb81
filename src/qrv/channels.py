"""Quantum channels in Kraus form.

A channel is a completely positive trace-preserving map represented by
Kraus matrices {E_k}: it acts as ``rho -> sum_k E_k rho E_k^dag``.
Complete positivity is guaranteed structurally by the representation;
trace preservation (``sum_k E_k^dag E_k = I``) is validated numerically.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .config import ISOMETRY_TOL, check_dimension
from .errors import DimensionMismatch, ValidationError
from .states import (
    DensityMatrix,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    as_complex_matrix,
    check_state,
    require_hermitian,
)

__all__ = [
    "KrausChannel",
    "unitary_channel",
    "depolarizing",
    "isometry_defect",
]


def isometry_defect(ops: Sequence[np.ndarray]) -> float:
    """Max-norm of ``sum_k A_k^dag A_k - I``.

    Zero for a trace-preserving Kraus set or a single unitary; checked
    against ``ISOMETRY_TOL``.
    """
    dim_in = ops[0].shape[1]
    acc = np.zeros((dim_in, dim_in), dtype=complex)
    for a in ops:
        acc += a.conj().T @ a
    return float(np.max(np.abs(acc - np.eye(dim_in))))


class KrausChannel:
    """A CPTP map stored as a list of Kraus matrices.

    Each matrix has shape (dim_out, dim_in).  Construction validates trace
    preservation against ``ISOMETRY_TOL``.
    """

    __slots__ = ("kraus", "dim_in", "dim_out")

    def __init__(self, kraus):
        mats = [as_complex_matrix(e) for e in kraus]
        if not mats:
            raise ValidationError("channel needs at least one Kraus matrix")
        dim_out, dim_in = mats[0].shape
        for e in mats:
            if e.shape != (dim_out, dim_in):
                raise ValidationError(
                    f"inconsistent Kraus shapes: {e.shape} vs {(dim_out, dim_in)}"
                )
        check_dimension(max(dim_in, dim_out))
        defect = isometry_defect(mats)
        if defect > ISOMETRY_TOL:
            raise ValidationError(
                f"channel is not trace-preserving: "
                f"max |sum E^dag E - I| = {defect:.3e}"
            )
        self.kraus = tuple(mats)
        self.dim_in = dim_in
        self.dim_out = dim_out

    def apply(self, rho) -> DensityMatrix:
        """Channel action sum_k E_k rho E_k^dag on a state of its input dim."""
        m = check_state(rho, self.dim_in).matrix
        out = np.zeros((self.dim_out, self.dim_out), dtype=complex)
        for e in self.kraus:
            out += e @ m @ e.conj().T
        return DensityMatrix(out)  # symmetrized by its validation

    def dual_apply(self, obs) -> np.ndarray:
        """Adjoint action sum_k E_k^dag A E_k on a Hermitian observable.

        Satisfies tr(A * channel(rho)) = tr(dual(A) * rho).
        """
        a = require_hermitian(obs, "observable")
        if a.shape[0] != self.dim_out:
            raise DimensionMismatch(
                f"observable dim {a.shape[0]} does not match channel output "
                f"{self.dim_out}"
            )
        out = np.zeros((self.dim_in, self.dim_in), dtype=complex)
        for e in self.kraus:
            out += e.conj().T @ a @ e
        return 0.5 * (out + out.conj().T)

    def __repr__(self) -> str:
        return (
            f"KrausChannel(dim_in={self.dim_in}, dim_out={self.dim_out}, "
            f"kraus={len(self.kraus)})"
        )


def unitary_channel(u) -> KrausChannel:
    """Channel rho -> U rho U^dag for a unitary U: the one-matrix
    :class:`KrausChannel`, whose trace-preservation check is U's unitarity."""
    return KrausChannel([as_complex_matrix(u, square=True)])


def depolarizing(p: float) -> KrausChannel:
    """Single-qubit depolarizing channel with strength p in [0, 1].

    Kraus set {sqrt(1 - 3p/4) I, sqrt(p/4) X, sqrt(p/4) Y, sqrt(p/4) Z};
    at p = 1 every input is mapped to the maximally mixed state.
    """
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"depolarizing strength must be in [0, 1], got {p}")
    kraus = [np.sqrt(1.0 - 0.75 * p) * np.eye(2, dtype=complex)]
    if p > 0.0:
        coeff = np.sqrt(p / 4.0)
        kraus.extend([coeff * PAULI_X, coeff * PAULI_Y, coeff * PAULI_Z])
    return KrausChannel(kraus)
