"""Numeric tolerances and global limits.

Every tolerance used by validation, bounds and verdicts lives in one
:class:`NumericPolicy` record so that a single override propagates
consistently (the SDP oracle takes its own targets in
``qrv.sdp.SolverOptions``).  The default policy is deliberately strict;
loosen it per call site only when you know the provenance of your
matrices (e.g. an interior-point solution is positive semidefinite only
up to ``psd_tol``).
"""

from __future__ import annotations

import dataclasses
import os

DEFAULT_MAX_DIM = 256
MAX_DIM_ENV_VAR = "QRV_MAX_DIM"


@dataclasses.dataclass(frozen=True)
class NumericPolicy:
    """Tolerances shared across the library.

    Attributes:
        herm_tol: max-norm tolerance for Hermiticity checks.
        psd_tol: eigenvalues >= -psd_tol count as nonnegative.
        psd_reject: eigenvalues below -psd_reject are rejected outright;
            anything in [-psd_reject, 0) is clamped to zero before roots.
        trace_tol: |tr(rho) - 1| tolerance for density matrices.
        norm_reject: pure-state norm deviation rejected above this; smaller
            deviations are renormalized away.
        trace_preserving_tol: max-norm tolerance for sum_k E_k^dag E_k = I.
        completeness_tol: max-norm tolerance for sum_k M_k^dag M_k = I.
        unitary_tol: max-norm tolerance for U^dag U = I.
        tie_tol: two class probabilities within tie_tol count as tied.
    """

    herm_tol: float = 1e-9
    psd_tol: float = 1e-8
    psd_reject: float = 1e-6
    trace_tol: float = 1e-9
    norm_reject: float = 1e-6
    trace_preserving_tol: float = 1e-7
    completeness_tol: float = 1e-7
    unitary_tol: float = 1e-7
    tie_tol: float = 1e-7

    def replace(self, **overrides) -> "NumericPolicy":
        """Return a copy with the given tolerances replaced."""
        return dataclasses.replace(self, **overrides)


DEFAULT_POLICY = NumericPolicy()


def dimension_cap() -> int:
    """Largest admissible Hilbert-space dimension.

    Defaults to 256 (8 qubits); override with the QRV_MAX_DIM environment
    variable.  The optimal bound costs a few dense eigendecompositions per
    state, cubic in the dimension (about 0.09 s for one mixed-state bound
    at dim 256 on a 2-vCPU Xeon), and every dense matrix takes 16 dim^2
    bytes, so the cap bounds run time and memory.
    """
    raw = os.environ.get(MAX_DIM_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"{MAX_DIM_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValueError(f"{MAX_DIM_ENV_VAR} must be at least 2, got {value}")
    return value


def check_dimension(dim: int) -> None:
    """Raise if ``dim`` exceeds the configured cap."""
    cap = dimension_cap()
    if dim > cap:
        from .errors import ValidationError

        raise ValidationError(
            f"dimension {dim} exceeds the configured cap {cap}; "
            f"raise {MAX_DIM_ENV_VAR} to override"
        )
