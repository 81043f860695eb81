"""Numeric tolerances and global limits, and the one owner of the radius and label rules.

Every tolerance of validation, classification and gap spectra is one constant
here, so all agree on what counts as a state, a classifier, a channel and a tie;
``verifier.WITNESS_BUDGET``, ``recheck.DELTA_TOL`` and ``recheck.DISTANCE_TOL``
live where they are used.  The test suite's SDP oracle, ``tests/sdp_oracle.py``,
takes its own solver targets.  The values are deliberately strict.
"""

from __future__ import annotations

import numbers
import os
import sys

from .errors import ValidationError

DEFAULT_MAX_DIM = 256
MAX_DIM_ENV_VAR = "QRV_MAX_DIM"

# Max-norm tolerance for Hermiticity checks, max |M - M^dag|.
HERM_TOL = 1e-9
# Eigenvalues >= -PSD_TOL count as nonnegative in a density matrix or an
# effect.
PSD_TOL = 1e-8
# Eigenvalues below -PSD_REJECT are rejected outright; anything in
# [-PSD_REJECT, 0) is clamped to zero before a square root is taken.
PSD_REJECT = 1e-6
# |tr(rho) - 1| tolerance for density matrices.
TRACE_TOL = 1e-9
# Pure-state norm deviations above this are rejected; smaller ones are
# renormalized away.
NORM_REJECT = 1e-6
# Max-norm tolerance for trace preservation of a Kraus set
# (sum_k E_k^dag E_k = I), effects summing to I, and unitarity.
ISOMETRY_TOL = 1e-7
# Two class probabilities within TIE_TOL count as tied.
TIE_TOL = 1e-7
# eigh is exact for some A + E, ||E|| <= p(dim) eps ||A||, so by Weyl no gap
# eigenvalue (||A|| <= 1 for a POVM) moves further than GAP_ROUNDING * dim (3.6e-12
# at dim 256, far below TIE_TOL); the bound sets those that near the least to it.
GAP_ROUNDING = 64 * sys.float_info.epsilon


def dimension_cap() -> int:
    """Largest admissible Hilbert-space dimension.

    Defaults to 256 (8 qubits); override with the QRV_MAX_DIM environment
    variable.  The optimal bound costs eigendecompositions cubic in the
    dimension: of a mixed state, and of its witness where a radius finds it
    not robust (at dim 256 on a 2-vCPU Xeon, rank 2: 0.02 s, or 0.05 s with
    a witness; pure: under 0.001 s), and every dense matrix takes 16 dim^2
    bytes, so the cap bounds run time and memory.
    """
    raw = os.environ.get(MAX_DIM_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValidationError(
            f"{MAX_DIM_ENV_VAR} must be an integer, got {raw!r}") from exc
    if value < 2:
        raise ValidationError(f"{MAX_DIM_ENV_VAR} must be at least 2, got {value}")
    return value


def check_dimension(dim: int) -> None:
    """Raise if ``dim`` exceeds the configured cap."""
    cap = dimension_cap()
    if dim > cap:
        raise ValidationError(
            f"dimension {dim} exceeds the configured cap {cap}; "
            f"raise {MAX_DIM_ENV_VAR} to override"
        )


def check_epsilon(eps: object) -> float:
    """``eps`` as a float; raise unless it is a real number in (0, 1).  A bool,
    a string, None or an int beyond the float range is refused, not converted."""
    if (isinstance(eps, bool) or not isinstance(eps, numbers.Real)
            or isinstance(eps, int) and abs(eps) > sys.float_info.max):
        raise ValidationError(
            f"epsilon must be a real number in the float range, got {type(eps).__name__}")
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"epsilon must be in (0, 1), got {eps}")
    return float(eps)


def check_label(label: object, where: str = "", n_classes: int | None = None) -> int:
    """``label`` as an int; raise (message led by ``where``) unless it is a nonnegative int or
    numpy integer and, given ``n_classes``, a class index.  A bool, float or string is refused."""
    integer = isinstance(label, numbers.Integral) and not isinstance(label, bool)
    if integer and n_classes is not None and not 0 <= label < n_classes:
        raise ValidationError(
            f"{where}label {label} is not a class of a {n_classes}-class classifier")
    if not integer or label < 0:
        raise ValidationError(f"{where}label must be a nonnegative integer, got {label!r}")
    return int(label)
