"""Brute-force ground truth for small dimensions.

These searches are deliberately independent of the verification stack:
the qubit grid enumerates the whole Bloch ball with a closed-form qubit
fidelity, so its minimum class-changing distance upper-bounds the exact
bound and converges to it as the grid refines.  The random probe is a
probabilistic falsifier for any dimension; finding nothing is never a
robustness certificate.

This is test code: no part of the package imports it.  It also holds
the qubit Bloch-coordinate helpers and the density-matrix repair that
only these searches use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from qrv.classifiers import Classifier, classify
from qrv.config import PSD_REJECT, PSD_TOL, TIE_TOL
from qrv.errors import DimensionMismatch, ValidationError
from qrv.sampling import random_density_matrix
from qrv.states import (
    DensityMatrix,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    PureState,
    as_complex_matrix,
    fidelity,
    pure_to_density,
)


def project_to_density(m) -> DensityMatrix:
    """Nearest-density-matrix repair for nearly-valid input.

    Symmetrizes, clamps negative eigenvalues in the accepted drift range,
    and renormalizes the trace.  Input that is far from a density matrix
    (eigenvalue below ``-PSD_REJECT``) is rejected.
    """
    h = 0.5 * (as_complex_matrix(m, square=True) + as_complex_matrix(m).conj().T)
    w, v = np.linalg.eigh(h)
    if w[0] < -PSD_REJECT:
        raise ValidationError(
            f"matrix too indefinite to repair: min eigenvalue {w[0]:.3e}"
        )
    w = np.clip(w, 0.0, None)
    total = float(np.sum(w))
    if total <= 0.0:
        raise ValidationError("matrix has zero trace after clamping")
    w /= total
    return DensityMatrix((v * w) @ v.conj().T)


def bloch_vector(rho: DensityMatrix) -> np.ndarray:
    """(x, y, z) Bloch coordinates of a qubit state."""
    if rho.dim != 2:
        raise DimensionMismatch("Bloch coordinates are defined for dim 2 only")
    m = rho.matrix
    return np.array(
        [
            float(np.real(np.trace(m @ PAULI_X))),
            float(np.real(np.trace(m @ PAULI_Y))),
            float(np.real(np.trace(m @ PAULI_Z))),
        ]
    )


def density_from_bloch(r: Iterable[float]) -> DensityMatrix:
    """Qubit state 0.5 * (I + x X + y Y + z Z) for ||r|| <= 1."""
    x, y, z = (float(c) for c in r)
    norm = np.sqrt(x * x + y * y + z * z)
    if norm > 1.0 + PSD_TOL:
        raise ValidationError(f"Bloch vector has norm {norm:.9f} > 1")
    m = 0.5 * (np.eye(2, dtype=complex) + x * PAULI_X + y * PAULI_Y + z * PAULI_Z)
    if norm > 1.0:  # numerical drift just outside the ball
        return project_to_density(m)
    return DensityMatrix(m)


@dataclass(frozen=True)
class SearchGrid:
    """Bloch-ball grid: ``resolution`` points per axis over [-1, 1]^3."""

    resolution: int = 100

    def __post_init__(self):
        if self.resolution < 2:
            raise ValidationError("grid resolution must be at least 2")


def qubit_fidelity_closed_form(
    a: np.ndarray, r_x: np.ndarray, r_y: np.ndarray, r_z: np.ndarray
) -> np.ndarray:
    """Qubit fidelity tr(rho sigma) + 2 sqrt(det rho det sigma), vectorized.

    ``a`` is the Bloch vector of rho; the r arrays are Bloch coordinates
    of the sigma batch.  This closed form shares no code with the
    eigendecomposition fidelity, which is the point.
    """
    dot = a[0] * r_x + a[1] * r_y + a[2] * r_z
    det_rho = max((1.0 - float(a @ a)) / 4.0, 0.0)
    det_sigma = np.clip((1.0 - (r_x**2 + r_y**2 + r_z**2)) / 4.0, 0.0, None)
    return 0.5 * (1.0 + dot) + 2.0 * np.sqrt(det_rho * det_sigma)


def _qubit_probability_coefficients(classifier: Classifier) -> tuple[np.ndarray, np.ndarray]:
    """Affine coefficients with p_k(r) = c0_k + c_k . r on the Bloch ball."""
    c0 = []
    cvec = []
    for effect in classifier.dual_effects:
        c0.append(0.5 * float(np.real(np.trace(effect))))
        cvec.append(
            [
                0.5 * float(np.real(np.trace(effect @ PAULI_X))),
                0.5 * float(np.real(np.trace(effect @ PAULI_Y))),
                0.5 * float(np.real(np.trace(effect @ PAULI_Z))),
            ]
        )
    return np.array(c0), np.array(cvec)


def _class_change_mask(
    classifier: Classifier,
    label: int,
    r_x: np.ndarray,
    r_y: np.ndarray,
    r_z: np.ndarray,
) -> np.ndarray:
    """True where the winner is not ``label``, or ties it within tolerance."""
    c0, cvec = _qubit_probability_coefficients(classifier)
    probs = (
        c0[:, None]
        + cvec[:, 0, None] * r_x[None, :]
        + cvec[:, 1, None] * r_y[None, :]
        + cvec[:, 2, None] * r_z[None, :]
    )
    own = probs[label]
    rival = np.max(np.delete(probs, label, axis=0), axis=0)
    return rival >= own - TIE_TOL


def bloch_grid_min_distance(
    classifier: Classifier,
    rho: DensityMatrix,
    label: int,
    grid: SearchGrid = SearchGrid(),
) -> tuple[float, DensityMatrix | None]:
    """Exhaustive qubit search for the nearest class-changing state.

    Enumerates sigma = (I + x X + y Y + z Z) / 2 over the grid restricted
    to the unit ball and returns the minimum ``1 - F(rho, sigma)`` among
    points classified away from ``label`` (ties count as away).  The
    result never undershoots the true optimum (the grid is a subset of
    the ball) and converges to it as the resolution grows.  Returns
    ``(inf, None)`` when no grid point changes class.
    """
    if rho.dim != 2 or classifier.dim != 2:
        raise DimensionMismatch("the Bloch-grid search handles dimension 2 only")
    axis = np.linspace(-1.0, 1.0, grid.resolution)
    r_x, r_y, r_z = (c.ravel() for c in np.meshgrid(axis, axis, axis, indexing="ij"))
    inside = r_x**2 + r_y**2 + r_z**2 <= 1.0 + 1e-12
    r_x, r_y, r_z = r_x[inside], r_y[inside], r_z[inside]

    changed = _class_change_mask(classifier, label, r_x, r_y, r_z)
    if not np.any(changed):
        return float("inf"), None
    a = bloch_vector(rho)
    distance = 1.0 - qubit_fidelity_closed_form(
        a, r_x[changed], r_y[changed], r_z[changed]
    )
    best = int(np.argmin(distance))
    delta_hat = float(max(distance[best], 0.0))
    sigma_hat = density_from_bloch(
        (r_x[changed][best], r_y[changed][best], r_z[changed][best])
    )
    return delta_hat, sigma_hat


def _sphere_sweep(classifier, label, a, theta, phi):
    """Best class-changing point over a theta x phi angle grid."""
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    tt, pp = tt.ravel(), pp.ravel()
    r_x = np.sin(tt) * np.cos(pp)
    r_y = np.sin(tt) * np.sin(pp)
    r_z = np.cos(tt)
    changed = _class_change_mask(classifier, label, r_x, r_y, r_z)
    if not np.any(changed):
        return None
    # Pure states: F = |<phi|psi>|^2 = (1 + a . r) / 2.
    overlap = 0.5 * (
        1.0 + a[0] * r_x[changed] + a[1] * r_y[changed] + a[2] * r_z[changed]
    )
    distance = 1.0 - overlap
    best = int(np.argmin(distance))
    return float(max(distance[best], 0.0)), float(tt[changed][best]), float(pp[changed][best])


def pure_sphere_min_distance(
    classifier: Classifier,
    psi: PureState,
    label: int,
    angle_step: float = 1e-3,
) -> tuple[float, PureState | None]:
    """Sweep of the qubit pure-state sphere at the given angular resolution.

    Same contract as the ball grid, restricted to pure states (the
    sphere surface).  A full-sphere pass at a bounded coarse step locates
    the basin; a second pass at ``angle_step`` covers a window around the
    coarse minimizer.  Every evaluated point is a genuine sphere point,
    so the result still upper-bounds the true optimum.
    """
    if psi.dim != 2 or classifier.dim != 2:
        raise DimensionMismatch("the sphere sweep handles dimension 2 only")
    a = bloch_vector(pure_to_density(psi))

    coarse_step = max(angle_step, 4e-3)
    theta = np.linspace(0.0, np.pi, int(np.ceil(np.pi / coarse_step)) + 1)
    phi = np.linspace(0.0, 2.0 * np.pi, int(np.ceil(2.0 * np.pi / coarse_step)) + 1,
                      endpoint=False)
    hit = _sphere_sweep(classifier, label, a, theta, phi)
    if hit is None:
        return float("inf"), None
    best_d, best_t, best_p = hit

    if angle_step < coarse_step:
        window = 4.0 * coarse_step
        count = max(int(np.ceil(2.0 * window / angle_step)) + 1, 3)
        theta_f = np.clip(np.linspace(best_t - window, best_t + window, count), 0.0, np.pi)
        phi_f = np.linspace(best_p - window, best_p + window, count)
        refined = _sphere_sweep(classifier, label, a, theta_f, phi_f)
        if refined is not None and refined[0] < best_d:
            best_d, best_t, best_p = refined

    amplitudes = np.array(
        [np.cos(best_t / 2.0), np.exp(1j * best_p) * np.sin(best_t / 2.0)]
    )
    return best_d, PureState(amplitudes)


def random_neighborhood_probe(
    classifier: Classifier,
    rho: DensityMatrix,
    label: int,
    eps: float,
    samples: int = 10000,
    seed: int = 0,
) -> DensityMatrix | None:
    """Probabilistic falsifier for any dimension.

    Mixes rho with random states, rejects draws farther than eps, and
    returns the first class-changing survivor (re-checked against all
    three adversarial-example conditions).  ``None`` means nothing was
    found, which certifies nothing.
    """
    if not 0.0 <= eps < 1.0:
        raise ValidationError(f"eps must lie in [0, 1), got {eps}")
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        tau = random_density_matrix(rho.dim, rng)
        t = rng.uniform()
        candidate = DensityMatrix((1.0 - t) * rho.matrix + t * tau.matrix)
        if 1.0 - fidelity(rho, candidate) > eps:
            continue
        outcome = classify(classifier, candidate)
        if outcome.label_index != label or outcome.tie:
            # Re-check the full adversarial-example definition before
            # returning: rho correctly classified is the caller's
            # precondition; distance and class change are re-verified.
            if 1.0 - fidelity(rho, candidate) <= eps + 1e-12:
                return candidate
    return None
