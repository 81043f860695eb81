"""Small-scale semidefinite programming over Hermitian matrices.

This is the test suite's independent oracle for the fidelity optimum
that ``qrv`` computes in closed form; the package itself never solves an
SDP.  Problems are stated as ``min tr(C X)`` subject to ``tr(A_j X)
(<= | ==) b_j`` and ``X >= 0`` with Hermitian data.  Solving embeds the problem
into a real symmetric one (each Hermitian ``H`` maps to ``[[Re H,
-Im H], [Im H, Re H]]``), runs a primal-dual path-following interior
point method with Nesterov-Todd scaling, and projects the solution back.
A solve that misses its tolerances reports a non-optimal status and no
solution; nothing raises.

The module also builds the block program computing ``sqrt(F(rho,
sigma))``: maximize ``tr(X + X^dag) / 2`` over ``[[rho, X], [X^dag,
sigma]] >= 0`` with the upper-left block pinned to ``rho`` and ``sigma``
ranging over caller-supplied affine constraints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
import scipy.linalg

from qrv.errors import ValidationError
from qrv.states import DensityMatrix, as_complex_matrix, require_hermitian

EQ = "=="
LE = "<="

# Interior-point iteration cap, fraction of the step to the cone boundary
# taken, and the relative Schur-complement regularization tried first.
_MAX_ITERATIONS = 200
_STEP_FRACTION = 0.98
_REGULARIZATION = 1e-12


@dataclass(frozen=True)
class LinearConstraint:
    """One affine constraint tr(A X) (<= | ==) b with Hermitian A."""

    matrix: np.ndarray
    relation: str
    bound: float

    def __post_init__(self):
        if self.relation not in (EQ, LE):
            raise ValidationError(f"relation must be '==' or '<=', got {self.relation!r}")


class SdpProblem:
    """Standard-form SDP over one Hermitian PSD variable."""

    def __init__(
        self,
        objective,
        constraints: Sequence[LinearConstraint],
    ):
        c = require_hermitian(objective, "objective")
        n = c.shape[0]
        checked = []
        for j, con in enumerate(constraints):
            a = require_hermitian(con.matrix, f"constraint {j}")
            if a.shape[0] != n:
                raise ValidationError(
                    f"constraint {j} has dim {a.shape[0]}, objective has {n}"
                )
            bound = float(con.bound)
            if not np.isfinite(bound):
                raise ValidationError(f"constraint {j} has non-finite bound")
            checked.append(LinearConstraint(a, con.relation, bound))
        self.objective = c
        self.constraints = tuple(checked)
        self.variable_dim = n


@dataclass(frozen=True)
class SolverOptions:
    gap_tol: float = 1e-7
    feas_tol: float = 1e-7
    track_iterates: bool = False


@dataclass
class SdpSolution:
    status: str  # optimal | stalled | max_iterations | numerical_failure
    X: np.ndarray | None
    objective_value: float
    max_constraint_violation: float
    iterations: int
    stats: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Hermitian <-> real symmetric embedding


def embed_matrix(h: np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re H, -Im H], [Im H, Re H]] of Hermitian H."""
    h = as_complex_matrix(h, square=True)
    n = h.shape[0]
    out = np.empty((2 * n, 2 * n), dtype=float)
    out[:n, :n] = h.real
    out[n:, n:] = h.real
    out[:n, n:] = -h.imag
    out[n:, :n] = h.imag
    return out


def project_embedded(x_hat: np.ndarray) -> np.ndarray:
    """Recover the Hermitian matrix represented by an embedded variable.

    Averages over the embedding symmetry first, so any real symmetric
    optimum of the embedded problem maps to a complex solution with the
    same (halved) objective value.
    """
    x_hat = np.asarray(x_hat, dtype=float)
    n2 = x_hat.shape[0]
    if n2 % 2:
        raise ValidationError("embedded matrix must have even dimension")
    n = n2 // 2
    re = 0.5 * (x_hat[:n, :n] + x_hat[n:, n:])
    im = 0.5 * (x_hat[n:, :n] - x_hat[:n, n:])
    x = re + 1j * im
    return 0.5 * (x + x.conj().T)


def embed_hermitian(problem: SdpProblem) -> SdpProblem:
    """Real symmetric embedding of a Hermitian problem.

    Objective and constraint values double: tr(embed(A) embed(X)) =
    2 tr(A X).  Solving the embedded problem and projecting back with
    :func:`project_embedded` recovers the complex solution with half the
    embedded objective value.
    """
    constraints = [
        LinearConstraint(embed_matrix(c.matrix), c.relation, 2.0 * c.bound)
        for c in problem.constraints
    ]
    return SdpProblem(embed_matrix(problem.objective), constraints)


# ---------------------------------------------------------------------------
# Interior-point core (real symmetric PSD block + nonnegative slack block)


class _IpmBreakdown(Exception):
    pass


def _sym(m):
    return 0.5 * (m + m.T)


def _psd_sqrt_and_inv(m):
    w, v = np.linalg.eigh(m)
    w = np.clip(w, 1e-300, None)
    root = (v * np.sqrt(w)) @ v.T
    inv = (v / w) @ v.T
    return _sym(root), _sym(inv)


def _nt_scaling(x, z):
    """NT scaling point W with W z W = x, plus z^{-1}."""
    xs, _ = _psd_sqrt_and_inv(x)
    inner = _sym(xs @ z @ xs)
    w_in, v_in = np.linalg.eigh(inner)
    w_in = np.clip(w_in, 1e-300, None)
    inner_isqrt = (v_in / np.sqrt(w_in)) @ v_in.T
    w = _sym(xs @ inner_isqrt @ xs)
    _, zinv = _psd_sqrt_and_inv(z)
    return w, zinv


def _max_step_psd(x, dx):
    """Largest alpha with x + alpha dx >= 0, for x > 0."""
    try:
        chol = scipy.linalg.cholesky(x, lower=True)
        s = scipy.linalg.solve_triangular(chol, dx, lower=True)
        s = scipy.linalg.solve_triangular(chol, s.T, lower=True)
        lam = float(np.linalg.eigvalsh(_sym(s))[0])
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise _IpmBreakdown(f"step computation failed: {exc}") from exc
    if not np.isfinite(lam):
        raise _IpmBreakdown("non-finite step eigenvalue")
    if lam >= -1e-300:
        return np.inf
    return -1.0 / lam


def _max_step_lp(x, dx):
    neg = dx < 0
    if not np.any(neg):
        return np.inf
    return float(np.min(-x[neg] / dx[neg]))


def _ipm_real(c_mat, a_stack, g_mat, b, opts: SolverOptions):
    """Infeasible-start predictor-corrector IPM on the cone S+^n x R+^q.

    minimize  <C, X>
    s.t.      <A_i, X> + (G u)_i = b_i,    X >= 0, u >= 0
    """
    n = c_mat.shape[0]
    m = a_stack.shape[0] if a_stack.size else 0
    q = g_mat.shape[1]
    a_flat = a_stack.reshape(m, -1)

    scale_b = 1.0 + (float(np.max(np.abs(b))) if m else 0.0)
    scale_c = 1.0 + float(np.linalg.norm(c_mat)) / max(1.0, np.sqrt(n))
    x = scale_b * np.eye(n)
    u = scale_b * np.ones(q)
    z_mat = scale_c * np.eye(n)
    z_lp = scale_c * np.ones(q)
    y = np.zeros(m)

    trace = []
    info = {"iterations": 0}
    status = "max_iterations"

    for it in range(_MAX_ITERATIONS):
        ax = a_flat @ x.reshape(-1) + g_mat @ u if m else np.zeros(0)
        rp = b - ax
        rd_mat = c_mat - z_mat - np.tensordot(y, a_stack, axes=1) if m else c_mat - z_mat
        rd_lp = -z_lp - (g_mat.T @ y if m else 0.0)
        compl_total = float(np.sum(x * z_mat) + u @ z_lp)
        mu = compl_total / (n + q)

        obj_p = float(np.sum(c_mat * x))
        obj_d = float(b @ y) if m else 0.0
        denom = 1.0 + abs(obj_p) + abs(obj_d)
        pinf = float(np.max(np.abs(rp))) / scale_b if m else 0.0
        dinf = max(
            float(np.max(np.abs(rd_mat))),
            float(np.max(np.abs(rd_lp))) if q else 0.0,
        ) / scale_c
        relgap = abs(obj_p - obj_d) / denom
        relcompl = compl_total / denom

        if opts.track_iterates:
            trace.append(
                {"primal": obj_p, "dual": obj_d, "pinf": pinf, "dinf": dinf, "mu": mu}
            )

        if not np.isfinite(mu) or not np.isfinite(obj_p):
            status = "numerical_failure"
            break
        if pinf <= opts.feas_tol and dinf <= opts.feas_tol and max(relgap, relcompl) <= opts.gap_tol:
            status = "optimal"
            info["iterations"] = it
            break
        # Tiny complementarity with a stubbornly large primal residual is
        # the signature of an infeasible problem; stop early.
        if mu < 1e-12 and pinf > 1e-5:
            status = "stalled"
            info["iterations"] = it
            break

        try:
            w_nt, z_inv = _nt_scaling(x, z_mat)
            w2 = u / z_lp if q else np.zeros(0)
            zinv_lp = 1.0 / z_lp if q else np.zeros(0)

            waw = w_nt[None, :, :] @ a_stack @ w_nt[None, :, :] if m else a_stack
            sch = a_flat @ waw.reshape(m, -1).T if m else np.zeros((0, 0))
            if q:
                sch = sch + (g_mat * w2) @ g_mat.T
            sch = 0.5 * (sch + sch.T)

            base_reg = _REGULARIZATION * (1.0 + np.trace(sch) / max(m, 1))
            factor = None
            reg = 0.0
            for attempt in range(5):
                try:
                    factor = scipy.linalg.cho_factor(
                        sch + reg * np.eye(m), lower=True
                    )
                    break
                except scipy.linalg.LinAlgError:
                    reg = base_reg * (100.0 ** attempt) if reg else base_reg
            if factor is None:
                raise _IpmBreakdown("Schur complement factorization failed")

            w_rd_w = w_nt @ rd_mat @ w_nt

            def directions(rc_mat, rc_lp):
                rhs = rp - a_flat @ (rc_mat - w_rd_w).reshape(-1)
                if q:
                    rhs = rhs - g_mat @ (rc_lp - w2 * rd_lp)
                dy = scipy.linalg.cho_solve(factor, rhs) if m else np.zeros(0)
                dz_mat = rd_mat - (np.tensordot(dy, a_stack, axes=1) if m else 0.0)
                dz_lp = rd_lp - (g_mat.T @ dy if m else 0.0)
                dx = rc_mat - w_nt @ dz_mat @ w_nt
                du = rc_lp - w2 * dz_lp
                return _sym(dx), du, dy, _sym(dz_mat), dz_lp

            # Predictor: pure Newton step toward complementarity zero.
            dx_a, du_a, dy_a, dz_a, dzlp_a = directions(-x, -u)
            ap = min(1.0, _max_step_psd(x, dx_a), _max_step_lp(u, du_a))
            ad = min(1.0, _max_step_psd(z_mat, dz_a), _max_step_lp(z_lp, dzlp_a))
            mu_aff = (
                float(np.sum((x + ap * dx_a) * (z_mat + ad * dz_a)))
                + float((u + ap * du_a) @ (z_lp + ad * dzlp_a))
            ) / (n + q)
            sigma = float(np.clip((max(mu_aff, 0.0) / mu) ** 3, 1e-8, 0.999))

            # Corrector: recenter toward sigma * mu.
            rc_mat = sigma * mu * z_inv - x
            rc_lp = sigma * mu * zinv_lp - u if q else np.zeros(0)
            dx, du, dy, dz_mat, dz_lp = directions(rc_mat, rc_lp)

            tau = _STEP_FRACTION
            ap = min(1.0, tau * _max_step_psd(x, dx), tau * _max_step_lp(u, du))
            ad = min(
                1.0, tau * _max_step_psd(z_mat, dz_mat), tau * _max_step_lp(z_lp, dz_lp)
            )
            if ap <= 1e-14 or ad <= 1e-14:
                raise _IpmBreakdown("step length collapsed")

            x = _sym(x + ap * dx)
            u = u + ap * du
            y = y + ad * dy
            z_mat = _sym(z_mat + ad * dz_mat)
            z_lp = z_lp + ad * dz_lp
        except (_IpmBreakdown, scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
            info["failure"] = str(exc)
            status = "numerical_failure"
            info["iterations"] = it
            break
    else:
        info["iterations"] = _MAX_ITERATIONS

    info.update(
        pinf=pinf, dinf=dinf, relgap=relgap, relcompl=relcompl,
        primal_objective=obj_p, dual_objective=obj_d, mu=mu,
    )
    if opts.track_iterates:
        info["trace"] = trace
    return status, x, info


# ---------------------------------------------------------------------------
# Public solve entry point


def _prepare_real_arrays(problem: SdpProblem):
    """Real data plus slack selector for inequality rows."""
    m = len(problem.constraints)
    n = problem.variable_dim
    a_stack = np.empty((m, n, n), dtype=float)
    b = np.empty(m)
    ineq_rows = []
    for i, con in enumerate(problem.constraints):
        a_stack[i] = con.matrix.real
        b[i] = con.bound
        if con.relation == LE:
            ineq_rows.append(i)
    q = len(ineq_rows)
    g_mat = np.zeros((m, q))
    for col, row in enumerate(ineq_rows):
        g_mat[row, col] = 1.0
    return a_stack, g_mat, b


def _constraint_violations(problem: SdpProblem, x: np.ndarray) -> float:
    worst = 0.0
    for con in problem.constraints:
        value = float(np.real(np.sum(con.matrix.conj() * x)))
        if con.relation == EQ:
            worst = max(worst, abs(value - con.bound))
        else:
            worst = max(worst, value - con.bound)
    return worst


def solve(
    problem: SdpProblem, options: SolverOptions | None = None
) -> SdpSolution:
    """Solve a Hermitian SDP to the configured tolerances.

    Returns status ``optimal`` with a PSD solution.  Otherwise ``X`` is
    None and the status says why: ``stalled`` when complementarity
    vanishes while the primal residual stays large (the signature of an
    infeasible problem), ``max_iterations`` when the iteration cap is hit,
    or ``numerical_failure`` on irrecoverable breakdown.
    """
    opts = options or SolverOptions()
    work = embed_hermitian(problem)
    a_stack, g_mat, b = _prepare_real_arrays(work)
    status, x, info = _ipm_real(work.objective.real, a_stack, g_mat, b, opts)
    if status != "optimal":
        return SdpSolution(
            status=status,
            X=None,
            objective_value=float("nan"),
            max_constraint_violation=float("nan"),
            iterations=info["iterations"],
            stats=info,
        )

    x_out = project_embedded(x)
    return SdpSolution(
        status="optimal",
        X=x_out,
        objective_value=0.5 * info["primal_objective"],
        max_constraint_violation=_constraint_violations(problem, x_out),
        iterations=info["iterations"],
        stats=dict(info, dual_objective=0.5 * info["dual_objective"]),
    )


# ---------------------------------------------------------------------------
# Fidelity block program

# Eigenvalues of the pinned state below this are treated as exact zeros and
# compressed away; a pinned block with null directions would leave the
# feasible set without interior points and starve the interior-point method.
_RANK_TOL = 1e-12


def _hermitian_pin_constraints(
    n_total: int, offset: int, target: np.ndarray
) -> list[LinearConstraint]:
    """Equality constraints fixing one diagonal block to ``target``."""
    n = target.shape[0]
    cons = []
    for i in range(n):
        a = np.zeros((n_total, n_total), dtype=complex)
        a[offset + i, offset + i] = 1.0
        cons.append(LinearConstraint(a, EQ, float(target[i, i].real)))
        for j in range(i + 1, n):
            a = np.zeros((n_total, n_total), dtype=complex)
            a[offset + i, offset + j] = 1.0
            a[offset + j, offset + i] = 1.0
            cons.append(LinearConstraint(a, EQ, float(2.0 * target[i, j].real)))
            a = np.zeros((n_total, n_total), dtype=complex)
            a[offset + i, offset + j] = 1.0j
            a[offset + j, offset + i] = -1.0j
            cons.append(LinearConstraint(a, EQ, float(2.0 * target[i, j].imag)))
    return cons


class FidelityBlockProblem(SdpProblem):
    """The sqrt-fidelity block program plus its partition metadata.

    The Hermitian variable is ``[[rho_c, Y], [Y^dag, sigma_c]]`` where
    ``rho_c`` is the pinned state compressed onto its range (dimension
    ``pinned_rank``) and ``sigma_c`` lives on the subspace spanned by
    ``sigma_isometry`` (the full space unless the sigma side was
    compressed too).
    """

    def __init__(self, objective, constraints, *, pinned_rank, sigma_isometry):
        super().__init__(objective, constraints)
        self.pinned_rank = pinned_rank
        self.sigma_isometry = sigma_isometry


def sqrt_fidelity_sdp(
    rho: DensityMatrix,
    sigma_constraints: Sequence[tuple[np.ndarray, str, float]],
) -> FidelityBlockProblem:
    """Block program whose optimum is sqrt(F(rho, sigma*)).

    The variable is the Hermitian block matrix ``[[rho, X], [X^dag,
    sigma]] >= 0`` with the upper-left block pinned to ``rho``;
    ``sigma_constraints`` is a list of ``(H, relation, bound)`` triples
    on the sigma block (each lifts to ``tr(H sigma) relation bound``).
    The objective maximizes ``tr(X + X^dag) / 2``, stated as the
    minimization of its negation, so the reported optimum is
    ``-sqrt(F)``.

    When ``rho`` is rank deficient the pinned block is compressed onto
    its range first (block PSD forces the coupling block into that range
    anyway), which keeps the feasible set's interior nonempty and the
    optimum unchanged.
    """
    n = rho.dim
    isometry, pinned = _range_compression(rho.matrix)
    rank = pinned.shape[0]

    big = rank + n
    objective = np.zeros((big, big), dtype=complex)
    objective[:rank, rank:] = -0.5 * isometry.conj().T
    objective[rank:, :rank] = -0.5 * isometry

    constraints = _hermitian_pin_constraints(big, 0, pinned)
    for entry in sigma_constraints:
        try:
            matrix, relation, bound = entry
        except (TypeError, ValueError) as exc:
            raise ValidationError(
                "sigma constraints must be (matrix, relation, bound) triples"
            ) from exc
        h = require_hermitian(matrix, "sigma constraint")
        if h.shape[0] != n:
            raise ValidationError(
                f"sigma constraint dim {h.shape[0]} does not match state dim {n}"
            )
        lifted = np.zeros((big, big), dtype=complex)
        lifted[rank:, rank:] = h
        constraints.append(LinearConstraint(lifted, relation, float(bound)))
    return FidelityBlockProblem(
        objective,
        constraints,
        pinned_rank=rank,
        sigma_isometry=np.eye(n, dtype=complex),
    )


def sqrt_fidelity_sdp_fixed(
    rho: DensityMatrix, sigma: DensityMatrix
) -> FidelityBlockProblem:
    """Block program for sqrt(F) between two *fixed* states.

    Both diagonal blocks are compressed onto their ranges.  This matters
    beyond economy: with a rank-deficient block pinned in the full
    space the primal feasible set has no interior, the dual optimum need
    not be attained, and the duality gap stalls far from zero.  On the
    compressed blocks both sides are strictly feasible and the solver
    reaches tight tolerances.
    """
    if rho.dim != sigma.dim:
        raise ValidationError(
            f"state dims {rho.dim} and {sigma.dim} differ"
        )
    rho_iso, rho_c = _range_compression(rho.matrix)
    sig_iso, sig_c = _range_compression(sigma.matrix)
    r, s = rho_c.shape[0], sig_c.shape[0]

    big = r + s
    objective = np.zeros((big, big), dtype=complex)
    coupling = -0.5 * rho_iso.conj().T @ sig_iso  # r x s
    objective[:r, r:] = coupling
    objective[r:, :r] = coupling.conj().T

    constraints = _hermitian_pin_constraints(big, 0, rho_c)
    constraints += _hermitian_pin_constraints(big, r, sig_c)
    return FidelityBlockProblem(
        objective,
        constraints,
        pinned_rank=r,
        sigma_isometry=sig_iso,
    )


def _range_compression(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(isometry, compressed) with matrix = isometry compressed isometry^dag."""
    n = matrix.shape[0]
    w, v = np.linalg.eigh(matrix)
    keep = w > _RANK_TOL
    rank = int(np.count_nonzero(keep))
    if rank == 0:
        raise ValidationError("state has numerically zero rank")
    if rank == n:
        return np.eye(n, dtype=complex), matrix
    isometry = v[:, keep]
    compressed = isometry.conj().T @ matrix @ isometry
    return isometry, 0.5 * (compressed + compressed.conj().T)


def extract_fidelity_solution(
    problem: FidelityBlockProblem, solution_matrix: np.ndarray
) -> tuple[float, np.ndarray]:
    """(sqrt_fidelity, sigma_block) encoded in a solved block variable.

    The sigma block is mapped back to the full state space when the
    problem compressed it.
    """
    sqrt_f = -float(
        np.real(np.sum(problem.objective.conj() * solution_matrix))
    )
    sigma = solution_matrix[problem.pinned_rank :, problem.pinned_rank :]
    iso = problem.sigma_isometry
    if iso.shape[0] != iso.shape[1]:
        sigma = iso @ sigma @ iso.conj().T
    return min(max(sqrt_f, 0.0), 1.0), sigma
