"""Robustness verification of quantum classifiers.

A state rho with correct label l is epsilon-robust when no state sigma
with ``1 - F(rho, sigma) <= epsilon`` is classified away from l.  The
verification stack:

* a margin bound: ``sqrt(p_1) - sqrt(p_2) > sqrt(2 epsilon)`` certifies
  robustness from the outcome probabilities alone;
* the optimal robust bound ``delta``: for every rival class k, minimize
  ``1 - F(rho, sigma)`` over states satisfying the class-flip constraint
  ``tr[(M_l^dag M_l - M_k^dag M_k) channel(sigma)] <= 0`` (a semidefinite
  program); rho is epsilon-robust iff ``epsilon <= delta``;
* pure-state adversaries: for pure rho the pure-state bound equals
  delta (the joint numerical range of two Hermitian forms is convex,
  Toeplitz-Hausdorff), so the mixed witness is rotated into a pure one
  at the same distance;
* dataset drivers that filter with the margin bound and fall back to the
  exact bound only where the filter is inconclusive, collecting
  adversarial examples along the way.

Misclassified dataset entries are a correctness failure, not a
robustness failure: they are excluded from robustness verdicts and
reported separately, while the robust-accuracy denominator stays the
full dataset size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .classifiers import (
    Classification,
    Classifier,
    LabeledDataset,
    WELL_TRAINED_THRESHOLD,
    classify,
)
from .config import DEFAULT_POLICY, NumericPolicy
from .errors import MisclassifiedInput, SolverFailure, ValidationError
from .sdp import (
    EQ,
    LE,
    SolverOptions,
    extract_fidelity_solution,
    solve,
    sqrt_fidelity_sdp,
)
from .states import (
    DensityMatrix,
    PureState,
    fidelity,
    project_to_density,
    pure_to_density,
)

__all__ = [
    "VerifyOptions",
    "AdversarialWitness",
    "OptimalBound",
    "RobustnessCheck",
    "PureBound",
    "StateVerdict",
    "VerificationReport",
    "margin_robust_bound",
    "compute_optimal_bound",
    "check_epsilon_robust",
    "pure_state_optimal_bound",
    "verify_dataset",
    "under_robust_accuracy",
]

MIXED = "mixed"
PURE = "pure"


def _require_epsilon(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"epsilon must lie strictly between 0 and 1, got {eps}")
    return eps


@dataclass(frozen=True)
class VerifyOptions:
    """Knobs for the verification drivers."""

    mode: str = MIXED  # "mixed": adversaries range over density matrices;
    #                    "pure": pure-state adversaries for pure entries
    seed: int = 0  # recorded in reports; no computation draws on it
    solver: SolverOptions | None = None
    policy: NumericPolicy = DEFAULT_POLICY
    collect_adversarial: bool = True

    def __post_init__(self):
        if self.mode not in (MIXED, PURE):
            raise ValidationError(f"mode must be 'mixed' or 'pure', got {self.mode!r}")

    def solver_options(self) -> SolverOptions:
        return self.solver or SolverOptions.from_policy(self.policy)


@dataclass(frozen=True)
class AdversarialWitness:
    """An extracted adversarial example."""

    sigma: DensityMatrix | PureState
    target_class: int
    distance: float  # 1 - F(rho, sigma)
    source_index: int | None = None


@dataclass(frozen=True)
class OptimalBound:
    """Largest radius with no adversarial example, plus its witness."""

    delta: float | None  # None encodes an unbounded radius
    unbounded: bool
    argmin_class: int | None
    sigma_star: DensityMatrix | None
    per_class: dict
    sdp_solves: int = 0
    sdp_iterations: int = 0

    def robust_at(self, eps: float) -> bool:
        return self.unbounded or eps <= self.delta


@dataclass(frozen=True)
class RobustnessCheck:
    robust: bool
    witness: AdversarialWitness | None
    per_class_feasible: dict
    sdp_solves: int = 0


@dataclass(frozen=True)
class PureBound:
    """Optimal robust bound against pure-state adversaries.

    ``delta`` equals the mixed-state bound and ``phi_star`` is a pure
    state at that distance; ``status`` is always ``ok``.
    """

    status: str
    delta: float | None
    unbounded: bool
    argmin_class: int | None
    phi_star: PureState | None
    per_class: dict


def margin_robust_bound(
    classifier: Classifier,
    state,
    eps: float,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> bool:
    """Margin certificate: sqrt(p_1) - sqrt(p_2) > sqrt(2 eps).

    True certifies eps-robustness; False is inconclusive, not a
    counterexample.
    """
    eps = _require_epsilon(eps)
    outcome = classify(classifier, state, policy=policy)
    return outcome.margin > np.sqrt(2.0 * eps)


def _classification_for_label(
    classifier: Classifier, state, label: int | None, policy: NumericPolicy
) -> tuple[Classification, int]:
    outcome = classify(classifier, state, policy=policy)
    if label is None:
        label = outcome.label_index
    elif outcome.label_index != label:
        raise MisclassifiedInput(
            f"state is classified as {outcome.label_index}, not the stated "
            f"label {label}; robustness of a misclassified state is undefined"
        )
    return outcome, int(label)


def _solve_with_retry(problem, opts: SolverOptions):
    solution = solve(problem, opts)
    if solution.status == "optimal":
        return solution
    # One retry with a looser gap keeps marginal instances alive without
    # compromising the 1e-5 witness-distance contract.
    loose = replace(opts, gap_tol=max(opts.gap_tol * 100, 1e-6),
                    feas_tol=max(opts.feas_tol * 10, 1e-6))
    retry = solve(problem, loose)
    if retry.status == "optimal":
        return retry
    raise SolverFailure(
        f"optimal-bound SDP failed: {solution.status} then {retry.status}"
    )


def _polish_witness(
    gap_operator: np.ndarray,
    sigma: DensityMatrix,
    rho: DensityMatrix,
    budget: float,
    policy: NumericPolicy,
) -> DensityMatrix:
    """Nudge a boundary witness into the rival class when nearly tied.

    The optimal sigma sits on the decision boundary; mixing in a sliver
    of the gap operator's most negative eigenvector makes the class
    change strict when that costs less than ``budget`` extra distance.
    """
    value = float(np.real(np.trace(gap_operator @ sigma.matrix)))
    if value < -policy.tie_tol:
        return sigma
    w, v = np.linalg.eigh(gap_operator)
    if w[0] >= 0.0:
        return sigma
    direction = np.outer(v[:, 0], v[:, 0].conj())
    base_distance = 1.0 - fidelity(rho, sigma, policy=policy)
    for t in (1e-9, 1e-8, 1e-7, 1e-6, 1e-5):
        mixed = project_to_density(
            (1.0 - t) * sigma.matrix + t * direction, policy=policy
        )
        if float(np.real(np.trace(gap_operator @ mixed.matrix))) >= -policy.tie_tol:
            continue
        if 1.0 - fidelity(rho, mixed, policy=policy) <= base_distance + budget:
            return mixed
    return sigma


def compute_optimal_bound(
    classifier: Classifier,
    state,
    label: int | None = None,
    *,
    options: VerifyOptions | None = None,
) -> OptimalBound:
    """Optimal robust bound delta = min over rival classes of the class-flip
    distance, each computed by the sqrt-fidelity block SDP.

    A rival class whose flip constraint is infeasible (its gap operator is
    positive definite) contributes an unbounded radius; when every rival is
    unreachable the state is robust at every eps < 1.  A rival already
    tied at rho contributes delta 0 with rho itself as the witness.
    """
    opts = options or VerifyOptions()
    policy = opts.policy
    rho = pure_to_density(state, policy=policy) if isinstance(state, PureState) else state
    _, label = _classification_for_label(classifier, rho, label, policy)

    sdp_opts = opts.solver_options()
    identity = np.eye(classifier.dim, dtype=complex)
    per_class: dict = {}
    best = None  # (delta_k, k, sigma_k, gap_operator)
    solves = 0
    iterations = 0
    for k in range(classifier.n_classes):
        if k == label:
            continue
        gap = classifier.class_gap_operator(label, k)
        if float(np.linalg.eigvalsh(gap)[0]) > 0.0:
            per_class[k] = None  # class unreachable by any state
            continue
        if float(np.real(np.trace(gap @ rho.matrix))) <= 0.0:
            # Tied at rho already: the SDP would only add solver noise.
            delta_k, sigma_k = 0.0, rho.matrix
        else:
            problem = sqrt_fidelity_sdp(
                rho, [(identity, EQ, 1.0), (gap, LE, 0.0)], policy=policy
            )
            solution = _solve_with_retry(problem, sdp_opts)
            solves += 1
            iterations += solution.iterations
            sqrt_f, sigma_k = extract_fidelity_solution(problem, solution.X)
            delta_k = min(max(1.0 - sqrt_f * sqrt_f, 0.0), 1.0)
        per_class[k] = delta_k
        if best is None or delta_k < best[0]:
            best = (delta_k, k, sigma_k, gap)

    if best is None:
        return OptimalBound(
            delta=None, unbounded=True, argmin_class=None, sigma_star=None,
            per_class=per_class, sdp_solves=solves, sdp_iterations=iterations,
        )
    delta, k_star, sigma_raw, gap = best
    sigma_star = project_to_density(sigma_raw, policy=policy)
    sigma_star = _polish_witness(gap, sigma_star, rho, budget=1e-6, policy=policy)
    return OptimalBound(
        delta=delta, unbounded=False, argmin_class=k_star, sigma_star=sigma_star,
        per_class=per_class, sdp_solves=solves, sdp_iterations=iterations,
    )


def check_epsilon_robust(
    classifier: Classifier,
    state,
    label: int | None,
    eps: float,
    *,
    options: VerifyOptions | None = None,
) -> RobustnessCheck:
    """eps-robustness decision by thresholding the optimal bound.

    The state is robust iff ``eps <= delta``; a rival class is feasible
    when its own bound lies below eps.  A non-robust state carries the
    optimal witness ``sigma_star`` at distance delta.
    """
    eps = _require_epsilon(eps)
    bound = compute_optimal_bound(classifier, state, label, options=options)
    per_class = {
        k: delta_k is not None and delta_k < eps
        for k, delta_k in bound.per_class.items()
    }
    witness = None
    if not bound.robust_at(eps):
        witness = AdversarialWitness(bound.sigma_star, bound.argmin_class, bound.delta)
    return RobustnessCheck(robust=witness is None, witness=witness,
                           per_class_feasible=per_class,
                           sdp_solves=bound.sdp_solves)


# ---------------------------------------------------------------------------
# Pure-state witnesses


def _bloch_coefficients(h: np.ndarray) -> np.ndarray:
    """(h_x, h_y, h_z) with 2x2 Hermitian h = h_0 I + h_x X + h_y Y + h_z Z."""
    return np.array([h[0, 1].real, -h[0, 1].imag, 0.5 * (h[0, 0] - h[1, 1]).real])


def _pure_witness(
    classifier: Classifier, label: int, bound: OptimalBound, psi: PureState,
    policy: NumericPolicy,
) -> PureState:
    """Pure phi with the same |<phi|psi>|^2 and <phi|gap|phi> as sigma_star.

    ``gap`` is the gap operator of the bound's rival class, so phi sits at
    the bound's distance and on the same side of the decision boundary.
    sigma_star's eigenvectors are merged two at a time.  Within span{phi, u_j}
    the mixture of phi and u_j has a Bloch vector r inside the ball, and
    both expectation values are affine in r with coefficient vectors
    h_psi and h_gap.  Moving r to the sphere along a direction orthogonal
    to both (h_psi x h_gap, or any such direction when they are parallel)
    keeps the two values and makes the merged state pure.
    """
    gap = classifier.class_gap_operator(label, bound.argmin_class)
    weights, vectors = np.linalg.eigh(bound.sigma_star.matrix)
    order = np.argsort(weights)[::-1]
    phi = vectors[:, order[0]]
    mass = float(weights[order[0]])
    for j in order[1:]:
        weight = float(weights[j])
        if weight <= 0.0:
            break
        u = vectors[:, j]
        basis = np.column_stack([phi, u])
        c = basis.conj().T @ psi.amplitudes
        h_psi = _bloch_coefficients(np.outer(c, c.conj()))
        h_gap = _bloch_coefficients(basis.conj().T @ gap @ basis)
        direction = np.linalg.svd(np.vstack([h_psi, h_gap]))[2][-1]
        z = (mass - weight) / (mass + weight)  # r = (0, 0, z) in this basis
        along = z * direction[2]
        step = -along + np.sqrt(along * along + 1.0 - z * z)
        x, y, z = np.array([0.0, 0.0, z]) + step * direction
        half = 0.5 * np.arccos(np.clip(z, -1.0, 1.0))
        phi = np.cos(half) * phi + np.exp(1j * np.arctan2(y, x)) * np.sin(half) * u
        mass += weight
    return PureState(phi / np.linalg.norm(phi), policy=policy)


def pure_state_optimal_bound(
    classifier: Classifier,
    psi: PureState,
    label: int | None = None,
    *,
    options: VerifyOptions | None = None,
) -> PureBound:
    """Optimal robust bound against pure-state adversaries.

    For pure psi the fidelity ``<psi|sigma|psi>`` is linear in sigma and
    the joint numerical range of two Hermitian forms is convex
    (Toeplitz-Hausdorff), so the pure-state bound equals the mixed bound
    of :func:`compute_optimal_bound`.  Its witness is turned into a pure
    state at the same distance and on the same side of the decision
    boundary.
    """
    if not isinstance(psi, PureState):
        psi = PureState(psi)
    opts = options or VerifyOptions()
    policy = opts.policy
    _, label = _classification_for_label(classifier, psi, label, policy)
    bound = compute_optimal_bound(classifier, psi, label, options=opts)
    phi_star = None
    if not bound.unbounded:
        phi_star = _pure_witness(classifier, label, bound, psi, policy)
    return PureBound(status="ok", delta=bound.delta, unbounded=bound.unbounded,
                     argmin_class=bound.argmin_class, phi_star=phi_star,
                     per_class=bound.per_class)


# ---------------------------------------------------------------------------
# Dataset drivers


@dataclass(frozen=True)
class StateVerdict:
    """Outcome of verifying one dataset entry."""

    index: int
    label: int
    predicted: int
    correct: bool
    margin: float
    tie: bool
    margin_certified: bool
    status: str  # ok | misclassified | solver_failure
    delta: float | None = None
    delta_unbounded: bool = False
    robust: bool | None = None
    adversarial_class: int | None = None
    adversarial_distance: float | None = None


@dataclass
class VerificationReport:
    epsilon: float
    mode: str
    n_states: int
    n_correct: int
    accuracy: float
    robust_accuracy: float
    under_approx_robust_accuracy: float
    verdicts: list
    adversarial: list
    timings: dict
    solver_stats: dict
    warnings: list = field(default_factory=list)
    seed: int = 0

    @property
    def adversarial_count(self) -> int:
        return len(self.adversarial)


def under_robust_accuracy(
    classifier: Classifier,
    dataset: LabeledDataset,
    eps: float,
    *,
    policy: NumericPolicy = DEFAULT_POLICY,
) -> float:
    """Margin-only under-approximation of the robust accuracy.

    Counts every entry whose margin fails the certificate as potentially
    non-robust; no semidefinite programs are solved, so this scales to
    large datasets at classification cost.
    """
    eps = _require_epsilon(eps)
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    threshold = np.sqrt(2.0 * eps)
    flagged = sum(
        1
        for state, _label in dataset
        if classify(classifier, state, policy=policy).margin <= threshold
    )
    return 1.0 - flagged / len(dataset)


def verify_dataset(
    classifier: Classifier,
    dataset: LabeledDataset,
    eps: float,
    *,
    options: VerifyOptions | None = None,
) -> VerificationReport:
    """Filter-then-solve robustness verification of a labeled dataset.

    Every entry is classified once; misclassified entries are recorded as
    correctness failures and skipped.  Entries whose margin passes the
    certificate are robust with no further work; the rest get the exact
    bound, and each non-robust entry contributes its witness to the
    adversarial set R.  Robust accuracy is ``1 - |R| / |T|``.

    Per-entry solver failures never abort the batch: the entry is flagged
    and a warning recorded, leaving the rest of the report actionable.
    """
    eps = _require_epsilon(eps)
    opts = options or VerifyOptions()
    policy = opts.policy
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    dataset.check_compatible(classifier)

    t_start = time.perf_counter()
    threshold = np.sqrt(2.0 * eps)
    outcomes = [classify(classifier, state, policy=policy) for state, _ in dataset]
    t_margin = time.perf_counter() - t_start

    n = len(dataset)
    n_correct = sum(
        1 for (s, label), c in zip(dataset, outcomes) if c.label_index == label
    )
    accuracy_value = n_correct / n
    flagged_all = sum(1 for c in outcomes if c.margin <= threshold)
    ura = 1.0 - flagged_all / n

    warnings_list = []
    if accuracy_value < WELL_TRAINED_THRESHOLD:
        warnings_list.append(
            f"classifier accuracy {accuracy_value:.4f} is below the "
            f"well-trained threshold {WELL_TRAINED_THRESHOLD}; verdicts are "
            "still exact but the classifier may be undertrained"
        )

    jobs = []
    verdicts: list[StateVerdict | None] = [None] * n
    for i, ((state, label), outcome) in enumerate(zip(dataset, outcomes)):
        base = dict(
            index=i,
            label=label,
            predicted=outcome.label_index,
            correct=outcome.label_index == label,
            margin=outcome.margin,
            tie=outcome.tie,
            margin_certified=False,
        )
        if outcome.label_index != label:
            verdicts[i] = StateVerdict(status="misclassified", **base)
        elif outcome.margin > threshold:
            verdicts[i] = StateVerdict(
                status="ok", robust=True, **{**base, "margin_certified": True}
            )
        else:
            jobs.append((i, state, label, base))

    t_sdp_start = time.perf_counter()
    solver_stats = {"sdp_solves": 0, "sdp_iterations": 0, "failures": 0}
    adversarial: list[AdversarialWitness] = []
    for i, state, label, base in jobs:
        try:
            bound = compute_optimal_bound(classifier, state, label, options=opts)
        except SolverFailure as exc:
            solver_stats["failures"] += 1
            warnings_list.append(f"state {i}: {exc}")
            verdicts[i] = StateVerdict(status="solver_failure", **base)
            continue
        solver_stats["sdp_solves"] += bound.sdp_solves
        solver_stats["sdp_iterations"] += bound.sdp_iterations
        robust = bound.robust_at(eps)
        witness = None
        if not robust:
            sigma = bound.sigma_star
            if opts.mode == PURE and isinstance(state, PureState):
                sigma = _pure_witness(classifier, label, bound, state, policy)
            witness = AdversarialWitness(
                sigma, bound.argmin_class, bound.delta, source_index=i
            )
            if opts.collect_adversarial:
                adversarial.append(witness)
        verdicts[i] = StateVerdict(
            status="ok",
            delta=bound.delta,
            delta_unbounded=bound.unbounded,
            robust=robust,
            adversarial_class=witness.target_class if witness else None,
            adversarial_distance=witness.distance if witness else None,
            **base,
        )

    non_robust = sum(1 for v in verdicts if v is not None and v.robust is False)
    t_sdp = time.perf_counter() - t_sdp_start
    total = time.perf_counter() - t_start

    return VerificationReport(
        epsilon=eps,
        mode=opts.mode,
        n_states=n,
        n_correct=n_correct,
        accuracy=accuracy_value,
        robust_accuracy=1.0 - non_robust / n,
        under_approx_robust_accuracy=ura,
        verdicts=verdicts,
        adversarial=adversarial,
        timings={
            "margin_seconds": t_margin,
            "exact_seconds": t_sdp,
            "total_seconds": total,
        },
        solver_stats=solver_stats,
        warnings=warnings_list,
        seed=opts.seed,
    )
