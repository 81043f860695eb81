"""Robustness verification of quantum classifiers.

A state rho with correct label l is epsilon-robust when no state sigma
with ``1 - F(rho, sigma) <= epsilon`` is classified away from l.  The
verification stack:

* a margin bound: ``sqrt(p_1) - sqrt(p_2) > sqrt(2 epsilon)`` certifies
  robustness from the outcome probabilities alone;
* the optimal robust bound ``delta``: for every rival class k, the least
  ``1 - F(rho, sigma)`` over states satisfying the class-flip constraint
  ``tr(A sigma) <= 0``, with ``A = N_l - N_k`` the class gap operator in
  the Heisenberg picture; rho is epsilon-robust iff ``epsilon <= delta``.
  It is computed from the exact two-multiplier dual of that program
  (Alberti's variational form of the fidelity): with ``(a_i, v_i)`` the
  eigenpairs of A and ``r_i = <v_i|rho|v_i>``,
  ``sqrt(F*) = min_{lambda >= 0, mu} mu + 1/4 sum_i r_i / (mu + lambda a_i)``.
  One cached ``eigh`` per gap operator plus one root search w per state
  and rival gives delta_k as the dual value at w (a sound lower bound by
  weak duality, which ``qrv recheck`` recomputes from the recorded w).
  The witness comes in closed form from the same dual curve ``sigma(u) =
  C rho C / tr(C rho C)``, ``C = (u I + A)^-1``: at the optimum it is
  ``1/4 B^-1 rho B^-1`` with ``B = mu I + lambda A``.  It is built once
  per bound, for the rival that sets delta, at a second root just past
  the optimum, strictly inside the rival class; its measured distance
  closes the interval;
* witnesses in the input's form: for pure rho the pure-state bound
  equals delta (the joint numerical range of two Hermitian forms is
  convex, Toeplitz-Hausdorff), so a pure entry's witness is the pure
  state ``C psi`` and a mixed entry's is sigma*;
* a dataset driver that classifies the whole dataset in one contraction,
  filters with the margin bound and falls back to the exact bound only
  where the filter is inconclusive, collecting adversarial examples
  along the way.  delta does not depend on epsilon, so one pass serves a
  whole table of radii: each entry gets at most one bound, and every
  radius thresholds it.

Misclassified dataset entries are a correctness failure, not a
robustness failure: they are excluded from robustness verdicts and
reported separately, while the robust-accuracy denominator stays the
full dataset size.
"""

from __future__ import annotations

import functools
import time
from collections.abc import Mapping
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

from .classifiers import (
    BatchClassification,
    Classifier,
    LabeledDataset,
    WELL_TRAINED_THRESHOLD,
    classify,
    classify_batch,
)
from .config import TIE_TOL
from .errors import MisclassifiedInput, ValidationError
from .states import DensityMatrix, PureState, _factor_sqrt_fidelity, _state_factor

__all__ = [
    "VerifyOptions",
    "AdversarialWitness",
    "OptimalBound",
    "RobustnessCheck",
    "PureBound",
    "StateVerdict",
    "VerificationReport",
    "margin_robust_bound",
    "bound_at",
    "compute_optimal_bound",
    "check_epsilon_robust",
    "pure_state_optimal_bound",
    "verify_epsilons",
    "assemble_reports",
    "verify_dataset",
    "under_robust_accuracy",
]

def _require_epsilon(eps: float) -> float:
    eps = float(eps)
    if not 0.0 < eps < 1.0:
        raise ValidationError(f"epsilon must lie strictly between 0 and 1, got {eps}")
    return eps


class VerifyOptions(NamedTuple):
    """Settings of the dataset driver :func:`verify_epsilons`."""

    seed: int = 0  # recorded in reports; no computation draws on it


class AdversarialWitness(NamedTuple):
    """An extracted adversarial example."""

    sigma: DensityMatrix | PureState
    target_class: int
    distance: float  # 1 - F(rho, sigma)
    source_index: int | None = None


class OptimalBound(NamedTuple):
    """Largest radius with no adversarial example, plus its witness.

    ``delta`` is the dual value, a lower bound on the true radius;
    ``witness_distance`` is the measured ``1 - F`` of ``witness``, an upper
    bound, so the true radius lies in between.  The witness takes the
    input's form: the pure state ``phi* = C psi`` for a pure input psi, else
    the density matrix ``sigma*``; None when the radius is unbounded.
    """

    delta: float | None  # None encodes an unbounded radius
    unbounded: bool
    argmin_class: int | None
    witness: PureState | DensityMatrix | None
    per_class: dict
    witness_distance: float | None = None
    shifts: Mapping = MappingProxyType({})  # rival -> w of its dual value or None

    def robust_at(self, eps: float) -> bool:
        return self.unbounded or eps <= self.delta


class RobustnessCheck(NamedTuple):
    robust: bool
    witness: AdversarialWitness | None


class PureBound(NamedTuple):
    """Optimal robust bound against pure-state adversaries.

    ``delta`` equals the mixed-state bound and ``phi_star`` is a pure
    state at that distance; ``status`` is always ``ok``.
    """

    status: str
    delta: float | None
    unbounded: bool
    phi_star: PureState | None


def margin_robust_bound(classifier: Classifier, state, eps: float) -> bool:
    """Margin certificate: sqrt(p_1) - sqrt(p_2) > sqrt(2 eps).

    True certifies eps-robustness; False is inconclusive, not a
    counterexample.
    """
    eps = _require_epsilon(eps)
    outcome = classify(classifier, state)
    return outcome.margin > np.sqrt(2.0 * eps)


def _label_for(classifier: Classifier, state, label: int | None) -> int:
    """The predicted label, checked against ``label`` when one is stated."""
    predicted = classify(classifier, state).label_index
    if label is None:
        return predicted
    if predicted != label:
        raise MisclassifiedInput(
            f"state is classified as {predicted}, not the stated "
            f"label {label}; robustness of a misclassified state is undefined"
        )
    return int(label)


def _dual_ratio(a: np.ndarray, r: np.ndarray, target: float = 0.0) -> float:
    """Ratio ``w = mu / lambda + a_min`` on the dual curve where ``psi = target``.

    For a fixed ratio ``u = mu / lambda`` the best lambda is
    ``sqrt(S / u) / 2`` with ``S(u) = sum_i r_i / (u + a_i)``, which
    leaves the dual value ``sqrt(u S(u))``; so ``F* = min u S(u)`` over
    ``u > -a_min``.  Its stationarity condition is
    ``psi(u) = sum r a c^2 / sum r c^2 = 0`` with ``c = 1 / (u + a)``:
    psi is ``tr(A sigma)`` of the normalized candidate witness, and it
    increases with u towards ``tr(A rho) > 0``.  The root of
    ``psi = target`` is found by Newton steps in ``log w``, safeguarded by
    bisection on a bracket.  When psi is already >= target at the smallest
    admissible w (for target 0: rho has no weight on A's lowest
    eigenspace, so ``B`` is singular at the optimum), that w is returned.
    Any w > 0 yields a sound dual value; the root only makes it tight.
    """
    d = a - a[0]  # u + a_i = w + d_i, free of cancellation
    w_min = 1e-12 * float(d[-1])

    def psi_and_slope(w: float) -> tuple[float, float]:
        c = 1.0 / (w + d)
        rc2 = r * c * c
        den = float(rc2.sum())
        psi = float(a @ rc2) / den
        slope = -2.0 * w * float((rc2 * c) @ (a - psi)) / den  # d psi / d log w
        return psi - target, slope

    if psi_and_slope(w_min)[0] >= 0.0:
        return w_min
    lo, hi = np.log(w_min), np.log(float(d[-1]))
    while psi_and_slope(np.exp(hi))[0] <= 0.0 and hi < 700.0:
        hi += np.log(16.0)
    x = hi
    for _ in range(200):
        w = float(np.exp(x))
        psi, slope = psi_and_slope(w)
        if psi < 0.0:
            lo = x
        elif psi > 0.0:
            hi = x
        else:
            break
        step = x - psi / slope if slope > 0.0 else np.nan
        if not lo < step < hi:
            step = 0.5 * (lo + hi)
        converged = abs(step - x) * w <= 1e-15 * (w - float(a[0])) or hi - lo <= 1e-15
        x = step
        if converged:
            break
    return float(np.exp(x))


# A witness pushed strictly inside the rival class may lie this far beyond
# delta; a dearer one is replaced by the boundary witness.
WITNESS_BUDGET = 1e-6


def _dual_value(w: float, a: np.ndarray, r: np.ndarray) -> float:
    """Dual value ``1 - (w - a_0) sum_i r_i / (w + a_i - a_0)`` in [0, 1] at
    the shift ``w = mu / lambda + a_0``: for any w > 0 a lower bound on the
    class-flip distance by weak duality, tight at the root of psi."""
    value = 1.0 - (w - float(a[0])) * float(r @ (1.0 / (w + (a - a[0]))))
    return min(max(value, 0.0), 1.0)


def _witness_factor(
    a: np.ndarray, r: np.ndarray, factor: np.ndarray, w: float | None, delta: float
) -> np.ndarray:
    """A factor ``W`` of the witness, ``sigma* = W W^dag``, in the eigenbasis
    of the gap eigenvalues ``a`` of the rival that sets ``delta``, from
    rho's ``factor`` there (``V^dag rho V = factor factor^dag``, ``r`` its
    squared row norms) and delta's root ``w`` (None when rho is tied).

    The witness lies on the dual curve ``C rho C / Q``, ``C = (u I + A)^-1``,
    ``Q = tr(C rho C)`` (tending to rho as u grows, the curve of a tied rho):
    ``W = C factor / sqrt(Q)`` has fidelity ``S^2 / Q`` and, as
    ``u Q = S - psi Q``, distance ``1 - u S - psi S <= delta - psi S``.  It
    is taken where ``psi = -2 TIE_TOL``, strictly inside the rival class,
    when ``a_min`` lies below that and it costs at most ``WITNESS_BUDGET``
    beyond delta; else at ``w``, where ``psi = 0``.  When psi cannot reach
    the target (the ratio is clamped: rho does not weigh the lowest
    eigenvector ``v_0``), a column ``sqrt(m) v_0``, ``m = (psi - target) /
    (psi - a_min)``, brings ``tr(A sigma)`` onto it and scales F by
    ``1 - m``.  Its phase is a quarter turn from the first column's v_0
    entry, so for pure rho the sum of the columns is a pure witness with
    the same ``|<v_i|phi>|^2`` and the same overlap with rho.  Taking ``r``
    and W from the factor keeps rounding noise on the lowest eigenspace
    quadratic, so ``C`` cannot blow it up.
    """
    flip = 2.0 * TIE_TOL
    d = a - a[0]
    for target in (-flip, 0.0) if a[0] < -flip else (0.0,):
        c = np.ones_like(d) if w is None else (
            1.0 / ((_dual_ratio(a, r, target) if target else w) + d))
        rc2 = r * c * c
        q = float(rc2.sum())
        psi = float(a @ rc2) / q
        m = (psi - target) / (psi - float(a[0])) if psi > target else 0.0
        if 1.0 - (1.0 - m) * float(r @ c) ** 2 / q <= delta + WITNESS_BUDGET:
            break
    x = c[:, None] * factor * np.sqrt((1.0 - m) / q)
    kernel = np.zeros((len(a), 1), dtype=complex)
    kernel[0, 0] = 1j * np.sqrt(m) * np.exp(1j * np.angle(x[0, 0]))
    return np.hstack([x, kernel])


def bound_at(classifier: Classifier, root, label: int, shifts) -> tuple[dict, int | None]:
    """Each rival's radius at its shift in ``shifts`` (one per class; the
    label's is ignored), and the rival that sets delta (the lowest on a tie,
    None if every radius is unbounded).  A shift w > 0 gives the dual value
    at w for the state with factor ``root``, read for nothing else; a null
    shift gives None (unbounded) for an unreachable rival, else 0 (tied)."""
    per_class, rival = {}, None
    for k, w in enumerate(shifts):
        if k == label:
            continue
        a, vectors = classifier.gap_spectrum(label, k)
        if w is None:
            per_class[k] = None if a[0] > 0.0 else 0.0
        else:
            r = (np.abs(vectors.conj().T @ root) ** 2).sum(axis=1)
            per_class[k] = _dual_value(w, a, r)
        if per_class[k] is not None and (rival is None or per_class[k] < per_class[rival]):
            rival = k
    return per_class, rival


def compute_optimal_bound(
    classifier: Classifier, state, label: int | None = None
) -> OptimalBound:
    """Optimal robust bound delta = min over rival classes of the class-flip
    distance, each from the two-multiplier fidelity dual.

    A rival class whose flip constraint is infeasible (its gap operator is
    positive definite) contributes an unbounded radius; when every rival is
    unreachable the state is robust at every eps < 1.  A rival already
    tied at rho contributes delta 0 with no solve.  The witness is the
    pure state ``phi*`` for a pure input and ``sigma*`` for a mixed one, and
    its distance ``1 - F`` is measured on its square-root factor, the one
    the dual built.
    """
    root = _state_factor(state)
    label = _label_for(classifier, state, label)

    shifts = [None] * classifier.n_classes  # None: unreachable or tied rival
    rotated = {}  # rival -> r and rho's factor in its gap eigenbasis
    for k in range(classifier.n_classes):
        if k == label:
            continue
        a, vectors = classifier.gap_spectrum(label, k)
        if a[0] > 0.0:
            continue  # class unreachable by any state
        factor = vectors.conj().T @ root  # V^dag rho V = factor factor^dag
        r = (np.abs(factor) ** 2).sum(axis=1)
        rotated[k] = r, factor
        if float(a @ r) > 0.0:
            shifts[k] = _dual_ratio(a, r)
    per_class, k_star = bound_at(classifier, root, label, shifts)
    shifts = {k: shifts[k] for k in per_class}

    if k_star is None:
        return OptimalBound(delta=None, unbounded=True, argmin_class=None, witness=None,
                            per_class=per_class, shifts=shifts)
    delta = per_class[k_star]
    a, vectors = classifier.gap_spectrum(label, k_star)
    r, factor = rotated[k_star]
    factor = vectors @ _witness_factor(a, r, factor, shifts[k_star], delta)  # sigma* = FF^dag
    if isinstance(state, PureState):
        witness = PureState(factor.sum(axis=1))  # unit norm already
        factor = witness.amplitudes[:, None]
    else:
        witness = DensityMatrix(factor @ factor.conj().T)
    distance = 1.0 - _factor_sqrt_fidelity(root, factor) ** 2
    return OptimalBound(delta=delta, unbounded=False, argmin_class=k_star, witness=witness,
                        per_class=per_class, witness_distance=distance, shifts=shifts)


def check_epsilon_robust(
    classifier: Classifier, state, label: int | None, eps: float
) -> RobustnessCheck:
    """eps-robustness decision by thresholding the optimal bound.

    The state is robust iff ``eps <= delta``; a non-robust state carries
    the bound's witness at its measured distance: a pure state for a pure
    input, a density matrix for a mixed one.
    """
    eps = _require_epsilon(eps)
    bound = compute_optimal_bound(classifier, state, label)
    witness = None
    if not bound.robust_at(eps):
        witness = AdversarialWitness(bound.witness, bound.argmin_class,
                                     bound.witness_distance)
    return RobustnessCheck(robust=witness is None, witness=witness)


# ---------------------------------------------------------------------------
# Pure-state witnesses


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
    of :func:`compute_optimal_bound`, and its pure witness ``phi_star``
    sits at the same distance and on the same side of the decision
    boundary.  ``options`` is accepted for call compatibility and unused:
    the bound has no settings.
    """
    if not isinstance(psi, PureState):
        psi = PureState(psi)
    bound = compute_optimal_bound(classifier, psi, label)
    return PureBound(status="ok", delta=bound.delta, unbounded=bound.unbounded,
                     phi_star=bound.witness)


# ---------------------------------------------------------------------------
# Dataset drivers


class StateVerdict(NamedTuple):
    """Outcome of verifying one dataset entry; its fields, in this order,
    are the keys of a report verdict.  The field ``index`` hides
    ``tuple.index``."""

    index: int
    label: int
    predicted: int
    correct: bool
    margin: float
    tie: bool
    margin_certified: bool
    status: str  # ok | misclassified
    delta: float | None = None
    delta_unbounded: bool = False
    robust: bool | None = None
    adversarial_class: int | None = None
    adversarial_distance: float | None = None
    dual_shifts: list | None = None  # per class, for exact verdicts only


class VerificationReport(NamedTuple):
    epsilon: float
    n_states: int
    n_correct: int
    accuracy: float
    robust_accuracy: float
    under_approx_robust_accuracy: float
    verdicts: list
    adversarial: list
    timings: dict
    solver_stats: dict
    warnings: list | tuple = ()  # of strings
    seed: int = 0

    @property
    def adversarial_count(self) -> int:
        return len(self.adversarial)


def under_robust_accuracy(
    classifier: Classifier, dataset: LabeledDataset, eps: float
) -> float:
    """Margin-only under-approximation of the robust accuracy.

    Counts every entry whose margin fails the certificate as potentially
    non-robust; no bound is solved and the dataset is classified in one
    batch, so this scales to large datasets at classification cost.
    """
    eps = _require_epsilon(eps)
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    states = [state for state, _label in dataset]
    margins = classify_batch(classifier, states).margins
    flagged = int(np.count_nonzero(margins <= np.sqrt(2.0 * eps)))
    return 1.0 - flagged / len(dataset)


def verify_epsilons(
    classifier: Classifier,
    dataset: LabeledDataset,
    epsilons,
    *,
    options: VerifyOptions | None = None,
) -> list[VerificationReport]:
    """Filter-then-solve robustness verification of a labeled dataset,
    one report per radius in ``epsilons``, in the order given.

    The dataset is classified once, in one batch; misclassified entries
    are recorded as correctness failures and skipped.  At each radius,
    entries whose margin passes the certificate are robust with no further
    work; the rest are robust iff ``eps <= delta``, and each non-robust
    entry contributes its witness to the adversarial set R.  Robust
    accuracy is ``1 - |R| / |T|``.  As delta does not depend on the radius,
    each correct entry the margin leaves undecided at the largest radius
    gets one exact bound, shared by every radius.

    Timings: ``margin_seconds`` is the shared classification;
    ``exact_seconds`` sums the bound times of the entries exact at that
    radius, the time a run at that radius alone would spend (so it does
    not decrease as the radius grows); ``total_seconds`` is their sum.
    """
    epsilons = [_require_epsilon(eps) for eps in epsilons]
    if not epsilons:
        raise ValidationError("at least one epsilon is required")
    opts = options or VerifyOptions()
    if len(dataset) == 0:
        raise ValidationError("dataset is empty")
    dataset.check_compatible(classifier)

    t_start = time.perf_counter()
    states, labels = zip(*dataset)
    batch = classify_batch(classifier, states)
    t_margin = time.perf_counter() - t_start

    @functools.cache
    def exact(i: int) -> tuple[OptimalBound, float]:
        t0 = time.perf_counter()
        bound = compute_optimal_bound(classifier, states[i], labels[i])
        return bound, time.perf_counter() - t0

    return assemble_reports(classifier, batch, labels, epsilons, exact, t_margin, opts.seed)


def assemble_reports(classifier: Classifier, batch: BatchClassification, labels, epsilons,
                     exact, t_margin: float, seed: int) -> list[VerificationReport]:
    """The reports of :func:`verify_epsilons`, one per radius in
    ``epsilons``, from the classification ``batch`` of a dataset with
    ``labels``: its verdicts, totals and warnings.  ``exact(i)`` gives entry
    i's :class:`OptimalBound` and the seconds it took; it is asked only for
    the correct entries the margin leaves undecided at some radius.
    """
    correct = batch.labels == labels
    n = len(labels)
    n_correct = int(np.count_nonzero(correct))
    accuracy_value = n_correct / n
    warnings_list = []
    if accuracy_value < WELL_TRAINED_THRESHOLD:
        warnings_list.append(
            f"classifier accuracy {accuracy_value:.4f} is below the "
            f"well-trained threshold {WELL_TRAINED_THRESHOLD}; verdicts are "
            "still exact but the classifier may be undertrained"
        )

    bases = [
        dict(index=i, label=label, predicted=int(batch.labels[i]),
             correct=bool(correct[i]), margin=float(batch.margins[i]),
             tie=bool(batch.ties[i]))
        for i, label in enumerate(labels)
    ]
    reports = []
    for eps in epsilons:
        certified = batch.margins > np.sqrt(2.0 * eps)
        verdicts, adversarial = [], []
        # "sdp_solves" counts dual bound solves; the key name is kept for
        # readers of saved reports.
        solves, t_exact = 0, 0.0
        for i, base in enumerate(bases):
            if not correct[i]:
                verdicts.append(StateVerdict(
                    margin_certified=False, status="misclassified", **base))
                continue
            if certified[i]:
                verdicts.append(StateVerdict(
                    margin_certified=True, status="ok", robust=True, **base))
                continue
            bound, seconds = exact(i)
            shifts = list(map(bound.shifts.get, range(classifier.n_classes)))
            solves += len(shifts) - shifts.count(None)  # a null shift took no solve
            t_exact += seconds
            robust = bound.robust_at(eps)
            if not robust:
                adversarial.append(AdversarialWitness(
                    bound.witness, bound.argmin_class, bound.witness_distance,
                    source_index=i))
            verdicts.append(StateVerdict(
                margin_certified=False, status="ok", delta=bound.delta,
                delta_unbounded=bound.unbounded, robust=robust,
                adversarial_class=None if robust else bound.argmin_class,
                adversarial_distance=None if robust else bound.witness_distance,
                dual_shifts=shifts,
                **base,
            ))
        reports.append(VerificationReport(
            epsilon=eps,
            n_states=n,
            n_correct=n_correct,
            accuracy=accuracy_value,
            robust_accuracy=1.0 - len(adversarial) / n,
            under_approx_robust_accuracy=1.0 - (n - int(np.count_nonzero(certified))) / n,
            verdicts=verdicts,
            adversarial=adversarial,
            timings={
                "margin_seconds": t_margin,
                "exact_seconds": t_exact,
                "total_seconds": t_margin + t_exact,
            },
            solver_stats={"sdp_solves": solves},
            warnings=list(warnings_list),
            seed=seed,
        ))
    return reports


def verify_dataset(
    classifier: Classifier, dataset: LabeledDataset, eps: float, *,
    options: VerifyOptions | None = None,
) -> VerificationReport:
    """:func:`verify_epsilons` at the single radius ``eps``: its one report."""
    return verify_epsilons(classifier, dataset, (eps,), options=options)[0]
