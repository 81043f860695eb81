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
  ``1/4 B^-1 rho B^-1`` with ``B = mu I + lambda A``.  It is built only
  where a radius finds the state not robust, for the rival that sets delta,
  at a second root just past the optimum, strictly inside the rival class;
  its measured distance closes the interval;
* witnesses in the input's form: for pure rho the pure-state bound
  equals delta (the joint numerical range of two Hermitian forms is
  convex, Toeplitz-Hausdorff), so a pure entry's witness is the pure
  state ``C psi`` and a mixed entry's is sigma*;
* a dataset driver that classifies the whole dataset in one contraction,
  filters with the margin bound and falls back to the exact bound only
  where the filter is inconclusive, collecting adversarial examples
  along the way.  delta does not depend on epsilon, so one pass serves a
  whole table of radii: each entry gets at most one bound, taken at the
  largest radius, and every radius thresholds it.

Misclassified dataset entries are a correctness failure, not a
robustness failure: they are excluded from robustness verdicts and
reported separately, while the robust-accuracy denominator stays the
full dataset size.
"""

from __future__ import annotations

import functools
import time
from typing import NamedTuple

import numpy as np

from .classifiers import (
    BatchClassification,
    Classifier,
    LabeledDataset,
    WELL_TRAINED_THRESHOLD,
    check_state,
    classify,
    classify_batch,
)
from .config import GAP_ROUNDING, TIE_TOL, check_epsilon, check_label
from .errors import MisclassifiedInput, ValidationError
from .states import DensityMatrix, PureState, fidelity

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
    the density matrix ``sigma*``; None when unbounded or never reported.
    """

    delta: float | None  # None encodes an unbounded radius
    unbounded: bool
    argmin_class: int | None
    witness: PureState | DensityMatrix | None
    per_class: dict
    witness_distance: float | None = None
    shifts: list | tuple = ()  # per class: w of its dual value, or None

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
    """One state's margin certificate (:meth:`BatchClassification.certified`)."""
    eps = check_epsilon(eps)
    return bool(classify_batch(classifier, [state]).certified(eps)[0])


def _curve(w: float | None, a: np.ndarray, r: np.ndarray):
    """``c = 1 / (w + a - a_0)`` (ones for None, the curve's end at rho), ``r c^2``,
    ``Q = sum r c^2`` and ``psi = sum a r c^2 / Q`` on the dual curve at shift w."""
    c = np.ones_like(a) if w is None else 1.0 / (w + (a - a[0]))
    rc2 = r * c * c
    q = float(rc2.sum())
    return c, rc2, q, float(a @ rc2) / q


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
    d = a - a[0]
    w_min = 1e-12 * float(d[-1])

    def psi_and_slope(w: float) -> tuple[float, float]:
        c, rc2, q, psi = _curve(w, a, r)
        slope = -2.0 * w * float((rc2 * c) @ (a - psi)) / q  # d psi / d log w
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
    ``1 - m``; m is 0 where psi is within rounding of a target that a
    repeated ``a_min`` reaches (m = 1 would keep v_0 alone of its
    eigenspace).  Its phase is a quarter turn from the first column's v_0
    entry, so for pure rho the sum of the columns is a pure witness with the
    same ``|<v_i|phi>|^2`` and the same overlap with rho.  Taking ``r`` and W
    from the factor keeps rounding noise on the lowest eigenspace quadratic,
    so ``C`` cannot blow it up.
    """
    flip = 2.0 * TIE_TOL
    for target in (-flip, 0.0) if a[0] < -flip else (0.0,):
        at = _dual_ratio(a, r, target) if target and w is not None else w
        c, _, q, psi = _curve(at, a, r)
        repeated = a[0] >= target and np.count_nonzero(a == a[0]) > 1
        floor = GAP_ROUNDING * len(a) * (a[-1] - a[0]) if repeated else 0.0
        m = (psi - target) / (psi - float(a[0])) if psi - target > floor else 0.0
        if 1.0 - (1.0 - m) * float(r @ c) ** 2 / q <= delta + WITNESS_BUDGET:
            break
    x = c[:, None] * factor * np.sqrt((1.0 - m) / q)
    kernel = np.zeros((len(a), 1), dtype=complex)
    kernel[0, 0] = 1j * np.sqrt(m) * np.exp(1j * np.angle(x[0, 0]))
    return np.hstack([x, kernel])


def _rotate(classifier: Classifier, root: np.ndarray, label: int, k: int):
    """rho's factor ``F = V^dag root`` in the gap eigenbasis of rival ``k``
    (``V^dag rho V = F F^dag``) and the weights ``r_i = <v_i|rho|v_i>``."""
    factor = classifier.gap_spectrum(label, k)[1].conj().T @ root
    return factor, (np.abs(factor) ** 2).sum(axis=1)


def bound_at(classifier: Classifier, weights, label: int, shifts) -> OptimalBound:
    """The bound, with no witness, that ``shifts`` (one per class; the label's
    is ignored) certify: each rival's radius at its shift, delta the least
    (set by the lowest rival on a tie), unbounded if none is finite.  A shift
    w > 0 gives the dual value at w for the weights ``weights(k)`` (see
    :func:`_rotate`), asked for nothing else; a null shift gives None
    (unbounded) for an unreachable rival, else 0 (tied)."""
    per_class, rival = {}, None
    for k, w in enumerate(shifts):
        if k == label:
            continue
        a = classifier.gap_spectrum(label, k)[0]
        if w is None:
            per_class[k] = None if a[0] > 0.0 else 0.0
        else:
            per_class[k] = _dual_value(w, a, weights(k))
        if per_class[k] is not None and (rival is None or per_class[k] < per_class[rival]):
            rival = k
    return OptimalBound(delta=None if rival is None else per_class[rival],
                        unbounded=rival is None, argmin_class=rival, witness=None,
                        per_class=per_class, shifts=shifts)


def compute_optimal_bound(
    classifier: Classifier, state, label: int | None = None, *, eps: float = np.inf
) -> OptimalBound:
    """Optimal robust bound delta = min over rival classes of the class-flip
    distance, each from the two-multiplier fidelity dual, with a witness only
    if the state is not ``eps``-robust (by default, whenever delta is bounded).

    A rival class whose flip constraint is infeasible (its gap operator is
    positive definite past ``TIE_TOL``) has an unbounded radius; when every rival is
    unreachable the state is robust at every eps < 1.  A rival already
    tied at rho contributes delta 0 with no solve.  The witness is the
    pure state ``phi*`` for a pure input and ``sigma*`` for a mixed one, and
    its distance ``1 - F`` is measured on the state returned, as
    ``qrv recheck`` measures it from the saved file.  With no ``label`` the
    state is classified; a stated one must pass ``config.check_label`` and
    name a class.  A rival ahead of it (``tr(A rho) = p_label - p_k < 0``) by more
    than ``TIE_TOL`` raises :class:`MisclassifiedInput`, and one ahead by
    less is tied, as batch classification flags it.
    """
    n = classifier.n_classes
    check_state(state, classifier.dim)
    label = (classify(classifier, state).label_index if label is None
             else check_label(label, n_classes=n))

    shifts = [None] * n  # None: the label, an unreachable or a tied rival
    rotated = {}  # rival -> rho's factor in its gap eigenbasis, and r
    for k in range(n):
        if k == label:
            continue
        a = classifier.gap_spectrum(label, k)[0]
        if a[0] > 0.0:
            continue  # class unreachable by any state
        _, r = rotated[k] = _rotate(classifier, state.factor, label, k)
        if (gap := float(a @ r)) < -TIE_TOL:
            raise MisclassifiedInput(f"class {k} is ahead of the stated label {label} by "
                                     f"{-gap:.3e}; a misclassified state has no radius")
        if gap > 0.0:
            shifts[k] = _dual_ratio(a, r)
    bound = bound_at(classifier, lambda k: rotated[k][1], label, shifts)
    if bound.robust_at(eps):
        return bound  # unbounded, or no witness asked for
    k_star, delta = bound.argmin_class, bound.delta
    a, vectors = classifier.gap_spectrum(label, k_star)
    factor, r = rotated[k_star]
    factor = vectors @ _witness_factor(a, r, factor, shifts[k_star], delta)  # sigma* = FF^dag
    witness = (PureState(factor.sum(axis=1)) if isinstance(state, PureState)  # unit norm
               else DensityMatrix(factor @ factor.conj().T))
    return bound._replace(witness=witness,
                          witness_distance=1.0 - fidelity(state, witness))


def check_epsilon_robust(
    classifier: Classifier, state, label: int | None, eps: float
) -> RobustnessCheck:
    """eps-robustness decision by thresholding the optimal bound.

    The state is robust iff ``eps <= delta``, and then no witness is built;
    a non-robust state carries the bound's witness at its measured distance:
    a pure state for a pure input, a density matrix for a mixed one.
    """
    eps = check_epsilon(eps)
    bound = compute_optimal_bound(classifier, state, label, eps=eps)
    witness = None if bound.robust_at(eps) else AdversarialWitness(
        bound.witness, bound.argmin_class, bound.witness_distance)
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
    boundary.  That argument needs a pure psi, so other inputs are refused.
    ``options`` is accepted for call compatibility and unused: no settings.
    """
    if not isinstance(psi, PureState):
        raise ValidationError(f"psi must be a PureState, got {type(psi).__name__}")
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
    """The dataset's URA (:meth:`BatchClassification.under_approx`): one
    batched classification and no bound, so it scales at classification cost."""
    eps = check_epsilon(eps)
    dataset.check_compatible(classifier)
    states = [state for state, _label in dataset]
    return classify_batch(classifier, states).under_approx(eps)


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
    gets one exact bound, shared by every radius (and built with its witness
    only if that radius finds it not robust).

    Timings: ``margin_seconds`` is the shared classification;
    ``exact_seconds`` sums the bound times (witness included) of the entries
    exact at that radius, so it does not decrease as the radius grows;
    ``total_seconds`` is their sum.
    """
    epsilons = [check_epsilon(eps) for eps in epsilons]
    if not epsilons:
        raise ValidationError("at least one epsilon is required")
    opts = options or VerifyOptions()
    dataset.check_compatible(classifier)

    t_start = time.perf_counter()
    states, labels = zip(*dataset)
    batch = classify_batch(classifier, states)
    t_margin = time.perf_counter() - t_start

    @functools.cache
    def exact(i: int) -> tuple[OptimalBound, float]:
        t0 = time.perf_counter()
        bound = compute_optimal_bound(classifier, states[i], labels[i], eps=max(epsilons))
        return bound, time.perf_counter() - t0

    return assemble_reports(batch, labels, epsilons, exact, t_margin, opts.seed)


def assemble_reports(batch: BatchClassification, labels, epsilons, exact, t_margin: float,
                     seed: int) -> list[VerificationReport]:
    """The reports of :func:`verify_epsilons`, one per radius in
    ``epsilons``, from the classification ``batch`` of a dataset with
    ``labels``: its verdicts, totals and warnings.  ``exact(i)`` gives entry
    i's :class:`OptimalBound` (a witness if a radius needs one) and seconds;
    it is asked only for the correct entries the margin leaves undecided.
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
        certified = batch.certified(eps)
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
            solves += len(bound.shifts) - bound.shifts.count(None)  # null: no solve
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
                dual_shifts=bound.shifts,
                **base,
            ))
        reports.append(VerificationReport(
            epsilon=eps,
            n_states=n,
            n_correct=n_correct,
            accuracy=accuracy_value,
            robust_accuracy=1.0 - len(adversarial) / n,
            under_approx_robust_accuracy=batch.under_approx(eps),
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
