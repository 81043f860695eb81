"""The two-multiplier dual bound against the interior-point SDP oracle.

``compute_optimal_bound`` gets delta from the fidelity dual; the block SDP
of :mod:`sdp_oracle` solves the same program independently.  The property
suite covers pure, full-rank and rank-deficient states, gap operators
with a zero eigenvalue, and the singular case where the state has no
weight on the gap operator's lowest eigenspace.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qrv.verifier
from conftest import classified_instance
from qrv.channels import unitary_channel
from qrv.classifiers import Classifier, classify
from qrv.sampling import (
    random_classifier,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)
from qrv.config import TIE_TOL
from qrv.states import DensityMatrix, PureState, fidelity, pure_to_density
from qrv.verifier import compute_optimal_bound
from sdp_oracle import EQ, LE, extract_fidelity_solution, solve, sqrt_fidelity_sdp


def sdp_per_class(classifier, rho, label):
    """Rival class -> bound from the block SDP (None when unreachable)."""
    identity = np.eye(classifier.dim, dtype=complex)
    out = {}
    for k in range(classifier.n_classes):
        if k == label:
            continue
        gap = classifier.class_gap_operator(label, k)
        if np.linalg.eigvalsh(gap)[0] > 0.0:
            out[k] = None
        elif np.real(np.trace(gap @ rho.matrix)) <= 0.0:
            out[k] = 0.0
        else:
            problem = sqrt_fidelity_sdp(rho, [(identity, EQ, 1.0), (gap, LE, 0.0)])
            solution = solve(problem)
            assert solution.status == "optimal"
            sqrt_f, _ = extract_fidelity_solution(problem, solution.X)
            out[k] = 1.0 - sqrt_f * sqrt_f
    return out


def shared_block_classifier(dim, n_classes, rng):
    """Projective classes plus a block C shared equally by every class.

    Each effect is ``P_k + P_C / n``, so every gap operator ``P_l - P_k``
    has a zero eigenvalue on C (and on the other classes' blocks).
    """
    u = random_unitary(dim, rng)
    blocks = np.array_split(np.arange(dim), n_classes + 1)
    shared = u[:, blocks[-1]] @ u[:, blocks[-1]].conj().T
    effects = [u[:, b] @ u[:, b].conj().T + shared / n_classes for b in blocks[:-1]]
    return Classifier(effects), u, blocks


def draw_state(kind, dim, rng, support=None):
    if kind == "pure":
        return random_pure_state(dim, rng)
    if kind == "full":
        return random_density_matrix(dim, rng)
    if support is None:  # rank-deficient, random support
        return random_density_matrix(dim, rng, rank=max(1, dim // 2))
    # supported on the given columns only: no weight outside that span
    g = support @ random_density_matrix(support.shape[1], rng).matrix @ support.conj().T
    return DensityMatrix(g / np.real(np.trace(g)))


def check_witness(classifier, state, label, bound):
    assert type(bound.delta) is float
    assert type(bound.witness) is type(state)  # the witness takes the input's form
    # The dual value is a lower bound and the measured witness distance an
    # upper bound; 1e-9 absorbs rounding in the eigendecomposition fidelity.
    assert bound.delta - 1e-9 <= bound.witness_distance <= bound.delta + 1e-5
    assert bound.witness_distance == pytest.approx(
        1.0 - fidelity(state, bound.witness), abs=1e-12
    )
    if isinstance(state, PureState):
        overlap = abs(bound.witness.overlap(state)) ** 2
        assert bound.witness_distance == pytest.approx(1.0 - overlap, abs=1e-12)
    outcome = classify(classifier, bound.witness)
    assert outcome.label_index != label or outcome.tie


def check_against_oracle(classifier, state):
    label = classify(classifier, state).label_index
    rho = pure_to_density(state) if isinstance(state, PureState) else state
    bound = compute_optimal_bound(classifier, state, label)
    oracle = sdp_per_class(classifier, rho, label)
    assert set(bound.per_class) == set(oracle)
    for k, expected in oracle.items():
        if expected is None:
            assert bound.per_class[k] is None
        else:
            assert bound.per_class[k] == pytest.approx(expected, abs=1e-6)
    if bound.unbounded:
        assert all(v is None for v in oracle.values())
        return bound
    assert bound.delta == pytest.approx(
        min(v for v in oracle.values() if v is not None), abs=1e-6
    )
    check_witness(classifier, state, label, bound)
    return bound


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.sampled_from([2, 3, 4, 8]),
    n_classes=st.sampled_from([2, 3]),
    kind=st.sampled_from(["pure", "full", "rank_deficient"]),
    kraus_rank=st.sampled_from([1, 2]),
)
def test_dual_matches_sdp_random_classifiers(seed, dim, n_classes, kind, kraus_rank):
    rng = np.random.default_rng(seed)
    classifier = random_classifier(dim, rng, n_classes=n_classes, kraus_rank=kraus_rank)
    check_against_oracle(classifier, draw_state(kind, dim, rng))


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    dim=st.sampled_from([3, 4, 8]),
    n_classes=st.sampled_from([2, 3]),
    kind=st.sampled_from(["pure", "full", "rank_deficient", "aligned"]),
)
def test_dual_matches_sdp_zero_eigenvalue_gaps(seed, dim, n_classes, kind):
    # "aligned" states live on class 0's block plus the shared block, so
    # every rival's -1 eigenspace carries no weight: B is singular at the
    # optimum and the witness needs its kernel component.
    rng = np.random.default_rng(seed)
    classifier, u, blocks = shared_block_classifier(dim, n_classes, rng)
    support = u[:, np.concatenate([blocks[0], blocks[-1]])] if kind == "aligned" else None
    state = draw_state(kind, dim, rng, support)
    if kind == "aligned" and classify(classifier, state).label_index != 0:
        return  # only class 0's rivals see the singular case
    check_against_oracle(classifier, state)


@settings(max_examples=3, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    kind=st.sampled_from(["pure", "full", "rank_deficient"]),
)
def test_dual_matches_sdp_dim16(seed, kind):
    # Each dim-16 SDP solve takes a good fraction of a second: few examples.
    rng = np.random.default_rng(seed)
    classifier = random_classifier(16, rng, n_classes=2, kraus_rank=2)
    check_against_oracle(classifier, draw_state(kind, 16, rng))


def test_singular_basis_state_needs_kernel_component():
    # |0> under a Z measurement: no weight on the -1 eigenvector of the
    # gap operator Z, so the optimum sits at mu = -lambda a_min.  The
    # witness is the even mixture, half of it on the kernel.
    classifier = Classifier([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])
    zero = PureState([1, 0])
    bound = check_against_oracle(classifier, pure_to_density(zero))
    assert bound.delta == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(bound.witness.matrix, np.eye(2) / 2, atol=1e-5)
    bound = check_against_oracle(classifier, zero)
    assert bound.delta == pytest.approx(0.5, abs=1e-9)
    assert abs(bound.witness.overlap(zero)) ** 2 == pytest.approx(0.5, abs=1e-6)


def test_zero_minimum_eigenvalue_gap():
    # The third outcome is never produced (M_2 = 0), so the gap operator
    # against it is N_0 >= 0 with a zero minimum eigenvalue: only the
    # state measured as |1> ties it, at distance 1 - 0.2.  No multiplier
    # attains this dual optimum (lambda -> infinity) and the interior-point
    # SDP does not converge on it, so the oracle is the closed form; the
    # other rival sits at margin^2 / 2 (a qubit measured projectively).
    measurement = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0]), np.zeros((2, 2))]
    u = random_unitary(2, np.random.default_rng(7))
    classifier = Classifier.from_kraus(unitary_channel(u), measurement)
    rho = DensityMatrix(u.conj().T @ np.diag([0.8, 0.2]) @ u)
    bound = compute_optimal_bound(classifier, rho, 0)
    assert bound.per_class[2] == pytest.approx(0.8, abs=1e-9)
    assert bound.per_class[1] == pytest.approx((np.sqrt(0.8) - np.sqrt(0.2)) ** 2 / 2, abs=1e-9)
    assert bound.argmin_class == 1
    check_witness(classifier, rho, 0, bound)


@pytest.mark.parametrize("seed", range(40))
def test_singular_gap_rounded_positive_stays_reachable(seed):
    # The gap U^dag diag(1, 0) U is singular: its kernel vector ties the two
    # classes at distance 0.7.  On 17 of these rotations eigh rounds its
    # zero eigenvalue to about +4e-17, which must not make the rival
    # unreachable.  The witness distance is 1 - F of the witness returned,
    # as recheck measures it, and lies at or past delta.
    u = random_unitary(2, np.random.default_rng(seed))
    classifier = Classifier([u.conj().T @ np.diag(d) @ u for d in ([1, .5], [0, .5])])
    rho = DensityMatrix(u.conj().T @ np.diag([.7, .3]) @ u)
    bound = compute_optimal_bound(classifier, rho, 0)
    assert not bound.unbounded
    assert 0.7 - 2e-8 <= bound.delta <= 0.7
    assert bound.witness_distance == 1.0 - fidelity(rho, bound.witness)
    assert bound.witness_distance >= bound.delta
    outcome = classify(classifier, bound.witness)
    assert outcome.label_index == 1 or outcome.tie


def test_gap_spectrum_is_cached():
    classifier = random_classifier(4, np.random.default_rng(3), n_classes=3)
    first = classifier.gap_spectrum(0, 2)
    assert classifier.gap_spectrum(0, 2) is first
    w, v = first
    np.testing.assert_allclose(
        (v * w) @ v.conj().T, classifier.class_gap_operator(0, 2), atol=1e-12
    )


def test_one_root_per_rival_and_one_witness_per_bound(monkeypatch):
    # Each reachable, untied rival takes one root search for its delta_k.
    # The witness is built once, for the rival that sets delta, and adds
    # one root just past the optimum (psi = -2 TIE_TOL): 3 roots for 2 rivals.
    calls = Counter()

    def counting(f):
        def wrapper(*args):
            calls[f.__name__] += 1
            return f(*args)
        return wrapper

    for name in ("_dual_ratio", "_witness_factor"):
        monkeypatch.setattr(qrv.verifier, name, counting(getattr(qrv.verifier, name)))
    rng = np.random.default_rng(11)
    classifier, rho, label = classified_instance(rng, dim=4, n_classes=3, kraus_rank=2,
                                                 min_margin=0.02)
    for k in set(range(3)) - {label}:
        a, vectors = classifier.gap_spectrum(label, k)
        r = (np.abs(vectors.conj().T @ rho.factor) ** 2).sum(axis=1)
        assert a[0] < -2.0 * TIE_TOL and a @ r > 0.0  # reachable and untied
    bound = compute_optimal_bound(classifier, rho, label)
    assert [w is None for w in bound.shifts] == [k == label for k in range(3)]
    assert calls == {"_dual_ratio": 3, "_witness_factor": 1}

    # Every rival unreachable (N_0 - N_1 = 0.6 I): no root and no witness.
    dominant = Classifier([0.8 * np.eye(2), 0.2 * np.eye(2)])
    zero = PureState([1, 0])
    for state in (zero, pure_to_density(zero)):
        assert compute_optimal_bound(dominant, state, 0).unbounded
    assert calls == {"_dual_ratio": 3, "_witness_factor": 1}


def two_level_delta(r_plus, a_minus, a_plus):
    """Closed-form delta for a gap operator with the two eigenvalues
    ``a_minus < 0 < a_plus`` and rho's weight ``r_plus`` on the ``a_plus``
    eigenspace: ``1 - (sqrt(R t) + sqrt((1 - R)(1 - t)))^2`` with
    ``t = -a_minus / (a_plus - a_minus)``, or 0 when ``R <= t``."""
    t = -a_minus / (a_plus - a_minus)
    if r_plus <= t:
        return 0.0
    return 1.0 - (np.sqrt(r_plus * t) + np.sqrt((1.0 - r_plus) * (1.0 - t))) ** 2


_eigenvalue = st.floats(0.01, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(2, 64), seed=st.integers(0, 2**32 - 1),
    # delta has a square-root singularity at R = 0 and R = 1, where a
    # rounding of 1e-16 in the state moves it by 1e-8.
    r_plus=st.floats(1e-6, 1.0 - 1e-6), tied=st.booleans(),
    a_minus=st.one_of(st.just(1.0), _eigenvalue).map(lambda x: -x),
    a_plus=st.one_of(st.just(1.0), _eigenvalue), mixed=st.booleans(),
)
def test_two_level_gap_matches_closed_form(dim, seed, r_plus, tied, a_minus, a_plus,
                                           mixed):
    # N_0 = (I + A)/2 and N_1 = (I - A)/2 make A the gap operator.  rho is
    # one or two pure states, each with weight r_plus on the a_plus
    # eigenspace; a tied state has r_plus = t.
    if tied:
        r_plus = -a_minus / (a_plus - a_minus)
    rng = np.random.default_rng(seed)
    u = random_unitary(dim, rng)
    split = int(rng.integers(1, dim))
    a = np.where(np.arange(dim) < split, a_plus, a_minus)
    gap = (u * a) @ u.conj().T
    classifier = Classifier([(np.eye(dim) + gap) / 2, (np.eye(dim) - gap) / 2])

    def spread(block):
        c = block @ (rng.normal(size=block.shape[1]) + 1j * rng.normal(size=block.shape[1]))
        return c / np.linalg.norm(c)

    vectors = [np.sqrt(r_plus) * spread(u[:, :split]) + np.sqrt(1.0 - r_plus)
               * spread(u[:, split:]) for _ in range(1 + mixed)]
    state = (DensityMatrix(sum(np.outer(v, v.conj()) for v in vectors) / 2) if mixed
             else PureState(vectors[0]))
    outcome = classify(classifier, state)
    bound = compute_optimal_bound(classifier, state)
    expected = (two_level_delta(r_plus, a_minus, a_plus) if outcome.label_index == 0
                else two_level_delta(1.0 - r_plus, -a_plus, -a_minus))
    assert bound.delta == pytest.approx(expected, abs=1e-12)
    if (a_minus, a_plus) == (-1.0, 1.0):  # projective: the margin certificate is exact
        margin = np.sqrt(r_plus) - np.sqrt(1.0 - r_plus)
        assert bound.delta == pytest.approx(margin ** 2 / 2, abs=1e-12)
