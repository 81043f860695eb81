import inspect

import mpmath
import numpy as np
import pytest

from conftest import classified_instance, max_tied_overlap
from qrv.casestudy import generate_qubit_case_study
from qrv.classifiers import (
    BatchClassification,
    Classification,
    Classifier,
    LabeledDataset,
    classify,
)
from qrv.errors import MisclassifiedInput, ValidationError
from grid_oracle import SearchGrid, bloch_grid_min_distance, pure_sphere_min_distance
from qrv.sampling import random_density_matrix, random_pure_state
from qrv.states import DensityMatrix, PureState, fidelity, pure_to_density
from qrv.verifier import (
    AdversarialWitness,
    OptimalBound,
    PureBound,
    RobustnessCheck,
    StateVerdict,
    VerificationReport,
    VerifyOptions,
    check_epsilon_robust,
    compute_optimal_bound,
    margin_robust_bound,
    pure_state_optimal_bound,
    under_robust_accuracy,
    verify_dataset,
    verify_epsilons,
)
import qrv.verifier


def mp_fidelity(rho, sigma):
    """[tr sqrt(sqrt(rho) sigma sqrt(rho))]^2 of two density matrices, in
    40-digit arithmetic."""
    with mpmath.workdps(40):
        a, b = (mpmath.matrix([[mpmath.mpc(x) for x in row] for row in m])
                for m in (rho, sigma))
        e, q = mpmath.eigh(a)
        root = q * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in e]) * q.H
        m = root * b * root
        values = mpmath.eigh((m + m.H) / 2, eigvals_only=True)
        return float(sum(mpmath.sqrt(max(x, 0)) for x in values) ** 2)


@pytest.fixture
def z_classifier():
    return Classifier([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], ["zero", "one"])


def diag_state(p0):
    return DensityMatrix(np.diag([p0, 1.0 - p0]).astype(complex))


class TestMarginBound:
    def test_full_confidence(self, z_classifier):
        # margin 1 beats sqrt(0.8) ~ 0.894
        assert margin_robust_bound(z_classifier, diag_state(1.0), 0.4)

    def test_zero_margin_never_certifies(self, z_classifier):
        assert not margin_robust_bound(z_classifier, diag_state(0.5), 1e-6)
        assert not margin_robust_bound(z_classifier, diag_state(0.5), 0.9)

    def test_formula_crossover(self, z_classifier):
        # margin = sqrt(.9) - sqrt(.1) ~ 0.6325 > sqrt(0.002) ~ 0.0447
        assert margin_robust_bound(z_classifier, diag_state(0.9), 0.001)
        # and fails once 2 eps exceeds margin^2 = 0.4
        assert not margin_robust_bound(z_classifier, diag_state(0.9), 0.21)

    def test_invalid_epsilon(self, z_classifier):
        for eps in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValidationError):
                margin_robust_bound(z_classifier, diag_state(1.0), eps)


class TestOptimalBound:
    def test_basis_state_bound_is_half(self, z_classifier):
        # The nearest class-changing state is the even mixture at
        # distance 0.5; the Bloch-ball grid confirms no closer flip.
        bound = compute_optimal_bound(z_classifier, pure_to_density(PureState([1, 0])))
        assert bound.delta == pytest.approx(0.5, abs=1e-6)
        delta_hat, _ = bloch_grid_min_distance(
            z_classifier, pure_to_density(PureState([1, 0])), 0,
            SearchGrid(resolution=151),
        )
        assert delta_hat == pytest.approx(0.5, abs=5e-3)
        assert delta_hat >= bound.delta - 1e-4

    def test_boundary_tie_gives_zero(self, z_classifier):
        bound = compute_optimal_bound(z_classifier, DensityMatrix(np.eye(2) / 2))
        assert bound.delta == pytest.approx(0.0, abs=1e-6)

    def test_witness_realizes_delta(self, rng):
        for _ in range(10):
            classifier, state, label = classified_instance(rng, dim=2)
            bound = compute_optimal_bound(classifier, state, label)
            if bound.unbounded:
                continue
            outcome = classify(classifier, bound.witness)
            assert outcome.label_index != label or outcome.tie
            distance = 1.0 - fidelity(state, bound.witness)
            assert distance == pytest.approx(bound.delta, abs=1e-5)

    def test_mixed_witness_distance_is_the_public_fidelity(self, rng):
        # The distance is measured on the dual's factor of sigma*, not on
        # sigma* itself; 40-digit arithmetic on the two matrices checks it.
        for dim in (2, 5, 16):
            classifier, state, label = classified_instance(rng, dim=dim, n_classes=3)
            bound = compute_optimal_bound(classifier, state, label)
            assert isinstance(bound.witness, DensityMatrix)
            expected = 1.0 - mp_fidelity(state.matrix, bound.witness.matrix)
            assert bound.witness_distance == pytest.approx(expected, abs=1e-12)

    def test_pure_input_builds_no_density_matrix(self, rng, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a pure input needs no density matrix")

        classifier, state, label = classified_instance(rng, dim=4, n_classes=3, pure=True)
        monkeypatch.setattr(qrv.verifier, "DensityMatrix", forbidden)
        bound = compute_optimal_bound(classifier, state, label)
        assert isinstance(bound.witness, PureState)
        assert bound.witness_distance == pytest.approx(bound.delta, abs=1e-5)

    def test_margin_consistency(self, rng):
        # The margin certificate is a lower bound on the exact radius:
        # delta >= margin^2 / 2.
        for dim in (2, 4):
            for _ in range(25):
                classifier, state, label = classified_instance(
                    rng, dim=dim, kraus_rank=2 if dim == 4 else 1
                )
                outcome = classify(classifier, state)
                bound = compute_optimal_bound(classifier, state, label)
                delta = np.inf if bound.unbounded else bound.delta
                assert delta >= outcome.margin**2 / 2.0 - 1e-6

    def test_rejects_misclassified_input(self, z_classifier):
        with pytest.raises(MisclassifiedInput):
            compute_optimal_bound(z_classifier, diag_state(0.9), label=1)


class TestEpsilonCheck:
    def test_tiny_radius_is_robust(self, z_classifier):
        rho = pure_to_density(PureState([1, 0]))
        assert check_epsilon_robust(z_classifier, rho, 0, 1e-6).robust

    def test_mixture_family_witness(self, z_classifier):
        # Along sigma(t) = (1-t)|0><0| + t|1><1| the fidelity is exactly
        # 1 - t, and the class flips at t = 1/2, i.e. at distance 0.5.
        rho = pure_to_density(PureState([1, 0]))
        for t in (0.1, 0.3, 0.5, 0.8):
            sigma = DensityMatrix(np.diag([1.0 - t, t]).astype(complex))
            assert fidelity(rho, sigma) == pytest.approx(1.0 - t, abs=1e-9)
        result = check_epsilon_robust(z_classifier, rho, 0, 0.6)
        assert not result.robust
        assert result.witness.distance <= 0.6 + 1e-6
        outcome = classify(z_classifier, result.witness.sigma)
        assert outcome.label_index != 0 or outcome.tie

    def test_agreement_with_optimal_bound(self, rng):
        for _ in range(30):
            classifier, state, label = classified_instance(rng, dim=2)
            bound = compute_optimal_bound(classifier, state, label)
            delta = 1.0 if bound.unbounded else bound.delta
            for eps in (0.5 * delta, min(1.5 * delta, 0.98)):
                eps = float(np.clip(eps, 1e-6, 0.98))
                if abs(eps - delta) <= 1e-6:
                    continue  # boundary band: either verdict is defensible
                result = check_epsilon_robust(classifier, state, label, eps)
                assert result.robust == (eps <= delta)

    def test_invalid_epsilon(self, z_classifier):
        with pytest.raises(ValidationError):
            check_epsilon_robust(z_classifier, diag_state(1.0), 0, 0.0)


class TestDerivationOracle:
    def test_tied_overlap_closed_form(self, rng):
        # The margin bound comes from maximizing the overlap with the
        # outcome-probability vector over tied competitors; the optimum
        # has the closed form sqrt(1 - (sqrt(p1) - sqrt(p2))^2 / 2).
        for length in (2, 3, 4, 6):
            for _ in range(3):
                p = rng.dirichlet(np.ones(length))
                p = np.sort(p)[::-1]
                expected = np.sqrt(1.0 - (np.sqrt(p[0]) - np.sqrt(p[1])) ** 2 / 2.0)
                assert max_tied_overlap(p) == pytest.approx(expected, abs=1e-5)


class TestPureBound:
    def test_boundary_state_gives_zero(self, z_classifier):
        psi = PureState([1, 1] / np.sqrt(2))
        result = pure_state_optimal_bound(z_classifier, psi)
        assert result.delta == pytest.approx(0.0, abs=1e-8)
        assert abs(result.phi_star.overlap(psi)) == pytest.approx(1.0, abs=1e-4)

    def test_basis_state_bound_is_half(self, z_classifier):
        psi = PureState([1, 0])
        result = pure_state_optimal_bound(z_classifier, psi, 0)
        assert result.status == "ok"
        assert result.delta == pytest.approx(0.5, abs=1e-6)
        # The optimal rival is an equal superposition: overlap 1/2.
        assert abs(result.phi_star.overlap(psi)) ** 2 == pytest.approx(0.5, abs=1e-6)
        sweep, _ = pure_sphere_min_distance(z_classifier, psi, 0, angle_step=1e-3)
        assert result.delta == pytest.approx(sweep, abs=2e-3)

    def test_never_below_mixed_bound(self, rng):
        for _ in range(10):
            classifier, psi, label = classified_instance(rng, dim=2, pure=True)
            pure = pure_state_optimal_bound(classifier, psi, label,
                                            options=VerifyOptions(seed=5))
            mixed = compute_optimal_bound(classifier, psi, label)
            if pure.unbounded or mixed.unbounded:
                assert pure.unbounded == mixed.unbounded
                continue
            assert pure.delta >= mixed.delta - 1e-5


def margin_one_dataset():
    return LabeledDataset([(PureState([1, 0]), 0), (PureState([0, 1]), 1)])


def boundary_dataset():
    plus = PureState([1, 1] / np.sqrt(2))
    minus = PureState([1, -1] / np.sqrt(2))
    return LabeledDataset([(plus, 0), (minus, 0)])


class TestVerifyDataset:
    def test_confident_dataset_skips_all_solves(self, z_classifier):
        report = verify_dataset(z_classifier, margin_one_dataset(), 0.2)
        assert report.robust_accuracy == 1.0
        assert report.adversarial == []
        assert report.solver_stats["sdp_solves"] == 0
        assert all(v.margin_certified for v in report.verdicts)

    def test_boundary_states_all_non_robust(self, z_classifier):
        report = verify_dataset(z_classifier, boundary_dataset(), 0.01)
        assert report.robust_accuracy == 0.0
        assert report.adversarial_count == 2
        # Both entries are tied at rho: delta is 0 without a solve.
        assert [v.delta for v in report.verdicts] == [0.0, 0.0]
        assert report.solver_stats["sdp_solves"] == 0

    def test_under_approximation_never_exceeds_exact(self, rng):
        for trial in range(5):
            classifier, _, _ = classified_instance(rng, dim=2)
            entries = []
            for _ in range(12):
                state = random_density_matrix(2, rng)
                entries.append((state, classify(classifier, state).label_index))
            dataset = LabeledDataset(entries)
            eps = float(rng.uniform(0.001, 0.2))
            report = verify_dataset(classifier, dataset, eps)
            ura = under_robust_accuracy(classifier, dataset, eps)
            assert ura == report.under_approx_robust_accuracy
            assert ura <= report.robust_accuracy + 1e-12

    def test_misclassified_entries_counted_separately(self, z_classifier):
        dataset = LabeledDataset(
            [(PureState([1, 0]), 0), (PureState([0, 1]), 0)]  # second label wrong
        )
        report = verify_dataset(z_classifier, dataset, 0.1)
        statuses = [v.status for v in report.verdicts]
        assert statuses == ["ok", "misclassified"]
        assert report.n_correct == 1
        assert report.robust_accuracy == 1.0  # misclassified entries never join R

    def test_adversarial_witnesses_satisfy_definition(self, rng, z_classifier):
        # All three conditions: source correctly classified, witness
        # changes class (or ties), witness within distance eps.
        classifier, _, _ = classified_instance(rng, dim=2)
        entries = []
        for _ in range(15):
            state = random_density_matrix(2, rng)
            entries.append((state, classify(classifier, state).label_index))
        dataset = LabeledDataset(entries)
        eps = 0.05
        report = verify_dataset(classifier, dataset, eps)
        assert report.robust_accuracy == 1.0 - report.adversarial_count / len(dataset)
        for witness in report.adversarial:
            source_state, source_label = dataset.entries[witness.source_index]
            assert classify(classifier, source_state).label_index == source_label
            outcome = classify(classifier, witness.sigma)
            assert outcome.label_index != source_label or outcome.tie
            assert witness.distance <= eps + 1e-5
            assert 1.0 - fidelity(source_state, witness.sigma) <= eps + 1e-5

    def test_epsilon_monotonicity(self, rng):
        for _ in range(8):
            classifier, state, label = classified_instance(rng, dim=2)
            eps_hi = float(rng.uniform(0.01, 0.4))
            eps_lo = eps_hi * float(rng.uniform(0.1, 0.9))
            hi = check_epsilon_robust(classifier, state, label, eps_hi)
            lo = check_epsilon_robust(classifier, state, label, eps_lo)
            if hi.robust:
                assert lo.robust

    def test_pure_entries_get_pure_witnesses(self, z_classifier):
        report = verify_dataset(z_classifier, boundary_dataset(), 0.01)
        assert report.adversarial_count == 2
        assert all(isinstance(w.sigma, PureState) for w in report.adversarial)

    @pytest.mark.parametrize("dim", [4, 8])
    @pytest.mark.parametrize("n_classes", [2, 3])
    def test_pure_witnesses_at_shared_bound(self, rng, dim, n_classes):
        # Pure witnesses sit at the mixed bound delta and flip the class.
        classifier, _, _ = classified_instance(
            rng, dim=dim, n_classes=n_classes, kraus_rank=2
        )
        entries = []
        for _ in range(4):
            psi = random_pure_state(dim, rng)
            entries.append((psi, classify(classifier, psi).label_index))
        report = verify_dataset(classifier, LabeledDataset(entries), 0.9)
        assert report.adversarial_count > 0
        for witness in report.adversarial:
            psi, label = entries[witness.source_index]
            assert isinstance(witness.sigma, PureState)
            distance = 1.0 - abs(witness.sigma.overlap(psi)) ** 2
            delta = report.verdicts[witness.source_index].delta
            assert distance == pytest.approx(delta, abs=1e-5)
            outcome = classify(classifier, witness.sigma)
            assert outcome.label_index != label or outcome.tie

    def test_case_study_witnesses_change_class_strictly(self):
        # The case study's witnesses (pure, like its entries) lie strictly
        # inside the rival class, within the 1e-6 budget beyond delta.
        classifier, train, _ = generate_qubit_case_study(seed=0)
        report = verify_dataset(classifier, train, 0.004)
        assert report.adversarial_count > 0
        for witness in report.adversarial:
            label = train.entries[witness.source_index][1]
            outcome = classify(classifier, witness.sigma)
            assert outcome.label_index != label and not outcome.tie
            delta = report.verdicts[witness.source_index].delta
            assert delta - 1e-9 <= witness.distance <= delta + 1e-6

    def test_multiclass_higher_dimension(self, rng):
        # Three classes at dim 4: every rival class gets its own solve and
        # the under-approximation stays below the exact row.
        classifier, _, _ = classified_instance(rng, dim=4, n_classes=3, kraus_rank=2)
        entries = []
        for _ in range(8):
            state = random_density_matrix(4, rng)
            entries.append((state, classify(classifier, state).label_index))
        report = verify_dataset(classifier, LabeledDataset(entries), 0.01)
        assert report.under_approx_robust_accuracy <= report.robust_accuracy + 1e-12
        for witness in report.adversarial:
            source, label = report.verdicts[witness.source_index], entries[witness.source_index][1]
            assert witness.target_class != label

    def test_empty_dataset_rejected(self, z_classifier):
        with pytest.raises(ValidationError):
            verify_dataset(z_classifier, LabeledDataset([]), 0.1)


def mixed_dataset(rng):
    """3-class dim-4 classifier and 24 correctly labeled rank-4 states."""
    classifier, _, _ = classified_instance(rng, dim=4, n_classes=3, kraus_rank=2)
    entries = []
    for _ in range(24):
        state = random_density_matrix(4, rng)
        entries.append((state, classify(classifier, state).label_index))
    return classifier, LabeledDataset(entries)


def pure_dataset(rng):
    """2-class dim-4 classifier and 24 pure states, two of them mislabeled."""
    classifier, _, _ = classified_instance(rng, dim=4, kraus_rank=2)
    entries = []
    for i in range(24):
        psi = random_pure_state(4, rng)
        label = classify(classifier, psi).label_index
        entries.append((psi, 1 - label if i < 2 else label))
    return classifier, LabeledDataset(entries)


# Unsorted, with one radius repeated.
EPSILONS = (0.02, 0.002, 0.2, 0.02, 0.06)


class TestVerifyEpsilons:
    @pytest.mark.parametrize("make, kind", [(mixed_dataset, "mixed"),
                                            (pure_dataset, "pure")])
    def test_equals_one_run_per_epsilon(self, rng, make, kind):
        classifier, dataset = make(rng)
        options = VerifyOptions(seed=5)
        reports = verify_epsilons(classifier, dataset, EPSILONS, options=options)
        assert [r.epsilon for r in reports] == list(EPSILONS)
        for eps, report in zip(EPSILONS, reports):
            single = verify_dataset(classifier, dataset, eps, options=options)
            assert report.verdicts == single.verdicts
            assert report.solver_stats == single.solver_stats
            assert report.robust_accuracy == single.robust_accuracy
            assert (report.under_approx_robust_accuracy
                    == single.under_approx_robust_accuracy)
            assert report.warnings == single.warnings
            assert ([(w.source_index, w.target_class, w.distance, type(w.sigma))
                     for w in report.adversarial]
                    == [(w.source_index, w.target_class, w.distance, type(w.sigma))
                        for w in single.adversarial])
        # The radii split the entries differently, so the comparison covers
        # margin-certified, exact robust and exact non-robust verdicts.
        assert len({r.solver_stats["sdp_solves"] for r in reports}) > 2
        assert len({r.adversarial_count for r in reports}) > 2
        # Witnesses take their entries' form.
        form = PureState if kind == "pure" else DensityMatrix
        assert all(isinstance(w.sigma, form) for r in reports for w in r.adversarial)

    def test_one_bound_per_exact_entry(self, rng, monkeypatch):
        classifier, dataset = mixed_dataset(rng)
        calls = []
        bound = qrv.verifier.compute_optimal_bound

        def counted(classifier, state, label=None):
            calls.append(id(state))
            return bound(classifier, state, label)

        monkeypatch.setattr(qrv.verifier, "compute_optimal_bound", counted)
        reports = verify_epsilons(classifier, dataset, EPSILONS)
        widest = reports[EPSILONS.index(max(EPSILONS))]
        exact = [v for v in widest.verdicts if v.correct and not v.margin_certified]
        assert len(calls) == len(set(calls)) == len(exact) > 0
        assert sum(r.solver_stats["sdp_solves"] for r in reports) > len(calls)

    def test_exact_seconds_non_decreasing(self, rng):
        classifier, dataset = mixed_dataset(rng)
        epsilons = sorted(set(EPSILONS))
        reports = verify_epsilons(classifier, dataset, epsilons)
        exact = [r.timings["exact_seconds"] for r in reports]
        assert exact == sorted(exact)
        for r in reports:
            assert r.timings["margin_seconds"] == reports[0].timings["margin_seconds"]
            assert r.timings["total_seconds"] == (r.timings["margin_seconds"]
                                                  + r.timings["exact_seconds"])

    @pytest.mark.parametrize("epsilons", [(), (0.1, 0.0), (1.0,)])
    def test_invalid_epsilons_rejected(self, z_classifier, epsilons):
        with pytest.raises(ValidationError):
            verify_epsilons(z_classifier, margin_one_dataset(), epsilons)


class TestUnderRobustAccuracy:
    def test_orthogonal_perfect_classifier(self, z_classifier):
        assert under_robust_accuracy(z_classifier, margin_one_dataset(), 0.4) == 1.0

    def test_all_boundary_states(self, z_classifier):
        assert under_robust_accuracy(z_classifier, boundary_dataset(), 0.3) == 0.0

    def test_invalid_epsilon(self, z_classifier):
        with pytest.raises(ValidationError):
            under_robust_accuracy(z_classifier, margin_one_dataset(), 1.0)


@pytest.mark.parametrize("record", [
    VerifyOptions, AdversarialWitness, OptimalBound, RobustnessCheck, PureBound,
    StateVerdict, VerificationReport, Classification, BatchClassification,
], ids=lambda record: record.__name__)
def test_records_are_immutable(record):
    fields = list(inspect.signature(record).parameters)
    value = record(*[None] * len(fields))
    for name in fields:
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
