import numpy as np
import pytest

from qrv.casestudy import qubit_rotation_classifier, ry, xz_plane_state
from qrv.channels import KrausChannel, unitary_channel
from qrv.classifiers import (
    Classifier,
    LabeledDataset,
    accuracy,
    classify,
    classify_batch,
)
from qrv.errors import DimensionMismatch, ValidationError
from qrv.formats import emit_classification, emit_report
from qrv.sampling import random_classifier, random_density_matrix, random_pure_state
from qrv.states import DensityMatrix, PureState, pure_to_density
from qrv.verifier import verify_dataset


Z_EFFECTS = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


@pytest.fixture
def z_classifier():
    return Classifier(Z_EFFECTS, ["zero", "one"])


class TestClassProbabilities:
    def test_basis_state(self, z_classifier):
        probs = classify(z_classifier, pure_to_density(PureState([1, 0]))).probabilities
        np.testing.assert_allclose(probs, [1.0, 0.0], atol=1e-12)

    def test_maximally_mixed(self, z_classifier):
        probs = classify(z_classifier, DensityMatrix(np.eye(2) / 2)).probabilities
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_equal_superposition(self, z_classifier):
        plus = pure_to_density(PureState([1, 1] / np.sqrt(2)))
        probs = classify(z_classifier, plus).probabilities
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_sums_to_one(self, rng):
        for dim, classes in ((2, 2), (4, 3)):
            c = random_classifier(dim, rng, n_classes=classes, kraus_rank=2)
            probs = classify(c, random_density_matrix(dim, rng)).probabilities
            assert abs(probs.sum() - 1.0) < 1e-7

    def test_dimension_mismatch(self, z_classifier, rng):
        with pytest.raises(DimensionMismatch):
            classify(z_classifier, random_density_matrix(4, rng))


class TestClassify:
    def test_confident_basis_state(self, z_classifier):
        out = classify(z_classifier, pure_to_density(PureState([1, 0])))
        assert out.label_index == 0
        assert out.margin == pytest.approx(1.0, abs=1e-12)
        assert not out.tie

    def test_tie_breaks_to_lowest_index(self, z_classifier):
        out = classify(z_classifier, DensityMatrix(np.eye(2) / 2))
        assert out.label_index == 0
        assert out.tie
        assert out.margin == pytest.approx(0.0, abs=1e-12)

    def test_near_tie_goes_to_the_larger_probability(self):
        # Within TIE_TOL but not exact: flagged, and not broken toward the
        # lowest index.
        d = 1e-9
        classifier = Classifier([np.diag([0.5 - d, 0.5 + d]), np.diag([0.5 + d, 0.5 - d])])
        out = classify(classifier, PureState([1, 0]))
        assert out.label_index == 1
        assert out.tie

    def test_rotation_classifier_matches_direct_evaluation(self):
        # Rotating the Bloch angle by theta_star turns the outcome
        # probability into cos^2((angle + theta_star) / 2).
        theta_star, angle = 0.4835, 1.0
        c = qubit_rotation_classifier(theta_star)
        out = classify(c, xz_plane_state(angle))
        rotated = ry(theta_star) @ xz_plane_state(angle).amplitudes
        p0 = abs(rotated[0]) ** 2
        expected_label = 0 if p0 > 1 - p0 else 1
        assert out.label_index == expected_label
        assert out.probabilities[0] == pytest.approx(
            np.cos((angle + theta_star) / 2) ** 2, abs=1e-12
        )

    def test_pure_and_density_paths_agree(self, rng):
        c = random_classifier(4, rng, n_classes=3, kraus_rank=2)
        for _ in range(10):
            psi = random_pure_state(4, rng)
            direct = classify(c, psi).probabilities
            via_density = classify(c, pure_to_density(psi)).probabilities
            np.testing.assert_allclose(direct, via_density, atol=1e-8)

    def test_batch_matches_per_state_loop(self, rng):
        # Reference: one inner product per state and class, as a loop.  The
        # batch sums in another order, so probabilities agree to float64
        # rounding; labels, ties and margins follow from them.
        c = random_classifier(4, rng, n_classes=3, kraus_rank=2)
        states = [random_pure_state(4, rng) for _ in range(6)]
        states += [random_density_matrix(4, rng) for _ in range(6)]
        states += [DensityMatrix(np.eye(4) / 4)]
        rng.shuffle(states)
        batch = classify_batch(c, states)
        assert isinstance(c.dual_effects, np.ndarray) and c.dual_effects.shape == (3, 4, 4)
        for i, state in enumerate(states):
            m = pure_to_density(state).matrix if isinstance(state, PureState) else state.matrix
            expected = np.array([np.trace(n @ m).real for n in c.dual_effects])
            np.testing.assert_allclose(batch.probabilities[i], expected, rtol=0, atol=1e-14)
            order = np.argsort(-expected, kind="stable")
            assert batch.labels[i] == order[0]
            assert batch.margins[i] == pytest.approx(
                np.sqrt(expected[order[0]]) - np.sqrt(expected[order[1]]), abs=1e-12
            )
            assert classify(c, state).label_index == batch.labels[i]

    def test_empty_batch_has_no_under_approximation(self, z_classifier):
        with pytest.raises(ValidationError, match="^batch is empty$"):
            classify_batch(z_classifier, []).under_approx(0.1)

    def test_empty_batch_has_no_classification_report(self, z_classifier):
        with pytest.raises(ValidationError, match="^batch is empty$"):
            emit_classification(classify_batch(z_classifier, []), [])


class TestAccuracy:
    def test_perfect(self, z_classifier):
        data = LabeledDataset([(PureState([1, 0]), 0), (PureState([0, 1]), 1)])
        assert accuracy(z_classifier, data) == 1.0

    def test_flipped_labels(self, z_classifier):
        data = LabeledDataset([(PureState([1, 0]), 1), (PureState([0, 1]), 0)])
        assert accuracy(z_classifier, data) == 0.0

    def test_empty_dataset_rejected(self, z_classifier):
        with pytest.raises(ValidationError, match="^dataset is empty$"):
            accuracy(z_classifier, LabeledDataset([]))

    def test_label_out_of_range(self, z_classifier):
        data = LabeledDataset([(PureState([1, 0]), 5)])
        with pytest.raises(ValidationError):
            accuracy(z_classifier, data)


@pytest.mark.parametrize("entries, message", [
    ([(PureState([1, 0]), -1)], "entry 0: label must be a nonnegative integer, got -1"),
    ([(PureState([1, 0]), 0), (PureState([0, 1]), 1.9)],
     "entry 1: label must be a nonnegative integer, got 1.9"),
    ([(PureState([1, 0]), True)], "entry 0: label must be a nonnegative integer, got True"),
    ([(PureState([1, 0]), "1")], "entry 0: label must be a nonnegative integer, got '1'"),
    ([(np.array([1, 0]), 0)],
     "dataset states must be PureState or DensityMatrix, got ndarray"),
], ids=["negative_label", "float_label", "bool_label", "string_label", "raw_array_state"])
def test_dataset_rejection_names_its_message(entries, message):
    with pytest.raises(ValidationError) as err:
        LabeledDataset(entries)
    assert str(err.value) == message


def test_numpy_integer_label_is_stored_as_int():
    (_, label), = LabeledDataset([(PureState([1, 0]), np.int64(1))])
    assert type(label) is int and label == 1


class TestValidation:
    def test_incomplete_measurement_rejected(self):
        half = np.diag([1.0, 0.0]).astype(complex)
        operators = [half, 0.5 * (np.eye(2) - half)]
        with pytest.raises(ValidationError, match="do not sum to the identity"):
            Classifier.from_kraus(unitary_channel(np.eye(2)), operators)

    def test_single_operator_rejected(self):
        with pytest.raises(ValidationError):
            Classifier([np.eye(2)])

    def test_label_count_mismatch(self):
        with pytest.raises(ValidationError):
            Classifier(Z_EFFECTS, ["only-one"])

    def test_channel_measurement_dim_mismatch(self):
        with pytest.raises(DimensionMismatch):
            Classifier.from_kraus(unitary_channel(np.eye(4)), Z_EFFECTS)


class TestPoolingChannel:
    # Tracing out the second qubit of two (4 -> 2, Kraus I (x) <j|), then
    # measuring the first: the effects live on the input space.
    def test_partial_trace_then_measurement(self, rng):
        trace_out = KrausChannel([np.kron(np.eye(2), e[None, :]) for e in np.eye(2)])
        pooled = Classifier.from_kraus(trace_out, Z_EFFECTS, ["zero", "one"])
        assert (pooled.dim, trace_out.dim_out) == (4, 2)
        direct = Classifier([np.kron(n, np.eye(2)) for n in Z_EFFECTS], ["zero", "one"])
        np.testing.assert_allclose(pooled.dual_effects, direct.dual_effects, atol=1e-15)
        states = [random_density_matrix(4, rng) for _ in range(6)]
        states += [random_pure_state(4, rng) for _ in range(6)]
        dataset = LabeledDataset(
            (s, int(label)) for s, label in zip(states, classify_batch(direct, states).labels)
        )
        reports = [emit_report(verify_dataset(c, dataset, 0.05), include_timings=False)
                   for c in (pooled, direct)]
        assert reports[0] == reports[1]
