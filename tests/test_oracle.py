import numpy as np
import pytest

from conftest import classified_instance
from grid_oracle import (
    SearchGrid,
    bloch_grid_min_distance,
    bloch_vector,
    pure_sphere_min_distance,
    qubit_fidelity_closed_form,
    random_neighborhood_probe,
)
from qrv.classifiers import Classifier, classify
from qrv.errors import DimensionMismatch, ValidationError
from qrv.sampling import random_density_matrix
from qrv.states import DensityMatrix, PureState, fidelity, pure_to_density
from qrv.verifier import compute_optimal_bound


@pytest.fixture
def z_classifier():
    return Classifier([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])])


class TestClosedFormFidelity:
    def test_matches_eigendecomposition(self, rng):
        # The oracle's closed form is an independent route; confirm it
        # against the production fidelity once.
        for _ in range(25):
            rho = random_density_matrix(2, rng)
            sigma = random_density_matrix(2, rng)
            a, r = bloch_vector(rho), bloch_vector(sigma)
            closed = qubit_fidelity_closed_form(
                a, np.array([r[0]]), np.array([r[1]]), np.array([r[2]])
            )[0]
            assert closed == pytest.approx(fidelity(rho, sigma), abs=1e-9)


class TestBlochGrid:
    def test_converges_to_half_for_basis_state(self, z_classifier):
        rho = pure_to_density(PureState([1, 0]))
        coarse, _ = bloch_grid_min_distance(z_classifier, rho, 0, SearchGrid(resolution=51))
        fine, _ = bloch_grid_min_distance(z_classifier, rho, 0, SearchGrid(resolution=201))
        assert abs(fine - 0.5) <= 2e-3
        assert abs(fine - 0.5) <= abs(coarse - 0.5) + 1e-12

    def test_boundary_tie_state_on_grid(self, z_classifier):
        # The maximally mixed state sits at the grid origin (odd
        # resolution) and already ties: distance zero.
        rho = DensityMatrix(np.eye(2) / 2)
        delta_hat, sigma_hat = bloch_grid_min_distance(
            z_classifier, rho, 0, SearchGrid(resolution=51)
        )
        assert delta_hat == pytest.approx(0.0, abs=1e-12)
        np.testing.assert_allclose(sigma_hat.matrix, rho.matrix, atol=1e-12)

    def test_never_undershoots_exact_bound(self, rng):
        for _ in range(10):
            classifier, state, label = classified_instance(rng, dim=2)
            bound = compute_optimal_bound(classifier, state, label)
            delta = np.inf if bound.unbounded else bound.delta
            delta_hat, _ = bloch_grid_min_distance(
                classifier, state, label, SearchGrid(resolution=61)
            )
            assert delta_hat >= delta - 1e-4

    def test_deterministic(self, z_classifier, rng):
        rho = random_density_matrix(2, rng)
        label = classify(z_classifier, rho).label_index
        grid = SearchGrid(resolution=41)
        d1, s1 = bloch_grid_min_distance(z_classifier, rho, label, grid)
        d2, s2 = bloch_grid_min_distance(z_classifier, rho, label, grid)
        assert d1 == d2
        np.testing.assert_array_equal(s1.matrix, s2.matrix)

    def test_rejects_higher_dimensions(self, rng):
        classifier, state, label = classified_instance(rng, dim=4, kraus_rank=2)
        with pytest.raises(DimensionMismatch):
            bloch_grid_min_distance(classifier, state, label)

    def test_rejects_degenerate_resolution(self):
        with pytest.raises(ValidationError):
            SearchGrid(resolution=1)


class TestPureSphere:
    def test_basis_state(self, z_classifier):
        delta, phi = pure_sphere_min_distance(
            z_classifier, PureState([1, 0]), 0, angle_step=1e-3
        )
        assert delta == pytest.approx(0.5, abs=2e-3)
        assert abs(phi.amplitudes[0]) ** 2 == pytest.approx(0.5, abs=5e-3)

    def test_matches_ball_grid_for_pure_minimizers(self, rng):
        # When the nearest flip is pure, sphere and ball searches agree.
        classifier, psi, label = classified_instance(rng, dim=2, pure=True)
        sphere, _ = pure_sphere_min_distance(classifier, psi, label, angle_step=2e-3)
        bound = compute_optimal_bound(classifier, psi, label)
        if bound.unbounded:
            assert np.isinf(sphere)
        else:
            assert sphere >= bound.delta - 1e-4


class TestRandomProbe:
    def test_zero_radius_finds_nothing(self, z_classifier):
        rho = pure_to_density(PureState([1, 0]))
        assert random_neighborhood_probe(z_classifier, rho, 0, 0.0, samples=200) is None

    def test_finds_witness_beyond_bound(self, rng):
        found_any = False
        for _ in range(5):
            classifier, state, label = classified_instance(rng, dim=2, min_margin=0.05)
            bound = compute_optimal_bound(classifier, state, label)
            if bound.unbounded or bound.delta > 0.9:
                continue
            eps = min(bound.delta + 0.05, 0.95)
            sigma = random_neighborhood_probe(
                classifier, state, label, eps, samples=100_000, seed=9
            )
            if sigma is None:
                continue
            found_any = True
            outcome = classify(classifier, sigma)
            assert outcome.label_index != label or outcome.tie
            assert 1.0 - fidelity(state, sigma) <= eps + 1e-9
        assert found_any, "probe found no witness on any instance"

    def test_deterministic_given_seed(self, rng, z_classifier):
        rho = DensityMatrix(np.diag([0.55, 0.45]).astype(complex))
        a = random_neighborhood_probe(z_classifier, rho, 0, 0.2, samples=500, seed=4)
        b = random_neighborhood_probe(z_classifier, rho, 0, 0.2, samples=500, seed=4)
        assert (a is None) == (b is None)
        if a is not None:
            np.testing.assert_array_equal(a.matrix, b.matrix)
