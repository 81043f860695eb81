import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from grid_oracle import bloch_vector, density_from_bloch, project_to_density
from qrv.errors import DimensionMismatch, ValidationError
from qrv.sampling import random_density_matrix, random_pure_state
from qrv.states import (
    DensityMatrix,
    PureState,
    fidelity,
    matrix_sqrt_psd,
    pure_to_density,
    sqrt_fidelity,
    trace_distance,
)


class TestPureToDensity:
    def test_basis_state_projector(self):
        rho = pure_to_density(PureState([1, 0]))
        np.testing.assert_allclose(rho.matrix, [[1, 0], [0, 0]], atol=1e-12)

    def test_plus_state(self):
        rho = pure_to_density(PureState([1 / np.sqrt(2), 1 / np.sqrt(2)]))
        np.testing.assert_allclose(rho.matrix, 0.25 * np.full((2, 2), 2.0), atol=1e-12)

    def test_random_vector_is_rank_one(self, rng):
        rho = pure_to_density(random_pure_state(4, rng))
        w = rho.eigenvalues()
        np.testing.assert_allclose(np.trace(rho.matrix), 1.0, atol=1e-12)
        np.testing.assert_allclose(sorted(w), [0, 0, 0, 1], atol=1e-9)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PureState([1.0, 0.1])

    def test_small_norm_drift_renormalized(self):
        psi = PureState([1.0 + 5e-8, 0.0])
        assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-12


class TestMatrixSqrt:
    def test_diagonal(self):
        np.testing.assert_allclose(
            matrix_sqrt_psd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_identity(self):
        np.testing.assert_allclose(matrix_sqrt_psd(np.eye(3)), np.eye(3), atol=1e-12)

    def test_projector_is_own_root(self):
        p = 0.5 * np.ones((2, 2))
        np.testing.assert_allclose(matrix_sqrt_psd(p), p, atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 5, 8, 16])
    def test_square_reconstructs(self, rng, dim):
        rho = random_density_matrix(dim, rng)
        root = matrix_sqrt_psd(rho.matrix)
        np.testing.assert_allclose(root @ root, rho.matrix, atol=1e-7)

    def test_clamps_small_negative_eigenvalues(self):
        m = np.diag([1.0, -5e-7])
        root = matrix_sqrt_psd(m)
        np.testing.assert_allclose(root, np.diag([1.0, 0.0]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValidationError):
            matrix_sqrt_psd(np.diag([1.0, -1e-3]))

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            matrix_sqrt_psd(np.array([[0, 1], [0, 0]], dtype=complex))


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        for dim in (2, 4):
            rho = random_density_matrix(dim, rng)
            assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_states(self):
        zero = pure_to_density(PureState([1, 0]))
        one = pure_to_density(PureState([0, 1]))
        assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-12)

    def test_pure_versus_maximally_mixed(self):
        zero = pure_to_density(PureState([1, 0]))
        mixed = DensityMatrix(np.eye(2) / 2)
        assert fidelity(zero, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_symmetry(self, rng):
        for _ in range(20):
            a = random_density_matrix(3, rng)
            b = random_density_matrix(3, rng)
            assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-8)

    def test_pure_states_reduce_to_overlap(self, rng):
        for _ in range(20):
            psi = random_pure_state(4, rng)
            phi = random_pure_state(4, rng)
            expected = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            got = fidelity(pure_to_density(psi), pure_to_density(phi))
            assert got == pytest.approx(expected, abs=1e-8)

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            fidelity(random_density_matrix(2, rng), random_density_matrix(4, rng))

    def test_pure_and_mixed_on_either_side(self, rng):
        # Every pairing gives the value of its density matrices, symmetrically.
        for dim in (2, 3, 5):
            psi, phi = random_pure_state(dim, rng), random_pure_state(dim, rng)
            rho, sigma = random_density_matrix(dim, rng), random_density_matrix(dim, rng, rank=2)
            for a, b in itertools.product((psi, rho), (phi, sigma)):
                dense = [pure_to_density(s) if isinstance(s, PureState) else s for s in (a, b)]
                assert fidelity(a, b) == pytest.approx(fidelity(*dense), abs=1e-12)
                assert fidelity(a, b) == pytest.approx(fidelity(b, a), abs=1e-12)
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            assert fidelity(psi, phi) == pytest.approx(overlap, abs=1e-15)
            other = random_pure_state(dim + 1, rng)
            for state in (psi, rho):
                for pair in ((state, other), (other, state)):
                    with pytest.raises(DimensionMismatch):
                        fidelity(*pair)

    def test_one_row_or_column_takes_the_euclidean_norm(self, rng):
        # R^dag S with one row or column: its one singular value is its norm.
        for dim in (2, 5, 16):
            psi, phi = random_pure_state(dim, rng), random_pure_state(dim, rng)
            for other in (phi, random_density_matrix(dim, rng)):
                singular = np.linalg.svd(psi.factor.conj().T @ other.factor, compute_uv=False)
                expected = min(float(np.sum(singular)), 1.0)
                assert sqrt_fidelity(psi, other) == pytest.approx(expected, abs=1e-15)
                assert sqrt_fidelity(other, psi) == pytest.approx(expected, abs=1e-15)
            overlap = abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2
            assert sqrt_fidelity(psi, phi) ** 2 == pytest.approx(overlap, abs=1e-15)


class TestTraceDistance:
    def test_zero_on_equal(self, rng):
        rho = random_density_matrix(3, rng)
        assert trace_distance(rho, rho) == pytest.approx(0.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        zero = pure_to_density(PureState([1, 0]))
        one = pure_to_density(PureState([0, 1]))
        assert trace_distance(zero, one) == pytest.approx(1.0, abs=1e-12)

    def test_pure_versus_maximally_mixed(self):
        zero = pure_to_density(PureState([1, 0]))
        mixed = DensityMatrix(np.eye(2) / 2)
        assert trace_distance(zero, mixed) == pytest.approx(0.5, abs=1e-12)

    def test_pure_states_on_either_side(self, rng):
        assert trace_distance(PureState([1, 0]), PureState([.6, .8])) == pytest.approx(
            0.8, abs=1e-12)
        for dim in (2, 3, 5):
            psi, phi = random_pure_state(dim, rng), random_pure_state(dim, rng)
            closed_form = np.sqrt(1.0 - abs(np.vdot(psi.amplitudes, phi.amplitudes)) ** 2)
            assert trace_distance(psi, phi) == pytest.approx(closed_form, abs=1e-12)
            rho = random_density_matrix(dim, rng, rank=2)
            dense = pure_to_density(psi)
            assert trace_distance(psi, rho) == pytest.approx(trace_distance(dense, rho), abs=1e-12)
            assert trace_distance(rho, psi) == pytest.approx(trace_distance(rho, dense), abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000), dim=st.sampled_from([2, 3, 4]))
def test_fuchs_van_de_graaf(seed, dim):
    # 1 - sqrt(F) <= T <= sqrt(1 - F) for arbitrary state pairs.
    gen = np.random.default_rng(seed)
    rho = random_density_matrix(dim, gen)
    sigma = random_density_matrix(dim, gen, rank=gen.integers(1, dim + 1))
    f = fidelity(rho, sigma)
    t = trace_distance(rho, sigma)
    assert 1.0 - np.sqrt(f) <= t + 1e-7
    assert t <= np.sqrt(1.0 - f) + 1e-7


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(2))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="^density matrix has negative eigenvalue -5.000e-01$"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_project_repairs_solver_drift(self):
        drifted = np.diag([1.0 + 2e-8, -1e-8])
        rho = project_to_density(drifted)
        assert rho.eigenvalues()[0] >= 0

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("QRV_MAX_DIM", "2")
        with pytest.raises(ValidationError):
            DensityMatrix(np.eye(4) / 4)

    def test_dimension_cap_precedes_eigendecomposition(self, monkeypatch):
        # The cap bounds the cubic eigvalsh, so it is checked first.
        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh ran before the dimension cap")

        monkeypatch.setenv("QRV_MAX_DIM", "2")
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        with pytest.raises(ValidationError, match="exceeds the configured cap 2"):
            DensityMatrix(np.eye(4) / 4)


@pytest.mark.parametrize("make, value, message", [
    (DensityMatrix, [[1, 0]], "expected a square matrix"),
    (PureState, [], "pure state needs at least one amplitude"),
    (PureState, [np.nan, 0], "amplitudes contain NaN or Inf"),
    (DensityMatrix, [1, 0], "expected a matrix, got array of ndim 1"),
    (DensityMatrix, [[]], "empty matrix"),
], ids=["non_square_density", "no_amplitude", "nan_amplitude", "vector_density",
        "empty_density"])
def test_state_rejection_names_its_message(make, value, message):
    with pytest.raises(ValidationError) as err:
        make(value)
    assert message in str(err.value)


class TestBloch:
    def test_round_trip(self, rng):
        for _ in range(10):
            r = rng.normal(size=3)
            r *= rng.uniform(0, 1) / np.linalg.norm(r)
            rho = density_from_bloch(r)
            np.testing.assert_allclose(bloch_vector(rho), r, atol=1e-12)

    def test_rejects_outside_ball(self):
        with pytest.raises(ValidationError):
            density_from_bloch([1.0, 1.0, 0.0])
