import numpy as np
import pytest

from qrv.channels import (
    KrausChannel,
    depolarizing,
    isometry_defect,
    unitary_channel,
)
from qrv.errors import DimensionMismatch, ValidationError
from qrv.sampling import (
    random_density_matrix,
    random_kraus_channel,
    random_unitary,
)
from qrv.states import PAULI_X, DensityMatrix, PureState, fidelity, pure_to_density


IDENTITY = unitary_channel(np.eye(2))
# Measure Z, then flip the outcome-1 branch: every input is reset to |0>.
M0, M1 = np.diag([1.0, 0.0]).astype(complex), np.diag([0.0, 1.0]).astype(complex)
RESET = KrausChannel([M0, PAULI_X @ M1])


def kraus_sum(kraus, rho):
    # Direct evaluation of sum_k E rho E^dag, independent of KrausChannel.apply.
    out = np.zeros_like(rho, dtype=complex)
    for e in kraus:
        out += e @ rho @ e.conj().T
    return out


class TestApply:
    def test_identity_channel(self, rng):
        rho = random_density_matrix(2, rng)
        out = IDENTITY.apply(rho)
        np.testing.assert_allclose(out.matrix, rho.matrix, atol=1e-12)

    def test_bit_flip(self):
        ch = unitary_channel(PAULI_X)
        out = ch.apply(pure_to_density(PureState([1, 0])))
        np.testing.assert_allclose(out.matrix, [[0, 0], [0, 1]], atol=1e-12)

    def test_full_depolarizing_reaches_maximally_mixed(self):
        ch = depolarizing(1.0)
        rho = pure_to_density(PureState([1, 0]))
        out = ch.apply(rho)
        expected = kraus_sum(ch.kraus, rho.matrix)
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(out.matrix, np.eye(2) / 2, atol=1e-12)

    def test_trace_and_psd_preserved(self, rng):
        ch = random_kraus_channel(4, rng, kraus_rank=3)
        for _ in range(10):
            out = ch.apply(random_density_matrix(4, rng))
            assert abs(np.trace(out.matrix) - 1.0) < 1e-8
            assert out.eigenvalues()[0] >= -1e-7

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            IDENTITY.apply(random_density_matrix(4, rng))


class TestDualApply:
    def test_identity(self, rng):
        obs = np.diag([1.0, -1.0])
        np.testing.assert_allclose(IDENTITY.dual_apply(obs), obs)

    def test_unitary_conjugation(self, rng):
        u = random_unitary(3, rng)
        ch = unitary_channel(u)
        obs = np.diag([1.0, 0.0, -1.0])
        np.testing.assert_allclose(
            ch.dual_apply(obs), u.conj().T @ obs @ u, atol=1e-12
        )

    def test_duality_identity(self, rng):
        # tr(A channel(rho)) = tr(dual(A) rho) on random two-qubit pairs.
        ch = random_kraus_channel(4, rng, kraus_rank=2)
        for _ in range(20):
            g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            obs = g + g.conj().T
            rho = random_density_matrix(4, rng)
            lhs = np.trace(obs @ ch.apply(rho).matrix)
            rhs = np.trace(ch.dual_apply(obs) @ rho.matrix)
            assert abs(lhs - rhs) < 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            IDENTITY.dual_apply(np.array([[0, 1], [0, 0]]))


class TestCompose:
    # Sequential channels in the Heisenberg picture: the dual of
    # outer . inner is inner^dag . outer^dag, as a noisy classifier's
    # effects are built.
    def test_identity_is_neutral(self, rng):
        ch = random_kraus_channel(2, rng, kraus_rank=2)
        obs = np.diag([1.0, -1.0])
        np.testing.assert_allclose(
            ch.dual_apply(IDENTITY.dual_apply(obs)), ch.dual_apply(obs), atol=1e-12
        )

    def test_double_bit_flip_is_identity(self, rng):
        flip = unitary_channel(PAULI_X)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        obs = g + g.conj().T
        np.testing.assert_allclose(flip.dual_apply(flip.dual_apply(obs)), obs, atol=1e-12)

    def test_matches_product_unitary(self, rng):
        u, v = random_unitary(2, rng), random_unitary(2, rng)
        product = unitary_channel(u @ v)
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            obs = g + g.conj().T
            sequential = unitary_channel(v).dual_apply(unitary_channel(u).dual_apply(obs))
            np.testing.assert_allclose(sequential, product.dual_apply(obs), atol=1e-9)
            assert np.trace(sequential @ rho.matrix) == pytest.approx(
                np.trace(obs @ product.apply(rho).matrix), abs=1e-9
            )

    def test_dimension_mismatch(self, rng):
        with pytest.raises(DimensionMismatch):
            IDENTITY.dual_apply(unitary_channel(np.eye(4)).dual_apply(np.eye(4)))


class TestIsometryDefect:
    # The trace-preservation defect max |sum E^dag E - I| that every
    # Kraus set, measurement and unitary is checked against.
    def test_identity_has_zero_defect(self):
        assert isometry_defect(IDENTITY.kraus) == pytest.approx(0.0, abs=1e-14)

    def test_scaled_identity_flagged(self):
        assert isometry_defect([0.5 * np.eye(2)]) == pytest.approx(0.75, abs=1e-12)
        with pytest.raises(ValidationError):
            KrausChannel([0.5 * np.eye(2)])

    def test_measurement_controlled_circuit(self):
        assert isometry_defect(RESET.kraus) <= 1e-7
        out = RESET.apply(pure_to_density(PureState([0, 1])))
        expected = kraus_sum([M0, PAULI_X @ M1], np.diag([0.0, 1.0]).astype(complex))
        np.testing.assert_allclose(out.matrix, expected, atol=1e-12)
        np.testing.assert_allclose(out.matrix, [[1, 0], [0, 0]], atol=1e-12)


class TestConstructors:
    def test_unitary_channel_identity(self, rng):
        ch = unitary_channel(np.eye(2))
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(ch.apply(rho).matrix, rho.matrix)

    def test_depolarizing_zero_is_identity(self, rng):
        ch = depolarizing(0.0)
        rho = random_density_matrix(2, rng)
        np.testing.assert_allclose(ch.apply(rho).matrix, rho.matrix, atol=1e-12)

    def test_rejects_non_unitary(self):
        with pytest.raises(ValidationError, match="channel is not trace-preserving"):
            unitary_channel(np.diag([1.0, 0.5]))

    @pytest.mark.parametrize("dim", [2, 3, 16])
    def test_rank_one_random_channel_is_the_random_unitary(self, dim):
        [kraus] = random_kraus_channel(dim, np.random.default_rng(dim), kraus_rank=1).kraus
        [unitary] = unitary_channel(random_unitary(dim, np.random.default_rng(dim))).kraus
        np.testing.assert_array_equal(kraus, unitary)

    def test_rejects_bad_strength(self):
        with pytest.raises(ValidationError):
            depolarizing(1.5)

    def test_rejects_non_trace_preserving_kraus(self):
        with pytest.raises(ValidationError):
            KrausChannel([0.5 * np.eye(2)])

    @pytest.mark.parametrize("kraus, message", [
        ([], "channel needs at least one Kraus matrix"),
        ([np.eye(2), np.ones((2, 3))], "inconsistent Kraus shapes: (2, 3) vs (2, 2)"),
    ], ids=["no_kraus_matrix", "two_shapes"])
    def test_rejection_names_its_message(self, kraus, message):
        with pytest.raises(ValidationError) as err:
            KrausChannel(kraus)
        assert message in str(err.value)


class TestFidelityMonotonicity:
    @pytest.mark.parametrize("builder", [
        lambda rng: depolarizing(0.3),
        lambda rng: unitary_channel(random_unitary(2, rng)),
        lambda rng: random_kraus_channel(2, rng, kraus_rank=2),
        lambda rng: RESET,
    ])
    def test_channels_never_decrease_fidelity(self, rng, builder):
        ch = builder(rng)
        for _ in range(10):
            a = random_density_matrix(2, rng)
            b = random_density_matrix(2, rng)
            assert fidelity(ch.apply(a), ch.apply(b)) >= fidelity(a, b) - 1e-7
