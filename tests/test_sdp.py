import numpy as np
import pytest

from qrv.errors import ValidationError
from qrv.sampling import random_density_matrix, random_pure_state
from qrv.states import PureState, pure_to_density, sqrt_fidelity
from sdp_oracle import (
    sqrt_fidelity_sdp_fixed,
    EQ,
    LE,
    LinearConstraint,
    SdpProblem,
    SolverOptions,
    embed_hermitian,
    embed_matrix,
    extract_fidelity_solution,
    project_embedded,
    solve,
    sqrt_fidelity_sdp,
)


class TestSolve:
    def test_minimum_trace_with_floor(self):
        problem = SdpProblem(np.eye(2), [LinearConstraint(-np.eye(2), LE, -1.0)])
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
        assert sol.max_constraint_violation <= 1e-7

    def test_mass_on_smallest_eigenvalue(self):
        problem = SdpProblem(
            np.diag([1.0, 2.0]), [LinearConstraint(np.eye(2), EQ, 1.0)]
        )
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(sol.X, np.diag([1.0, 0.0]), atol=1e-5)

    def test_infeasible_problem_is_not_optimal(self):
        # On unit-trace PSD matrices tr(diag(1,-1) X) >= -1, so the <= -2
        # constraint cannot hold: the solve must not report an optimum.
        problem = SdpProblem(
            np.zeros((2, 2)),
            [
                LinearConstraint(np.eye(2), EQ, 1.0),
                LinearConstraint(np.diag([1.0, -1.0]), LE, -2.0),
            ],
        )
        solution = solve(problem)
        assert solution.status != "optimal"
        assert solution.X is None

    def test_weak_duality_and_complementarity_at_optimum(self, rng):
        rho = random_density_matrix(3, rng)
        sigma = random_density_matrix(3, rng)
        problem = sqrt_fidelity_sdp_fixed(rho, sigma)
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective_value >= sol.stats["dual_objective"] - 1e-6
        assert sol.stats["relcompl"] <= 1e-6
        assert np.linalg.eigvalsh(sol.X)[0] >= -1e-7

    def test_near_feasible_iterates_respect_weak_duality(self, rng):
        rho = random_density_matrix(2, rng)
        sigma = random_density_matrix(2, rng)
        problem = sqrt_fidelity_sdp_fixed(rho, sigma)
        sol = solve(problem, SolverOptions(track_iterates=True))
        tail = [
            step for step in sol.stats["trace"]
            if step["pinf"] <= 1e-7 and step["dinf"] <= 1e-7
        ]
        assert tail, "solver never reached the feasible region"
        for step in tail:
            assert step["primal"] >= step["dual"] - 1e-6


class TestEmbedding:
    def test_real_problem_embeds_to_two_copies(self):
        problem = SdpProblem(np.eye(2), [LinearConstraint(np.eye(2), EQ, 1.0)])
        emb = embed_hermitian(problem)
        np.testing.assert_allclose(emb.objective, np.eye(4))
        assert emb.constraints[0].bound == 2.0

    def test_documented_layout(self):
        h = np.array([[0, 1j], [-1j, 0]])
        expected = np.array(
            [
                [0, 0, 0, -1],
                [0, 0, 1, 0],
                [0, 1, 0, 0],
                [-1, 0, 0, 0],
            ],
            dtype=float,
        )
        np.testing.assert_allclose(embed_matrix(h), expected)

    def test_inner_products_double(self, rng):
        for _ in range(10):
            g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            a = g + g.conj().T
            x = random_density_matrix(3, rng).matrix
            complex_value = float(np.real(np.trace(a @ x)))
            embedded_value = float(np.sum(embed_matrix(a) * embed_matrix(x)))
            assert complex_value == pytest.approx(0.5 * embedded_value, abs=1e-10)

    def test_projection_round_trip(self, rng):
        x = random_density_matrix(4, rng).matrix
        np.testing.assert_allclose(project_embedded(embed_matrix(x)), x, atol=1e-12)

    def test_solve_matches_direct_complex_arithmetic(self, rng):
        # Hermitian objective with a genuinely complex eigenbasis: the
        # optimum puts all unit-trace mass on the smallest eigenvalue.
        g = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        c = g + g.conj().T
        problem = SdpProblem(c, [LinearConstraint(np.eye(3), EQ, 1.0)])
        sol = solve(problem)
        assert sol.status == "optimal"
        assert sol.objective_value == pytest.approx(
            float(np.linalg.eigvalsh(c)[0]), abs=1e-6
        )


class TestFidelityBlock:
    def test_sigma_equal_rho_reaches_one(self, rng):
        rho = random_density_matrix(2, rng)
        problem = sqrt_fidelity_sdp_fixed(rho, rho)
        sol = solve(problem)
        assert -sol.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_orthogonal_pure_states_reach_zero(self):
        rho = pure_to_density(PureState([1, 0]))
        sigma = pure_to_density(PureState([0, 1]))
        problem = sqrt_fidelity_sdp_fixed(rho, sigma)
        sol = solve(problem)
        assert -sol.objective_value == pytest.approx(0.0, abs=1e-6)

    def test_matches_eigendecomposition_fidelity(self, rng):
        for _ in range(5):
            rho = random_density_matrix(2, rng)
            sigma = random_density_matrix(2, rng)
            problem = sqrt_fidelity_sdp_fixed(rho, sigma)
            sol = solve(problem)
            sqrt_f, sigma_block = extract_fidelity_solution(problem, sol.X)
            assert sqrt_f**2 == pytest.approx(
                sqrt_fidelity(rho, sigma) ** 2, abs=1e-6
            )
            np.testing.assert_allclose(sigma_block, sigma.matrix, atol=1e-5)

    def test_fixed_pair_builder_compresses_both_blocks(self, rng):
        # Rank-deficient pairs pin singular blocks; the dedicated builder
        # compresses both ranges so the solver keeps a strict interior.
        for _ in range(8):
            dim = int(rng.choice([2, 4]))
            rho = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            sigma = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            problem = sqrt_fidelity_sdp_fixed(rho, sigma)
            sol = solve(problem, SolverOptions(gap_tol=1e-9, feas_tol=1e-9))
            assert sol.status == "optimal"
            sqrt_f, sigma_block = extract_fidelity_solution(problem, sol.X)
            assert sqrt_f == pytest.approx(sqrt_fidelity(rho, sigma), abs=1e-7)
            np.testing.assert_allclose(sigma_block, sigma.matrix, atol=1e-5)

    def test_free_sigma_attains_one(self, rng):
        rho = random_density_matrix(2, rng)
        problem = sqrt_fidelity_sdp(rho, [(np.eye(2), EQ, 1.0)])
        sol = solve(problem)
        assert -sol.objective_value == pytest.approx(1.0, abs=1e-6)

    def test_rank_deficient_pin_is_compressed(self, rng):
        rho = pure_to_density(random_pure_state(4, rng))
        problem = sqrt_fidelity_sdp(rho, [(np.eye(4), EQ, 1.0)])
        assert problem.pinned_rank == 1
        assert problem.variable_dim == 5

    def test_malformed_sigma_constraints_rejected(self, rng):
        rho = random_density_matrix(2, rng)
        with pytest.raises(ValidationError):
            sqrt_fidelity_sdp(rho, [(np.eye(2), EQ)])
        with pytest.raises(ValidationError):
            sqrt_fidelity_sdp(rho, [(np.eye(3), EQ, 1.0)])


class TestProblemValidation:
    def test_rejects_non_hermitian_objective(self):
        with pytest.raises(ValidationError):
            SdpProblem(np.array([[0, 1], [0, 0]]), [])

    def test_rejects_mismatched_constraint_dim(self):
        with pytest.raises(ValidationError):
            SdpProblem(np.eye(2), [LinearConstraint(np.eye(3), EQ, 1.0)])

    def test_rejects_bad_relation(self):
        with pytest.raises(ValidationError):
            LinearConstraint(np.eye(2), ">=", 1.0)
