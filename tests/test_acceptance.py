"""Acceptance suite: one test per shipped guarantee, at pinned tolerances.

Each test prints a single PASS line with its measured figures; the suite
is the gate for the whole package.  Independent oracles (closed forms,
exhaustive grids, branch-wise constrained maximization) supply every
expected value that is not a direct formula evaluation.
"""

import time

import numpy as np
import pytest

from conftest import classified_instance, max_tied_overlap
from qrv.casestudy import generate_qubit_case_study
from qrv.classifiers import LabeledDataset, classify
from qrv.formats import emit_dataset, emit_report
from grid_oracle import SearchGrid, bloch_grid_min_distance, pure_sphere_min_distance
from qrv.sampling import (
    random_classifier,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
)
from sdp_oracle import SolverOptions, solve, sqrt_fidelity_sdp_fixed
from qrv.states import fidelity, pure_to_density, trace_distance
from qrv.verifier import (
    VerifyOptions,
    check_epsilon_robust,
    compute_optimal_bound,
    pure_state_optimal_bound,
    under_robust_accuracy,
    verify_dataset,
)


def report(name, detail):
    print(f"[acceptance] {name}: PASS  ({detail})")


def test_criterion_01_fidelity_dual_path_agreement():
    """Eigendecomposition fidelity and the block SDP agree to 1e-6."""
    rng = np.random.default_rng(101)
    opts = SolverOptions(gap_tol=1e-9, feas_tol=1e-9)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    for dim, pairs in ((2, 34), (4, 33), (8, 33)):
        for _ in range(pairs):
            rho = random_density_matrix(dim, rng)
            sigma = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
            problem = sqrt_fidelity_sdp_fixed(rho, sigma)
            solution = solve(problem, opts)
            assert solution.status == "optimal"
            f_sdp = (-solution.objective_value) ** 2
            f_eig = fidelity(rho, sigma)
            worst = max(worst, abs(f_sdp - f_eig))
            count += 1
    elapsed = time.perf_counter() - start
    assert count == 100
    assert worst <= 1e-6
    assert elapsed < 60.0
    report("criterion 1", f"100 pairs dims 2/4/8, worst |dF|={worst:.2e}, {elapsed:.1f}s")


def test_criterion_02_fuchs_van_de_graaf():
    """1 - sqrt(F) <= T <= sqrt(1 - F) on 200 random pairs."""
    rng = np.random.default_rng(102)
    worst_lo = worst_hi = 0.0
    for i in range(200):
        dim = int(rng.choice([2, 3, 4, 8]))
        rho = random_density_matrix(dim, rng)
        sigma = random_density_matrix(dim, rng, rank=int(rng.integers(1, dim + 1)))
        f = fidelity(rho, sigma)
        t = trace_distance(rho, sigma)
        worst_lo = max(worst_lo, (1.0 - np.sqrt(f)) - t)
        worst_hi = max(worst_hi, t - np.sqrt(1.0 - f))
    assert worst_lo <= 1e-7
    assert worst_hi <= 1e-7
    report("criterion 2", f"200 pairs, slack lo={worst_lo:.2e} hi={worst_hi:.2e}")


def test_criterion_03_margin_bound_soundness():
    """Whenever the margin certifies eps, the exact bound is >= eps - 1e-6."""
    rng = np.random.default_rng(103)
    violations = 0
    checked = 0
    for i in range(100):
        dim = 2 if i % 2 == 0 else 4
        classifier, state, label = classified_instance(
            rng, dim=dim, n_classes=int(rng.integers(2, 4)) if dim == 4 else 2,
            kraus_rank=2 if dim == 4 else 1, min_margin=1e-2,
        )
        margin = classify(classifier, state).margin
        # eps drawn so the margin certificate fires on every instance
        eps = float(np.clip(margin**2 / 2.0 * rng.uniform(0.1, 0.9), 1e-9, 0.99))
        assert margin > np.sqrt(2.0 * eps)
        bound = compute_optimal_bound(classifier, state, label)
        delta = np.inf if bound.unbounded else bound.delta
        checked += 1
        if delta < eps - 1e-6:
            violations += 1
    assert checked == 100
    assert violations == 0
    report("criterion 3", "100 certified instances, zero bound violations")


def test_criterion_04_tied_overlap_closed_form():
    """Branch-wise maximization attains sqrt(1 - (sqrt(p1)-sqrt(p2))^2/2)."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for i in range(50):
        length = int(rng.integers(2, 7))
        p = np.sort(rng.dirichlet(np.ones(length)))[::-1]
        expected = np.sqrt(1.0 - (np.sqrt(p[0]) - np.sqrt(p[1])) ** 2 / 2.0)
        got = max_tied_overlap(p)
        worst = max(worst, abs(got - expected))
    assert worst <= 1e-5
    report("criterion 4", f"50 probability vectors, worst gap {worst:.2e}")


def test_criterion_05_oracle_equivalence_dim2():
    """Exact verdicts match the Bloch-ball grid outside the boundary band."""
    rng = np.random.default_rng(105)
    grid = SearchGrid(resolution=100)
    start = time.perf_counter()
    disagreements = 0
    checked = 0
    while checked < 50:
        classifier, state, label = classified_instance(rng, dim=2, min_margin=1e-2)
        bound = compute_optimal_bound(classifier, state, label)
        delta = np.inf if bound.unbounded else bound.delta
        if np.isfinite(delta):
            side = rng.uniform() < 0.5
            eps = delta - 0.08 if side else delta + 0.08
            if not 1e-4 < eps < 0.99:
                eps = delta * 0.5 if side else min(delta + 0.08, 0.99)
        else:
            eps = 0.5
        eps = float(np.clip(eps, 1e-4, 0.99))
        if np.isfinite(delta) and abs(delta - eps) <= 1e-4:
            continue  # stay outside the tolerated boundary band
        verdict_robust = eps <= delta
        delta_hat, _ = bloch_grid_min_distance(classifier, state, label, grid)
        oracle_robust = delta_hat > eps
        checked += 1
        if verdict_robust != oracle_robust:
            disagreements += 1
    elapsed = time.perf_counter() - start
    assert disagreements == 0
    assert elapsed < 600.0
    report("criterion 5", f"50 instances at 100^3, zero disagreements, {elapsed:.0f}s")


def test_criterion_06_adversarial_validity():
    """Extracted witnesses satisfy all three adversarial conditions."""
    rng = np.random.default_rng(106)
    total = 0
    for _ in range(6):
        classifier, _, _ = classified_instance(rng, dim=2)
        entries = []
        for _ in range(15):
            state = random_density_matrix(2, rng)
            entries.append((state, classify(classifier, state).label_index))
        dataset = LabeledDataset(entries)
        eps = float(rng.uniform(0.01, 0.15))
        result = verify_dataset(classifier, dataset, eps)
        for witness in result.adversarial:
            source, label = dataset.entries[witness.source_index]
            assert classify(classifier, source).label_index == label
            outcome = classify(classifier, witness.sigma)
            assert outcome.label_index != label or outcome.tie
            assert 1.0 - fidelity(source, witness.sigma) <= eps + 1e-5
            total += 1
    assert total > 0
    report("criterion 6", f"{total} extracted witnesses, all three conditions hold")


def test_criterion_07_case_study_table_structure():
    """Two-row table over the regenerated qubit case study behaves like
    the reference experiment: the margin row never exceeds the exact row,
    both fall as eps grows, and the filter is >= 10x faster."""
    classifier, train, _val = generate_qubit_case_study(seed=7)
    assert len(train) == 800
    epsilons = [0.001, 0.002, 0.003, 0.004]
    ura_row, ra_row, ura_times, exact_times, solves = [], [], [], [], []
    for eps in epsilons:
        t0 = time.perf_counter()
        ura = under_robust_accuracy(classifier, train, eps)
        ura_times.append(time.perf_counter() - t0)
        result = verify_dataset(classifier, train, eps, options=VerifyOptions())
        ra_row.append(result.robust_accuracy)
        ura_row.append(ura)
        exact_times.append(result.timings["total_seconds"])
        solves.append(result.solver_stats["sdp_solves"])
        assert ura == result.under_approx_robust_accuracy
    for ura, ra in zip(ura_row, ra_row):
        assert ura <= ra + 1e-12
    for row in (ura_row, ra_row):
        for earlier, later in zip(row, row[1:]):
            assert later <= earlier + 1e-12
    for t_ura, t_exact, n in zip(ura_times, exact_times, solves):
        if n > 0:
            assert t_exact >= 10.0 * t_ura
    detail = " ".join(
        f"eps={eps}: URA={100*u:.2f} RA={100*r:.2f}"
        for eps, u, r in zip(epsilons, ura_row, ra_row)
    )
    report("criterion 7", detail)


def test_criterion_08_pure_versus_mixed_ordering():
    """Pure-state bounds never drop below mixed bounds and match the sweep."""
    rng = np.random.default_rng(108)
    checked = 0
    worst_gap = -np.inf
    worst_sweep = 0.0
    while checked < 30:
        classifier, psi, label = classified_instance(rng, dim=2, pure=True,
                                                     min_margin=1e-2)
        pure = pure_state_optimal_bound(classifier, psi, label,
                                        options=VerifyOptions(seed=42))
        mixed = compute_optimal_bound(classifier, psi, label)
        if pure.unbounded or mixed.unbounded:
            assert pure.unbounded == mixed.unbounded
            continue
        assert pure.status == "ok"
        assert pure.delta >= mixed.delta - 1e-5
        worst_gap = max(worst_gap, mixed.delta - pure.delta)
        sweep, _ = pure_sphere_min_distance(classifier, psi, label, angle_step=1e-3)
        assert pure.delta == pytest.approx(sweep, abs=2e-3)
        worst_sweep = max(worst_sweep, abs(pure.delta - sweep))
        checked += 1
    report(
        "criterion 8",
        f"30 instances, min(pure-mixed)={-worst_gap:.2e}, "
        f"worst sweep gap {worst_sweep:.2e}",
    )


def test_criterion_09_monotonicity_suites():
    """Channels never decrease fidelity; robustness is monotone in eps."""
    rng = np.random.default_rng(109)
    worst = 0.0
    for i in range(100):
        dim = int(rng.choice([2, 4]))
        channel = random_kraus_channel(dim, rng, kraus_rank=int(rng.integers(1, 4)))
        rho = random_density_matrix(dim, rng)
        sigma = random_density_matrix(dim, rng)
        drop = fidelity(rho, sigma) - fidelity(channel.apply(rho), channel.apply(sigma))
        worst = max(worst, drop)
    assert worst <= 1e-7

    violations = 0
    for i in range(50):
        dim = 2 if i % 3 else 4
        classifier, state, label = classified_instance(
            rng, dim=dim, kraus_rank=2 if dim == 4 else 1
        )
        eps_hi = float(rng.uniform(0.01, 0.5))
        eps_lo = eps_hi * float(rng.uniform(0.1, 0.9))
        robust_hi = check_epsilon_robust(classifier, state, label, eps_hi).robust
        robust_lo = check_epsilon_robust(classifier, state, label, eps_lo).robust
        if robust_hi and not robust_lo:
            violations += 1
    assert violations == 0
    report(
        "criterion 9",
        f"fidelity drop <= {worst:.2e} over 100 channels; "
        "0/50 eps-monotonicity violations",
    )


def test_criterion_10_determinism():
    """Fixed seeds reproduce dataset files and reports byte for byte."""
    import json

    docs = []
    for _run in range(2):
        classifier, train, val = generate_qubit_case_study(
            n_train=100, n_val=20, seed=12345
        )
        result = verify_dataset(
            classifier, train, 0.002, options=VerifyOptions(seed=12345)
        )
        docs.append(
            (
                json.dumps(emit_dataset(train), sort_keys=True),
                json.dumps(emit_dataset(val), sort_keys=True),
                json.dumps(emit_report(result, include_timings=False), sort_keys=True),
            )
        )
    assert docs[0][0] == docs[1][0]
    assert docs[0][1] == docs[1][1]
    assert docs[0][2] == docs[1][2]
    report(
        "criterion 10",
        "two seeded runs: dataset train/val and timing-free reports byte-identical",
    )
