"""Lifting: a metamorphic oracle for the bound at any dimension.

For a classifier {N_k} on d levels, a state rho, a state tau on m levels and
a unitary U on d*m levels, the lifted instance

    (U (N_k x I_m) U^dag,  U (rho x tau) U^dag)

gives the same class probabilities, so the same label, tie flag and margin,
and the same delta: the lifted flip constraint reads only the partial trace
over the m levels, fidelity does not grow under a partial trace, and
``sigma x tau`` attains it (Nielsen and Chuang, Thm 9.6).  The witness
distance is kept too.  No second solver is needed, so the relation checks
small answers (a qubit case study entry, a random dim-16 instance) at dims
64 to 256, where no other oracle reaches.
"""

import json

import numpy as np
import pytest

from qrv.casestudy import generate_qubit_case_study
from qrv.classifiers import Classifier, LabeledDataset, classify
from qrv.cli import main
from qrv.formats import save_classifier, save_dataset
from qrv.sampling import random_classifier, random_density_matrix, random_unitary
from qrv.states import DensityMatrix
from qrv.verifier import compute_optimal_bound

# These lifts agree to 1.4e-15 (delta) and 1.8e-15 (witness distance).
LIFT_TOL = 1e-13


def lift_classifier(classifier, u):
    """The classifier of effects U (N_k x I) U^dag."""
    identity = np.eye(len(u) // classifier.dim)
    return Classifier([u @ np.kron(n, identity) @ u.conj().T for n in classifier.dual_effects],
                      classifier.labels)


def lift_state(state, tau, u):
    """The state U (rho x tau) U^dag."""
    return DensityMatrix(u @ np.kron(state.matrix, tau.matrix) @ u.conj().T)


def _qubit_cases():
    """The case study's four correct entries of least margin, lifted by 32,
    64, 128 and 128 levels."""
    classifier, train, _ = generate_qubit_case_study(n_train=200, n_val=2, seed=0)
    outcomes = [classify(classifier, state) for state, _ in train]
    order = sorted((o.margin, i) for i, o in enumerate(outcomes)
                   if o.label_index == train.entries[i][1])
    return [(f"qubit{i}", classifier, train.entries[i][0], levels)
            for (_, i), levels in zip(order[:4], (32, 64, 128, 128))]


def _random_cases():
    """Random dim-16 3-class instances with rank-2 states, lifted by 4, 8, 16
    and 16 levels."""
    rng = np.random.default_rng(16)
    cases = []
    for j, levels in enumerate((4, 8, 16, 16)):
        classifier = random_classifier(16, rng, n_classes=3, kraus_rank=2)
        cases.append((f"random{j}", classifier, random_density_matrix(16, rng, rank=2),
                      levels))
    return cases


CASES = _qubit_cases() + _random_cases()


@pytest.mark.parametrize("name, classifier, state, levels", CASES,
                         ids=[case[0] for case in CASES])
def test_lifting_keeps_the_bound(name, classifier, state, levels):
    rng = np.random.default_rng(levels)
    tau = random_density_matrix(levels, rng, rank=2)
    u = random_unitary(classifier.dim * levels, rng)
    lifted_classifier, lifted_state = lift_classifier(classifier, u), lift_state(state, tau, u)

    before, after = classify(classifier, state), classify(lifted_classifier, lifted_state)
    assert (after.label_index, after.tie) == (before.label_index, before.tie)
    assert abs(after.margin - before.margin) <= LIFT_TOL
    bound = compute_optimal_bound(classifier, state)
    lifted = compute_optimal_bound(lifted_classifier, lifted_state)
    assert not bound.unbounded and lifted.argmin_class == bound.argmin_class
    assert abs(lifted.delta - bound.delta) <= LIFT_TOL
    assert abs(lifted.witness_distance - bound.witness_distance) <= LIFT_TOL
    away = classify(lifted_classifier, lifted.witness)
    assert away.label_index != before.label_index and not away.tie


def test_lifted_run_rechecks(tmp_path, capsys):
    # A dim-256 run of lifted random instances: its report and its sidecar of
    # factor witnesses recheck with no problem.
    rng = np.random.default_rng(256)
    classifier = random_classifier(16, rng, n_classes=3, kraus_rank=2)
    u = random_unitary(256, rng)
    lifted_classifier = lift_classifier(classifier, u)
    entries = []
    for _ in range(4):
        state = lift_state(random_density_matrix(16, rng, rank=2),
                           random_density_matrix(16, rng, rank=2), u)
        entries.append((state, classify(lifted_classifier, state).label_index))
    paths = [str(tmp_path / name) for name in ("c.json", "d.json", "r.json", "a.json")]
    save_classifier(paths[0], lifted_classifier)
    save_dataset(paths[1], LabeledDataset(entries))
    assert main(["verify", *paths[:2], "--epsilon", "0.5", "--omit-timings",
                 "--report", paths[2], "--adversarial", paths[3]]) == 0
    sidecar = json.loads((tmp_path / "a.json").read_text())["states"]
    assert sidecar and all("factor" in entry for entry in sidecar)
    capsys.readouterr()
    assert main(["recheck", *paths]) == 0
    assert capsys.readouterr().out.strip().endswith("consistent")
