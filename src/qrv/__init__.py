"""qrv: robustness verification of quantum classifiers against unknown noise.

A classifier is a POVM, one effect per class; a channel followed by a
measurement is the POVM of its Heisenberg-picture effects
(``Classifier.from_kraus``).  The library answers: is a correctly
classified state still classified the same way everywhere within fidelity
distance epsilon?  It computes a cheap margin certificate and the exact
optimal robust bound from the two-multiplier fidelity dual (one
eigendecomposition per class gap operator plus a one-dimensional root
search per state), extracts concrete adversarial states (pure ones for
pure inputs) when robustness fails, and re-checks a saved report offline
without solving anything.

The names below are exported lazily (PEP 562): ``import qrv`` loads no
submodule and not numpy, and ``qrv.X`` or ``from qrv import X`` imports
the submodule that defines X on first use.  So ``python -m qrv.cli``
reaches the top of :mod:`qrv.cli` before numpy loads.  The package solves
no SDP and needs only numpy; the SDP solver and the dimension-2 grid
oracles that check it live with the tests (``tests/*_oracle.py``).
"""

import importlib

_EXPORTS = {
    "config": ("dimension_cap",),
    "errors": (
        "DimensionMismatch", "MisclassifiedInput", "QrvError", "SchemaError",
        "ValidationError",
    ),
    "states": (
        "DensityMatrix", "PureState", "fidelity", "matrix_sqrt_psd",
        "pure_to_density", "sqrt_fidelity", "trace_distance",
    ),
    "channels": ("KrausChannel", "depolarizing", "unitary_channel"),
    "classifiers": (
        "BatchClassification", "Classification", "Classifier", "LabeledDataset",
        "accuracy", "classify", "classify_batch",
    ),
    "verifier": (
        "AdversarialWitness", "OptimalBound", "PureBound", "RobustnessCheck",
        "StateVerdict", "VerificationReport", "VerifyOptions",
        "check_epsilon_robust", "compute_optimal_bound", "margin_robust_bound",
        "pure_state_optimal_bound", "under_robust_accuracy", "verify_dataset",
        "verify_epsilons",
    ),
    "recheck": ("recheck_report",),
    "sampling": (
        "random_classifier", "random_density_matrix", "random_kraus_channel",
        "random_pure_state", "random_unitary",
    ),
    "casestudy": (
        "amplitude_encode", "encode_image", "generate_qubit_case_study",
        "qubit_rotation_classifier", "ry", "xz_plane_state",
    ),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SOURCE)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
