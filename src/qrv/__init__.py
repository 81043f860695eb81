"""qrv: robustness verification of quantum classifiers against unknown noise.

The library answers, for a classifier given as a Kraus channel plus a
measurement family: is a correctly classified state still classified the
same way everywhere within fidelity distance epsilon?  It computes a
cheap margin certificate and the exact optimal robust bound from the
two-multiplier fidelity dual (one eigendecomposition per class gap
operator plus a one-dimensional root search per state), and extracts
concrete adversarial states (pure ones for pure inputs on request) when
robustness fails.

The names below are exported lazily (PEP 562): ``import qrv`` loads no
submodule and not numpy, and ``qrv.X`` or ``from qrv import X`` imports
the submodule that defines X on first use.  So ``python -m qrv.cli``
reaches the top of :mod:`qrv.cli` before numpy loads.  The package solves
no SDP and needs only numpy; the interior-point SDP solver that checks
the bound independently lives with the tests (``tests/sdp_oracle.py``).
"""

import importlib

_EXPORTS = {
    "config": ("dimension_cap",),
    "errors": (
        "DimensionMismatch", "MisclassifiedInput", "QrvError", "SchemaError",
        "ValidationError",
    ),
    "states": (
        "DensityMatrix", "PureState", "bloch_vector", "density_from_bloch",
        "fidelity", "hermitian_eigensystem", "matrix_sqrt_psd",
        "project_to_density", "pure_to_density", "sqrt_fidelity", "tensor_product",
        "trace_distance",
    ),
    "channels": (
        "KrausChannel", "compose", "depolarizing", "identity_channel",
        "measure_and_control", "unitary_channel",
    ),
    "classifiers": (
        "BatchClassification", "Classification", "Classifier", "LabeledDataset",
        "Measurement", "accuracy", "class_probabilities", "classify",
        "classify_batch", "computational_measurement",
    ),
    "verifier": (
        "AdversarialWitness", "OptimalBound", "PureBound", "RobustnessCheck",
        "StateVerdict", "VerificationReport", "VerifyOptions",
        "check_epsilon_robust", "compute_optimal_bound", "margin_robust_bound",
        "pure_state_optimal_bound", "under_robust_accuracy", "verify_dataset",
        "verify_epsilons",
    ),
    "oracle": (
        "SearchGrid", "bloch_grid_min_distance", "pure_sphere_min_distance",
        "random_neighborhood_probe",
    ),
    "sampling": (
        "random_classifier", "random_density_matrix", "random_kraus_channel",
        "random_measurement", "random_pure_state", "random_unitary",
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
