"""qrv: robustness verification of quantum classifiers against unknown noise.

The library answers, for a classifier given as a Kraus channel plus a
measurement family: is a correctly classified state still classified the
same way everywhere within fidelity distance epsilon?  It computes a
cheap margin certificate and the exact optimal robust bound from the
two-multiplier fidelity dual (one eigendecomposition per class gap
operator plus a one-dimensional root search per state), and extracts
concrete adversarial states (pure ones for pure inputs on request) when
robustness fails.

The interior-point SDP solver in :mod:`qrv.sdp` is an independent oracle
for the bound; it is not imported here, so ``import qrv`` does not load
scipy.
"""

from .config import dimension_cap
from .errors import (
    DimensionMismatch,
    MisclassifiedInput,
    QrvError,
    SchemaError,
    SolverFailure,
    ValidationError,
)
from .states import (
    DensityMatrix,
    PureState,
    bloch_vector,
    density_from_bloch,
    fidelity,
    hermitian_eigensystem,
    matrix_sqrt_psd,
    project_to_density,
    pure_to_density,
    sqrt_fidelity,
    tensor_product,
    trace_distance,
)
from .channels import (
    KrausChannel,
    compose,
    depolarizing,
    identity_channel,
    measure_and_control,
    unitary_channel,
)
from .classifiers import (
    BatchClassification,
    Classification,
    Classifier,
    LabeledDataset,
    Measurement,
    accuracy,
    class_probabilities,
    classify,
    classify_batch,
    computational_measurement,
)
from .verifier import (
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
)
from .oracle import (
    SearchGrid,
    bloch_grid_min_distance,
    pure_sphere_min_distance,
    random_neighborhood_probe,
)
from .sampling import (
    random_classifier,
    random_density_matrix,
    random_kraus_channel,
    random_measurement,
    random_pure_state,
    random_unitary,
)
from .casestudy import (
    amplitude_encode,
    encode_image,
    generate_qubit_case_study,
    qubit_rotation_classifier,
    ry,
    xz_plane_state,
)

__version__ = "0.1.0"
