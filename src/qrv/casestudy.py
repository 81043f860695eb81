"""Case-study input generators.

The qubit case study: two anchor directions in the X-Z plane of the
Bloch sphere, noisy pure-state samples around each, and a classifier
made of a single y-axis rotation followed by a computational-basis
measurement.  Image inputs: plain/raw PGM grayscale images downscaled to
16 x 16 and amplitude-encoded into an 8-qubit pure state.
"""

from __future__ import annotations

import re

import numpy as np

from .channels import unitary_channel
from .classifiers import Classifier, LabeledDataset
from .errors import ValidationError
from .states import PureState

__all__ = [
    "ry",
    "xz_plane_state",
    "qubit_rotation_classifier",
    "generate_qubit_case_study",
    "amplitude_encode",
    "read_pgm",
    "downscale_area",
    "encode_image",
]

QUBIT_DEFAULTS = {
    "theta_a": 1.0,
    "theta_b": 1.23,
    "theta_star": 0.4835,
    "n_train": 800,
    "n_val": 200,
    "noise_std": 0.15,
}

IMAGE_SIDE = 16  # amplitude-encoded images are 16 x 16 = 256 amplitudes


def ry(theta: float) -> np.ndarray:
    """Rotation exp(-i Y theta / 2) about the Bloch y-axis."""
    c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
    return np.array([[c, -s], [s, c]], dtype=complex)


def xz_plane_state(theta: float) -> PureState:
    """Pure qubit state at polar angle theta in the X-Z Bloch plane."""
    return PureState([np.cos(theta / 2.0), np.sin(theta / 2.0)])


def qubit_rotation_classifier(
    theta_star: float = QUBIT_DEFAULTS["theta_star"],
    labels: tuple[str, str] = ("a", "b"),
) -> Classifier:
    """R_y(theta_star) followed by the computational-basis measurement."""
    projectors = [np.diag(e) for e in np.eye(2)]
    return Classifier.from_kraus(unitary_channel(ry(theta_star)), projectors, labels)


def _sample_anchor_angles(
    anchor: float, other: float, count: int, std: float, rng: np.random.Generator
) -> list[float]:
    """Gaussian angles around the anchor, each redrawn until it lies nearer its
    own anchor than the other one (labels stay consistent); a draw does so
    with probability at least 1/2, so the loop ends."""
    angles = []
    while len(angles) < count:
        theta = float(rng.normal(anchor, std))
        if abs(theta - anchor) <= abs(theta - other):
            angles.append(theta)
    return angles


def generate_qubit_case_study(
    theta_a: float = QUBIT_DEFAULTS["theta_a"],
    theta_b: float = QUBIT_DEFAULTS["theta_b"],
    theta_star: float = QUBIT_DEFAULTS["theta_star"],
    n_train: int = QUBIT_DEFAULTS["n_train"],
    n_val: int = QUBIT_DEFAULTS["n_val"],
    noise_std: float = QUBIT_DEFAULTS["noise_std"],
    seed: int = 0,
) -> tuple[Classifier, LabeledDataset, LabeledDataset]:
    """Classifier plus train/validation datasets for the qubit case study.

    Each dataset holds pure states in the X-Z plane: the first half is
    sampled around ``theta_a`` (label 0), the second half around
    ``theta_b`` (label 1).  Fixed seeds reproduce the datasets exactly.
    """
    for name, angle in (("theta_a", theta_a), ("theta_b", theta_b),
                        ("theta_star", theta_star)):
        if not -np.pi < angle <= np.pi:
            raise ValidationError(f"{name} must lie in (-pi, pi], got {angle}")
    for name, n in (("n_train", n_train), ("n_val", n_val)):
        if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {n!r}")
    if n_train < 2 or n_val < 2:
        raise ValidationError("need at least two samples per dataset")
    if not 0.0 <= noise_std < np.inf:
        raise ValidationError(f"noise_std must be finite and nonnegative, got {noise_std}")
    rng = np.random.default_rng(seed)

    def build(count: int) -> LabeledDataset:
        half_a = count // 2
        half_b = count - half_a
        entries = [
            (xz_plane_state(theta), 0)
            for theta in _sample_anchor_angles(theta_a, theta_b, half_a, noise_std, rng)
        ]
        entries += [
            (xz_plane_state(theta), 1)
            for theta in _sample_anchor_angles(theta_b, theta_a, half_b, noise_std, rng)
        ]
        return LabeledDataset(entries)

    classifier = qubit_rotation_classifier(theta_star)
    return classifier, build(n_train), build(n_val)


# ---------------------------------------------------------------------------
# Amplitude encoding of grayscale images


def amplitude_encode(values) -> PureState:
    """Pure state with amplitudes proportional to the given real values.

    The all-zero input is rejected (its normalization is undefined);
    normalization preserves the relative pattern of the values.
    """
    arr = np.asarray(values, dtype=float).ravel()
    if arr.size == 0:
        raise ValidationError("cannot encode an empty value array")
    if not np.all(np.isfinite(arr)):
        raise ValidationError("values contain NaN or Inf")
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValidationError("cannot amplitude-encode an all-zero image")
    return PureState(arr / norm)


_PGM_HEADER = re.compile(rb"(P[25])" + rb"(?:\s|#[^\r\n]*[\r\n])+(\d+)" * 3 + rb"\s")


def read_pgm(path) -> np.ndarray:
    """Read a plain (P2) or raw (P5) PGM grayscale image as floats.  Width, height
    and maxval (1..65535) follow the magic, each after whitespace or ``#`` comments,
    then one whitespace byte; raw samples above maxval 255 are big-endian 16-bit,
    plain ones are decimal digits, and every sample lies in 0..maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] not in (b"P2", b"P5"):
        raise ValidationError("not a PGM file (magic must be P2 or P5)")
    if (header := _PGM_HEADER.match(data)) is None:
        raise ValidationError("malformed PGM header")
    try:
        width, height, maxval = map(int, header.groups()[1:])
    except ValueError as exc:  # more digits than int() converts
        raise ValidationError("PGM header number is too long") from exc
    if width < 1 or height < 1 or not 1 <= maxval <= 65535:
        raise ValidationError("PGM dimensions must be positive and maxval in 1..65535")
    n, raster = width * height, data[header.end():]
    if header[1] == b"P2":
        if not re.fullmatch(rb"[0-9\s]*", raster):
            raise ValidationError("plain PGM samples must be decimal integers")
        # Exact to 2**53; a longer sample is above maxval either way.
        pixels = np.array(raster.split(), dtype=float)
    else:
        dtype = np.dtype(">u2" if maxval > 255 else np.uint8)
        pixels = np.frombuffer(raster, dtype, min(n, len(raster) // dtype.itemsize))
    if pixels.size < n:
        raise ValidationError(f"PGM has {pixels.size} pixels, expected {width}x{height}")
    if pixels[:n].max() > maxval:
        raise ValidationError(f"PGM samples must lie in 0..{maxval}")
    return pixels[:n].astype(float).reshape(height, width)


def downscale_area(img: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Box (area-average) downscaling, exact for fractional ratios."""
    img = np.asarray(img, dtype=float)
    in_h, in_w = img.shape

    def weights(n_in: int, n_out: int) -> np.ndarray:
        # Weight +0.0 where cell i misses pixel j (np.maximum could keep a -0.0).
        scale = n_in / n_out
        i, j = np.arange(n_out)[:, None], np.arange(n_in)
        overlap = np.minimum((i + 1) * scale, j + 1) - np.maximum(i * scale, j)
        return np.where(overlap > 0.0, overlap, 0.0) / scale

    return weights(in_h, out_h) @ img @ weights(in_w, out_w).T


def encode_image(path) -> PureState:
    """PGM file -> 8-qubit pure state: the image (e.g. a 28 x 28 handwriting
    scan) area-averaged to 16 x 16, whose weights at 16 x 16 are the identity,
    then amplitude-encoded."""
    img = read_pgm(path)
    if min(img.shape) < IMAGE_SIDE:
        raise ValidationError(f"image is {img.shape[0]}x{img.shape[1]}; "
                              f"need at least {IMAGE_SIDE}x{IMAGE_SIDE}")
    return amplitude_encode(downscale_area(img, IMAGE_SIDE, IMAGE_SIDE))
