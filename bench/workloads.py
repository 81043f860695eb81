"""Seeded input generators for the benchmark workloads.

Every generator takes the workload seed and an output directory, writes
the classifier and dataset files the timed ``qrv verify`` process reads,
and returns a :class:`Workload` that says how to verify them.  Only the
generated files reach the program under test; the seed stays here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from qrv import DensityMatrix, casestudy, channels, classifiers, cli, formats, sampling


@dataclass(frozen=True)
class Workload:
    """Generated inputs plus the ``verify`` flags that exercise them."""

    name: str
    classifier_path: Path
    dataset_path: Path
    epsilons: tuple[float, ...]
    mode: str = "mixed"

    def verify_args(self, report: Path, adversarial: Path) -> list[str]:
        args = [
            "verify", str(self.classifier_path), str(self.dataset_path),
            "--epsilon", ",".join(repr(e) for e in self.epsilons),
            "--report", str(report), "--adversarial", str(adversarial),
        ]
        if self.mode != "mixed":
            args += ["--mode", self.mode]
        return args


QUBIT_EPSILONS = (0.001, 0.002, 0.003, 0.004)


def _gen_qubit(seed: int, out: Path) -> tuple[Path, Path]:
    prefix = out / "qubit_case"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["gen-qubit", "--seed", str(seed), "--out-prefix", str(prefix)])
    if code != cli.EXIT_OK:
        raise RuntimeError(f"qrv gen-qubit exited {code}")
    return Path(f"{prefix}_classifier.json"), Path(f"{prefix}_train.json")


def qubit_case(seed: int, out: Path) -> Workload:
    # Why: the paper's case study is the flagship traffic; many tiny dim-2
    # SDPs dominate, and the 4-epsilon loop repeats each delta.
    clf, train = _gen_qubit(seed, out)
    return Workload("qubit_case", clf, train, QUBIT_EPSILONS)


def qubit_pure(seed: int, out: Path) -> Workload:
    # Why: the only traffic through pure_state_optimal_bound, the
    # multi-start SLSQP path.
    clf, train = _gen_qubit(seed, out)
    return Workload("qubit_pure", clf, train, (0.004,), mode="pure")


NOISY_DIM = 16
NOISY_CLASSES = 3
NOISY_EPSILON = 0.02
NOISY_EXACT = 16  # entries whose margin leaves the verdict to the exact path
NOISY_CERTIFIED = 32  # entries the margin certifies
NOISY_MAX_MIX = 0.8


def noisy_mixed(seed: int, out: Path) -> Workload:
    # Why: the margin is loose on rank-2 mixed states at dim 16, so the
    # exact path decides both ways, and each large SDP shows solver cost
    # and memory scaling with no epsilon reuse.
    rng = np.random.default_rng(seed)
    clf = sampling.random_classifier(
        NOISY_DIM, rng, n_classes=NOISY_CLASSES, kraus_rank=2
    )
    mean_effect = sum(clf.dual_effects) / NOISY_CLASSES
    anchors = [
        np.linalg.eigh(effect - mean_effect)[1][:, -1] for effect in clf.dual_effects
    ]
    # Each candidate is (1 - t)|v_k><v_k| + t|w><w| with t uniform on
    # [0, 0.8] and w a random pure state.  Candidates are kept by quota, so
    # every seed sends the same number of entries to the exact path;
    # misclassified candidates are dropped.
    threshold = math.sqrt(2.0 * NOISY_EPSILON)
    exact, certified = [], []
    for i in range(100 * (NOISY_EXACT + NOISY_CERTIFIED)):
        k = i % NOISY_CLASSES
        t = rng.uniform(0.0, NOISY_MAX_MIX)
        v = anchors[k]
        w = sampling.random_pure_state(NOISY_DIM, rng).amplitudes
        rho = DensityMatrix((1.0 - t) * np.outer(v, v.conj()) + t * np.outer(w, w.conj()))
        outcome = classifiers.classify(clf, rho)
        if outcome.label_index != k:
            continue
        pool, quota = ((exact, NOISY_EXACT) if outcome.margin <= threshold
                       else (certified, NOISY_CERTIFIED))
        if len(pool) < quota:
            pool.append((rho, k))
        if len(exact) == NOISY_EXACT and len(certified) == NOISY_CERTIFIED:
            break
    else:
        raise RuntimeError(f"seed {seed}: too few exact-path candidates")
    # Interleave the pools so entry order does not reveal the path.
    entries = [e for group in zip(certified[::2], certified[1::2], exact) for e in group]
    clf_path, data_path = out / "noisy_classifier.json", out / "noisy_dataset.json"
    formats.save_classifier(clf_path, clf)
    formats.save_dataset(data_path, classifiers.LabeledDataset(entries))
    return Workload("noisy_mixed", clf_path, data_path, (NOISY_EPSILON,))


IMAGE_ENTRIES = 500
IMAGE_SIDE = 28
IMAGE_EPSILONS = (0.01, 0.02, 0.03, 0.04)
IMAGE_DEPOLARIZING = 0.2


def _stroke_image(rng: np.random.Generator, top: bool) -> np.ndarray:
    """28 x 28 grayscale stroke drawn in the top or bottom rows only."""
    img = rng.integers(0, 9, size=(IMAGE_SIDE, IMAGE_SIDE)).astype(float)
    rows = (2, 11) if top else (16, 25)
    points = np.column_stack([
        rng.uniform(*rows, size=3), rng.uniform(3, IMAGE_SIDE - 4, size=3)
    ])
    yy, xx = np.mgrid[0:IMAGE_SIDE, 0:IMAGE_SIDE]
    for (y0, x0), (y1, x1) in zip(points[:-1], points[1:]):
        seg = np.array([y1 - y0, x1 - x0])
        length2 = max(float(seg @ seg), 1e-9)
        s = np.clip(((yy - y0) * seg[0] + (xx - x0) * seg[1]) / length2, 0.0, 1.0)
        dist = np.hypot(yy - (y0 + s * seg[0]), xx - (x0 + s * seg[1]))
        img = np.maximum(img, np.where(dist <= 1.2, 255.0, 0.0))
    return img


def _write_pgm(path: Path, img: np.ndarray) -> None:
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    path.write_bytes(header + img.astype(np.uint8).tobytes())


def half_plane_classifier() -> classifiers.Classifier:
    """Depolarizing(0.2) on the most significant of 8 qubits, then the
    projective top-half / bottom-half measurement."""
    dim = casestudy.IMAGE_SIDE ** 2
    rest = np.eye(dim // 2, dtype=complex)
    kraus = [np.kron(k, rest) for k in channels.depolarizing(IMAGE_DEPOLARIZING).kraus]
    top = np.kron(np.diag([1.0, 0.0]), rest)
    bottom = np.kron(np.diag([0.0, 1.0]), rest)
    return classifiers.Classifier(
        channels.KrausChannel(kraus),
        classifiers.Measurement([top, bottom]),
        ("top", "bottom"),
    )


def image_margin(seed: int, out: Path) -> Workload:
    # Why: margin-only traffic; parsing dim-256 JSON and classification
    # dominate while the exact path does no work.
    rng = np.random.default_rng(seed)
    image_dir = out / "images"
    image_dir.mkdir(exist_ok=True)
    entries = []
    for i in range(IMAGE_ENTRIES):
        label = i % 2
        path = image_dir / f"{i:04d}.pgm"
        _write_pgm(path, _stroke_image(rng, top=label == 0))
        entries.append((casestudy.encode_image(path), label))
    clf_path, data_path = out / "image_classifier.json", out / "image_dataset.json"
    clf = half_plane_classifier()
    _write_compact(clf_path, {
        "format": formats.FORMAT_TAG, "kind": "classifier", "labels": list(clf.labels),
        "channel": {"dim": clf.dim, "kraus": [_pairs(k) for k in clf.channel.kraus]},
        "measurement": {"operators": [_pairs(m) for m in clf.measurement.operators]},
    })
    _write_compact(data_path, {
        "format": formats.FORMAT_TAG, "kind": "dataset",
        "states": [{"kind": "pure", "data": _pairs(s.amplitudes), "label": label}
                   for s, label in entries],
    })
    return Workload("image_margin", clf_path, data_path, IMAGE_EPSILONS)


EXACT_SIDE = 4  # images are area-averaged to 4 x 4: dim-16 states
EXACT_EPSILONS = (0.001, 0.002, 0.004)
# Entries kept per number of eps values at which the margin leaves the
# verdict to the exact path (3, 2, 1, 0): 18 + 8 + 4 = 30 exact pairs.
EXACT_QUOTA = {3: 6, 2: 4, 1: 4, 0: 26}


def image_exact(seed: int, out: Path) -> Workload:
    # Why: multi-eps exact-path traffic on pure states: stroke images
    # encoded to dim 16 by casestudy, each exact entry solved again for
    # every eps it is exact at; noisy_mixed (one eps) is the bypass.  The
    # classifier is complex, so every SDP is embedded at twice the size and
    # is BLAS-bound; real dim-16 SDPs are interpreter-bound, and their times
    # swing with the host's load.
    rng = np.random.default_rng(seed)
    clf = sampling.random_classifier(EXACT_SIDE ** 2, rng, n_classes=2, kraus_rank=2)
    thresholds = [math.sqrt(2.0 * eps) for eps in EXACT_EPSILONS]
    image_dir = out / "images"
    image_dir.mkdir(exist_ok=True)
    pools = {k: [] for k in EXACT_QUOTA}
    for i in range(200 * sum(EXACT_QUOTA.values())):
        path = image_dir / f"{i:05d}.pgm"
        _write_pgm(path, _stroke_image(rng, top=i % 2 == 0))
        img = casestudy.downscale_area(casestudy.read_pgm(path), EXACT_SIDE, EXACT_SIDE)
        state = casestudy.amplitude_encode(img)
        # The label is the classifier's own answer: every entry is correct.
        outcome = classifiers.classify(clf, state)
        exact_at = sum(outcome.margin <= t for t in thresholds)
        pool = pools[exact_at]
        if len(pool) < EXACT_QUOTA[exact_at]:
            pool.append((state, outcome.label_index))
        else:
            path.unlink()
        if all(len(pools[k]) == q for k, q in EXACT_QUOTA.items()):
            break
    else:
        raise RuntimeError(f"seed {seed}: too few candidates in some margin band")
    # Spread the exact entries among the certified ones.
    exact = pools[3] + pools[2] + pools[1]
    step = len(pools[0]) // len(exact)
    entries = []
    for j, entry in enumerate(exact):
        entries += pools[0][j * step:(j + 1) * step] + [entry]
    entries += pools[0][len(exact) * step:]
    clf_path, data_path = out / "image_exact_classifier.json", out / "image_exact_dataset.json"
    formats.save_classifier(clf_path, clf)
    formats.save_dataset(data_path, classifiers.LabeledDataset(entries))
    return Workload("image_exact", clf_path, data_path, EXACT_EPSILONS)


def _pairs(array: np.ndarray) -> list:
    """``[re, im]`` pairs as ``formats`` writes them, built by numpy."""
    return np.stack([array.real, array.imag], axis=-1).tolist()


def _write_compact(path: Path, doc: dict) -> None:
    # The documents equal formats.emit_classifier / emit_dataset; building
    # and writing them compactly keeps seconds of 256 x 256 matrix
    # encoding out of set-up.  The reader accepts either layout.
    path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


GENERATORS = {
    "qubit_case": qubit_case,
    "qubit_pure": qubit_pure,
    "noisy_mixed": noisy_mixed,
    "image_margin": image_margin,
    "image_exact": image_exact,
}
