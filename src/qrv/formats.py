"""Versioned JSON schemas for states, classifiers, datasets and reports.

All documents carry ``"format": "qrv/1"``.  A complex array is nested
``[re, im]`` pairs (a matrix is a row-major list of rows) or, as written
from ``BINARY_MIN_ELEMENTS`` elements up, ``{"dtype": "<c16", "shape": [...],
"base64": "..."}``: its little-endian complex128 bytes, decoded once the
keys, dtype, shape (no dimension above ``dimension_cap()``) and byte count
check out.  Both are read anywhere; parse(emit(x)) == x bit for bit.

One reader, :func:`parse_array`, takes either layout at one or two dims,
and one writer, :func:`array_to_json`, picks the layout by size.  Pairs are
converted whole: a C-level scan must find only int and float in them, and
one ``np.array(..., dtype=float)`` of the right shape is viewed as complex.
Only when that fails does a locator walk the array, building nothing, to
name the first bad element with its path: row by row, each row's shape,
then its pairs, where a number outside the float range is bad too.  A file
that is not UTF-8 or not JSON, or is nested too deeply, is a
:class:`SchemaError` at ``$``, as is a constructor's ValueError at the path
of what it was built from.  :func:`write_json` writes compact JSON
(CPython's C encoder); any layout is read, indented included.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from itertools import chain
from typing import Any

import numpy as np

from .classifiers import Classifier, LabeledDataset
from .config import check_dimension
from .errors import SchemaError
from .states import DensityMatrix, PureState

__all__ = [
    "FORMAT_TAG",
    "emit_state",
    "parse_state",
    "emit_classifier",
    "parse_classifier",
    "emit_dataset",
    "parse_dataset",
    "emit_report",
    "emit_adversarial_sidecar",
    "write_json",
    "read_json",
    "load_classifier",
    "load_dataset",
    "load_sidecar",
    "load_state",
    "save_classifier",
    "save_dataset",
    "save_state",
]

FORMAT_TAG = "qrv/1"
# Readability, not speed: dim-2 states and dim-16 pure vectors stay pairs
BINARY_MIN_ELEMENTS = 64  # (image_exact's 40 vectors load 0.5 ms sooner binary)
_BINARY_KEYS = frozenset({"dtype", "shape", "base64"})


# ---------------------------------------------------------------------------
# Low-level encoding


def array_to_json(a: np.ndarray) -> list | dict:
    """A complex array as pairs, or as a binary payload from
    ``BINARY_MIN_ELEMENTS`` elements up."""
    a = np.ascontiguousarray(a, dtype=complex)
    if a.size < BINARY_MIN_ELEMENTS:
        return a.view(float).reshape(*a.shape, 2).tolist()
    raw = base64.b64encode(a.astype("<c16", copy=False).tobytes()).decode("ascii")
    return {"dtype": "<c16", "shape": list(a.shape), "base64": raw}


def _built(make, *args, path: str):
    """``make(*args)``, its ValueError raised as a SchemaError at ``path``."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from exc


def _binary_array(obj: dict, ndim: int, path: str) -> np.ndarray:
    """A binary payload, checked before it is decoded; a copy, as the
    arrays it feeds may be changed in place."""
    if obj.keys() != _BINARY_KEYS:
        raise SchemaError(f"binary array keys must be {sorted(_BINARY_KEYS)}", path)
    if obj["dtype"] != "<c16":
        raise SchemaError(f"dtype must be '<c16', got {obj['dtype']!r}", f"{path}.dtype")
    shape, text = obj["shape"], obj["base64"]
    if not (isinstance(shape, list) and len(shape) == ndim
            and all(type(n) is int and n > 0 for n in shape)):
        raise SchemaError(f"shape must be a list of positive integers of length {ndim}",
                          f"{path}.shape")
    _built(check_dimension, max(shape), path=f"{path}.shape")
    nbytes = 16 * math.prod(shape)
    sized = isinstance(text, str) and len(text) == 4 * -(-nbytes // 3)
    try:
        raw = base64.b64decode(text, validate=True) if sized else b""
    except ValueError as exc:  # binascii.Error
        raise SchemaError("invalid base64", f"{path}.base64") from exc
    if len(raw) != nbytes:
        raise SchemaError(f"base64 must encode the {nbytes} bytes of shape {shape}",
                          f"{path}.base64")
    return np.frombuffer(raw, dtype="<c16").reshape(shape).astype(complex)


def _is_pair(x: Any) -> bool:
    """``[re, im]`` of floats, or of ints in the float range."""
    return (isinstance(x, (list, tuple)) and len(x) == 2
            and all(type(v) is float or type(v) is int and abs(v) <= sys.float_info.max
                   for v in x))


def _first_bad(obj: list, ndim: int, path: str) -> SchemaError:
    """The error for the first element of ``obj`` that keeps it from being
    ``ndim`` dims of pairs: row by row, each row's shape, then its pairs."""
    rows = [(path, obj)] if ndim == 1 else [(f"{path}[{i}]", row) for i, row in enumerate(obj)]
    for where, row in rows:
        if ndim == 2:
            if not isinstance(row, list) or not row:
                return SchemaError("matrix rows must be non-empty arrays", where)
            if len(row) != len(obj[0]):
                return SchemaError(f"row has {len(row)} entries, expected {len(obj[0])}",
                                   where)
        for j, pair in enumerate(row):
            if not _is_pair(pair):
                return SchemaError("complex numbers must be [re, im] number pairs",
                                   f"{where}[{j}]")
    raise AssertionError(f"{path}: an array that did not convert has no bad element")


def parse_array(obj: Any, ndim: int, path: str) -> np.ndarray:
    """A complex vector (``ndim`` 1) or matrix (2) in either layout."""
    if isinstance(obj, dict) and obj.keys() & _BINARY_KEYS:
        return _binary_array(obj, ndim, path)
    if not isinstance(obj, list) or not obj:
        raise SchemaError("expected a non-empty array of [re, im] pairs" if ndim == 1
                          else "expected a non-empty array of rows", path)
    pairs = obj if ndim == 1 else chain.from_iterable(obj)
    try:
        if set(map(type, chain.from_iterable(pairs))) <= {int, float}:
            a = np.array(obj, dtype=float)
            if a.shape[ndim:] == (2,):
                return a.view(complex).reshape(a.shape[:-1])
    except (TypeError, ValueError, OverflowError):
        pass
    raise _first_bad(obj, ndim, path)


def _require_key(doc: dict, key: str, path: str) -> Any:
    if not isinstance(doc, dict):
        raise SchemaError("expected an object", path)
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}", path)
    return doc[key]


def _check_format(doc: dict, kind: str, path: str) -> None:
    tag = _require_key(doc, "format", path)
    if tag != FORMAT_TAG:
        raise SchemaError(f"unsupported format {tag!r}, expected {FORMAT_TAG!r}", path)
    found = _require_key(doc, "kind", path)
    if found != kind:
        raise SchemaError(f"expected kind {kind!r}, found {found!r}", path)


# ---------------------------------------------------------------------------
# States


def _state_entry(state) -> dict:
    if isinstance(state, PureState):
        return {"kind": "pure", "data": array_to_json(state.amplitudes)}
    return {"kind": "density", "data": array_to_json(state.matrix)}


def _parse_state_entry(obj: Any, path: str):
    kind = _require_key(obj, "kind", path)
    data = _require_key(obj, "data", path)
    if kind not in ("pure", "density"):
        raise SchemaError(f"state kind must be 'pure' or 'density', got {kind!r}", path)
    ndim, make = (1, PureState) if kind == "pure" else (2, DensityMatrix)
    return _built(make, parse_array(data, ndim, f"{path}.data"), path=f"{path}.data")


def emit_state(state) -> dict:
    return {"format": FORMAT_TAG, "kind": "state", "state": _state_entry(state)}


def parse_state(doc: dict):
    _check_format(doc, "state", "$")
    return _parse_state_entry(_require_key(doc, "state", "$"), "state")


# ---------------------------------------------------------------------------
# Classifiers


def emit_classifier(classifier: Classifier) -> dict:
    return {
        "format": FORMAT_TAG,
        "kind": "classifier",
        "labels": list(classifier.labels),
        "effects": [array_to_json(n) for n in classifier.dual_effects],
    }


def _matrix_list(obj: Any, path: str, least: int) -> list[np.ndarray]:
    if not isinstance(obj, list) or len(obj) < least:
        raise SchemaError(f"expected an array of {least} or more matrices", path)
    return [parse_array(m, 2, f"{path}[{i}]") for i, m in enumerate(obj)]


def _parse_kraus_classifier(doc: dict, labels: list) -> Classifier:
    """The earlier layout: ``"channel": {"dim": n, "kraus": [...]}`` and
    ``"measurement": {"operators": [...]}``."""
    from .channels import KrausChannel  # so only this layout loads channels

    channel_doc = _require_key(doc, "channel", "$")
    dim = _require_key(channel_doc, "dim", "channel")
    kraus = _matrix_list(_require_key(channel_doc, "kraus", "channel"), "channel.kraus", 1)
    channel = _built(KrausChannel, kraus, path="channel.kraus")
    if channel.dim_in != dim:
        raise SchemaError(
            f"declared dim {dim} does not match Kraus matrices of dim {channel.dim_in}",
            "channel.dim",
        )
    ops_doc = _require_key(_require_key(doc, "measurement", "$"), "operators", "measurement")
    operators = _matrix_list(ops_doc, "measurement.operators", 2)
    return _built(Classifier.from_kraus, channel, operators, labels, path="measurement")


def parse_classifier(doc: dict) -> Classifier:
    """A classifier in the ``effects`` layout, or in the earlier
    ``channel`` and ``measurement`` one; a document holds exactly one."""
    _check_format(doc, "classifier", "$")
    labels = _require_key(doc, "labels", "$")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels must be an array of strings", "labels")
    if ("effects" in doc) == ("channel" in doc or "measurement" in doc):
        raise SchemaError(
            "a classifier holds either 'effects' or 'channel' and 'measurement'", "$")
    if "effects" not in doc:
        return _parse_kraus_classifier(doc, labels)
    return _built(Classifier, _matrix_list(doc["effects"], "effects", 2), labels,
                  path="effects")


# ---------------------------------------------------------------------------
# Datasets


def emit_dataset(dataset: LabeledDataset) -> dict:
    states = []
    for state, label in dataset:
        entry = _state_entry(state)
        entry["label"] = int(label)
        states.append(entry)
    return {"format": FORMAT_TAG, "kind": "dataset", "states": states}


def parse_dataset(doc: dict) -> LabeledDataset:
    _check_format(doc, "dataset", "$")
    states_doc = _require_key(doc, "states", "$")
    if not isinstance(states_doc, list) or not states_doc:
        raise SchemaError("states must be a non-empty array", "states")
    entries = []
    for i, entry in enumerate(states_doc):
        path = f"states[{i}]"
        state = _parse_state_entry(entry, path)
        label = _require_key(entry, "label", path)
        if not isinstance(label, int) or isinstance(label, bool) or label < 0:
            raise SchemaError("label must be a nonnegative integer", f"{path}.label")
        entries.append((state, label))
    return LabeledDataset(entries)


def emit_adversarial_sidecar(witnesses: list, dataset: LabeledDataset) -> dict:
    """Adversarial examples (``AdversarialWitness`` records) in the dataset
    schema, labeled with the true label of their source entry and annotated
    with the source index."""
    states = []
    for w in witnesses:
        entry = _state_entry(w.sigma)
        entry["label"] = int(dataset.entries[w.source_index][1])
        entry["source_index"] = int(w.source_index)
        entry["target_class"] = int(w.target_class)
        entry["distance"] = float(w.distance)
        states.append(entry)
    return {"format": FORMAT_TAG, "kind": "dataset", "states": states}


# ---------------------------------------------------------------------------
# Reports


def emit_report(report, *, include_timings: bool = True) -> dict:
    """A ``VerificationReport``'s document; timings are wall-clock and can be
    omitted when a byte-reproducible document is needed."""
    doc = {
        "format": FORMAT_TAG,
        "kind": "verification_report",
        "epsilon": report.epsilon,
        "seed": report.seed,
        "n_states": report.n_states,
        "n_correct": report.n_correct,
        "accuracy": report.accuracy,
        "robust_accuracy": report.robust_accuracy,
        "under_approx_robust_accuracy": report.under_approx_robust_accuracy,
        "adversarial_count": report.adversarial_count,
        "verdicts": [v._asdict() for v in report.verdicts],
        "solver_stats": dict(report.solver_stats),
        "warnings": list(report.warnings),
    }
    if include_timings:
        doc["timings"] = dict(report.timings)
    return doc


# ---------------------------------------------------------------------------
# Files


def write_json(path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, separators=(",", ":")) + "\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except UnicodeDecodeError as exc:  # a ValueError, so caught first
            raise SchemaError(f"not UTF-8 text: {exc}", "$") from exc
        except (ValueError, RecursionError) as exc:  # bad syntax, digits or depth
            raise SchemaError(f"invalid JSON: {exc}", "$") from exc


def load_classifier(path) -> Classifier:
    return parse_classifier(read_json(path))


def load_dataset(path) -> LabeledDataset:
    return parse_dataset(read_json(path))


def load_sidecar(path) -> list:
    """A sidecar's ``(state, raw entry)`` pairs; unlike a dataset it may be empty."""
    doc = read_json(path)
    _check_format(doc, "dataset", "$")
    empty = _require_key(doc, "states", "$") == []
    return [] if empty else list(zip((s for s, _ in parse_dataset(doc)), doc["states"]))


def load_state(path):
    return parse_state(read_json(path))


def save_classifier(path, classifier: Classifier) -> None:
    write_json(path, emit_classifier(classifier))


def save_dataset(path, dataset: LabeledDataset) -> None:
    write_json(path, emit_dataset(dataset))


def save_state(path, state) -> None:
    write_json(path, emit_state(state))
