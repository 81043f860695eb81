"""Versioned JSON schemas for states, classifiers, datasets and reports.

All documents carry ``"format": "qrv/1"``.  A complex array is nested
``[re, im]`` pairs (a matrix is a row-major list of rows) or, as written
from ``BINARY_MIN_ELEMENTS`` elements up, ``{"dtype": "<c16", "shape": [...],
"base64": "..."}``: its little-endian complex128 bytes, decoded once the
keys, dtype, shape (no dimension above ``dimension_cap()``) and byte count
check out.  Both are read anywhere; parse(emit(x)) == x bit for bit.

One reader, :func:`parse_array`, takes either layout at one or two dims,
and one writer, :func:`array_to_json`, picks the layout by size.  Pairs are
checked row by row, each row's shape, then its pairs, and the first bad
element is refused at its path; only then is the array converted, by one
``np.array(..., dtype=float)`` viewed as complex.  A number is an int (not a
bool) or a float within the finite float range, so a NaN or infinite pair is
refused at its own path; ``qrv recheck`` reads a recorded figure by the same
rule (:func:`_number`).  A file that is not UTF-8 or not JSON, or is nested
too deeply, is a :class:`SchemaError` at ``$``.  This module checks a document's JSON shape
only (keys, kinds, arrays): every value goes to its constructor, which owns
the value's rules (two or more effects, nonnegative integer labels), and
that constructor's ValueError is a SchemaError at the path it was built
from.  :func:`write_json` writes compact JSON (CPython's C encoder); any
layout is read, indented included.

A classifier is read and written as its POVM ``effects`` only, so reading
a file never loads ``channels``.  Every document ``qrv`` reads or writes is
read and built here: :func:`emit_reports` writes a verification run, for
``qrv verify`` and library callers alike, and :func:`report_runs` reads it
back for ``qrv recheck``; its adversarial sidecar is a dataset, written by
:func:`emit_dataset`, whose entries also carry ``source_index``,
``target_class`` and ``distance``; :func:`emit_classification` and
:func:`emit_under_approx` write the reports of ``qrv classify`` and ``bound``.
"""

from __future__ import annotations

import base64
import json
import math
import sys
from typing import Any

import numpy as np

from .classifiers import Classifier, LabeledDataset, check_state
from .config import check_dimension, check_epsilon
from .errors import SchemaError, ValidationError
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
    "emit_reports",
    "report_runs",
    "emit_adversarial_sidecar",
    "emit_classification",
    "emit_under_approx",
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


def _number(x: Any) -> bool:
    """A JSON number: an int (not a bool) or a float, within the finite float
    range; ``x`` is not converted."""
    return (type(x) is float or type(x) is int) and abs(x) <= sys.float_info.max


def _is_pair(x: Any) -> bool:
    """``[re, im]`` of numbers."""
    return isinstance(x, (list, tuple)) and len(x) == 2 and all(map(_number, x))


def parse_array(obj: Any, ndim: int, path: str) -> np.ndarray:
    """A complex vector (``ndim`` 1) or matrix (2) in either layout."""
    if isinstance(obj, dict) and obj.keys() & _BINARY_KEYS:
        return _binary_array(obj, ndim, path)
    if not isinstance(obj, list) or not obj:
        raise SchemaError("expected a non-empty array of [re, im] pairs" if ndim == 1
                          else "expected a non-empty array of rows", path)
    for i, row in enumerate([obj] if ndim == 1 else obj):
        where = path if ndim == 1 else f"{path}[{i}]"
        if ndim == 2:
            if not isinstance(row, list) or not row:
                raise SchemaError("matrix rows must be non-empty arrays", where)
            if len(row) != len(obj[0]):
                raise SchemaError(f"row has {len(row)} entries, expected {len(obj[0])}", where)
        for j, pair in enumerate(row):
            if not _is_pair(pair):
                raise SchemaError("complex numbers must be [re, im] number pairs",
                                  f"{where}[{j}]")
    a = np.array(obj, dtype=float)
    return a.view(complex).reshape(a.shape[:-1])


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


def _state_kind(state) -> str:
    return "pure" if isinstance(state, PureState) else "density"


def _state_entry(state) -> dict:
    data = state.amplitudes if isinstance(state, PureState) else state.matrix
    return {"kind": _state_kind(state), "data": array_to_json(data)}


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


def parse_classifier(doc: dict) -> Classifier:
    """A classifier in the ``effects`` layout, its POVM; a document in the
    earlier ``channel`` and ``measurement`` layout is a schema error at ``$``."""
    _check_format(doc, "classifier", "$")
    labels = _require_key(doc, "labels", "$")
    if not isinstance(labels, list) or not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels must be an array of strings", "labels")
    if "channel" in doc or "measurement" in doc:
        raise SchemaError("the 'channel' and 'measurement' layout is no longer read; "
                          "a classifier holds its POVM as 'effects'", "$")
    effects = _require_key(doc, "effects", "$")
    if not isinstance(effects, list):
        raise SchemaError("expected an array of matrices", "effects")
    return _built(Classifier, [parse_array(m, 2, f"effects[{i}]")
                               for i, m in enumerate(effects)], labels, path="effects")


# ---------------------------------------------------------------------------
# Datasets


def emit_dataset(dataset: LabeledDataset) -> dict:
    return {"format": FORMAT_TAG, "kind": "dataset",
            "states": [{**_state_entry(state), "label": label} for state, label in dataset]}


def parse_dataset(doc: dict) -> LabeledDataset:
    """A dataset, possibly empty; its labels are checked by ``LabeledDataset``."""
    _check_format(doc, "dataset", "$")
    states = _require_key(doc, "states", "$")
    if not isinstance(states, list):
        raise SchemaError("states must be an array", "states")
    return _built(LabeledDataset, [
        (_parse_state_entry(entry, f"states[{i}]"), _require_key(entry, "label", f"states[{i}]"))
        for i, entry in enumerate(states)], path="states")


def emit_adversarial_sidecar(witnesses: list, dataset: LabeledDataset) -> dict:
    """Adversarial examples (``AdversarialWitness`` records) as a dataset,
    each labeled with the true label of its source entry, then annotated with
    that entry's index, its target class and its distance."""
    if missing := [j for j, w in enumerate(witnesses) if w.source_index is None]:
        raise ValidationError(f"witness {missing[0]} has no source_index to name its entry")
    doc = emit_dataset(LabeledDataset(
        (w.sigma, dataset.entries[w.source_index][1]) for w in witnesses))
    for entry, w in zip(doc["states"], witnesses):
        entry.update(source_index=int(w.source_index), target_class=int(w.target_class),
                     distance=float(w.distance))
    return doc


# ---------------------------------------------------------------------------
# Reports


def emit_report(report, *, include_timings: bool = True) -> dict:
    """A ``VerificationReport``'s document; timings are wall-clock and can be
    omitted (``under_approx_seconds`` null) for a byte-reproducible document."""
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
    doc["under_approx_seconds"] = report.timings["margin_seconds"] if include_timings else None
    return doc


def emit_reports(reports, *, include_timings: bool = True) -> dict:
    """A ``verify_epsilons`` run's document: its one report's, or a
    ``verification_report_set`` of its ``runs`` in order."""
    docs = [emit_report(r, include_timings=include_timings) for r in reports]
    return docs[0] if len(docs) == 1 else {
        "format": FORMAT_TAG, "kind": "verification_report_set", "runs": docs}


def report_runs(doc: Any, n: int) -> list[dict]:
    """A report's one run or a report set's runs, each with ``n`` verdicts, a radius, a seed."""
    kind = doc.get("kind") if isinstance(doc, dict) else None
    runs = doc.get("runs") if kind == "verification_report_set" else [doc]
    if (kind not in ("verification_report", "verification_report_set")
            or doc.get("format") != FORMAT_TAG or not isinstance(runs, list)):
        raise SchemaError(f"expected a {FORMAT_TAG} verification report or report set")
    if not runs:
        raise SchemaError("a report set needs at least one run", "runs")
    for j, run in enumerate(runs):
        verdicts = run.get("verdicts") if isinstance(run, dict) else None
        if not (isinstance(verdicts, list) and len(verdicts) == n
                and all(isinstance(v, dict) for v in verdicts)):
            raise SchemaError(f"expected {n} verdict objects", f"runs[{j}].verdicts")
        _built(check_epsilon, run.get("epsilon"), path=f"runs[{j}].epsilon")
        if type(run.get("seed")) is not int:
            raise SchemaError("seed must be an integer", f"runs[{j}].seed")
    return runs


def emit_classification(batch, labels) -> dict:
    """A ``classification_report``: the accuracy of a ``BatchClassification``
    against the dataset's ``labels``, and one row per entry."""
    if not labels:
        raise ValidationError("batch is empty")
    rows = [{"index": i, "label": label, "predicted": predicted, "margin": margin,
             "tie": tie, "correct": predicted == label}
            for i, (label, predicted, margin, tie) in enumerate(zip(
                labels, batch.labels.tolist(), batch.margins.tolist(), batch.ties.tolist()))]
    return {"format": FORMAT_TAG, "kind": "classification_report",
            "accuracy": sum(row["correct"] for row in rows) / len(rows), "labels": rows}


def emit_under_approx(columns) -> dict:
    """An ``under_approx_report``: one column per ``(epsilon, URA)`` pair, URA
    the margin bound's under-approximated robust accuracy at that epsilon."""
    return {"format": FORMAT_TAG, "kind": "under_approx_report",
            "columns": [{"epsilon": eps, "under_approx_robust_accuracy": ura}
                        for eps, ura in columns]}


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


def load_sidecar(path, dim: int) -> list:
    """A sidecar's ``(state, raw entry)`` pairs, states of dim ``dim``."""
    doc = read_json(path)
    pairs = list(zip((s for s, _ in parse_dataset(doc)), doc["states"]))
    for j, (state, _) in enumerate(pairs):
        _built(check_state, state, dim, path=f"states[{j}]")
    return pairs


def load_state(path):
    return parse_state(read_json(path))


def save_classifier(path, classifier: Classifier) -> None:
    write_json(path, emit_classifier(classifier))


def save_dataset(path, dataset: LabeledDataset) -> None:
    write_json(path, emit_dataset(dataset))


def save_state(path, state) -> None:
    write_json(path, emit_state(state))
