import base64
import functools
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrv.casestudy import generate_qubit_case_study
from qrv.errors import SchemaError, ValidationError
from qrv.formats import (
    BINARY_MIN_ELEMENTS,
    FORMAT_TAG,
    array_to_json,
    emit_adversarial_sidecar,
    emit_classifier,
    emit_dataset,
    emit_report,
    emit_reports,
    emit_state,
    load_classifier,
    load_dataset,
    parse_array,
    parse_classifier,
    parse_dataset,
    parse_state,
    report_runs,
    save_dataset,
    write_json,
)
from qrv.classifiers import Classifier, LabeledDataset, classify
from qrv.cli import main
from qrv.config import PSD_TOL
from qrv.sampling import (
    random_classifier,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
    random_unitary,
)
from qrv.states import DensityMatrix, PureState
from qrv.verifier import check_epsilon_robust, verify_dataset, verify_epsilons


def round_trip(doc):
    return json.loads(json.dumps(doc))


def _pairs(a):
    """``a`` in the ``[re, im]`` pairs layout."""
    return np.stack([a.real, a.imag], axis=-1).tolist()


def _kraus_doc(kraus, operators, labels=("0", "1")):
    """A classifier in the earlier channel-plus-measurement layout, which is
    no longer read, built from arrays as pairs."""
    return {
        "format": FORMAT_TAG, "kind": "classifier", "labels": list(labels),
        "channel": {"dim": kraus[0].shape[1], "kraus": [_pairs(k) for k in kraus]},
        "measurement": {"operators": [_pairs(m) for m in operators]},
    }


def _effects_doc(effects, labels=("0", "1")):
    return {"format": FORMAT_TAG, "kind": "classifier", "labels": list(labels),
            "effects": [_pairs(np.asarray(n, dtype=complex)) for n in effects]}


_Z = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]


class TestStateRoundTrip:
    def test_pure_state_bit_exact(self, rng):
        psi = random_pure_state(4, rng)
        back = parse_state(round_trip(emit_state(psi)))
        assert isinstance(back, PureState)
        np.testing.assert_array_equal(back.amplitudes, psi.amplitudes)

    def test_density_matrix_bit_exact(self, rng):
        rho = random_density_matrix(3, rng)
        back = parse_state(round_trip(emit_state(rho)))
        assert isinstance(back, DensityMatrix)
        np.testing.assert_array_equal(back.matrix, rho.matrix)


class TestChannelClassifierRoundTrip:
    def test_classifier_bit_exact(self, rng):
        c = random_classifier(2, rng, n_classes=3)
        doc = emit_classifier(c)
        assert list(doc) == ["format", "kind", "labels", "effects"]
        back = parse_classifier(round_trip(doc))
        assert back.labels == c.labels
        assert back.dual_effects.tobytes() == c.dual_effects.tobytes()


class TestDatasetRoundTrip:
    def test_mixed_kinds_bit_exact(self, rng):
        dataset = LabeledDataset(
            [
                (random_pure_state(2, rng), 0),
                (random_density_matrix(2, rng), 1),
            ]
        )
        back = parse_dataset(round_trip(emit_dataset(dataset)))
        assert len(back) == 2
        np.testing.assert_array_equal(
            back.entries[0][0].amplitudes, dataset.entries[0][0].amplitudes
        )
        np.testing.assert_array_equal(
            back.entries[1][0].matrix, dataset.entries[1][0].matrix
        )
        assert [label for _, label in back] == [0, 1]

    def test_empty_dataset_round_trip(self):
        doc = emit_dataset(LabeledDataset([]))
        assert doc == {"format": FORMAT_TAG, "kind": "dataset", "states": []}
        assert len(parse_dataset(round_trip(doc))) == 0

    def test_case_study_round_trip(self):
        _, train, _ = generate_qubit_case_study(n_train=10, n_val=2, seed=1)
        doc = emit_dataset(train)
        assert doc == emit_dataset(parse_dataset(round_trip(doc)))


def _dataset_doc(*states):
    return {"format": FORMAT_TAG, "kind": "dataset", "states": list(states)}


_BASIS = {"kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]], "label": 0}
_RUN = {"format": FORMAT_TAG, "kind": "verification_report", "epsilon": 0.1, "seed": 0,
        "verdicts": [{}]}
_one_verdict_runs = functools.partial(report_runs, n=1)


def _report_set(*runs):
    return {"format": FORMAT_TAG, "kind": "verification_report_set", "runs": list(runs)}


# case -> (reader, document, its error as printed)
_BAD_DOCUMENTS = {
    "entry_not_an_object": (
        parse_dataset, _dataset_doc(_BASIS, [[1.0, 0.0], [0.0, 0.0]]),
        "states[1]: expected an object"),
    "classifier_as_dataset": (
        parse_dataset, _effects_doc(_Z),
        "$: expected kind 'dataset', found 'classifier'"),
    "state_kind": (
        parse_dataset, _dataset_doc({**_BASIS, "kind": "mixed"}),
        "states[0]: state kind must be 'pure' or 'density', got 'mixed'"),
    "labels_not_strings": (
        parse_classifier, _effects_doc(_Z, labels=[0, 1]),
        "labels: labels must be an array of strings"),
    "no_states": (
        parse_dataset, {"format": FORMAT_TAG, "kind": "dataset"},
        "$: missing required key 'states'"),
    "states_not_an_array": (
        parse_dataset, {**_dataset_doc(), "states": {}}, "states: states must be an array"),
    "float_label": (
        parse_dataset, _dataset_doc(_BASIS, {**_BASIS, "label": 1.0}),
        "states: entry 1: label must be a nonnegative integer, got 1.0"),
    "dataset_as_report": (
        _one_verdict_runs, _dataset_doc(_BASIS),
        "$: expected a qrv/1 verification report or report set"),
    "report_set_without_runs": (
        _one_verdict_runs, _report_set(), "runs: a report set needs at least one run"),
    "verdict_count": (
        _one_verdict_runs, {**_RUN, "verdicts": [{}, {}]},
        "runs[0].verdicts: expected 1 verdict objects"),
    "epsilon_not_a_number": (
        _one_verdict_runs, {**_RUN, "epsilon": "0.1"},
        "runs[0].epsilon: epsilon must be a real number in the float range, got str"),
    "epsilon_out_of_range": (
        _one_verdict_runs, _report_set(_RUN, {**_RUN, "epsilon": 1.5}),
        "runs[1].epsilon: epsilon must be in (0, 1), got 1.5"),
    "seed_not_an_integer": (
        _one_verdict_runs, {**_RUN, "seed": 0.0}, "runs[0].seed: seed must be an integer"),
}


class TestSchemaErrors:
    def test_wrong_format_tag(self):
        with pytest.raises(SchemaError):
            parse_state({"format": "qrv/999", "kind": "state", "state": {}})

    def test_missing_key_has_path(self):
        doc = {"format": FORMAT_TAG, "kind": "dataset", "states": [{"kind": "pure"}]}
        with pytest.raises(SchemaError) as err:
            parse_dataset(doc)
        assert "states[0]" in str(err.value)

    def test_bad_complex_pair_path(self):
        doc = {
            "format": FORMAT_TAG,
            "kind": "dataset",
            "states": [{"kind": "pure", "data": [[1.0, 0.0], [1.0]], "label": 0}],
        }
        with pytest.raises(SchemaError) as err:
            parse_dataset(doc)
        assert "states[0].data[1]" in str(err.value)

    def test_invalid_state_reported_with_path(self):
        doc = {
            "format": FORMAT_TAG,
            "kind": "dataset",
            "states": [{"kind": "pure", "data": [[2.0, 0.0], [0.0, 0.0]], "label": 0}],
        }
        with pytest.raises(SchemaError) as err:
            parse_dataset(doc)
        assert "states[0].data" in str(err.value)

    def test_negative_label_rejected(self):
        doc = {
            "format": FORMAT_TAG,
            "kind": "dataset",
            "states": [{"kind": "pure", "data": [[1.0, 0.0], [0.0, 0.0]], "label": -1}],
        }
        with pytest.raises(SchemaError):
            parse_dataset(doc)

    def test_ragged_matrix_rejected(self):
        doc = _effects_doc(_Z)
        doc["effects"][0] = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]
        with pytest.raises(SchemaError) as err:
            parse_classifier(doc)
        assert str(err.value) == "effects[0][1]: row has 1 entries, expected 2"
        assert (err.value.path, err.value.message) == (
            "effects[0][1]", "row has 1 entries, expected 2")

    @pytest.mark.parametrize("case", list(_BAD_DOCUMENTS))
    def test_rejection_keeps_message_and_path(self, case):
        parse, doc, message = _BAD_DOCUMENTS[case]
        with pytest.raises(SchemaError) as err:
            parse(round_trip(doc))
        assert str(err.value) == message


_LOW = 10 * PSD_TOL
_EARLIER_LAYOUT = ("$: the 'channel' and 'measurement' layout is no longer read; "
                   "a classifier holds its POVM as 'effects'")
_BAD_CLASSIFIERS = {
    "non-Hermitian effect": (
        _effects_doc([[[1.0, 0.5], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]]]),
        "effects: effect 0 is not Hermitian"),
    "eigenvalue below -PSD_TOL": (
        _effects_doc([np.diag([1.0 + _LOW, -_LOW]), np.diag([-_LOW, 1.0 + _LOW])]),
        "effects: effect 0 has negative eigenvalue"),
    "effects not summing to I": (
        _effects_doc([np.diag([1.0, 0.0]), np.diag([0.0, 0.5])]),
        "effects: effects do not sum to the identity"),
    "single effect": (
        _effects_doc([np.eye(2)], labels=["all"]),
        "effects: a classifier needs at least two effects"),
    "effects not an array": (
        {**_effects_doc(_Z), "effects": {}}, "effects: expected an array of matrices"),
    "no effects": (
        _effects_doc([], labels=[]), "effects: a classifier needs at least two effects"),
    "mixed dims": (
        _effects_doc([np.diag([1.0, 0.0]), np.diag([0.0, 1.0, 1.0, 1.0])]),
        "effects: effects have mixed dims"),
    "label count": (
        _effects_doc(_Z, labels=["a", "b", "c"]), "effects: 3 labels for 2 effects"),
    "earlier layout": (_kraus_doc([np.eye(2)], _Z), _EARLIER_LAYOUT),
    "both layouts": (
        {**_kraus_doc([np.eye(2)], _Z), "effects": _effects_doc(_Z)["effects"]},
        _EARLIER_LAYOUT),
    "measurement only": ({**_effects_doc(_Z), "measurement": {}}, _EARLIER_LAYOUT),
    "neither layout": (
        {"format": FORMAT_TAG, "kind": "classifier", "labels": ["0", "1"]},
        "$: missing required key 'effects'"),
}


class TestEffectsLayout:
    @pytest.mark.parametrize("case", list(_BAD_CLASSIFIERS))
    def test_bad_classifier_is_a_schema_error(self, case, tmp_path):
        doc, message = _BAD_CLASSIFIERS[case]
        with pytest.raises(SchemaError) as err:
            parse_classifier(round_trip(doc))
        assert str(err.value).startswith(message)
        write_json(tmp_path / "c.json", doc)
        dataset = LabeledDataset([(PureState([1, 0]), 0)])
        save_dataset(tmp_path / "d.json", dataset)
        argv = ["verify", str(tmp_path / "c.json"), str(tmp_path / "d.json"),
                "--epsilon", "0.01"]
        assert main(argv) == 2


class TestReportEmission:
    def test_report_and_sidecar_schema(self, rng):
        classifier, train, _ = generate_qubit_case_study(n_train=16, n_val=2, seed=2)
        report = verify_dataset(classifier, train, 0.02)
        doc = emit_report(report)
        assert doc["format"] == FORMAT_TAG
        assert doc["kind"] == "verification_report"
        assert len(doc["verdicts"]) == len(train)
        assert "timings" in doc
        assert "timings" not in emit_report(report, include_timings=False)
        json.dumps(doc)  # must be serializable as-is

        sidecar = emit_adversarial_sidecar(report.adversarial, train)
        # Sidecar entries are themselves a loadable dataset tagged with
        # provenance; labels carry the source entry's true label.
        back = parse_dataset(round_trip(sidecar)) if report.adversarial else None
        if back is not None:
            assert len(back) == report.adversarial_count
            for entry, witness in zip(sidecar["states"], report.adversarial):
                assert entry["source_index"] == witness.source_index
                assert entry["label"] == train.entries[witness.source_index][1]

    def test_report_runs_reads_what_emit_reports_writes(self):
        classifier, train, _ = generate_qubit_case_study(n_train=16, n_val=2, seed=2)
        for epsilons in ([0.02], [0.001, 0.02]):  # a report, then a report set
            reports = verify_epsilons(classifier, train, epsilons)
            doc = round_trip(emit_reports(reports, include_timings=False))
            assert report_runs(doc, len(train)) == [
                round_trip(emit_report(r, include_timings=False)) for r in reports]

    def test_sidecar_refuses_a_witness_without_its_entry(self):
        # A library witness from check_epsilon_robust names no dataset entry,
        # so the sidecar cannot give it its entry's label.
        classifier, train, _ = generate_qubit_case_study(n_train=40, n_val=2, seed=0)
        witnesses = [check.witness for state, label in train
                     if classify(classifier, state).label_index == label
                     and not (check := check_epsilon_robust(classifier, state, label,
                                                            0.004)).robust]
        assert witnesses and witnesses[0].source_index is None
        with pytest.raises(ValidationError, match="witness 0 has no source_index"):
            emit_adversarial_sidecar(witnesses, train)


# Finite doubles with -0.0, subnormals and extreme exponents all likely.
_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]),
)


def _complex_array(shape):
    n = int(np.prod(shape))
    return st.lists(_floats, min_size=2 * n, max_size=2 * n).map(
        lambda xs: np.array(xs, dtype=float).view(complex).reshape(shape)
    )


def _case_id(value):
    """A rejection case's id names its reader as it did when ``ndim`` 1 and
    2 had readers of their own, so each case keeps its id."""
    return {1: "parse_vector", 2: "parse_matrix"}.get(value) if type(value) is int else None


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_vector_round_trip_bit_exact(self, data, n):
        v = data.draw(_complex_array((n,)))
        doc = round_trip(array_to_json(v))
        assert doc == [[z.real, z.imag] for z in v.tolist()]
        assert _same_bits(parse_array(doc, 1, "$"), v)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_matrix_round_trip_bit_exact(self, data, rows, cols):
        m = data.draw(_complex_array((rows, cols)))
        back = parse_array(round_trip(array_to_json(m)), 2, "$")
        assert _same_bits(back, m)
        # The per-element reference: complex(re, im) for every pair.
        reference = np.array([[complex(*pair) for pair in row]
                              for row in round_trip(array_to_json(m))])
        assert _same_bits(back, reference)

    def test_integer_entries_convert_like_complex(self):
        big = [2**53 + 1, -(2**63) - 1, 3 * 2**900 + 1]
        back = parse_array([[x, -x] for x in big], 1, "$")
        assert _same_bits(back, np.array([complex(x, -x) for x in big]))

    @pytest.mark.parametrize(
        "ndim, obj, message",
        [
            (1, [[1.0, 0.0], [True, 0.0]],
             "$[1]: complex numbers must be [re, im] number pairs"),
            (1, [[1.0, "0"]],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (1, [[None, 0.0]],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (1, [[1.0, 0.0], [1.0, 0.0, 0.0]],
             "$[1]: complex numbers must be [re, im] number pairs"),
            (1, [[1.0, [0.0]]],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (1, [{"re": 1.0, "im": 0.0}],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (1, {"re": 1.0, "im": 0.0},
             "$: expected a non-empty array of [re, im] pairs"),
            (2, [[[1.0, 0.0]], [[0.0, False]]],
             "$[1][0]: complex numbers must be [re, im] number pairs"),
            (2, [[[1.0, 0.0], [0.0, None]]],
             "$[0][1]: complex numbers must be [re, im] number pairs"),
            (2, [[[1.0, 0.0, 0.0]]],
             "$[0][0]: complex numbers must be [re, im] number pairs"),
            (2, [[[[1.0], 0.0]]],
             "$[0][0]: complex numbers must be [re, im] number pairs"),
            (2, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
             "$[1]: row has 1 entries, expected 2"),
            (2, [[[1.0, 0.0]], []],
             "$[1]: matrix rows must be non-empty arrays"),
            (2, [[[1.0, 0.0]], {"0": [1.0, 0.0]}],
             "$[1]: matrix rows must be non-empty arrays"),
            (2, [[[1.0, 0.0]], [{"re": 1.0, "im": 0.0}]],
             "$[1][0]: complex numbers must be [re, im] number pairs"),
            (1, [[10**400, 0]],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (2, [[[1, "x"]], []],  # the row's pairs before the next row's shape
             "$[0][0]: complex numbers must be [re, im] number pairs"),
            (1, [[float("inf"), 0], "x"],  # a number is finite
             "$[0]: complex numbers must be [re, im] number pairs"),
            (1, [[float("nan"), 0], [1, 0]],  # whatever else the array holds
             "$[0]: complex numbers must be [re, im] number pairs"),
            (1, [[1, 0], [0, -float("inf")]],
             "$[1]: complex numbers must be [re, im] number pairs"),
            (2, [[[1, 0], [0, 0]], [[0, 0], [float("nan"), 0]]],
             "$[1][1]: complex numbers must be [re, im] number pairs"),
            (2, [[[0, float("inf")]]],
             "$[0][0]: complex numbers must be [re, im] number pairs"),
        ],
        ids=_case_id,
    )
    def test_rejections_keep_message_and_path(self, ndim, obj, message):
        with pytest.raises(SchemaError) as err:
            parse_array(obj, ndim, "$")
        assert str(err.value) == message

    def test_indented_layout_still_loads(self, rng, tmp_path):
        dataset = LabeledDataset(
            [(random_pure_state(3, rng), 0), (random_density_matrix(3, rng), 1)]
        )
        doc = emit_dataset(dataset)
        old, new = tmp_path / "old.json", tmp_path / "new.json"
        with open(old, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
        write_json(new, doc)
        assert "\n" not in new.read_text().rstrip("\n")
        assert json.loads(new.read_text()) == doc
        assert emit_dataset(load_dataset(old)) == doc
        assert emit_dataset(load_dataset(new)) == doc


def _binary(a, shape=None):
    raw = np.ascontiguousarray(a, dtype="<c16").tobytes()
    return {"dtype": "<c16", "shape": list(a.shape if shape is None else shape),
            "base64": base64.b64encode(raw).decode("ascii")}


_VEC = _binary(np.array([0.6, 0.8j]))  # 32 bytes, 44 base64 characters


class TestBinaryLayout:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(1, 2 * BINARY_MIN_ELEMENTS))
    def test_vector_round_trip_in_either_layout(self, data, n):
        v = data.draw(_complex_array((n,)))
        doc = round_trip(array_to_json(v))
        assert isinstance(doc, dict) == (n >= BINARY_MIN_ELEMENTS)
        for layout in (doc, _pairs(v), _binary(v)):
            assert _same_bits(parse_array(round_trip(layout), 1, "$"), v)

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 12), cols=st.integers(1, 12))
    def test_matrix_round_trip_in_either_layout(self, data, rows, cols):
        m = data.draw(_complex_array((rows, cols)))
        doc = round_trip(array_to_json(m))
        assert isinstance(doc, dict) == (rows * cols >= BINARY_MIN_ELEMENTS)
        for layout in (doc, _pairs(m), _binary(m)):
            assert _same_bits(parse_array(round_trip(layout), 2, "$"), m)

    def test_negative_zero_and_extremes_keep_their_bits(self):
        special = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308]
        v = np.resize(np.array(special), 2 * BINARY_MIN_ELEMENTS).view(complex)
        back = parse_array(round_trip(array_to_json(v)), 1, "$")
        assert _same_bits(back, v) and np.signbit(back.real[0])
        assert back.flags.writeable and back.flags.owndata

    def test_writer_keeps_small_arrays_readable(self, rng):
        dataset = LabeledDataset([
            (random_density_matrix(2, rng), 0),
            (random_pure_state(16, rng), 1),
            (random_density_matrix(16, rng), 0),
            (random_pure_state(BINARY_MIN_ELEMENTS, rng), 1),
        ])
        doc = emit_dataset(dataset)
        assert [type(e["data"]) for e in doc["states"]] == [list, list, dict, dict]
        assert doc["states"][2]["data"]["shape"] == [16, 16]

    def test_a_file_may_mix_the_layouts(self, rng, tmp_path):
        dataset = LabeledDataset(
            [(random_density_matrix(8, rng), 0), (random_pure_state(8, rng), 1)])
        doc = emit_dataset(dataset)
        assert [type(e["data"]) for e in doc["states"]] == [dict, list]
        write_json(tmp_path / "d.json", doc)
        back = load_dataset(tmp_path / "d.json")
        assert _same_bits(back.entries[0][0].matrix, dataset.entries[0][0].matrix)
        assert _same_bits(back.entries[1][0].amplitudes, dataset.entries[1][0].amplitudes)

        c = random_classifier(8, rng, n_classes=2)
        doc = emit_classifier(c)
        assert all(isinstance(n, dict) for n in doc["effects"])
        doc["effects"][0] = _pairs(c.dual_effects[0])
        write_json(tmp_path / "c.json", doc)
        back = load_classifier(tmp_path / "c.json")
        assert _same_bits(back.dual_effects, c.dual_effects)

    @pytest.mark.parametrize("indent", [None, 2])
    def test_pairs_files_of_any_layout_still_load(self, rng, tmp_path, indent):
        # Compact pairs, and the indented layout of earlier versions, at sizes
        # now written binary.
        channel = random_kraus_channel(16, rng, kraus_rank=2)
        u = random_unitary(16, rng)
        operators = [u[:, :8] @ u[:, :8].conj().T, u[:, 8:] @ u[:, 8:].conj().T]
        c = Classifier.from_kraus(channel, operators)
        states = [(random_pure_state(256, rng), 0), (random_density_matrix(16, rng), 1)]
        clf_doc = _effects_doc(c.dual_effects)
        data_doc = {"format": FORMAT_TAG, "kind": "dataset", "states": [
            {"kind": "pure", "data": _pairs(states[0][0].amplitudes), "label": 0},
            {"kind": "density", "data": _pairs(states[1][0].matrix), "label": 1}]}
        separators = (",", ":") if indent is None else None
        for name, doc in (("c.json", clf_doc), ("d.json", data_doc)):
            (tmp_path / name).write_text(json.dumps(doc, indent=indent,
                                                    separators=separators))
        back = load_classifier(tmp_path / "c.json")
        assert emit_classifier(back) == emit_classifier(c)
        dataset = load_dataset(tmp_path / "d.json")
        assert emit_dataset(dataset) == emit_dataset(LabeledDataset(states))

    @pytest.mark.parametrize(
        "ndim, obj, message",
        [
            (1, {**_VEC, "order": "C"},
             "$: binary array keys must be ['base64', 'dtype', 'shape']"),
            (1, {k: _VEC[k] for k in ("dtype", "shape")},
             "$: binary array keys must be ['base64', 'dtype', 'shape']"),
            (1, {**_VEC, "dtype": "<c8"}, "$.dtype: dtype must be '<c16', got '<c8'"),
            (1, {**_VEC, "dtype": ">c16"},
             "$.dtype: dtype must be '<c16', got '>c16'"),
            (1, {**_VEC, "shape": 2},
             "$.shape: shape must be a list of positive integers of length 1"),
            (1, {**_VEC, "shape": [1, 2]},
             "$.shape: shape must be a list of positive integers of length 1"),
            (2, {**_VEC, "shape": [2]},
             "$.shape: shape must be a list of positive integers of length 2"),
            (1, {**_VEC, "shape": [True]},
             "$.shape: shape must be a list of positive integers of length 1"),
            (1, {**_VEC, "shape": [0]},
             "$.shape: shape must be a list of positive integers of length 1"),
            (1, {**_VEC, "shape": [-2]},
             "$.shape: shape must be a list of positive integers of length 1"),
            (1, {**_VEC, "shape": [2.0]},
             "$.shape: shape must be a list of positive integers of length 1"),
            (1, {**_VEC, "base64": "!" * 44}, "$.base64: invalid base64"),
            (1, {**_VEC, "base64": "A=" * 22}, "$.base64: invalid base64"),
            (1, {**_VEC, "base64": 42},
             "$.base64: base64 must encode the 32 bytes of shape [2]"),
            (1, {**_VEC, "shape": [3]},
             "$.base64: base64 must encode the 48 bytes of shape [3]"),
            (2, {**_VEC, "shape": [1, 1]},
             "$.base64: base64 must encode the 16 bytes of shape [1, 1]"),
        ],    ids=_case_id,
    )
    def test_rejections_keep_message_and_path(self, ndim, obj, message):
        with pytest.raises(SchemaError) as err:
            parse_array(obj, ndim, "$")
        assert str(err.value) == message

    def test_nan_in_a_binary_density_matrix(self):
        m = np.eye(8, dtype=complex) / 8
        m[3, 5] = np.nan
        doc = {"format": FORMAT_TAG, "kind": "dataset",
               "states": [{"kind": "density", "data": _binary(m), "label": 0}]}
        with pytest.raises(SchemaError) as err:
            parse_dataset(round_trip(doc))
        assert str(err.value) == "states[0].data: matrix contains NaN or Inf entries"

    def test_declared_shape_above_the_cap_fails_before_decoding(self, monkeypatch):
        monkeypatch.delenv("QRV_MAX_DIM", raising=False)
        payload = _binary(np.array([1.0 + 0j]), shape=[2**20])  # 16 bytes
        doc = {"format": FORMAT_TAG, "kind": "dataset",
               "states": [{"kind": "pure", "data": payload, "label": 0}]}

        def forbidden(*args, **kwargs):
            raise AssertionError("decoded before the shape was checked")

        monkeypatch.setattr(base64, "b64decode", forbidden)
        with pytest.raises(SchemaError) as err:
            parse_dataset(doc)
        assert str(err.value) == ("states[0].data.shape: dimension 1048576 exceeds the "
                                  "configured cap 256; raise QRV_MAX_DIM to override")
