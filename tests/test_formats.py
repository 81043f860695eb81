import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qrv.casestudy import generate_qubit_case_study
from qrv.errors import SchemaError
from qrv.formats import (
    FORMAT_TAG,
    emit_adversarial_sidecar,
    emit_channel,
    emit_classifier,
    emit_dataset,
    emit_report,
    emit_state,
    load_dataset,
    matrix_to_json,
    parse_channel,
    parse_classifier,
    parse_dataset,
    parse_matrix,
    parse_state,
    parse_vector,
    vector_to_json,
    write_json,
)
from qrv.classifiers import LabeledDataset, classify
from qrv.sampling import (
    random_classifier,
    random_density_matrix,
    random_kraus_channel,
    random_pure_state,
)
from qrv.states import DensityMatrix, PureState
from qrv.verifier import verify_dataset


def round_trip(doc):
    return json.loads(json.dumps(doc))


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
    def test_channel_bit_exact(self, rng):
        ch = random_kraus_channel(2, rng, kraus_rank=3)
        back = parse_channel(round_trip(emit_channel(ch)))
        assert len(back.kraus) == 3
        for a, b in zip(back.kraus, ch.kraus):
            np.testing.assert_array_equal(a, b)

    def test_classifier_bit_exact(self, rng):
        c = random_classifier(2, rng, n_classes=3)
        back = parse_classifier(round_trip(emit_classifier(c)))
        assert back.labels == c.labels
        for a, b in zip(back.measurement.operators, c.measurement.operators):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(back.channel.kraus, c.channel.kraus):
            np.testing.assert_array_equal(a, b)


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

    def test_case_study_round_trip(self):
        _, train, _ = generate_qubit_case_study(n_train=10, n_val=2, seed=1)
        doc = emit_dataset(train)
        assert doc == emit_dataset(parse_dataset(round_trip(doc)))


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
        doc = {
            "format": FORMAT_TAG,
            "kind": "channel",
            "dim": 2,
            "kraus": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]]],
        }
        with pytest.raises(SchemaError):
            parse_channel(doc)

    def test_dim_mismatch_rejected(self):
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        doc = {"format": FORMAT_TAG, "kind": "channel", "dim": 4, "kraus": [eye]}
        with pytest.raises(SchemaError) as err:
            parse_channel(doc)
        assert "dim" in str(err.value)


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


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestCodec:
    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), n=st.integers(1, 8))
    def test_vector_round_trip_bit_exact(self, data, n):
        v = data.draw(_complex_array((n,)))
        doc = round_trip(vector_to_json(v))
        assert doc == [[z.real, z.imag] for z in v.tolist()]
        assert _same_bits(parse_vector(doc, "$"), v)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rows=st.integers(1, 5), cols=st.integers(1, 5))
    def test_matrix_round_trip_bit_exact(self, data, rows, cols):
        m = data.draw(_complex_array((rows, cols)))
        back = parse_matrix(round_trip(matrix_to_json(m)), "$")
        assert _same_bits(back, m)
        # The per-element reference: complex(re, im) for every pair.
        reference = np.array([[complex(*pair) for pair in row]
                              for row in round_trip(matrix_to_json(m))])
        assert _same_bits(back, reference)

    def test_integer_entries_convert_like_complex(self):
        big = [2**53 + 1, -(2**63) - 1, 3 * 2**900 + 1]
        back = parse_vector([[x, -x] for x in big], "$")
        assert _same_bits(back, np.array([complex(x, -x) for x in big]))

    @pytest.mark.parametrize(
        "parse, obj, message",
        [
            (parse_vector, [[1.0, 0.0], [True, 0.0]],
             "$[1]: complex numbers must be [re, im] number pairs"),
            (parse_vector, [[1.0, "0"]],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (parse_vector, [[None, 0.0]],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (parse_vector, [[1.0, 0.0], [1.0, 0.0, 0.0]],
             "$[1]: complex numbers must be [re, im] number pairs"),
            (parse_vector, [[1.0, [0.0]]],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (parse_vector, [{"re": 1.0, "im": 0.0}],
             "$[0]: complex numbers must be [re, im] number pairs"),
            (parse_vector, {"re": 1.0, "im": 0.0},
             "$: expected a non-empty array of [re, im] pairs"),
            (parse_matrix, [[[1.0, 0.0]], [[0.0, False]]],
             "$[1][0]: complex numbers must be [re, im] number pairs"),
            (parse_matrix, [[[1.0, 0.0], [0.0, None]]],
             "$[0][1]: complex numbers must be [re, im] number pairs"),
            (parse_matrix, [[[1.0, 0.0, 0.0]]],
             "$[0][0]: complex numbers must be [re, im] number pairs"),
            (parse_matrix, [[[[1.0], 0.0]]],
             "$[0][0]: complex numbers must be [re, im] number pairs"),
            (parse_matrix, [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
             "$[1]: row has 1 entries, expected 2"),
            (parse_matrix, [[[1.0, 0.0]], []],
             "$[1]: matrix rows must be non-empty arrays"),
            (parse_matrix, [[[1.0, 0.0]], {"0": [1.0, 0.0]}],
             "$[1]: matrix rows must be non-empty arrays"),
            (parse_matrix, [[[1.0, 0.0]], [{"re": 1.0, "im": 0.0}]],
             "$[1][0]: complex numbers must be [re, im] number pairs"),
        ],
    )
    def test_rejections_keep_message_and_path(self, parse, obj, message):
        with pytest.raises(SchemaError) as err:
            parse(obj, "$")
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
