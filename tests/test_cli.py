import argparse
import errno
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import qrv.classifiers
from conftest import tied_dataset
from qrv.casestudy import (
    amplitude_encode,
    downscale_area,
    encode_image,
    generate_qubit_case_study,
    read_pgm,
)
from qrv.cli import build_parser, main
from qrv.errors import MisclassifiedInput, ValidationError
from qrv.formats import (
    emit_reports,
    load_classifier,
    load_dataset,
    load_state,
    save_classifier,
    save_dataset,
    write_json,
)
from qrv.classifiers import LabeledDataset, classify_batch
from qrv.sampling import random_classifier, random_density_matrix
from qrv.states import PureState
from qrv.verifier import verify_epsilons


@pytest.fixture
def case_files(tmp_path):
    classifier, train, _ = generate_qubit_case_study(n_train=24, n_val=4, seed=7)
    classifier_path = tmp_path / "classifier.json"
    dataset_path = tmp_path / "train.json"
    save_classifier(classifier_path, classifier)
    save_dataset(dataset_path, train)
    return str(classifier_path), str(dataset_path)


class TestGenQubit:
    def test_defaults_and_determinism(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        args = ["gen-qubit", "--n-train", "40", "--n-val", "10", "--seed", "11"]
        assert main(args + ["--out-prefix", str(out1)]) == 0
        assert main(args + ["--out-prefix", str(out2)]) == 0
        for suffix in ("_classifier.json", "_train.json", "_val.json"):
            b1 = (tmp_path / ("a" + suffix)).read_bytes()
            b2 = (tmp_path / ("b" + suffix)).read_bytes()
            assert b1 == b2

    def test_zero_noise_repeats_anchors(self):
        _, train, _ = generate_qubit_case_study(n_train=6, n_val=2, noise_std=0.0, seed=0)
        amplitudes = {tuple(np.round(s.amplitudes.real, 12)) for s, _ in train}
        assert len(amplitudes) == 2

    def test_rejects_silly_angles(self):
        with pytest.raises(ValidationError):
            generate_qubit_case_study(theta_a=4.0)

    @pytest.mark.parametrize("case", ["one_training_sample", "fractional_n_train",
                                      "float_n_val", "bool_n_train", "no_values",
                                      "nan_value", "negative_noise", "nan_noise", "inf_noise"])
    def test_case_study_rejection_names_its_message(self, case):
        make, message = {
            "one_training_sample": (lambda: generate_qubit_case_study(n_train=1),
                                    "need at least two samples per dataset"),
            "fractional_n_train": (lambda: generate_qubit_case_study(n_train=2.5),
                                   "n_train must be an integer, got 2.5"),
            "float_n_val": (lambda: generate_qubit_case_study(n_val=3.0),
                            "n_val must be an integer, got 3.0"),
            "bool_n_train": (lambda: generate_qubit_case_study(n_train=True),
                             "n_train must be an integer, got True"),
            "negative_noise": (lambda: generate_qubit_case_study(noise_std=-0.1),
                               "noise_std must be finite and nonnegative, got -0.1"),
            "nan_noise": (lambda: generate_qubit_case_study(noise_std=np.nan),
                          "noise_std must be finite and nonnegative, got nan"),
            "inf_noise": (lambda: generate_qubit_case_study(noise_std=np.inf),
                          "noise_std must be finite and nonnegative, got inf"),
            "no_values": (lambda: amplitude_encode([]), "cannot encode an empty value array"),
            "nan_value": (lambda: amplitude_encode([np.nan]), "values contain NaN or Inf"),
        }[case]
        with pytest.raises(ValidationError) as err:
            make()
        assert message in str(err.value)

    def test_numpy_integer_counts_are_accepted(self):
        _, train, val = generate_qubit_case_study(n_train=np.int64(6), n_val=np.int32(2))
        assert (len(train), len(val)) == (6, 2)

    def test_regenerated_case_study_is_well_trained(self):
        # The default sampling spread (0.15 rad, truncated at the label
        # midpoint) leaves a sliver of label-a samples past the trained
        # decision boundary, so accuracy lands near but not at 1.
        from qrv.classifiers import accuracy

        classifier, train, val = generate_qubit_case_study(seed=0)
        assert accuracy(classifier, train) >= 0.95
        assert accuracy(classifier, val) >= 0.95


class TestClassifyCommand:
    def test_perfect_toy_classifier(self, tmp_path, capsys):
        classifier, train, _ = generate_qubit_case_study(
            n_train=8, n_val=2, noise_std=0.0, seed=0
        )
        save_classifier(tmp_path / "c.json", classifier)
        save_dataset(tmp_path / "d.json", train)
        assert main(["classify", str(tmp_path / "c.json"), str(tmp_path / "d.json")]) == 0
        out = capsys.readouterr().out
        assert "accuracy: 1" in out

    def test_flipped_labels_score_zero(self, tmp_path, capsys):
        classifier, train, _ = generate_qubit_case_study(
            n_train=8, n_val=2, noise_std=0.0, seed=0
        )
        flipped = LabeledDataset([(s, 1 - label) for s, label in train])
        save_classifier(tmp_path / "c.json", classifier)
        save_dataset(tmp_path / "d.json", flipped)
        assert main(["classify", str(tmp_path / "c.json"), str(tmp_path / "d.json")]) == 0
        assert "accuracy: 0.000" in capsys.readouterr().out

    def test_schema_violation_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"format": "qrv/1", "kind": "classifier"}')
        code = main(["classify", str(bad), str(bad)])
        assert code == 2
        assert "input error" in capsys.readouterr().err


class TestVerifyCommand:
    def test_report_and_exit_codes(self, case_files, tmp_path, capsys):
        classifier_path, dataset_path = case_files
        report_path = tmp_path / "report.json"
        sidecar_path = tmp_path / "adv.json"
        code = main([
            "verify", classifier_path, dataset_path,
            "--epsilon", "0.002", "--report", str(report_path),
            "--adversarial", str(sidecar_path),
        ])
        assert code == 0  # informational without --strict
        doc = json.loads(report_path.read_text())
        assert doc["kind"] == "verification_report"
        assert doc["under_approx_robust_accuracy"] <= doc["robust_accuracy"] + 1e-12
        out = capsys.readouterr().out
        assert "margin bound" in out and "exact verification" in out

        strict_code = main([
            "verify", classifier_path, dataset_path,
            "--epsilon", "0.002", "--strict",
        ])
        assert strict_code == (1 if doc["adversarial_count"] > 0 else 0)

    def test_boundary_entries_verify_and_recheck(self, tmp_path):
        # Entries tied up to rounding keep the label the batch gave them, and
        # recheck agrees with what verify wrote.
        classifier, dataset = tied_dataset()
        paths = [str(tmp_path / name) for name in ("c.json", "d.json", "r.json", "a.json")]
        save_classifier(paths[0], classifier)
        save_dataset(paths[1], dataset)
        verify = _run(["-m", "qrv.cli", "verify", *paths[:2], "--epsilon", "0.01",
                       "--report", paths[2], "--adversarial", paths[3]])
        assert verify.returncode == 0, verify.stderr
        recheck = _run(["-m", "qrv.cli", "recheck", *paths])
        assert recheck.returncode == 0, recheck.stdout

    def test_multi_epsilon_table(self, case_files, tmp_path):
        classifier_path, dataset_path = case_files
        report_path = tmp_path / "set.json"
        code = main([
            "verify", classifier_path, dataset_path,
            "--epsilon", "0.001,0.004", "--report", str(report_path),
        ])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert doc["kind"] == "verification_report_set"
        assert len(doc["runs"]) == 2

    def test_runs_keep_epsilon_order_and_match_single_runs(self, case_files, tmp_path):
        classifier_path, dataset_path = case_files

        def run(eps):
            report, sidecar = tmp_path / f"r{eps}.json", tmp_path / f"a{eps}.json"
            assert main([
                "verify", classifier_path, dataset_path, "--epsilon", eps,
                "--omit-timings", "--report", str(report),
                "--adversarial", str(sidecar),
            ]) == 0
            return json.loads(report.read_text()), json.loads(sidecar.read_text())

        doc, sidecar = run("0.004,0.001")
        singles = [run("0.004"), run("0.001")]
        assert [r["epsilon"] for r in doc["runs"]] == [0.004, 0.001]
        assert doc["runs"] == [report for report, _ in singles]
        assert sidecar["states"] == [s for _, adv in singles for s in adv["states"]]
        assert doc["runs"][0]["adversarial_count"] > doc["runs"][1]["adversarial_count"]

    @pytest.mark.parametrize("flag", ["--report", "--adversarial"])
    def test_unwritable_output_fails_before_any_work(self, case_files, tmp_path, capsys,
                                                     monkeypatch, flag):
        import qrv.cli

        calls = []
        monkeypatch.setattr(qrv.cli, "verify_epsilons", lambda *a, **k: calls.append(a))
        classifier_path, dataset_path = case_files
        out = tmp_path / "no_such_dir" / "out.json"
        assert main(["verify", classifier_path, dataset_path, "--epsilon", "0.002",
                     flag, str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and calls == []
        assert f"input error: {out}" in captured.err

    @pytest.mark.parametrize("cause", ["missing_input", "unwritable_sidecar"])
    def test_failed_verify_leaves_the_outputs_as_found(self, case_files, tmp_path, cause):
        # The early writability check removes each output file it created,
        # so a failed command leaves none, and keeps one that was there.
        classifier_path, dataset_path = case_files
        report, sidecar = tmp_path / "r.json", tmp_path / "a.json"
        if cause == "missing_input":
            sidecar.write_text("old")
            classifier_path = dataset_path = str(tmp_path / "missing.json")
        else:
            sidecar = tmp_path / "no_such_dir" / "a.json"
        assert main(["verify", classifier_path, dataset_path, "--epsilon", "0.1",
                     "--report", str(report), "--adversarial", str(sidecar)]) == 2
        assert not report.exists()
        assert cause != "missing_input" or sidecar.read_text() == "old"

    @pytest.mark.parametrize("case", ["one_path_twice", "one_path_two_spellings",
                                      "report_is_dataset", "sidecar_is_classifier",
                                      "classify_report_is_dataset",
                                      "bound_report_is_dataset",
                                      "classify_report_links_dataset",
                                      "sidecar_links_report", "out_links_image"])
    def test_output_naming_another_file_of_the_run_exits_2(
            self, case_files, tmp_path, capsys, monkeypatch, case):
        # Refused before anything is read or written: every file is left as
        # found.  A hard link is the file it links, whatever its path.
        import qrv.cli

        monkeypatch.setattr(qrv.cli, "verify_epsilons", lambda *a, **k: 1 / 0)
        monkeypatch.chdir(tmp_path)
        classifier_path, dataset_path = case_files
        (tmp_path / "report.json").write_text("old report")
        (tmp_path / "digit.pgm").write_bytes(b"P5\n16 16\n255\n" + bytes(range(256)))
        for target, link in ((dataset_path, "dataset_link"), ("report.json", "report_link"),
                             ("digit.pgm", "image_link")):
            os.link(target, link)
        verify = ["verify", classifier_path, dataset_path, "--epsilon", "0.002"]
        argv = {
            "one_path_twice": verify + ["--report", "x.json", "--adversarial", "x.json"],
            "one_path_two_spellings": verify + ["--report", "x.json",
                                                "--adversarial", "./x.json"],
            "report_is_dataset": verify + ["--report", dataset_path],
            "sidecar_is_classifier": verify + ["--report", "r.json",
                                               "--adversarial", classifier_path],
            "classify_report_is_dataset": ["classify", classifier_path, dataset_path,
                                           "--report", dataset_path],
            "bound_report_is_dataset": ["bound", classifier_path, dataset_path,
                                        "--epsilon", "0.002", "--report", dataset_path],
            "classify_report_links_dataset": ["classify", classifier_path, dataset_path,
                                              "--report", "dataset_link"],
            "sidecar_links_report": verify + ["--report", "report.json",
                                              "--adversarial", "report_link"],
            "out_links_image": ["encode-image", "digit.pgm", "--out", "image_link"],
        }[case]
        before = {path: path.read_bytes() for path in tmp_path.iterdir()}
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "input error: " in captured.err and " names the same file as " in captured.err
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("epsilons", [(0.002,), (0.004, 0.001, 0.002, 0.008)])
    def test_library_run_writes_the_cli_document(self, case_files, tmp_path, epsilons):
        classifier_path, dataset_path = case_files
        cli, library = tmp_path / "cli.json", tmp_path / "library.json"
        assert main(["verify", classifier_path, dataset_path, "--omit-timings",
                     "--epsilon", ",".join(map(str, epsilons)), "--report", str(cli)]) == 0
        reports = verify_epsilons(load_classifier(classifier_path),
                                  load_dataset(dataset_path), epsilons)
        write_json(library, emit_reports(reports, include_timings=False))
        assert library.read_bytes() == cli.read_bytes()

    def test_prints_each_warning_once(self, tmp_path, capsys):
        # Every run of a table carries the accuracy warning; it is printed once.
        prefix = str(tmp_path / "undertrained")
        assert main(["gen-qubit", "--theta-star", "0.9", "--n-train", "40", "--n-val", "4",
                     "--out-prefix", prefix]) == 0
        capsys.readouterr()
        assert main(["verify", f"{prefix}_classifier.json", f"{prefix}_train.json",
                     "--epsilon", "0.001,0.002,0.003"]) == 0
        err = capsys.readouterr().err
        assert err.count("warning: classifier accuracy 0.5250 ") == 1, err

    def test_omit_timings_is_byte_reproducible(self, case_files, tmp_path):
        classifier_path, dataset_path = case_files
        paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
        for path in paths:
            assert main([
                "verify", classifier_path, dataset_path,
                "--epsilon", "0.002", "--seed", "3",
                "--omit-timings", "--report", str(path),
            ]) == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("command", ["verify", "bound"])
    @pytest.mark.parametrize("eps", ["0", "1", "-0.1", "2.0", "abc", ","])
    def test_bad_epsilon_exits_2(self, tmp_path, capsys, command, eps):
        # The input files do not exist: epsilon is rejected before any is read.
        missing = str(tmp_path / "missing.json")
        assert main([command, missing, missing, "--epsilon", eps]) == 2
        messages = {"abc": "bad --epsilon value 'abc'",
                    ",": "--epsilon needs at least one value"}
        message = messages.get(eps, "epsilon must be in (0, 1)")
        assert f"input error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["gen-qubit", "verify"])
    @pytest.mark.parametrize("value", ["abc", "1"])
    def test_malformed_max_dim_exits_2(self, case_files, tmp_path, capsys, monkeypatch,
                                       command, value):
        # An input error of its own: no traceback, no file blamed for it.
        classifier_path, dataset_path = case_files
        monkeypatch.setenv("QRV_MAX_DIM", value)
        argv = {"gen-qubit": ["gen-qubit", "--out-prefix", str(tmp_path / "q")],
                "verify": ["verify", classifier_path, dataset_path, "--epsilon", "0.002"],
                }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: QRV_MAX_DIM must be "), err
        assert str(tmp_path) not in err

    def test_dataset_of_another_dim_exits_2(self, case_files, tmp_path, capsys):
        classifier_path, _ = case_files
        dataset_path = tmp_path / "dim4.json"
        save_dataset(dataset_path, LabeledDataset([(PureState([1, 0, 0, 0]), 0)]))
        assert main(["verify", classifier_path, str(dataset_path), "--epsilon", "0.002"]) == 2
        err = capsys.readouterr().err
        assert err == "input error: entry 0 has dim 4, classifier expects 2\n", err

    def test_sidecar_of_another_dim_exits_2_at_its_entry(self, case_files, tmp_path, capsys):
        # The sidecar reader refuses a witness by the classifier's state rule,
        # at the entry's path, before the report is read.
        sidecar = tmp_path / "dim4.json"
        save_dataset(sidecar, LabeledDataset([(PureState([1, 0, 0, 0]), 0)]))
        argv = ["recheck", *case_files, str(tmp_path / "report.json"), str(sidecar)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == (f"input error: {sidecar}:states[0]: "
                       "state has dim 4, classifier expects 2\n"), err

    def test_nan_amplitude_exits_2_at_its_pair(self, case_files, tmp_path, capsys):
        # The pairs reader refuses a NaN pair itself, not the state it would build.
        classifier_path, dataset_path = case_files
        doc = json.loads(Path(dataset_path).read_text())
        doc["states"][3]["data"][1] = [float("nan"), 0.0]
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify", classifier_path, str(bad), "--epsilon", "0.002"]) == 2
        err = capsys.readouterr().err
        assert err == (f"input error: {bad}:states[3].data[1]: "
                       "complex numbers must be [re, im] number pairs\n"), err

    @pytest.mark.parametrize("command", ["verify", "classify", "bound"])
    def test_empty_dataset_exits_2(self, case_files, tmp_path, capsys, command):
        # An empty dataset document parses; the command's compatibility check refuses it.
        classifier_path, _ = case_files
        dataset_path = tmp_path / "empty.json"
        save_dataset(dataset_path, LabeledDataset([]))
        radii = [] if command == "classify" else ["--epsilon", "0.002"]
        assert main([command, classifier_path, str(dataset_path), *radii]) == 2
        assert capsys.readouterr().err == "input error: dataset is empty\n"

    def test_error_of_no_input_exits_3(self, case_files, capsys, monkeypatch):
        # A QrvError that is not a ValidationError: one line, no traceback.
        import qrv.cli

        def fail(*args, **kwargs):
            raise MisclassifiedInput("class 1 is ahead of the stated label 0")

        monkeypatch.setattr(qrv.cli, "verify_epsilons", fail)
        assert main(["verify", *case_files, "--epsilon", "0.002"]) == 3
        err = capsys.readouterr().err
        assert err == "error: class 1 is ahead of the stated label 0\n", err

    def test_pure_entries_end_to_end(self, case_files, tmp_path):
        classifier_path, dataset_path = case_files
        report_path = tmp_path / "pure.json"
        sidecar_path = tmp_path / "pure_adv.json"
        code = main([
            "verify", classifier_path, dataset_path,
            "--epsilon", "0.002",
            "--report", str(report_path), "--adversarial", str(sidecar_path),
        ])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert "mode" not in doc
        # The case study's entries are pure, so are its witnesses.
        sidecar = json.loads(sidecar_path.read_text())
        assert len(sidecar["states"]) == doc["adversarial_count"] > 0
        assert all(entry["kind"] == "pure" for entry in sidecar["states"])


class TestBoundCommand:
    def test_prints_under_approx_row(self, case_files, capsys):
        classifier_path, dataset_path = case_files
        assert main(["bound", classifier_path, dataset_path,
                     "--epsilon", "0.001,0.002"]) == 0
        out = capsys.readouterr().out
        assert "margin bound (under-approx)" in out

    def test_classifies_once_for_all_radii(self, case_files, monkeypatch, capsys):
        calls = []
        rows = qrv.classifiers._probability_rows
        monkeypatch.setattr(qrv.classifiers, "_probability_rows",
                            lambda *args: calls.append(args) or rows(*args))
        assert main(["bound", *case_files, "--epsilon", "0.001,0.002,0.004"]) == 0
        assert len(calls) == 1
        [time_row] = [line for line in capsys.readouterr().out.splitlines()
                      if line.startswith("Time (s)")]
        assert len(set(time_row.split()[2:])) == 1  # the one classification's seconds

    def test_report_holds_one_column_per_radius_in_order(self, case_files, tmp_path):
        report = tmp_path / "bound.json"
        assert main(["bound", *case_files, "--epsilon", "0.004,0.001",
                     "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert doc["kind"] == "under_approx_report"
        assert [column["epsilon"] for column in doc["columns"]] == [0.004, 0.001]

    def test_columns_equal_the_verify_runs(self, case_files, tmp_path):
        # The qubit case's margin filter certifies fewer entries at the larger
        # radius, so a column read at the wrong radius or out of order differs.
        bound, verify = tmp_path / "bound.json", tmp_path / "verify.json"
        radii = ["--epsilon", "0.004,0.001"]
        assert main(["bound", *case_files, *radii, "--report", str(bound)]) == 0
        assert main(["verify", *case_files, *radii, "--omit-timings",
                     "--report", str(verify)]) == 0
        columns = [c["under_approx_robust_accuracy"]
                   for c in json.loads(bound.read_text())["columns"]]
        runs = [run["under_approx_robust_accuracy"]
                for run in json.loads(verify.read_text())["runs"]]
        assert columns == runs and columns[0] < columns[1]


def write_pgm_p2(path, pixels, maxval=255):
    rows = [" ".join(str(int(v)) for v in row) for row in pixels]
    path.write_text(f"P2\n# comment\n{pixels.shape[1]} {pixels.shape[0]}\n{maxval}\n"
                    + "\n".join(rows) + "\n")


class TestEncodeImage:
    def test_single_white_pixel_is_basis_state(self, tmp_path):
        img = np.zeros((16, 16))
        img[0, 0] = 255
        write_pgm_p2(tmp_path / "dot.pgm", img)
        out = tmp_path / "state.json"
        assert main(["encode-image", str(tmp_path / "dot.pgm"), "--out", str(out)]) == 0
        state = load_state(out)
        expected = np.zeros(256)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-12)

    def test_uniform_image_is_uniform_superposition(self, tmp_path):
        img = np.full((16, 16), 7.0)
        write_pgm_p2(tmp_path / "flat.pgm", img)
        state = encode_image(tmp_path / "flat.pgm")
        np.testing.assert_allclose(state.amplitudes, np.full(256, 1.0 / 16.0), atol=1e-12)

    def test_relative_pattern_preserved(self, tmp_path, rng):
        img = rng.integers(1, 255, size=(16, 16)).astype(float)
        write_pgm_p2(tmp_path / "noise.pgm", img)
        state = encode_image(tmp_path / "noise.pgm")
        flat = img.ravel()
        np.testing.assert_allclose(
            state.amplitudes * np.linalg.norm(flat), flat, atol=1e-9
        )

    def test_28x28_downscaled_by_area_average(self, tmp_path):
        img = np.outer(np.arange(28), np.ones(28)).astype(float) + 1.0
        write_pgm_p2(tmp_path / "big.pgm", img)
        state = encode_image(tmp_path / "big.pgm")
        assert state.dim == 256
        direct = amplitude_encode(downscale_area(img, 16, 16))
        np.testing.assert_allclose(state.amplitudes, direct.amplitudes, atol=1e-12)

    def test_binary_pgm_matches_plain(self, tmp_path, rng):
        img = rng.integers(0, 255, size=(16, 16))
        write_pgm_p2(tmp_path / "plain.pgm", img)
        header = f"P5\n16 16\n255\n".encode()
        (tmp_path / "raw.pgm").write_bytes(header + img.astype(np.uint8).tobytes())
        np.testing.assert_array_equal(
            read_pgm(tmp_path / "plain.pgm"), read_pgm(tmp_path / "raw.pgm")
        )

    def test_all_zero_rejected(self, tmp_path):
        img = np.zeros((16, 16))
        write_pgm_p2(tmp_path / "zero.pgm", img)
        with pytest.raises(ValidationError):
            encode_image(tmp_path / "zero.pgm")

    def test_undersized_image_exits_2(self, tmp_path, capsys):
        img = np.full((8, 8), 9.0)
        write_pgm_p2(tmp_path / "small.pgm", img)
        code = main(["encode-image", str(tmp_path / "small.pgm"),
                     "--out", str(tmp_path / "out.json")])
        assert code == 2
        assert "input error" in capsys.readouterr().err

    def test_area_average_conserves_mass(self, rng):
        img = rng.uniform(size=(28, 28))
        small = downscale_area(img, 16, 16)
        assert small.mean() == pytest.approx(img.mean(), abs=1e-12)

    def test_16bit_binary_pgm_matches_plain(self, tmp_path, rng):
        img = rng.integers(0, 65536, size=(16, 17))
        img[0, 0] = 65535
        write_pgm_p2(tmp_path / "plain.pgm", img, maxval=65535)
        raw = b"P5\n17 16\n65535\n" + img.astype(">u2").tobytes()
        (tmp_path / "raw.pgm").write_bytes(raw)
        # As in an 8-bit raster, bytes past the image are not read.
        (tmp_path / "trailing.pgm").write_bytes(raw + b"\0")
        plain = read_pgm(tmp_path / "plain.pgm")
        np.testing.assert_array_equal(plain, img)
        np.testing.assert_array_equal(read_pgm(tmp_path / "raw.pgm"), plain)
        np.testing.assert_array_equal(read_pgm(tmp_path / "trailing.pgm"), plain)

    def test_comments_in_every_header_gap(self, tmp_path, rng):
        img = rng.integers(0, 256, size=(16, 16)).astype(np.uint8)
        plain, commented = b"P5\n16 16\n255\n", b"P5# a\n16#c\n # b\n#\r\n16\t#d 1\n255\n"
        for name, header in (("plain.pgm", plain), ("commented.pgm", commented)):
            (tmp_path / name).write_bytes(header + img.tobytes())
        np.testing.assert_array_equal(read_pgm(tmp_path / "commented.pgm"),
                                      read_pgm(tmp_path / "plain.pgm"))

    @pytest.mark.parametrize("case", ["16bit_one_byte_short", "16bit_one_odd_byte",
                                      "maxval_65536", "maxval_0", "bad_magic",
                                      "width_5000_digits", "size_8000_digits",
                                      "plain_negative", "plain_fraction", "plain_exponent",
                                      "plain_above_maxval", "raw_above_maxval",
                                      "truncated_header"])
    def test_bad_pgm_exits_2(self, tmp_path, capsys, case):
        pixels = np.full(256, 7, dtype=">u2").tobytes()
        plain = b"P2\n16 16\n255\n" + b"0 " * 255
        data = {
            "16bit_one_byte_short": b"P5\n16 16\n65535\n" + pixels[:-1],
            "16bit_one_odd_byte": b"P5\n16 16\n65535\n\x07",
            "maxval_65536": b"P5\n16 16\n65536\n" + pixels,
            "maxval_0": b"P2\n16 16\n0\n" + b"0 " * 256,
            "bad_magic": b"P6\n16 16\n255\n" + bytes(768),
            # int() converts at most 4300 digits, and prints no more either.
            "width_5000_digits": b"P5\n" + b"9" * 5000 + b" 2\n255\n",
            "size_8000_digits": (b"P5\n" + b"9" * 4000 + b" " + b"9" * 4000 + b"\n255\n"
                                 + bytes(4)),
            # Each sample is a decimal integer in 0..maxval.
            "plain_negative": plain + b"-5",
            "plain_fraction": plain + b"1.5",
            "plain_exponent": plain + b"1e2",
            "plain_above_maxval": plain + b"1000",
            "raw_above_maxval": b"P5\n16 16\n100\n" + bytes(255) + bytes([200]),
            "truncated_header": b"P5\n16 16\n",  # no maxval
        }[case]
        (tmp_path / "bad.pgm").write_bytes(data)
        out = tmp_path / "out.json"
        assert main(["encode-image", str(tmp_path / "bad.pgm"), "--out", str(out)]) == 2
        message = {"truncated_header": "malformed PGM header"}.get(case, "")
        assert f"input error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["digit.pgm", "./digit.pgm"])
    def test_output_naming_the_image_exits_2(self, tmp_path, capsys, monkeypatch,
                                             spelling):
        # Refused before the image is read: it is left as found.
        monkeypatch.chdir(tmp_path)
        image = b"P5\n16 16\n255\n" + bytes(range(256))
        (tmp_path / "digit.pgm").write_bytes(image)
        assert main(["encode-image", "digit.pgm", "--out", spelling]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"input error: {spelling}: --out names the same file "
                                "as the image\n")
        assert (tmp_path / "digit.pgm").read_bytes() == image
        assert [path.name for path in tmp_path.iterdir()] == ["digit.pgm"]

    @pytest.mark.parametrize("n_in, n_out", [(28, 16), (7, 3), (5, 4)])
    def test_area_average_matches_block_oracle(self, rng, n_in, n_out):
        # Repeating each pixel n_out times along each axis makes every output
        # cell an n_in x n_in block of equal-area samples: its plain mean.
        img = rng.uniform(size=(n_in, n_in))
        fine = np.repeat(np.repeat(img, n_out, axis=0), n_out, axis=1)
        oracle = fine.reshape(n_out, n_in, n_out, n_in).mean(axis=(1, 3))
        np.testing.assert_allclose(downscale_area(img, n_out, n_out), oracle,
                                   rtol=0, atol=1e-12)


def _env(**env_set):
    """The environment with src on the path, no inherited
    OPENBLAS_NUM_THREADS, and ``env_set`` added."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update(env_set)
    return env


def _run(argv, **env_set):
    """``python argv`` in :func:`_env`."""
    return subprocess.run([sys.executable, *argv], env=_env(**env_set),
                          capture_output=True, text=True, timeout=120)


def _python(code, *argv, **env_set):
    """stdout of ``python -c code argv...``, run as :func:`_run` runs it."""
    result = _run(["-c", code, *argv], **env_set)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def _one_pure_entry(data: str, label: str) -> str:
    """A dataset document of one pure entry, with ``data`` and ``label`` as
    written, so that they may hold what ``json.dumps`` cannot write."""
    return ('{"format": "qrv/1", "kind": "dataset", "states": '
            f'[{{"kind": "pure", "data": {data}, "label": {label}}}]}}')


@pytest.mark.parametrize("case", ["directory", "not_utf8", "report_dir", "image",
                                  "out_prefix", "deep_nesting", "long_integer",
                                  "pair_out_of_range"])
def test_unusable_path_exits_2(case, case_files, tmp_path):
    # Run as a process: an uncaught error would print a traceback and exit
    # 1, which is the --strict "non-robust" code.
    classifier_path, dataset_path = case_files
    binary = tmp_path / "binary.json"
    binary.write_bytes(b"\xff\xfe{}")
    missing_dir = tmp_path / "no_such_dir"
    bad, bad_datasets = tmp_path / "bad.json", {
        "deep_nesting": "[" * 200_000 + "]" * 200_000,
        "long_integer": _one_pure_entry("[[1, 0], [0, 0]]", "9" * 5000),
        "pair_out_of_range": _one_pure_entry(f"[[{10**400}, 0], [0, 0]]", "0"),
    }
    if case in bad_datasets:
        bad.write_text(bad_datasets[case])
    argv, path = {
        "directory": (["verify", str(tmp_path), dataset_path], tmp_path),
        "not_utf8": (["verify", str(binary), dataset_path], binary),
        **{name: (["verify", classifier_path, str(bad)], bad) for name in bad_datasets},
        "report_dir": (["verify", classifier_path, dataset_path,
                        "--report", str(missing_dir / "r.json")], missing_dir / "r.json"),
        "image": (["encode-image", str(tmp_path / "missing.pgm"),
                   "--out", str(tmp_path / "state.json")], tmp_path / "missing.pgm"),
        "out_prefix": (["gen-qubit", "--n-train", "4", "--n-val", "2",
                        "--out-prefix", str(missing_dir / "x")],
                       missing_dir / "x_classifier.json"),
    }[case]
    if argv[0] == "verify":
        argv += ["--epsilon", "0.001"]
    result = _run(["-m", "qrv.cli", *argv])
    assert result.returncode == 2, result.stderr
    assert "input error: " + str(path) in result.stderr
    assert "Traceback" not in result.stderr


def test_no_module_loads_scipy():
    # scipy is a test dependency only (conftest and the SDP oracle).
    code = ("import pkgutil, sys, qrv; "
            "names = [m.name for m in pkgutil.walk_packages(qrv.__path__, 'qrv.')]; "
            "[__import__(name) for name in names]; "
            "print('qrv.verifier' in names, "
            "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _python(code) == "True []"


def test_cli_import_does_not_load_scipy(case_files, tmp_path):
    # Every subcommand needs only numpy, as does every qrv module.  Those that
    # read a classifier and a dataset load neither the samplers nor the case
    # study, which only gen-qubit, encode-image and the tests use, nor the
    # channels, as a classifier is read as its POVM effects, nor
    # dataclasses: results are NamedTuples.
    classifier_path, dataset_path = case_files
    report, sidecar = str(tmp_path / "r.json"), str(tmp_path / "a.json")
    code = ("import sys, qrv.cli; forbidden = set(sys.argv[1].split()); "
            "assert qrv.cli.main(sys.argv[2:]) == 0; "
            "print(sorted(m for m in sys.modules if {m, m.split('.')[0]} & forbidden))")
    readers = "scipy qrv.sampling qrv.casestudy qrv.channels dataclasses"
    inputs = [classifier_path, dataset_path]
    for forbidden, argv in [
            (readers, ["verify", *inputs, "--epsilon", "0.002",
                       "--report", report, "--adversarial", sidecar]),
            (readers, ["recheck", *inputs, report, sidecar]),
            (readers, ["classify", *inputs]),
            (readers, ["bound", *inputs, "--epsilon", "0.002"]),
            ("scipy", ["gen-qubit", "--n-train", "8", "--n-val", "2",
                       "--out-prefix", str(tmp_path / "q")])]:
        result = _run(["-c", code, forbidden, *argv])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]", argv[0]


def _earlier_layout(classifier_path, path):
    """The case-study classifier at ``classifier_path`` rewritten in the
    earlier layout, which is no longer read: an identity channel, then its
    effects, which are projectors, as the measurement operators."""
    doc = json.loads(Path(classifier_path).read_text())
    doc["measurement"] = {"operators": doc.pop("effects")}
    doc["channel"] = {"dim": 2, "kraus": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("layout", ["effects", "channel_measurement"])
def test_reading_a_classifier_never_loads_channels(case_files, tmp_path, layout):
    # Each reading command runs in one fresh process, in turn: with the
    # effects layout it succeeds, and the earlier layout is one input error
    # that names effects; neither loads the channels.
    classifier_path, dataset_path = case_files
    report, sidecar = str(tmp_path / "r.json"), str(tmp_path / "a.json")
    assert main(["verify", classifier_path, dataset_path, "--epsilon", "0.002",
                 "--report", report, "--adversarial", sidecar]) == 0
    if layout != "effects":
        classifier_path = _earlier_layout(classifier_path, tmp_path / "earlier.json")
    inputs = [classifier_path, dataset_path]
    commands = [["verify", *inputs, "--epsilon", "0.002",
                 "--report", report, "--adversarial", sidecar],
                ["recheck", *inputs, report, sidecar],
                ["classify", *inputs],
                ["bound", *inputs, "--epsilon", "0.002"]]
    code = ("import contextlib, io, json, sys, qrv.cli\n"
            "for argv in json.loads(sys.argv[1]):\n"
            "    err = io.StringIO()\n"
            "    with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(err):\n"
            "        code = qrv.cli.main(argv)\n"
            "    print(json.dumps([code, err.getvalue(), 'qrv.channels' in sys.modules]))")
    lines = _python(code, json.dumps(commands)).splitlines()
    assert len(lines) == len(commands)
    for argv, line in zip(commands, lines):
        code, err, loaded = json.loads(line)
        assert not loaded, argv[0]
        if layout == "effects":
            assert (code, err) == (0, ""), argv[0]
        else:
            assert code == 2, argv[0]
            assert err.startswith(f"input error: {classifier_path}:$: "), argv[0]
            assert err.count("\n") == 1 and "'effects'" in err, argv[0]


def test_package_import_is_lazy():
    code = ("import os, sys, qrv; "
            "print('numpy' in sys.modules, os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _python(code) == "False None"


@pytest.mark.parametrize("user_value, expected", [(None, "1"), ("3", "3")])
def test_cli_defaults_to_one_blas_thread(user_value, expected):
    code = "import os, qrv.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
    env_set = {} if user_value is None else {"OPENBLAS_NUM_THREADS": user_value}
    assert _python(code, **env_set) == expected


@pytest.mark.parametrize("collecting", [True, False])
def test_cli_import_and_main_leave_the_collector_as_found(case_files, collecting):
    # Collector policy belongs to the process entry, run(); importing the
    # module or calling main() in-process changes nothing a caller sees.
    classifier_path, dataset_path = case_files
    code = ("import gc, sys; gc.enable() if sys.argv[1] == 'True' else gc.disable(); "
            "import qrv.cli; state = (gc.isenabled(), gc.get_freeze_count()); "
            "assert qrv.cli.main(sys.argv[2:]) == 0; "
            "print(state, (gc.isenabled(), gc.get_freeze_count()))")
    out = _python(code, str(collecting), "verify", classifier_path, dataset_path,
                  "--epsilon", "0.002")
    assert out.splitlines()[-1] == f"({collecting}, 0) ({collecting}, 0)"


def test_failed_cli_import_leaves_the_collector_on():
    code = ("import gc, sys; sys.modules['numpy'] = None\n"
            "try:\n    import qrv.cli\nexcept ImportError:\n    print(gc.isenabled())")
    assert _python(code) == "True"


def test_process_entry_freezes_and_matches_main(case_files, tmp_path):
    classifier_path, dataset_path = case_files
    argv = ["verify", classifier_path, dataset_path, "--epsilon", "0.002",
            "--omit-timings", "--adversarial", str(tmp_path / "a.json")]
    result = _run(["-m", "qrv.cli", *argv, "--report", str(tmp_path / "process.json")])
    assert result.returncode == 0, result.stderr
    assert main([*argv, "--report", str(tmp_path / "inprocess.json")]) == 0
    assert ((tmp_path / "process.json").read_bytes()
            == (tmp_path / "inprocess.json").read_bytes())
    # The `qrv` console script as pip writes it: it allocates between importing
    # qrv.cli and calling run(), and no collection may walk numpy's and qrv's
    # objects there, before run() freezes them.
    code = ("import gc, re, sys\n"
            "early = []\n"
            "gc.callbacks.append(lambda phase, info: phase == 'start' and 'numpy' in "
            "sys.modules and not gc.get_freeze_count() and early.append(info))\n"
            "from qrv.cli import run\n"
            "sys.argv[0] = re.sub(r'(-script\\.pyw|\\.exe)?$', '', sys.argv[0])\n"
            "code = run()\n"
            "print(code, gc.isenabled(), gc.get_freeze_count() > 0, early)")
    assert _python(code, *argv).splitlines()[-1] == "0 True True []"
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'qrv = "qrv.cli:run"' in pyproject


class _ClosedStdout(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize("argv", [["classify"], ["verify", "--epsilon", "0.002,0.004",
                                                 "--omit-timings"],
                                  ["bound", "--epsilon", "0.002,0.004"]])
def test_closed_stdout_exits_141_after_writing_the_report(case_files, tmp_path, capsys,
                                                          monkeypatch, argv):
    command = [argv[0], *case_files, *argv[1:], "--report"]
    assert main([*command, str(tmp_path / "unpiped.json")]) == 0
    capsys.readouterr()
    monkeypatch.setattr(sys, "stdout", _ClosedStdout())
    assert main([*command, str(tmp_path / "piped.json")]) == 141
    assert capsys.readouterr().err == ""
    assert ((tmp_path / "piped.json").read_bytes()
            == (tmp_path / "unpiped.json").read_bytes())


def test_closed_pipe_exits_141_with_nothing_on_stderr(tmp_path):
    # 4000 rows overfill a 64 KiB pipe, so the command is still writing
    # when its reader leaves after one line.
    classifier, train, _ = generate_qubit_case_study(n_train=4000, n_val=2, seed=0)
    paths = [str(tmp_path / name) for name in ("c.json", "d.json", "r.json")]
    save_classifier(paths[0], classifier)
    save_dataset(paths[1], train)
    proc = subprocess.Popen([sys.executable, "-m", "qrv.cli", "classify", *paths[:2],
                             "--report", paths[2]], env=_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline().startswith(b"accuracy: ")
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=120), err) == (141, b"")
    assert json.loads(Path(paths[2]).read_text())["kind"] == "classification_report"


def test_recheck_reads_a_binary_sidecar(tmp_path):
    # Dim-8 density matrices have 64 entries, so their witnesses are written
    # in the binary layout, and recheck reads them back.
    rng = np.random.default_rng(3)
    classifier = random_classifier(8, rng, n_classes=3, kraus_rank=2)
    states = [random_density_matrix(8, rng, rank=2) for _ in range(12)]
    labels = [int(k) for k in classify_batch(classifier, states).labels]
    paths = [str(tmp_path / name) for name in ("c.json", "d.json", "r.json", "a.json")]
    save_classifier(paths[0], classifier)
    save_dataset(paths[1], LabeledDataset(zip(states, labels)))
    assert main(["verify", *paths[:2], "--epsilon", "0.05",
                 "--report", paths[2], "--adversarial", paths[3]]) == 0
    witnesses = json.loads(Path(paths[3]).read_text())["states"]
    assert witnesses
    assert all(set(w["data"]) == {"dtype", "shape", "base64"} for w in witnesses)
    result = _run(["-m", "qrv.cli", "recheck", *paths])
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.strip().endswith("consistent")


def test_lazy_exports_resolve():
    import qrv

    for name in qrv.__all__:
        assert getattr(qrv, name) is not None
    assert set(qrv.__all__) <= set(dir(qrv))
    with pytest.raises(AttributeError):
        getattr(qrv, "no_such_name")


def test_readme_lists_the_verify_flags():
    # The README's flag paragraph names every `qrv verify` option and no
    # other; --epsilon appears in every example and -h is argparse's own.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    paragraph = readme.split("Useful `verify` flags:", 1)[1].split("\n\n", 1)[0]
    documented = set(re.findall(r"--[a-z][a-z-]*", paragraph))
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    options = {s for a in commands.choices["verify"]._actions for s in a.option_strings}
    assert documented <= options
    assert options - {"--epsilon", "-h", "--help"} <= documented
