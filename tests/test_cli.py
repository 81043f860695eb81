import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrv.casestudy import (
    amplitude_encode,
    downscale_area,
    encode_image,
    generate_qubit_case_study,
    read_pgm,
)
from qrv.cli import build_parser, main
from qrv.errors import ValidationError
from qrv.formats import load_state, save_classifier, save_dataset
from qrv.classifiers import LabeledDataset, classify_batch
from qrv.sampling import random_classifier, random_density_matrix
from qrv.states import PureState


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
    @pytest.mark.parametrize("eps", ["0", "1", "-0.1", "2.0"])
    def test_bad_epsilon_exits_2(self, tmp_path, capsys, command, eps):
        # The input files do not exist: epsilon is rejected before any is read.
        missing = str(tmp_path / "missing.json")
        assert main([command, missing, missing, "--epsilon", eps]) == 2
        assert "epsilon must be in (0, 1)" in capsys.readouterr().err

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


def _run(argv, **env_set):
    """``python argv`` with src on the path, no inherited
    OPENBLAS_NUM_THREADS, and ``env_set`` added to the environment."""
    env = dict(os.environ)
    env.pop("OPENBLAS_NUM_THREADS", None)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    env.update(env_set)
    return subprocess.run([sys.executable, *argv], env=env,
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
        "image": (["encode-image", str(tmp_path / "missing.pgm")], tmp_path / "missing.pgm"),
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
    # The verify and recheck paths need only numpy, as does every qrv
    # module.  Nor do they load the samplers or the case study, which only
    # some subcommands and the tests use, the channels, which only the
    # legacy classifier layout reads, or dataclasses: results are NamedTuples.
    classifier_path, dataset_path = case_files
    report, sidecar = str(tmp_path / "r.json"), str(tmp_path / "a.json")
    code = ("import sys, qrv.cli; "
            "assert qrv.cli.main(sys.argv[1:]) == 0; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m in "
            "('qrv.sampling', 'qrv.casestudy', 'qrv.channels', 'dataclasses')))")
    for argv in (["verify", classifier_path, dataset_path, "--epsilon", "0.002",
                  "--report", report, "--adversarial", sidecar],
                 ["recheck", classifier_path, dataset_path, report, sidecar]):
        result = _run(["-c", code, *argv])
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip().splitlines()[-1] == "[]"


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
