"""``qrv recheck``: saved reports re-check offline, and corruption is caught.

The recorded dual shifts must reproduce delta exactly, certify it in
40-digit arithmetic, and any one-field edit of a report or its sidecar
must make the re-check fail naming the entry.
"""

import copy
import json
import re

import mpmath
import numpy as np
import pytest

import qrv.recheck
import qrv.states
import qrv.verifier
from conftest import classified_instance
from qrv.cli import main
from qrv.classifiers import Classifier, LabeledDataset, classify_batch
from qrv.formats import (emit_state, load_classifier, load_dataset, save_classifier,
                         save_dataset)
from qrv.sampling import (
    random_classifier,
    random_density_matrix,
    random_pure_state,
    random_unitary,
)
from qrv.states import DensityMatrix, PureState, sqrt_fidelity
from qrv.verifier import StateVerdict, _dual_value, compute_optimal_bound


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A dim-4, 3-class classifier with a dataset of mixed entries and one
    of pure entries, each with one misclassified entry, verified once per
    (dataset, epsilons) pair; witnesses take their entries' form."""
    root = tmp_path_factory.mktemp("recheck")
    rng = np.random.default_rng(7)
    classifier = random_classifier(4, rng, n_classes=3, kraus_rank=2)
    paths = {"classifier": str(root / "c.json")}
    save_classifier(paths["classifier"], classifier)
    for kind, make in (("mixed", lambda: random_density_matrix(4, rng, rank=2)),
                       ("pure", lambda: random_pure_state(4, rng))):
        states = [make() for _ in range(30)]
        labels = [int(k) for k in classify_batch(classifier, states).labels]
        labels[0] = (labels[0] + 1) % 3
        paths[kind] = str(root / f"{kind}_d.json")
        save_dataset(paths[kind], LabeledDataset(zip(states, labels)))
        for name, eps in (("single", "0.01"), ("set", "0.001,0.01")):
            report, sidecar = root / f"{kind}_{name}_r.json", root / f"{kind}_{name}_a.json"
            assert main(["verify", paths["classifier"], paths[kind], "--epsilon", eps,
                         "--omit-timings", "--report", str(report),
                         "--adversarial", str(sidecar)]) == 0
            paths[kind, name] = (report, sidecar)
    return paths


REPORTS = [("mixed", "single"), ("mixed", "set"), ("pure", "single"), ("pure", "set")]


def recheck(saved, kind, report, sidecar, tmp_path, capsys):
    """Write the (possibly edited) documents and run ``qrv recheck`` on the
    ``kind`` dataset."""
    paths = []
    for name, doc in (("r.json", report), ("a.json", sidecar)):
        (tmp_path / name).write_text(json.dumps(doc))
        paths.append(str(tmp_path / name))
    capsys.readouterr()
    code = main(["recheck", saved["classifier"], saved[kind], *paths])
    return code, capsys.readouterr().out


def load(saved, key):
    return [json.loads(path.read_text()) for path in saved[key]]


def first_run(report):
    return report["runs"][0] if report["kind"] == "verification_report_set" else report


@pytest.mark.parametrize("key", REPORTS, ids=["-".join(k) for k in REPORTS])
def test_untouched_report_rechecks(saved, key, tmp_path, capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("recheck must not solve")

    monkeypatch.setattr(qrv.verifier, "compute_optimal_bound", forbidden)
    monkeypatch.setattr(qrv.verifier, "_dual_ratio", forbidden)
    report, sidecar = load(saved, key)
    run = first_run(report)
    kinds = {(v["margin_certified"], v["robust"]) for v in run["verdicts"]}
    assert {(True, True), (False, True), (False, False), (False, None)} <= kinds
    assert any(s is None for v in run["verdicts"] if v["dual_shifts"]
               for k, s in enumerate(v["dual_shifts"]) if k == v["label"])
    kind = "pure" if key[0] == "pure" else "density"
    assert {entry["kind"] for entry in sidecar["states"]} == {kind}
    code, out = recheck(saved, key[0], report, sidecar, tmp_path, capsys)
    assert code == 0, out
    assert out.startswith("recheck: ") and out.strip().endswith("consistent")


def test_one_state_factor_per_exact_entry(saved, tmp_path, capsys, monkeypatch):
    # Three classes give an exact entry up to two solved rivals; across a
    # report set, rho's factor is computed once for all of them and for its
    # witnesses' distances, which add none: each is measured from the factor
    # the sidecar saved.
    calls = []
    suppress = qrv.states._suppress_spectral_junk

    def counting(w):
        calls.append(w)
        return suppress(w)

    monkeypatch.setattr(qrv.states, "_suppress_spectral_junk", counting)
    report, sidecar = load(saved, ("mixed", "set"))
    solved = {i: sum(w is not None for w in v["dual_shifts"])
              for run in report["runs"] for i, v in enumerate(run["verdicts"])
              if v["dual_shifts"]}
    assert len(report["runs"]) == 2 and 2 in solved.values() and sidecar["states"]
    code, out = recheck(saved, "mixed", report, sidecar, tmp_path, capsys)
    assert code == 0, out
    assert len(calls) == sum(n > 0 for n in solved.values())


@pytest.mark.parametrize("name", ["single", "set"])
def test_dense_sidecar_still_rechecks(saved, name, tmp_path, capsys):
    # A mixed witness written as its density matrix, the layout before
    # witnesses were saved as factors, is read and factored again, and its
    # distance agrees with the recorded one to DISTANCE_TOL.
    report, sidecar = load(saved, ("mixed", name))
    assert sidecar["states"]
    for entry in sidecar["states"]:
        data, _ = _witness_array(entry)
        _set_state(entry, DensityMatrix(DensityMatrix.from_factor(data).matrix))
        assert "data" in entry and "factor" not in entry
    code, out = recheck(saved, "mixed", report, sidecar, tmp_path, capsys)
    assert code == 0, out


def test_mixed_witness_takes_no_spectrum(saved, tmp_path, capsys, monkeypatch):
    # Verify builds a mixed witness from its factor and recheck reads that
    # factor back: neither takes an eigh or eigvalsh of the witness.
    seen = []
    for name in ("eigh", "eigvalsh"):
        def recording(m, *args, _decompose=getattr(np.linalg, name), **kwargs):
            seen.append(np.array(m))
            return _decompose(m, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recording)
    paths = [saved["classifier"], saved["mixed"], str(tmp_path / "r.json"),
             str(tmp_path / "a.json")]
    assert main(["verify", *paths[:2], "--epsilon", "0.01", "--report", paths[2],
                 "--adversarial", paths[3]]) == 0
    assert main(["recheck", *paths]) == 0, capsys.readouterr().out
    witnesses = [s for s, _ in load_dataset(paths[3])]
    assert witnesses and all(w.factored for w in witnesses)
    assert not [m for m in seen for w in witnesses
                if m.shape == w.matrix.shape and np.allclose(m, w.matrix)]


def test_one_rotation_per_rival_across_runs(saved, tmp_path, capsys, monkeypatch):
    # A report set rotates rho into a rival's gap eigenbasis once per (entry,
    # rival with a shift), however many runs solved that entry.
    calls = []

    def counting(classifier, root, label, k):
        calls.append((label, k))
        return qrv.verifier._rotate(classifier, root, label, k)

    monkeypatch.setattr(qrv.recheck, "_rotate", counting)
    report, sidecar = load(saved, ("mixed", "set"))
    per_run = [(i, k) for run in report["runs"] for i, v in enumerate(run["verdicts"])
               for k, w in enumerate(v["dual_shifts"] or ()) if w is not None]
    assert len(per_run) > len(set(per_run))  # some entry is solved in both runs
    code, out = recheck(saved, "mixed", report, sidecar, tmp_path, capsys)
    assert code == 0, out
    assert len(calls) == len(set(per_run))


def test_sidecar_of_the_wrong_dim_names_its_entry(saved, tmp_path, capsys):
    _, sidecar = load(saved, ("mixed", "single"))
    j = len(sidecar["states"]) - 1
    sidecar["states"][j].update(kind="pure", data=[[1, 0], [0, 0]])
    path = tmp_path / "a.json"
    path.write_text(json.dumps(sidecar))
    assert main(["recheck", saved["classifier"], saved["mixed"],
                 str(saved["mixed", "single"][0]), str(path)]) == 2
    err = capsys.readouterr().err
    assert f"input error: {path}:states[{j}]: " in err, err


def _entry(run, *, robust, certified=False):
    """Index of the first correct verdict with this outcome."""
    return next(v["index"] for v in run["verdicts"] if v["status"] == "ok"
                and v["robust"] is robust and v["margin_certified"] is certified)


def _delta(report, sidecar, run):
    i = next(v["index"] for v in run["verdicts"] if v["robust"] is True
             and not v["margin_certified"] and v["delta"] is not None)
    run["verdicts"][i]["delta"] += 1e-6
    return i, "delta"


def _shift(report, sidecar, run):
    i = _entry(run, robust=False)
    verdict = run["verdicts"][i]
    verdict["dual_shifts"][verdict["adversarial_class"]] *= 1.01
    return i, "delta"


def _robust(report, sidecar, run):
    i = _entry(run, robust=True)
    run["verdicts"][i]["robust"] = False
    return i, "robust"


def _margin_certified(report, sidecar, run):
    i = _entry(run, robust=True, certified=True)
    run["verdicts"][i]["margin_certified"] = False
    return i, "margin_certified"


def _distance(report, sidecar, run):
    i = _entry(run, robust=False)
    run["verdicts"][i]["adversarial_distance"] += 1e-6
    return i, "adversarial_distance"


def _witness_array(entry):
    """A sidecar entry's pairs array and its key: a pure witness's amplitudes,
    a mixed one's factor W (the state W W^dag)."""
    key = "data" if entry["kind"] == "pure" else "factor"
    return np.array(entry[key]).view(complex)[..., 0], key


def _set_state(entry, state):
    """Replace a sidecar entry's state, in whichever layout it was written."""
    for key in ("data", "factor"):
        entry.pop(key, None)
    entry.update(emit_state(state)["state"])


def _amplitude(report, sidecar, run):
    # A phase on one basis amplitude keeps the witness a valid state: on a
    # mixed witness's factor row, it is D W W^dag D^dag with D = diag(phase, 1, ...).
    entry = sidecar["states"][0]
    data, key = _witness_array(entry)
    data[0] *= np.exp(0.01j)
    entry[key] = np.stack([data.real, data.imag], axis=-1).tolist()
    return entry["source_index"], "adversarial_distance"


def _robust_accuracy(report, sidecar, run):
    run["robust_accuracy"] += 0.01
    return None, "robust_accuracy"


def _drop_witness(report, sidecar, run):
    return sidecar["states"].pop(0)["source_index"], "source_index"


def _certified_adversarial_class(report, sidecar, run):
    i = _entry(run, robust=True, certified=True)
    run["verdicts"][i]["adversarial_class"] = (run["verdicts"][i]["label"] + 1) % 3
    return i, "adversarial_class"


def _other_rival(report, sidecar, run):
    # The report and its sidecar agree on a rival, but not the one whose
    # recorded shift gives the least dual value.
    i = _entry(run, robust=False)
    verdict = run["verdicts"][i]
    other = 3 - verdict["label"] - verdict["adversarial_class"]
    verdict["adversarial_class"] = other
    next(e for e in sidecar["states"] if e["source_index"] == i)["target_class"] = other
    return i, "adversarial_class"


def _n_states(report, sidecar, run):
    run["n_states"] += 1
    return None, "n_states"


def _n_correct(report, sidecar, run):
    run["n_correct"] -= 1
    return None, "n_correct"


def _accuracy(report, sidecar, run):
    run["accuracy"] -= 0.01
    return None, "accuracy"


def _sdp_solves(report, sidecar, run):
    run["solver_stats"]["sdp_solves"] += 1
    return None, "solver_stats"


def _sidecar_label(report, sidecar, run):
    entry = sidecar["states"][0]
    entry["label"] = (entry["label"] + 1) % 3
    return entry["source_index"], "sidecar[0].label"


def _sidecar_distance(report, sidecar, run):
    entry = sidecar["states"][0]
    entry["distance"] += 1e-6
    return entry["source_index"], "sidecar[0].distance"


def _warnings(report, sidecar, run):
    run["warnings"].append("classifier accuracy is fine")
    return None, "warnings"


def _huge_margin(report, sidecar, run):  # an int past the float range: a mismatch
    i = _entry(run, robust=True)
    run["verdicts"][i]["margin"] = 10**400
    return i, "margin"


def _float_source_index(report, sidecar, run):  # equal in value, not in type
    entry = sidecar["states"][0]
    entry["source_index"] = float(entry["source_index"])
    return int(entry["source_index"]), "source_index"


def _subnormal_shift(report, sidecar, run):  # its reciprocal overflows
    i = _entry(run, robust=False)
    verdict = run["verdicts"][i]
    verdict["dual_shifts"][verdict["adversarial_class"]] = 1e-320
    return i, "dual_shifts"


def _dropped_null_key(report, sidecar, run):  # absent, not null: a mismatch
    i = _entry(run, robust=True, certified=True)
    assert run["verdicts"][i].pop("adversarial_class") is None
    return i, "adversarial_class"


def _float_sdp_solves(report, sidecar, run):  # equal in value, not in type
    run["solver_stats"]["sdp_solves"] = float(run["solver_stats"]["sdp_solves"])
    return None, "solver_stats"


def _witness_form(report, sidecar, run):
    # A pure witness written as its density matrix, a mixed one as its
    # leading eigenvector: each a valid state of the other form.
    entry = sidecar["states"][0]
    data, _ = _witness_array(entry)
    state = (DensityMatrix(np.outer(data, data.conj())) if entry["kind"] == "pure"
             else PureState(np.linalg.svd(data)[0][:, 0]))
    _set_state(entry, state)
    return entry["source_index"], "sidecar[0].kind"


EDITS = [_delta, _shift, _robust, _margin_certified, _distance, _amplitude,
         _robust_accuracy, _drop_witness, _certified_adversarial_class, _other_rival,
         _n_states, _n_correct, _accuracy, _sdp_solves, _sidecar_label, _sidecar_distance,
         _warnings, _huge_margin, _float_source_index, _subnormal_shift, _dropped_null_key,
         _float_sdp_solves, _witness_form]


def _set(field, value, robust=True, certified=False):
    """An edit setting ``field`` of the first correct verdict with this
    outcome to ``value(verdict)``."""
    def edit(report, sidecar, run):
        i = _entry(run, robust=robust, certified=certified)
        run["verdicts"][i][field] = value(run["verdicts"][i])
        return i, field
    return edit


def _rival(verdict):
    return (verdict["label"] + 1) % 3


# One edit per report verdict field; certified=True edits a verdict no bound
# applies to, and the adversarial fields are set on a robust exact verdict.
VERDICT_EDITS = {
    "index": _set("index", lambda v: v["index"] + 1),
    "label": _set("label", _rival),
    "predicted": _set("predicted", _rival),
    "correct": _set("correct", lambda v: False),
    "margin": _set("margin", lambda v: v["margin"] + 1e-6),
    "tie": _set("tie", lambda v: not v["tie"]),
    "margin_certified": _margin_certified,
    "status": _set("status", lambda v: "misclassified", certified=True),
    "delta": _set("delta", lambda v: 0.5, certified=True),
    "delta_unbounded": _set("delta_unbounded", lambda v: True, certified=True),
    "robust": _robust,
    "adversarial_class": _set("adversarial_class", _rival),
    "adversarial_distance": _set("adversarial_distance", lambda v: 0.5),
    "dual_shifts": _set("dual_shifts", lambda v: [
        1.0 if k == v["label"] else w for k, w in enumerate(v["dual_shifts"])]),
}


def assert_caught(saved, key, edit, tmp_path, capsys) -> str:
    """Apply ``edit`` to a copy of the saved report and sidecar: recheck must
    exit 1 naming the field the edit returns, which is returned."""
    report, sidecar = copy.deepcopy(load(saved, key))
    run = first_run(report)
    index, field = edit(report, sidecar, run)
    code, out = recheck(saved, key[0], report, sidecar, tmp_path, capsys)
    assert code == 1
    where = "" if index is None else f" index={index}"
    assert f"eps={run['epsilon']}{where} {field}: " in out, out
    return field


@pytest.mark.parametrize("edit", EDITS, ids=[e.__name__.strip("_") for e in EDITS])
@pytest.mark.parametrize("key", REPORTS, ids=["-".join(k) for k in REPORTS])
def test_one_field_edit_is_caught(saved, key, edit, tmp_path, capsys):
    assert_caught(saved, key, edit, tmp_path, capsys)


@pytest.mark.parametrize("field", StateVerdict._fields)
@pytest.mark.parametrize("key", REPORTS, ids=["-".join(k) for k in REPORTS])
def test_every_verdict_field_is_rechecked(saved, key, field, tmp_path, capsys):
    # A verdict field added later fails here until recheck checks it.
    assert field in VERDICT_EDITS, f"no edit, so no recheck, for verdict field {field}"
    assert assert_caught(saved, key, VERDICT_EDITS[field], tmp_path, capsys) == field


@pytest.mark.parametrize("key", REPORTS, ids=["-".join(k) for k in REPORTS])
def test_witness_beyond_the_budget_is_caught(saved, key, tmp_path, capsys):
    # The first witness becomes a state of its entry's form that its target
    # class wins, untied, far beyond eps; its recorded distances agree with
    # it, so only the budget check fails.  The pure dataset has no such
    # state, so the pure reports draw one.
    report, sidecar = load(saved, key)
    run, witness = first_run(report), sidecar["states"][0]
    i = witness["source_index"]
    rng = np.random.default_rng(0)
    states = ([s for s, _ in load_dataset(saved["mixed"])] if key[0] == "mixed"
              else [random_pure_state(4, rng) for _ in range(100)])
    batch = classify_batch(load_classifier(saved["classifier"]), states)
    far = next(states[j] for j, (k, tie) in enumerate(zip(batch.labels, batch.ties))
               if k == witness["target_class"] and not tie)
    _set_state(witness, far)
    distance = 1.0 - sqrt_fidelity(load_dataset(saved[key[0]]).entries[i][0], far) ** 2
    witness["distance"] = run["verdicts"][i]["adversarial_distance"] = distance
    assert distance > run["epsilon"] + qrv.verifier.WITNESS_BUDGET
    code, out = recheck(saved, key[0], report, sidecar, tmp_path, capsys)
    assert code == 1
    [line] = out.splitlines()
    head = f"eps={run['epsilon']} index={i} adversarial_distance: sidecar entry 0 lies at "
    tail = ", beyond eps + 1e-06"
    assert line.startswith(head) and line.endswith(tail), line
    assert float(line[len(head):-len(tail)]) == pytest.approx(distance, abs=1e-12)


def _rival_above_lowest(v):
    """A non-robust verdict whose rival is not its lowest reachable class."""
    reachable = [k for k, w in enumerate(v["dual_shifts"] or ()) if w is not None]
    return v["robust"] is False and reachable and v["adversarial_class"] > reachable[0]


@pytest.mark.parametrize("key", REPORTS, ids=["-".join(k) for k in REPORTS])
def test_malformed_shifts_name_only_their_entry(saved, key, tmp_path, capsys):
    # Malformed shifts keep the recorded delta and rival, so the entry's
    # verdict stays as recorded: a robust one takes no witness and a
    # non-robust one its own, which targets the recorded rival, not the lowest
    # reachable class.  Every later verdict keeps its witness, and each run
    # prints one line naming the edited entry; any other line is a run total.
    for robust in (True, False):
        report, sidecar = load(saved, key)
        runs = report["runs"] if report["kind"] == "verification_report_set" else [report]
        i = (_entry(runs[0], robust=True) if robust
             else next(v["index"] for v in runs[0]["verdicts"] if _rival_above_lowest(v)))
        assert any(e["source_index"] > i for e in sidecar["states"])
        for run in runs:
            run["verdicts"][i]["dual_shifts"] = "x"
        code, out = recheck(saved, key[0], report, sidecar, tmp_path, capsys)
        assert code == 1
        named = [line for line in out.splitlines() if f" index={i} " in line]
        assert named == [f"eps={run['epsilon']} index={i} dual_shifts: 'x' is not a null or "
                         "normal positive shift per class, null at the label"
                         for run in runs], out
        for line in out.splitlines():
            assert line in named or re.fullmatch(r"eps=\S+ \w+: .*", line), out


@pytest.mark.parametrize("key", REPORTS, ids=["-".join(k) for k in REPORTS])
def test_witness_no_verdict_refers_to_is_caught(saved, key, tmp_path, capsys):
    report, sidecar = load(saved, key)
    sidecar["states"].append(copy.deepcopy(sidecar["states"][0]))
    code, out = recheck(saved, key[0], report, sidecar, tmp_path, capsys)
    assert code == 1
    assert out.splitlines() == ["sidecar: 1 witness(es) no verdict refers to"]


def test_empty_sidecar_is_valid(saved, tmp_path, capsys):
    assert main(["verify", saved["classifier"], saved["mixed"], "--epsilon", "1e-9",
                 "--report", str(tmp_path / "r.json"),
                 "--adversarial", str(tmp_path / "a.json")]) == 0
    sidecar = json.loads((tmp_path / "a.json").read_text())
    assert sidecar["states"] == []
    code, out = recheck(saved, "mixed", json.loads((tmp_path / "r.json").read_text()),
                        sidecar, tmp_path, capsys)
    assert code == 0, out


@pytest.mark.parametrize("case", ["not_a_report", "verdict_count", "missing", "empty_set",
                                  "seed", "huge_epsilon"])
def test_malformed_input_exits_2(saved, case, tmp_path, capsys):
    report, sidecar = saved["mixed", "single"]
    if case == "not_a_report":
        report = saved["mixed"]
    elif case in ("verdict_count", "seed", "huge_epsilon"):
        doc = json.loads(report.read_text())
        if case == "seed":  # the rebuilt run copies it, so it must be an integer
            doc["seed"] = "x"
        elif case == "huge_epsilon":  # an int past the float range
            doc["epsilon"] = 10**400
        else:
            doc["verdicts"].pop()
        report = tmp_path / "r.json"
        report.write_text(json.dumps(doc))
    elif case == "missing":
        sidecar = tmp_path / "missing.json"
    else:  # verify never writes a set without runs
        report, sidecar = tmp_path / "r.json", tmp_path / "a.json"
        report.write_text(json.dumps({"format": "qrv/1", "kind": "verification_report_set",
                                      "runs": []}))
        sidecar.write_text(json.dumps({"format": "qrv/1", "kind": "dataset", "states": []}))
    code = main(["recheck", saved["classifier"], saved["mixed"], str(report), str(sidecar)])
    assert code == 2
    err = capsys.readouterr().err
    assert "input error: " in err
    if case == "empty_set":
        assert f"{report}:runs: " in err, err
    if case == "seed":
        assert f"{report}:runs[0].seed: " in err, err
    if case == "huge_epsilon":
        assert f"{report}:runs[0].epsilon: " in err, err


# ---------------------------------------------------------------------------
# Degenerate verdicts: null shifts of unreachable and of tied rivals


# name -> (diagonal effects, epsilon).  "unbounded": label 0 outweighs both
# rivals on every basis vector, so no state reaches them.  "tied": |2> gives
# classes 1 and 2 probability .35 each, so delta is 0 with no solve, while
# class 0 is reachable with a shift; |0> has no tie.
DEGENERATE = {
    "unbounded": ([[.5, .4], [.3, .3], [.2, .3]], 0.5),
    "tied": ([[.6, .5, .3, .3], [.3, .1, .35, .3], [.1, .4, .35, .4]], 0.3),
}


@pytest.fixture(scope="module")
def degenerate(tmp_path_factory):
    """Per case of ``DEGENERATE``, the saved classifier and a dataset of
    random and basis states, verified once; paths keyed as in ``saved``."""
    root = tmp_path_factory.mktemp("degenerate")
    rng = np.random.default_rng(11)
    cases = {}
    for name, (diagonals, eps) in DEGENERATE.items():
        classifier = Classifier([np.diag(d) for d in diagonals])
        dim = len(diagonals[0])
        basis = np.eye(dim)[2 % dim]
        states = [PureState(basis), DensityMatrix(np.outer(basis, basis)),
                  PureState(np.eye(dim)[0]), random_pure_state(dim, rng),
                  random_density_matrix(dim, rng, rank=2)]
        labels = classify_batch(classifier, states).labels
        paths = cases[name] = {"classifier": str(root / f"{name}_c.json"),
                               name: str(root / f"{name}_d.json")}
        save_classifier(paths["classifier"], classifier)
        save_dataset(paths[name], LabeledDataset(zip(states, labels)))
        paths["run"] = root / f"{name}_r.json", root / f"{name}_a.json"
        assert main(["verify", paths["classifier"], paths[name], "--epsilon", str(eps),
                     "--omit-timings", "--report", str(paths["run"][0]),
                     "--adversarial", str(paths["run"][1])]) == 0
    return cases


def test_unbounded_verdicts_recheck(degenerate, tmp_path, capsys):
    report, sidecar = load(degenerate["unbounded"], "run")
    for v in report["verdicts"]:
        assert (v["label"], v["margin_certified"], v["delta_unbounded"]) == (0, False, True)
        assert (v["delta"], v["dual_shifts"], v["robust"]) == (None, [None] * 3, True)
    code, out = recheck(degenerate["unbounded"], "unbounded", report, sidecar,
                        tmp_path, capsys)
    assert code == 0, out


def test_tied_verdicts_recheck(degenerate, tmp_path, capsys):
    report, sidecar = load(degenerate["tied"], "run")
    for v in report["verdicts"][:2]:  # |2>, pure and as a density matrix
        assert (v["label"], v["tie"], v["delta"], v["robust"]) == (1, True, 0.0, False)
        assert v["dual_shifts"][0] > 0.0 and v["dual_shifts"][1:] == [None, None]
        assert v["adversarial_class"] == 2
    assert report["verdicts"][2]["tie"] is False
    assert [e["source_index"] for e in sidecar["states"]][:2] == [0, 1]
    code, out = recheck(degenerate["tied"], "tied", report, sidecar, tmp_path, capsys)
    assert code == 0, out


@pytest.mark.parametrize("seed", [0, 2, 3, 5])
def test_singular_gap_rounded_positive_verifies_and_rechecks(seed, tmp_path, capsys):
    # eigh rounds the zero eigenvalue of this singular gap to about +4e-17
    # on seed 0, and to about -1e-16 on the others, which puts the witness's
    # own least eigenvalue at rounding level.  Its kernel vector ties the
    # classes at distance 0.7, so the rival is reachable and 0.75 has an
    # adversarial example, whose recorded distance recheck measures again
    # from the saved witness.
    u = random_unitary(2, np.random.default_rng(seed))
    classifier = Classifier([u.conj().T @ np.diag(d) @ u for d in ([1, .5], [0, .5])])
    a_min = np.linalg.eigh(classifier.class_gap_operator(0, 1))[0][0]
    assert abs(a_min) <= qrv.verifier.TIE_TOL and (a_min > 0.0) == (seed == 0)
    rho = DensityMatrix(u.conj().T @ np.diag([.7, .3]) @ u)
    paths = {"classifier": str(tmp_path / "c.json"), "singular": str(tmp_path / "d.json")}
    save_classifier(paths["classifier"], classifier)
    save_dataset(paths["singular"], LabeledDataset([(rho, 0)]))
    run = tmp_path / "run_r.json", tmp_path / "run_a.json"
    assert main(["verify", paths["classifier"], paths["singular"], "--epsilon", "0.5,0.75",
                 "--omit-timings", "--report", str(run[0]), "--adversarial", str(run[1])]) == 0
    report, sidecar = (json.loads(path.read_text()) for path in run)
    assert [r["adversarial_count"] for r in report["runs"]] == [0, 1]
    code, out = recheck(paths, "singular", report, sidecar, tmp_path, capsys)
    assert code == 0, out


@pytest.mark.parametrize("name, field, value", [("unbounded", "delta_unbounded", False),
                                                ("tied", "delta", 1e-6)])
def test_degenerate_edit_is_caught(degenerate, name, field, value, tmp_path, capsys):
    report, sidecar = load(degenerate[name], "run")
    report["verdicts"][0][field] = value
    code, out = recheck(degenerate[name], name, report, sidecar, tmp_path, capsys)
    assert code == 1
    assert f"eps={report['epsilon']} index=0 {field}: " in out, out


# ---------------------------------------------------------------------------
# The recorded shifts against 40-digit arithmetic


def _mp_dual_value(gap, state, w):
    """The dual value at shift w with mpmath's eigh of the gap operator at
    40 digits, and r_i = <v_i|rho|v_i> in the same precision."""
    with mpmath.workdps(40):
        dim = gap.shape[0]
        e, q = mpmath.eigh(mpmath.matrix([[mpmath.mpc(x) for x in row] for row in gap]))
        if isinstance(state, PureState):
            psi = mpmath.matrix([mpmath.mpc(x) for x in state.amplitudes])
            r = [abs(sum(mpmath.conj(q[j, i]) * psi[j] for j in range(dim))) ** 2
                 for i in range(dim)]
        else:
            rho = mpmath.matrix([[mpmath.mpc(x) for x in row] for row in state.matrix])
            r = [mpmath.re((q[:, i].H * rho * q[:, i])[0]) for i in range(dim)]
        w = mpmath.mpf(w)
        value = 1 - (w - e[0]) * sum(r[i] / (w + e[i] - e[0]) for i in range(dim))
        return float(min(max(value, 0), 1))


def _no_weight_on_lowest_gap_vector(rng):
    """A dim-8 mixed state orthogonal to the lowest eigenvector of its gap
    operator, so the verifier's shift sits at its clamp."""
    for _ in range(100):
        classifier = random_classifier(8, rng, n_classes=2, kraus_rank=2)
        label = int(rng.integers(2))
        v0 = classifier.gap_spectrum(label, 1 - label)[1][:, :1]
        projector = np.eye(8) - v0 @ v0.conj().T
        m = projector @ random_density_matrix(8, rng).matrix @ projector
        state = DensityMatrix(m / np.trace(m).real)
        batch = classify_batch(classifier, [state])
        if batch.labels[0] == label and not batch.ties[0]:
            return classifier, state, label
    raise AssertionError("no classified state orthogonal to the lowest gap vector")


CASES = [(kind, dim) for dim in (2, 3, 4, 8, 16) for kind in ("pure", "mixed")]


@pytest.mark.parametrize("kind, dim", CASES + [("orthogonal", 8)],
                         ids=[f"{k}-{d}" for k, d in CASES] + ["orthogonal-8"])
def test_recorded_shift_certifies_delta_at_40_digits(kind, dim):
    rng = np.random.default_rng(1000 + dim)
    if kind == "orthogonal":
        classifier, state, label = _no_weight_on_lowest_gap_vector(rng)
    else:
        classifier, state, label = classified_instance(
            rng, dim=dim, n_classes=2 if dim == 2 else 3, kraus_rank=2,
            pure=kind == "pure", min_margin=0.02)
    bound = compute_optimal_bound(classifier, state, label)
    shifted = [k for k, w in enumerate(bound.shifts) if w is not None]
    assert shifted
    for k in shifted:
        a, vectors = classifier.gap_spectrum(label, k)
        # r from a square-root factor of rho, as the verifier takes it
        r = (np.abs(vectors.conj().T @ state.factor) ** 2).sum(axis=1)
        # The recorded shift reproduces the bound bit for bit ...
        assert _dual_value(bound.shifts[k], a, r) == bound.per_class[k]
        # ... and certifies it in 40-digit arithmetic.
        exact = _mp_dual_value(classifier.class_gap_operator(label, k), state,
                               bound.shifts[k])
        assert bound.per_class[k] <= exact + 1e-12
        assert exact - bound.per_class[k] <= 1e-8
    assert bound.delta == min(v for v in bound.per_class.values() if v is not None)
