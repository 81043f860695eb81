"""A saved verdict re-checks offline, without solving anything.

Each exact verdict records, per rival class, the shift at which the
verifier evaluated its dual bound.  Any positive shift gives a sound lower
bound by weak duality, so ``qrv recheck`` needs only the classifier, the
dataset, the report and the adversarial sidecar.  It reclassifies the
dataset, takes each exact verdict's bound from the dual at its recorded
shifts and rebuilds every run with the verifier's own assembly; each field
and total of the rebuilt run must equal the saved one, and every witness is
measured again.  Editing a single delta makes it fail.  The files are
written to a temporary directory, removed at the end.
"""

import json
import os
import tempfile

import numpy as np

from qrv import (
    LabeledDataset,
    classify_batch,
    random_classifier,
    random_density_matrix,
    random_pure_state,
)
from qrv import cli, formats

rng = np.random.default_rng(5)
classifier = random_classifier(4, rng, n_classes=3, kraus_rank=2)
states = ([random_pure_state(4, rng) for _ in range(10)]
          + [random_density_matrix(4, rng, rank=2) for _ in range(10)])
labels = classify_batch(classifier, states).labels

with tempfile.TemporaryDirectory() as tmp:
    files = [os.path.join(tmp, name) for name in
             ("classifier.json", "dataset.json", "report.json", "adversarial.json")]
    edited = os.path.join(tmp, "edited.json")
    formats.save_classifier(files[0], classifier)
    formats.save_dataset(files[1], LabeledDataset(zip(states, labels)))

    print("$ qrv verify classifier.json dataset.json --epsilon 0.005,0.02 ...")
    cli.main(["verify", *files[:2], "--epsilon", "0.005,0.02", "--omit-timings",
              "--report", files[2], "--adversarial", files[3]])

    with open(files[2]) as fh:
        report = json.load(fh)
    exact = next(v for v in report["runs"][0]["verdicts"]
                 if v["dual_shifts"] and v["delta"] is not None)
    print(f"\nentry {exact['index']}: delta = {exact['delta']:.6f}, "
          f"dual shifts per class {exact['dual_shifts']}")

    print("\n$ qrv recheck classifier.json dataset.json report.json adversarial.json")
    print("exit code", cli.main(["recheck", *files]))

    exact["delta"] += 1e-6
    formats.write_json(edited, report)
    print(f"\nafter raising delta of entry {exact['index']} by 1e-6:")
    print("exit code", cli.main(["recheck", *files[:2], edited, files[3]]))
