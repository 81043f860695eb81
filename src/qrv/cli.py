"""Command-line workflow.

Subcommands: ``classify``, ``verify``, ``recheck`` (a saved report,
offline), ``bound`` (margin filter only), ``gen-qubit``, ``encode-image``.

Exit codes: 0 success; 1 verification found non-robust states and
``--strict`` was given (without it this is informational and exits 0),
or ``recheck`` found a mismatch; 2 input/schema error or a file that
cannot be read or written, printed with the failing document path, or a
malformed ``QRV_MAX_DIM``, checked before any file is read; 3 any
other qrv error (the exact bound has no solver that can fail); 141, printing
nothing, a pipe the command wrote to was closed (128 + SIGPIPE): its files
are written before it prints, but one that is itself a pipe may be cut short.

Each command is one short process, so its start-up and teardown count.
Unless already set, ``OPENBLAS_NUM_THREADS`` is 1 before numpy loads, and
the garbage collector is off while numpy and qrv load; :func:`run`, the entry
of ``qrv`` and ``python -m qrv.cli``, then freezes (``gc.freeze``) what they
made and, after the command, what it left.  ``recheck`` and ``casestudy``
load only for ``recheck``, ``gen-qubit`` and ``encode-image``; a command
that reads a classifier reads its POVM ``effects`` and never loads
``channels``.  No output may name an input or another output of its command,
an existing file compared by identity, so a hard link counts.  Every document
a command writes is built by :mod:`qrv.formats`; ``classify`` prints its table
from its report's rows.
"""

from __future__ import annotations

import gc
import os

# Starting numpy's bundled OpenBLAS with a thread per core costs ~65 ms of
# CPU per process on 2 vCPUs; a second thread gains little at dim <= 256.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
_COLLECTING = gc.isenabled()
gc.disable()  # loading numpy and qrv makes long-lived objects, no garbage
try:
    import argparse
    import sys
    import time

    from .classifiers import accuracy, classify_batch
    from .config import check_epsilon, dimension_cap
    from .errors import QrvError, SchemaError, ValidationError
    from . import formats
    from .verifier import VerifyOptions, verify_epsilons
finally:
    if _COLLECTING:
        if not gc.get_freeze_count():  # what loaded goes to the oldest generation,
            gc.freeze()  # so no young pass (~8 ms) walks it before run() freezes
            gc.unfreeze()  # it, as the `qrv` script allocates between the two
        gc.enable()

EXIT_OK = 0
EXIT_NON_ROBUST = 1
EXIT_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_INTERNAL_ERROR = 3
EXIT_BROKEN_PIPE = 141


def _sig4(x: float) -> str:
    """Report numbers carry four significant digits."""
    if x == 0:
        return "0.000"
    return f"{x:.4g}"


def _row(title: str, cells) -> None:
    """One table row: a 34-wide title, then 16-wide right-aligned cells."""
    print(f"{title:<34}" + "".join(f"  {cell:>14}" for cell in cells))


def _parse_epsilons(raw: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in raw.split(",") if tok.strip())
    except ValueError as exc:
        raise ValidationError(f"bad --epsilon value {raw!r}") from exc
    if not values:
        raise ValidationError("--epsilon needs at least one value")
    return tuple(map(check_epsilon, values))


def _identity(path: str):
    """What a path names: an existing file's device and inode, so a hard link
    is the file it links, else its resolved path."""
    try:
        st = os.stat(path)
    except OSError:
        return os.path.realpath(path)
    return st.st_dev, st.st_ino


def _claim_outputs(args, inputs: dict, *outputs: str) -> None:
    """Before any file is read, refuse an output ``--<name>`` that names one
    of ``inputs`` (a description per path) or another output, or cannot be
    written; every file is left as found."""
    taken = {_identity(path): what for what, path in inputs.items()}
    for name in outputs:
        if path := getattr(args, name):
            if (same := _identity(path)) in taken:
                raise ValidationError(
                    f"{path}: --{name} names the same file as {taken[same]}")
            taken[same] = f"--{name}"
            existed = os.path.exists(path)
            open(path, "a").close()  # an unwritable output fails before any work
            if not existed:
                os.remove(path)  # and a command that fails later leaves no empty file


def _run_inputs(args, *outputs: str):
    """The run's classifier and dataset, checked against each other, once
    its outputs are claimed."""
    _claim_outputs(args, {"the classifier": args.classifier,
                          "the dataset": args.dataset}, *outputs)
    classifier = _load(formats.load_classifier, args.classifier)
    dataset = _load(formats.load_dataset, args.dataset)
    dataset.check_compatible(classifier)
    return classifier, dataset


def _load(loader, path):
    try:
        return loader(path)
    except SchemaError as exc:
        raise SchemaError(exc.message, f"{path}:{exc.path}") from exc


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_classify(args) -> int:
    classifier, dataset = _run_inputs(args, "report")
    states, labels = zip(*dataset)
    doc = formats.emit_classification(classify_batch(classifier, states), labels)
    if args.report:
        formats.write_json(args.report, doc)
    hits = sum(row["correct"] for row in doc["labels"])
    print(f"accuracy: {_sig4(doc['accuracy'])}  ({hits}/{len(dataset)})")
    print(f"{'index':>5}  {'label':>5}  {'predicted':>9}  {'margin':>10}  tie  correct")
    for i, label, pred, margin, tie, ok in map(dict.values, doc["labels"]):
        print(
            f"{i:>5}  {classifier.labels[label]:>5}  {classifier.labels[pred]:>9}  "
            f"{_sig4(margin):>10}  {'y' if tie else 'n':>3}  {'y' if ok else 'n'}"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    epsilons = _parse_epsilons(args.epsilon)
    classifier, dataset = _run_inputs(args, "report", "adversarial")

    options = VerifyOptions(seed=args.seed)
    reports = verify_epsilons(classifier, dataset, epsilons, options=options)
    if args.report:
        formats.write_json(args.report, formats.emit_reports(
            reports, include_timings=not args.omit_timings))
    if args.adversarial:
        formats.write_json(args.adversarial, formats.emit_adversarial_sidecar(
            [w for r in reports for w in r.adversarial], dataset))
    for warning in reports[0].warnings:  # every run has the same warnings
        print(f"warning: {warning}", file=sys.stderr)

    _row("Robust Accuracy (%)", [f"eps={_sig4(r.epsilon):>10}" for r in reports])
    _row("  margin bound (under-approx)",
         [f"{100 * r.under_approx_robust_accuracy:.2f}" for r in reports])
    _row("  exact verification", [f"{100 * r.robust_accuracy:.2f}" for r in reports])
    print("Verification time (s)")
    _row("  margin bound (under-approx)",
         [_sig4(r.timings["margin_seconds"]) for r in reports])
    _row("  exact verification", [_sig4(r.timings["total_seconds"]) for r in reports])
    for report in reports:
        print(
            f"eps={_sig4(report.epsilon)}: {report.adversarial_count} adversarial "
            f"example(s), {report.n_states - report.n_correct} misclassified"
        )

    if args.strict and any(r.adversarial_count for r in reports):
        return EXIT_NON_ROBUST
    return EXIT_OK


def _cmd_recheck(args) -> int:
    from .recheck import recheck_report

    classifier, dataset = _run_inputs(args)
    witnesses = _load(lambda p: formats.load_sidecar(p, classifier.dim), args.adversarial)
    problems, summary = _load(
        lambda p: recheck_report(classifier, dataset, formats.read_json(p), witnesses),
        args.report,
    )
    print("\n".join(problems) if problems else f"recheck: {summary}, consistent")
    return EXIT_MISMATCH if problems else EXIT_OK


def _cmd_bound(args) -> int:
    epsilons = _parse_epsilons(args.epsilon)
    classifier, dataset = _run_inputs(args, "report")
    t0 = time.perf_counter()
    batch = classify_batch(classifier, [state for state, _ in dataset])
    seconds = time.perf_counter() - t0
    columns = [(eps, batch.under_approx(eps)) for eps in epsilons]
    if args.report:
        formats.write_json(args.report, formats.emit_under_approx(columns))
    _row("Robust Accuracy (%)", [f"eps={_sig4(eps):>10}" for eps in epsilons])
    _row("  margin bound (under-approx)", [f"{100 * ura:.2f}" for _, ura in columns])
    _row("Time (s)", [_sig4(seconds)] * len(epsilons))  # one classification for all
    return EXIT_OK


def _cmd_gen_qubit(args) -> int:
    from . import casestudy

    # Options not given are absent from args; the generator's defaults apply.
    params = {k: v for k, v in vars(args).items() if k in casestudy.QUBIT_DEFAULTS}
    classifier, train, val = casestudy.generate_qubit_case_study(
        **params, seed=args.seed
    )
    prefix = args.out_prefix
    paths = {
        "classifier": f"{prefix}_classifier.json",
        "train": f"{prefix}_train.json",
        "validation": f"{prefix}_val.json",
    }
    formats.save_classifier(paths["classifier"], classifier)
    formats.save_dataset(paths["train"], train)
    formats.save_dataset(paths["validation"], val)
    print(f"classifier: {paths['classifier']}")
    print(f"train:      {paths['train']}  ({len(train)} states)")
    print(f"validation: {paths['validation']}  ({len(val)} states)")
    print(f"train accuracy:      {_sig4(accuracy(classifier, train))}")
    print(f"validation accuracy: {_sig4(accuracy(classifier, val))}")
    return EXIT_OK


def _cmd_encode_image(args) -> int:
    _claim_outputs(args, {"the image": args.image}, "out")
    from . import casestudy

    state = casestudy.encode_image(args.image)
    formats.save_state(args.out, state)
    print(f"encoded {args.image} -> {args.out} ({state.dim} amplitudes)")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qrv",
        description="Robustness verification of quantum classifiers "
        "against unknown noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="classify a dataset and report accuracy")
    p.add_argument("classifier")
    p.add_argument("dataset")
    p.add_argument("--report", help="write a JSON classification report")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("verify", help="verify epsilon-robustness of a dataset")
    p.add_argument("classifier")
    p.add_argument("dataset")
    p.add_argument("--epsilon", required=True,
                   help="threshold(s) in (0,1); comma-separated for a table")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when non-robust states are found")
    p.add_argument("--report", help="write the verification report JSON")
    p.add_argument("--adversarial",
                   help="write extracted adversarial states (dataset schema)")
    p.add_argument("--omit-timings", action="store_true",
                   help="drop wall-clock timings for byte-reproducible reports")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("recheck", help="re-check a saved verification report "
                       "and its adversarial sidecar without solving anything")
    for name in ("classifier", "dataset", "report", "adversarial"):
        p.add_argument(name)
    p.set_defaults(func=_cmd_recheck)

    p = sub.add_parser("bound", help="margin-bound under-approximation only")
    p.add_argument("classifier")
    p.add_argument("dataset")
    p.add_argument("--epsilon", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_bound)

    p = sub.add_parser("gen-qubit", help="generate the qubit case study files",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--theta-a", type=float)
    p.add_argument("--theta-b", type=float)
    p.add_argument("--theta-star", type=float)
    p.add_argument("--n-train", type=int)
    p.add_argument("--n-val", type=int)
    p.add_argument("--noise-std", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", default="qubit_case")
    p.set_defaults(func=_cmd_gen_qubit)

    p = sub.add_parser("encode-image", help="amplitude-encode a PGM image")
    p.add_argument("image")
    p.add_argument("--out", default="state.json")
    p.set_defaults(func=_cmd_encode_image)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        dimension_cap()  # a malformed QRV_MAX_DIM is not blamed on the first file read
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:  # the reader left; each command wrote its files first
        return EXIT_BROKEN_PIPE
    except ValidationError as exc:  # SchemaError included
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except QrvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL_ERROR
    except OSError as exc:
        where = "" if exc.filename is None else f"{exc.filename}: "
        print(f"input error: {where}{exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> int:
    """Process entry: :func:`main`, with what outlives it frozen."""
    gc.freeze()
    code = main()
    if code == EXIT_BROKEN_PIPE:  # what stdout still holds is flushed nowhere at exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
