"""Record a trajectory point and RA/URA references in bench/baseline.json.

    python3 bench/record_baseline.py LABEL

Reads the result records that ``bench/run.py`` left in
``.bench_out/results/``.  For each workload it stores the median and
quartiles of every metric over the seeds found, next to the run metadata,
as a new point appended to ``trajectory``.  The robust accuracy (RA) and
its margin-only under-approximation (URA) per epsilon of every seed go to
``reference``, which ``run.py`` then checks later runs against; existing
references are never replaced.
"""

import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
RESULTS = BENCH.parent / ".bench_out" / "results"
BASELINE = BENCH / "baseline.json"


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def main() -> int:
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    label = sys.argv[1]
    baseline = json.loads(BASELINE.read_text()) if BASELINE.is_file() else {}
    reference = baseline.setdefault("reference", {})
    point = {"label": label, "meta": None, "workloads": {}}
    for path in sorted(RESULTS.glob("*.json")):
        record = json.loads(path.read_text())
        if not record["correct"]:
            raise SystemExit(f"{path.name}: run was not correct; not recording it")
        name, seed = record["workload"], str(record["meta"]["seed"])
        meta = {k: v for k, v in record["meta"].items() if k != "seed"}
        if point["meta"] is None:
            point["meta"] = meta
        elif point["meta"]["src_sha256"] != meta["src_sha256"]:
            raise SystemExit(f"{path.name}: results come from different sources")
        reference.setdefault(name, {}).setdefault(
            seed, {"ra": record["robust_accuracy"], "ura": record["under_approx"]})
        entry = point["workloads"].setdefault(
            name, {"seeds": [], "end_to_end": {}, "per_layer": {}})
        kind = "per_layer" if path.stem.endswith("trace1") else "end_to_end"
        if kind == "end_to_end":
            entry["seeds"].append(int(seed))
        for metric, value in record["metrics"].items():
            entry[kind].setdefault(metric, []).append(value)
    for entry in point["workloads"].values():
        entry["seeds"].sort()
        for kind in ("end_to_end", "per_layer"):
            entry[kind] = {m: quartiles(v) for m, v in entry[kind].items()}
    baseline.setdefault("trajectory", []).append(point)
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"recorded {label!r}: {', '.join(sorted(point['workloads']))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
