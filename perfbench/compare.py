"""Spread and comparison of saved run.py outputs.

Usage, from the root of a source checkout:

    python3 perfbench/compare.py RUNS_DIR             # spread of each metric
    python3 perfbench/compare.py BASE_DIR NEW_DIR     # and the change of medians

Each file in a directory holds the standard output of one run.py invocation.
For every workload and metric it prints the median over the runs and the
spread: the distance between the first and third quartiles as a share of the
median. Given two directories it also prints how far NEW's median is worse
than BASE's, as a share of BASE's, next to the metric's bound from
BENCHMARK.json. Runs made on different scalar backends measure different
arithmetic, so a comparison across backends is refused with exit code 2.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    """{(workload, trace): [(conditions, result)]} for the runs in a directory."""
    runs = {}
    for path in sorted(Path(directory).iterdir()):
        lines = path.read_text(encoding="utf-8").splitlines()
        marker = "# conditions "
        conditions = next((json.loads(line[len(marker):]) for line in lines
                           if line.startswith(marker)), None)
        if conditions is None or not lines:
            print(f"skipping {path}: not a run.py output", file=sys.stderr)
            continue
        key = (conditions["workload"], conditions["trace"])
        runs.setdefault(key, []).append((conditions, json.loads(lines[-1])))
    return runs


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, new, better):
    change = (new - base) / base
    return change if better == "lower" else -change


def main(argv):
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    sets = [load(d) for d in argv]
    backends = {c["backend"] for runs in sets for group in runs.values() for c, _ in group}
    if len(backends) > 1:
        print(f"refusing to compare runs made on different backends: {sorted(backends)}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    print(f"backend: {', '.join(sorted(backends))}")
    for key in sorted(set().union(*sets)):
        workload, trace = key
        groups = [runs.get(key, []) for runs in sets]
        failed = sum(r["failed"] for group in groups for _, r in group)
        attempted = sum(r["attempted"] for group in groups for _, r in group)
        print(f"\n{workload} trace={trace}: runs {[len(g) for g in groups]}, "
              f"failed {failed} of {attempted} attempted")
        names = sorted({n for group in groups for _, r in group for n in r["metrics"]})
        for name in names:
            spec_m = metrics.get(name, {})
            bound = spec_m.get("bound")
            cells = []
            medians = []
            for group in groups:
                values = [r["metrics"][name]["value"] for _, r in group if name in r["metrics"]]
                if len(values) < 2 or not statistics.median(values):
                    cells.append(f"median {statistics.median(values) if values else 0:12.4f}"
                                 f" spread      -")
                    medians.append(None)
                    continue
                medians.append(statistics.median(values))
                cells.append(f"median {medians[-1]:12.4f} spread {spread(values):6.3f}")
            line = f"  {name:44s} " + " | ".join(cells)
            if bound is not None:
                line += f" | bound {bound:.2f}"
                if len(medians) == 2 and None not in medians:
                    line += f" | worse by {worse_by(*medians, spec_m['better']):+.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
