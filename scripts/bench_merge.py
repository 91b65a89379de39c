"""Merge nfbench run records of a parent and a change into one BENCH file.

nfbench/run.py writes each run's record to nfbench/runs/, overwriting the
previous run of the same workload, seed and trace setting; copy each record
aside after its run.  Records are grouped by (workload, seed, trace), and
each side's runs are kept in the order given, so with alternating runs the
i-th parent and change values form a pair:

    python3 scripts/bench_merge.py --out BENCH_11.json \\
        --parent parent-runs/*.json --change change-runs/*.json

For every metric of a group the file holds each side's run values, median
and quartiles, and the number of pairs in which the change reads lower.
All records must come from one machine, and each side from one commit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MACHINE = ("nproc", "cpu", "python", "numpy")


def summary(values: list) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--parent", required=True, nargs="+", type=Path)
    parser.add_argument("--change", required=True, nargs="+", type=Path)
    args = parser.parse_args(argv)

    machines, commits, groups = set(), {}, {}
    for side in ("parent", "change"):
        for path in getattr(args, side):
            record = json.loads(path.read_text())
            prov = record["provenance"]
            machines.add(json.dumps({key: prov[key] for key in MACHINE}))
            commits.setdefault(side, set()).add(prov["git_commit"])
            key = (prov["workload"], prov["seed"], prov["trace"])
            runs = groups.setdefault(key, {"parent": [], "change": []})[side]
            runs.append(record["metrics"])
    if len(machines) != 1 or any(len(c) != 1 for c in commits.values()):
        sys.exit("bench_merge: records from several machines or commits: "
                 f"{sorted(machines)} {commits}")

    rows = []
    for (workload, seed, trace), sides in sorted(groups.items()):
        if not all(sides.values()):
            sys.exit(f"bench_merge: {workload} seed {seed} trace {trace} "
                     "has runs on one side only")
        row = {"workload": workload, "seed": seed, "trace": trace,
               "runs": {side: len(runs) for side, runs in sides.items()},
               "metrics": {}}
        for name in sides["parent"][0]:
            parent = [run[name] for run in sides["parent"]]
            change = [run[name] for run in sides["change"]]
            row["metrics"][name] = {
                "parent": summary(parent), "change": summary(change),
                "change_lower": sum(c < p for p, c in zip(parent, change))}
        rows.append(row)
    machine = json.loads(machines.pop())
    bench = {"machine": machine,
             "commits": {side: c.pop() for side, c in commits.items()},
             "rows": rows}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
