"""Compare two sets of benchmark records, row by (metric, workload).

    python3 bench/compare.py PARENT CHANGE

PARENT and CHANGE are record files or directories of them, as written by
``bench/run.py --record`` (one JSON record per line).  Runs are paired by
(workload, seed, trace); run the two sides alternately, parent first on
odd seeds, change first on even seeds.  Each row is reported as

* improved   -- the change wins at least 9/10 of the pairs (ties count for
                neither) and the medians differ by more than the parent's
                interquartile range;
* worse      -- an end-to-end median is worse than the parent's by more than
                the metric's bound in BENCHMARK.json (for a per-layer metric,
                which has no bound: the mirror of the gain rule);
* unresolved -- the run-to-run spread (IQR / median) of either side exceeds
                the bound, unless every change run reads better than every
                parent run; or there are fewer than 10 pairs;
* unchanged  -- otherwise.

Counts (unit "count") are exact, so one pair decides them: any difference
is improved or worse.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def load(path: Path) -> list[dict]:
    """Run records from a file or a directory; other JSON files are skipped."""
    files = sorted(path.glob("*.json*")) if path.is_dir() else [path]
    out = []
    for f in files:
        if f.suffix == ".jsonl":
            items = [json.loads(line) for line in
                     f.read_text(encoding="utf-8").splitlines() if line.strip()]
        else:
            items = [json.loads(f.read_text(encoding="utf-8"))]
        out += [r for r in items if "result" in r and "workload" in r]
    return out


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def series(records, workload, trace, metric) -> dict:
    """seed -> value of the metric."""
    return {r["seed"]: r["result"]["metrics"][metric]["value"] for r in records
            if r["workload"] == workload and r["trace"] == trace
            and metric in r["result"]["metrics"]}


def classify(a: dict, b: dict, better: str, bound: float | None, unit: str) -> dict:
    seeds = sorted(set(a) & set(b))
    row = {"pairs": len(seeds)}
    if not seeds:
        return {**row, "status": "unresolved"}
    sign = 1 if better == "higher" else -1
    va, vb = [a[s] for s in seeds], [b[s] for s in seeds]
    q1a, meda, q3a = quartiles(va)
    q1b, medb, q3b = quartiles(vb)
    row.update(parent={"q1": q1a, "median": meda, "q3": q3a},
               change={"q1": q1b, "median": medb, "q3": q3b})
    if unit == "count":  # exact, so one pair is enough
        step = (medb - meda) * sign
        return {**row, "status": "improved" if step > 0 else "worse" if step < 0
                else "unchanged"}
    if len(seeds) < MIN_PAIRS:
        return {**row, "status": "unresolved"}
    wins = sum(1 for x, y in zip(va, vb) if (y - x) * sign > 0)
    losses = sum(1 for x, y in zip(va, vb) if (y - x) * sign < 0)
    gap = abs(medb - meda) > (q3a - q1a)
    row.update(wins=wins, losses=losses)
    if wins >= 0.9 * len(seeds) and gap and (medb - meda) * sign > 0:
        return {**row, "status": "improved"}
    if bound is None:
        worse = losses >= 0.9 * len(seeds) and gap and (medb - meda) * sign < 0
        return {**row, "status": "worse" if worse else "unchanged"}
    spread = max((q3a - q1a) / meda if meda else 0.0, (q3b - q1b) / medb if medb else 0.0)
    every_better = (min(vb) > max(va)) if sign > 0 else (max(vb) < min(va))
    if spread > bound and not every_better:
        return {**row, "status": "unresolved", "spread": spread}
    worse_by = (meda - medb) * sign / meda if meda else 0.0
    return {**row, "status": "worse" if worse_by > bound else "unchanged",
            "worse_by": worse_by}


def compare(parent: list[dict], change: list[dict], bench: dict) -> list[dict]:
    rows = []
    workloads = [w["name"] for w in bench["workloads"]]
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        for m in bench[key]:
            for w in workloads:
                row = classify(series(parent, w, trace, m["name"]),
                               series(change, w, trace, m["name"]),
                               m["better"], m.get("bound"), m["unit"])
                rows.append({"metric": m["name"], "workload": w, "unit": m["unit"], **row})
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    rows = compare(load(args.parent), load(args.change), bench)
    fmt = "{:<34} {:<6} {:>5}  {:<28}  {:<28}  {}"
    print(fmt.format("metric", "load", "pairs", "parent q1 / median / q3",
                     "change q1 / median / q3", "status"))
    for r in rows:
        if r["pairs"] == 0:
            continue
        sides = ["{q1:.4g} / {median:.4g} / {q3:.4g}".format(**r[k])
                 for k in ("parent", "change")]
        print(fmt.format(r["metric"], r["workload"], r["pairs"], *sides, r["status"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
