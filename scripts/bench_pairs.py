#!/usr/bin/env python3
"""Compare one benchmark workload between a parent revision and the working tree.

    python3 scripts/bench_pairs.py --parent HEAD --workload whitebox-decode \\
        --seed 5 --seconds 28 --pairs 10 [--trace 1]

Run from the root of a checkout. The parent is a ``git archive`` copy of REV
in a temporary directory; the change is the working tree as it stands. Each
pair runs ``perfbench/run.py`` once on each side, the parent first in odd
pairs and second in even ones, so a drift in host speed does not favour one
side. Progress goes to standard error; standard output is one JSON object:
per metric, the runs of each side, their medians and inclusive quartiles,
the change in percent, the parent's interquartile range and, for a metric
that BENCHMARK.json gives a direction, the number of pairs the change won.
An end-to-end metric also gets a verdict against its bound in BENCHMARK.json
(see ``verdict``).
"""

from __future__ import annotations

import argparse
import io
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def directions(benchmark: dict) -> dict[str, str]:
    """Metric name -> "lower" or "higher", from BENCHMARK.json's metric lists."""
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in benchmark.get(key, [])}


def quartiles(values: list[float]) -> list[float]:
    """First and third quartile, inclusive method (a single value is its own quartiles)."""
    if len(values) == 1:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, q3]


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """Whether the change is worse on an end-to-end metric, as BENCHMARK.json's bound judges it.

    "worse": the change's median is worse than the parent's by more than
    ``bound`` times the parent's median. "unresolved": the parent's runs spread
    too widely to tell, their interquartile range exceeding ``bound`` times
    their median, unless every change run beats every parent run. "no worse"
    otherwise.
    """
    sign = 1 if better == "higher" else -1
    pm, cm = statistics.median(parent), statistics.median(change)
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    q1, q3 = quartiles(parent)
    if q3 - q1 > bound * abs(pm) and min(sign * c for c in change) <= max(sign * p for p in parent):
        return "unresolved"
    return "no worse"


def _rounded(values: list) -> list:
    return [None if v is None else round(v, 4) for v in values]


def summarize_metric(parent: list, change: list, better: str | None, bound: float | None = None) -> dict:
    """Medians, quartiles, pair wins and, given a bound, the verdict of one metric.

    None marks a run that lacked the metric.
    """
    p = [v for v in parent if v is not None]
    c = [v for v in change if v is not None]
    out: dict = {"parent_runs": _rounded(parent), "change_runs": _rounded(change)}
    if not (p and c):
        return out
    pm, cm = statistics.median(p), statistics.median(c)
    pq = quartiles(p)
    out.update(
        parent_median=round(pm, 4),
        parent_quartiles=[round(q, 4) for q in pq],
        parent_interquartile_range=round(pq[1] - pq[0], 4),
        change_median=round(cm, 4),
        change_quartiles=[round(q, 4) for q in quartiles(c)],
        change_pct=round(100.0 * (cm - pm) / pm, 2) if pm else None,
    )
    if better is not None:
        sign = 1 if better == "higher" else -1
        out["change_better_pairs"] = sum(
            1 for a, b in zip(parent, change) if a is not None and b is not None and sign * (b - a) > 0
        )
        if bound is not None:
            out["verdict"] = verdict(p, c, better, bound)
    return out


def summarize(runs: dict[str, list[dict]], better: dict[str, str], end_to_end: dict[str, float]) -> dict:
    """Summary of paired results; ``runs[side][i]`` is run.py's result line for pair i + 1.

    ``end_to_end`` maps each end-to-end metric to its bound.
    """
    pairs = len(runs["parent"])
    if len(runs["change"]) != pairs:
        raise ValueError("each side needs one result per pair")
    names: list[str] = []
    for result in runs["parent"] + runs["change"]:
        names += [name for name in result["metrics"] if name not in names]
    summary: dict = {
        "pairs": pairs,
        "correct_all_runs": all(r["correct"] for side in SIDES for r in runs[side]),
        "failed_total": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "attempted_total": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
    }
    for name in names:
        values = {
            side: [(r["metrics"].get(name) or {}).get("value") for r in runs[side]] for side in SIDES
        }
        group = "end_to_end" if name in end_to_end else "per_layer"
        summary.setdefault(group, {})[name] = summarize_metric(
            values["parent"], values["change"], better.get(name), end_to_end.get(name)
        )
    return summary


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """Run perfbench/run.py in ``checkout`` and return its last output line, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(f"bench_pairs: {' '.join(cmd)} in {checkout} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def export(rev: str, dest: Path) -> None:
    """Write the files of ``rev`` into ``dest``, as ``git archive`` packs them."""
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True)
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(dest, filter="data")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        checkouts = {"parent": Path(tmp), "change": ROOT}
        export(args.parent, checkouts["parent"])
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                result = run_once(checkouts[side], args)
                runs[side].append(result)
                print(f"pair {pair} {side}: correct={result['correct']} attempted={result['attempted']}"
                      f" failed={result['failed']}", file=sys.stderr)

    summary = {
        "parent": args.parent, "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        **summarize(runs, directions(benchmark), {m["name"]: m["bound"] for m in benchmark["end_to_end"]}),
    }
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
