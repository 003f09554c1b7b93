#!/usr/bin/env python3
"""Run one promptsan benchmark workload and print its metrics.

    python3 perfbench/run.py --workload sanitize-mock --seed 1 --seconds 28 --trace 0

Run from the root of a checkout; the package is imported from ``src/``. The
run sets up (imports, seeded inputs, services, warm-up) ``SETUP_REPS`` times
and reports the median, then measures a closed loop for ``--seconds``. Every
operation's output is checked. Operation times are calibrated to a reference
host speed with a probe timed between operations (see ``stats``); the report
line also gives them as the wall clock read them. Set-up time is wall time.
With ``--trace 1`` the first half of the time is measured untraced and the
second half traced; the run then reports the per-layer metrics, the tracing
overhead on each end-to-end metric, and writes its spans to ``.perfbench_out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "promptsan" / "__init__.py").is_file():
    sys.exit(f"perfbench: no promptsan package under {SRC}; run from a checkout of the repository")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import requests  # noqa: E402

import layers  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402
from stub import stop_resource_tracker  # noqa: E402
from tracing import Tracer, check_trace  # noqa: E402

SETUP_REPS = 5
OUT_DIR = ROOT / ".perfbench_out"
PROMPT_SAMPLE = 20

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


@dataclass
class Tally:
    attempted: int = 0
    ok: int = 0
    raised: int = 0
    check_failed: int = 0
    ops: list[stats.OpRecord] = field(default_factory=list)
    probes: list[tuple[int, int]] = field(default_factory=list)
    problems: Counter = field(default_factory=Counter)
    prompts: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.raised + self.check_failed

    def add_counts(self, other: "Tally") -> None:
        for name in ("attempted", "ok", "raised", "check_failed"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.problems.update(other.problems)
        self.prompts += other.prompts


def execute(wl: workloads.Workload, op, tally: Tally, tracer: Tracer | None = None) -> None:
    """Run one operation, time it, check its output and count the outcome."""
    previous = tracer.begin_op(wl.prompt_of(op), unit=not wl.rows_are_units) if tracer else None
    cpu_started = time.thread_time_ns()
    started = time.perf_counter_ns()
    try:
        out, exc = wl.run(op), None
    except Exception as error:  # every failure is counted, none ends the run
        out, exc = None, error
    ended = time.perf_counter_ns()
    cpu_ns = time.thread_time_ns() - cpu_started

    with tracer.paused() if tracer else nullcontext():
        if exc is None:
            try:
                wl.check(op, out)
                status = "ok"
            except workloads.CheckFailed as failure:
                status = "check_failed"
                tally.problems[f"check: {failure}"] += 1
        else:
            status = "raised"
            tally.problems[f"raised: {type(exc).__name__} {getattr(exc, 'stage', '')}".rstrip()] += 1
    if tracer:
        tracer.end_op(previous, status)

    tally.attempted += 1
    setattr(tally, status, getattr(tally, status) + 1)
    tally.ops.append(stats.OpRecord(started, ended, cpu_ns, status == "ok", wl.items(op)))
    if len(tally.prompts) < PROMPT_SAMPLE:
        tally.prompts += wl.prompts(op)[: PROMPT_SAMPLE - len(tally.prompts)]


def import_package() -> None:
    """Start a fresh interpreter that imports the package, as a user's process would."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, "-c", "import promptsan"], check=True, cwd=ROOT, env={**os.environ, "PYTHONPATH": path}
    )


def set_up(wl: workloads.Workload, seed: int) -> tuple[float, Counter]:
    """Set up SETUP_REPS times: imports, inputs, services, warm-up.

    Returns the median wall time and the problems found in the warm-up
    outputs. The time is not calibrated: a probe timed before and after a
    set-up samples the host speed at two instants and tracks fresh-interpreter
    import work poorly, so calibrating added noise rather than removing it.
    """
    walls = []
    problems: Counter = Counter()
    for rep in range(SETUP_REPS):
        if rep:
            wl.close()
        started = time.perf_counter_ns()
        import_package()
        wl.prepare(seed)
        wl.bind(None)
        outcomes = []
        for _ in range(wl.warmup_ops):
            op = wl.next_op()
            try:
                outcomes.append((op, wl.run(op), None))
            except Exception as exc:
                outcomes.append((op, None, exc))
        walls.append((time.perf_counter_ns() - started) / 1e9)
        for op, out, exc in outcomes:
            if exc is None:
                try:
                    wl.check(op, out)
                except workloads.CheckFailed as failure:
                    problems[f"warm-up check: {failure}"] += 1
            else:
                problems[f"warm-up raised: {type(exc).__name__}"] += 1
    return stats.median(walls), problems


def measure(wl: workloads.Workload, seconds: float, tracer: Tracer | None) -> Tally:
    """Closed loop for ``seconds``, with a host-speed probe every PROBE_EVERY_NS."""
    wl.bind(tracer)
    tally = Tally()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    last_probe = None
    while (now := time.perf_counter_ns()) < deadline:
        if last_probe is None or now - last_probe >= stats.PROBE_EVERY_NS:
            tally.probes.append((now, wl.probe.run_ns()))
            last_probe = now
        execute(wl, wl.next_op(), tally, tracer)
    tally.probes.append((time.perf_counter_ns(), wl.probe.run_ns()))
    wl.bind(None)
    return tally


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally: Tally, setup_s: float, rss_mb: float) -> dict[str, float]:
    """End-to-end values; operation times are calibrated to the reference host speed."""
    times = stats.calibrated_ms(tally.ops, tally.probes)
    ok_ms = [ms for ms, op in zip(times, tally.ops) if op.ok] or [0.0]
    busy_s = sum(times) / 1e3
    return {
        "setup_s": setup_s,
        "latency_p50_ms": stats.percentile(ok_ms, 50.0),
        "latency_p90_ms": stats.percentile(ok_ms, 90.0),
        "items_per_s": sum(op.items for op in tally.ops if op.ok) / busy_s if busy_s else 0.0,
        "peak_rss_mb": rss_mb,
    }


def as_measured(tally: Tally) -> dict[str, float]:
    """The operation timings uncalibrated, as the wall clock read them, and the probe's median."""
    ok_ms = [(op.end_ns - op.start_ns) / 1e6 for op in tally.ops if op.ok] or [0.0]
    busy_s = sum(op.end_ns - op.start_ns for op in tally.ops) / 1e9
    return {
        "latency_p50_ms": stats.percentile(ok_ms, 50.0),
        "latency_p90_ms": stats.percentile(ok_ms, 90.0),
        "items_per_s": sum(op.items for op in tally.ops if op.ok) / busy_s if busy_s else 0.0,
        "probe_us_p50": stats.median([ns for _, ns in tally.probes]) / 1e3,
    }


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(args: argparse.Namespace, wl: workloads.Workload, load_start: tuple) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "requests": requests.__version__,
        "git_sha": git_sha(ROOT),
        "probe": wl.probe.name,
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
    }


def counts(tally: Tally) -> dict:
    return {
        "attempted": tally.attempted,
        "succeeded": tally.ok,
        "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted if tally.attempted else 0.0,
        "raised": tally.raised,
        "check_failed": tally.check_failed,
        "problems": dict(tally.problems),
    }


def summary(tally: Tally) -> dict:
    """Operation counts and the latency samples behind the percentiles."""
    samples = sum(op.ok for op in tally.ops)
    return {
        **counts(tally),
        "latency_samples": samples,
        "tail_percentile": stats.tail_percentile(samples),
    }


def named(e2e: dict[str, float], wl: workloads.Workload) -> dict[str, float]:
    """End-to-end values plus the throughput under the workload's own item name."""
    return {**e2e, ("rows_per_s" if wl.rows_are_units else "prompts_per_s"): e2e["items_per_s"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_start = os.getloadavg()
    wl = workloads.WORKLOADS[args.workload]()
    tracer = None
    try:
        setup_s, warmup_problems = set_up(wl, args.seed)
        if args.trace == 0:
            measured = measure(wl, args.seconds, None)
            rss_mb = peak_rss_mb()
        else:
            base = measure(wl, args.seconds / 2.0, None)
            base_rss = peak_rss_mb()
            tracer = Tracer()
            with tracer.installed(layers.TARGETS, layers.BUILDER_TARGETS):
                measured = measure(wl, args.seconds / 2.0, tracer)
            rss_mb = peak_rss_mb()
        run_problems = wl.finish()
    finally:
        wl.close()
        stop_resource_tracker()

    e2e = end_to_end(measured, setup_s, rss_mb)
    meta = metadata(args, wl, load_start)
    if tracer is None:
        totals = measured
        values, units = e2e, dict(END_TO_END)
        report = {
            "meta": meta,
            "end_to_end": named(e2e, wl),
            "as_measured": as_measured(measured),
            "counts": summary(totals),
        }
    else:
        base_e2e = end_to_end(base, setup_s, base_rss)
        totals = Tally()
        totals.add_counts(base)
        totals.add_counts(measured)
        values = layers.derive(tracer)
        for name, _, _ in layers.OVERHEAD_METRICS:
            values[layers.overhead_name(name)] = e2e[name] - base_e2e[name]
        units = {name: unit for name, unit, _ in layers.per_layer_specs()}
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        report = {
            "meta": meta,
            "counts": counts(totals),
            "untraced": {
                "end_to_end": named(base_e2e, wl),
                "as_measured": as_measured(base),
                "counts": summary(base),
            },
            "traced": {
                "end_to_end": named(e2e, wl),
                "as_measured": as_measured(measured),
                "counts": summary(measured),
            },
            "per_layer": values,
            "missing": tracer.missing,
            "spans": len(tracer.start),
            "layer_map": layers.LAYER_MAP,
            "trace_file": str(trace_path.relative_to(ROOT)),
        }
        tracer.write(str(trace_path), report)
        run_problems += check_trace(str(trace_path), set(tracer.names), measured.prompts)

    report["run_problems"] = run_problems
    report["warmup_problems"] = dict(warmup_problems)
    result = {
        "correct": not (totals.raised or totals.check_failed or warmup_problems or run_problems),
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    lines = [json.dumps({"report": report}, sort_keys=True), json.dumps(result)]
    if any(p in line for line in lines for p in totals.prompts):
        result["correct"] = False
        lines = [json.dumps({"report": {"meta": meta, "run_problems": ["report contains prompt text"]}}),
                 json.dumps(result)]

    total, samples = counts(totals), summary(measured)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = "missing" if value is None else f"{value:.6g}"
        print(f"  {name:<44} {shown:>14} {metric['unit']}")
    print(
        f"  attempted {total['attempted']}, succeeded {total['succeeded']}, failed {total['failed']}"
        f" (failed_ratio {total['failed_ratio']:.4g});"
        f" latency samples {samples['latency_samples']}, tail p{samples['tail_percentile']}"
    )
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
