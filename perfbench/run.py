#!/usr/bin/env python3
"""genomelm benchmark: four CLI pipelines, a traced run and a correctness gate.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload recover --seed 0 --seconds 10 --trace 0

Each workload makes its inputs from --seed and runs its pipeline once
untimed. It then runs it as a closed loop from this one process for
--seconds and reports the median rate over those runs. After each run it
sets up again; setup_s is the median over all set-ups. Every run must write
the same output bytes as the first. The gate then checks the outputs
against the benchmark's own reference computations.

With --trace 0 the last line of stdout holds the end-to-end metrics. With
--trace 1 the first half of the time runs untraced and the second half
traced. The last line then holds the per-layer metrics of one traced run
(times are medians over the traced runs), the traced and untraced rates,
and their ratio. Every count must repeat exactly across the traced runs.
The spans and counters of the first traced run are written to
.bench_work/trace-<workload>-s<seed>.json.

The last line is a JSON object with the keys correct, attempted, failed
and metrics. The lines before it start with '#' and are for people: the
run's metadata, gate failures, and each metric with its unit. A failed
gate or command prints the result with "correct": false and exits 1.
Without src/genomelm the script exits 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

if not __package__:  # run as a script: make the perfbench package importable
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
from perfbench import tracing, workloads  # noqa: E402

END_TO_END = {
    "items_per_s": "items/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "heldout_bits_per_nt": "bits/nt",
    "recover_acc": "fraction",
    "vep_auroc": "fraction",
    "design_gap": "activity",
}
QUALITY = ("heldout_bits_per_nt", "recover_acc", "vep_auroc", "design_gap")
# A quality metric is measured only on its own workload. The others report
# this fixed value: every run must list every end-to-end metric, none may
# read 0, and a constant can never move.
NOT_MEASURED = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full",
                   help="input size; tiny is for the smoke test")
    return p.parse_args(argv)


def git_commit(root: Path) -> str:
    git = root / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    ref = (git / "HEAD").read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def metadata(root: Path) -> dict:
    """Run facts for the record; none of them is gated."""
    import numpy

    from genomelm import cli

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(root),
        "threads_default": cli._default_threads(),
        "src_lines": sum(
            len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py"))
        ),
    }


class Runner:
    """Runs one workload's pipeline, timing each run."""

    def __init__(self, workload):
        self.w = workload
        self.reference = None  # digest of the first run's outputs
        self.items = 0
        self.attempted = 0
        self.errors: list[str] = []

    def once(self):
        """One run: (seconds, bridge peer report), or None if it failed."""
        start = time.perf_counter()
        try:
            self.w.run()
        except workloads.CommandFailed as exc:
            self.errors.append(str(exc))
            self.w.finish()
            return None
        elapsed = time.perf_counter() - start
        peer = self.w.finish()
        out = workloads.digest(self.w.outputs())
        if self.reference is None:
            self.reference = out
            self.items = self.w.items()
        elif out != self.reference:
            self.errors.append("outputs differ from the first run's")
        self.attempted += self.items
        return elapsed, peer

    def loop(self, seconds: float, after=None) -> list[float]:
        """Closed loop for `seconds`; returns items/s of each run."""
        rates = []
        deadline = time.perf_counter() + seconds
        while not self.errors and (not rates or time.perf_counter() < deadline):
            done = self.once()
            if done is None or self.errors:
                break
            rates.append(self.items / done[0])
            if after:
                after(done[1])
        return rates


def traced_metrics(runner, w, work: Path, seconds: float, trace_file: Path) -> dict:
    untraced = runner.loop(seconds / 2)
    if hasattr(w, "stats_file"):
        w.stats_file = str(work / "peer_stats.json")
    tracer = tracing.Tracer()
    per_run: list[dict] = []
    first: list = []

    def collect(peer):
        tracer.active = False
        spans, counts = tracer.take()
        per_run.append(tracing.layer_metrics(spans, counts, peer))
        if not first:
            first.extend((spans, counts))
        tracer.active = True

    tracer.install()
    tracer.active = True
    try:
        traced = runner.loop(seconds / 2, after=collect)
        while len(per_run) < 2 and not runner.errors:  # counts must repeat
            traced += runner.loop(0, after=collect)
    finally:
        tracer.active = False
        tracer.uninstall()
    if runner.errors:
        return {}
    metrics, unstable = tracing.combine(per_run)
    if unstable:
        runner.errors.append(f"counts differ between traced runs: {', '.join(unstable)}")
    metrics["trace.untraced_items_per_s"] = statistics.median(untraced)
    metrics["trace.traced_items_per_s"] = statistics.median(traced)
    metrics["trace.slowdown"] = (
        metrics["trace.untraced_items_per_s"] / metrics["trace.traced_items_per_s"]
    )
    tracing.dump(trace_file, first[0], first[1], metrics)
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "genomelm" / "cli.py").is_file():
        print(f"error: no src/genomelm under {root}; run from a genomelm checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 1

    bench_dir = root / ".bench_work"
    work = bench_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    w = workloads.WORKLOADS[args.workload](args.seed, args.size)
    runner = Runner(w)
    print("# meta " + json.dumps(metadata(root), sort_keys=True))
    metrics: dict[str, float] = {}
    try:
        work.mkdir(parents=True)
        setup_times = []

        def setup(_peer=None):
            start = time.perf_counter()
            w.setup(work)
            setup_times.append(time.perf_counter() - start)

        setup()
        if runner.once() is not None:  # untimed: fixes the reference outputs
            if args.trace:
                metrics = traced_metrics(runner, w, work, args.seconds,
                                         bench_dir / f"trace-{args.workload}-s{args.seed}.json")
            else:
                # Set up again after every run. The same seed rewrites the same
                # input bytes, and the set-up times spread over the whole run.
                rates = runner.loop(args.seconds, after=setup)
                metrics = {
                    "items_per_s": statistics.median(rates) if rates else 0.0,
                    "setup_s": statistics.median(setup_times),
                    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                }
        if not runner.errors:
            quality, failures = w.check()
            runner.errors.extend(failures)
            if not args.trace:
                for name in QUALITY:
                    metrics[name] = quality if name == w.quality else NOT_MEASURED
    except workloads.CommandFailed as exc:
        runner.errors.append(str(exc))
    finally:
        w.finish()
        shutil.rmtree(work, ignore_errors=True)

    for err in runner.errors:
        print(f"# gate: {err}")
    unit = END_TO_END.get if not args.trace else tracing.unit_of
    for name, value in metrics.items():
        note = " (not measured on this workload)" if name in QUALITY and name != w.quality else ""
        print(f"# {name} = {value:.6g} {unit(name)}{note}")
    attempted = max(1, runner.attempted)
    print(json.dumps({
        "correct": not runner.errors,
        "attempted": attempted,
        "failed": attempted if runner.errors else 0,
        "metrics": {name: {"value": value, "unit": unit(name)} for name, value in metrics.items()},
    }))
    return 1 if runner.errors else 0


if __name__ == "__main__":
    sys.exit(main())
