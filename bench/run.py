"""Benchmark for ucf: the certified n=6 t=3 campaign, listings, a
labelled campaign and single-family diagnostics.

    python3 bench/run.py --workload flagship --seed 1 --seconds 10 --trace 0

Run from a checkout of the repository; ucf is imported from its
``src`` directory.  Workloads: flagship, listing, labelled, diagnose
(see README.md).  With ``--trace 0`` the workload's operation repeats
until ``--seconds`` have passed (at least once) and the end-to-end
metrics are printed.  With ``--trace 1`` one untraced and one traced
operation run, and the per-layer metrics are printed.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORKERS = min(2, os.cpu_count() or 1)
SETUP_RUNS = 5

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
}

# ucf.verifier globals that the campaign visit and check_single call
TIMED = {
    "t_value": "core",
    "frankl_holds": "core",
    "s_frankl_holds": "core",
    "level_profile": "core",
    "lemma_1_2_bound": "core",
    "union_closure": "core",
    "frequency_profile": "core",
    "pair_decompose": "decomposition",
    "abundance_witness": "decomposition",
    "classify_shape": "decomposition",
}

PER_LAYER = {
    "enumeration.context_s": "s",
    "enumeration.walk_s": "s",
    "enumeration.emit_s": "s",
    "enumeration.families": "count",
    "enumeration.jobs_nonempty": "count",
    "enumeration.job_share_max": "ratio",
    **{
        f"{layer}.{name}{suffix}": unit
        for name, layer in [*TIMED.items(), ("parse_family", "fileformat"), ("to_dict", "verifier")]
        for suffix, unit in (("_s", "s"), (".calls", "count"))
    },
    "verifier.checks_s": "s",
    "verifier.pool_util": "ratio",
    "verifier.campaign_self_s": "s",
    "verifier.checkpoint_bytes": "bytes",
    "verifier.checkpoint_records": "count",
    "verifier.resume_s": "s",
    "cli.render_s": "s",
    "cli.out_bytes": "bytes",
    "trace.overhead_s": "s",
}

SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
import ucf.cli
from ucf.enumeration import EnumerationConstraints, job_depth
if len(sys.argv) > 1:
    job_depth(EnumerationConstraints(int(sys.argv[1]), int(sys.argv[2]), True, sys.argv[3] == "1"))
print(repr(perf_counter() - t0))
"""


def cpu_seconds() -> float:
    """User+sys CPU of this process and of every child it has waited for."""
    self_, kids = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
    return self_.ru_utime + self_.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    """Largest RSS of this process or of any child it has waited for."""
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def p99(samples: list[float]) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(samples)
    return ordered[math.ceil(0.99 * len(ordered)) - 1]


def setup_seconds(c) -> float:
    """Median over fresh interpreters of importing ucf and building the
    search context for c (import only when c is None)."""
    args = [] if c is None else [str(c.n), str(c.t), "1" if c.up_to_iso else "0"]
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    for _ in range(SETUP_RUNS):
        out = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        runs.append(float(out.stdout))
    return statistics.median(runs)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    attempted: int = 0
    failures: list[str] = field(default_factory=list)


@dataclass
class Op:
    wall: float
    cpu: float
    samples: list[float]


def run_op(w, state, work: str, workers: int, tally: Tally) -> Op:
    """One timed operation of w in work, gated after the clock stops."""
    cpu0 = cpu_seconds()
    t0 = perf_counter()
    try:
        result = w.execute(state, work, workers)
    except Exception:
        result = None
        tally.failures.append(traceback.format_exc())
    wall = perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    tally.attempted += w.attempted
    if result is None:
        return Op(wall, cpu, [wall])
    try:
        tally.failures += w.gate(state, work, result)
    except Exception:
        tally.failures.append(traceback.format_exc())
    return Op(wall, cpu, w.samples(result, wall))


@contextlib.contextmanager
def workdir():
    """A fresh scratch directory inside the checkout, removed afterwards."""
    path = tempfile.mkdtemp(prefix=".bench-work-", dir=ROOT)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)


def measure(w, seed: int, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics: repeat the operation until seconds have passed."""
    from ucf.enumeration import job_depth

    state = w.prepare(seed)
    c = w.constraints()
    if c is not None:
        job_depth(c)  # build the search context before the clock starts
    ops = []
    start = perf_counter()
    while not ops or perf_counter() - start < seconds:
        with workdir() as work:
            ops.append(run_op(w, state, work, WORKERS, tally))
    samples = [s for op in ops for s in op.samples]
    print(f"operations: {len(ops)}  latency samples: {len(samples)}")
    peak = peak_rss_mb()  # before the set-up interpreters below count as children
    return {
        "wall_s": statistics.median(op.wall for op in ops),
        "cpu_s": statistics.median(op.cpu for op in ops),
        "peak_rss_mb": peak,
        "setup_s": setup_seconds(c),
        "op_p50_ms": statistics.median(samples) * 1e3,
        "op_p99_ms": p99(samples) * 1e3,
    }


def walk_pass(c, families: int, tally: Tally) -> dict:
    """The walk alone: enumerate_job(c, job, None) summed over all jobs."""
    from ucf.enumeration import enumerate_job, subtree_jobs

    counts, seconds = [], 0.0
    for job in subtree_jobs(c):
        t0 = perf_counter()
        counts.append(enumerate_job(c, job, None))
        seconds += perf_counter() - t0
    tally.attempted += 1
    if sum(counts) != families:
        tally.failures.append(f"walk found {sum(counts)} families, expected {families}")
    return {
        "enumeration.walk_s": seconds,
        "enumeration.families": sum(counts),
        "enumeration.jobs_nonempty": sum(1 for n in counts if n),
    }


def shim_list(tracer) -> list:
    """Every timing shim; each records only when its code path runs."""
    from ucf import cli, fileformat, verifier

    enumerate_job, enumerate_families = verifier.enumerate_job, cli.enumerate_families

    def timed_visit(visit):
        return None if visit is None else tracer.timed("visit", visit)

    def job_shim(c, job, visit=None, **kwargs):
        with tracer.span("enumeration.job", f"job-{job}"):
            return enumerate_job(c, job, timed_visit(visit), **kwargs)

    def families_shim(c, visit=None, **kwargs):
        with tracer.span("enumeration.enumerate_families"):
            return enumerate_families(c, timed_visit(visit), **kwargs)

    out = [(verifier, name, tracer.timed(f"{layer}.{name}", getattr(verifier, name))) for name, layer in TIMED.items()]
    return out + [
        (verifier, "enumerate_job", job_shim),
        (cli, "enumerate_families", families_shim),
        (cli, "run_campaign", tracer.spanned("verifier.run_campaign", cli.run_campaign)),
        (cli, "cmd_enumerate", tracer.spanned("cli.cmd_enumerate", cli.cmd_enumerate)),
        (fileformat, "parse_family", tracer.timed("fileformat.parse_family", fileformat.parse_family)),
        (verifier.CheckRecord, "to_dict", tracer.timed("verifier.to_dict", verifier.CheckRecord.to_dict)),
    ]


def trace(name: str, w, seed: int, tally: Tally) -> dict:
    """Per-layer metrics from one untraced and one traced operation."""
    from ucf.enumeration import job_depth
    from tracing import Tracer, duration, shims
    from workloads import Campaign, Listing

    metrics: dict = {key: 0 if unit in ("count", "bytes") else 0.0 for key, unit in PER_LAYER.items()}
    tracer = Tracer(name)
    state = w.prepare(seed)
    c = w.constraints()
    walk_s = 0.0
    if c is not None:
        t0 = perf_counter()
        job_depth(c)
        metrics["enumeration.context_s"] = perf_counter() - t0
        metrics.update(walk_pass(c, w.families, tally))
        walk_s = metrics["enumeration.walk_s"]
    campaign = isinstance(w, Campaign)
    with workdir() as work:
        ref = run_op(w, state, work, WORKERS, tally)
    with workdir() as work:
        # campaigns trace at one worker: shims do not reach pool workers
        with shims(shim_list(tracer)):
            traced = run_op(w, state, work, 1, tally)
        if campaign:
            checkpoint = w.paths(work)[0]
            with open(checkpoint, encoding="utf-8") as fh:
                records = sum(1 for line in fh if line.startswith("# agg "))
            metrics["verifier.checkpoint_bytes"] = os.path.getsize(checkpoint)
            metrics["verifier.checkpoint_records"] = records
            metrics["verifier.resume_s"] = run_op(w, state, work, 1, tally).wall
        elif isinstance(w, Listing):
            metrics["cli.out_bytes"] = os.path.getsize(w.out(work))
    tracer.close()

    totals = tracer.totals()
    for key in metrics:
        if key in totals:
            metrics[key] = totals[key]
    visit_s = totals.get("visit_s", 0.0)
    if campaign:
        jobs = [duration(s) for s in tracer.named("enumeration.job")]
        metrics["enumeration.emit_s"] = sum(jobs) - visit_s - walk_s
        metrics["enumeration.job_share_max"] = max(jobs) / sum(jobs)
        metrics["verifier.checks_s"] = visit_s
        metrics["verifier.campaign_self_s"] = duration(tracer.named("verifier.run_campaign")[0]) - sum(jobs)
        metrics["verifier.pool_util"] = ref.cpu / (WORKERS * ref.wall)
        # a one-worker untraced run would take about the CPU time of the pool run
        untraced = ref.cpu if WORKERS > 1 else ref.wall
    else:
        untraced = ref.wall
    if isinstance(w, Listing):
        walk_and_emit = duration(tracer.named("enumeration.enumerate_families")[0])
        metrics["enumeration.emit_s"] = walk_and_emit - visit_s - walk_s
        metrics["cli.render_s"] = duration(tracer.named("cli.cmd_enumerate")[0]) - walk_and_emit
    metrics["trace.overhead_s"] = traced.wall - untraced

    out_dir = os.path.join(ROOT, ".bench-trace")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"{name}-seed{seed}.json"))
    return metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, table=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ucf", "__init__.py")):
        print(f"bench: no ucf sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    table = WORKLOADS if table is None else table
    if args.workload not in table:
        print(f"bench: unknown workload {args.workload!r}; choose from {', '.join(table)}", file=sys.stderr)
        return 2
    w = table[args.workload]
    tally = Tally()
    print(f"workload: {args.workload}  seed: {args.seed}  trace: {args.trace}  workers: {WORKERS}")
    if args.trace:
        values, units = trace(args.workload, w, args.seed, tally), PER_LAYER
    else:
        values, units = measure(w, args.seed, args.seconds, tally), END_TO_END
    for failure in tally.failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {key: {"value": values[key], "unit": unit} for key, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
