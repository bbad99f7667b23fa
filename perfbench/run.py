#!/usr/bin/env python3
"""halftest benchmark: end-to-end metrics per workload, or per-layer spans.

    python3 perfbench/run.py --workload massart-d5 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1            # all four workloads, untraced

With ``--trace 0`` one untimed warm-up call is followed by a timed pass of
whole case cycles until ``--seconds`` have elapsed; the last line printed is
a JSON object holding the end-to-end metrics.  With ``--trace 1`` the
seconds are split between an untraced pass and a traced replay of exactly
the same calls: the replay must reproduce every verdict and output bit for
bit, and its spans give the per-layer metrics on the last line.  A run of
all workloads starts one fresh process per workload, one after another.

The package is imported from ``src/`` of the checkout holding this file;
results and spans go to ``perfbench/results/``.  The exit code is nonzero
when a hard correctness check fails or the package cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKLOADS = ("massart-d5", "agnostic-d5", "reject-d5", "sos-hyper")
SETUP_REPEATS = 3      # at least this many set-ups,
SETUP_MIN_S = 1.0      # and more until this long has been spent on them
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# (metric, unit); holdout_error and fail_rate are reported but unbounded,
# since they do not apply to every workload or are 0 when all is well.
END_TO_END = (("runs_per_s", "1/s"), ("run_s_p50", "s"),
              ("verdict_ok_rate", "ratio"), ("peak_rss_mb", "MB"),
              ("setup_s", "s"))


def cap_blas_threads() -> int:
    """Limit BLAS to at most nproc threads; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    threads = nproc
    for var in BLAS_THREAD_VARS:
        if os.environ.get(var, "").isdigit():
            threads = min(threads, max(1, int(os.environ[var])))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def git_commit() -> str:
    """HEAD of the checkout's git repository, or 'unknown' outside one."""
    git = ROOT / ".git"
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
    return "unknown"


def environment(args, threads: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"git_commit": git_commit(), "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
            "blas_threads": threads, "nproc": len(os.sched_getaffinity(0)),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


class Stopwatch:
    """Times the block it encloses."""

    elapsed = float("nan")

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


class RunSpan:
    """Times the block as the root span of one traced run."""

    elapsed = float("nan")

    def __init__(self, tracer, run: int, name: str):
        self.ctx = tracer.run(run, name)

    def __enter__(self):
        self.span = self.ctx.__enter__()
        return self

    def __exit__(self, *exc):
        suppress = self.ctx.__exit__(*exc)
        self.elapsed = self.span.end - self.span.start
        return suppress


def set_up(workload: str, seed: int):
    """Import the package and build inputs and references, repeatedly;
    returns the last result and the median set-up time."""
    from workloads import CASE_BUILDERS, import_halftest
    times = []
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        start = time.perf_counter()
        ht = import_halftest()
        cases = CASE_BUILDERS[workload](ht, seed)
        times.append(time.perf_counter() - start)
    return ht, cases, statistics.median(times)


def timed_pass(ht, cases, seed: int, budget: float) -> tuple:
    """Whole case cycles until the budget is spent; (outcomes, wall)."""
    from workloads import run_case
    outcomes = []
    start = time.perf_counter()
    while not outcomes or time.perf_counter() - start < budget:
        for case in cases:
            outcomes.append(run_case(ht, case, len(outcomes) + 1, seed, Stopwatch()))
    return outcomes, time.perf_counter() - start


def traced_replay(ht, cases, seed: int, outcomes: list) -> tuple:
    """The same calls again with every layer boundary traced."""
    import layers
    from tracing import Tracer, rebound
    from workloads import HyperCase, run_case
    by_name = {case.name: case for case in cases}
    tracer = Tracer()
    replay = []
    with rebound(layers.bindings(tracer, ht)):
        for done in outcomes:
            case = by_name[done.case]
            root = "run" if isinstance(case, HyperCase) else "learner"
            replay.append(run_case(ht, case, done.run, seed,
                                   RunSpan(tracer, done.run, root)))
    return replay, tracer.spans


def case_p50(outcomes: list) -> tuple:
    """Mean over cases of each case's median wall time, and per-case medians."""
    per_case = {}
    for o in outcomes:
        if o.wall_s == o.wall_s:  # a call that raised before timing has NaN
            per_case.setdefault(o.case, []).append(o.wall_s)
    medians = {name: statistics.median(v) for name, v in per_case.items()}
    counts = {name: len(v) for name, v in per_case.items()}
    p50 = statistics.fmean(medians.values()) if medians else float("nan")
    return p50, medians, counts


def end_to_end(outcomes: list, wall: float, setup_s: float) -> dict:
    p50, medians, counts = case_p50(outcomes)
    errors = [o.holdout_error for o in outcomes if o.holdout_error is not None]
    return {
        "runs_per_s": len(outcomes) / wall,
        "run_s_p50": p50,
        "verdict_ok_rate": sum(o.verdict_ok for o in outcomes) / len(outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
        "fail_rate": sum(o.failure is not None for o in outcomes) / len(outcomes),
        "holdout_error": statistics.fmean(errors) if errors else None,
        "holdout_error_samples": len(errors),
        "run_s_p50_per_case": medians,
        "samples_per_case": counts,
    }


def print_report(title: str, metrics: dict, units: dict) -> None:
    print(title)
    for name, value in metrics.items():
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v:.4g}" for k, v in value.items())
            print(f"  {name:38s} {value}")
        elif value is None:
            print(f"  {name:38s} n/a")
        else:
            print(f"  {name:38s} {value:.6g} {units.get(name, '')}")


def run_workload(args, threads: int) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(1, str(HERE))
    env = environment(args, threads)
    try:
        ht, cases, setup_s = set_up(args.workload, args.seed)
    except ImportError as exc:
        print(f"cannot import halftest from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if not Path(ht.learner.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"halftest was imported from {ht.learner.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    from workloads import warm_up
    warm_up(ht, args.workload, cases, args.seed)

    budget = args.seconds / 2.0 if args.trace else float(args.seconds)
    outcomes, wall = timed_pass(ht, cases, args.seed, budget)
    e2e = end_to_end(outcomes, wall, setup_s)
    failures = [("untraced", o.run, o.case, o.failure) for o in outcomes if o.failure]
    record = {"environment": env, "end_to_end": e2e, "pass_wall_s": wall,
              "runs": [[o.case, o.run, o.wall_s, o.verdict_ok] for o in outcomes]}
    units = dict(END_TO_END, fail_rate="ratio", holdout_error="ratio")
    print(f"# {json.dumps(env, sort_keys=True)}")
    print_report(f"{args.workload}: {len(outcomes)} runs in {wall:.2f} s "
                 f"(whole cycles of {len(cases)} case(s))", e2e, units)

    RESULTS.mkdir(exist_ok=True)
    if args.trace:
        import layers
        replay, spans = traced_replay(ht, cases, args.seed, outcomes)
        mismatched = [o.run for o, r in zip(outcomes, replay)
                      if o.fingerprint != r.fingerprint]
        failures += [("traced", r.run, r.case, r.failure) for r in replay if r.failure]
        failures += [("traced", run, None,
                      "traced verdict or output differs from untraced")
                     for run in mismatched]
        traced_p50 = case_p50(replay)[0]
        metrics = layers.per_layer_metrics(spans)
        record.update(per_layer=metrics, traced_run_s_p50=traced_p50,
                      tracing_overhead_s=traced_p50 - e2e["run_s_p50"],
                      traced_mismatches=mismatched)
        units = dict(layers.PER_LAYER)
        print_report(f"{args.workload}: traced replay of the same {len(replay)} "
                     f"runs; tracing overhead "
                     f"{record['tracing_overhead_s']:+.4f} s per run", metrics, units)
        spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.jsonl"
        with open(spans_path, "w") as fh:
            fh.write(json.dumps({"environment": env}) + "\n")
            for index, span in enumerate(spans):
                fh.write(json.dumps(span.to_dict(index)) + "\n")
    else:
        metrics = e2e
        units = dict(END_TO_END)

    record["failures"] = failures
    result_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    for which, run, case, failure in failures:
        print(f"FAILED {which} run {run} ({case}): {failure}", file=sys.stderr)
    attempted = len(outcomes) * (2 if args.trace else 1)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len({(which, run) for which, run, _, _ in failures}),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 1 if failures else 0


def run_all(args) -> int:
    """Each workload in its own fresh process, one after another."""
    worst = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args, cap_blas_threads())


if __name__ == "__main__":
    sys.exit(main())
