"""harmsum benchmark: end-to-end and per-layer metrics of four workloads.

    python3 perfbench/run.py --workload construct_dense --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30

With `--trace 0` a run prints every end-to-end metric; with `--trace 1` it
prints every per-layer metric and the tracing overhead. The last line of a
workload run is one JSON object with the keys correct, attempted, failed and
metrics. `--all` runs every workload both ways, one after the other.

The workload runs in fresh child processes of this script: four that only set
up, and one that sets up and measures, so that setup_s is a median of five
and peak_rss_mb is the measuring process's own. Each child runs whole passes
over its job list, one job at a time with `--threads 1`, while another pass
still fits in `--seconds`, and checks every output after the timed passes.

A job's time is the fastest of its untraced runs in the measuring process.
On a shared host the speed swings by up to 2x over tens of seconds, and other
load only ever adds time, so the fastest run is the least disturbed one:
wall_s sums these times over the jobs and job_s_p50 is their median.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # setup_s counts from here: imports, inputs, warm-up

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
WORKLOADS = ("construct_dense", "mult_pipeline", "exact_large", "small_solves")
SETUP_RUNS = 5
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("job_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _percentile95(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=20, method="inclusive")[18]


# ---- child: set up, measure, check ---------------------------------------------


def _child(args) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        jobs, warmups = workloads.build(args.workload, args.seed, tmp)
        for job in warmups:
            workloads.run_job(job)
        result = {"setup_s": time.perf_counter() - T0}
        if args.phase == "measure":
            result.update(measure(jobs, args.seconds, bool(args.trace), args.workload, args.seed))
        return result
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def measure(jobs, seconds: float, traced_run: bool, workload: str, seed: int) -> dict:
    """Run passes over the jobs, then check every output.

    A traced run alternates untraced and traced passes, so the tracing
    overhead is measured inside one process on the same inputs.
    """
    import exact
    import tracing
    import workloads

    tracer = tracing.Tracer()
    passes = {False: [], True: []}
    job_s: list[list[float]] = [[] for _ in jobs]  # untraced times of each job
    first: list = [None] * len(jobs)
    prints: list[str | None] = [None] * len(jobs)
    runs = [[] for _ in jobs]  # per job: problems of each execution
    start = time.perf_counter()
    while True:
        traced = traced_run and len(passes[False]) > len(passes[True])
        patches = tracing.install(tracer) if traced else []
        total = 0.0
        try:
            for i, job in enumerate(jobs):
                tracer.job = f"{len(passes[traced])}:{job.label}"
                sec, res = workloads.run_job(job)
                total += sec
                if not traced:
                    job_s[i].append(sec)
                if first[i] is None:
                    first[i], prints[i] = res, workloads.fingerprint(res)
                problems = workloads.execution_problems(job, res)
                if workloads.fingerprint(res) != prints[i]:
                    problems.append("output differs from the job's first execution")
                runs[i].append(problems)
        finally:
            tracing.uninstall(patches)
        passes[traced].append(total)
        done = passes[False] + passes[True]
        complete = passes[False] and (passes[True] or not traced_run)
        if complete and time.perf_counter() - start + max(done) > seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, problems, rendered, log10s = 0, [], [], []
    for job, res, execs in zip(jobs, first, runs):
        checked = workloads.check_output(job, res)
        failed += sum(1 for e in execs if e or checked.problems)
        problems += [f"{job.label}: {p}" for p in checked.problems + sum(execs, [])]
        rendered.append("\t".join([job.label, *checked.rendered]))
        log10s += [exact.log10_abs(v) for v in checked.achieved]
    result = {
        "pass_s": passes[False],
        "job_s": [min(t) for t in job_s],
        "jobs": len(jobs),
        "attempted": sum(len(e) for e in runs),
        "failed": failed,
        "problems": list(dict.fromkeys(problems))[:20],
        "peak_rss_mb": peak_rss_mb,
        "digest": hashlib.sha256("\n".join(rendered).encode()).hexdigest()[:16],
        "achieved_log10_max": max(log10s) if log10s else None,
    }
    if traced_run:
        untraced = statistics.median(passes[False])
        traced_wall = statistics.median(passes[True])
        result["layers"] = tracing.layer_metrics(tracer, len(passes[True]), traced_wall, untraced)
        result["spans_file"] = str(_write_spans(tracer.spans, workload, seed))
    return result


def _write_spans(spans, workload: str, seed: int) -> Path:
    path = WORK / f"spans-{workload}-seed{seed}.jsonl"
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps(span) + "\n")
    return path


# ---- parent: spawn children, print metrics --------------------------------------


def _spawn(args, phase: str, deadline: float) -> dict:
    WORK.mkdir(exist_ok=True)
    fd, result_path = tempfile.mkstemp(prefix="result-", suffix=".json", dir=WORK)
    os.close(fd)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", phase,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL,
                              timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0:
            raise RuntimeError(f"{phase} process exited with {proc.returncode}")
        return json.loads(Path(result_path).read_text())
    finally:
        Path(result_path).unlink(missing_ok=True)


def run_workload(args) -> dict:
    """Run one workload in fresh child processes; print and return the final
    JSON object."""
    deadline = time.monotonic() + DEADLINE_S
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(_spawn(args, "setup", deadline)["setup_s"])
    res = _spawn(args, "measure", deadline)
    setups.append(res["setup_s"])

    print(f"harmsum benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit in _layer_units()}
        wall = res["layers"]["trace.wall_s"]
        for name, m in metrics.items():
            share = f"  ({m['value'] / wall:6.1%} of traced wall_s)" if m["unit"] == "s" else ""
            print(f"  {name:42s} {m['value']:14.6f} {m['unit']:5s}{share}")
        print(f"  tracing overhead: {res['layers']['trace.overhead_s']:.4f} s per pass "
              f"(traced {wall:.4f} s, untraced {statistics.median(res['pass_s']):.4f} s)")
        print(f"  spans written to {res['spans_file']}")
    else:
        job_s = res["job_s"]
        values = {
            "wall_s": sum(job_s),
            "job_s_p50": statistics.median(job_s),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        notes = {
            "wall_s": f"{res['jobs']} jobs, each the fastest of its {len(res['pass_s'])} runs; "
                      "passes took " + ", ".join(f"{x:.3f}" for x in res["pass_s"]),
            "job_s_p50": f"median of the same {len(job_s)} job times",
            "setup_s": f"median of {len(setups)} fresh processes",
            "peak_rss_mb": "measuring process",
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END:
            print(f"  {name:20s} {values[name]:14.6f} {unit:3s}  ({notes[name]})")
        p95 = _percentile95(job_s)
        print(f"  job_s_p95            {p95:14.6f} s    ({len(job_s)} jobs, "
              f"{sum(1 for x in job_s if x > p95)} beyond p95; printed, not gated)")
    frac = res["failed"] / res["attempted"]
    print(f"  failed_frac          {frac:.4f}  ({res['failed']} of {res['attempted']} job runs)")
    if res["achieved_log10_max"] is not None:
        print(f"  achieved_log10_max   {res['achieved_log10_max']:.4f}")
    print(f"  digest               {res['digest']}")
    for p in res["problems"]:
        print(f"  problem: {p}")
    final = {"correct": res["failed"] == 0, "attempted": res["attempted"],
             "failed": res["failed"], "metrics": metrics}
    print(json.dumps(final), flush=True)
    return final


def _layer_units():
    import tracing

    return [(name, unit) for name, unit, _, _ in tracing.LAYER_METRICS]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", choices=("setup", "measure"), dest="phase", help=argparse.SUPPRESS)
    parser.add_argument("--result", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "harmsum" / "__init__.py").is_file():
        print(f"no harmsum sources under {ROOT / 'src'}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0 or bool(args.workload) == args.all:
        parser.error("give --workload NAME or --all, and --seconds > 0")
    if args.phase:
        result = _child(args)
        Path(args.result).write_text(json.dumps(result))
        return 0
    try:
        if args.all:
            for name in WORKLOADS:
                for mode in (0, 1):
                    run_workload(argparse.Namespace(**{**vars(args), "workload": name,
                                                       "trace": mode}))
        else:
            run_workload(args)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
