"""Self-test of the benchmark's correctness check.

    python3 perfbench/selftest.py

Runs the small warm-up jobs of every workload and a slice of small_solves.
Each clean output must pass the check; the same output with one sign flipped
in its report must fail it, and a measured run whose first report is tampered
must show failed_frac > 0. Also checks that BENCHMARK.json names exactly the
metrics the harness prints. Exits 0 when all of this holds.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def flip_last_sign(text: str) -> str:
    """The report with the sign of one element flipped, in the last sign
    sequence it holds (for a pipeline, the final top-block refinement)."""
    payload = json.loads(text)
    found = []

    def walk(obj):
        if isinstance(obj, dict):
            if "signs_rle" in obj:
                found.append(obj)
            for v in obj.values():
                walk(v)
        elif isinstance(obj, list):
            for v in obj:
                walk(v)

    walk(payload["report"])
    rle = found[-1]["signs_rle"]
    sign, count = rle[0]
    found[-1]["signs_rle"] = [[-sign, 1]] + ([[sign, count - 1]] if count > 1 else []) + rle[1:]
    return json.dumps(payload)


def check_names() -> list[str]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    errors = []
    if [m["name"] for m in bench["end_to_end"]] != [n for n, _ in run.END_TO_END]:
        errors.append("BENCHMARK.json end_to_end names differ from run.END_TO_END")
    if [m["name"] for m in bench["per_layer"]] != [m[0] for m in tracing.LAYER_METRICS]:
        errors.append("BENCHMARK.json per_layer names differ from tracing.LAYER_METRICS")
    if not [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from workloads.WORKLOADS")
    return errors


def check_tampering(tmp: Path) -> list[str]:
    errors = []
    for name in workloads.WORKLOADS:
        _, warmups = workloads.build(name, 1, tmp)
        for job in warmups:
            _, res = workloads.run_job(job)
            if workloads.check_output(job, res).problems:
                errors.append(f"{name}/{job.label}: clean output fails the check")
            if res.text is None or "signs_rle" not in res.text:
                continue  # a library result or a verify record: no signs emitted
            res.text = flip_last_sign(res.text)
            if not workloads.check_output(job, res).problems:
                errors.append(f"{name}/{job.label}: a flipped sign passes the check")
    return errors


def check_failed_frac(tmp: Path) -> list[str]:
    # One pass only, so that the output check, not the comparison with a
    # repeated run, has to catch the flipped sign.
    jobs = workloads.build("small_solves", 1, tmp)[0][:6]
    clean = run.measure(jobs, 1e-9, False, "small_solves", 1)
    run_job, tampered = workloads.run_job, []

    def tampering(job):
        seconds, res = run_job(job)
        if not tampered and res.text is not None:
            res.text = flip_last_sign(res.text)
            tampered.append(job.label)
        return seconds, res

    workloads.run_job = tampering
    try:
        dirty = run.measure(jobs, 1e-9, False, "small_solves", 1)
    finally:
        workloads.run_job = run_job
    errors = []
    if clean["failed"] != 0:
        errors.append(f"clean run: failed {clean['failed']} of {clean['attempted']}")
    if not dirty["failed"] / dirty["attempted"] > 0:
        errors.append(f"tampered {tampered}: failed_frac stayed 0")
    return errors


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        errors = check_names() + check_tampering(Path(tmp)) + check_failed_frac(Path(tmp))
    for e in errors:
        print(f"FAIL {e}")
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
