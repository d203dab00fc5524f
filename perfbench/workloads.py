"""The benchmark's workloads: inputs drawn from the seed, how a job runs, and
how its output is checked.

Every input comes from the seed; harmsum receives only the generated
arguments and files. A job is either a `harmsum` command run through
`harmsum.cli.run` (its report goes to the run's own temporary directory) or a
direct library call. Checks use `exact`, never `harmsum.numerics`; the
package's `fraction_str` is used only to render library results for the
digest, since `str()` of an lcm-sized Fraction exceeds Python's 4300-digit
limit.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

import exact
from harmsum import cli
from harmsum import constructor as ctor
from harmsum import density
from harmsum.numerics import fraction_str
from harmsum.support import SupportSet

WORKLOADS = ("construct_dense", "mult_pipeline", "exact_large", "small_solves")

# Free elements of the MITM-heavy workloads. The pipeline's halves are four
# times smaller so that a run holds enough jobs for a steady median: its
# clustered MITMs spend their time in argsort and tolist, whose run time
# varies by about 8% from one call to the next on the same input.
DENSE_FREE = 44  # halves of 2^22 entries
PIPELINE_FREE = 40  # halves of 2^20 entries
TARGET_ETA = Fraction(1, 10**10)  # the target of the C8 and C9 gates
EXIT_OK, EXIT_INFEASIBLE = 0, 1

_WALL_TIME = re.compile(r'"wall_time": [-+0-9.eE]+')


@dataclass
class Outcome:
    exit_code: int | None = None
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    text: str | None = None  # the report file a CLI job wrote
    value: object = None  # what a library job returned


@dataclass
class Checked:
    problems: list[str] = field(default_factory=list)
    rendered: list[str] = field(default_factory=list)  # values for the digest
    achieved: list[tuple[int, int]] = field(default_factory=list)  # exact |sum - x0|


@dataclass
class Job:
    label: str
    check: Callable[[Outcome], Checked]
    argv: list[str] | None = None
    call: Callable[[], object] | None = None
    expect_exit: int = EXIT_OK
    out: str = ""


def run_job(job: Job) -> tuple[float, Outcome]:
    """Run one job; only the harmsum call itself is timed."""
    res = Outcome()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            if job.argv is not None:
                res.exit_code = cli.run(job.argv + ["--out", job.out])
            else:
                res.value = job.call()
    except Exception as exc:  # a job that raises is counted as failed
        res.error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    res.stdout, res.stderr = out.getvalue(), err.getvalue()
    if job.argv is not None:
        path = Path(job.out)
        if path.exists():
            res.text = path.read_text()
            path.unlink()
    return seconds, res


def fingerprint(res: Outcome) -> str:
    """What must repeat exactly when a job runs again (wall times aside)."""
    if isinstance(res.value, tuple):  # greedy_bounded: (SignSequence, Fraction)
        seq, total = res.value
        body = f"{hashlib.sha256(seq.signs.tobytes()).hexdigest()} {hash(total)}"
    elif isinstance(res.value, Fraction):
        body = f"{res.value.numerator}/{res.value.denominator}"
    else:
        body = _WALL_TIME.sub('"wall_time": 0', res.text or "")
    text = f"{res.exit_code}\n{res.stdout}\n{res.error}\n{body}"
    return hashlib.sha256(text.encode()).hexdigest()


def execution_problems(job: Job, res: Outcome) -> list[str]:
    """Checks that apply to every execution of a job."""
    problems = []
    if res.error is not None:
        problems.append(f"raised {res.error}")
    if "Traceback" in res.stderr:
        problems.append("printed a traceback")
    if job.argv is not None:
        if res.exit_code != job.expect_exit:
            problems.append(f"exit code {res.exit_code}, expected {job.expect_exit}")
        if res.text is None:
            problems.append("wrote no report")
    return problems


def check_output(job: Job, res: Outcome) -> Checked:
    """Re-derive a job's output independently; malformed output is a problem."""
    problems = execution_problems(job, res)
    if problems:
        return Checked(problems=problems)
    try:
        return job.check(res)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return Checked(problems=[f"malformed output: {type(exc).__name__}: {exc}"])


# ---- checks -----------------------------------------------------------------


def _report(res: Outcome) -> dict:
    return json.loads(res.text)["report"]


def _support_problem(support: np.ndarray, expected: np.ndarray) -> list[str]:
    return [] if np.array_equal(support, expected) else ["signs do not cover the input set"]


def check_construction(expected: np.ndarray, x0: Fraction, key: str, eta=None):
    """Reports of `construct --method pipeline|mitm` and `oracle`."""

    def check(res: Outcome) -> Checked:
        rep = _report(res)
        support, signs = exact.decode_signs(rep["signs"])
        out = Checked(problems=_support_problem(support, expected))
        value = exact.absolute(exact.shift(exact.signed_sum(support, signs), x0))
        if not exact.matches_rendering(value, rep[key]):
            out.problems.append(f"{key} {rep[key]} differs from the re-derived value")
        if eta is not None and rep["target_met"] != (exact.compare(value, eta) <= 0):
            out.problems.append("target_met disagrees with the re-derived value")
        out.rendered.append(rep[key])
        out.achieved.append(value)
        return out

    return check


def check_flip(expected: np.ndarray, alpha: Fraction):
    def check(res: Outcome) -> Checked:
        rep = _report(res)
        if not rep["feasible"]:
            return Checked(problems=["flip reported infeasible on a feasible target"])
        support, signs = exact.decode_signs(rep["signs"])
        out = Checked(problems=_support_problem(support, expected))
        error = exact.shift(exact.signed_sum(support, signs), alpha)
        if not exact.matches_rendering(error, rep["error"]):
            out.problems.append(f"error {rep['error']} differs from the re-derived value")
        if exact.compare(exact.absolute(error), Fraction(1, int(expected[0]))) > 0:
            out.problems.append("|sum - alpha| exceeds 1/min(S)")
        out.rendered.append(rep["error"])
        out.achieved.append(exact.absolute(error))
        return out

    return check


def check_greedy(expected: np.ndarray):
    def check(res: Outcome) -> Checked:
        seq, total = res.value
        support = np.asarray(seq.support.values)
        out = Checked(problems=_support_problem(support, expected))
        value = exact.signed_sum(support, seq.signs)
        if not exact.equals_fraction(value, total):
            out.problems.append("returned sum differs from the re-derived value")
        if exact.compare(exact.absolute(value), Fraction(1)) > 0:
            out.problems.append("greedy sum left [-1, 1]")
        out.rendered.append(fraction_str(total))
        out.achieved.append(exact.absolute(value))
        return out

    return check


def check_verify(value: tuple[int, int], eta: Fraction):
    """`harmsum verify` must decide |value| against eta the exact way."""
    below = exact.compare(exact.absolute(value), eta) <= 0
    word = "below" if below else "above"

    def check(res: Outcome) -> Checked:
        rep = _report(res)
        out = Checked()
        if rep["outcome"] != word or res.stdout.strip().lower() != word:
            out.problems.append(f"outcome {rep['outcome']}, expected {word}")
        fixed = rep["value"]
        m, e, bits = int(fixed["mantissa"]), int(fixed["err_ulps"]), int(fixed["scale_bits"])
        mag = exact.absolute(value)
        if exact.compare(mag, Fraction(m - e, 1 << bits)) < 0 or exact.compare(
            mag, Fraction(m + e, 1 << bits)
        ) > 0:
            out.problems.append("reported interval does not contain |sum|")
        out.rendered.append(f"{rep['outcome']}@{rep['precision_bits']}")
        return out

    return check, (EXIT_OK if below else EXIT_INFEASIBLE)


def _prime_rule(rule: str):
    if rule == "liouville":
        return lambda p: -1
    if rule == "one":
        return lambda p: 1
    return lambda p: -1 if p == 3 or p % 3 == 2 else 1  # chi3_star


def check_pipeline(rule: str, overrides: dict[int, int], scales: list[int]):
    """Rebuild f from the reported prime signs and recompute each |L(f, N)|."""

    def check(res: Outcome) -> Checked:
        rep = _report(res)
        out = Checked()
        reports = rep["scale_reports"]
        if rep["seed_rule"] != rule or [r["n"] for r in reports] != scales:
            return Checked(problems=["pipeline report does not match its inputs"])
        prime_sign = dict(overrides)
        for sr in reports:
            parts = [sr["flip"]] if sr["flip"]["feasible"] else []
            parts += [r for r in (sr["mid_report"], sr["top_report"]) if r]
            for part in parts:
                primes, signs = exact.decode_signs(part["signs"])
                prime_sign.update(zip(primes.tolist(), signs.tolist()))
        vals = exact.multiplicative_values(prime_sign, _prime_rule(rule), scales[-1])
        for sr in reports:
            n = sr["n"]
            if not sr["identity_ok"]:
                out.problems.append(f"identity_ok is false at N = {n}")
            value = exact.absolute(exact.signed_sum(range(1, n + 1), vals[1 : n + 1]))
            if not exact.matches_rendering(value, sr["achieved_exact"]):
                out.problems.append(f"|L(f, {n})| differs from the re-derived value")
            if sr["met"] != (exact.compare(value, TARGET_ETA) <= 0):
                out.problems.append(f"met disagrees with the re-derived value at N = {n}")
            out.rendered.append(sr["achieved_exact"])
            out.achieved.append(value)
        return out

    return check


def check_probability(ns: list[int], x0: Fraction, eta: Fraction):
    def check(res: Outcome) -> Checked:
        p = res.value
        count = exact.small_ball_count(ns, x0, eta)
        out = Checked(rendered=[fraction_str(p)])
        if p.numerator << len(ns) != count * p.denominator:
            out.problems.append(f"probability {fraction_str(p)} != {count}/2^{len(ns)}")
        return out

    return check


# ---- inputs -------------------------------------------------------------------


class Inputs:
    """Draws a workload's inputs from its seed and writes its files."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.rng = random.Random(f"{workload}:{seed}")
        self.np_rng = np.random.default_rng([WORKLOADS.index(workload), seed])
        self.workdir = workdir
        self.count = 0

    def path(self, stem: str) -> str:
        self.count += 1
        return str(self.workdir / f"{self.count:04d}-{stem}")

    def near(self, n: int, rel: float = 0.005) -> int:
        return self.rng.randint(int(n * (1 - rel)), int(n * (1 + rel)))

    def cli_job(self, label, argv, check, expect_exit=EXIT_OK) -> Job:
        return Job(label, check, argv=argv + ["--threads", "1"], expect_exit=expect_exit,
                   out=self.path(f"{label}.json"))

    def residues(self, n: int):
        """A random residue-class set mod m of density at least 2/3: safely
        above the 0.6 that `--delta 0.6` requires of A0 ∩ [1, N]."""
        m = self.rng.choice([3, 4, 5, 6, 7])
        rs = sorted(self.rng.sample(range(m), self.rng.randint(math.ceil(2 * m / 3), m - 1)))
        return residue_set(m, rs, n)

    def set_file(self, values) -> str:
        path = self.path("set.txt")
        Path(path).write_text("\n".join(map(str, values)) + "\n")
        return "@" + path

    def fraction(self, lo: int, hi: int, den_max: int) -> Fraction:
        return Fraction(self.rng.randint(lo, hi), self.rng.randint(1, den_max))


def residue_set(m: int, rs: list[int], n: int) -> tuple[str, np.ndarray]:
    values = np.arange(1, n + 1, dtype=np.int64)
    return f"mod {m}: {','.join(map(str, rs))}", values[np.isin(values % m, rs)]


# Reports for `verify` are serialized here rather than by SignSequence.to_obj,
# so that setup_s does not move when the package's serializer does.
def _ranges(values: np.ndarray) -> list[list[int]]:
    breaks = np.nonzero(np.diff(values) != 1)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks, [len(values) - 1]))
    return [[int(values[s]), int(values[e])] for s, e in zip(starts, ends)]


def _rle(signs: np.ndarray) -> list[list[int]]:
    breaks = np.nonzero(np.diff(signs) != 0)[0]
    starts = np.concatenate(([0], breaks + 1))
    ends = np.concatenate((breaks + 1, [len(signs)]))
    return [[int(signs[s]), int(e - s)] for s, e in zip(starts, ends)]


def _dense_job(inp: Inputs, label: str, n: int, free: int, eta: Fraction) -> Job:
    # eta sits far above what `free` elements reach, so no escalation runs
    spec, values = inp.residues(n)
    argv = ["construct", "--set", spec, "--n", str(n), "--method", "pipeline",
            "--delta", "0.6", "--eps0", "0.2", "--max-free", str(free),
            "--eta", str(eta), "--seed", str(inp.rng.randrange(1 << 31))]
    check = check_construction(values, Fraction(0), "achieved_exact", eta)
    return inp.cli_job(label, argv, check)


def construct_dense(inp: Inputs):
    """Two dense residue-class sets near N = 4096, each a single MITM over
    2^22-entry halves whose half-sums are spread widely."""
    jobs = [_dense_job(inp, f"dense-{i}", inp.near(4096, 0.05), DENSE_FREE, TARGET_ETA)
            for i in range(2)]
    return jobs, [_dense_job(inp, "warmup", 600, 28, Fraction(1, 1000))]


def _pipeline_job(inp: Inputs, label: str, rule: str, scales: list[int], free: int) -> Job:
    primes = sorted(inp.rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47],
                                   inp.rng.randint(1, 3)))
    overrides = {p: inp.rng.choice([1, -1]) for p in primes}
    argv = ["pipeline", "--scales", ",".join(map(str, scales)), "--allow-nonpositive-delta",
            "--seed-rule", rule, "--override", ",".join(f"{p}:{s}" for p, s in overrides.items()),
            "--max-free", str(free), "--eta", str(TARGET_ETA),
            "--seed", str(inp.rng.randrange(1 << 31))]
    # No completely multiplicative f reaches 1e-10 at these scales: exit 1.
    return inp.cli_job(label, argv, check_pipeline(rule, overrides, scales), EXIT_INFEASIBLE)


def mult_pipeline(inp: Inputs):
    """Two-block pipelines at {2000, 16000}, one per seed rule in a drawn order,
    with drawn overrides: three MITMs each over primes in narrow bands, so the
    half-sums cluster."""
    rules = inp.rng.sample(["liouville", "chi3_star", "one"], 3)
    jobs = [_pipeline_job(inp, f"pipeline-{r}", r, [2000, 16000], PIPELINE_FREE) for r in rules]
    return jobs, [_pipeline_job(inp, "warmup", rules[0], [400, 3200], 28)]


def _greedy_job(label: str, values: np.ndarray) -> Job:
    sup = SupportSet(values)
    return Job(label, check_greedy(values), call=lambda: ctor.greedy_bounded(sup))


def _flip_job(inp: Inputs, label: str, spec: str, n: int, values: np.ndarray,
              alpha: Fraction) -> Job:
    argv = ["construct", "--set", spec, "--n", str(n), "--method", "flip", f"--alpha={alpha}"]
    return inp.cli_job(label, argv, check_flip(values, alpha))


def _verify_job(inp: Inputs, label: str, values: np.ndarray, below: bool) -> Job:
    signs = inp.np_rng.choice(np.array([-1, 1], dtype=np.int64), size=len(values))
    value = exact.signed_sum(values, signs)
    target = exact.decimal_bound(value, inp.rng.randint(100, 900), above=below)
    path = inp.path("report.json")
    report = {"report": {"signs": {"support_ranges": _ranges(values), "signs_rle": _rle(signs)},
                         "target_eta": target}}
    Path(path).write_text(json.dumps(report))
    check, code = check_verify(value, Fraction(target))
    return inp.cli_job(label, ["verify", "--signs", path], check, code)


def _alpha(inp: Inputs, lo: int, hi: int) -> Fraction:
    return inp.fraction(lo, hi, 1) / 97 * inp.rng.choice([1, -1])


def exact_large(inp: Inputs):
    """Exact-weight building and checking on large supports, no MITM.

    The support shapes are fixed and their sizes vary by 0.5%: the cost grows
    with the square of N, so drawing shapes would spread the run time more
    than any change worth measuring.
    """
    n1, n2, n3, n4, n5, n6, n7 = (inp.near(n) for n in
                                  (32000, 41000, 41000, 28000, 34000, 37000, 45000))
    _, res2 = residue_set(3, [1, 2], n2)
    spec4, res4 = residue_set(4, [1, 2, 3], n4)
    _, res6 = residue_set(5, [1, 2, 3, 4], n6)
    jobs = [
        _greedy_job("greedy-interval", np.arange(1, n1 + 1, dtype=np.int64)),
        _greedy_job("greedy-residues", res2),
        _flip_job(inp, "flip-shifted", f"{n3 // 2}..{n3}", n3,
                  np.arange(n3 // 2, n3 + 1, dtype=np.int64), _alpha(inp, 10, 58)),
        _flip_job(inp, "flip-residues", spec4, n4, res4, _alpha(inp, 50, 390)),
        _verify_job(inp, "verify-interval", np.arange(1, n5 + 1, dtype=np.int64), True),
        _verify_job(inp, "verify-residues", res6, False),
        _verify_job(inp, "verify-shifted", np.arange(n7 // 2, n7 + 1, dtype=np.int64),
                    inp.rng.random() < 0.5),
    ]
    small = np.arange(1500, 3001, dtype=np.int64)
    warmups = [
        _greedy_job("warmup-greedy", small),
        _flip_job(inp, "warmup-flip", "1500..3000", 3000, small, Fraction(1, 3)),
        _verify_job(inp, "warmup-verify", small, True),
    ]
    return jobs, warmups


def _oracle_job(inp: Inputs, label: str, size: int) -> Job:
    values = np.asarray(sorted(inp.rng.sample(range(2, 160), size)), dtype=np.int64)
    x0 = inp.fraction(-3, 3, 9)
    argv = ["oracle", "--set", inp.set_file(values), f"--x0={x0}"]
    return inp.cli_job(label, argv, check_construction(values, x0, "minimum"))


def _mitm_job(inp: Inputs, label: str, free: int) -> Job:
    values = np.asarray(sorted(inp.rng.sample(range(2, 700), free + free // 2)), dtype=np.int64)
    x0 = inp.fraction(-3, 3, 9)
    argv = ["construct", "--set", inp.set_file(values), "--method", "mitm",
            "--max-free", str(free), f"--x0={x0}"]
    return inp.cli_job(label, argv, check_construction(values, x0, "achieved_exact"))


def _probability_job(inp: Inputs, label: str, size: int) -> Job:
    ns = sorted(inp.rng.sample(range(2, 200), size))
    x0 = inp.fraction(-2, 2, 7)
    eta = Fraction(1, inp.rng.randint(10, 100))
    sup = SupportSet(ns)
    return Job(label, check_probability(ns, x0, eta),
               call=lambda: density.exhaustive_probability(sup, x0, eta))


def small_solves(inp: Inputs):
    """Hundreds of small independent solves where per-call overhead dominates.

    MITM jobs are a sixth of the list, so that a pass takes about 2.5 s and
    each job runs about ten times in a run: its fastest run then falls in a
    quiet moment of the host. The median job is an oracle solve, below the
    MITM jobs and above most probability jobs.
    """
    jobs = []
    for i in range(150):
        jobs.append(_oracle_job(inp, f"oracle-{i}", 8 + i % 18))
        if i % 3 == 0:
            jobs.append(_mitm_job(inp, f"mitm-{i // 3}", 27 + i // 3 % 10))
        if i % 3 != 2:
            jobs.append(_probability_job(inp, f"probability-{i}", 10 + i % 16))
    warmups = [_oracle_job(inp, "warmup-oracle", 10), _mitm_job(inp, "warmup-mitm", 27),
               _probability_job(inp, "warmup-probability", 10)]
    return jobs, warmups


def build(workload: str, seed: int, workdir: Path) -> tuple[list[Job], list[Job]]:
    """(timed jobs, warm-up jobs) of a workload, drawn from the seed."""
    make = {"construct_dense": construct_dense, "mult_pipeline": mult_pipeline,
            "exact_large": exact_large, "small_solves": small_solves}[workload]
    return make(Inputs(workload, seed, workdir))
