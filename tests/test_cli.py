import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from harmsum import cli

SRC = Path(__file__).resolve().parents[1] / "src"


def _strip_wall_time(obj):
    if isinstance(obj, dict):
        return {k: _strip_wall_time(v) for k, v in obj.items() if k != "wall_time"}
    if isinstance(obj, list):
        return [_strip_wall_time(v) for v in obj]
    return obj


def test_usage_error_exit_code():
    assert cli.run(["construct", "--no-such-flag"]) == cli.EXIT_USAGE
    assert cli.run(["bogus"]) == cli.EXIT_USAGE


def _run_module(argv):
    """harmsum run as `python -m harmsum.cli` in a fresh process, the way a
    shell user runs it."""
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "harmsum.cli", *argv],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )


def _assert_usage_exit_without_traceback(argv):
    proc = _run_module(argv)
    assert proc.returncode == cli.EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.strip().splitlines()) == 1


def test_limit_errors_exit_usage_without_traceback():
    for argv in (
        ["construct", "--interval", "1..200", "--method", "mitm", "--max-free", "60"],
        ["sieve", "--limit", "100", "--psi", "1000:3"],
        ["pipeline", "--scales", "400,3200", "--allow-nonpositive-delta", "--override", "1:-1"],
    ):
        _assert_usage_exit_without_traceback(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["--config", "{path}", "construct", "--interval", "1..20", "--method", "greedy"],
        ["verify", "--signs", "{path}"],
        ["construct", "--set", "@{path}", "--method", "greedy"],
    ],
    ids=["config", "verify-signs", "set-file"],
)
@pytest.mark.parametrize("content", [None, "{", "[1, 2]"], ids=["missing", "not-json", "list"])
def test_bad_input_file_exits_usage_without_traceback(tmp_path, argv, content):
    path = tmp_path / "input.json"
    if content is not None:
        path.write_text(content)
    _assert_usage_exit_without_traceback([a.format(path=path) for a in argv])


@pytest.mark.parametrize(
    "payload",
    [
        {"report": {"signs": {"signs_rle": [[1, 2]]}, "target_eta": "1"}},
        {"report": [1]},
        {"report": {"signs": {"support_ranges": [[1, 2]], "signs_rle": [[1, 2, 3]]},
                    "target_eta": "1"}},
        {"report": {"signs": {"support_ranges": [[1, 2]], "signs_rle": [[1, -2], [1, 4]]},
                    "target_eta": "1"}},
        {"report": {"signs": {"support_ranges": [[1, 2]], "signs_rle": [[1, 2]]},
                    "target_eta": "1/0"}},
        {"report": {"signs": {"support_ranges": [[1, 2]], "signs_rle": [[1, 2]]},
                    "target_eta": "1"}, "config": {"x0": [1]}},
        {"report": {"signs": {"support_ranges": [[1, 2]], "signs_rle": [[1, 1], [True, 1]]},
                    "target_eta": "1"}},
        {"report": {"signs": {"support_ranges": [[1, 2]], "signs_rle": [[1, 2**64]]},
                    "target_eta": "1"}},
        {"report": {"signs": {"support_ranges": [[2**63, 2**63]],
                              "signs_rle": [[1, 1]]}, "target_eta": "1"}},
        # run lengths whose int64 sum wraps round to the support's size, 2
        {"report": {"signs": {"support_ranges": [[1, 2]],
                              "signs_rle": [[1, 2**62]] * 3 + [[1, 2**62 + 2]]},
                    "target_eta": "1"}},
        {"report": {"signs": {"support_ranges": [[1, 2**40]], "signs_rle": [[1, 2**40]]},
                    "target_eta": "1"}},
    ],
    ids=["no-support-ranges", "report-not-object", "run-not-pair", "negative-run",
         "target-zero-denominator", "x0-not-rational", "bool-in-run", "int-overflow-run",
         "int-overflow-range", "run-sum-wraps", "huge-range"],
)
def test_verify_malformed_report_exits_usage_without_traceback(tmp_path, payload):
    path = tmp_path / "report.json"
    path.write_text(json.dumps(payload))
    _assert_usage_exit_without_traceback(["verify", "--signs", str(path)])


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1, err
    return lines[0]


_SIGNS = {"support_ranges": [[1, 2]], "signs_rle": [[1, 2]]}


@pytest.mark.parametrize(
    ("argv", "payload", "code", "message"),
    [
        (["--config", "{path}", "construct", "--interval", "1..20"], [1, 2], 2, None),
        (["construct", "--method", "mitm"], None, 2, None),
        (["density", "--n", "2000", "--b", "3..5"], None, 2,
         "B must be a nonempty subset of A"),
        (["oracle", "--interval", "1..26"], None, 2, "oracle capped at 25 elements"),
        (["verify", "--signs", "{path}"], {"report": [1]}, 2, None),
        (["verify", "--signs", "{path}"], {"config": [1], "report": {}}, 2, None),
        # a pipeline record stores no top-level signs and reads the same way
        (["verify", "--signs", "{path}"], {"report": {}}, 2, "no signs found in the report"),
        (["verify", "--signs", "{path}"],
         {"report": {"signs": {"support_ranges": [[1, 2]], "signs_rle": [[1, "x"]]},
                     "target_eta": "1"}}, 2, None),
        (["verify", "--signs", "{path}"],
         {"report": {"signs": {"support_ranges": [[2**63, 2**63]], "signs_rle": [[1, 1]]},
                     "target_eta": "1"}}, 2, None),
        (["verify", "--signs", "{path}"], {"report": {"signs": _SIGNS}}, 2,
         "no target eta stored or provided"),
        (["verify", "--signs", "{path}"], {"report": {"signs": _SIGNS, "target_eta": None}}, 2,
         "no target eta stored or provided"),
        (["verify", "--signs", "{path}"], {"report": {"signs": _SIGNS, "target_eta": "abc"}},
         2, None),
        (["verify", "--signs", "{path}"],
         {"report": {"signs": _SIGNS, "target_eta": "1"}, "config": {"x0": [1]}}, 2, None),
        (["construct", "--set", "mod 5: 1", "--n", "300", "--method", "pipeline"], None, 1,
         None),
        (["density", "--n", "2000", "--a", "5..4"], None, 2, "A must be nonempty"),
        (["construct", "--set", "5..4", "--method", "pipeline"], None, 2,
         "support must be nonempty"),
        (["construct", "--set", "5..4", "--n", "300", "--method", "pipeline"], None, 1, None),
        (["pipeline", "--scales", "2000,4000"], None, 2,
         "each scale must be >= 8x and > (C+1)x the previous one"),
        (["sieve"], None, 2, "nothing to do: pass --psi and/or --rho"),
        (["pipeline", "--override", "3"], None, 2, "--override: expected p:+1 or p:-1, got '3'"),
        (["sieve", "--psi", "10"], None, 2, "--psi: expected x:y, got '10'"),
        (["pipeline", "--scales", ","], None, 2,
         "--scales: expected a comma list of integers, got ','"),
        (["sieve", "--psi", "a:b"], None, 2, "--psi: expected x:y with integers, got 'a:b'"),
        (["pipeline", "--override", "3:x"], None, 2,
         "--override: expected p:+1 or p:-1 with integers, got '3:x'"),
        (["pipeline", "--scales", "abc"], None, 2,
         "--scales: expected a comma list of integers, got 'abc'"),
        (["sieve", "--rho", "x"], None, 2,
         "--rho: expected u_max[:coarse_step] with numbers, got 'x'"),
    ],
    ids=["config-list", "construct-no-set", "density-b-outside-a", "oracle-over-cap",
         "report-list", "config-list-in-report", "no-signs", "run-sign-not-int",
         "range-past-int64", "no-target", "null-target", "target-not-rational", "x0-list", "pipeline-infeasible",
         "density-empty-a", "pipeline-empty-set", "pipeline-empty-set-with-n",
         "pipeline-scale-ratio", "sieve-nothing-to-do", "override-not-a-pair", "psi-not-a-pair",
         "scales-empty", "psi-not-integers", "override-not-integers", "scales-not-integers",
         "rho-not-a-number"],
)
def test_cli_error_paths_in_process(tmp_path, capsys, argv, payload, code, message):
    path = tmp_path / "input.json"
    if payload is not None:
        path.write_text(json.dumps(payload))
    out = tmp_path / "out.json"
    assert cli.run([a.format(path=path) for a in argv] + ["--out", str(out)]) == code
    if code == cli.EXIT_USAGE:
        line = _one_line_error(capsys)
        assert message is None or line == message
        assert not out.exists()
    else:
        assert "Traceback" not in capsys.readouterr().err
        assert set(json.loads(out.read_text())["report"]) == {"infeasible"}


@pytest.mark.parametrize("argv", [
    ["verify", "--signs", "{path}", "--eta", "-1"],
    ["verify", "--signs", "{stored}"],
    ["construct", "--interval", "1..256", "--method", "mitm", "--eta", "-1"],
    ["construct", "--interval", "1..256", "--method", "pipeline", "--eta=-1/3"],
    ["--config", "{config}", "construct", "--interval", "1..256", "--method", "pipeline"],
], ids=["verify-flag", "verify-stored", "mitm", "pipeline", "config"])
def test_negative_eta_exits_usage_without_record(tmp_path, capsys, argv):
    # no |sum| meets a negative bound: the input is malformed, not "Above"
    path = _write_report(tmp_path / "r.json", [[1, 2]], [[1, 2]], "1")
    stored = _write_report(tmp_path / "s.json", [[1, 2]], [[1, 2]], "-1")
    config = tmp_path / "c.json"
    config.write_text(json.dumps({"eta": "-1"}))
    out = tmp_path / "out.json"
    argv = [a.format(path=path, stored=stored, config=config) for a in argv]
    assert cli.run(argv + ["--out", str(out)]) == cli.EXIT_USAGE
    assert "must be >= 0" in _one_line_error(capsys)
    assert not out.exists()


def test_zero_eta_is_still_a_target(tmp_path, capsys):
    report = _write_report(tmp_path / "r.json", [[1, 2]], [[1, 2]], "1")
    assert cli.run(["verify", "--signs", str(report), "--eta", "0"]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().out.splitlines()[-1] == "Above"


@pytest.mark.parametrize("stored", [0, "0"], ids=["int", "str"])
def test_stored_zero_target_is_a_target(tmp_path, capsys, stored):
    report = _write_report(tmp_path / "r.json", [[1, 2]], [[1, 2]], stored)
    assert cli.run(["verify", "--signs", str(report)]) == cli.EXIT_INFEASIBLE
    assert capsys.readouterr().out.splitlines()[-1] == "Above"


@pytest.mark.parametrize("spec", ["mod 3: 1", "5..2000"], ids=["one-in-a", "min-a-5"])
def test_density_small_min_a_exits_usage_naming_the_bound(tmp_path, capsys, spec):
    out = tmp_path / "cert.json"
    argv = ["density", "--n", "2000", "--a", spec, "--count", "20", "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_USAGE
    assert "min(A) > 4e" in _one_line_error(capsys)
    assert not out.exists()


def test_density_min_a_above_the_bound_writes_a_record(tmp_path):
    out = tmp_path / "cert.json"
    argv = ["density", "--n", "2000", "--a", "11..2000", "--count", "20", "--out", str(out)]
    assert cli.run(argv) in (cli.EXIT_OK, cli.EXIT_INFEASIBLE)
    assert json.loads(out.read_text())["report"]["a_size"] == 1990


def test_runtime_imports_no_third_party_module_but_numpy():
    # The snapshot skips what the interpreter loads before harmsum, such as
    # modules that site-packages .pth files import at startup.
    code = """if True:
        import json, os, sys, sysconfig
        before = set(sys.modules)
        import harmsum.cli
        site = {os.path.realpath(sysconfig.get_paths()[k]) for k in ("purelib", "platlib")}
        third = set()
        for name in set(sys.modules) - before:
            mod = sys.modules[name]
            if "." in name or name == "harmsum" or mod is None:
                continue
            paths = [getattr(mod, "__file__", None), *getattr(mod, "__path__", [])]
            for p in filter(None, paths):
                if any(os.path.realpath(p).startswith(s + os.sep) for s in site):
                    third.add(name)
        print(json.dumps(sorted(third)))
    """
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(proc.stdout)) <= {"numpy"}


def test_threads_flag_is_only_recorded(tmp_path):
    args = ["construct", "--interval", "100..900", "--method", "mitm", "--max-free", "30",
            "--x0", "1/777"]
    payloads = []
    for threads in (1, 3):
        out = tmp_path / f"threads{threads}.json"
        assert cli.run(args + ["--threads", str(threads), "--out", str(out)]) == cli.EXIT_OK
        payload = _strip_wall_time(json.loads(out.read_text()))
        assert payload["config"].pop("threads") == threads
        payloads.append(payload)
    assert payloads[0] == payloads[1]
    assert cli.run(args + ["--threads", "0"]) == cli.EXIT_USAGE
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": "0"}))
    assert cli.run(["--config", str(cfg)] + args) == cli.EXIT_USAGE


def test_greedy_report_past_int_digit_limit(tmp_path):
    # the exact sum over 1..12000 has a denominator of more than 4300 digits
    out = tmp_path / "greedy.json"
    code = cli.run(
        ["construct", "--interval", "1..12000", "--method", "greedy", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    assert 0 <= float(json.loads(out.read_text())["report"]["achieved_exact"]) <= 1


def test_oracle_small(tmp_path, capsys):
    out = tmp_path / "oracle.json"
    code = cli.run(["oracle", "--set", "1..16", "--x0", "0", "--out", str(out)])
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema"] == 1
    assert payload["report"]["enumerated"] == 1 << 16
    # frozen from an independent full enumeration over all 2^16 sign vectors
    assert payload["report"]["minimum"] == "25/144144"


def test_oracle_far_target(tmp_path):
    # x0 lies far above 1 + 1/2 + ... + 1/5, so all signs are +1; the int64
    # sweep ranks the pairs against a target clamped near that sum
    out = tmp_path / "oracle.json"
    code = cli.run(["oracle", "--set", "1..5", "--x0", "3000000", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert json.loads(out.read_text())["report"]["minimum"] == "179999863/60"


def test_construct_deterministic(tmp_path):
    args = [
        "construct",
        "--interval",
        "1..256",
        "--method",
        "pipeline",
        "--seed",
        "7",
        "--max-free",
        "32",
    ]
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(args + ["--out", str(out1)]) == cli.EXIT_OK
    assert cli.run(args + ["--out", str(out2)]) == cli.EXIT_OK
    a = _strip_wall_time(json.loads(out1.read_text()))
    b = _strip_wall_time(json.loads(out2.read_text()))
    assert a == b


def test_construct_flip_infeasible_exit(tmp_path):
    code = cli.run(
        ["construct", "--set", "10..11", "--method", "flip", "--alpha", "3/2",
         "--out", str(tmp_path / "r.json")]
    )
    assert code == cli.EXIT_INFEASIBLE


def test_verify_round_trip(tmp_path, capsys):
    report = tmp_path / "mitm.json"
    code = cli.run(
        ["construct", "--set", "2..40", "--method", "mitm", "--x0", "1/10",
         "--eta", "1/100", "--out", str(report)]
    )
    assert code == cli.EXIT_OK
    # verify recomputes the sum from the signs alone; target 1 is easily met
    code = cli.run(["verify", "--signs", str(report), "--eta", "1"])
    assert code == cli.EXIT_OK
    assert "Below" in capsys.readouterr().out
    code = cli.run(["verify", "--signs", str(report), "--eta", "1/1000000000"])
    assert code == cli.EXIT_INFEASIBLE


def _flip_smallest_sign(report: Path) -> Path:
    """A copy of the report with the sign of its smallest element flipped."""
    payload = json.loads(report.read_text())
    rle = payload["report"]["signs"]["signs_rle"]
    sign, count = rle[0]
    rle[:1] = [[-sign, 1]] + ([[sign, count - 1]] if count > 1 else [])
    out = report.with_name("tampered.json")
    out.write_text(json.dumps(payload))
    return out


@pytest.mark.parametrize(
    "method, args, eta",
    [
        # greedy and flip reports store no target: verify the greedy's own
        # achieved value and the flip contract |sum - alpha| <= 1/min(S)
        ("greedy", ["--interval", "1..60"], "achieved_exact"),
        ("flip", ["--interval", "10..200", "--alpha", "1/3"], "1/10"),
        ("mitm", ["--interval", "100..400", "--max-free", "30", "--x0", "1/777",
                  "--eta", "1/1000000"], None),
        ("random", ["--set", "2..20", "--x0", "1/7", "--eta", "1/100", "--seed", "5"], None),
        ("pipeline", ["--interval", "1..256", "--seed", "7", "--max-free", "32"], None),
    ],
)
def test_construct_report_verifies_and_tampering_fails(tmp_path, capsys, method, args, eta):
    report = tmp_path / "report.json"
    assert cli.run(["construct", "--method", method, *args, "--out", str(report)]) == 0
    payload = json.loads(report.read_text())
    if eta == "achieved_exact":
        eta = payload["report"]["achieved_exact"]
    flags = [] if eta is None else ["--eta", eta]
    center = payload["config"]["alpha" if method == "flip" else "x0"]
    for signs, code, word in ((report, cli.EXIT_OK, "Below"),
                              (_flip_smallest_sign(report), cli.EXIT_INFEASIBLE, "Above")):
        capsys.readouterr()
        out = tmp_path / "verify.json"
        assert cli.run(["verify", "--signs", str(signs), *flags, "--out", str(out)]) == code
        assert capsys.readouterr().out.strip() == word
        assert json.loads(out.read_text())["report"]["x0"] == center


def test_sieve_csv(tmp_path):
    out = tmp_path / "tables.csv"
    code = cli.run(
        ["sieve", "--limit", "1000", "--psi", "100:3,100:100", "--rho", "3:0.5",
         "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    text = out.read_text().splitlines()
    assert text[0] == "u,rho_u"
    psi_rows = [r for r in text if r.startswith("100,")]
    assert "100,3,20" in psi_rows and "100,100,100" in psi_rows
    assert cli.run(["sieve", "--limit", "100"]) == cli.EXIT_USAGE


def test_sieve_rho_alone_ignores_the_limit(capsys):
    # --limit past the sieve's cap is an error only for a table --psi reads.
    assert cli.run(["sieve", "--limit", "300000000", "--rho", "5"]) == cli.EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "u,rho_u" and len(lines) > 1


def test_bare_sieve_exits_usage_without_building_a_table(monkeypatch):
    def table(limit):  # run does not catch AssertionError
        raise AssertionError(f"a table up to {limit} was built")

    monkeypatch.setattr(cli, "SieveTable", table)
    assert cli.run(["sieve"]) == cli.EXIT_USAGE


# sha256 of the profile CSV and of the record without wall_time and
# config.profile_out; the second run ends in three decay violations
DENSITY_RUNS = [
    (["--n", "2000", "--count", "50", "--seed", "3"], 0,
     "4ec65a3241be22b9634dca59781f32d2495dfa4d6acccac573716604e5e4e9b5",
     "871e2d3ddc168b4ff6769d9cc7f313fc7286180b51727a694a13a0c23bbbac2d"),
    (["--n", "40", "--a", "12..40", "--k", "3", "--count", "500", "--seed", "5"], 1,
     "1fedc0b4ce0768476156069b7575fe019e52f2a5cd4a0f5338061c39e366fcb5",
     "5dd4a9dc24a35b46133d63c20223a47b732f062beea0ee84b7ae3d5136ba1242"),
]


def test_density_certificate_cli(tmp_path):
    out, prof = tmp_path / "cert.json", tmp_path / "profile.csv"
    for argv, code, csv_digest, record_digest in DENSITY_RUNS:
        assert cli.run(["density", *argv, "--out", str(out), "--profile-out", str(prof)]) == code
        assert prof.read_text().splitlines()[0] == "t,log_abs_rho,bound_log"
        assert hashlib.sha256(prof.read_bytes()).hexdigest() == csv_digest
        payload = _strip_wall_time(json.loads(out.read_text()))
        payload["config"].pop("profile_out")
        text = json.dumps(payload, sort_keys=True)
        assert hashlib.sha256(text.encode()).hexdigest() == record_digest


def test_pipeline_cli_reports_infeasible(tmp_path):
    out = tmp_path / "pipe.json"
    code = cli.run(
        ["pipeline", "--scales", "2000,16000", "--allow-nonpositive-delta",
         "--out", str(out)]
    )
    assert code == cli.EXIT_INFEASIBLE  # desk seed cannot reach the target
    payload = json.loads(out.read_text())
    reports = payload["report"]["scale_reports"]
    assert len(reports) == 2 and all(r["identity_ok"] for r in reports)



def _interval(obj: dict) -> tuple[Fraction, Fraction]:
    """The interval of a BigFixed as a record writes it."""
    m, err, one = int(obj["mantissa"]), int(obj["err_ulps"]), Fraction(1, 1 << obj["scale_bits"])
    return (m - err) * one, (m + err) * one


def test_pipeline_zero_eta_writes_a_record(tmp_path):
    out = tmp_path / "pipe.json"
    code = cli.run(
        ["pipeline", "--scales", "400,3200", "--allow-nonpositive-delta", "--max-free", "20",
         "--eta", "0", "--out", str(out)]
    )
    assert code == cli.EXIT_INFEASIBLE
    reports = json.loads(out.read_text())["report"]["scale_reports"]
    assert len(reports) == 2
    for r in reports:
        lo, hi = _interval(r["achieved"])
        # achieved_exact is rendered to 24 digits, far inside the interval
        assert not r["met"] and 0 < lo <= Fraction(r["achieved_exact"]) <= hi


def test_construct_target_at_its_own_value_is_met(tmp_path):
    # lcm(2..40) has 16 digits, so the record holds achieved_exact as p/q
    args = ["construct", "--interval", "2..40", "--method", "mitm", "--x0", "1/10"]
    first, tie = tmp_path / "first.json", tmp_path / "tie.json"
    assert cli.run(args + ["--out", str(first)]) == cli.EXIT_OK
    achieved = json.loads(first.read_text())["report"]["achieved_exact"]
    assert cli.run(args + ["--eta", achieved, "--out", str(tie)]) == cli.EXIT_OK
    report = json.loads(tie.read_text())["report"]
    # no interval decides a tie, so the rendering runs to the cap
    assert report["target_met"] is True and report["achieved_exact"] == achieved
    assert report["achieved"]["scale_bits"] == cli.MAX_PRECISION_BITS
    lo, hi = _interval(report["achieved"])
    assert lo <= Fraction(achieved) <= hi


@pytest.mark.parametrize(
    "argv",
    [
        ["--scales", "16000,2000"],  # not increasing
        ["--scales", "2000,4000"],  # ratio below 8
        ["--scales", "2000,16000", "--c-cross", "10"],  # ratio <= C + 1
        ["--scales", "40,16000"],  # first scale <= (C + 1)^2
        ["--c-cross", "1"],
    ],
    ids=["decreasing", "ratio-below-8", "ratio-within-c", "first-scale-small", "c-cross-1"],
)
def test_pipeline_shape_errors_exit_usage_without_record(tmp_path, capsys, argv):
    out = tmp_path / "p.json"
    assert cli.run(["pipeline", *argv, "--out", str(out)]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_density_without_samples_exits_usage(tmp_path, capsys):
    out = tmp_path / "cert.json"
    for count in ("0", "-3"):
        assert cli.run(["density", "--n", "10", "--count", count, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    assert not out.exists()


def test_random_without_iterations_exits_usage_without_traceback():
    _assert_usage_exit_without_traceback(
        ["construct", "--interval", "1..10", "--method", "random", "--max-iters", "0"]
    )


@pytest.mark.parametrize(
    ("exc", "message"),
    [
        (MemoryError("Unable to allocate 7.45 GiB"), "out of memory: Unable to allocate 7.45 GiB"),
        (MemoryError(), "out of memory"),
    ],
    ids=["message", "bare"],
)
def test_out_of_memory_exits_usage_without_record(tmp_path, capsys, monkeypatch, exc, message):
    def exhausted(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli.SupportSet, "from_spec", exhausted)
    out = tmp_path / "g.json"
    argv = ["construct", "--interval", "1..1000000000", "--method", "greedy", "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [message]
    assert not out.exists()


def test_internal_check_exits_usage_without_traceback(tmp_path, capsys, monkeypatch):
    def unclosed(free_ns, tau):
        raise RuntimeError("meet-in-the-middle shortlist not closed under equal values")

    monkeypatch.setattr(cli.ctor, "_mitm_fixed_point", unclosed)
    out = tmp_path / "m.json"
    argv = ["construct", "--interval", "1..40", "--method", "mitm", "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.strip().splitlines() == [
        "internal error: meet-in-the-middle shortlist not closed under equal values"
    ]
    assert not out.exists()


def test_pipeline_cli_strict_delta(tmp_path):
    code = cli.run(["pipeline", "--scales", "2000,16000", "--out", str(tmp_path / "p.json")])
    assert code == cli.EXIT_INFEASIBLE
    payload = json.loads((tmp_path / "p.json").read_text())
    assert "infeasible" in payload["report"]


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 99}))
    out = tmp_path / "o.json"
    code = cli.run(
        ["--config", str(cfg), "construct", "--set", "2..20", "--method", "random",
         "--eta", "1/1000", "--out", str(out)]
    )
    assert code == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["rng_seed"] == 99
    assert payload["report"]["rng_seed"] == 99


def test_config_values_convert_through_flag_types(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    args = ["construct", "--interval", "100..400", "--method", "mitm"]
    out = tmp_path / "o.json"
    cfg.write_text(json.dumps({"max_free": "40"}))
    assert cli.run(["--config", str(cfg)] + args + ["--out", str(out)]) == cli.EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["config"]["max_free"] == 40
    assert payload["report"]["details"]["free_count"] == 40
    capsys.readouterr()
    cfg.write_text(json.dumps({"max_free": "abc"}))
    assert cli.run(["--config", str(cfg)] + args) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    cfg.write_text(json.dumps({"method": "bogus"}))
    assert cli.run(["--config", str(cfg)] + args[:3]) == cli.EXIT_USAGE


def test_config_does_not_reach_the_next_call(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 99, "max_free": "20"}))
    args = ["construct", "--set", "2..20", "--method", "random", "--eta", "1/1000"]
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.run(["--config", str(cfg), *args, "--out", str(first)]) == cli.EXIT_OK
    assert cli.run([*args, "--out", str(second)]) == cli.EXIT_OK
    a, b = (json.loads(p.read_text())["config"] for p in (first, second))
    assert (a["seed"], a["max_free"]) == (99, 20)
    assert (b["seed"], b["max_free"]) == (0, 48)


# A flag on the command line wins over --config, whichever spelling of the key
# the config uses and however argparse is given the flag: whole, as an
# abbreviation, or with its value after "=".
@pytest.mark.parametrize("key", ["max_free", "max-free"])
@pytest.mark.parametrize("flag", [["--max-free", "30"], ["--max-fr", "30"], ["--max-free=30"]])
def test_config_does_not_override_a_given_flag(tmp_path, key, flag):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 20}))
    argv = ["--config", str(cfg), "construct", "--interval", "1..60", "--method", "mitm"]
    assert cli._parse_args(argv + flag).max_free == 30


def test_config_fills_a_flag_that_a_given_one_only_prefixes(tmp_path):
    # --seed is given whole; it is also a prefix of --seed-rule, which is not.
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed-rule": "chi3_star", "seed": 5}))
    args = cli._parse_args(["--config", str(cfg), "pipeline", "--seed", "3"])
    assert (args.seed, args.seed_rule) == (3, "chi3_star")


def _masked_wall_time(text: str) -> str:
    return re.sub(r'"wall_time": [-+0-9.e]+', '"wall_time": 0', text)


def test_shared_parser_after_errors_matches_a_fresh_process(tmp_path):
    argv = ["construct", "--interval", "100..400", "--method", "mitm", "--max-free", "30",
            "--x0", "1/777"]
    fresh = tmp_path / "fresh.json"
    assert _run_module([*argv, "--out", str(fresh)]).returncode == cli.EXIT_OK
    for before, code in (
        (["construct", "--interval", "1..20", "--method", "bogus"], cli.EXIT_USAGE),
        (["construct", "--max-free", "x", "--interval", "1..20"], cli.EXIT_USAGE),
        (["--help"], cli.EXIT_OK),
        (["construct", "--help"], cli.EXIT_OK),
    ):
        assert cli.run(before) == code
        out = tmp_path / "reused.json"
        assert cli.run([*argv, "--out", str(out)]) == cli.EXIT_OK
        assert _masked_wall_time(out.read_text()) == _masked_wall_time(fresh.read_text())


def test_parser_defaults_are_immutable():
    top, sub = cli._parsers()
    for parser in (top, *sub.choices.values()):
        for action in parser._actions:
            assert isinstance(action.default, (type(None), int, float, str, Fraction)), (
                parser.prog, action.dest
            )


def _write_report(path: Path, ranges, rle, target: str) -> Path:
    obj = {"report": {"signs": {"support_ranges": ranges, "signs_rle": rle}, "target_eta": target}}
    path.write_text(json.dumps(obj))
    return path


def test_verify_precision_bits_bounded(tmp_path, capsys):
    report = _write_report(tmp_path / "r.json", [[1, 40]], [[1, 20], [-1, 20]], "1/1000")
    for bits in ("0", "40000"):
        assert cli.run(["verify", "--signs", str(report), "--precision-bits", bits]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.strip().splitlines()) == 1
    out = tmp_path / "v.json"
    code = cli.run(["verify", "--signs", str(report), "--precision-bits", str(cli.MAX_PRECISION_BITS),
                    "--out", str(out)])
    assert code == cli.EXIT_INFEASIBLE
    assert json.loads(out.read_text())["report"]["precision_bits"] == cli.MAX_PRECISION_BITS


def test_verify_sum_equal_to_target_is_below(tmp_path, capsys):
    # all +1 on [1, 10]: the sum is H_10 = 7381/2520 exactly, so no interval
    # decides and the exact non-strict comparison must
    report = _write_report(tmp_path / "r.json", [[1, 10]], [[1, 10]], "7381/2520")
    out = tmp_path / "v.json"
    assert cli.run(["verify", "--signs", str(report), "--out", str(out)]) == cli.EXIT_OK
    assert "Below" in capsys.readouterr().out
    result = json.loads(out.read_text())["report"]
    assert result["outcome"] == "below"
    assert result["precision_bits"] == cli.MAX_PRECISION_BITS


# SHA-256 of each command's JSON record, wall_time and the report path left
# out, pinned from the code before the arithmetic helpers were merged; the
# verify record since verify checks |sum - x0| with the x0 of the mitm report
# (it checked |sum| and printed Above for a report that met its target).
FIXED_SEED_RECORDS = {
    "greedy": (["construct", "--interval", "1..60", "--method", "greedy"], 0,
               "94b0e5271086925f81f56758abbb7610e318e983ae17291aefa9397ad6b6bfd4"),
    "flip": (["construct", "--interval", "10..200", "--method", "flip", "--alpha", "1/3"], 0,
             "a17d9489a1426f152333ee0cc62f7b4740f206e587109e3597cad11e61172470"),
    "mitm": (["construct", "--interval", "100..400", "--method", "mitm", "--max-free", "30",
              "--x0", "1/777", "--eta", "1/1000000"], 0,
             "474abd057c3fa40de8e7a894cbc5595926411095eecf977cbffde1513e1d72f7"),
    "random": (["construct", "--set", "2..20", "--method", "random", "--eta", "1/1000",
                "--seed", "5"], 0,
               "df6e6f184d2de32a22e99bb7602a52cdd1474958b27b909ad7623306b5a38edf"),
    "pipeline_construct": (["construct", "--interval", "1..256", "--method", "pipeline",
                            "--seed", "7", "--max-free", "32"], 0,
                           "c28aa6b53112cdef9c9179fdb12938278ea4514ad2c1f3bc7bdcc5c797fae184"),
    "oracle": (["oracle", "--set", "1..16", "--x0", "1/5"], 0,
               "371de075132864ab1e88ad9f801335e099ee2f558253026fd251b772dc83f325"),
    "verify": (["verify", "--eta", "1/100000000"], 0,
               "c87722b2ef85f5f73c552d96f3b1f0180771a46e28fe9e975f8ce2550d3ceba7"),
    "pipeline": (["pipeline", "--scales", "2000,16000", "--max-free", "30",
                  "--allow-nonpositive-delta"], 1,
                 "99fba6916ae0e2da9799e0f6b8709667d0a14043954ca3e70c3be469679fe654"),
    "density": (["density", "--n", "2000", "--count", "20", "--seed", "3"], 0,
                "a5f26d90ca0db030c67183969ab15331c3198ccd1f1d46540c3da057f9ba21f9"),
}


def _record_digest(path: Path) -> str:
    """sha256 of a record without wall_time, taken as the fixed-seed digests are."""
    payload = _strip_wall_time(json.loads(path.read_text()))
    payload["config"].pop("signs", None)
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (["construct", "--set", "mod 7: 1", "--n", "300", "--method", "pipeline"],
         "e3bf7fa1042157aa112cbbd2585784d3a807d0eb4002aa4646feb330348ff097"),
        (["construct", "--interval", "200..512", "--n", "512", "--method", "pipeline",
          "--delta", "0.5"],
         "a1ba65e3cc2df2e9485bcfbbf20bde7f877469d745bdd8eb5790f4a170c296f5"),
        # Delta = -L(lambda, 6) = -23/60
        (["pipeline", "--scales", "2000,16000"],
         "ae4486b85897d017885347c4101a400995f2f49c5b57e1e87aac97f6d9d59e85"),
    ],
    ids=["density-shortfall", "empty-prefix", "nonpositive-delta"],
)
def test_infeasible_records_unchanged(tmp_path, argv, digest):
    out = tmp_path / "out.json"
    assert cli.run(argv + ["--out", str(out)]) == cli.EXIT_INFEASIBLE
    assert _record_digest(out) == digest


def test_density_with_b_builds_no_sieve(tmp_path, monkeypatch):
    def no_sieve(limit):
        raise AssertionError(f"density built a sieve to {limit} that a given B never reads")

    monkeypatch.setattr(cli, "SieveTable", no_sieve)
    out = tmp_path / "out.json"
    argv = ["density", "--n", "20000000", "--a", "19999000..20000000",
            "--b", "19999000..19999010", "--count", "5", "--out", str(out)]
    assert cli.run(argv) == cli.EXIT_INFEASIBLE
    # the same record as a run that builds the table and never reads it
    digest = "735dd33fd120e1af59f80f9c22b2a75c11cddcf3e438e3e34884c3d8039c5c7f"
    assert _record_digest(out) == digest


def test_fixed_seed_records_unchanged(tmp_path):
    got, want = {}, {}
    for name, (argv, code, digest) in FIXED_SEED_RECORDS.items():
        out = tmp_path / f"{name}.json"
        if name == "verify":  # re-checks the report of the mitm command
            argv = argv + ["--signs", str(tmp_path / "mitm.json")]
        exit_code = cli.run(argv + ["--out", str(out)])
        raw = out.read_text()
        # the bytes, not only the content: indent 2, sorted keys, no extra space
        assert raw == json.dumps(json.loads(raw), indent=2, sort_keys=True), name
        payload = _strip_wall_time(json.loads(raw))
        payload["config"].pop("signs", None)
        text = json.dumps(payload, sort_keys=True)
        got[name] = (exit_code, hashlib.sha256(text.encode()).hexdigest())
        want[name] = (code, digest)
    assert got == want
