"""Command-line front end: experiment records, CSV/JSON emission, exit codes.

Exit codes: 0 on success, 1 on an infeasible outcome (`InfeasibleError`) or a
failed verification, 2 on usage errors (`ValueError`, `SieveRangeError`
included) and exceeded resource limits; `run` alone maps exceptions to them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from . import constructor as ctor
from . import density as dens
from . import multiplicative as mult
from .numerics import (
    MAX_PRECISION_BITS,
    ResourceBudgetError,
    _is_int_pairs,
    _json_text,
    exact_rational_sum,
    verify_abs_below,
)
from .sieve import SieveTable, dickman_rho_grid
from .support import SignSequence, SupportSet

EXIT_OK = 0
EXIT_INFEASIBLE = 1
EXIT_USAGE = 2


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


@functools.cache
def _parsers():
    """The top-level parser and its subcommand action, built once per process.

    Building them costs more than a small solve; parsing leaves them as they
    were, so every call can share them. No default is mutable.
    """
    top = argparse.ArgumentParser(
        prog="harmsum",
        description="Construct and rigorously verify tiny signed harmonic sums",
    )
    top.add_argument("--config", type=str, default=None, help="JSON file of flag defaults")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=str, default=None, help="output path (default stdout)")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument(
        "--threads",
        type=int,
        default=1,
        help="must be >= 1; recorded in the report config (the search is single-threaded)",
    )
    common.add_argument(
        "--precision-bits",
        type=int,
        default=128,
        help=f"starting precision of verify, 1..{MAX_PRECISION_BITS} bits; "
        f"doubled up to {MAX_PRECISION_BITS}",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", parents=[common], help="dump smooth-count tables and rho grids")
    p.add_argument("--limit", type=int, default=1_000_000)
    p.add_argument("--psi", type=str, default=None, help="comma list of x:y pairs")
    p.add_argument("--rho", type=str, default=None, help="u_max[:coarse_step]")

    p = sub.add_parser("density", parents=[common], help="decay profile and certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--a", type=str, default=None, help="set spec for A (default N/2..N)")
    p.add_argument("--b", type=str, default=None, help="set spec for B (default primes in A)")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--profile-out", type=str, default=None, help="CSV path for the profile")

    p = sub.add_parser("construct", parents=[common], help="build a sign sequence")
    p.add_argument("--set", type=str, default=None, help='"a..b", "mod m: r,s" or "@file"')
    p.add_argument("--interval", type=str, default=None, help='shorthand for --set "a..b"')
    p.add_argument("--n", type=int, default=None, help="scale bound for residue/file sets")
    p.add_argument(
        "--method",
        choices=["greedy", "flip", "mitm", "random", "pipeline"],
        default="pipeline",
    )
    p.add_argument("--x0", type=_fraction, default=Fraction(0))
    p.add_argument("--eta", type=_fraction, default=None)
    p.add_argument("--alpha", type=_fraction, default=Fraction(0), help="flip target")
    p.add_argument("--delta", type=float, default=1.0)
    p.add_argument("--eps0", type=float, default=0.2)
    p.add_argument("--max-free", type=int, default=48)
    p.add_argument("--max-iters", type=int, default=100_000)

    p = sub.add_parser("pipeline", parents=[common], help="multiplicative two-block pipeline")
    p.add_argument("--seed-rule", choices=sorted(mult.SEED_RULES), default="liouville")
    p.add_argument("--override", type=str, default=None, help='"p:+1,q:-1" prime signs')
    p.add_argument("--c-cross", type=int, default=6)
    p.add_argument("--scales", type=str, default="2000,16000")
    p.add_argument("--c0", type=float, default=1.0 / 1000)
    p.add_argument("--eta", type=_fraction, default=Fraction(1, 10**10))
    p.add_argument("--max-free", type=int, default=48)
    p.add_argument("--allow-nonpositive-delta", action="store_true")

    p = sub.add_parser("verify", parents=[common], help="re-check a construction report")
    p.add_argument("--signs", type=str, required=True, help="report JSON path")
    p.add_argument("--eta", type=_fraction, default=None, help="override the stored target")

    p = sub.add_parser("oracle", parents=[common], help="exhaustive optimum for small sets")
    p.add_argument("--set", type=str, default=None)
    p.add_argument("--interval", type=str, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--x0", type=_fraction, default=Fraction(0))
    return top, sub


def _parse_args(argv):
    top, sub = _parsers()
    args = top.parse_args(argv)
    if args.config:
        defaults = _read_json_object(args.config, "--config")
        parser = sub.choices[args.command]
        given = _given_dests(parser, argv or [])
        actions = {a.dest: a for a in parser._actions}
        for key, val in defaults.items():
            attr = key.replace("-", "_")
            if attr in actions and hasattr(args, attr) and attr not in given:
                setattr(args, attr, _config_value(actions[attr], key, val))
    if args.threads < 1:
        raise ValueError(f"--threads must be >= 1, got {args.threads}")
    if not 1 <= args.precision_bits <= MAX_PRECISION_BITS:
        raise ValueError(
            f"--precision-bits must lie in [1, {MAX_PRECISION_BITS}], got {args.precision_bits}"
        )
    if getattr(args, "eta", None) is not None and args.eta < 0:
        raise ValueError(f"--eta must be >= 0, got {args.eta}")
    return args


def _given_dests(parser: argparse.ArgumentParser, argv) -> set[str]:
    """Dests of the options argv gives parser, each option matched as argparse
    matches it: by its exact string, else by the prefix it abbreviates."""
    dests = {opt: a.dest for a in parser._actions for opt in a.option_strings}
    given = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--") and tok != "--"}
    return {dests[opt] for opt in given & dests.keys()} | {
        dest
        for opt in given - dests.keys()
        for full, dest in dests.items()
        if full.startswith(opt)
    }


def _read_json_object(path: str, flag: str) -> dict:
    """The JSON object in the file at path; a file holding any other JSON
    value is a usage error."""
    obj = json.loads(Path(path).read_text())
    if not isinstance(obj, dict):
        raise ValueError(f"{flag} {path}: not a JSON object")
    return obj


def _config_value(action: argparse.Action, key: str, val):
    """A --config value converted as if it had been given on the command line."""
    if action.type is not None and val is not None:
        try:
            val = action.type(str(val))
        except (argparse.ArgumentTypeError, ValueError) as exc:
            raise ValueError(f"--config {key}: {exc}") from exc
    if action.choices is not None and val not in action.choices:
        raise ValueError(f"--config {key}: {val!r} is not one of {sorted(action.choices)}")
    return val


def _emit(text: str, out: str | None):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _record(args, report, started: float) -> str:
    """The JSON record of a command; report may be a report object, which
    is converted as it is written."""
    record = {
        "schema": 1,
        "command": args.command,
        "config": {
            k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in vars(args).items()
            if k not in ("config", "out") and not k.startswith("_")
        },
        "rng_seed": getattr(args, "seed", None),
        "version": __version__,
        "wall_time": time.perf_counter() - started,
        "report": report,
    }
    return _json_text(record)


def _int_pairs(text: str, flag: str, form: str) -> list[tuple[int, int]]:
    """The comma-separated integer pairs a:b that a flag's text lists."""
    pairs = []
    for part in text.split(","):
        pair = part.split(":")
        if len(pair) != 2:
            raise ValueError(f"{flag}: expected {form}, got {part!r}")
        try:
            pairs.append((int(pair[0]), int(pair[1])))
        except ValueError:
            raise ValueError(f"{flag}: expected {form} with integers, got {part!r}") from None
    return pairs


def _cmd_sieve(args, started: float) -> int:
    if not args.rho and not args.psi:
        raise ValueError("nothing to do: pass --psi and/or --rho")
    buf = io.StringIO()
    writer = csv.writer(buf)
    if args.rho:
        parts = args.rho.split(":")
        try:
            u_max = float(parts[0])
            coarse = float(parts[1]) if len(parts) > 1 else 0.1
        except ValueError:
            raise ValueError(
                f"--rho: expected u_max[:coarse_step] with numbers, got {args.rho!r}"
            ) from None
        if not (0 <= u_max < math.inf and 0 < coarse < math.inf):  # false for nan too
            raise ValueError(
                f"--rho: expected finite u_max >= 0 and coarse_step > 0, got {args.rho!r}"
            )
        writer.writerow(["u", "rho_u"])
        for u, r in dickman_rho_grid(u_max, coarse):
            writer.writerow([f"{u:.6g}", f"{r:.12e}"])
    if args.psi:  # only the smooth counts read the --limit table
        table = SieveTable(args.limit)
        writer.writerow(["x", "y", "psi"])
        for x, y in _int_pairs(args.psi, "--psi", "x:y"):
            writer.writerow([x, y, table.psi_count(x, y)])
    _emit(buf.getvalue(), args.out)
    return EXIT_OK


def _cmd_density(args, started: float) -> int:
    if args.count < 1:
        raise ValueError(f"--count must be >= 1, got {args.count}")
    n = args.n
    a = SupportSet.from_spec(args.a, n) if args.a else SupportSet.interval(n // 2, n)
    if not len(a):
        raise ValueError("A must be nonempty")
    if args.b:
        b = SupportSet.from_spec(args.b, n)
    else:
        b = SieveTable(n).primes_in(a.min() - 1, a.max()).intersection(a)
    if not len(b) or not np.isin(b.values, a.values).all():
        raise ValueError("B must be a nonempty subset of A")
    t0, t_upper, _ = dens.certificate_window(n, len(b), args.k, c=a.min() / n)
    ts = dens.sample_t_values(t0, t_upper, args.count, args.seed)
    cert = dens.decay_certificate(a, b, n, args.k, ts)
    if args.profile_out:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["t", "log_abs_rho", "bound_log"])
        for row in zip(cert.t_values, cert.log_rho, cert.bound_log):
            writer.writerow([f"{v:.9e}" for v in row])
        Path(args.profile_out).write_text(buf.getvalue())
    _emit(_record(args, cert, started), args.out)
    return EXIT_OK if cert.ok else EXIT_INFEASIBLE


def _support_from_args(args) -> SupportSet:
    spec = args.set or args.interval
    if spec is None:
        raise ValueError("a set specification is required (--set or --interval)")
    return SupportSet.from_spec(spec, args.n)


def _cmd_construct(args, started: float) -> int:
    sup = _support_from_args(args)
    exit_code = EXIT_OK
    if args.method == "greedy":
        seq, total = ctor.greedy_bounded(sup)
        report = {
            "method": "Greedy",
            "signs": seq,
            "achieved_exact": abs(total),
        }
    elif args.method == "flip":
        report = ctor.flip_to_target(sup, args.alpha)
        if not report.feasible:
            exit_code = EXIT_INFEASIBLE
    elif args.method == "mitm":
        report = ctor.mitm_optimize(
            sup,
            args.x0,
            max_free=args.max_free,
            seed=args.seed,
            target_eta=args.eta,
        )
    elif args.method == "random":
        eta = args.eta if args.eta is not None else Fraction(1, 10**6)
        report = ctor.randomized_search(
            sup, args.x0, eta, seed=args.seed, max_iters=args.max_iters
        )
    else:  # pipeline: prefix + meet-in-the-middle over a dense set
        if args.n is None and not len(sup):
            raise ValueError("support must be nonempty")
        n = args.n if args.n is not None else sup.max()
        report = ctor.dense_set_signs(
            sup,
            n,
            args.delta,
            args.eps0,
            args.seed,
            SieveTable(n),
            target_eta=args.eta,
            max_free=args.max_free,
        )
    _emit(_record(args, report, started), args.out)
    return exit_code


def _cmd_pipeline(args, started: float) -> int:
    try:
        scales = [int(s) for s in args.scales.split(",") if s.strip()]
    except ValueError:
        scales = []  # malformed: reported below as empty
    if not scales:
        raise ValueError(f"--scales: expected a comma list of integers, got {args.scales!r}")
    overrides = (
        dict(_int_pairs(args.override, "--override", "p:+1 or p:-1")) if args.override else {}
    )
    _, state = mult.log_mean_pipeline(
        SieveTable(max(scales)),
        seed_rule=args.seed_rule,
        seed_overrides=overrides,
        c_cross=args.c_cross,
        scales=scales,
        c0=args.c0,
        rng_seed=args.seed,
        target_eta=args.eta,
        max_free=args.max_free,
        allow_nonpositive_delta=args.allow_nonpositive_delta,
    )
    _emit(_record(args, state, started), args.out)
    return EXIT_OK if state.feasible else EXIT_INFEASIBLE


def _stored_fraction(value, name: str) -> Fraction:
    """A rational that a report or its config stores as an int or a string."""
    if isinstance(value, (int, str)) and not isinstance(value, bool):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            pass
    raise ValueError(f"{name} is not a rational: {value!r}")


def _cmd_verify(args, started: float) -> int:
    payload = _read_json_object(args.signs, "--signs")
    report = payload.get("report", payload)
    config = payload.get("config", {})
    if not isinstance(report, dict) or not isinstance(config, dict):
        raise ValueError("the report and the config must be JSON objects")
    signs_obj = report.get("signs")
    if signs_obj is None:
        raise ValueError("no signs found in the report")
    for key in ("support_ranges", "signs_rle"):
        if not isinstance(signs_obj, dict) or not _is_int_pairs(signs_obj.get(key)):
            raise ValueError(f"the report's signs need {key} as a list of [int, int] pairs")
    try:
        seq = SignSequence.from_obj(signs_obj)
    except OverflowError:  # numpy's int64 conversion of a larger JSON int
        raise ValueError("the report's signs hold an integer outside int64") from None
    target = args.eta
    if target is None and report.get("target_eta") is not None:
        target = _stored_fraction(report["target_eta"], "target_eta")
        if target < 0:
            raise ValueError(f"target_eta must be >= 0, got {target}")
    if target is None:
        raise ValueError("no target eta stored or provided")
    # A report states its target for |sum - x0|, with x0 from its command's
    # config; a flip report for |sum - alpha|.
    key = "alpha" if config.get("method") == "flip" else "x0"
    x0 = _stored_fraction(config.get(key, 0), key)
    met, v, bits = verify_abs_below(
        abs(exact_rational_sum(seq) - x0), target, start_bits=args.precision_bits
    )
    outcome = "below" if met else "above"
    result = {
        "outcome": outcome,
        "value": v,
        "x0": x0,
        "target_eta": target,
        "precision_bits": bits,
    }
    _emit(_record(args, result, started), args.out)
    print(outcome.capitalize())
    return EXIT_OK if met else EXIT_INFEASIBLE


def _cmd_oracle(args, started: float) -> int:
    sup = _support_from_args(args)
    if len(sup) > dens.EXHAUSTIVE_LIMIT:
        raise ValueError(f"oracle capped at {dens.EXHAUSTIVE_LIMIT} elements")
    x0 = Fraction(args.x0)
    # All elements free: the meet-in-the-middle search returns the exact
    # optimum over all 2^n sign vectors.
    rep = ctor.mitm_optimize(sup, x0, max_free=max(len(sup), 1))
    result = {
        "minimum": rep.achieved_exact,
        "signs": rep.signs,
        "x0": str(x0),
        "enumerated": 1 << len(sup),
    }
    _emit(_record(args, result, started), args.out)
    print(f"min |sum - x0| = {rep.achieved_exact}")
    return EXIT_OK


_COMMANDS = {
    "sieve": _cmd_sieve,
    "density": _cmd_density,
    "construct": _cmd_construct,
    "pipeline": _cmd_pipeline,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
}


def run(argv) -> int:
    """Entry point returning an exit code (0 ok, 1 infeasible, 2 usage, limit or crash).

    The one place that turns exceptions into exit codes: InfeasibleError is
    an outcome, written as an {"infeasible": ...} record with exit 1; every
    other exception caught here exits 2 with one stderr line and no record.
    """
    try:
        args = _parse_args(argv)
        started = time.perf_counter()
        try:  # nested, so that an error writing the record below reaches the outer handlers
            return _COMMANDS[args.command](args, started)
        except ctor.InfeasibleError as exc:
            _emit(_record(args, {"infeasible": str(exc)}, started), args.out)
            return EXIT_INFEASIBLE
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    # OSError: an input file that is missing or unreadable; ValueError also
    # covers json.JSONDecodeError, an input file that is not JSON, and
    # SieveRangeError, a query outside a sieve's range.
    except (ValueError, OSError, ResourceBudgetError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a resource limit, never an infeasible outcome
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_USAGE
    except RuntimeError as exc:  # an internal check fired: a crash, never "infeasible"
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
