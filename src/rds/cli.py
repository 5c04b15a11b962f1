"""Command-line interface.

Data goes to stdout (or --out); diagnostics and timings go to stderr.
Exit codes: 0 success, 1 a verification or regression command found a
failure, 2 usage or I/O error, 130 interrupted (Ctrl-C).  Output is plain
text and deterministic for identical arguments and inputs (NO_COLOR is
trivially honored; no command emits color).
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

from . import __version__
from .errors import RdsError
from .pythagorean import (
    build_pool,
    classify_ratio,
    find_ratio_in_interval,
    is_pythagorean_ratio,
    min_hypotenuse,
    nu,
    nu_triplet,
    primitive_triplets,
)
from .rat import parse_rat
from .records import (
    count_record,
    ratio_record,
    triplet_record,
    write_records,
    write_records_path,
)
from .search import (
    GP_FILTERS,
    MODE_MULTISET,
    MODE_ORDERED,
    MODE_SUBSET,
    SearchConfig,
    count_solutions,
    pool_growth_report,
    search,
)
from .solver import (
    ExistenceCheck,
    check_distinct,
    check_existence,
    check_general_position,
    solve_x,
    verify_rds,
)

_MODE_BY_FLAG = {
    "ordered": MODE_ORDERED,
    "multiset": MODE_MULTISET,
    "subset": MODE_SUBSET,
}
_MODE_HELP = (
    "heads tried: ordered, all (for n >= 4 one per psi_1 <-> psi_2 swap, which gives the same sets); "
    "multiset, pool indices never decrease; subset, they strictly increase"
)
_WORKERS_HELP = "accepted for compatibility and has no effect: every run is one process (default: 1)"


def _parse_rat_list(text: str) -> list[Fraction]:
    # an empty item is an error (parse_rat rejects it), not a skipped one
    return [parse_rat(s) for s in text.split(",")]


def _parse_gamma_list(text: str) -> list[int]:
    items = text.split(",")
    if not any(s.strip() for s in items):
        raise RdsError("--gamma-list is empty")
    if not all(s.strip() for s in items):
        raise RdsError(f"--gamma-list has an empty item: {text!r}")
    gammas = []
    for s in items:
        try:
            gammas.append(int(s))
        except ValueError:
            raise RdsError(f"--gamma-list item {s!r} is not an integer") from None
    return gammas


def _emit(records, args, kind, config=None) -> int:
    if args.out:
        return write_records_path(records, args.out, fmt=args.format, kind=kind, config=config)
    return write_records(records, sys.stdout, fmt=args.format, kind=kind, config=config)


def _cmd_triplets(args) -> int:
    triplets = primitive_triplets(args.gamma_max)
    _emit(
        (triplet_record(t) for t in triplets),
        args,
        kind="triplet",
        config={"gamma_bound": args.gamma_max},
    )
    return 0


def _cmd_ratios(args) -> int:
    pool = build_pool(args.gamma_max, include_zero=not args.no_zero)
    _emit(
        (ratio_record(q) for q in pool.ratios),
        args,
        kind="ratio",
        config={"gamma_bound": args.gamma_max, "include_zero": not args.no_zero},
    )
    return 0


def _solve_record(n: int, head: list[Fraction], free) -> tuple[dict, bool]:
    x = solve_x(head, free=free)
    # n = 2 has no forced tail, so existence holds vacuously
    existence = check_existence(head) if n >= 3 else ExistenceCheck(True, [], [])
    distinct = check_distinct(x)
    ok = existence.ok and distinct
    record = {
        "n": n,
        "x": [str(v) for v in x],
        "psi": [str(v) for v in head + existence.tail],
        "head_valid": all(is_pythagorean_ratio(v) for v in head),
        "existence_ok": existence.ok,
        "failing_positions": existence.failing,
        "distinct": distinct,
        "general_position": check_general_position(x) if distinct else False,
        "verified": False,
        "distances": [],
    }
    if ok:
        verdict = verify_rds(x)
        ok = record["verified"] = verdict.ok
        if ok:
            record["distances"] = [str(d) for d in verdict.distances]
    return record, ok


def _cmd_solve(args) -> int:
    head = _parse_rat_list(args.psi)
    n = args.n
    if n < 2:
        raise RdsError(f"--n must be >= 2, got {n}")
    expected = 1 if n == 2 else n
    if len(head) != expected:
        raise RdsError(f"--psi needs {expected} entries for n={n}, got {len(head)}")
    if args.free is not None and n >= 3:
        raise RdsError(f"--free is for n = 2 only, got n={n}")
    free = parse_rat(args.free) if args.free is not None else None
    record, ok = _solve_record(n, head, free)
    _emit([record], args, kind="solution")
    return 0 if ok else 1


def _cmd_complete(args) -> int:
    head = _parse_rat_list(args.psi)
    if len(head) != args.n:
        raise RdsError(f"--psi needs {args.n} entries for n={args.n}, got {len(head)}")
    existence = check_existence(head)
    record = {
        "n": args.n,
        "psi": [str(v) for v in head + existence.tail],
        "head": [str(v) for v in head],
        "tail": [str(v) for v in existence.tail],
        "existence_ok": existence.ok,
        "failing_positions": existence.failing,
    }
    _emit([record], args, kind="solution")
    return 0


def _cmd_verify(args) -> int:
    x = _parse_rat_list(args.x)
    if len(x) < 2:
        raise RdsError(f"--x needs at least 2 points, got {len(x)}")
    verdict = verify_rds(x)
    record = {
        "n": len(x),
        "x": [str(v) for v in x],
        "ok": verdict.ok,
        "distances": ["" if d is None else str(d) for d in verdict.distances],
        "failing_pairs": [list(p) for p in verdict.failing_pairs],
        "general_position": check_general_position(x),
    }
    _emit([record], args, kind="solution")
    if not verdict.ok:
        pairs = ", ".join(f"({i},{j})" for i, j in verdict.failing_pairs)
        print(f"verify: irrational distance at pairs {pairs}", file=sys.stderr)
        return 1
    return 0


def _search_config(args, gamma: int, **extra) -> SearchConfig:
    """The ``SearchConfig`` that the search and count flags give at the bound gamma."""
    return SearchConfig(
        n=args.n,
        gamma_bound=gamma,
        include_zero=not args.no_zero,
        enumeration_mode=_MODE_BY_FLAG[args.mode],
        workers=args.workers,
        **extra,
    )


def _cmd_search(args) -> int:
    config = _search_config(args, args.gamma_max, gp_filter=args.gp, checkpoint_path=args.checkpoint)
    pool = build_pool(config.gamma_bound, include_zero=config.include_zero)
    t0 = time.perf_counter()
    solutions = search(config, pool)  # the whole run: a failure raises before any output
    count = _emit(solutions, args, kind="solution", config=config.echo(pool))
    print(
        f"search: {count} solutions in {time.perf_counter() - t0:.2f}s "
        f"(n={config.n}, gamma<={config.gamma_bound}, mode={config.enumeration_mode})",
        file=sys.stderr,
    )
    return 0


def _cmd_count(args) -> int:
    if args.breakdown and args.format != "jsonl":
        raise RdsError("--breakdown needs --format jsonl")  # a CSV row has no place for it
    gammas = _parse_gamma_list(args.gamma_list)
    # every bound is validated before the first row is written
    configs = [_search_config(args, gamma) for gamma in gammas]

    def reports():
        for config in configs:
            pool = build_pool(config.gamma_bound, include_zero=config.include_zero)
            report = count_solutions(config, pool)
            print(
                f"count: gamma={config.gamma_bound} theta_all={report.theta_all} "
                f"theta_gp={report.theta_gp} elapsed={report.elapsed:.2f}s",
                file=sys.stderr,
            )
            yield count_record(report, breakdown=args.breakdown)

    _emit(
        reports(),
        args,
        kind="count",
        config={"n": args.n, "mode": _MODE_BY_FLAG[args.mode], "include_zero": not args.no_zero},
    )
    return 0


def _cmd_nu(args) -> int:
    value = nu(args.p, args.q)
    t = nu_triplet(args.p, args.q)
    record = {
        "p": args.p,
        "q": args.q,
        "nu": value,
        "triplet": None if t is None else {"alpha": t.alpha, "beta": t.beta, "gamma": t.gamma},
    }
    _emit([record], args, kind="count")
    return 0


def _cmd_density_probe(args) -> int:
    import random

    misses = 0
    records = []
    if args.samples is not None:
        if args.lo is not None or args.hi is not None:
            raise RdsError("--samples must be used without --lo and --hi")  # it would drop them
        if args.samples < 1:
            raise RdsError(f"--samples must be >= 1, got {args.samples}")
        width = parse_rat("1/50" if args.width is None else args.width)
        if not 0 < width <= 6:
            raise RdsError(f"--width must be in (0, 6], got {args.width}")
        rng = random.Random(0 if args.seed is None else args.seed)
        grid = 600
        # keep sampled subintervals inside (-3, 3)
        hi_limit = 3 * grid - max(1, int(width * grid))
        for _ in range(args.samples):
            lo = Fraction(rng.randint(-3 * grid, hi_limit), grid)
            hi = lo + width
            hit = find_ratio_in_interval(lo, hi, args.gamma_cap)
            records.append(_probe_record(lo, hi, hit))
            misses += hit is None
    else:
        for flag, value in (("--width", args.width), ("--seed", args.seed)):
            if value is not None:
                raise RdsError(f"{flag} must be used with --samples")  # it would be ignored
        if args.lo is None or args.hi is None:
            raise RdsError("density-probe needs --lo and --hi (or --samples)")
        lo, hi = parse_rat(args.lo), parse_rat(args.hi)
        hit = find_ratio_in_interval(lo, hi, args.gamma_cap)
        records.append(_probe_record(lo, hi, hit))
        misses += hit is None
    _emit(records, args, kind="ratio")
    return 1 if misses else 0


def _probe_record(lo, hi, hit) -> dict:
    return {
        "psi": None if hit is None else str(hit),
        "gamma": None if hit is None or hit == 0 else min_hypotenuse(hit),
        "class": None if hit is None else classify_ratio(hit),
        "lo": str(lo),
        "hi": str(hi),
    }


def _cmd_growth(args) -> int:
    _emit(pool_growth_report(_parse_gamma_list(args.gamma_list)), args, kind="growth")
    return 0


def _cmd_tables(args) -> int:
    from .reference import tables_regression  # only this command reads the bundled tables

    lines, ok = tables_regression(errata_detail=args.errata)
    for line in lines:
        print(line)
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rds",
        description="Construct, verify, enumerate and count rational distance sets on y = x^2.",
        epilog=(
            "--workers of search and count is accepted and has no effect, since every run is "
            "one process. NO_COLOR is honored."
        ),
    )
    parser.add_argument("--version", action="version", version=f"rds {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p, default_format="jsonl"):
        p.add_argument("--format", choices=["jsonl", "csv"], default=default_format)
        p.add_argument("--out", help="write records to this path instead of stdout")

    p = sub.add_parser("triplets", help="primitive Pythagorean triplets with bounded hypotenuse")
    p.add_argument("--gamma-max", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_triplets)

    p = sub.add_parser("ratios", help="the deduplicated ratio pool for a hypotenuse bound")
    p.add_argument("--gamma-max", type=int, required=True)
    p.add_argument("--no-zero", action="store_true", help="exclude the zero ratio")
    add_output_flags(p)
    p.set_defaults(func=_cmd_ratios)

    p = sub.add_parser("solve", help="solve abscissae from an independent ratio vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", required=True, help='head entries, e.g. "4/3,8/15,12/5"')
    p.add_argument("--free", help="free coordinate r (n=2 only)")
    add_output_flags(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("complete", help="extend a head to the full ratio vector")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--psi", required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_complete)

    p = sub.add_parser("verify", help="independent distance oracle; exit 1 on failure")
    p.add_argument("--x", required=True, help='abscissae, e.g. "-4/15,8/5,4/5"')
    add_output_flags(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("search", help="exhaustive search over a bounded ratio pool")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma-max", type=int, required=True)
    p.add_argument("--mode", choices=sorted(_MODE_BY_FLAG), default="ordered", help=_MODE_HELP)
    p.add_argument(
        "--gp",
        choices=list(GP_FILTERS),
        default="annotate",
        help="annotate: emit every set with its general_position flag; "
        "require: emit only sets in general position",
    )
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--checkpoint", help="checkpoint path for kill/resume")
    p.add_argument("--no-zero", action="store_true")
    add_output_flags(p)
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("count", help="count solutions per hypotenuse bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--gamma-list", required=True, help="comma-separated bounds, e.g. 25,29,41")
    p.add_argument("--mode", choices=sorted(_MODE_BY_FLAG), default="ordered", help=_MODE_HELP)
    p.add_argument("--workers", type=int, default=1, help=_WORKERS_HELP)
    p.add_argument("--breakdown", action="store_true", help="include exclusion breakdown (needs --format jsonl)")
    p.add_argument("--no-zero", action="store_true")
    add_output_flags(p, default_format="csv")
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("nu", help="triplet-counting indicator on p/q in (0,1)")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_nu)

    p = sub.add_parser("density-probe", help="find a pool ratio inside an open interval")
    p.add_argument("--lo")
    p.add_argument("--hi")
    p.add_argument("--gamma-cap", type=int, required=True)
    p.add_argument("--samples", type=int, help="probe this many random width --width subintervals of (-3,3)")
    p.add_argument("--width", help="sampled subinterval width, with --samples (default: 1/50)")
    p.add_argument("--seed", type=int, help="sampling seed, with --samples (default: 0)")
    add_output_flags(p)
    p.set_defaults(func=_cmd_density_probe)

    p = sub.add_parser("growth", help="pool growth vs the Gamma/(2*pi) reference")
    p.add_argument("--gamma-list", required=True)
    add_output_flags(p)
    p.set_defaults(func=_cmd_growth)

    p = sub.add_parser("tables", help="bundled reference regression; exit 1 on mismatch")
    p.add_argument("--errata", action="store_true", help="print recomputed values and failing arithmetic")
    p.set_defaults(func=_cmd_tables)

    return parser


_VALUE_FLAGS = {"--x", "--psi", "--free", "--lo", "--hi", "--width"}


def _merge_negative_values(argv: list[str]) -> list[str]:
    # let values like "-4/15,8/5,4/5" follow their flag without being
    # mistaken for an option
    merged: list[str] = []
    for arg in argv:
        if merged and merged[-1] in _VALUE_FLAGS and arg.startswith("-"):
            merged[-1] += "=" + arg
        else:
            merged.append(arg)
    return merged


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    args = parser.parse_args(_merge_negative_values(list(argv)))
    try:
        return args.func(args)
    except BrokenPipeError:
        return 0
    except (RdsError, ValueError, OSError) as exc:
        # I/O errors not already turned into an RdsError (e.g. a checkpoint path)
        print(f"rds: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        # a search checkpoint already holds the last completed chunk
        print("rds: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
