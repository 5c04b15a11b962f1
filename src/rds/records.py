"""Line-oriented serialization shared by every command.

JSONL is the primary format: one self-contained record per line, with an
envelope header line carrying the schema version, tool version, and the
configuration echo.  CSV is the spreadsheet-facing alternative with a
fixed header per record kind and no envelope.  Rationals always use the
canonical "num/den" text form; field order is stable so identical inputs
produce byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import io
import json
from itertools import combinations
from typing import IO, Iterable

from . import __version__
from .errors import RdsError
from .pythagorean import Triplet, classify_ratio, min_hypotenuse
from .rat import Rat, format_over, parse_rat
from .solver import Solution, solution_from_x

SCHEMA_VERSION = 1
PRODUCED_BY = f"rds {__version__}"

CSV_HEADERS = {
    "triplet": ["alpha", "beta", "gamma"],
    "ratio": ["psi", "gamma", "class"],
    "solution": ["n", "x", "psi", "distances", "general_position"],
    "count": ["gamma", "theta_gp", "theta_all"],
    "growth": ["gamma", "primitive_triplets", "pool_size", "asymptotic_reference"],
}


class IoError(RdsError):
    """Failed to read or write an output path."""


def envelope(kind: str, config: dict | None = None) -> dict:
    """The header record written as the first line of a JSONL stream."""
    record: dict = {"schema_version": SCHEMA_VERSION, "produced_by": PRODUCED_BY, "kind": kind}
    if config is not None:
        record["config"] = config
    return record


def triplet_record(t: Triplet) -> dict:
    return {"alpha": t.alpha, "beta": t.beta, "gamma": t.gamma}


def ratio_record(q: Rat) -> dict:
    gamma = None if q == 0 else min_hypotenuse(q)
    return {"psi": str(q), "gamma": gamma, "class": classify_ratio(q)}


# Pair-sum texts repeat across sets: for n = 3 every pair sum is a pool
# ratio, so the 14,190 sets of Gamma = 65 have 1,710 distinct ones.  An n >= 4
# tail entry need not be a pool ratio, so the cache drops its least recently
# used text beyond 1 << 14 and its memory never grows with the number of
# sets.  The x and distance texts are not cached: they rarely repeat.
_psi_text = functools.lru_cache(maxsize=1 << 14)(format_over)


def _solution_texts(s: Solution) -> tuple[list[str], list[str], list[str]]:
    """The x, psi and distance strings of a solution, from its integers:
    abscissae and pair sums over den, distances over den^2."""
    nums, den = s.nums, s.den
    den2 = den * den
    pairs = list(combinations(nums, 2))
    return (
        [format_over(v, den) for v in nums],
        [_psi_text(a + b, den) for a, b in pairs],
        # ``distance_nums``: a Solution has a root for every pair
        [format_over(abs(b - a) * c, den2) for (a, b), c in zip(pairs, s.roots)],
    )


def solution_record(s: Solution) -> dict:
    x, psi, distances = _solution_texts(s)
    return {
        "n": s.n,
        "x": x,
        "psi": psi,
        "distances": distances,
        "general_position": s.general_position,
    }


_SEP = '", "'  # between the quoted items of a JSON list of strings


def solution_line(s: Solution) -> str:
    """``json.dumps(solution_record(s))``, rendered without the dict.

    Rational texts hold only digits, "-" and "/", so nothing is escaped.
    A set of fewer than two points has empty lists and takes the dict.
    """
    x, psi, distances = _solution_texts(s)
    if not psi:
        return json.dumps(solution_record(s))
    gp = "true" if s.general_position else "false"
    return (
        f'{{"n": {len(x)}, "x": ["{_SEP.join(x)}"], "psi": ["{_SEP.join(psi)}"], '
        f'"distances": ["{_SEP.join(distances)}"], "general_position": {gp}}}'
    )


def count_record(report) -> dict:
    """The record of a ``search.CountReport``, with its exclusion counts
    and extra zero-sum sets where the report has them (n = 3)."""
    record: dict = {
        "gamma": report.gamma_bound,
        "theta_gp": report.theta_gp,
        "theta_all": report.theta_all,
        "n": report.n,
        "mode": report.mode,
        "pool_size": report.pool_size,
    }
    if report.exclusions:
        record["exclusions"] = dict(report.exclusions)
        record["extra_zero_sum_sets"] = [
            [str(v) for v in xs] for xs in report.extra_zero_sum_sets
        ]
    return record


def parse_solution_record(record: dict) -> Solution:
    """Rebuild a solution from its x through the oracle; a record whose n,
    psi, distances or general_position disagree with its x is a ValueError."""
    s = solution_from_x([parse_rat(v) for v in record["x"]])
    fields = ("n", "psi", "distances", "general_position")
    given = (
        record["n"],
        tuple(parse_rat(v) for v in record["psi"]),
        tuple(parse_rat(v) for v in record["distances"]),
        record["general_position"],
    )
    for name, want, got in zip(fields, (s.n, s.psi, s.distances, s.general_position), given):
        if got != want:
            raise ValueError(f"solution record {name} {got!r} does not match its x")
    return s


def _csv_cell(value) -> str:
    if isinstance(value, list):
        return ";".join(str(v) for v in value)
    if value is None:
        return ""
    return str(value)


def write_records(
    records: Iterable[dict | Solution],
    out: IO[str],
    fmt: str = "jsonl",
    kind: str = "solution",
    config: dict | None = None,
) -> int:
    """Write the header and the records line by line; returns records written.

    A record is a dict, or a ``Solution``, which is rendered from its
    integers (see ``solution_line``).  The header line and each dict row
    are flushed as written, so rows that are computed as the stream
    advances (``rds count``'s, one per bound) reach a pipe as each is
    done.  ``Solution`` lines are not flushed one by one: ``search`` has
    finished its run before the first one is read, so they go out in
    the stream's own blocks, with one flush at the end.
    """
    count = 0
    if fmt == "jsonl":
        out.write(json.dumps(envelope(kind, config)) + "\n")
        out.flush()
        for record in records:
            if isinstance(record, Solution):
                out.write(solution_line(record) + "\n")
            else:
                out.write(json.dumps(record) + "\n")
                out.flush()
            count += 1
    elif fmt == "csv":
        header = CSV_HEADERS[kind]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        out.flush()
        for record in records:
            solution = isinstance(record, Solution)
            if solution:
                record = solution_record(record)
            writer.writerow([_csv_cell(record.get(col)) for col in header])
            if not solution:
                out.flush()
            count += 1
    else:
        raise ValueError(f"unknown format {fmt!r}")
    out.flush()
    return count


def write_records_path(
    records: Iterable[dict | Solution],
    path: str,
    fmt: str = "jsonl",
    kind: str = "solution",
    config: dict | None = None,
) -> int:
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            return write_records(records, fh, fmt=fmt, kind=kind, config=config)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_jsonl(path: str) -> tuple[dict | None, list[dict]]:
    """Read a JSONL file back into (envelope, payload records)."""
    try:
        with open(path, encoding="utf-8") as fh:
            lines = [json.loads(line) for line in fh if line.strip()]
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    if lines and "schema_version" in lines[0] and "kind" in lines[0]:
        return lines[0], lines[1:]
    return None, lines


def render_jsonl(records: Iterable[dict], kind: str, config: dict | None = None) -> str:
    buf = io.StringIO()
    write_records(records, buf, fmt="jsonl", kind=kind, config=config)
    return buf.getvalue()
