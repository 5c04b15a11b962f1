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
import io
import json
from itertools import combinations
from typing import IO, Iterable

from . import __version__
from .errors import RdsError
from .pythagorean import Triplet, classify_ratio, min_hypotenuse
from .rat import Rat, format_over, parse_rat
from .search import CountReport
from .solver import Solution, distance_nums, solution_from_x

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


def _solution_texts(s: Solution) -> tuple[list[str], list[str], list[str]]:
    """The x, psi and distance strings of a solution, from its integers:
    abscissae and pair sums over den, distances over den^2."""
    nums, den = s.nums, s.den
    return (
        [format_over(v, den) for v in nums],
        [format_over(a + b, den) for a, b in combinations(nums, 2)],
        [format_over(d, den * den) for d in distance_nums(nums, s.roots)],
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


def _json_strings(texts: list[str]) -> str:
    # rational texts hold only digits, "-" and "/": nothing to escape
    return '["' + '", "'.join(texts) + '"]' if texts else "[]"


def solution_line(s: Solution) -> str:
    """``json.dumps(solution_record(s))``, rendered without the dict."""
    x, psi, distances = _solution_texts(s)
    gp = "true" if s.general_position else "false"
    return (
        f'{{"n": {s.n}, "x": {_json_strings(x)}, "psi": {_json_strings(psi)}, '
        f'"distances": {_json_strings(distances)}, "general_position": {gp}}}'
    )


def count_record(report: CountReport, breakdown: bool = False) -> dict:
    record: dict = {
        "gamma": report.gamma_bound,
        "theta_gp": report.theta_gp,
        "theta_all": report.theta_all,
        "n": report.n,
        "mode": report.mode,
        "pool_size": report.pool_size,
    }
    if breakdown and report.exclusions:
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
    """Write records line by line, flushing each; returns records written.

    A record is a dict, or a ``Solution``, which is rendered from its
    integers (see ``solution_line``).
    """
    count = 0
    if fmt == "jsonl":
        out.write(json.dumps(envelope(kind, config)) + "\n")
        out.flush()
        for record in records:
            out.write((solution_line(record) if isinstance(record, Solution) else json.dumps(record)) + "\n")
            out.flush()
            count += 1
    elif fmt == "csv":
        header = CSV_HEADERS[kind]
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        out.flush()
        for record in records:
            if isinstance(record, Solution):
                record = solution_record(record)
            writer.writerow([_csv_cell(record.get(col)) for col in header])
            out.flush()
            count += 1
    else:
        raise ValueError(f"unknown format {fmt!r}")
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
