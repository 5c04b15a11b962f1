"""The benchmark's workloads and the checks on their output.

Each workload is a fixed sequence of ``rds`` command lines; nothing in it
depends on the seed.  The seed only picks which emitted lines are re-verified and the
per-call sample inputs of the traced run.  A check returns the list of
problems it found in one run's stdout; an empty list means the run is
correct.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

COUNT_GAMMAS = (25, 29, 41, 53, 61, 65, 73, 85, 89, 97, 101, 109, 113, 125, 137, 145)

# emitted lines re-checked by the distance oracle in every search run
ORACLE_SAMPLE = 256


@dataclass(frozen=True)
class SearchExpect:
    """``rds search``: a JSONL envelope, then one solution per line."""

    n: int
    gamma: int
    sets: int
    gp: int
    # sha256 of every line after the envelope, taken on the seed commit; the
    # envelope carries the tool version and config echo, which may change
    body_sha256: str | None


@dataclass(frozen=True)
class CountExpect:
    """``rds count --n 3``: CSV rows checked against the closed form and the
    bundled reference columns."""

    gammas: tuple[int, ...]
    sha256: str | None


@dataclass(frozen=True)
class Command:
    """One ``rds`` command line and what its stdout must hold."""

    name: str
    argv: tuple[str, ...]
    expect: SearchExpect | CountExpect

    @property
    def workers(self) -> int:
        return int(self.argv[self.argv.index("--workers") + 1])


@dataclass(frozen=True)
class Workload:
    """Commands run one after the other, each in its own child process; one
    pass through them is what a user of the workload waits for."""

    name: str
    why: str
    commands: tuple[Command, ...]

    @property
    def workers(self) -> int:
        (workers,) = {c.workers for c in self.commands}
        return workers


# Few workloads with long windows: the host's speed drifts over tens of
# seconds, and only a window of a minute averages that out.  The searches
# are kept to a few seconds each so that a window holds several rounds of
# every command.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-mix",
            "n4-g53 kernel-bound, n5-g29 pruning-bound (no finds) and n3-g65 "
            "emission-bound searches in turn, one worker: every search layer",
            (
                Command(
                    "n4-g53",
                    ("search", "--n", "4", "--gamma-max", "53", "--workers", "1"),
                    SearchExpect(4, 53, 1328, 88, "8430a584ac6c843c7985f6886ee4f339dd9a2c533c6419dfe5bfdb1b99bb9d3a"),
                ),
                Command(
                    "n5-g29",
                    ("search", "--n", "5", "--gamma-max", "29", "--workers", "1"),
                    SearchExpect(5, 29, 0, 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
                ),
                Command(
                    "n3-g65",
                    ("search", "--n", "3", "--gamma-max", "65", "--workers", "1"),
                    SearchExpect(3, 65, 14190, 14168, "56f52bc30e3d9cc5772fd7690ad5cc17cf5749cd1192f2c8d98e1806bf5b5b9d"),
                ),
            ),
        ),
        Workload(
            "count-w2",
            "the count path with no emission, on a 2-process pool over 16 "
            "bounds (M = 17..93); the only workload with IPC",
            (
                Command(
                    "n3-count",
                    ("count", "--n", "3", "--gamma-list", ",".join(map(str, COUNT_GAMMAS)), "--workers", "2"),
                    CountExpect(COUNT_GAMMAS, "6e2d9a497251af82bdb76b78361461f2b8ec5217ad73df38ae1436c49ca67186"),
                ),
            ),
        ),
    )
}


def primitive_triplet_hypotenuses(gamma_max: int) -> list[int]:
    """Hypotenuses of all primitive triplets up to gamma_max, by brute force.

    Deliberately independent of ``rds.pythagorean``: it feeds the closed
    form theta_3^all = C(4T + 1, 3) that the checks compare against.
    """
    out = []
    for c in range(5, gamma_max + 1):
        for a in range(3, c):
            b2 = c * c - a * a
            b = math.isqrt(b2)
            if a < b and b * b == b2 and math.gcd(a, b) == 1:
                out.append(c)
    return out


def theta3_all_closed_form(gamma: int, hypotenuses: list[int]) -> int:
    t = sum(1 for c in hypotenuses if c <= gamma)
    return math.comb(4 * t + 1, 3)


def check_output(c: Command, data: bytes, rng: random.Random) -> list[str]:
    if isinstance(c.expect, SearchExpect):
        return _check_search(c.expect, data, rng)
    return _check_count(c.expect, data)


def _check_search(e: SearchExpect, data: bytes, rng: random.Random) -> list[str]:
    from rds.solver import verify_rds

    head, sep, body = data.partition(b"\n")
    if not sep:
        return ["no envelope line"]
    problems = []
    try:
        envelope = json.loads(head)
        config = envelope["config"]
        if envelope["kind"] != "solution" or (config["n"], config["gamma_bound"]) != (e.n, e.gamma):
            problems.append(f"unexpected envelope {envelope}")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"bad envelope {head[:200]!r}: {exc}")
    if body and not body.endswith(b"\n"):
        problems.append("output does not end with a newline")
    lines = body.splitlines()
    gp = sum(1 for line in lines if line.endswith(b'"general_position": true}'))
    if (len(lines), gp) != (e.sets, e.gp):
        problems.append(f"(sets, gp) = {(len(lines), gp)}, expected {(e.sets, e.gp)}")
    if e.body_sha256 is not None and hashlib.sha256(body).hexdigest() != e.body_sha256:
        problems.append("stdout digest differs from the seed commit's")
    for i in sorted(rng.sample(range(len(lines)), min(ORACLE_SAMPLE, len(lines)))):
        try:
            record = json.loads(lines[i])
            x = [Fraction(s) for s in record["x"]]
            verdict = verify_rds(x)
            ok = (
                len(x) == e.n
                and verdict.ok
                and record["distances"] == [str(d) for d in verdict.distances]
            )
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            ok = False
            problems.append(f"line {i + 2}: {exc}")
        if not ok:
            problems.append(f"line {i + 2} fails the distance oracle")
    return problems


def _check_count(e: CountExpect, data: bytes) -> list[str]:
    from rds.reference import COUNT_TABLE_N3, GP_EXTRA_EXCLUSIONS, GP_EXTRA_EXCLUSIONS_FROM

    reference = {g: (gp, all_) for g, gp, all_ in COUNT_TABLE_N3}
    hypotenuses = primitive_triplet_hypotenuses(max(e.gammas))
    lines = data.decode("utf-8", "replace").splitlines()
    if not lines or lines[0] != "gamma,theta_gp,theta_all":
        return [f"bad CSV header {lines[:1]}"]
    problems = []
    try:
        rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    except ValueError as exc:
        return [f"bad CSV row: {exc}"]
    if tuple(r[0] for r in rows) != e.gammas:
        problems.append(f"bounds {[r[0] for r in rows]}, expected {list(e.gammas)}")
    for row in rows:
        if len(row) != 3 or row[0] not in reference:
            problems.append(f"unexpected row {row}")
            continue
        gamma, theta_gp, theta_all = row
        ref_gp, ref_all = reference[gamma]
        extra = GP_EXTRA_EXCLUSIONS if gamma >= GP_EXTRA_EXCLUSIONS_FROM else 0
        closed = theta3_all_closed_form(gamma, hypotenuses)
        if theta_all != ref_all or theta_all != closed:
            problems.append(f"gamma={gamma}: theta_all {theta_all}, reference {ref_all}, closed form {closed}")
        if theta_gp != ref_gp + extra:
            problems.append(f"gamma={gamma}: theta_gp {theta_gp}, expected {ref_gp} + {extra}")
    if e.sha256 is not None and hashlib.sha256(data).hexdigest() != e.sha256:
        problems.append("stdout digest differs from the seed commit's")
    return problems
