"""Bundled reference data and the regression suite behind `rds tables`.

The example rows pair a published ratio vector with its claimed abscissae;
the count tables give the published solution totals per hypotenuse bound.
Nothing here is trusted: every row is re-derived by the solver and the
distance oracle, rows whose printed entries are mutually inconsistent are
reported as errata with recomputed values, and counts are re-established
by full searches plus the closed form.

Five of the bundled example rows are known to be defective as printed:
rows 3-2, 4-2, 4-3 and 4-5 are internally inconsistent (solver and pair
sums disagree with some printed entry), and row 5-1 is print-consistent
but fails the distance oracle outright (its tail entries +-25/24 are not
Pythagorean ratios, since 24^2 + 25^2 = 1201 is not a perfect square).
The suite passes only if it detects exactly those, with the documented
corrections.
"""

from __future__ import annotations

import math
from math import comb
from typing import NamedTuple

from .pythagorean import build_pool
from .rat import Rat, parse_rat
from .search import SearchConfig, count_solutions
from .solver import (
    check_distinct,
    check_existence,
    psi_from_x,
    solve_x,
    verify_rds,
)

# label, n, printed ratio vector, printed abscissae
EXAMPLE_ROWS: tuple[tuple[str, int, tuple[str, ...], tuple[str, ...]], ...] = (
    ("3-1", 3, ("4/3", "-5/12", "5/12"), ("1/4", "13/12", "-2/3")),
    ("3-2", 3, ("-4/3", "12/5", "-8/15"), ("38/15", "-6/15", "-2/15")),
    ("4-1", 4, ("-35/12", "-4/3", "-7/24", "-3/4", "7/24", "15/8"),
     ("-7/4", "-7/6", "5/12", "35/24")),
    ("4-2", 4, ("-208/105", "-20/21", "208/105", "-8/15", "15/5", "24/7"),
     ("-6/5", "-82/105", "26/105", "334/105")),
    ("4-3", 4, ("95/168", "20/21", "45/28", "65/168", "25/24", "35/12"),
     ("-5/28", "125/168", "95/84", "25/14")),
    ("4-4", 4, ("-15/8", "-21/20", "-8/15", "-7/24", "9/40", "21/20"),
     ("-79/60", "-67/120", "4/15", "47/60")),
    ("4-5", 4, ("-779/660", "-371/264", "7/24", "9/40", "21/20", "56/33"),
     ("-853/880", "-557/2640", "1151/2640", "3329/2640")),
    ("4-6", 4, ("-35/12", "-21/20", "-9/40", "-7/24", "8/15", "12/5"),
     ("-147/80", "-259/240", "63/80", "129/80")),
    ("4-7", 4, ("-28/45", "11/60", "48/55", "85/132", "4/3", "77/36"),
     ("-268/495", "-8/99", "287/396", "140/99")),
    ("5-1", 5, ("0", "7/24", "4/3", "-3/4", "-7/24", "3/4", "-4/3", "25/24", "-25/24", "0"),
     ("7/24", "-7/24", "0", "25/24", "-25/24")),
)

EXPECTED_ERRATA = frozenset({"3-2", "4-2", "4-3", "4-5", "5-1"})

# (gamma, theta3_gp, theta3_all) as published
COUNT_TABLE_N3: tuple[tuple[int, int, int], ...] = (
    (25, 672, 680), (29, 1320, 1330), (41, 3640, 3654), (53, 5440, 5456),
    (61, 7752, 7770), (65, 14168, 14190), (73, 18400, 18424), (85, 29232, 29260),
    (89, 35960, 35990), (97, 43648, 43680), (101, 52360, 52394), (109, 62156, 62196),
    (113, 73108, 73150), (125, 85276, 85320), (137, 98724, 98770), (145, 129716, 129766),
)

# (gamma, theta4_gp, theta4_all) as published; kept for the n = 4
# convention determination, not asserted by the regression gate
COUNT_TABLE_N4: tuple[tuple[int, int, int], ...] = (
    (25, 16, 176), (29, 36, 334), (41, 40, 883), (53, 88, 1328),
    (61, 108, 1893), (65, 148, 3459), (73, 180, 4504), (85, 228, 7159),
    (89, 256, 8826), (97, 288, 10704), (101, 316, 12855), (109, 392, 15302),
    (113, 420, 17999), (125, 432, 20972), (137, 500, 24321), (145, 544, 31941),
)

# published gp counts for gamma <= 101 equal "all minus mirror sets";
# from gamma = 109 they are lower by exactly this many additional sets
GP_EXTRA_EXCLUSIONS_FROM = 109
GP_EXTRA_EXCLUSIONS = 4


class RowAnalysis(NamedTuple):
    """Everything the regression derives about one bundled example row."""

    label: str
    n: int
    printed_psi: list[Rat]
    printed_x: list[Rat]
    derived_x: list[Rat]
    status: str  # "consistent" | "erratum"
    x_match: bool
    # printed psi entries vs the completion of the printed head
    completion_mismatches: list[tuple[int, Rat, Rat]]
    # printed psi entries vs the pair sums of the printed x
    pairsum_mismatches: list[tuple[int, Rat, Rat]]
    printed_x_ok: bool
    printed_x_failing: list[tuple[int, int]]
    derived_x_ok: bool
    head_existence_ok: bool
    notes: list[str]


def _square_note(i: int, j: int, s: Rat) -> str:
    total = s.numerator**2 + s.denominator**2
    r = math.isqrt(total)
    return (
        f"pair ({i},{j}): sum {s}; {abs(s.numerator)}^2+{s.denominator}^2 = {total} "
        f"lies between {r}^2 = {r * r} and {r + 1}^2 = {(r + 1) ** 2}"
    )


def analyze_example_row(label: str, n: int, psi_strs, x_strs) -> RowAnalysis:
    printed_psi = [parse_rat(s) for s in psi_strs]
    printed_x = [parse_rat(s) for s in x_strs]
    head = printed_psi[:n]
    derived_x = solve_x(head)
    existence = check_existence(head)
    completion = head + existence.tail

    x_match = derived_x == printed_x
    completion_mismatches = [
        (k + 1, printed_psi[k], completion[k])
        for k in range(len(printed_psi))
        if printed_psi[k] != completion[k]
    ]
    verdict = verify_rds(printed_x)
    pair_sums = psi_from_x(printed_x)
    pairsum_mismatches = [
        (k + 1, printed_psi[k], pair_sums[k])
        for k in range(len(printed_psi))
        if printed_psi[k] != pair_sums[k]
    ]
    derived_x_ok = (
        existence.ok and check_distinct(derived_x) and verify_rds(derived_x).ok
    )

    notes = []
    if not verdict.ok:
        for i, j in verdict.failing_pairs:
            notes.append(_square_note(i, j, printed_x[i - 1] + printed_x[j - 1]))
        if derived_x_ok and not x_match:
            notes.append(
                "head-derived x = (" + ", ".join(str(v) for v in derived_x) + ") verifies"
            )
        elif x_match:
            notes.append(
                "printed vector and printed x agree, but the row is not a rational "
                "distance set: the listed entries above are not Pythagorean ratios"
            )
    if verdict.ok and not x_match:
        # the printed x is the trustworthy object; correct psi from its pair sums
        for pos, printed, recomputed in pairsum_mismatches:
            notes.append(
                f"psi[{pos}] printed {psi_strs[pos - 1]}; pair sums of printed x give {recomputed}"
            )
    if x_match:
        # the printed head is trustworthy; correct the tail from the completion
        for pos, printed, recomputed in completion_mismatches:
            notes.append(
                f"psi[{pos}] printed {psi_strs[pos - 1]}; completion gives {recomputed}"
            )

    status = (
        "consistent"
        if x_match and not completion_mismatches and verdict.ok
        else "erratum"
    )
    return RowAnalysis(
        label=label,
        n=n,
        printed_psi=printed_psi,
        printed_x=printed_x,
        derived_x=derived_x,
        status=status,
        x_match=x_match,
        completion_mismatches=completion_mismatches,
        pairsum_mismatches=pairsum_mismatches,
        printed_x_ok=verdict.ok,
        printed_x_failing=verdict.failing_pairs,
        derived_x_ok=derived_x_ok,
        head_existence_ok=existence.ok,
        notes=notes,
    )


def analyze_all_rows() -> list[RowAnalysis]:
    return [analyze_example_row(*row) for row in EXAMPLE_ROWS]


class CountCheck(NamedTuple):
    gamma: int
    closed_form: int
    search_all: int
    reference_all: int
    search_gp: int
    reference_gp: int
    gp_delta: int
    expected_gp_delta: int
    extra_zero_sum_sets: list[tuple[Rat, ...]]
    zero_sum_matches_reference: bool

    @property
    def ok(self) -> bool:
        return (
            self.search_all == self.reference_all == self.closed_form
            and self.gp_delta == self.expected_gp_delta
        )


def run_count_checks() -> list[CountCheck]:
    """Re-establish the n = 3 count table by search and closed form."""
    checks = []
    for gamma, ref_gp, ref_all in COUNT_TABLE_N3:
        pool = build_pool(gamma)
        report = count_solutions(SearchConfig(n=3, gamma_bound=gamma), pool)
        closed = comb(4 * pool.primitive_count + 1, 3)
        expected_delta = (
            GP_EXTRA_EXCLUSIONS if gamma >= GP_EXTRA_EXCLUSIONS_FROM else 0
        )
        zero_sum_total = report.exclusions.get("mirror_zero", 0) + report.exclusions.get(
            "zero_sum_extra", 0
        )
        checks.append(
            CountCheck(
                gamma=gamma,
                closed_form=closed,
                search_all=report.theta_all,
                reference_all=ref_all,
                search_gp=report.theta_gp,
                reference_gp=ref_gp,
                gp_delta=report.theta_gp - ref_gp,
                expected_gp_delta=expected_delta,
                extra_zero_sum_sets=report.extra_zero_sum_sets,
                zero_sum_matches_reference=report.theta_all - zero_sum_total == ref_gp,
            )
        )
    return checks


def tables_regression(errata_detail: bool = False) -> tuple[list[str], bool]:
    """Run the whole bundled-data regression; returns (report lines, ok)."""
    lines = []
    ok = True

    lines.append("example solution rows")
    for analysis in analyze_all_rows():
        expected = "erratum" if analysis.label in EXPECTED_ERRATA else "consistent"
        row_ok = analysis.status == expected
        ok &= row_ok
        if analysis.status == "consistent":
            tag = "PASS" if row_ok else "FAIL"
            lines.append(
                f"[{tag}] row {analysis.label} (n={analysis.n}): printed psi reproduces printed x; oracle ok"
            )
        else:
            tag = "ERRATUM" if row_ok else "FAIL"
            if not analysis.printed_x_ok and analysis.x_match:
                headline = "internally consistent but not a rational distance set"
            elif not analysis.printed_x_ok:
                headline = "printed x fails the distance oracle"
            elif analysis.x_match:
                headline = "printed tail disagrees with the completion"
            else:
                headline = "printed psi disagrees with the pair sums of printed x"
            lines.append(f"[{tag}] row {analysis.label} (n={analysis.n}): {headline}")
            if errata_detail or not row_ok:
                for note in analysis.notes:
                    lines.append(f"    {note}")

    lines.append("solution counts, n=3")
    checks = run_count_checks()
    for check in checks:
        ok &= check.ok
        tag = "PASS" if check.ok else "FAIL"
        delta = (
            "matches reference"
            if check.gp_delta == 0
            else f"exceeds reference by {check.gp_delta} (documented: {check.expected_gp_delta})"
        )
        lines.append(
            f"[{tag}] gamma={check.gamma}: all search={check.search_all} closed-form={check.closed_form} "
            f"reference={check.reference_all}; gp mirror-rule={check.search_gp} "
            f"reference={check.reference_gp}, {delta}"
        )
        if check.extra_zero_sum_sets and (errata_detail or not check.ok):
            for xs in check.extra_zero_sum_sets:
                lines.append(
                    "    extra zero-sum set {" + ", ".join(str(v) for v in xs) + "}"
                )
    if all(c.zero_sum_matches_reference for c in checks):
        lines.append(
            "note: excluding every zero-abscissa-sum solution (mirror sets plus the "
            "listed extras) reproduces the reference gp column exactly at all rows"
        )
    return lines, ok
