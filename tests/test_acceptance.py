"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <k> PASS/FAIL`` line (visible with -s or
on failure).  Two assertions are expected to fail honestly: the bundled
five-point reference row does not verify as an RDS(5) under exact
arithmetic (its pairs (3,4) and (3,5) have irrational distances because
24^2 + 25^2 = 1201 is not a perfect square), so the criteria that assume
it verifies stay red rather than being weakened; see README, "Known
defects in the bundled reference rows".
"""

import math
import time
from fractions import Fraction as F
from itertools import combinations
from math import comb

import pytest

from rds.pythagorean import build_pool, nu, primitive_triplets
from rds.rat import parse_rat
from rds.records import solution_record
from rds.reference import (
    COUNT_TABLE_N3,
    COUNT_TABLE_N4,
    EXAMPLE_ROWS,
    analyze_all_rows,
    run_count_checks,
)
from rds.search import (
    MODE_MULTISET,
    MODE_ORDERED,
    MODE_SUBSET,
    SearchConfig,
    count_solutions,
    run_enumeration,
    search,
)
from rds.solver import (
    check_distinct,
    check_existence,
    check_general_position,
    complete_psi,
    indices_set,
    psi_from_x,
    solve_x,
    verify_rds,
)

from matrix_reference import coefficient_matrix, exact_det, exact_rank, head_inverse


def report(k, ok, detail):
    line = f"ACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}"
    print(line)
    return line


def consistent_rows():
    return [a for a in analyze_all_rows() if a.x_match and not a.completion_mismatches]


# --- criterion 1: reference solution rows ------------------------------------


def test_criterion_1_solve_reproduces_consistent_rows():
    t0 = time.perf_counter()
    rows = consistent_rows()
    labels = sorted(a.label for a in rows)
    assert labels == ["3-1", "4-1", "4-4", "4-6", "4-7", "5-1"]
    for a in rows:
        assert solve_x(a.printed_psi[: a.n]) == a.printed_x, a.label
    elapsed = time.perf_counter() - t0
    ok = elapsed < 1.0
    line = report(1, ok, f"solve reproduces printed x on rows {labels} in {elapsed:.3f}s")
    assert ok, line


def test_criterion_1_consistent_rows_verify():
    failures = []
    for a in consistent_rows():
        if not verify_rds(a.printed_x).ok:
            failures.append(a.label)
    ok = not failures
    line = report(
        1,
        ok,
        "oracle accepts every print-consistent row"
        if ok
        else f"rows {failures} are print-consistent but fail the distance oracle "
        "(row 5-1: pairs (3,4),(3,5) have pair sum +-25/24 and 24^2+25^2 = 1201 "
        "is not a perfect square; the bundled row is not an RDS(5))",
    )
    assert ok, line


# --- criterion 2: errata detection --------------------------------------------


def test_criterion_2_errata_detection():
    by_label = {a.label: a for a in analyze_all_rows()}

    a = by_label["3-2"]
    assert a.printed_x_failing == [(1, 2)]
    s = a.printed_x[0] + a.printed_x[1]
    assert s == F(32, 15) and s.numerator**2 + s.denominator**2 == 1249
    assert not math.isqrt(1249) ** 2 == 1249
    derived = solve_x(a.printed_psi[:3])
    assert derived == [F(4, 5), F(-32, 15), F(8, 5)]
    assert verify_rds(derived).ok

    a = by_label["4-2"]
    assert complete_psi(a.printed_psi[:4])[4] == F(12, 5)
    assert a.completion_mismatches == [(5, F(3), F(12, 5))]

    a = by_label["4-5"]
    assert psi_from_x(a.printed_x)[1] == F(-8, 15)
    assert (2, F(-371, 264), F(-8, 15)) in a.pairsum_mismatches

    a = by_label["4-3"]
    sums = psi_from_x(a.printed_x)
    assert sums[3] == F(15, 8) and sums[4] == F(425, 168)
    assert (4, F(65, 168), F(15, 8)) in a.pairsum_mismatches
    assert (5, F(25, 24), F(425, 168)) in a.pairsum_mismatches

    report(2, True, "all four documented errata detected with oracle-derived corrections")


# --- criteria 3 and 4: n = 3 count columns ------------------------------------


@pytest.fixture(scope="module")
def n3_checks():
    t0 = time.perf_counter()
    checks = run_count_checks()
    return checks, time.perf_counter() - t0


def test_criterion_3_theta_all_column(n3_checks):
    checks, elapsed = n3_checks
    expected = {gamma: all_ for gamma, _, all_ in COUNT_TABLE_N3}
    for check in checks:
        assert check.search_all == expected[check.gamma], check.gamma
        assert check.closed_form == expected[check.gamma], check.gamma
    ok = elapsed < 60.0
    line = report(
        3,
        ok,
        f"theta3_all matches all 16 rows by full search and closed form in {elapsed:.1f}s",
    )
    assert ok, line


def test_criterion_4_theta_gp_column(n3_checks):
    checks, _ = n3_checks
    for check in checks:
        if check.gamma <= 101:
            assert check.gp_delta == 0, check.gamma
        else:
            assert check.gp_delta == 4, check.gamma
            assert len(check.extra_zero_sum_sets) == 4
            for xs in check.extra_zero_sum_sets:
                assert sum(xs) == 0 and 0 not in xs
    extras = next(c for c in checks if c.gamma == 109).extra_zero_sum_sets
    isolated = ["{" + ", ".join(str(v) for v in xs) + "}" for xs in extras]
    report(
        4,
        True,
        "theta3_gp matches for gamma <= 101 under the mirror rule; for gamma >= 109 "
        f"it exceeds the reference by exactly 4; isolated sets: {'; '.join(isolated)}",
    )


# --- criterion 5: n = 4 determination ------------------------------------------


def test_criterion_5_n4_mode_determination():
    t0 = time.perf_counter()
    pool = build_pool(25)
    results = {}
    for mode in (MODE_ORDERED, MODE_MULTISET, MODE_SUBSET):
        rep = count_solutions(SearchConfig(n=4, gamma_bound=25, enumeration_mode=mode), pool)
        results[mode] = (rep.theta_all, rep.theta_gp)

    # soundness: every emitted solution passes the oracle
    solutions = list(search(SearchConfig(n=4, gamma_bound=25), pool))
    assert all(verify_rds(list(s.x)).ok for s in solutions)
    assert len(solutions) == results[MODE_ORDERED][0]

    # determinism: counts identical across worker counts
    for workers in (2, 8):
        rep = count_solutions(SearchConfig(n=4, gamma_bound=25, workers=workers), pool)
        assert (rep.theta_all, rep.theta_gp) == results[MODE_ORDERED]

    elapsed = time.perf_counter() - t0
    reference = (176, 16)
    matching = [m for m, counts in results.items() if counts == reference]
    determination = (
        f"reference (theta4_all, theta4_gp) = {reference} at gamma=25; "
        f"ordered_dedup gives {results[MODE_ORDERED]}, multiset_dedup {results[MODE_MULTISET]}, "
        f"subset_only {results[MODE_SUBSET]}; "
        + (
            f"mode(s) {matching} match exactly"
            if matching
            else "no mode reproduces theta4_all=176; ordered_dedup alone reproduces "
            "theta4_gp=16 (and matches the reference gp column at 13 of 16 bounds)"
        )
    )
    ok = elapsed < 30.0
    line = report(5, ok, determination + f" [{elapsed:.1f}s]")
    assert results[MODE_ORDERED] == (156, 16)
    assert results[MODE_MULTISET] == (86, 2)
    assert results[MODE_SUBSET] == (58, 2)
    assert ok, line


# --- criterion 6: figure reproduction -----------------------------------------


def test_criterion_6_three_point_figure():
    x = solve_x([F(4, 3), F(8, 15), F(12, 5)])
    assert x == [F(-4, 15), F(8, 5), F(4, 5)]
    verdict = verify_rds(x)
    assert verdict.ok
    assert verdict.distances == [F(28, 9), F(272, 225), F(52, 25)]
    report(6, True, "psi (4/3, 8/15, 12/5) -> x (-4/15, 8/5, 4/5), distances exact")


# --- criterion 7: the five-point row -------------------------------------------


def five_point_row():
    label, n, psi, x = next(r for r in EXAMPLE_ROWS if r[0] == "5-1")
    return [parse_rat(s) for s in psi], [parse_rat(s) for s in x]


def test_criterion_7_five_point_row_not_in_general_position():
    _, x = five_point_row()
    assert not check_general_position(x)
    assert x[0] + x[1] + x[3] + x[4] == 0
    report(7, True, "five-point row flagged not in general position (x1+x2+x4+x5 = 0)")


def test_criterion_7_five_point_row_verifies():
    psi, x = five_point_row()
    assert solve_x(psi[:5]) == x  # print-consistent
    verdict = verify_rds(x)
    ok = verdict.ok
    line = report(
        7,
        ok,
        "five-point row verifies as an RDS(5)"
        if ok
        else "five-point row fails the distance oracle at pairs "
        f"{verdict.failing_pairs}: pair sums +-25/24 are not Pythagorean ratios "
        "(24^2+25^2 = 1201, between 34^2 = 1156 and 35^2 = 1225), so the bundled "
        "row is not an RDS(5); kept red rather than weakened",
    )
    assert ok, line


# --- criterion 8: asymptotic pool growth ---------------------------------------


def test_criterion_8_asymptotic():
    t0 = time.perf_counter()
    count = len(primitive_triplets(10**5))
    elapsed = time.perf_counter() - t0
    reference = 10**5 / (2 * math.pi)
    within = abs(count - reference) <= 0.01 * reference
    ok = within and elapsed < 10.0
    line = report(
        8, ok, f"{count} primitive triplets at 1e5 vs {reference:.1f} reference in {elapsed:.2f}s"
    )
    assert ok, line


# --- criterion 9: property suites ----------------------------------------------


def test_criterion_9_pair_sum_identity_and_oracle_equivalence():
    import random

    rng = random.Random(20260810)
    pool = build_pool(145).ratios
    t0 = time.perf_counter()
    accepted = 0
    for _ in range(10**4):
        n = rng.randint(3, 8)
        head = [rng.choice(pool) for _ in range(n)]
        x = solve_x(head)
        full = complete_psi(head)
        # C.x = psi, head rows
        for (i, j), value in zip(indices_set(n)[:n], head):
            assert x[i - 1] + x[j - 1] == value
        # full identity: pair sums equal the completion
        assert psi_from_x(x) == full
        # oracle <=> existence and distinctness
        distinct = check_distinct(x)
        if distinct:
            assert verify_rds(x).ok == check_existence(head).ok
            accepted += check_existence(head).ok
    assert accepted > 0
    report(
        9,
        True,
        f"pair-sum identity and oracle equivalence on 10^4 random heads "
        f"({accepted} accepting) in {time.perf_counter() - t0:.1f}s",
    )


def test_criterion_9_matrix_checks():
    for n in range(3, 13):
        rows = coefficient_matrix(n)
        assert exact_rank(rows) == n
        assert exact_det(rows[:n]) == (2 if n % 2 == 0 else -2)
        inv = head_inverse(n)
        top = rows[:n]
        for i in range(n):
            for j in range(n):
                assert sum(inv[i][k] * top[k][j] for k in range(n)) == (i == j)
    assert exact_rank(coefficient_matrix(2)) == 1
    report(9, True, "inverse, determinant (+-2) and rank checks pass for n = 3..12")


def test_criterion_9_nu_closed_form_vs_scan():
    # independent scan: alpha^2 = 2*alpha*(q-p) + q^2 - p^2 <= 400*alpha + 40000
    # forces alpha < 600 for q <= 200, so alpha <= 2000 is exhaustive
    hits = set()
    for alpha in range(1, 2001):
        for p in range(1, 201):
            beta = alpha + p
            c2 = alpha * alpha + beta * beta
            c = math.isqrt(c2)
            if c * c == c2 and p < c - alpha <= 200:
                hits.add((p, c - alpha))
    for q in range(2, 201):
        for p in range(1, q):
            assert nu(p, q) == (1 if (p, q) in hits else 0)
    report(9, True, "nu closed form agrees with the alpha-scan oracle for all 0 < p < q <= 200")


def test_criterion_9_worker_determinism_and_checkpoint(tmp_path):
    from rds.cli import main

    outs = []
    for workers in (1, 8):
        path = tmp_path / f"det{workers}.jsonl"
        assert main(
            ["search", "--n", "4", "--gamma-max", "25", "--workers", str(workers), "--out", str(path)]
        ) == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]

    pool = build_pool(25)
    baseline = [solution_record(s) for s in search(SearchConfig(n=4, gamma_bound=25), pool)]
    ckpt = str(tmp_path / "kill.ckpt")
    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=ckpt)
    _, completed = run_enumeration(cfg, pool, stop_after_ranges=3)
    assert not completed
    resumed = [solution_record(s) for s in search(cfg, pool)]
    assert resumed == baseline
    report(9, True, "1 vs 8 workers byte-identical; kill/resume at a rank boundary equivalent")
