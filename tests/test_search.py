"""Search orchestration: enumeration modes, dedup, partitioning, checkpoints."""

from itertools import combinations, combinations_with_replacement, product
from math import comb

import pytest

from rds.errors import CheckpointCorrupt, ConfigMismatch, DomainError
from rds.pythagorean import build_pool
from rds.search import (
    MODE_MULTISET,
    MODE_ORDERED,
    MODE_SUBSET,
    CountReport,
    SearchConfig,
    count_solutions,
    partition_space,
    pool_growth_report,
    run_enumeration,
    search,
)
from rds.solver import check_general_position, solve_x, verify_rds


def test_partition_space_examples():
    assert partition_space(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert partition_space(5, 1) == [(0, 5)]
    assert partition_space(0, 4) == [(0, 0), (0, 0), (0, 0), (0, 0)]


def test_partition_space_covers_and_balances():
    for total, workers in [(100, 7), (3, 8), (1, 1), (83521, 8)]:
        ranges = partition_space(total, workers)
        assert ranges[0][0] == 0 and ranges[-1][1] == total
        sizes = [hi - lo for lo, hi in ranges]
        assert max(sizes) - min(sizes) <= 1
        for (a_lo, a_hi), (b_lo, b_hi) in zip(ranges, ranges[1:]):
            assert a_hi == b_lo


def test_search_counts_n3_gamma25():
    pool = build_pool(25)
    report = count_solutions(SearchConfig(n=3, gamma_bound=25), pool)
    assert report.theta_all == 680
    assert report.theta_gp == 672
    assert report.pool_size == 17
    assert report.exclusions == {"mirror_zero": 8, "zero_sum_extra": 0}


def test_search_stream_matches_gp_filter():
    pool = build_pool(25)
    solutions = list(search(SearchConfig(n=3, gamma_bound=25), pool))
    assert len(solutions) == 680
    gp_only = list(search(SearchConfig(n=3, gamma_bound=25, gp_filter="require"), pool))
    assert len(gp_only) == 672
    assert all(s.general_position for s in gp_only)


def test_search_empty_pool():
    pool = build_pool(4)
    assert list(search(SearchConfig(n=3, gamma_bound=4), pool)) == []


_ORACLE_HEADS = {
    MODE_ORDERED: lambda pool, n: product(pool, repeat=n),
    MODE_MULTISET: combinations_with_replacement,
    MODE_SUBSET: combinations,
}


@pytest.mark.parametrize(
    "n, gamma, mode, sets",
    [
        (3, 25, MODE_ORDERED, 680),
        (4, 17, MODE_ORDERED, 55),
        (4, 17, MODE_MULTISET, 35),
        (4, 17, MODE_SUBSET, 20),
        (5, 13, MODE_MULTISET, 0),
        (5, 13, MODE_SUBSET, 0),
    ],
)
def test_completeness_against_verify_only_oracle(n, gamma, mode, sets):
    # Independent oracle: solve every head the mode draws from the pool and
    # keep exactly the distinct point sets that pass the distance oracle;
    # no completion or existence code involved.
    pool = build_pool(gamma)
    expected = set()
    for head in _ORACLE_HEADS[mode](pool.ratios, n):
        x = solve_x(list(head))
        if len(set(x)) == n and verify_rds(x).ok:
            expected.add(tuple(sorted(x)))
    config = SearchConfig(n=n, gamma_bound=gamma, enumeration_mode=mode)
    got = {tuple(sorted(s.x)) for s in search(config, pool)}
    assert got == expected
    assert len(got) == sets


def test_emission_is_sorted_and_verified():
    pool = build_pool(25)
    xs = [s.x for s in search(SearchConfig(n=4, gamma_bound=25), pool)]
    assert xs == sorted(xs)
    assert all(list(x) == sorted(x) for x in xs)
    for x in xs[:20]:
        assert verify_rds(list(x)).ok


def test_all_modes_agree_for_n3():
    pool = build_pool(29)
    keys = {}
    for mode in (MODE_ORDERED, MODE_MULTISET, MODE_SUBSET):
        sols = search(SearchConfig(n=3, gamma_bound=29, enumeration_mode=mode), pool)
        keys[mode] = [s.x for s in sols]
    assert keys[MODE_ORDERED] == keys[MODE_MULTISET] == keys[MODE_SUBSET]
    assert len(keys[MODE_ORDERED]) == 1330 == comb(4 * 5 + 1, 3)


def test_n4_gamma25_mode_counts():
    # frozen from this implementation; the reference table's (176, 16) pair
    # is matched in its gp component by ordered mode only
    pool = build_pool(25)
    expected = {
        MODE_ORDERED: (156, 16),
        MODE_MULTISET: (86, 2),
        MODE_SUBSET: (58, 2),
    }
    for mode, (want_all, want_gp) in expected.items():
        report = count_solutions(
            SearchConfig(n=4, gamma_bound=25, enumeration_mode=mode), pool
        )
        assert (report.theta_all, report.theta_gp) == (want_all, want_gp)


def test_counts_monotone_in_gamma():
    for n in (3, 4):
        prev = 0
        for gamma in (13, 25, 29, 41):
            report = count_solutions(SearchConfig(n=n, gamma_bound=gamma), build_pool(gamma))
            assert report.theta_all >= prev
            prev = report.theta_all


def test_deterministic_across_worker_counts():
    pool = build_pool(25)
    streams = []
    for workers in (1, 2, 8):
        cfg = SearchConfig(n=4, gamma_bound=25, workers=workers)
        streams.append(list(search(cfg, pool)))
    assert streams[0] == streams[1] == streams[2]
    assert len(streams[0]) == 156


def test_pool_mismatch_rejected():
    with pytest.raises(ConfigMismatch):
        count_solutions(SearchConfig(n=3, gamma_bound=29), build_pool(25))
    with pytest.raises(ConfigMismatch):
        count_solutions(
            SearchConfig(n=3, gamma_bound=25), build_pool(25, include_zero=False)
        )


def test_config_validation():
    with pytest.raises(DomainError):
        SearchConfig(n=2, gamma_bound=25)
    with pytest.raises(DomainError):
        SearchConfig(n=3, gamma_bound=25, enumeration_mode="bogus")
    with pytest.raises(DomainError):
        SearchConfig(n=3, gamma_bound=25, workers=0)


def test_checkpoint_stop_and_resume(tmp_path):
    pool = build_pool(25)
    ckpt = str(tmp_path / "search.ckpt")
    baseline = list(search(SearchConfig(n=4, gamma_bound=25), pool))

    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=ckpt)
    for stop_after in (1, 3, 7):
        found, completed = run_enumeration(cfg, pool, stop_after_ranges=stop_after)
        assert not completed
        assert (tmp_path / "search.ckpt").exists()
        resumed = list(search(cfg, pool))
        assert resumed == baseline
        # successful completion removes the checkpoint pair
        assert not (tmp_path / "search.ckpt").exists()
        assert not (tmp_path / "search.ckpt.partial").exists()


def test_checkpoint_resume_with_workers(tmp_path):
    pool = build_pool(25)
    ckpt = str(tmp_path / "par.ckpt")
    baseline = list(search(SearchConfig(n=4, gamma_bound=25), pool))
    cfg = SearchConfig(n=4, gamma_bound=25, workers=4, checkpoint_path=ckpt)
    _, completed = run_enumeration(cfg, pool, stop_after_ranges=2)
    assert not completed
    assert list(search(cfg, pool)) == baseline


def test_checkpoint_rejects_config_mismatch(tmp_path):
    pool = build_pool(25)
    ckpt = str(tmp_path / "mismatch.ckpt")
    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=ckpt)
    run_enumeration(cfg, pool, stop_after_ranges=1)
    other = SearchConfig(n=4, gamma_bound=25, gp_filter="require", checkpoint_path=ckpt)
    with pytest.raises(ConfigMismatch):
        run_enumeration(other, pool)


def test_checkpoint_corrupt_file(tmp_path):
    pool = build_pool(25)
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text("{not json")
    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=str(ckpt))
    with pytest.raises(CheckpointCorrupt):
        run_enumeration(cfg, pool)


def test_zero_sum_breakdown_at_109():
    pool = build_pool(109)
    report = count_solutions(SearchConfig(n=3, gamma_bound=109), pool)
    assert report.theta_all == 62196
    assert report.theta_gp == 62160  # mirror-set rule only
    assert report.exclusions == {"mirror_zero": 36, "zero_sum_extra": 4}
    assert len(report.extra_zero_sum_sets) == 4
    for x in report.extra_zero_sum_sets:
        assert sum(x) == 0
        assert 0 not in x
        assert check_general_position(x)  # counted as gp under the mirror rule


def test_pool_growth_report():
    rows = pool_growth_report([25, 100])
    assert rows[0]["gamma"] == 25
    assert rows[0]["primitive_triplets"] == 4
    assert rows[0]["pool_size"] == 17
    assert rows[1]["primitive_triplets"] == 16


def test_count_report_shape():
    report = count_solutions(SearchConfig(n=3, gamma_bound=25), build_pool(25))
    assert isinstance(report, CountReport)
    assert report.mode == MODE_ORDERED
    assert report.elapsed >= 0.0
