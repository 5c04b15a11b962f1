"""Search orchestration: enumeration modes, dedup, partitioning, checkpoints."""

import json
import operator
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, islice, permutations, product
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from rds.errors import CheckpointCorrupt, ConfigMismatch, DomainError
from rds.pythagorean import build_pool, is_pythagorean_ratio
from rds.search import (
    MODE_MULTISET,
    MODE_ORDERED,
    MODE_SUBSET,
    MODES,
    CountReport,
    SearchConfig,
    count_solutions,
    partition_space,
    _flags_of_x,
    pool_growth_report,
    process_range,
    run_enumeration,
    search,
    total_ranks,
)
from rds.solver import (
    check_distinct,
    check_general_position,
    complete_psi,
    solve_x,
    verify_rds,
)


def test_partition_space_examples():
    assert partition_space(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert partition_space(5, 1) == [(0, 5)]
    assert partition_space(0, 4) == [(0, 0), (0, 0), (0, 0), (0, 0)]


@pytest.mark.parametrize("mode", MODES)
def test_total_ranks_one_space_per_n(mode):
    for M in (0, 1, 4, 17, 33):
        assert total_ranks(mode, M, 3) == comb(M, 3)
        for n in (4, 5, 6):
            assert total_ranks(mode, M, n) == M**n


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


# the relation each head entry bears to the next one that a mode keeps
_HEAD_ORDER = {
    MODE_ORDERED: lambda a, b: True,
    MODE_MULTISET: operator.le,
    MODE_SUBSET: operator.lt,
}


def _in_head_order(mode, head):
    return all(map(_HEAD_ORDER[mode], head, head[1:]))


def _naive_reference(n, ratios, lo, hi):
    """The heads of ranks [lo, hi) that solve, by brute force in Fraction arithmetic.

    n = 3 ranks strictly increasing heads; n >= 4 ranks all M^n heads
    colexicographically (psi_1 fastest), i.e. reversed ``product`` tuples.
    Yields (rank, pool indices, key, flags) for every head whose solution
    is kept; a mode keeps those whose indices are in its head order.
    """
    if n == 3:
        heads = combinations(range(len(ratios)), 3)
    else:
        heads = (h[::-1] for h in product(range(len(ratios)), repeat=n))
    for rank, idx in enumerate(islice(heads, lo, hi), lo):
        head = [ratios[i] for i in idx]
        if not all(map(is_pythagorean_ratio, complete_psi(head)[n:])):
            continue
        x = solve_x(head)
        if check_distinct(x):
            key = tuple((v.numerator, v.denominator) for v in sorted(x))
            yield rank, idx, key, _flags_of_x(x)


_POOL_65 = build_pool(65).ratios


def _heads_in(points, pool):
    """Each labelling's ordered head (psi_12, ..., psi_1n, psi_23) lying in pool."""
    for p in permutations(points):
        head = tuple(p[0] + v for v in p[1:]) + (p[1] + p[2],)
        if all(v in pool for v in head):
            yield head


@cache
def _seed_heads():
    """Heads on which a slip in a kernel shows: n = 3 mirror triples, the
    ordered RDS(4) of gamma 25, and five-point sets made of two of those
    sharing three points, so that exactly one pair sum is not a ratio."""
    pool = set(_POOL_65)
    rds4 = [s.x for s in search(SearchConfig(n=4, gamma_bound=25), build_pool(25))]
    by_triple = defaultdict(list)
    for x in rds4:
        for triple in combinations(x, 3):
            by_triple[triple].append(x)
    near5 = set()
    for triple, xs in by_triple.items():
        for a, b in combinations(xs, 2):
            (d,) = set(a) - set(triple)
            (e,) = set(b) - set(triple)
            if not is_pythagorean_ratio(d + e):
                near5.add(tuple(sorted(triple + (d, e))))
    return {
        3: [(-r, Fraction(0), r) for r in _POOL_65 if r > 0],
        4: [h for x in rds4 for h in _heads_in(x, pool)],
        5: [h for x in sorted(near5) for h in _heads_in(x, pool)],
    }


@cache
def _seed_kinds(n, mode):
    """The seed heads grouped by how each entry compares with the next (<, =
    or >); for multiset and subset only the groups with at most one = or >,
    whose heads the mode keeps or must cut away at one position."""
    groups = defaultdict(list)
    for h in _seed_heads()[n]:
        groups[tuple((a > b) - (a < b) for a, b in zip(h, h[1:]))].append(h)
    return [
        g
        for signs, g in sorted(groups.items())
        if mode == MODE_ORDERED or sum(v >= 0 for v in signs) <= 1
    ]


@st.composite
def _windows(draw):
    """(n, sub-pool of 4..9 ratios, rank cuts).

    The sub-pool holds a seed head plus random pool ratios, and the cuts lie
    around the seed head's rank, often right next to it, to the edges of its
    block of M ranks, or to its head-order edges i1 = i2 and i2 = i3.  n, a
    mode, the seed's kind for that mode, the seed and whether extras avoid
    the seed's range come from one uniform generator, so that heads a mode
    must cut away at each position, or keep despite a tie, are drawn as
    often as others; Hypothesis's own choices cluster and left most kinds
    undrawn.
    """
    rnd = draw(st.randoms(use_true_random=True))
    n = rnd.choice([3, 4, 5])
    mode = rnd.choice(MODES)
    seed = rnd.choice(rnd.choice(_seed_kinds(n, mode)))
    k = len(set(seed))
    others = [r for r in _POOL_65 if r not in seed]
    if rnd.random() < 0.5:
        # extras outside the seed's range keep its entries adjacent in the
        # sub-pool, where an off-by-one head-order cut shows
        others = [r for r in others if not min(seed) < r < max(seed)] or others
    extra = draw(st.sets(st.sampled_from(others), min_size=max(0, 4 - k), max_size=9 - k))
    ratios = tuple(sorted(set(seed) | extra))
    M = len(ratios)
    idx = [ratios.index(v) for v in seed]
    if n == 3:
        rank = list(combinations(range(M), 3)).index(tuple(idx))
    else:
        rank = sum(i * M**j for j, i in enumerate(idx))
    total = total_ranks(mode, M, n)
    block = rank - rank % M
    near = (rank - 1, rank, rank + 1, rank + 2, block, block + 1, block + M - 1, block + M)
    if n > 3:
        i2, i3 = idx[1:3]
        block23 = block + M * (i3 - i2)  # the block of i2 = i3
        near += (block + i2, block + i2 + 1, block23, block23 + i3, block23 + i3 + 1, block23 + M)
    near = sorted({min(max(v, 0), total) for v in near})
    # a few outer blocks (M^2 ranks each) around the seed keep the reference
    # cheap; the first cut and the last straddle the seed
    span_lo, span_hi = max(0, rank - 2 * M * M), min(total, rank + 2 * M * M)
    below = st.integers(span_lo, rank) | st.sampled_from([v for v in near if v <= rank])
    above = st.integers(rank + 1, span_hi) | st.sampled_from([v for v in near if v > rank])
    inner = st.integers(span_lo, span_hi) | st.sampled_from(near)
    cuts = [draw(below), draw(above)] + draw(st.lists(inner, max_size=4))
    return n, ratios, sorted(cuts)


@settings(max_examples=300, deadline=None)
@given(window=_windows())
def test_kernels_match_naive_reference(window):
    # per mode and window between consecutive cuts: the integer kernels'
    # keys, flags and insertion order equal the first finds of the Fraction
    # reference among the heads in the mode's order
    n, ratios, cuts = window
    survivors = list(_naive_reference(n, ratios, cuts[0], cuts[-1]))
    for mode in MODES:
        for lo, hi in zip(cuts, cuts[1:]):
            want = {}
            for rank, idx, key, flags in survivors:
                if lo <= rank < hi and _in_head_order(mode, idx) and key not in want:
                    want[key] = flags
            got = process_range(n, ratios, mode, lo, hi).found
            assert list(got.items()) == list(want.items()), mode


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


@pytest.mark.parametrize("stop_after", [1, 3])
@pytest.mark.parametrize("mode", [MODE_MULTISET, MODE_SUBSET])
def test_checkpoint_stop_and_resume_head_order_modes(tmp_path, mode, stop_after):
    pool = build_pool(25)
    ckpt = str(tmp_path / "search.ckpt")
    baseline = list(search(SearchConfig(n=4, gamma_bound=25, enumeration_mode=mode), pool))
    cfg = SearchConfig(n=4, gamma_bound=25, enumeration_mode=mode, checkpoint_path=ckpt)
    _, completed = run_enumeration(cfg, pool, stop_after_ranges=stop_after)
    assert not completed
    assert list(search(cfg, pool)) == baseline


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


def test_checkpoint_rejects_multiset_lexicographic_rank_total(tmp_path):
    # a checkpoint over the C(M + n - 1, n) lexicographic multiset ranks
    # must not resume in the M^n rank space that every mode shares
    pool = build_pool(25)
    ckpt = tmp_path / "old.ckpt"
    cfg = SearchConfig(
        n=4, gamma_bound=25, enumeration_mode=MODE_MULTISET, checkpoint_path=str(ckpt)
    )
    run_enumeration(cfg, pool, stop_after_ranges=1)
    payload = json.loads(ckpt.read_text())
    payload["config"]["total_ranks"] = comb(len(pool.ratios) + 3, 4)
    ckpt.write_text(json.dumps(payload))
    with pytest.raises(ConfigMismatch):
        run_enumeration(cfg, pool)


@pytest.mark.parametrize(
    "edit",
    [
        lambda p: "{not json",
        lambda p: "[1]",
        lambda p: json.dumps({**p, "output_offset": "x"}),
        lambda p: json.dumps({**p, "output_offset": -1}),
        lambda p: json.dumps({**p, "next_rank": "7"}),
        lambda p: json.dumps({**p, "next_rank": True}),
        lambda p: json.dumps({**p, "next_rank": -1}),
        lambda p: json.dumps({**p, "next_rank": p["config"]["total_ranks"] + 1}),
    ],
    ids=[
        "not-json",
        "not-object",
        "offset-string",
        "offset-negative",
        "rank-string",
        "rank-bool",
        "rank-negative",
        "rank-past-end",
    ],
)
def test_checkpoint_corrupt_file(tmp_path, edit):
    pool = build_pool(25)
    ckpt = tmp_path / "bad.ckpt"
    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=str(ckpt))
    run_enumeration(cfg, pool, stop_after_ranges=1)
    ckpt.write_text(edit(json.loads(ckpt.read_text())))
    with pytest.raises(CheckpointCorrupt):
        run_enumeration(cfg, pool)


@pytest.mark.parametrize(
    "line",
    [
        b"[1]",
        b'{"x": [1]}',
        b'{"x": ["1/2"]}',
        b'{"x": ["1/2", "1/2", "3/4", "5/4"]}',
        b'{"x": ["1/0", "1/2", "3/4", "5/4"]}',
        b'{"x": ["\xff"]}',
    ],
    ids=[
        "not-object",
        "not-strings",
        "too-few-points",
        "repeated-point",
        "zero-denominator",
        "not-utf8",
    ],
)
def test_checkpoint_corrupt_sidecar_line(tmp_path, line):
    pool = build_pool(25)
    ckpt = tmp_path / "bad.ckpt"
    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=str(ckpt))
    run_enumeration(cfg, pool, stop_after_ranges=1)
    sidecar = tmp_path / "bad.ckpt.partial"
    sidecar.write_bytes(line + b"\n")
    payload = json.loads(ckpt.read_text())
    payload["output_offset"] = sidecar.stat().st_size
    ckpt.write_text(json.dumps(payload))
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
