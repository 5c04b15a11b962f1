"""Search orchestration: enumeration modes, dedup, partitioning, checkpoints."""

import hashlib
import json
import operator
import os
from bisect import bisect_right
from collections import defaultdict
from fractions import Fraction
from functools import cache
from itertools import combinations, combinations_with_replacement, permutations, product
from math import comb, lcm

import pytest
from hypothesis import given, settings, strategies as st

import rds.search as rds_search
from rds.errors import CheckpointCorrupt, ConfigMismatch, DomainError
from rds.pythagorean import build_pool, is_pythagorean_ratio, is_ratio_pair
from rds.search import (
    FLAG_GP,
    FLAG_ZERO_SUM,
    MODE_MULTISET,
    MODE_ORDERED,
    MODE_SUBSET,
    MODES,
    CountReport,
    SearchConfig,
    count_solutions,
    partition_space,
    _flags_of_x,
    _KeyCodec,
    _load_checkpoint,
    _ratio_class,
    _read_key_line,
    pool_growth_report,
    process_range,
    run_enumeration,
    search,
    total_ranks,
)
from rds.solver import (
    _over_lcm,
    check_distinct,
    check_general_position,
    complete_psi,
    solve_x,
    solve_x_scaled,
    verify_rds,
)


def test_partition_space_examples():
    assert partition_space(10, 3) == [(0, 4), (4, 7), (7, 10)]
    assert partition_space(5, 1) == [(0, 5)]
    assert partition_space(0, 4) == [(0, 0), (0, 0), (0, 0), (0, 0)]


@pytest.mark.parametrize("mode", MODES)
def test_total_ranks_one_space_per_n(mode):
    # a rank is the outermost pool index: i1 for n = 3, i_n for n >= 4
    for M in (0, 1, 4, 17, 33):
        for n in (3, 4, 5, 6):
            assert total_ranks(mode, M, n) == M


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
    # for n >= 4 ordered mode tries one head per psi_1 <-> psi_2 swap, i1 < i2
    if mode == MODE_ORDERED and len(head) > 3:
        return head[0] < head[1]
    return all(map(_HEAD_ORDER[mode], head, head[1:]))


def _naive_reference(n, ratios, lo, hi, keep=lambda idx: True):
    """The heads of ranks [lo, hi) that solve, by brute force.

    A rank is the outermost pool index: n = 3 tries the strictly
    increasing heads, ranked by i1; n >= 4 tries all M^n heads, ranked by
    i_n, each rank's heads colexicographically (psi_1 fastest), i.e.
    reversed ``product`` tuples.  Every head that ``keep`` passes is
    completed by ``complete_psi`` and a survivor solved in Fraction
    arithmetic.  Yields (rank, pool indices, key, flags) for every head
    whose solution is kept; a mode keeps those whose indices are in its
    head order.  The key is the sorted x times L = 2 * lcm(pool
    denominators), which must be integral, packed by the pool's codec.
    """
    L = 2 * lcm(*(r.denominator for r in ratios))
    pack = _KeyCodec.of_pool(n, ratios).pack
    M = len(ratios)
    if n == 3:
        heads = (idx for idx in combinations(range(M), 3) if lo <= idx[0] < hi)
    else:
        heads = (rest[::-1] + (i_n,) for i_n in range(lo, hi) for rest in product(range(M), repeat=n - 1))
    # the tail entries are linear in the head: on the numerators over D they
    # are numerators over D, and v / D is a ratio iff (v, D) is a ratio pair
    D = L // 2
    nums = [(r * D).numerator for r in ratios]
    for idx in filter(keep, heads):
        if not all(is_ratio_pair(v, D) for v in complete_psi([nums[i] for i in idx])[n:]):
            continue
        head = [ratios[i] for i in idx]
        x = solve_x(head)
        if check_distinct(x):
            scaled = [v * L for v in sorted(x)]
            assert all(v.denominator == 1 for v in scaled)
            key = pack(v.numerator for v in scaled)
            yield _outer(idx), idx, key, _flags_of_x(x)


def _outer(idx):
    """A head's rank: its outermost pool index, i1 for n = 3 and i_n for n >= 4."""
    return idx[0] if len(idx) == 3 else idx[-1]


_POOL_65 = build_pool(65).ratios


def _heads_in(points, pool):
    """Each labelling's ordered head (psi_12, ..., psi_1n, psi_23) lying in pool."""
    for p in permutations(points):
        head = tuple(p[0] + v for v in p[1:]) + (p[1] + p[2],)
        if all(v in pool for v in head):
            yield head


@cache
def _seed_heads():
    """Families of heads on which a slip in a kernel shows: n = 3 mirror
    triples; the ordered RDS(4) of gamma 25; five-point sets made of two of
    those sharing three points, so that exactly one pair sum is not a ratio;
    and the two RDS(5) of gamma 145, whose heads sit at the bottom of a
    subtree that every level of the n >= 4 walk keeps, while most of their
    siblings in a sub-pool of random extras hold fewer than two candidates."""
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
    pool5 = set(_n5_pool().ratios)
    return {
        3: [[(-r, Fraction(0), r) for r in _POOL_65 if r > 0]],
        4: [[h for x in rds4 for h in _heads_in(x, pool)]],
        5: [
            [h for x in sorted(near5) for h in _heads_in(x, pool)],
            [h for x in _RDS5_GAMMA_145 for h in _heads_in(x, pool5)],
        ],
    }


@cache
def _seed_kinds(n, mode):
    """Each family's seed heads grouped by how each entry compares with the
    next (<, = or >); for multiset and subset only the groups with at most
    one = or >, whose heads the mode keeps or must cut away at one position."""
    kinds = []
    for family in _seed_heads()[n]:
        groups = defaultdict(list)
        for h in family:
            groups[tuple((a > b) - (a < b) for a, b in zip(h, h[1:]))].append(h)
        kinds += [
            g
            for signs, g in sorted(groups.items())
            if mode == MODE_ORDERED or sum(v >= 0 for v in signs) <= 1
        ]
    return kinds


@st.composite
def _windows(draw):
    """(n, sub-pool of 4..9 ratios, rank cuts).

    The sub-pool holds a seed head plus random pool ratios, and the cuts
    lie at the seed head's rank, its outermost pool index, and next to it:
    a rank holds M^(n-1) heads for n >= 4, so a few ranks keep the
    reference cheap, and the first cut and the last straddle the seed.
    n, a mode, the seed's kind for that mode, the seed and whether extras
    avoid the seed's range come from one uniform generator, so that heads
    a mode must cut away at each position, or keep despite a tie, are
    drawn as often as others; Hypothesis's own choices cluster and left
    most kinds undrawn.
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
    rank = _outer([ratios.index(v) for v in seed])
    near = sorted({min(max(v, 0), len(ratios)) for v in (rank - 1, rank, rank + 1, rank + 2)})
    below = st.sampled_from([v for v in near if v <= rank])
    above = st.sampled_from([v for v in near if v > rank])
    cuts = [draw(below), draw(above)] + draw(st.lists(st.sampled_from(near), max_size=4))
    return n, ratios, sorted(cuts)


@settings(max_examples=300, deadline=None)
@given(window=_windows())
def test_kernels_match_naive_reference(window):
    # per mode and window between consecutive cuts: the integer kernels'
    # keys, flags and insertion order equal the first finds of the naive
    # reference among the heads in the mode's order
    n, ratios, cuts = window
    # only heads some mode keeps: each mode's want below filters by its order
    tried = lambda idx: any(_in_head_order(mode, idx) for mode in MODES)
    survivors = list(_naive_reference(n, ratios, cuts[0], cuts[-1], tried))
    for mode in MODES:
        for lo, hi in zip(cuts, cuts[1:]):
            want = {}
            for rank, idx, key, flags in survivors:
                if lo <= rank < hi and _in_head_order(mode, idx) and key not in want:
                    want[key] = flags
            got = process_range(n, ratios, mode, lo, hi).found
            assert list(got.items()) == list(want.items()), mode


def _per_triple_items(ratios):
    """The n = 3 scan written one triple at a time: (i1, (key, flags)) of
    every strictly increasing head, in head order, the key packed from the
    solved x."""
    codec = _KeyCodec.of_pool(3, ratios)
    h, pack = codec.h, codec.pack
    items = []
    for idx in combinations(range(len(h)), 3):
        x = solve_x_scaled([h[i] for i in idx])
        items.append((idx[0], (pack(x), _flags_of_x(x))))
    return items


def _in_window(items, lo, hi):
    return [item for i, item in items if lo <= i < hi]


def _zero_sum_items(ratios, items):
    """The items of the zero-sum heads."""
    heads = combinations(range(len(ratios)), 3)
    return [item for idx, item in zip(heads, items) if sum(ratios[i] for i in idx) == 0]


@pytest.mark.parametrize("include_zero", [True, False], ids=["zero", "no-zero"])
@pytest.mark.parametrize("gamma", [5, 13, 25])
def test_row_kernel_matches_the_per_triple_loop(gamma, include_zero):
    # every window start, ending one or two ranks later, halfway, or at the
    # end: the row kernel's keys, flags and insertion order equal the
    # per-triple loop's
    ratios = build_pool(gamma, include_zero=include_zero).ratios
    items = _per_triple_items(ratios)
    M = len(ratios)
    zero_sum = [i for i, _ in _zero_sum_items(ratios, items)]
    # with the zero ratio the pool holds mirror sets {-a, 0, a}
    assert bool(zero_sum) == include_zero
    windows = {(lo, min(hi, M)) for lo in range(M) for hi in (lo + 1, lo + 2, lo + M // 2, M)}
    for r in zero_sum:  # the zero-sum head's rank first, last, or just outside the window
        windows |= {(max(0, r - 3), r), (max(0, r - 3), r + 1), (r, min(M, r + 3)), (r + 1, min(M, r + 4))}
    for lo, hi in sorted(windows):
        assert list(process_range(3, ratios, MODE_ORDERED, lo, hi).found.items()) == _in_window(items, lo, hi), (lo, hi)


def test_row_kernel_flags_zero_sum_sets_without_zero():
    # Gamma = 109 without the zero ratio: the zero-sum sets that are in
    # general position, each at the edge of a window
    ratios = build_pool(109, include_zero=False).ratios
    items = _per_triple_items(ratios)
    M = len(ratios)
    zero_sum = _zero_sum_items(ratios, items)
    assert [flags for _, (_, flags) in zero_sum] == [FLAG_GP | FLAG_ZERO_SUM] * 4
    for r, _ in zero_sum:
        for lo, hi in [(r, r + 1), (max(0, r - 5), r + 1), (r, M), (r + 1, r + 2)]:
            assert list(process_range(3, ratios, MODE_ORDERED, lo, hi).found.items()) == _in_window(items, lo, hi)


def test_ratio_class_holds_both_indices_of_its_sum():
    # R(psi_n + psi_k) holds k and i_n: the walk drops them from the
    # candidates itself, since a head that repeats them is never distinct
    h, half = _over_lcm(build_pool(65).ratios)
    for k, i_n in product(range(len(h)), repeat=2):
        assert {k, i_n} <= _ratio_class(h, half, h[i_n] + h[k])


@cache
def _pool_ratios(gamma):
    return build_pool(gamma).ratios


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_pool_heads_solve_to_integers_over_the_key_denominator(data):
    # what the integer keys rest on: every abscissa solved from a head of
    # the pool is an integer over L, and the kernels' pool numerators over
    # L / 2 are exact, so the closed form on them is x * L itself
    ratios = _pool_ratios(data.draw(st.integers(5, 301)))
    n = data.draw(st.integers(3, 6))
    idx = data.draw(st.lists(st.integers(0, len(ratios) - 1), min_size=n, max_size=n))
    head = [ratios[i] for i in idx]
    codec = _KeyCodec.of_pool(n, ratios)
    h, half, L = codec.h, codec.half, codec.den
    scaled = [v * L for v in solve_x(head)]
    assert all(v.denominator == 1 for v in scaled)
    assert (h, half) == _over_lcm(ratios) and 2 * half == L
    nums = [h[i] for i in idx]
    assert [Fraction(v, half) for v in nums] == head
    assert solve_x_scaled(nums) == scaled
    # and each fits a field of the pool's keys
    x = sorted(solve_x_scaled(nums))
    assert all(map(codec.fits, x))
    assert codec.unpack(codec.pack(x)) == x


@pytest.mark.parametrize("n", [3, 4, 5, 6])
@pytest.mark.parametrize("gamma", [25, 65, 145])
def test_every_pool_head_fits_the_key_field(gamma, n):
    # each x * L is a linear form in the head's numerators with
    # coefficients +-1 and +-2, so its largest |value| over all heads of the
    # pool is reached at a head made of the extreme entries +-max|h|: the
    # heads over the two extremes, their neighbours and 0 bound every head
    codec = _KeyCodec.of_pool(n, _pool_ratios(gamma))
    h = codec.h
    top = max(map(abs, h))
    assert sorted(h)[:2] == [-v for v in sorted(h)[:-3:-1]] and 0 in h
    extremes = sorted(h)[:2] + [0] + sorted(h)[-2:]
    widest = 0
    for head in product(extremes, repeat=n):
        x = solve_x_scaled(head)
        widest = max(widest, *map(abs, x))
        assert all(map(codec.fits, x)), head
        assert codec.unpack(codec.pack(sorted(x))) == sorted(x)
    # the bound is met: 3 max|h| for n = 3, 5 max|h| (psi_n + 2 psi_k - psi_1 - psi_2) above
    assert widest == (3 if n == 3 else 5) * top
    assert 5 * top < codec.bias <= 10 * top


@settings(max_examples=300, deadline=None)
@given(w=st.integers(1, 80), n=st.integers(1, 6), data=st.data())
def test_packed_keys_round_trip_and_sort_as_tuples(w, n, data):
    # any n integers with |v| < 2^(w-1), ascending or not: unpack inverts
    # pack, every key holds n fields of w bits, and packed ints sort as
    # the tuples do
    bound = (1 << (w - 1)) - 1
    entry = st.integers(-bound, bound)
    tuples = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=1, max_size=20))
    codec = _KeyCodec(n, w)
    keys = [codec.pack(t) for t in tuples]
    assert [codec.unpack(k) for k in keys] == tuples
    assert all(0 <= k < 1 << (n * w) for k in keys)
    assert [codec.unpack(k) for k in sorted(keys)] == sorted(tuples)


# every rational in [-30, 30] with denominator <= 50, drawn by construction:
# numerator floor(t * d / 50) over d runs through all of [-30d, 30d]
_bounded_fractions = st.tuples(st.integers(1, 50), st.integers(-1500, 1500)).map(
    lambda t: Fraction(t[1] * t[0] // 50, t[0])
)
_sorted_sets = st.lists(_bounded_fractions, min_size=3, max_size=5, unique=True).map(sorted)


@settings(max_examples=200, deadline=None)
@given(sets=st.lists(_sorted_sets, min_size=2, max_size=30))
def test_native_key_order_is_abscissa_order(sets):
    # integer tuples over one L > 0 sort as their abscissae, and so do
    # their packed ints, whatever the length
    L = 2 * lcm(*(v.denominator for x in sets for v in x))
    by_key = {tuple((v * L).numerator for v in x): tuple(x) for x in sets}
    assert [by_key[k] for k in sorted(by_key)] == sorted(by_key.values())
    width = (2 * max(abs(v) for k in by_key for v in k)).bit_length() + 1
    for n in (3, 4, 5):
        pack = _KeyCodec(n, width).pack
        by_packed = {pack(k): x for k, x in by_key.items() if len(k) == n}
        assert [by_packed[k] for k in sorted(by_packed)] == sorted(by_packed.values())


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


# --- the run's map in serial chunks ------------------------------------------


# the two RDS(5) of Gamma = 145, mirror images of each other
_RDS5_GAMMA_145 = [
    tuple(sorted(Fraction(s * v, 2016) for v in (-5805, -2005, -305, 817, 1493))) for s in (1, -1)
]


@cache
def _n5_pool():
    """The pool ratios among the pair sums of the two RDS(5) of
    Gamma = 145, and three more, as a pool of bound 145: small, and every
    head of those sets is in it, so n = 5 ordered mode finds each set in
    many chunks."""
    x = _RDS5_GAMMA_145[0]
    sums = {a + b for a, b in combinations(x, 2)} | {-(a + b) for a, b in combinations(x, 2)}
    full = build_pool(145)
    ratios = tuple(sorted(sums & set(full.ratios) | {Fraction(0), Fraction(3, 4), Fraction(4, 3)}))
    return full._replace(ratios=ratios)


_DEDUP_CASES = [(4, lambda: build_pool(25)), (5, _n5_pool)]
_INDEX_CASES = [(3, lambda: build_pool(25)), *_DEDUP_CASES]


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, make_pool", _INDEX_CASES, ids=["n3-g25", "n4-g25", "n5-sub145"])
def test_found_items_do_not_depend_on_workers_or_resume(tmp_path, n, make_pool, mode):
    pool = make_pool()
    cfg = SearchConfig(n=n, gamma_bound=pool.gamma_bound, enumeration_mode=mode)
    items = list(run_enumeration(cfg, pool)[0].items())
    if n == 5 and mode == MODE_ORDERED:
        assert len(items) == 2  # the case holds sets
    assert list(run_enumeration(cfg._replace(workers=2), pool)[0].items()) == items
    ckpt = cfg._replace(checkpoint_path=str(tmp_path / "run.ckpt"))
    # a rank is an outer index, one chunk each: stop early, and before the last
    for stop_after in (3, len(pool.ratios) - 1):
        assert not run_enumeration(ckpt, pool, stop_after_ranges=stop_after)[1]
        assert list(run_enumeration(ckpt, pool)[0].items()) == items


@pytest.fixture
def chunk_calls(monkeypatch):
    """The (lo, hi) of every ``process_range`` call, and the map it was handed."""
    calls, maps = [], []

    def recording(n, ratios, mode, lo, hi, found=None):
        calls.append((lo, hi))
        maps.append(found)
        return process_range(n, ratios, mode, lo, hi, found)

    monkeypatch.setattr(rds_search, "process_range", recording)
    return calls, maps


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, make_pool", _INDEX_CASES, ids=["n3-g25", "n4-g25", "n5-sub145"])
def test_a_run_without_a_checkpoint_is_one_chunk(tmp_path, chunk_calls, n, make_pool, mode):
    # chunks are checkpoint commit units only: a run without a checkpoint is
    # one call over [0, M), whose map is the run's
    calls, maps = chunk_calls
    pool = make_pool()
    M = len(pool.ratios)
    cfg = SearchConfig(n=n, gamma_bound=pool.gamma_bound, enumeration_mode=mode)
    found, completed = run_enumeration(cfg, pool)
    assert completed and calls == [(0, M)] and maps[0] is found
    items = list(found.items())

    # with a checkpoint, one chunk an outer index, as many as 64, each
    # handed the run's map
    calls.clear()
    maps.clear()
    ckpt = cfg._replace(checkpoint_path=str(tmp_path / "run.ckpt"))
    found = run_enumeration(ckpt, pool)[0]
    assert list(found.items()) == items
    assert calls == [r for r in partition_space(M, min(64, M)) if r[1] > r[0]] and len(calls) > 1
    assert all(m is found for m in maps)

    # the worker count changes nothing: one call in this process, for every n
    calls.clear()
    assert list(run_enumeration(cfg._replace(workers=2), pool)[0].items()) == items
    assert calls == [(0, M)]


@pytest.mark.parametrize("n", [3, 4])
def test_the_key_codec_is_built_only_for_a_checkpoint(tmp_path, monkeypatch, chunk_calls, n):
    # one codec per process_range call, and one more for the log, only
    # when the run has a checkpoint
    calls, _ = chunk_calls
    built = []
    of_pool = _KeyCodec.of_pool

    def counting(*args):
        built.append(args)
        return of_pool(*args)

    monkeypatch.setattr(_KeyCodec, "of_pool", staticmethod(counting))
    pool = build_pool(25)
    cfg = SearchConfig(n=n, gamma_bound=25)
    found, _ = run_enumeration(cfg, pool)
    assert len(built) == len(calls) == 1
    built.clear()
    calls.clear()
    assert run_enumeration(cfg._replace(checkpoint_path=str(tmp_path / "run.ckpt")), pool)[0] == found
    assert len(calls) > 1 and len(built) == len(calls) + 1


@pytest.mark.parametrize("include_zero", [True, False], ids=["zero", "no-zero"])
@pytest.mark.parametrize("n, gamma", [(3, 109), (3, 145), (4, 41), (5, 145)])
def test_count_tallies_the_flags(n, gamma, include_zero):
    # theta_gp and the breakdown against a per-key recount of the run's flags
    pool = build_pool(gamma, include_zero=include_zero)
    cfg = SearchConfig(n=n, gamma_bound=gamma, include_zero=include_zero)
    found, _ = run_enumeration(cfg, pool)
    report = count_solutions(cfg, pool)
    assert report.theta_all == len(found)
    assert report.theta_gp == sum(1 for f in found.values() if f & FLAG_GP)
    if n == 3:
        extra = sum(1 for f in found.values() if f == FLAG_GP | FLAG_ZERO_SUM)
        mirror = sum(1 for f in found.values() if not f & FLAG_GP)
        assert report.exclusions == {"mirror_zero": mirror, "zero_sum_extra": extra}
        assert len(report.extra_zero_sum_sets) == extra
        assert (mirror > 0) == include_zero
    else:
        assert report.exclusions == {} and report.extra_zero_sum_sets == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "gamma, workers, checkpoint",
    [(25, 1, False), (41, 1, False), (25, 2, False), (41, 2, False), (25, 1, True), (41, 2, True)],
    ids=["25", "41", "25-w2", "41-w2", "25-ckpt", "41-w2-ckpt"],
)
def test_one_worker_solves_each_n4_set_once(tmp_path, monkeypatch, gamma, workers, checkpoint, mode):
    # every run is one worker, and every chunk is handed the keys the run
    # holds: a set found in an earlier chunk is not solved again
    calls = []

    def counting_solve_x(head, *args):
        calls.append(head)
        return solve_x(head, *args)

    monkeypatch.setattr(rds_search, "solve_x", counting_solve_x)
    ckpt = str(tmp_path / "run.ckpt") if checkpoint else None
    cfg = SearchConfig(n=4, gamma_bound=gamma, enumeration_mode=mode, workers=workers, checkpoint_path=ckpt)
    found, _ = run_enumeration(cfg, build_pool(gamma))
    assert len(calls) == len(found) > 0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("n, make_pool", _DEDUP_CASES, ids=["n4-g25", "n5-sub145"])
def test_known_keys_are_left_out_of_a_range(n, make_pool, mode):
    # each range run on the run's map returns that map, with exactly the
    # range's own keys that the map lacked appended in find order; every
    # key the map held keeps its place and its flags
    ratios = make_pool().ratios
    found, overlaps = {}, 0
    for lo, hi in partition_space(total_ranks(mode, len(ratios), n), 16):
        alone = process_range(n, ratios, mode, lo, hi).found
        held = dict(found)
        assert process_range(n, ratios, mode, lo, hi, found).found is found
        assert list(found.items()) == list(held.items()) + [(k, f) for k, f in alone.items() if k not in held]
        overlaps += sum(k in held for k in alone)
    # in ordered mode some range re-finds a set the map holds
    assert overlaps or mode != MODE_ORDERED


@cache
def _naive_survivors(n, ratios):
    return list(_naive_reference(n, ratios, 0, len(ratios)))


@cache
def _whole_space_reference(n, ratios):
    """Per mode, {key: flags} of every head of the naive product in the
    mode's order, without the i1 < i2 cut: what the whole space must give."""
    return {
        mode: {
            key: flags
            for _, idx, key, flags in _naive_survivors(n, ratios)
            if all(map(_HEAD_ORDER[mode], idx, idx[1:]))
        }
        for mode in MODES
    }


@pytest.mark.parametrize("n, make_pool", _INDEX_CASES, ids=["n3-g25", "n4-g25", "n5-sub145"])
def test_one_rank_holds_its_outer_index_heads(n, make_pool):
    # process_range(i, i + 1) gives exactly the first finds, with their
    # flags and in their order, of the naive reference's heads whose
    # outermost pool index is i and which are in the mode's order
    ratios = make_pool().ratios
    survivors = _naive_survivors(n, ratios)
    assert survivors  # the case holds sets
    for mode in MODES:
        for i in range(len(ratios)):
            want = {}
            for rank, idx, key, flags in survivors:
                if rank == i and _in_head_order(mode, idx) and key not in want:
                    want[key] = flags
            got = process_range(n, ratios, mode, i, i + 1).found
            assert list(got.items()) == list(want.items()), (mode, i)


# n = 5 multiset and subset mode prune every head at Gamma = 41 before the leaf
@pytest.mark.parametrize("n, mode", [(4, MODE_ORDERED), (4, MODE_MULTISET), (4, MODE_SUBSET), (5, MODE_ORDERED)])
def test_the_walk_tries_only_heads_in_the_mode_order(monkeypatch, n, mode):
    # every head the leaf solves has i1 < i2 and, in multiset and subset
    # mode, indices in the mode's order: heads outside it are never tried,
    # not only never kept
    ratios = _pool_ratios(41)
    h, _ = _over_lcm(ratios)
    index = {v: i for i, v in enumerate(h)}
    tried = []

    def recording_solve_x_scaled(nums):
        tried.append(tuple(index[v] for v in nums))
        return solve_x_scaled(nums)

    monkeypatch.setattr(rds_search, "solve_x_scaled", recording_solve_x_scaled)
    process_range(n, ratios, mode, 0, len(ratios))
    assert tried
    assert all(idx[0] < idx[1] and _in_head_order(mode, idx) for idx in tried)


@settings(max_examples=40, deadline=None)
@given(case=st.sampled_from(_DEDUP_CASES), data=st.data())
def test_whole_space_matches_the_uncut_naive_product(case, data):
    # chunks at any cuts find together the keys and flags of every head of
    # the naive product, i1 > i2 included: one head per psi_1 <-> psi_2
    # swap loses no set
    n, make_pool = case
    ratios = make_pool().ratios
    total = total_ranks(MODE_ORDERED, len(ratios), n)
    cuts = sorted(data.draw(st.lists(st.integers(0, total), max_size=12)))
    want = _whole_space_reference(n, ratios)
    assert want[MODE_ORDERED]  # the case holds sets
    for mode in MODES:
        got = {}
        for lo, hi in zip([0] + cuts, cuts + [total]):
            got.update(process_range(n, ratios, mode, lo, hi).found)
        assert got == want[mode], mode


def _log_lines(ckpt):
    """The records after a checkpoint log's header: key lines and commits."""
    return [json.loads(line) for line in ckpt.read_text().splitlines()[1:]]


def _key_lines(ckpt):
    """A checkpoint log's key lines, each with its newline."""
    return "".join(line + "\n" for line in ckpt.read_text().splitlines() if line.startswith('{"x"'))


@pytest.mark.parametrize("n, gamma", [(3, 65), (4, 25)])
def test_sidecar_renders_keys_as_fractions_and_reads_back(tmp_path, n, gamma):
    pool = build_pool(gamma)
    ckpt = tmp_path / "search.ckpt"
    cfg = SearchConfig(n=n, gamma_bound=gamma, checkpoint_path=str(ckpt))
    found, completed = run_enumeration(cfg, pool, stop_after_ranges=5)
    assert not completed and found
    codec = _KeyCodec.of_pool(n, pool.ratios)
    lines = [json.dumps({"x": [str(Fraction(v, codec.den)) for v in codec.unpack(k)]}) for k in found]
    assert _key_lines(ckpt) == "".join(line + "\n" for line in lines)
    last_commit = _log_lines(ckpt)[-1]
    next_rank, loaded = _load_checkpoint(str(ckpt), cfg.echo(pool), codec)
    assert next_rank == last_commit["next_rank"] == 5
    assert list(loaded.items()) == list(found.items())


# sha256 of the key lines after the first chunks, taken while keys were
# tuples and the lines had a file of their own
@pytest.mark.parametrize(
    "n, gamma, stop_after, workers, sha256",
    [
        (3, 65, 5, 1, "ef21757e806d8f8a981952150b484ee325e638ec139b7f1045455bf76f7bdd50"),
        (4, 25, 5, 2, "a81a9738ca4c6042b2aa4d7ec00dea659ee1bf0667601fce8d27f406c6f895e8"),
    ],
)
def test_sidecar_bytes_do_not_depend_on_the_key_type(tmp_path, n, gamma, stop_after, workers, sha256):
    # neither packing the keys nor the one-file log changes a key line's bytes
    ckpt = tmp_path / "search.ckpt"
    cfg = SearchConfig(n=n, gamma_bound=gamma, workers=workers, checkpoint_path=str(ckpt))
    assert not run_enumeration(cfg, build_pool(gamma), stop_after_ranges=stop_after)[1]
    assert hashlib.sha256(_key_lines(ckpt).encode()).hexdigest() == sha256
    assert json.loads(ckpt.read_text().splitlines()[0])["schema_version"] == 4


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n, gamma, stop_after", [(3, 13, 2), (4, 13, 2)], ids=["n3-g13", "n4-g13"])
def test_every_cut_of_a_log_resumes(tmp_path, n, gamma, stop_after, workers):
    # a kill can leave any prefix of the log.  A cut inside the header is
    # corrupt; any longer cut loads as the last commit it holds and is cut
    # back to it, so it resumes as that commit's prefix does, and each of
    # those prefixes, with a torn half of the next chunk, resumes end to end
    pool = build_pool(gamma)
    whole_cfg = SearchConfig(n=n, gamma_bound=gamma, workers=workers)
    items = list(run_enumeration(whole_cfg, pool)[0].items())
    emitted = list(search(whole_cfg, pool))
    ckpt = tmp_path / "cut.ckpt"
    cfg = whole_cfg._replace(checkpoint_path=str(ckpt))
    assert not run_enumeration(cfg, pool, stop_after_ranges=stop_after)[1]
    log = ckpt.read_bytes()
    # the end of the header and of each commit line, and the (next_rank,
    # number of keys) it leaves
    ends, states, keys, pos = [], [], 0, 0
    for line in log.splitlines(keepends=True):
        pos += len(line)
        if line.startswith(b'{"x"'):
            keys += 1
        else:  # the header or a commit
            ends.append(pos)
            states.append((json.loads(line).get("next_rank", 0), keys))
    assert len(ends) == stop_after + 1 and 0 < keys < len(items)
    codec, echo = _KeyCodec.of_pool(n, pool.ratios), cfg.echo(pool)
    for cut in range(len(log) + 1):
        ckpt.write_bytes(log[:cut])
        if cut < ends[0]:
            with pytest.raises(CheckpointCorrupt):
                run_enumeration(cfg, pool)
            continue
        k = bisect_right(ends, cut) - 1
        next_rank, found = _load_checkpoint(str(ckpt), echo, codec)
        assert (next_rank, list(found.items())) == (states[k][0], items[: states[k][1]]), cut
        assert ckpt.read_bytes() == log[: ends[k]], cut
    for end, after in zip(ends, ends[1:] + [len(log)]):
        torn = log[: (end + after) // 2]
        ckpt.write_bytes(torn)
        assert list(run_enumeration(cfg, pool)[0].items()) == items
        ckpt.write_bytes(torn)
        assert list(search(cfg, pool)) == emitted
        assert not ckpt.exists()


def test_resume_on_workers_writes_the_uninterrupted_bytes(tmp_path):
    from rds.cli import main

    argv = ["search", "--n", "4", "--gamma-max", "25", "--workers", "2"]
    ckpt = tmp_path / "run.ckpt"
    cfg = SearchConfig(n=4, gamma_bound=25, workers=2, checkpoint_path=str(ckpt))
    assert not run_enumeration(cfg, build_pool(25), stop_after_ranges=5)[1]
    assert main(argv + ["--checkpoint", str(ckpt), "--out", str(tmp_path / "resumed.jsonl")]) == 0
    assert not ckpt.exists()
    assert main(argv + ["--out", str(tmp_path / "whole.jsonl")]) == 0
    whole = (tmp_path / "whole.jsonl").read_bytes()
    assert whole.count(b"\n") == 157  # the envelope and 156 sets
    assert (tmp_path / "resumed.jsonl").read_bytes() == whole


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
        # a checkpoint is one file
        assert os.listdir(tmp_path) == ["search.ckpt"]
        resumed = list(search(cfg, pool))
        assert resumed == baseline
        # successful completion removes it
        assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("n, gamma, stop_after", [(3, 65, 5), (4, 25, 10)])
def test_checkpoint_counts_match_the_sidecar(tmp_path, n, gamma, stop_after):
    # every commit's running counts equal a recount of the key lines before it
    pool = build_pool(gamma)
    ckpt = tmp_path / "search.ckpt"
    cfg = SearchConfig(n=n, gamma_bound=gamma, checkpoint_path=str(ckpt))
    for step in (stop_after, 1):  # a fresh run, then a resumed one
        _, completed = run_enumeration(cfg, pool, stop_after_ranges=step)
        assert not completed
        xs, ranks = [], []
        for record in _log_lines(ckpt):
            if "x" in record:
                xs.append([Fraction(v) for v in record["x"]])
            else:
                ranks.append(record["next_rank"])
                assert record["theta_all_so_far"] == len(xs)
                assert record["theta_gp_so_far"] == sum(map(check_general_position, xs))
        assert "next_rank" in record and len(xs) > 0
        assert ranks == list(range(1, len(ranks) + 1))  # one outer index a chunk
        if n == 3:
            assert record["theta_gp_so_far"] < len(xs)  # the window holds mirror sets


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


def _edit_log(ckpt, edit):
    """Apply ``edit`` to the list of a log's lines and write them back."""
    lines = ckpt.read_text().splitlines()
    edit(lines)
    ckpt.write_text("".join(line + "\n" for line in lines))


def _header(edit):
    """An edit of a log's lines that replaces its header by ``edit`` of the
    header's JSON object."""

    def apply(lines):
        lines[0] = edit(json.loads(lines[0]))

    return apply


def _commit(edit):
    """An edit of a log's lines that replaces its last line, the last
    commit, by the JSON of ``edit`` of that commit's object."""

    def apply(lines):
        lines[-1] = json.dumps(edit(json.loads(lines[-1])))

    return apply


def test_checkpoint_rejects_multiset_lexicographic_rank_total(tmp_path):
    # a checkpoint over the C(M + n - 1, n) lexicographic multiset ranks
    # must not resume in the rank space that every mode shares
    pool = build_pool(25)
    ckpt = tmp_path / "old.ckpt"
    cfg = SearchConfig(
        n=4, gamma_bound=25, enumeration_mode=MODE_MULTISET, checkpoint_path=str(ckpt)
    )
    run_enumeration(cfg, pool, stop_after_ranges=1)
    total = comb(len(pool.ratios) + 3, 4)
    _edit_log(ckpt, _header(lambda h: json.dumps({**h, "config": {**h["config"], "total_ranks": total}})))
    with pytest.raises(ConfigMismatch):
        run_enumeration(cfg, pool)


def _stopped_checkpoint(tmp_path):
    """A config whose checkpoint log holds the first 3 of the n = 4, Gamma = 25 chunks."""
    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=str(tmp_path / "bad.ckpt"))
    run_enumeration(cfg, build_pool(25), stop_after_ranges=3)
    return cfg


def _as_schema_3_pointer(lines):
    # schema 3 kept the keys in a second file, PATH.partial, up to the
    # pointer's output_offset: this is its pointer for these 3 chunks, alone
    header = json.loads(lines[0])
    pointer = {
        "config": header["config"],
        "next_rank": 3,
        "output_offset": 5690,
        "schema_version": 3,
        "theta_all_so_far": 112,
        "theta_gp_so_far": 2,
    }
    lines[:] = [json.dumps(pointer, sort_keys=True)]


_BAD_READ = r"cannot read checkpoint \S*bad\.ckpt: "
_BAD_RANK = "next_rank .* is out of range"
_BAD_COUNT = "does not count"


@pytest.mark.parametrize(
    "edit, match",
    [
        (_header(lambda h: "{not json"), _BAD_READ),
        (_header(lambda h: "[1]"), _BAD_READ),
        (_header(lambda h: json.dumps({k: v for k, v in h.items() if k != "config"})), _BAD_READ + ".*'config'"),
        (_header(lambda h: json.dumps({**h, "schema_version": 99})), "unsupported checkpoint schema 99"),
        # schema 1 was written by the kernel that tried both heads of a
        # psi_1 <-> psi_2 swap: its chunks' finds are not this kernel's
        (_header(lambda h: json.dumps({**h, "schema_version": 1})), "^unsupported checkpoint schema 1$"),
        # schema 2 ranked every head (C(M,3) for n = 3, M^n for n >= 4):
        # its next_rank is not a count of outer indices
        (_header(lambda h: json.dumps({**h, "schema_version": 2})), "^unsupported checkpoint schema 2$"),
        (_as_schema_3_pointer, "^unsupported checkpoint schema 3$"),
        (_commit(lambda c: {**c, "next_rank": "3"}), _BAD_RANK),
        (_commit(lambda c: {**c, "next_rank": True}), _BAD_RANK),
        (_commit(lambda c: {**c, "next_rank": -1}), _BAD_RANK),
        (_commit(lambda c: {**c, "next_rank": 2}), _BAD_RANK),  # the commit before it had 2
        (_commit(lambda c: {**c, "next_rank": 18}), _BAD_RANK),  # total_ranks is M = 17
        (_commit(lambda c: {k: v for k, v in c.items() if k != "next_rank"}), "bad commit line"),
        (_commit(lambda c: [1]), "bad commit line"),
        (_commit(lambda c: {**c, "theta_all_so_far": c["theta_all_so_far"] + 1}), _BAD_COUNT),
        (_commit(lambda c: {**c, "theta_gp_so_far": c["theta_gp_so_far"] + 1}), _BAD_COUNT),
        (_commit(lambda c: {**c, "theta_all_so_far": str(c["theta_all_so_far"])}), _BAD_COUNT),
        # the commits after it count one key more than the lines before them
        (lambda lines: lines.remove(next(l for l in lines if l.startswith('{"x"'))), _BAD_COUNT),
    ],
    ids=[
        "not-json",
        "not-object",
        "header-lacks-config",
        "schema-version",
        "schema-1-kernel",
        "schema-2-kernel",
        "schema-3-pointer",
        "rank-string",
        "rank-bool",
        "rank-negative",
        "rank-not-raised",
        "rank-past-end",
        "missing-key",
        "commit-not-object",
        "count-all",
        "count-gp",
        "count-string",
        "lost-key-line",
    ],
)
def test_checkpoint_corrupt_file(tmp_path, edit, match):
    cfg = _stopped_checkpoint(tmp_path)
    ckpt = tmp_path / "bad.ckpt"
    assert json.loads(ckpt.read_text().splitlines()[-1])["next_rank"] == 3
    _edit_log(ckpt, edit)
    with pytest.raises(CheckpointCorrupt, match=match):
        run_enumeration(cfg, build_pool(25))


def test_checkpoint_torn_tail_is_cut(tmp_path):
    # key lines after the last commit and a line with no newline are the
    # chunk a kill interrupted: the load drops them and cuts them from the file
    pool = build_pool(25)
    baseline = list(search(SearchConfig(n=4, gamma_bound=25), pool))
    cfg = _stopped_checkpoint(tmp_path)
    ckpt = tmp_path / "bad.ckpt"
    log = ckpt.read_bytes()
    key_line = log[log.index(b'{"x"') :].split(b"\n")[0]
    ckpt.write_bytes(log + key_line + b"\n" + key_line[:9])
    codec = _KeyCodec.of_pool(4, pool.ratios)
    next_rank, found = _load_checkpoint(str(ckpt), cfg.echo(pool), codec)
    assert (next_rank, len(found)) == (3, 112)
    assert ckpt.read_bytes() == log
    ckpt.write_bytes(log + key_line[:9])
    assert list(search(cfg, pool)) == baseline


def test_search_fails_at_the_call(tmp_path):
    # the run happens before the first solution is read
    ckpt = tmp_path / "bad.ckpt"
    ckpt.write_text("{bad")
    cfg = SearchConfig(n=3, gamma_bound=25, checkpoint_path=str(ckpt))
    with pytest.raises(CheckpointCorrupt):
        search(cfg, build_pool(25))


@pytest.mark.parametrize(
    "line",
    [
        b"[1]",
        b'{"x": [1]}',
        b'{"x": ["1/2"]}',
        b'{"x": ["1/2", "1/2", "3/4", "5/4"]}',
        b'{"x": ["1/0", "1/2", "3/4", "5/4"]}',
        b'{"x": ["\xff"]}',
        b'{"x": ["1/11", "1/2", "3/4", "5/4"]}',
        b'{"x": ["1/2", "3/4", "5/4", "10"]}',
        b'{"x": ["-10", "1/2", "3/4", "5/4"]}',
    ],
    ids=[
        "not-object",
        "not-strings",
        "too-few-points",
        "repeated-point",
        "zero-denominator",
        "not-utf8",
        "not-over-key-denominator",  # 11 does not divide L = 1680 at gamma 25
        "above-key-field",  # 10 * L = 16800 >= 2^14, the bias at gamma 25
        "below-key-field",
    ],
)
def test_checkpoint_corrupt_sidecar_line(tmp_path, line):
    # the line as the one key line of a log's first chunk
    pool = build_pool(25)
    ckpt = tmp_path / "bad.ckpt"
    cfg = SearchConfig(n=4, gamma_bound=25, checkpoint_path=str(ckpt))
    run_enumeration(cfg, pool, stop_after_ranges=1)
    header = ckpt.read_bytes().split(b"\n")[0]
    commit = json.dumps({"next_rank": 1, "theta_all_so_far": 1, "theta_gp_so_far": 0}).encode()
    ckpt.write_bytes(b"\n".join([header, line, commit, b""]))
    with pytest.raises(CheckpointCorrupt):
        run_enumeration(cfg, pool)


def test_sidecar_value_outside_the_key_field_is_corrupt():
    # Gamma = 25: L = 1680 and max|h| = 2880 (24/7 over 840), so w = 15 and
    # a field holds |x * L| < 2^14 = 16384; a wider value would spill into
    # the next field up and could pack to another set's key
    ratios = build_pool(25).ratios
    codec = _KeyCodec.of_pool(4, ratios)
    assert (codec.den, codec.bias) == (1680, 1 << 14)
    assert _read_key_line(b'{"x": ["9", "1/2", "3/4", "-5/4"]}', codec) == (-2100, 840, 1260, 15120)
    # 1023/105 and 1024/105 are 16368 and 16384 over L
    line = b'{"x": ["%s", "1/2", "3/4", "5/4"]}'
    assert _read_key_line(line % b"-1023/105", codec) == (-16368, 840, 1260, 2100)
    for v in (b"10", b"-10", b"1024/105", b"-1024/105"):
        with pytest.raises(CheckpointCorrupt, match="outside the key field"):
            _read_key_line(line % v, codec)


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
