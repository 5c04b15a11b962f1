"""Index bookkeeping, closed-form solver, conditions, distance oracle."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations
from math import lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from rds.errors import BadLength, BadN, DuplicatePoint, MissingFreeParam
from rds.pythagorean import build_pool, is_pythagorean_ratio
from rds.rat import isqrt, parse_rat
from rds.records import solution_record
from rds.solver import (
    Solution,
    check_distinct,
    check_existence,
    check_general_position,
    coefficient_matrix,
    complete_psi,
    exact_det,
    exact_rank,
    head_inverse,
    indices_set,
    psi_from_x,
    solution_from_x,
    solve_x,
    verify_rds,
    verify_scaled,
)

F = Fraction


def rats(text):
    return [parse_rat(s) for s in text.split(",")]


# --- indices and matrices ---------------------------------------------------


def test_indices_set_examples():
    assert indices_set(4) == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
    assert indices_set(2) == [(1, 2)]
    five = indices_set(5)
    assert len(five) == 10 and five[-1] == (4, 5)
    with pytest.raises(BadN):
        indices_set(1)


def test_indices_set_position_n_is_23():
    for n in range(3, 13):
        assert indices_set(n)[n - 1] == (2, 3)


def test_coefficient_matrix_structure():
    m = coefficient_matrix(3)
    assert m.rows == ((1, 1, 0), (1, 0, 1), (0, 1, 1))
    for n in range(2, 13):
        cm = coefficient_matrix(n)
        for row, (i, j) in zip(cm.rows, indices_set(n)):
            assert sum(row) == 2
            assert row[i - 1] == 1 and row[j - 1] == 1


def test_rank_and_determinant():
    assert coefficient_matrix(2).rank() == 1
    for n in range(3, 13):
        cm = coefficient_matrix(n)
        assert cm.rank() == n
        assert cm.top_block_det() == (2 if n % 2 == 0 else -2)


def test_head_inverse_closed_form_n3():
    inv = head_inverse(3)
    h = F(1, 2)
    assert inv == [[h, h, -h], [h, -h, h], [-h, h, h]]
    with pytest.raises(BadN):
        head_inverse(2)


def test_head_inverse_times_top_block_is_identity():
    for n in range(3, 13):
        inv = head_inverse(n)
        top = coefficient_matrix(n).top_block()
        for i in range(n):
            for j in range(n):
                entry = sum(inv[i][k] * top[k][j] for k in range(n))
                assert entry == (1 if i == j else 0)


def _leibniz_det(rows):
    """The permutation-sum determinant, independent of any elimination."""
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a, b in combinations(range(n), 2))
        total += (-1) ** inversions * prod(rows[i][perm[i]] for i in range(n))
    return total


def _minor_rank(rows):
    """The largest k with a non-zero k x k minor."""
    n_rows, n_cols = len(rows), len(rows[0])
    for k in range(min(n_rows, n_cols), 0, -1):
        for rs in combinations(range(n_rows), k):
            for cs in combinations(range(n_cols), k):
                if _leibniz_det([[rows[r][c] for c in cs] for r in rs]):
                    return k
    return 0


@st.composite
def _int_matrices(draw):
    """Small integer matrices up to 4 x 4; singular ones by a zero column or
    a row that is a multiple of another, and entries mostly in {-1, 0, 1}."""
    n_rows = draw(st.integers(1, 4))
    n_cols = n_rows if draw(st.booleans()) else draw(st.integers(1, 4))
    entries = st.integers(-1, 1) | st.integers(-9, 9)
    row = st.lists(entries, min_size=n_cols, max_size=n_cols)
    rows = draw(st.lists(row, min_size=n_rows, max_size=n_rows))
    edit = draw(st.sampled_from(["none", "zero-column", "multiple-row"]))
    if edit == "zero-column":
        c = draw(st.integers(0, n_cols - 1))
        for row in rows:
            row[c] = 0
    elif edit == "multiple-row" and n_rows > 1:
        a, b = draw(st.permutations(range(n_rows)))[:2]
        k = draw(st.integers(-3, 3))
        rows[b] = [k * v for v in rows[a]]
    return rows


@settings(max_examples=500, deadline=None)
@given(rows=_int_matrices())
def test_elimination_matches_leibniz_and_minors(rows):
    rank = _minor_rank(rows)
    assert exact_rank(rows) == rank
    assert exact_rank([[F(v) for v in row] for row in rows]) == rank
    if len(rows) == len(rows[0]):
        det = _leibniz_det(rows)
        assert exact_det(rows) == det
        assert exact_det([[F(v, 3) for v in row] for row in rows]) == F(det, 3 ** len(rows))
        assert (det != 0) == (rank == len(rows))


# --- closed-form solver ------------------------------------------------------


def _reference_solve_x(head):
    """The closed form in Fractions, with its halves written out."""
    half = F(1, 2)
    p1, p2, pn = head[0], head[1], head[-1]
    x = [(p1 + p2 - pn) * half, (p1 - p2 + pn) * half, (-p1 + p2 + pn) * half]
    base = (-p1 - p2 + pn) * half
    return x + [base + head[i - 2] for i in range(4, len(head) + 1)]


_head_entries = (
    st.just(F(0))
    | st.integers(-9, 9).map(F)
    | st.fractions(-20, 20, max_denominator=40)
    | st.sampled_from(build_pool(145).ratios)
)


@settings(max_examples=400, deadline=None)
@given(head=st.integers(3, 8).flatmap(lambda n: st.lists(_head_entries, min_size=n, max_size=n)))
def test_solve_x_matches_fraction_reference(head):
    x = solve_x(head)
    assert x == _reference_solve_x(head)
    assert all(isinstance(v, F) for v in x)
    inv = head_inverse(len(head))
    assert [sum(a * p for a, p in zip(row, head)) for row in inv] == x


def test_solve_fig1_triple():
    assert solve_x(rats("4/3,8/15,12/5")) == rats("-4/15,8/5,4/5")


def test_solve_published_rows():
    assert solve_x(rats("4/3,-5/12,5/12")) == rats("1/4,13/12,-2/3")
    assert solve_x(rats("-35/12,-4/3,-7/24,-3/4")) == rats("-7/4,-7/6,5/12,35/24")
    assert solve_x(rats("0,7/24,4/3,-3/4,-7/24")) == rats("7/24,-7/24,0,25/24,-25/24")


def test_solve_n2():
    assert solve_x([F(4, 3)], free=F(1, 2)) == [F(1, 2), F(5, 6)]
    with pytest.raises(MissingFreeParam):
        solve_x([F(4, 3)])
    with pytest.raises(BadLength):
        solve_x([F(1), F(2)])


def test_complete_psi_rows():
    assert complete_psi(rats("-35/12,-4/3,-7/24,-3/4"))[4:] == rats("7/24,15/8")
    assert complete_psi(rats("0,7/24,4/3,-3/4,-7/24"))[5:] == rats(
        "3/4,-4/3,25/24,-25/24,0"
    )
    assert complete_psi(rats("4/3,8/15,12/5")) == rats("4/3,8/15,12/5")
    with pytest.raises(BadLength):
        complete_psi([F(1)])


def test_completion_equals_pair_sums_of_solution():
    rng = random.Random(99)
    pool = build_pool(145).ratios
    for _ in range(2000):
        n = rng.randint(3, 8)
        head = [rng.choice(pool) for _ in range(n)]
        x = solve_x(head)
        assert psi_from_x(x) == complete_psi(head)
        for (i, j), value in zip(indices_set(n), complete_psi(head)):
            assert x[i - 1] + x[j - 1] == value


def test_check_existence():
    ok, tail, failing = check_existence(rats("-35/12,-4/3,-7/24,-3/4"))
    assert ok and tail == rats("7/24,15/8") and failing == []

    ok, tail, failing = check_existence([F(4, 3)] * 4)
    assert ok and tail == [F(4, 3), F(4, 3)]

    ok, tail, failing = check_existence(rats("4/3,3/4,5/12,0"))
    assert not ok
    assert tail == rats("-1/3,-11/12")
    assert failing == [5, 6]


def test_check_distinct():
    assert check_distinct(rats("-7/4,-7/6,5/12,35/24"))
    assert not check_distinct([F(1, 2), F(1, 2)])
    assert not check_distinct(solve_x([F(4, 3)] * 4))


def test_general_position():
    # four abscissae summing to zero are concyclic
    assert not check_general_position(rats("7/24,-7/24,0,25/24,-25/24"))
    assert check_general_position(rats("-7/4,-7/6,5/12,35/24"))
    # n = 3 excludes exactly the mirror sets {a, -a, 0}
    assert not check_general_position(rats("4/3,-4/3,0"))
    assert check_general_position(rats("-4/15,8/5,4/5"))
    assert check_general_position(rats("1/2,2"))


def _reference_general_position(x):
    """The general-position rule written on Fraction sums."""
    if len(x) == 3:
        return not (0 in x and sum(x) == 0)
    return all(sum(quad) != 0 for quad in combinations(x, 4))


_gp_values = st.fractions(-20, 20, max_denominator=40) | st.integers(-9, 9)


@st.composite
def _gp_sets(draw):
    """3 to 6 rationals of mixed denominators or plain ints; two times in three
    the first entries are made a zero-sum quadruple (a zero-sum triple for
    n = 3) or a mirror set {a, -a, 0}."""
    x = draw(st.lists(_gp_values, min_size=3, max_size=6))
    kind = draw(st.sampled_from(["random", "zero_sum", "mirror"]))
    if kind == "zero_sum":
        k = min(len(x), 4)
        x[k - 1] = -sum(x[: k - 1])
    elif kind == "mirror":
        x[:3] = [x[0], -x[0], 0]
    return draw(st.permutations(x))


@settings(max_examples=200, deadline=None)
@given(x=_gp_sets())
def test_general_position_matches_fraction_sums(x):
    assert check_general_position(x) == _reference_general_position(x)


def test_psi_from_x():
    assert psi_from_x(rats("-4/15,8/5,4/5")) == rats("4/3,8/15,12/5")
    assert psi_from_x([F(0), F(1)]) == [F(1)]
    # published x whose pair sums expose a ratio-vector transcription error
    sums = psi_from_x(rats("-853/880,-557/2640,1151/2640,3329/2640"))
    assert sums == rats("-779/660,-8/15,7/24,9/40,21/20,56/33")
    assert sums[1] != F(-371, 264)


# --- oracle ------------------------------------------------------------------


def test_verify_fig1():
    ok, distances, failing = verify_rds(rats("-4/15,8/5,4/5"))
    assert ok and failing == []
    assert distances == rats("28/9,272/225,52/25")


def test_verify_published_4point_row():
    assert verify_rds(rats("-7/4,-7/6,5/12,35/24")).ok


def test_verify_flags_bad_row():
    ok, distances, failing = verify_rds(rats("38/15,-6/15,-2/15"))
    assert not ok
    assert failing == [(1, 2)]
    s = F(38, 15) + F(-6, 15)
    assert s == F(32, 15)
    assert 35**2 < 32**2 + 15**2 < 36**2


def test_verify_rejects_duplicates():
    with pytest.raises(DuplicatePoint):
        verify_rds([F(1), F(1), F(2)])


def test_verify_permutation_invariant():
    base = rats("-7/4,-7/6,5/12,35/24")
    expected = verify_rds(base).ok
    for perm in permutations(base):
        assert verify_rds(list(perm)).ok == expected


def test_solution_from_x():
    sol = solution_from_x(rats("-4/15,8/5,4/5"))
    assert sol.n == 3
    assert sol.psi == tuple(rats("4/3,8/15,12/5"))
    assert sol.distances == tuple(rats("28/9,272/225,52/25"))
    assert sol.general_position
    with pytest.raises(ValueError):
        solution_from_x(rats("38/15,-2/5,-2/15"))


def _reference_verify(x):
    """The oracle in Fraction arithmetic: the canonical pair sum b/a must have
    a^2 + b^2 = c^2, and the distance is then |x_j - x_i| * c / a."""
    distances, failing = [], []
    for i, j in combinations(range(len(x)), 2):
        s = x[i] + x[j]
        a, b = s.denominator, s.numerator
        c, exact = isqrt(a * a + b * b)
        if exact:
            distances.append(abs(x[j] - x[i]) * c / a)
        else:
            distances.append(None)
            failing.append((i + 1, j + 1))
    return not failing, distances, failing


_POOL_65 = build_pool(65).ratios
_coordinates = st.fractions(-40, 40, max_denominator=60) | st.integers(-5, 5).map(Fraction)


@st.composite
def _abscissae(draw):
    """Distinct abscissae: random ones (rarely an RDS), an always-rational
    pair (r, psi - r), a set solved from pool ratios (always an RDS for 3
    points, rarely for more), or a published RDS(4); negated half the time."""
    kind = draw(st.sampled_from(["random", "pair", "solved", "published"]))
    if kind == "random":
        x = draw(st.lists(_coordinates, min_size=2, max_size=6, unique=True))
    elif kind == "pair":
        psi = draw(st.sampled_from(_POOL_65))
        r = draw(_coordinates.filter(lambda r: 2 * r != psi))
        x = [r, psi - r]
    elif kind == "solved":
        head = draw(st.lists(st.sampled_from(_POOL_65), min_size=3, max_size=5))
        x = solve_x(head)
        if not check_distinct(x):
            x = sorted(set(x))
    else:
        x = rats("-7/4,-7/6,5/12,35/24")
    x = draw(st.permutations(x))
    return [-v for v in x] if draw(st.booleans()) else x


@settings(max_examples=400, deadline=None)
@given(x=_abscissae(), scale=st.integers(1, 6))
def test_integer_oracle_matches_fraction_reference(x, scale):
    ok, distances, failing = _reference_verify(x)
    got = verify_rds(x)
    assert (got.ok, got.distances, got.failing_pairs) == (ok, distances, failing)
    # the same body on numerators over any common denominator, not only the lcm
    den = scale * lcm(*(v.denominator for v in x))
    nums = [(v * den).numerator for v in x]
    assert verify_scaled(nums, den) == got
    if not ok:
        with pytest.raises(ValueError):
            solution_from_x(nums, den)
        return
    want = Solution(
        n=len(x),
        x=tuple(x),
        psi=tuple(psi_from_x(x)),
        distances=tuple(distances),
        general_position=check_general_position(x),
    )
    for sol in (solution_from_x(x), solution_from_x(nums, den)):
        assert sol == want
        assert json.dumps(solution_record(sol)) == json.dumps(solution_record(want))


# --- core equivalences (randomized) ------------------------------------------


def test_oracle_equivalence_and_round_trip():
    # The distance oracle accepts solve_x(head) exactly when the
    # completion's tail entries are all ratios and the coordinates are
    # distinct; both sides computed independently here.
    rng = random.Random(4242)
    pool = build_pool(145).ratios
    hits = 0
    for _ in range(3000):
        n = rng.randint(3, 7)
        head = [rng.choice(pool) for _ in range(n)]
        x = solve_x(head)
        distinct = check_distinct(x)
        exists = check_existence(head).ok
        if distinct:
            assert verify_rds(x).ok == exists
            # round trip through the head positions of the pair sums
            sums = psi_from_x(x)
            head_back = sums[: n - 1] + [sums[n - 1]] if n > 2 else sums
            assert solve_x(complete_psi(head)[:n]) == x
            assert solve_x(head_back[:n]) == x
            hits += exists
    assert hits > 0  # the corpus must exercise the accepting branch


def test_n2_family_always_verifies():
    rng = random.Random(11)
    pool = build_pool(65).ratios
    for psi in pool:
        for _ in range(100):
            r = F(rng.randint(-500, 500), rng.randint(1, 60))
            if psi - r == r:
                continue
            assert verify_rds([r, psi - r]).ok


def test_every_head_entry_is_a_pair_sum():
    rng = random.Random(5)
    pool = build_pool(101).ratios
    for _ in range(500):
        n = rng.randint(3, 9)
        head = [rng.choice(pool) for _ in range(n)]
        x = solve_x(head)
        pairs = indices_set(n)[:n]
        for (i, j), value in zip(pairs, head):
            assert x[i - 1] + x[j - 1] == value
        assert all(is_pythagorean_ratio(v) for v in head)


def test_psi_vector_head_tail_split():
    from rds.solver import PsiVector

    v = PsiVector.from_head(rats("-35/12,-4/3,-7/24,-3/4"))
    assert v.n == 4
    assert list(v.head) == rats("-35/12,-4/3,-7/24,-3/4")
    assert list(v.tail) == rats("7/24,15/8")
    whole = PsiVector.from_head(rats("4/3,8/15,12/5"))
    assert whole.tail == ()
    with pytest.raises(BadLength):
        PsiVector(n=4, entries=tuple(rats("1,2,3")))
