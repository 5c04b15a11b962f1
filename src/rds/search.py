"""Exhaustive, partitionable search for rational distance sets.

Candidate independent ratio vectors (heads) are drawn from a bounded
ratio pool, completed to full vectors (``solver.complete_psi``'s tail,
tested exactly, without the pool's hypotenuse cap) and filtered by the
membership and distinctness conditions.  A rank is the pool index of the
kernel's outermost loop, so every n and mode has M ranks:

* n = 3 tries the heads i1 < i2 < i3, ranked by i1; every mode gives
  exactly these sets (permuting a head permutes x, and a repeated entry
  repeats an x);
* n >= 4 ranks heads by i_n and tries only heads with i1 < i2 (swapping
  points 2 and 3 swaps psi_1 and psi_2 and keeps the set); multiset mode
  keeps heads whose pool indices never decrease, subset mode heads whose
  indices strictly increase.

Solutions are deduplicated by a canonical key, so partition boundaries
never affect the result.  A key is one ``int``: the ascending abscissae
x_i * L for one pool-wide denominator L (``_key_denominator``), packed
into fixed-width fields (``_KeyCodec``), so keys sort as their abscissae
do.  The kernels work in integers, on the pool's numerators over L / 2,
where the closed form (``solver.solve_x_scaled``) gives x * L with no
division.

Every run is one process.  A chunk is a contiguous rank range, and chunks
exist only as checkpoint commit units: a run without a checkpoint path is
one chunk over the remaining ranks, and that chunk's map is the run's map.
With a checkpoint path the runner runs the chunks in rank order, each
seeing the keys the run already holds; it folds each chunk's new keys into
the found map and appends them to the checkpoint log with a commit line
before the next chunk runs (``_load_checkpoint``), so a run stopped early,
by request or by an interrupt, resumes from the last commit.  ``search``
runs all of this before it returns, so a failed run raises before its
caller writes a byte.
"""

from __future__ import annotations

import json
import math
import os
import time
from bisect import bisect_left
from fractions import Fraction
from itertools import compress, repeat
from operator import countOf
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import CheckpointCorrupt, ConfigMismatch, DomainError, ZeroDenominator
from .pythagorean import RatioPool, is_ratio_pair, primitive_triplets
from .rat import Rat, format_over, parse_rat
from .solver import (
    Solution,
    _over_lcm,
    check_distinct,
    check_general_position,
    indices_set,
    solution_from_x,
    solve_x,
    solve_x_scaled,
)

MODE_ORDERED = "ordered_dedup"
MODE_MULTISET = "multiset_dedup"
MODE_SUBSET = "subset_only"
MODES = (MODE_ORDERED, MODE_MULTISET, MODE_SUBSET)

# a kept head's pool indices have i_t < i_(t+1) + 1 - step (ordered: step -M, no cut)
_ORDER_STEP = {MODE_MULTISET: 0, MODE_SUBSET: 1}

GP_ANNOTATE = "annotate"
GP_REQUIRE = "require"
GP_FILTERS = (GP_ANNOTATE, GP_REQUIRE)

# Per-solution flag bits stored alongside canonical keys.
FLAG_GP = 1  # general position under the adopted rule
FLAG_ZERO_SUM = 2  # n = 3 only: all abscissae sum to zero

# 2: one n >= 4 head per psi_1 <-> psi_2 swap; 3: a rank is the outermost
# pool index; 4: one append-only log (3 kept a pointer file and a sidecar)
_CHECKPOINT_SCHEMA = 4


class _SearchConfigFields(NamedTuple):
    n: int
    gamma_bound: int
    include_zero: bool = True
    enumeration_mode: str = MODE_ORDERED
    gp_filter: str = GP_ANNOTATE
    workers: int = 1  # validated and kept for callers; every run is one process
    checkpoint_path: str | None = None


class SearchConfig(_SearchConfigFields):
    """The parameters of one search or count, validated at construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs) -> SearchConfig:
        self = super().__new__(cls, *args, **kwargs)
        if self.n < 3:
            raise DomainError(f"search needs n >= 3, got n={self.n}")
        if self.gamma_bound < 1:
            raise DomainError(f"gamma_bound must be positive, got {self.gamma_bound}")
        if self.enumeration_mode not in MODES:
            raise DomainError(f"unknown enumeration mode {self.enumeration_mode!r}")
        if self.gp_filter not in GP_FILTERS:
            raise DomainError(f"unknown gp filter {self.gp_filter!r}")
        if self.workers < 1:
            raise DomainError(f"workers must be >= 1, got {self.workers}")
        return self

    def echo(self, pool: RatioPool) -> dict:
        """The semantic parameters recorded in headers and checkpoints."""
        M = len(pool.ratios)
        return {
            "n": self.n,
            "gamma_bound": self.gamma_bound,
            "include_zero": self.include_zero,
            "enumeration_mode": self.enumeration_mode,
            "gp_filter": self.gp_filter,
            "pool_size": M,
            "total_ranks": total_ranks(self.enumeration_mode, M, self.n),
        }


class CountReport(NamedTuple):
    n: int
    gamma_bound: int
    mode: str
    theta_all: int
    theta_gp: int
    pool_size: int
    elapsed: float
    exclusions: dict[str, int]
    extra_zero_sum_sets: list[tuple[Rat, ...]]


class Partial(NamedTuple):
    """Results of one contiguous rank range."""

    rank_hi: int
    found: dict[int, int]  # packed canonical key -> flag bits


def total_ranks(mode: str, pool_size: int, n: int) -> int:
    """Size of the rank space: one rank per outermost pool index, for every n and mode."""
    return pool_size


def partition_space(total_rank_count: int, parts: int) -> list[tuple[int, int]]:
    """``parts`` contiguous, disjoint, covering half-open rank ranges, balanced within 1."""
    if parts < 1:
        raise DomainError(f"parts must be >= 1, got {parts}")
    q, r = divmod(total_rank_count, parts)
    # range w holds q ranks, and one more while w < r
    bounds = [w * q + min(w, r) for w in range(parts + 1)]
    return list(zip(bounds, bounds[1:]))


def _key_denominator(ratios: tuple[Fraction, ...]) -> int:
    """L = 2 * lcm(denominators of ratios).

    Every abscissa ``solve_x`` makes from a head of these ratios is half a
    signed sum of head entries, so x * L is an integer; a canonical key
    packs the ascending tuple of those integers.  L stays small: a pool
    denominator is a leg (m - n)(m + n) or 2mn with m^2 + n^2 <= Gamma, so
    L divides 2 * lcm(1..2 sqrt(Gamma)) (17 bits at Gamma = 65, 65 at 1001).
    """
    return 2 * math.lcm(*(r.denominator for r in ratios))


def _key_width(h: Sequence[int]) -> int:
    """The field width w of the keys of a pool with numerators ``h`` over L / 2.

    Each closed-form entry is +-h_1 +- h_2 + h_n or -h_1 - h_2 + h_n + 2 h_k,
    so every x * L solved from the pool has |x * L| <= 5 * max|h| < 2^(w-1).
    """
    return (5 * max(map(abs, h), default=0)).bit_length() + 1


class _KeyCodec:
    """Canonical keys of n integers packed into one int of n w-bit fields.

    Each integer v, with |v| < 2^(w-1), is stored as v + 2^(w-1), which lies
    in [0, 2^w); the first integer takes the highest field.  Fields of a
    fixed width compare from the highest down, so packed ints sort as the
    tuples do.  ``pack`` is linear in its integers: a key is
    sum(v_i << shifts[i]) + offset, with every field's bias in offset.
    """

    __slots__ = ("n", "width", "bias", "mask", "shifts", "offset")

    def __init__(self, n: int, width: int) -> None:
        self.n = n
        self.width = width
        self.bias = 1 << (width - 1)
        self.mask = (1 << width) - 1
        self.shifts = tuple(width * (n - 1 - i) for i in range(n))
        self.offset = sum(self.bias << s for s in self.shifts)

    def pack(self, x: Iterable[int]) -> int:
        key, width = 0, self.width
        for v in x:
            key = (key << width) + v
        return key + self.offset

    def unpack(self, key: int) -> list[int]:
        mask, bias = self.mask, self.bias
        return [(key >> s & mask) - bias for s in self.shifts]

    def fits(self, v: int) -> bool:
        """Whether v has a field of its own: |v| < 2^(w-1)."""
        return -self.bias < v < self.bias


def _key_codec(n: int, ratios: tuple[Fraction, ...]) -> _KeyCodec:
    """The codec of the n-point keys of a pool of ``ratios``."""
    return _KeyCodec(n, _key_width(_over_lcm(ratios)[0]))


def _flags_of_x(x: Sequence[Fraction] | Sequence[int]) -> int:
    """Flag bits of abscissae, or of a decoded key: both tests are sign
    tests of sums."""
    flags = FLAG_GP if check_general_position(x) else 0
    if len(x) == 3 and sum(x) == 0:
        flags |= FLAG_ZERO_SUM
    return flags


def _scan_triples(h: list[int], lo: int, hi: int, found: dict) -> None:
    """The n = 3 scan over strictly increasing heads i < j < k with i in
    [lo, hi), for every mode.

    ``h`` holds the pool's numerators over L / 2.  Distinct head entries
    force distinct x (pairwise x differences are pairwise psi differences),
    so no distinctness check is needed; and with p < q < r the solved x
    come out already sorted ascending, as the key packs them.  x is linear
    in the head and a key is linear in x, so
    key(p, q, r) = p * K_p + q * K_q + r * K_r + offset.  The scan runs row
    (i, j) by row: with base = h_i * K_p + offset + h_j * K_q from weighted
    copies of ``h``, a row's keys are base plus each entry of its slice of
    h * K_r, stored with FLAG_GP.  The x sum to (p + q + r) / 2, and pool
    values are distinct, so a row holds at most one zero-sum head,
    r = -(p + q); only its x go through ``_flags_of_x``, and its key is
    re-stored in place, so the insertion order stays head order.
    """
    M = len(h)
    index = {v: t for t, v in enumerate(h)}
    codec = _KeyCodec(3, _key_width(h))
    # K_p, K_q, K_r: the keys of the unit heads, less the offset
    kp, kq, kr = (codec.pack(solve_x_scaled(e)) - codec.offset for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    hp = [v * kp + codec.offset for v in h]
    hq = [v * kq for v in h]
    hr = [v * kr for v in h]
    flags_gp = repeat(FLAG_GP)
    for i in range(lo, hi):
        for j in range(i + 1, M - 1):
            base = hp[i] + hq[j]
            found.update(zip(map(base.__add__, hr[j + 1 :]), flags_gp))
            r = -h[i] - h[j]
            k = index.get(r, -1)
            if k > j:
                found[base + hr[k]] = _flags_of_x(solve_x_scaled((h[i], h[j], r)))


def _ratio_class(h: list[int], half: int, s: int) -> set[int]:
    """R(S): the pool indices p with S - pool[p] a ratio, for S over ``half``.

    For S = pool[k] + pool[m] it holds k and m, since S - pool[k] = pool[m]
    and S - pool[m] = pool[k] are pool ratios.
    """
    return {p for p, v in enumerate(h) if is_ratio_pair(s - v, half)}


def _scan_blocks(
    h: list[int], half: int, n: int, mode: str, lo: int, hi: int, found: dict, known
) -> None:
    """The n >= 4 scan over the heads with i_n in [lo, hi), for every mode.

    The case-1 and case-2 tails of ``solver.complete_psi`` are
    psi_n + psi_k - t for k = 3..n-1 and t = psi_2, psi_1, so psi_1 and
    psi_2 must lie in every R(psi_n + psi_k) (``_ratio_class``); each R is
    built at most once per call, cached by its sum.

    The outer indices are walked depth first, i_n, then i_(n-1) down to
    i3, each ascending.  The walk carries the candidates for i1 and i2: the
    pool without i_n, cut at each level k to R(psi_n + psi_k) without k.
    By the closed form, a head whose psi_1 or psi_2 repeats an outer
    entry, whose psi_1 = psi_2, or whose middle entries psi_3..psi_(n-1)
    repeat has two equal abscissae, which ``check_distinct`` drops anyway;
    so a level skips a k that repeats a middle index (k = i_n stays:
    psi_k = psi_n is legal), and the walk descends only while two
    candidates are left.  Swapping the labels of points 2 and 3 swaps
    psi_1 and psi_2 and keeps the set, so every mode tries only i1 < i2.
    Multiset and subset mode also cut each outer index to i_t <= i_(t+1),
    or i_t < i_(t+1), and i2 to below i3.

    A leaf runs i2 over the sorted candidates below the mode cut and i1
    over the candidates before i2, and tests case 3 (n >= 5) per head.
    Every test and the closed form run on ``h``, the pool's numerators
    over ``half`` = L / 2, so a survivor's key comes out over L with no
    division, and is packed by the pool's ``_KeyCodec``.  A key in neither
    ``found`` nor ``known`` (the keys the run already holds) takes its
    flags from ``solve_x`` on that integer head, whose x are the true x
    times L / 2 > 0; both flag tests are sign tests of sums.
    """
    M = len(h)
    step = _ORDER_STEP.get(mode, -M)
    sub_pairs = indices_set(n - 3) if n >= 5 else []
    classes: dict[int, set[int]] = {}  # R(S) by the sum S
    pack = _KeyCodec(n, _key_width(h)).pack

    def leaf(outer: list[int], members: list[int]) -> None:
        outer_nums = [h[k] for k in outer]
        below = members[: bisect_left(members, outer[0] + 1 - step)]
        for pos, i2 in enumerate(below):
            for i1 in members[:pos]:
                nums = [h[i1], h[i2]] + outer_nums
                if sub_pairs:  # case 3: psi_n + psi_a + psi_b - psi_1 - psi_2
                    c = nums[-1] - nums[0] - nums[1]
                    if not all(
                        is_ratio_pair(c + nums[m_i + 1] + nums[n_i + 1], half)
                        for m_i, n_i in sub_pairs
                    ):
                        continue
                x = solve_x_scaled(nums)
                # most keys are known, so test distinctness only on new ones:
                # an x with a repeat packs to a key no set has
                key = pack(sorted(x))
                if key not in found and key not in known and check_distinct(x):
                    found[key] = _flags_of_x(solve_x(nums))

    def walk(outer: list[int], candidates: set[int]) -> None:
        # outer = [i_t, ..., i_n]: pick i_(t-1)
        if len(outer) == n - 2:
            leaf(outer, sorted(candidates))
            return
        s_n = h[outer[-1]]
        middle = outer[:-1]
        for k in range(min(M, outer[0] + 1 - step)):
            if k in middle:
                continue
            s = s_n + h[k]
            r = classes.get(s)
            if r is None:
                r = classes[s] = _ratio_class(h, half, s)
            rest = candidates & r
            rest.discard(k)
            if len(rest) >= 2:
                walk([k] + outer, rest)

    for i_n in range(lo, hi):
        walk([i_n], set(range(M)) - {i_n})


def process_range(
    n: int, ratios: tuple[Fraction, ...], mode: str, lo: int, hi: int, known=()
) -> Partial:
    """Evaluate every candidate with rank in [lo, hi).

    ``known`` holds keys found before this range; for n >= 4 they are left
    out of the result and not solved again.  (An n = 3 set has one rank,
    so a range never meets a key found in another.)  The result therefore
    holds only keys new to ``known``, each with its flag bits.
    """
    found: dict[int, int] = {}
    if hi > lo:
        # numerators over lcm(pool denominators) = L / 2
        h, half = _over_lcm(ratios)
        if n == 3:
            _scan_triples(h, lo, hi, found)
        else:
            _scan_blocks(h, half, n, mode, lo, hi, found, known)
    return Partial(rank_hi=hi, found=found)


# --- checkpointing ---------------------------------------------------------


def _read_key_line(line: bytes, codec: _KeyCodec, den: int) -> tuple[int, ...]:
    """One key line's key, decoded: a JSON object whose "x" lists n strings
    of pairwise-distinct rationals, each an integer over the key
    denominator den that fits a field of ``codec``; any other line is
    corrupt.  A value too wide for its field would spill into its
    neighbour and could pack to another set's key."""
    try:
        strings = json.loads(line)["x"]
        if isinstance(strings, list) and all(isinstance(s, str) for s in strings):
            xs = [parse_rat(s) for s in strings]
            if len(xs) == codec.n and check_distinct(xs) and all(den % v.denominator == 0 for v in xs):
                x = tuple(sorted(v.numerator * (den // v.denominator) for v in xs))
                if all(map(codec.fits, x)):
                    return x
                raise CheckpointCorrupt(f"key line {line!r} has a value outside the key field")
    except (ValueError, KeyError, TypeError, ZeroDenominator):
        pass
    raise CheckpointCorrupt(f"bad key line {line!r}")


def _load_checkpoint(
    path: str, expected_echo: dict, den: int, codec: _KeyCodec
) -> tuple[int, dict[int, int]]:
    """Return (next_rank, found) from a checkpoint log, and cut the log
    after its last complete commit line; keys over den, packed by ``codec``.

    Only lines that end in a newline count, so a torn tail is dropped with
    the key lines after the last commit.  Each commit must raise next_rank,
    to at most total_ranks, and its two counts must be those of the keys
    read so far; anything else is corrupt.
    """
    try:
        with open(path, "rb") as fh:
            head, *lines = fh.read().split(b"\n")
        header = json.loads(head)
        schema, config = header["schema_version"], header["config"]
        if not lines:
            raise ValueError("the header line is incomplete")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint {path}: {exc!r}") from exc
    if schema != _CHECKPOINT_SCHEMA:
        raise CheckpointCorrupt(f"unsupported checkpoint schema {schema}")
    if config != expected_echo:
        raise ConfigMismatch(
            f"checkpoint config {config} does not match current config {expected_echo}"
        )
    found: dict[int, int] = {}
    pending: dict[int, int] = {}  # the keys since the last commit
    next_rank = gp = 0
    size = end = len(head) + 1  # bytes up to the last commit, and read
    for line in lines[:-1]:  # the last piece ends in no newline
        end += len(line) + 1
        if line.startswith(b'{"x"'):
            x = _read_key_line(line, codec, den)
            pending[codec.pack(x)] = _flags_of_x(x)
            continue
        try:
            commit = json.loads(line)
            rank, counts = commit["next_rank"], [commit["theta_all_so_far"], commit["theta_gp_so_far"]]
        except (ValueError, KeyError, TypeError) as exc:
            raise CheckpointCorrupt(f"bad commit line {line!r}") from exc
        if type(rank) is not int or not next_rank < rank <= expected_echo["total_ranks"]:
            raise CheckpointCorrupt(f"checkpoint next_rank {rank!r} is out of range after {next_rank}")
        gp += sum(f & FLAG_GP for k, f in pending.items() if k not in found)
        found.update(pending)
        if counts != [len(found), gp]:
            raise CheckpointCorrupt(f"commit line {line!r} does not count the keys before it")
        next_rank, size, pending = rank, end, {}
    with open(path, "r+b") as fh:
        fh.truncate(size)
    return next_rank, found


# --- the runner ------------------------------------------------------------


def run_enumeration(
    config: SearchConfig,
    pool: RatioPool,
    stop_after_ranges: int | None = None,
) -> tuple[dict[int, int], bool]:
    """Enumerate the whole rank space in this process: in chunks where a
    checkpoint commits them, and in one chunk otherwise.

    Returns (found, completed); found maps each canonical key to its flag
    bits.  A key is an int that ``_key_codec(config.n, pool.ratios)``
    decodes into the ascending abscissae over
    ``_key_denominator(pool.ratios)``; the checkpoint holds them decoded.
    A run without a checkpoint path is one ``process_range`` call over
    [0, M), and found is that call's map.  With one, the remaining ranks
    are cut into min(64, remaining) chunks, and each ``process_range`` call
    is handed the run's map as ``known``.  ``config.workers`` changes
    nothing.  ``stop_after_ranges`` halts after that many chunk boundaries
    in this call, which together with a checkpoint path models a
    kill/resume at a rank boundary.
    """
    if pool.gamma_bound != config.gamma_bound or pool.include_zero != config.include_zero:
        raise ConfigMismatch(
            f"pool (gamma={pool.gamma_bound}, zero={pool.include_zero}) does not match "
            f"config (gamma={config.gamma_bound}, zero={config.include_zero})"
        )
    echo = config.echo(pool)
    total = echo["total_ranks"]

    found: dict[int, int] = {}
    start_rank = gp_so_far = 0
    ckpt = config.checkpoint_path
    if ckpt:
        # the log holds keys decoded, as integers over den
        den = _key_denominator(pool.ratios)
        codec = _key_codec(config.n, pool.ratios)
        if os.path.exists(ckpt):
            start_rank, found = _load_checkpoint(ckpt, echo, den, codec)
            gp_so_far = sum(1 for f in found.values() if f & FLAG_GP)
        else:
            with open(ckpt, "w", encoding="utf-8") as fh:
                fh.write(json.dumps({"config": echo, "schema_version": _CHECKPOINT_SCHEMA}, sort_keys=True) + "\n")

    remaining = total - start_rank
    # chunks are checkpoint commit units, one an outer index, as many as 64
    if ckpt and remaining:
        chunks = [(lo + start_rank, hi + start_rank) for lo, hi in partition_space(remaining, min(64, remaining))]
    else:
        chunks = [(start_rank, total)] if remaining else []

    def finish_chunk(partial: Partial) -> None:
        nonlocal found, gp_so_far
        if not ckpt:
            # the run's one chunk: its map is the run's, not a copy of it
            found = partial.found
            return
        # a chunk returns only keys the run does not hold yet
        found.update(partial.found)
        # append the chunk's keys, then the commit line that makes them count
        gp_so_far += sum(f & FLAG_GP for f in partial.found.values())
        commit = {"next_rank": partial.rank_hi, "theta_all_so_far": len(found), "theta_gp_so_far": gp_so_far}
        with open(ckpt, "a", encoding="utf-8") as fh:
            for k in partial.found:
                fh.write(json.dumps({"x": [format_over(v, den) for v in codec.unpack(k)]}) + "\n")
            fh.write(json.dumps(commit) + "\n")

    completed = True
    for done, (lo, hi) in enumerate(chunks, 1):
        # through the module global, where a caller may wrap it
        finish_chunk(process_range(config.n, pool.ratios, config.enumeration_mode, lo, hi, known=found))
        if stop_after_ranges is not None and done >= stop_after_ranges and hi < total:
            completed = False
            break

    if completed and ckpt:
        os.remove(ckpt)
    return found, completed


def search(config: SearchConfig, pool: RatioPool) -> Iterator[Solution]:
    """Run the search, then stream every distinct solution ascending by key.

    The enumeration, the gp filter and the sort all run at the call, so a
    failed run (a checkpoint I/O error, ``CheckpointCorrupt``,
    ``ConfigMismatch``) raises here, before any solution is read.  The
    returned iterator re-checks each solution with the distance oracle as
    it is read.  With gp_filter="require" only solutions in general
    position are kept.
    """
    found, _ = run_enumeration(config, pool)
    den = _key_denominator(pool.ratios)
    unpack = _key_codec(config.n, pool.ratios).unpack
    # packed ints sort as their ascending x do; each is decoded only when read
    if config.gp_filter == GP_REQUIRE:
        keys = sorted(compress(found, map(FLAG_GP.__and__, found.values())))
    else:
        keys = sorted(found)
    return (solution_from_x(unpack(key), den) for key in keys)


def count_solutions(config: SearchConfig, pool: RatioPool) -> CountReport:
    """Count distinct solutions without materializing them."""
    t0 = time.perf_counter()
    found, _ = run_enumeration(config, pool)
    elapsed = time.perf_counter() - t0
    flags = found.values()
    theta_all = len(found)
    exclusions: dict[str, int] = {}
    extra_sets: list[tuple[Rat, ...]] = []
    if config.n == 3:
        # n = 3 flags: FLAG_GP, FLAG_ZERO_SUM alone (a mirror set), or both
        extra = FLAG_GP | FLAG_ZERO_SUM
        mirror, extras = countOf(flags, FLAG_ZERO_SUM), countOf(flags, extra)
        theta_gp = theta_all - mirror
        exclusions = {"mirror_zero": mirror, "zero_sum_extra": extras}
        if extras:
            den = _key_denominator(pool.ratios)
            unpack = _key_codec(3, pool.ratios).unpack
            extra_sets = [
                tuple(Fraction(v, den) for v in unpack(k))
                for k in sorted(compress(found, map(extra.__eq__, flags)))
            ]
    else:
        # n >= 4 flags: FLAG_GP or none
        theta_gp = countOf(flags, FLAG_GP)
    return CountReport(
        n=config.n,
        gamma_bound=config.gamma_bound,
        mode=config.enumeration_mode,
        theta_all=theta_all,
        theta_gp=theta_gp,
        pool_size=len(pool.ratios),
        elapsed=elapsed,
        exclusions=exclusions,
        extra_zero_sum_sets=extra_sets,
    )


def pool_growth_report(gamma_list: Iterable[int]) -> list[dict]:
    """Exact primitive-triplet counts next to the Gamma/(2*pi) reference."""
    rows = []
    for gamma in gamma_list:
        t_count = len(primitive_triplets(gamma))
        rows.append(
            {
                "gamma": gamma,
                "primitive_triplets": t_count,
                "pool_size": 4 * t_count + 1,
                "asymptotic_reference": gamma / (2 * math.pi),
            }
        )
    return rows
