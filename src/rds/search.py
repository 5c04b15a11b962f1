"""Exhaustive, partitionable search for rational distance sets.

Candidate independent ratio vectors (heads) are drawn from a bounded
ratio pool, completed to full vectors, and filtered by the membership and
distinctness conditions.  Every candidate has a deterministic rank:

* ordered mode ranks all M^n head assignments colexicographically
  (position 1 varies fastest); for n = 3 this provably collapses to the
  C(M,3) strictly increasing heads, which are enumerated directly;
* multiset mode ranks non-decreasing heads in lexicographic index order;
* subset mode ranks strictly increasing heads the same way.

Solutions are deduplicated by their canonical key, the sorted abscissa
list, so worker count and partition boundaries never affect the result.
Dependent (tail) ratios come from ``solver.complete_psi``'s formula and
are tested by ``pythagorean.is_pythagorean_ratio``, exactly and without
the pool's hypotenuse cap.

The runner splits the remaining ranks into contiguous chunks and reads
their results in rank order through one loop, whether the chunks run in
this process or on a process pool.  Each chunk's keys are folded into the
found map and, with a checkpoint path, committed before the next chunk is
read; stopping early, by request or by an interrupt, leaves the checkpoint
at the last committed chunk.
"""

from __future__ import annotations

import json
import math
import os
import time
from contextlib import closing
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from typing import Iterable, Iterator

from .errors import CheckpointCorrupt, ConfigMismatch, DomainError
from .pythagorean import RatioPool, is_pythagorean_ratio, primitive_triplets
from .rat import Rat, parse_rat
from .solver import (
    Solution,
    check_distinct,
    check_general_position,
    complete_psi,
    indices_set,
    solution_from_x,
    solve_x,
)

MODE_ORDERED = "ordered_dedup"
MODE_MULTISET = "multiset_dedup"
MODE_SUBSET = "subset_only"
MODES = (MODE_ORDERED, MODE_MULTISET, MODE_SUBSET)

GP_ANNOTATE = "annotate"
GP_REQUIRE = "require"
GP_FILTERS = (GP_ANNOTATE, GP_REQUIRE)

# Per-solution flag bits stored alongside canonical keys.
FLAG_GP = 1  # general position under the adopted rule
FLAG_ZERO_SUM = 2  # n = 3 only: all abscissae sum to zero

_CHECKPOINT_SCHEMA = 1


@dataclass(frozen=True)
class SearchConfig:
    n: int
    gamma_bound: int
    include_zero: bool = True
    enumeration_mode: str = MODE_ORDERED
    gp_filter: str = GP_ANNOTATE
    workers: int = 1
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
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

    def echo(self, pool_size: int, total_ranks: int) -> dict:
        """The semantic parameters recorded in headers and checkpoints."""
        return {
            "n": self.n,
            "gamma_bound": self.gamma_bound,
            "include_zero": self.include_zero,
            "enumeration_mode": self.enumeration_mode,
            "gp_filter": self.gp_filter,
            "pool_size": pool_size,
            "total_ranks": total_ranks,
        }


@dataclass
class CountReport:
    n: int
    gamma_bound: int
    mode: str
    theta_all: int
    theta_gp: int
    pool_size: int
    elapsed: float
    exclusions: dict[str, int] = field(default_factory=dict)
    extra_zero_sum_sets: list[tuple[Rat, ...]] = field(default_factory=list)


@dataclass
class Partial:
    """Results of one contiguous rank range."""

    rank_lo: int
    rank_hi: int
    found: dict[tuple, int]  # canonical key -> flag bits


def total_ranks(mode: str, pool_size: int, n: int) -> int:
    """Size of the deterministic enumeration space for a mode."""
    if mode == MODE_ORDERED:
        # the n = 3 assignment space collapses to strictly increasing heads:
        # permuting a head permutes x, and repeated entries repeat an x
        return math.comb(pool_size, 3) if n == 3 else pool_size**n
    if mode == MODE_MULTISET:
        return math.comb(pool_size + n - 1, n)
    return math.comb(pool_size, n)


def partition_space(total_rank_count: int, workers: int) -> list[tuple[int, int]]:
    """Contiguous, disjoint, covering half-open rank ranges, balanced within 1."""
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    q, r = divmod(total_rank_count, workers)
    ranges = []
    lo = 0
    for w in range(workers):
        hi = lo + q + (1 if w < r else 0)
        ranges.append((lo, hi))
        lo = hi
    return ranges


def _key_of(x: list[Fraction]) -> tuple:
    return tuple((v.numerator, v.denominator) for v in sorted(x))


def _x_of_key(key: tuple) -> tuple[Fraction, ...]:
    return tuple(Fraction(a, b) for a, b in key)


def _flags_of_x(x: list[Fraction]) -> int:
    flags = FLAG_GP if check_general_position(x) else 0
    if len(x) == 3 and sum(x) == 0:
        flags |= FLAG_ZERO_SUM
    return flags


def _consider_head(head: list[Fraction], found: dict[tuple, int]) -> None:
    """Generic kernel: tail membership with early abort, then distinctness."""
    if not all(map(is_pythagorean_ratio, complete_psi(head)[len(head):])):
        return
    x = solve_x(head)
    if not check_distinct(x):
        return
    key = _key_of(x)
    if key not in found:
        found[key] = _flags_of_x(x)


def _scan_triples(ratios: tuple[Fraction, ...], lo: int, hi: int, found: dict) -> None:
    """n = 3 fast path over strictly increasing heads.

    Distinct head entries force distinct x (pairwise x differences are
    pairwise psi differences), so no distinctness check is needed; and with
    p < q < r the solved x come out already sorted ascending.
    """
    half = Fraction(1, 2)
    for i, j, k in islice(combinations(range(len(ratios)), 3), lo, hi):
        p, q, r = ratios[i], ratios[j], ratios[k]
        s = p + q + r
        h = s * half
        x1 = h - r
        x2 = h - q
        x3 = h - p
        key = (
            (x1.numerator, x1.denominator),
            (x2.numerator, x2.denominator),
            (x3.numerator, x3.denominator),
        )
        if s == 0:
            # zero abscissa sum; mirror sets additionally contain the point 0
            mirror = p == 0 or q == 0 or r == 0
            found[key] = (0 if mirror else FLAG_GP) | FLAG_ZERO_SUM
        else:
            found[key] = FLAG_GP


def _scan_ordered_blocks(
    ratios: tuple[Fraction, ...], n: int, lo: int, hi: int, found: dict
) -> None:
    """Ordered-mode scan for n >= 4 over colex ranks [lo, hi).

    Rank = i1 + M*i2 + ... + M^(n-1)*i_n over pool indices.  A block fixes
    (i2..i_n); the tail entries free of psi_1 are tested once per block and
    failing blocks are abandoned before the inner psi_1 loop.  The three
    tail cases are those of ``solver.complete_psi``, split by whether they
    depend on psi_1.
    """
    M = len(ratios)
    first_block = lo // M
    last_block = (hi - 1) // M
    sub_pairs = indices_set(n - 3) if n >= 5 else []
    for block in range(first_block, last_block + 1):
        i1_lo = lo - block * M if block == first_block else 0
        i1_hi = hi - block * M if block == last_block else M
        if i1_hi > M:
            i1_hi = M
        rem = block
        outer = []
        for _ in range(n - 1):
            rem, r_ = divmod(rem, M)
            outer.append(ratios[r_])
        # outer[j] = psi_{j+2}; outer[-1] = psi_n
        pn = outer[-1]
        p2 = outer[0]
        ok = True
        for i in range(1, n - 2):  # case 1: psi_n + psi_{i+2} - psi_2
            if not is_pythagorean_ratio(pn + outer[i] - p2):
                ok = False
                break
        if not ok:
            continue
        for i1 in range(i1_lo, i1_hi):
            p1 = ratios[i1]
            d1 = pn - p1
            ok = True
            for j in range(1, n - 2):  # case 2: psi_n + psi_{j+2} - psi_1
                if not is_pythagorean_ratio(d1 + outer[j]):
                    ok = False
                    break
            if ok and sub_pairs:
                c = d1 - p2
                for m_i, n_i in sub_pairs:  # case 3
                    if not is_pythagorean_ratio(c + outer[m_i] + outer[n_i]):
                        ok = False
                        break
            if not ok:
                continue
            x = solve_x([p1] + outer)
            if not check_distinct(x):
                continue
            key = _key_of(x)
            if key not in found:
                found[key] = _flags_of_x(x)


def process_range(
    n: int, ratios: tuple[Fraction, ...], mode: str, lo: int, hi: int
) -> Partial:
    """Evaluate every candidate with rank in [lo, hi)."""
    found: dict[tuple, int] = {}
    if hi > lo:
        M = len(ratios)
        if mode == MODE_ORDERED and n == 3:
            _scan_triples(ratios, lo, hi, found)
        elif mode == MODE_ORDERED:
            _scan_ordered_blocks(ratios, n, lo, hi, found)
        else:
            combos = (
                combinations_with_replacement(range(M), n)
                if mode == MODE_MULTISET
                else combinations(range(M), n)
            )
            for idxs in islice(combos, lo, hi):
                _consider_head([ratios[i] for i in idxs], found)
    return Partial(rank_lo=lo, rank_hi=hi, found=found)


def _range_worker(args: tuple) -> Partial:
    n, mode, ratio_pairs, lo, hi = args
    ratios = tuple(Fraction(a, b) for a, b in ratio_pairs)
    return process_range(n, ratios, mode, lo, hi)


def _chunk_results(
    config: SearchConfig, ratios: tuple[Fraction, ...], chunks: list[tuple[int, int]]
) -> Iterator[Partial]:
    """Each chunk's Partial, in rank order: in this process, or on a pool.

    Closing the generator early, or an interrupt while it waits, cancels
    the chunks still queued.
    """
    if config.workers == 1 or len(chunks) <= 1:
        for lo, hi in chunks:
            yield process_range(config.n, ratios, config.enumeration_mode, lo, hi)
        return
    from concurrent.futures import ProcessPoolExecutor

    ratio_pairs = tuple((r.numerator, r.denominator) for r in ratios)
    args = [(config.n, config.enumeration_mode, ratio_pairs, lo, hi) for lo, hi in chunks]
    pool_exec = ProcessPoolExecutor(max_workers=config.workers)
    try:
        yield from pool_exec.map(_range_worker, args)
    finally:
        pool_exec.shutdown(cancel_futures=True)


# --- checkpointing ---------------------------------------------------------


def _sidecar_path(checkpoint_path: str) -> str:
    return checkpoint_path + ".partial"


def _write_checkpoint(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _load_checkpoint(path: str, expected_echo: dict) -> tuple[int, dict[tuple, int]]:
    """Return (next_rank, found) reconstructed from a checkpoint pair."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        schema = payload["schema_version"]
        config = payload["config"]
        next_rank = payload["next_rank"]
        offset = payload["output_offset"]
    except (OSError, ValueError, KeyError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint {path}: {exc}") from exc
    if schema != _CHECKPOINT_SCHEMA:
        raise CheckpointCorrupt(f"unsupported checkpoint schema {schema}")
    if config != expected_echo:
        raise ConfigMismatch(
            f"checkpoint config {config} does not match current config {expected_echo}"
        )
    found: dict[tuple, int] = {}
    sidecar = _sidecar_path(path)
    try:
        with open(sidecar, "rb") as fh:
            blob = fh.read(offset)
    except OSError as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint sidecar {sidecar}: {exc}") from exc
    if len(blob) != offset:
        raise CheckpointCorrupt(
            f"sidecar {sidecar} shorter than recorded offset {offset}"
        )
    # drop any torn bytes past the recorded offset
    with open(sidecar, "r+b") as fh:
        fh.truncate(offset)
    for line in blob.decode("utf-8").splitlines():
        try:
            xs = [parse_rat(s) for s in json.loads(line)["x"]]
        except (ValueError, KeyError) as exc:
            raise CheckpointCorrupt(f"bad sidecar line {line!r}") from exc
        found[_key_of(xs)] = _flags_of_x(xs)
    return next_rank, found


# --- the runner ------------------------------------------------------------


def _check_pool(config: SearchConfig, pool: RatioPool) -> None:
    if pool.gamma_bound != config.gamma_bound or pool.include_zero != config.include_zero:
        raise ConfigMismatch(
            f"pool (gamma={pool.gamma_bound}, zero={pool.include_zero}) does not match "
            f"config (gamma={config.gamma_bound}, zero={config.include_zero})"
        )


def run_enumeration(
    config: SearchConfig,
    pool: RatioPool,
    stop_after_ranges: int | None = None,
) -> tuple[dict[tuple, int], bool]:
    """Enumerate the whole rank space, in chunks, optionally in parallel.

    Returns (found, completed).  ``stop_after_ranges`` halts after that many
    chunk boundaries in this call, which together with a checkpoint path
    models a kill/resume at a rank boundary.
    """
    _check_pool(config, pool)
    M = len(pool.ratios)
    total = total_ranks(config.enumeration_mode, M, config.n)
    echo = config.echo(M, total)

    found: dict[tuple, int] = {}
    start_rank = 0
    ckpt = config.checkpoint_path
    if ckpt and os.path.exists(ckpt):
        start_rank, found = _load_checkpoint(ckpt, echo)
    elif ckpt:
        open(_sidecar_path(ckpt), "w").close()

    if start_rank >= total:
        chunks: list[tuple[int, int]] = []
    else:
        remaining = total - start_rank
        n_chunks = max(config.workers, min(64, remaining))
        chunks = [
            (lo + start_rank, hi + start_rank)
            for lo, hi in partition_space(remaining, n_chunks)
            if hi > lo
        ]

    def finish_chunk(partial: Partial) -> None:
        fresh = [k for k in partial.found if k not in found]
        for k in fresh:
            found[k] = partial.found[k]
        if ckpt:
            with open(_sidecar_path(ckpt), "a", encoding="utf-8") as fh:
                for k in fresh:
                    xs = [str(v) for v in _x_of_key(k)]
                    fh.write(json.dumps({"x": xs}) + "\n")
            offset = os.path.getsize(_sidecar_path(ckpt))
            gp = sum(1 for f in found.values() if f & FLAG_GP)
            _write_checkpoint(
                ckpt,
                {
                    "schema_version": _CHECKPOINT_SCHEMA,
                    "config": echo,
                    "next_rank": partial.rank_hi,
                    "theta_all_so_far": len(found),
                    "theta_gp_so_far": gp,
                    "output_offset": offset,
                },
            )

    completed = True
    with closing(_chunk_results(config, pool.ratios, chunks)) as partials:
        for done, partial in enumerate(partials, 1):
            finish_chunk(partial)
            if stop_after_ranges is not None and done >= stop_after_ranges and partial.rank_hi < total:
                completed = False
                break

    if completed and ckpt:
        for path in (ckpt, _sidecar_path(ckpt)):
            if os.path.exists(path):
                os.remove(path)
    return found, completed


def search(config: SearchConfig, pool: RatioPool) -> Iterator[Solution]:
    """Stream every distinct solution, ascending by canonical key.

    Each emitted solution is re-checked by the distance oracle.  With
    gp_filter="require" only solutions in general position are emitted.
    """
    found, _ = run_enumeration(config, pool)
    for key in sorted(found, key=_x_of_key):
        if config.gp_filter == GP_REQUIRE and not found[key] & FLAG_GP:
            continue
        yield solution_from_x(_x_of_key(key))


def count_solutions(config: SearchConfig, pool: RatioPool) -> CountReport:
    """Count distinct solutions without materializing them."""
    t0 = time.perf_counter()
    found, _ = run_enumeration(config, pool)
    elapsed = time.perf_counter() - t0
    theta_all = len(found)
    theta_gp = sum(1 for f in found.values() if f & FLAG_GP)
    exclusions: dict[str, int] = {}
    extra_sets: list[tuple[Rat, ...]] = []
    if config.n == 3:
        mirror = sum(1 for f in found.values() if not f & FLAG_GP)
        zero_sum = sum(1 for f in found.values() if f & FLAG_ZERO_SUM)
        exclusions = {"mirror_zero": mirror, "zero_sum_extra": zero_sum - mirror}
        extra_sets = sorted(
            _x_of_key(k)
            for k, f in found.items()
            if f & FLAG_ZERO_SUM and f & FLAG_GP
        )
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
