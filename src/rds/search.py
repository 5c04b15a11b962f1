"""Exhaustive, partitionable search for rational distance sets.

Candidate independent ratio vectors (heads) are drawn from a bounded
ratio pool, completed to full vectors, and filtered by the membership and
distinctness conditions.  A rank is the pool index of the kernel's
outermost loop, so every n and mode has M ranks and a rank range is a
range of whole outer indices:

* n = 3 tries the strictly increasing heads i1 < i2 < i3 and ranks them
  by i1; every mode gives exactly these sets (permuting a head permutes
  x, and a repeated entry repeats an x);
* n >= 4 ranks heads by i_n.  Ordered mode tries every head with i1 < i2
  (swapping points 2 and 3 swaps psi_1 and psi_2 and keeps the set),
  multiset mode only heads whose pool indices never decrease, subset mode
  only heads whose indices strictly increase.

Solutions are deduplicated by their canonical key, so worker count and
partition boundaries never affect the result.  A key is the ascending
tuple of integers x_i * L, where L = 2 * lcm(pool denominators) is one
denominator for the whole pool: every abscissa solved from pool ratios is
an integer over L.  L stays small: a pool denominator is a leg
(m - n)(m + n) or 2mn with m^2 + n^2 <= Gamma, so every prime power in it
is at most 2 sqrt(Gamma), and L divides 2 * lcm(1..2 sqrt(Gamma)), which
has O(sqrt(Gamma)) bits (L has 17 bits at Gamma = 65, 65 at 1001).
Integer tuples of one positive
denominator compare as their abscissae do, so ``search`` sorts the keys
natively and hands each to the distance oracle as integers over L.
Dependent (tail) ratios follow ``solver.complete_psi``'s formula and are
tested exactly, without the pool's hypotenuse cap.

The kernels work in integers, on the pool's numerators over L / 2; the
closed form (``solver.solve_x_scaled``) on those gives a key with no
division.  For n = 3, x is linear in psi_3 once psi_1 and psi_2 are fixed,
so the kernel builds a row of keys at a time from three shifted copies of
the pool.  For n >= 4, most tail entries have the form
psi_n + psi_k - psi_t (t = 1, 2), so a head survives only if psi_1 and
psi_2 lie in every membership set
R(psi_n + psi_k) = {p in pool : psi_n + psi_k - p is a ratio}; those sets
are cached per chunk by their sum and decided by
``pythagorean.is_ratio_pair``.  The kernel walks psi_n, psi_(n-1) ..
psi_3 depth first and carries the candidates for psi_1 and psi_2, so its
work follows the outer blocks where two candidates survive, not all
M^(n-2) of them.  A key takes its flags from ``solve_x`` on its integer
head, which gives x times L / 2 (the flag tests are sign tests of sums),
only when it is new: on one worker new to the run, since the serial
chunk loop hands the run's found map to the kernel; on the pool new to
the chunk, since a worker cannot see that map.

The runner splits the remaining ranks into contiguous chunks and reads
their results in rank order through one loop, whether the chunks run in
this process or on a process pool.  n = 3 chunks always run in this
process, whatever the worker count: every n = 3 head is a set and the
runner keeps every key, so receiving a key from a worker costs at least
as much as building it here.  The pool serves only the n >= 4 kernels,
which find far fewer sets than the heads they try.  A process keeps one
pool for its whole life: the first multi-worker n >= 4 run starts it,
later runs with the same worker count reuse it, and another count or a
failure inside the pool replaces it.  A chunk sent to the pool is the
pool's integer numerators and a rank range, so the workers build no
``Fraction``.  Each chunk's keys are folded into the found map and, with
a checkpoint path, committed before the next chunk is read; stopping early, by request or by an
interrupt, leaves the checkpoint at the last committed chunk.  A worker
watches the process that started the pool and exits when it is gone, even
if that process died without shutting the pool down.  ``search`` runs all
of this before it returns, so a failed run raises before its caller
writes a byte; the solutions it yields are integer-backed, and the
records are rendered from those integers.
"""

from __future__ import annotations

import atexit
import json
import math
import os
import time
from bisect import bisect_left
from collections import Counter
from contextlib import closing
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from typing import Iterable, Iterator, Sequence

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

# 2: the n >= 4 walk tries one head per psi_1 <-> psi_2 swap, so ordered
# mode's per-chunk finds differ from schema 1's
# 3: a rank is the outermost pool index, so next_rank counts whole i1
# (n = 3) or i_n (n >= 4), not heads
_CHECKPOINT_SCHEMA = 3


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

    rank_hi: int
    found: dict[tuple[int, ...], int]  # canonical key -> flag bits


def total_ranks(mode: str, pool_size: int, n: int) -> int:
    """Size of the rank space: one rank per outermost pool index, for every n and mode."""
    return pool_size


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


def _key_denominator(ratios: tuple[Fraction, ...]) -> int:
    """L = 2 * lcm(denominators of ratios).

    Every abscissa ``solve_x`` makes from a head of these ratios is half a
    signed sum of head entries, so x * L is an integer; a canonical key is
    the ascending tuple of those integers.
    """
    return 2 * math.lcm(*(r.denominator for r in ratios))


def _flags_of_x(x: Sequence[Fraction] | Sequence[int]) -> int:
    """Flag bits of abscissae, or of a key: both tests are sign tests of sums."""
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
    come out already sorted ascending, as the key.  The scan runs row
    (i, j) by row.  Within a row x is linear in r:
    x(p, q, r) = x(p, q, 0) + r * (-1, 1, 1), so a row's keys are three
    shifted copies of its slice of ``h``, stored with FLAG_GP.  The x sum
    to (p + q + r) / 2, and pool values are distinct, so a row holds at
    most one zero-sum head, r = -(p + q); only its key goes through
    ``_flags_of_x``, in place, so the insertion order stays head order.
    """
    M = len(h)
    index = {v: t for t, v in enumerate(h)}
    flags_gp = repeat(FLAG_GP)
    for i in range(lo, hi):
        hp = h[i]
        for j in range(i + 1, M - 1):
            hq = h[j]
            a, b, c = solve_x_scaled((hp, hq, 0))
            row = h[j + 1 :]
            found.update(zip(zip(map(a.__sub__, row), map(b.__add__, row), map(c.__add__, row)), flags_gp))
            hr = -hp - hq
            if index.get(hr, -1) > j:
                key = (a - hr, b + hr, c + hr)
                found[key] = _flags_of_x(key)


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
    division.  A key in neither ``found`` nor ``known`` (the keys the run
    already holds) takes its flags from ``solve_x`` on that integer head,
    whose x are the true x times L / 2 > 0; both flag tests are sign tests
    of sums.
    """
    M = len(h)
    step = _ORDER_STEP.get(mode, -M)
    sub_pairs = indices_set(n - 3) if n >= 5 else []
    classes: dict[int, set[int]] = {}  # R(S) by the sum S

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
                if not check_distinct(x):
                    continue
                key = tuple(sorted(x))
                if key not in found and key not in known:
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
    so a range never meets a key found in another.)
    """
    # numerators over lcm(pool denominators) = L / 2
    h, half = _over_lcm(ratios)
    return _scan_range(n, mode, h, half, lo, hi, known)


def _scan_range(
    n: int, mode: str, h: list[int], half: int, lo: int, hi: int, known=()
) -> Partial:
    """``process_range`` on the pool's numerators ``h`` over ``half``; what a
    pool worker runs, so that a chunk ships integers only."""
    found: dict[tuple[int, ...], int] = {}
    if hi > lo:
        if n == 3:
            _scan_triples(h, lo, hi, found)
        else:
            _scan_blocks(h, half, n, mode, lo, hi, found, known)
    return Partial(rank_hi=hi, found=found)


# (workers, executor, pipe) of the process's one pool, started on first use
_pool: tuple | None = None


def _worker_pool(workers: int):
    """The process's pool of ``workers`` processes, kept between runs.

    It is started on the first chunk loop sent to a pool and replaced when
    a run asks for another worker count; the old pool's threads are joined
    before the new one forks its workers.  The workers are forked with a
    pipe whose write end only this process keeps open (see
    ``_worker_init``).
    """
    global _pool
    if _pool is not None and _pool[0] != workers:
        _discard_pool()
    if _pool is None:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        pipe = os.pipe()
        executor = ProcessPoolExecutor(
            workers,
            mp_context=multiprocessing.get_context("fork"),
            initializer=_worker_init,
            initargs=pipe,
        )
        _pool = (workers, executor, pipe)
    return _pool[1]


def _worker_init(read_fd: int, write_fd: int) -> None:
    """A pool worker's set-up: ignore SIGINT and watch the parent.

    Ctrl-C reaches the whole process group: the runner handles it, and a
    worker idle between runs must not die with a traceback.  A worker
    closes its inherited write end of the pipe; a daemon thread then reads
    the read end, which gives end-of-file only once the parent's write end
    is closed too, that is when the parent is gone (SIGKILL, an OOM kill,
    ``os._exit``) without having shut the pool down.  The worker then exits.
    """
    import signal
    import threading

    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.close(write_fd)
    threading.Thread(target=_exit_at_eof, args=(read_fd,), daemon=True).start()


def _exit_at_eof(fd: int) -> None:
    while os.read(fd, 1):  # nothing is ever written
        pass
    os._exit(1)


def _discard_pool() -> None:
    """Shut the pool down, cancelling its queued chunks; the next run starts afresh."""
    global _pool
    if _pool is not None:
        _, executor, pipe = _pool
        _pool = None
        executor.shutdown(cancel_futures=True)
        for fd in pipe:
            os.close(fd)


# shut the pool down while the modules it uses are still whole
atexit.register(_discard_pool)


def _result(future) -> Partial:
    # a run that fails inside the pool (a worker died, an interrupt, an
    # exception in a chunk) may leave it broken or busy: discard it
    try:
        return future.result()
    except BaseException:
        _discard_pool()
        raise


def _chunk_results(
    config: SearchConfig,
    ratios: tuple[Fraction, ...],
    chunks: list[tuple[int, int]],
    found: dict[tuple[int, ...], int],
) -> Iterator[Partial]:
    """Each chunk's Partial, in rank order: in this process, or on the pool.

    n = 3 chunks always run in this process, whatever the worker count:
    every n = 3 head yields a key and the runner keeps every key, so
    receiving a key from a worker costs the runner at least as much as
    building it.  The pool serves the n >= 4 kernels, which find far fewer
    sets than the heads they try.

    A chunk run in this process sees ``found``, the run's map as the caller
    has folded it so far, and returns only keys new to the run.  A chunk
    sent to the pool is the pool's integer numerators and its rank range.
    Each result is yielded and its future dropped at once, so only the
    chunks not yet read are held.  Closing the generator early cancels this
    run's queued chunks and keeps the pool; a failure while waiting
    discards it.
    """
    if config.workers == 1 or config.n == 3 or len(chunks) <= 1:
        for lo, hi in chunks:
            yield process_range(config.n, ratios, config.enumeration_mode, lo, hi, known=found)
        return
    h, half = _over_lcm(ratios)
    executor = _worker_pool(config.workers)
    n, mode = config.n, config.enumeration_mode
    futures = [executor.submit(_scan_range, n, mode, h, half, lo, hi) for lo, hi in chunks]
    futures.reverse()  # popped from the end, in submission order
    try:
        while futures:
            yield _result(futures.pop())
    finally:
        for future in futures:
            future.cancel()


# --- checkpointing ---------------------------------------------------------


def _sidecar_path(checkpoint_path: str) -> str:
    return checkpoint_path + ".partial"


def _write_checkpoint(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _is_int(v: object) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _sidecar_key(line: bytes, n: int, den: int) -> tuple[int, ...]:
    """One sidecar line's key: a JSON object whose "x" lists n strings of
    pairwise-distinct rationals, each an integer over the key denominator
    den; any other line is corrupt."""
    try:
        strings = json.loads(line)["x"]
        if isinstance(strings, list) and all(isinstance(s, str) for s in strings):
            xs = [parse_rat(s) for s in strings]
            if len(xs) == n and check_distinct(xs) and all(den % v.denominator == 0 for v in xs):
                return tuple(sorted(v.numerator * (den // v.denominator) for v in xs))
    except (ValueError, KeyError, TypeError, ZeroDenominator):
        pass
    raise CheckpointCorrupt(f"bad sidecar line {line!r}")


def _load_checkpoint(
    path: str, expected_echo: dict, den: int
) -> tuple[int, dict[tuple[int, ...], int]]:
    """Return (next_rank, found) reconstructed from a checkpoint pair; keys over den."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckpointCorrupt(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise CheckpointCorrupt(f"checkpoint {path} is not a JSON object")
    try:
        schema = payload["schema_version"]
        config = payload["config"]
        next_rank = payload["next_rank"]
        offset = payload["output_offset"]
    except KeyError as exc:
        raise CheckpointCorrupt(f"checkpoint {path} lacks {exc}") from exc
    if schema != _CHECKPOINT_SCHEMA:
        raise CheckpointCorrupt(f"unsupported checkpoint schema {schema}")
    if config != expected_echo:
        raise ConfigMismatch(
            f"checkpoint config {config} does not match current config {expected_echo}"
        )
    if not _is_int(next_rank) or not 0 <= next_rank <= expected_echo["total_ranks"]:
        raise CheckpointCorrupt(f"checkpoint next_rank {next_rank!r} is out of range")
    if not _is_int(offset) or offset < 0:
        raise CheckpointCorrupt(f"checkpoint output_offset {offset!r} is not a byte offset")
    found: dict[tuple[int, ...], int] = {}
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
    for line in blob.splitlines():
        key = _sidecar_key(line, expected_echo["n"], den)
        found[key] = _flags_of_x(key)
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
) -> tuple[dict[tuple[int, ...], int], bool]:
    """Enumerate the whole rank space, in chunks, optionally in parallel.

    Returns (found, completed); found maps each canonical key (integers
    over ``_key_denominator(pool.ratios)``) to its flag bits.
    ``stop_after_ranges`` halts after that many chunk boundaries in this
    call, which together with a checkpoint path models a kill/resume at a
    rank boundary.
    """
    _check_pool(config, pool)
    echo = config.echo(pool)
    total = echo["total_ranks"]
    den = _key_denominator(pool.ratios)

    found: dict[tuple[int, ...], int] = {}
    start_rank = 0
    ckpt = config.checkpoint_path
    if ckpt and os.path.exists(ckpt):
        start_rank, found = _load_checkpoint(ckpt, echo, den)
    elif ckpt:
        open(_sidecar_path(ckpt), "w").close()
    gp_so_far = sum(1 for f in found.values() if f & FLAG_GP)

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
        nonlocal gp_so_far
        fresh = [k for k in partial.found if k not in found] if ckpt else []
        # a key's flags depend only on its x: re-storing a known key changes nothing
        found.update(partial.found)
        if ckpt:
            with open(_sidecar_path(ckpt), "a", encoding="utf-8") as fh:
                for k in fresh:
                    xs = [format_over(v, den) for v in k]
                    fh.write(json.dumps({"x": xs}) + "\n")
            offset = os.path.getsize(_sidecar_path(ckpt))
            gp_so_far += sum(1 for k in fresh if partial.found[k] & FLAG_GP)
            _write_checkpoint(
                ckpt,
                {
                    "schema_version": _CHECKPOINT_SCHEMA,
                    "config": echo,
                    "next_rank": partial.rank_hi,
                    "theta_all_so_far": len(found),
                    "theta_gp_so_far": gp_so_far,
                    "output_offset": offset,
                },
            )

    completed = True
    with closing(_chunk_results(config, pool.ratios, chunks, found)) as partials:
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
    require = config.gp_filter == GP_REQUIRE
    # keys are ascending integers over one den > 0: tuple order is x order
    keys = sorted(k for k, flags in found.items() if flags & FLAG_GP or not require)
    return (solution_from_x(key, den) for key in keys)


def count_solutions(config: SearchConfig, pool: RatioPool) -> CountReport:
    """Count distinct solutions without materializing them."""
    t0 = time.perf_counter()
    found, _ = run_enumeration(config, pool)
    elapsed = time.perf_counter() - t0
    by_flags = Counter(found.values())
    theta_all = len(found)
    theta_gp = sum(c for f, c in by_flags.items() if f & FLAG_GP)
    exclusions: dict[str, int] = {}
    extra_sets: list[tuple[Rat, ...]] = []
    if config.n == 3:
        # n = 3 flags: FLAG_GP, FLAG_ZERO_SUM alone (a mirror set), or both
        extra = FLAG_GP | FLAG_ZERO_SUM
        exclusions = {"mirror_zero": theta_all - theta_gp, "zero_sum_extra": by_flags[extra]}
        if by_flags[extra]:
            den = _key_denominator(pool.ratios)
            extra_sets = [
                tuple(Fraction(v, den) for v in k)
                for k in sorted(k for k, f in found.items() if f == extra)
            ]
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
