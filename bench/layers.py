"""The traced run: per-layer metrics of one workload.

Each of the workload's command lines runs in this process twice, first
untraced and then under the span recorder; the two stdouts must be
byte-identical, and the difference of the summed wall times is the tracing
overhead (it can read negative when the host's speed changes between the
passes).  For a
multi-worker workload the chunk kernels run in pool workers the recorder
does not see, so the same chunks are replayed serially here afterwards.
Per-call times of the solver and ratio primitives are taken on inputs
drawn with the seed from the largest pool searched at the first command's
length n.
"""

from __future__ import annotations

import pickle
import random
import statistics
import sys
import time
from pathlib import Path

from tracing import Recorder
from workloads import Workload, check_output

# name, unit, better
PER_LAYER = (
    ("pythagorean.build_pool_s", "s", "lower"),
    ("pythagorean.pool_size", "count", "lower"),
    ("search.enumerate_s", "s", "lower"),
    ("search.chunk_busy_s", "s", "lower"),
    ("search.chunks", "count", "lower"),
    ("search.merge_s", "s", "lower"),
    ("search.parallel_efficiency", "ratio", "higher"),
    ("search.ipc_bytes", "bytes", "lower"),
    ("search.candidates", "count", "lower"),
    ("search.chunk_keys", "count", "lower"),
    ("search.distinct", "count", "higher"),
    ("search.dedup_ratio", "ratio", "higher"),
    ("search.find_ratio", "ratio", "higher"),
    ("search.solves", "count", "lower"),
    ("search.solves_per_find", "ratio", "lower"),
    ("search.order_s", "s", "lower"),
    ("search.count_s", "s", "lower"),
    ("solver.oracle_s", "s", "lower"),
    ("solver.oracle_calls", "count", "lower"),
    ("records.write_s", "s", "lower"),
    ("records.bytes", "bytes", "lower"),
    ("records.lines", "count", "lower"),
    ("pythagorean.ratio_test_ns", "ns", "lower"),
    ("solver.solve_x_ns", "ns", "lower"),
    ("solver.complete_psi_ns", "ns", "lower"),
    ("solver.verify_rds_us", "us", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

# the spans the serial chunk replay records
REPLAY_TARGETS = (
    ("rds.search", "process_range", "search.process_range"),
    ("rds.search", "solve_x", "solver.solve_x"),
)

PER_CALL_INPUTS = 2000
PER_CALL_REPEATS = 7


def run_cli(argv, out_path: Path, err_path: Path) -> tuple[int, float]:
    """Run ``rds`` in this process with stdout and stderr sent to files."""
    import rds.cli

    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        saved = sys.stdout, sys.stderr
        sys.stdout, sys.stderr = out, err
        t0 = time.perf_counter()
        try:
            rc = rds.cli.main(list(argv))
        finally:
            wall = time.perf_counter() - t0
            sys.stdout, sys.stderr = saved
    return rc, wall


def replay_chunks(captured) -> tuple[Recorder, int]:
    """Run every chunk of the recorded enumerations serially, as the runner
    would split them, and return its spans and the computed pickled size of
    the partials a worker would send back."""
    import rds.search as s

    rec = Recorder()
    ipc_bytes = 0
    with rec.installed(REPLAY_TARGETS):
        for config, pool in captured:
            total = s.total_ranks(config.enumeration_mode, len(pool.ratios), config.n)
            # the runner's chunking: max(workers, min(64, remaining)) chunks
            for lo, hi in s.partition_space(total, max(config.workers, min(64, total))):
                if hi > lo:
                    partial = s.process_range(config.n, pool.ratios, config.enumeration_mode, lo, hi)
                    ipc_bytes += len(pickle.dumps(partial))
    return rec, ipc_bytes


def _per_call_ns(fn, inputs) -> float:
    samples = []
    for _ in range(PER_CALL_REPEATS):
        t0 = time.perf_counter_ns()
        for arg in inputs:
            fn(arg)
        samples.append((time.perf_counter_ns() - t0) / len(inputs))
    return statistics.median(samples)


def per_call_times(ratios, n: int, rng: random.Random) -> dict[str, float]:
    """Per-call times on seed-drawn heads of the workload's own pool.

    Ratio tests run on completed tails; n = 3 heads have no tail, so their
    tails come from heads of length 4.
    """
    from rds.pythagorean import is_pythagorean_ratio
    from rds.solver import check_distinct, complete_psi, solve_x, verify_rds

    def head(k):
        return [rng.choice(ratios) for _ in range(k)]

    heads = [head(n) for _ in range(PER_CALL_INPUTS)]
    k = max(n, 4)
    tails = [v for _ in range(PER_CALL_INPUTS // (k * (k - 3) // 2)) for v in complete_psi(head(k))[k:]]
    xs = []
    while len(xs) < PER_CALL_INPUTS // 4:
        x = solve_x(head(n))
        if check_distinct(x):
            xs.append(x)
    return {
        "pythagorean.ratio_test_ns": _per_call_ns(is_pythagorean_ratio, tails),
        "solver.solve_x_ns": _per_call_ns(solve_x, heads),
        "solver.complete_psi_ns": _per_call_ns(complete_psi, heads),
        "solver.verify_rds_us": _per_call_ns(verify_rds, xs) / 1000,
    }


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(w: Workload, rec: Recorder, chunk_rec: Recorder, ipc_bytes: int, out: list[bytes]) -> dict[str, float]:
    """Derive the per-layer metrics from the traced run's spans and counts.

    ``chunk_rec`` holds the chunk spans: the traced run's own for one
    worker, the serial replay's otherwise.
    """
    total, self_, calls = rec.totals()
    chunk_total, _, chunk_calls = chunk_rec.totals()
    enumerate_s = total["search.run_enumeration"]
    busy = chunk_total["search.process_range"]
    distinct = rec.counts["distinct"]
    chunk_keys = chunk_rec.counts["chunk_keys"]
    solves = chunk_calls["solver.solve_x"]
    return {
        "pythagorean.build_pool_s": total["pythagorean.build_pool"],
        "pythagorean.pool_size": rec.counts["pool_size"],
        "search.enumerate_s": enumerate_s,
        "search.chunk_busy_s": busy,
        "search.chunks": chunk_calls["search.process_range"],
        # runner time beyond an even split of the chunk work over the
        # workers; for one worker, exactly run_enumeration's self time
        "search.merge_s": enumerate_s - busy / w.workers,
        "search.parallel_efficiency": _ratio(busy, w.workers * enumerate_s),
        "search.ipc_bytes": ipc_bytes,
        "search.candidates": rec.counts["candidates"],
        "search.chunk_keys": chunk_keys,
        "search.distinct": distinct,
        "search.dedup_ratio": _ratio(distinct, chunk_keys),
        "search.find_ratio": _ratio(distinct, rec.counts["candidates"]),
        "search.solves": solves,
        "search.solves_per_find": _ratio(solves, distinct),
        "search.order_s": self_["search.search"],
        "search.count_s": self_["search.count_solutions"],
        "solver.oracle_s": total["solver.solution_from_x"],
        "solver.oracle_calls": calls["solver.solution_from_x"],
        "records.write_s": self_["records.write_records"],
        "records.bytes": sum(len(o) for o in out),
        "records.lines": sum(o.count(b"\n") for o in out),
    }


def traced_run(w: Workload, rng: random.Random, work: Path) -> tuple[dict[str, float], int, int, list[str]]:
    """Return (per-layer metrics, passes attempted, passes failed, problems).

    Each command of the workload runs untraced and then traced; spans and
    counts add up over the commands.
    """
    rec = Recorder()
    outs, problems = [], []
    failed = 0
    plain_wall = traced_wall = 0.0
    for c in w.commands:
        plain_out, traced_out, err = work / f"{c.name}.plain.out", work / f"{c.name}.traced.out", work / f"{c.name}.err"
        rc, wall = run_cli(c.argv, plain_out, err)
        plain_wall += wall
        plain_problems = [] if rc == 0 else [f"{c.name}: untraced pass exited {rc}"]
        with rec.installed():
            rc, wall = run_cli(c.argv, traced_out, err)
        traced_wall += wall
        out = traced_out.read_bytes()
        outs.append(out)
        traced_problems = [] if rc == 0 else [f"{c.name}: traced pass exited {rc}"]
        if out != plain_out.read_bytes():
            traced_problems.append(f"{c.name}: traced stdout differs from untraced stdout")
        traced_problems += check_output(c, out, rng)
        failed += bool(plain_problems) + bool(traced_problems)
        problems += plain_problems + traced_problems
    rec.write(str(work / f"{w.name}.spans.jsonl"))

    chunk_rec, ipc_bytes = (rec, 0) if w.workers == 1 else replay_chunks(rec.captured)
    metrics = layer_metrics(w, rec, chunk_rec, ipc_bytes, outs)
    if rec.captured:
        # inputs from the largest pool the first command's length n searched
        n = rec.captured[0][0].n
        pool = max((p for config, p in rec.captured if config.n == n), key=lambda p: len(p.ratios))
        metrics.update(per_call_times(pool.ratios, n, rng))
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    return metrics, 2 * len(w.commands), failed, problems
