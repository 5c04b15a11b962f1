"""Benchmark of the rds CLI: end-to-end and per-layer metrics.

    python3 bench/run.py --workload search-mix --seed 1 --seconds 60 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 60 --trace 1

Run from the root of a checkout; nothing needs building.  A workload is a
few ``rds`` command lines (workloads.py).  ``--trace 0`` runs them in
fresh child processes, one after the other and round after round (a
closed loop with one client), for at most ``--seconds`` but at least once
each.  It reports the time of one pass through the commands (the sum of
each command's median wall and CPU time), the largest of their median
peak RSS, and set-up time: the sum of each command's median over children
that stop short of the search (see setup_probe.py).  ``--trace 1`` makes
one untraced and one traced in-process pass and reports the per-layer
metrics (see layers.py).  Every run's output is checked; a failed check or
a non-zero exit counts as a failed run.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
run was correct, 1 when some run failed, and 2 when the rds sources are
missing (then no result is printed).
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import ROOT, SRC, WORKLOADS, Workload, check_output  # noqa: E402

# name, unit, better
END_TO_END = (
    ("wall_s", "s", "lower"),
    ("cpu_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("setup_s", "s", "lower"),
)

PROBES_PER_RUN = 2
CHILD_TIMEOUT_S = 150
WORK = HERE / ".work"


@dataclass(frozen=True)
class ChildRun:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    returncode: int


def spawn(cmd: list[str], out_path: Path, err_path: Path) -> ChildRun:
    """Run one child to completion through launch.py and return its own
    wall time and rusage (see launch.py for why not directly)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    launcher = [sys.executable, "-S", str(HERE / "launch.py"), str(out_path), str(err_path), str(CHILD_TIMEOUT_S)]
    done = subprocess.run(
        launcher + cmd, env=env, cwd=ROOT, capture_output=True, text=True, check=True,
        timeout=CHILD_TIMEOUT_S + 10,
    )
    wall, cpu, rss, returncode = done.stdout.split()
    return ChildRun(float(wall), float(cpu), float(rss), int(returncode))


def _failure(what: str, run: ChildRun, err_path: Path) -> str:
    tail = err_path.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-3:]
    return f"{what} exited {run.returncode}: {' | '.join(tail)}"


def end_to_end(w: Workload, seconds: float, rng: random.Random) -> tuple[dict, str, int, int, list[str]]:
    """Return (metric values, a note of the sample counts, runs attempted,
    runs failed, problems).

    The workload's commands run in turn, each followed by PROBES_PER_RUN
    set-up probes of the same command, until the next command would likely
    end after ``seconds``; every command runs at least once.  Set-up is
    probed throughout the window rather than before it, so that it is
    measured over the same stretch of time as the runs.
    """
    out, err = WORK / f"{w.name}.out", WORK / f"{w.name}.err"
    problems: list[str] = []
    attempted = failed = 0
    runs: dict[str, list[ChildRun]] = {c.name: [] for c in w.commands}
    setups: dict[str, list[float]] = {c.name: [] for c in w.commands}
    start = time.perf_counter()
    for c in itertools.cycle(w.commands):
        if runs[c.name]:
            last = runs[c.name][-1].wall_s + PROBES_PER_RUN * setups[c.name][-1]
            if time.perf_counter() - start + last > seconds:
                break
        run = spawn([sys.executable, "-m", "rds", *c.argv], out, err)
        attempted += 1
        runs[c.name].append(run)
        bad = [_failure(f"rds {c.name}", run, err)] if run.returncode != 0 else check_output(c, out.read_bytes(), rng)
        failed += bool(bad)
        problems += bad
        for _ in range(PROBES_PER_RUN):
            probe = spawn([sys.executable, str(HERE / "setup_probe.py"), *c.argv], out, err)
            attempted += 1
            setups[c.name].append(probe.wall_s)
            if probe.returncode != 0:
                failed += 1
                problems.append(_failure(f"set-up probe {c.name}", probe, err))

    def per_command(values) -> list[float]:
        return [statistics.median(v) for v in values]

    # one pass runs every command once: its time is the sum of theirs, its
    # peak RSS the largest of theirs
    metrics = {
        "wall_s": sum(per_command([r.wall_s for r in v] for v in runs.values())),
        "cpu_s": sum(per_command([r.cpu_s for r in v] for v in runs.values())),
        "peak_rss_mb": max(per_command([r.peak_rss_mb for r in v] for v in runs.values())),
        "setup_s": sum(per_command(setups.values())),
    }
    samples = ", ".join(f"{name} {len(v)} runs" for name, v in runs.items())
    return metrics, samples, attempted, failed, problems


def measure(w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Run one workload; print its metrics; return (metrics, attempted, failed)."""
    rng = random.Random(f"{w.name}/{seed}")
    print(f"workload {w.name} (seed {seed}):")
    for c in w.commands:
        print(f"  {c.name}: rds {' '.join(c.argv)}")
    if trace:
        from layers import PER_LAYER, traced_run

        values, attempted, failed, problems = traced_run(w, rng, WORK)
        specs = PER_LAYER
    else:
        values, samples, attempted, failed, problems = end_to_end(w, seconds, rng)
        specs = END_TO_END
        print(f"  per-command medians over {samples}, each run followed by {PROBES_PER_RUN} set-up probes")
    metrics = {}
    for name, unit, _ in specs:
        if name not in values:
            failed = max(failed, 1)
            problems.append(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<28} {values[name]:>16.6f} {unit}")
    for p in problems[:10]:
        print(f"  FAILED: {p}")
    print(f"  {'error_rate':<28} {failed / attempted:>16.6f} ratio  ({failed} failed of {attempted} runs)")
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "rds" / "__init__.py").is_file():
        print(f"bench: no rds sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    WORK.mkdir(exist_ok=True)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        m, a, f = measure(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        prefix = f"{name}." if args.workload == "all" else ""
        metrics.update({prefix + k: v for k, v in m.items()})
        attempted += a
        failed += f
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
