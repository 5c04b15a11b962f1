"""Span recording around the public functions of the rds layers.

The recorder replaces module attributes (``rds.search.solve_x``,
``rds.cli.build_pool``, ...) with timing wrappers for the duration of one
traced run and puts every original back afterwards.  Nothing under
``src/rds`` is changed: a layer is timed at the boundary where the layer
above calls it, which is why some functions are wrapped under the name
their caller imported them by.

A span is (name, start_ns, end_ns, parent index).  Generator functions get
one span per resumption, so the lazily consumed ``search()`` stream is
charged to ``search`` and not to the ``write_records`` call that drains it.
A layer's self time is its span time minus the time its direct child spans
cover; spans of one thread nest, so that coverage is a plain sum.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

# (module, attribute, span name): the calls between layers
TARGETS = (
    ("rds.cli", "build_pool", "pythagorean.build_pool"),
    ("rds.pythagorean", "build_pool", "pythagorean.build_pool"),
    ("rds.cli", "search", "search.search"),
    ("rds.cli", "count_solutions", "search.count_solutions"),
    ("rds.search", "run_enumeration", "search.run_enumeration"),
    ("rds.search", "process_range", "search.process_range"),
    ("rds.search", "solve_x", "solver.solve_x"),
    ("rds.search", "solution_from_x", "solver.solution_from_x"),
    ("rds.cli", "write_records", "records.write_records"),
    ("rds.records", "write_records", "records.write_records"),
)


class Recorder:
    """In-memory spans and boundary counts of one traced run.

    Only the process that created the recorder records: pool workers forked
    during a traced run call the wrappers but keep nothing.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self.counts: Counter[str] = Counter()
        self.captured: list[tuple] = []  # (config, pool) of each run_enumeration
        self._stack: list[int] = []
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn: Callable, name: str, on_return: Callable | None = None) -> Callable:
        rec = self

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                if os.getpid() != rec._pid:
                    yield from gen
                    return
                while True:
                    idx = rec._open(name)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec._close(idx)
                    yield item

            return gen_wrapper

        def wrapper(*args, **kwargs):
            if os.getpid() != rec._pid:
                return fn(*args, **kwargs)
            idx = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec._close(idx)
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper

    def _on_build_pool(self, args, kwargs, pool) -> None:
        self.counts["pool_size"] = max(self.counts["pool_size"], len(pool.ratios))

    def _on_run_enumeration(self, args, kwargs, result) -> None:
        from rds.search import total_ranks

        config, pool = args[0], args[1]
        self.captured.append((config, pool))
        self.counts["candidates"] += total_ranks(config.enumeration_mode, len(pool.ratios), config.n)
        self.counts["distinct"] += len(result[0])

    def _on_process_range(self, args, kwargs, partial) -> None:
        self.counts["chunk_keys"] += len(partial.found)

    @contextmanager
    def installed(self, targets=TARGETS) -> Iterator["Recorder"]:
        """Wrap every present target attribute; restore them all on exit."""
        hooks = {
            "pythagorean.build_pool": self._on_build_pool,
            "search.run_enumeration": self._on_run_enumeration,
            "search.process_range": self._on_process_range,
        }
        try:
            for module_name, attr, name in targets:
                module = importlib.import_module(module_name)
                original = getattr(module, attr, None)
                if original is None:
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hooks.get(name)))
            yield self
        finally:
            while self._saved:
                module, attr, original = self._saved.pop()
                setattr(module, attr, original)

    # -- results -------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: (total seconds, self seconds, calls)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        total: Counter[str] = Counter()
        self_: Counter[str] = Counter()
        calls: Counter[str] = Counter()
        for (name, start, end, _), covered in zip(self.spans, child_ns):
            total[name] += (end - start) / 1e9
            self_[name] += (end - start - covered) / 1e9
            calls[name] += 1
        return total, self_, calls

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent}) + "\n")
