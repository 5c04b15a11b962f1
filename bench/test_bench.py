"""Tests of the benchmark itself, on miniature versions of its workloads.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import importlib
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from tracing import TARGETS, Recorder  # noqa: E402
from workloads import (  # noqa: E402
    COUNT_GAMMAS,
    WORKLOADS,
    Command,
    CountExpect,
    SearchExpect,
    Workload,
    check_output,
    primitive_triplet_hypotenuses,
    theta3_all_closed_form,
)

MINI_N4 = Command(
    "mini-n4", ("search", "--n", "4", "--gamma-max", "25", "--workers", "1"), SearchExpect(4, 25, 156, 16, None)
)
MINI_N3 = Command(
    "mini-n3", ("search", "--n", "3", "--gamma-max", "25", "--workers", "1"), SearchExpect(3, 25, 680, 672, None)
)
MINI_KERNEL = Workload("mini-kernel", "", (MINI_N4,))
MINI_SEARCH = Workload("mini-search", "", (MINI_N4, MINI_N3))
MINI_COUNT = Workload(
    "mini-count", "",
    (Command("mini-count", ("count", "--n", "3", "--gamma-list", "25,29", "--workers", "2"), CountExpect((25, 29), None)),),
)
# distinct sets each mini workload must find: README's ordered n = 4 row
# at gamma 25, and theta_3^all at gammas 25 and 29
MINI_DISTINCT = {"mini-kernel": 156, "mini-search": 156 + 680, "mini-count": 680 + 1330}
MINIS = [MINI_KERNEL, MINI_SEARCH, MINI_COUNT]


def _targets_now():
    return [getattr(importlib.import_module(m), a) for m, a, _ in TARGETS]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    work = tmp_path_factory.mktemp("work")
    return {
        w.name: layers.traced_run(w, random.Random(7), work) + (work,)
        for w in MINIS
    }


@pytest.mark.parametrize("w", MINIS, ids=lambda w: w.name)
def test_traced_stdout_is_byte_identical_to_untraced(traced, w):
    _, attempted, failed, problems, work = traced[w.name]
    assert (attempted, failed, problems) == (2 * len(w.commands), 0, [])
    for c in w.commands:
        plain = (work / f"{c.name}.plain.out").read_bytes()
        assert plain and plain == (work / f"{c.name}.traced.out").read_bytes()


@pytest.mark.parametrize("w", MINIS, ids=lambda w: w.name)
def test_counts_are_consistent(traced, w):
    metrics, work = traced[w.name][0], traced[w.name][4]
    assert {name for name, _, _ in layers.PER_LAYER} <= set(metrics)
    assert metrics["search.distinct"] == MINI_DISTINCT[w.name]
    assert metrics["search.chunk_keys"] >= metrics["search.distinct"]
    lines = sum(len((work / f"{c.name}.traced.out").read_bytes().splitlines()) for c in w.commands)
    assert metrics["records.lines"] == lines


def test_n4_solves_at_least_once_per_find(traced):
    metrics = traced["mini-kernel"][0]
    assert metrics["search.solves"] >= metrics["search.distinct"] > 0
    assert metrics["solver.oracle_calls"] == metrics["search.distinct"]


def test_count_replay_reports_ipc(traced):
    metrics = traced["mini-count"][0]
    assert metrics["search.ipc_bytes"] > 0
    assert metrics["search.chunks"] >= 2 * len(MINI_COUNT.commands[0].expect.gammas)


def test_counts_repeat_exactly(traced, tmp_path):
    again = layers.traced_run(MINI_SEARCH, random.Random(8), tmp_path)[0]
    first = traced["mini-search"][0]
    for name in ("search.solves", "search.chunk_keys", "search.distinct", "search.candidates", "records.bytes"):
        assert again[name] == first[name], name


def test_every_wrapped_attribute_is_restored(tmp_path):
    before = _targets_now()
    rec = Recorder()
    with rec.installed():
        assert all(a is not b for a, b in zip(_targets_now(), before))
        layers.run_cli(MINI_N4.argv, tmp_path / "out", tmp_path / "err")
    assert all(a is b for a, b in zip(_targets_now(), before))
    assert rec.spans
    with pytest.raises(RuntimeError):
        with Recorder().installed():
            raise RuntimeError("a failing traced run")
    assert all(a is b for a, b in zip(_targets_now(), before))


def test_self_time_subtracts_child_spans():
    rec = Recorder()
    rec.spans = [["outer", 0, 100, -1], ["inner", 10, 40, 0], ["inner", 50, 60, 0], ["leaf", 12, 20, 1]]
    total, self_, calls = rec.totals()
    assert total["outer"] * 1e9 == pytest.approx(100)
    assert self_["outer"] * 1e9 == pytest.approx(60)
    assert self_["inner"] * 1e9 == pytest.approx(32)
    assert calls["inner"] == 2


def test_checks_reject_wrong_output(tmp_path):
    rng = random.Random(1)
    layers.run_cli(MINI_N4.argv, tmp_path / "out", tmp_path / "err")
    good = (tmp_path / "out").read_bytes()
    assert check_output(MINI_N4, good, rng) == []
    assert check_output(MINI_N4, good.rsplit(b"\n", 2)[0] + b"\n", rng)
    # every line of the mini output is in the oracle sample
    bad_distance = good.replace(b'"distances": ["', b'"distances": ["1', 1)
    assert check_output(MINI_N4, bad_distance, rng) == ["line 2 fails the distance oracle"]
    digest = Command(MINI_N4.name, MINI_N4.argv, SearchExpect(4, 25, 156, 16, "0" * 64))
    assert check_output(digest, good, rng) == ["stdout digest differs from the seed commit's"]

    (count,) = MINI_COUNT.commands
    layers.run_cli(count.argv, tmp_path / "out", tmp_path / "err")
    good = (tmp_path / "out").read_bytes()
    assert check_output(count, good, rng) == []
    assert check_output(count, good.replace(b"680", b"681"), rng)


def test_closed_form_matches_the_bundled_column():
    from rds.reference import COUNT_TABLE_N3

    hyps = primitive_triplet_hypotenuses(max(COUNT_GAMMAS))
    assert [theta3_all_closed_form(g, hyps) for g in COUNT_GAMMAS] == [a for _, _, a in COUNT_TABLE_N3]


def test_end_to_end_children(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "PROBES_PER_RUN", 1)
    metrics, samples, attempted, failed, problems = run.end_to_end(MINI_SEARCH, 0.1, random.Random(1))
    # each command runs once, however short the window, and is probed once
    assert (attempted, failed, problems) == (4, 0, [])
    assert samples == "mini-n4 1 runs, mini-n3 1 runs"
    assert 0 < metrics["setup_s"] < metrics["wall_s"]
    assert 0 < metrics["cpu_s"] and metrics["peak_rss_mb"] > 1


def test_peak_rss_is_the_childs_own(tmp_path):
    ballast = bytearray(64 << 20)
    ballast[::4096] = b"x" * len(ballast[::4096])
    child = run.spawn([sys.executable, "-S", "-c", "pass"], tmp_path / "out", tmp_path / "err")
    assert child.returncode == 0
    assert child.peak_rss_mb < 32


def test_setup_probe_fails_when_nothing_is_enumerated(tmp_path):
    probe = run.spawn(
        [sys.executable, str(HERE / "setup_probe.py"), "ratios", "--gamma-max", "25"],
        tmp_path / "out", tmp_path / "err",
    )
    assert probe.returncode == 3


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path)
    assert run.main(["--workload", "count-w2", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


def test_search_expectations_match_the_references():
    from rds.reference import COUNT_TABLE_N3, COUNT_TABLE_N4

    n3 = {g: (all_, gp) for g, gp, all_ in COUNT_TABLE_N3}
    n4 = {g: (all_, gp) for g, gp, all_ in COUNT_TABLE_N4}
    for w in WORKLOADS.values():
        for c in w.commands:
            e = c.expect
            if isinstance(e, SearchExpect) and e.n == 3:
                assert (e.sets, e.gp) == n3[e.gamma]
                assert e.sets == theta3_all_closed_form(e.gamma, primitive_triplet_hypotenuses(e.gamma))
            elif isinstance(e, SearchExpect) and e.n == 4:
                # README: ordered n = 4 matches the bundled row exactly at gamma 53
                assert (e.gamma, (e.sets, e.gp)) == (53, n4[53])


def test_benchmark_json_matches_the_code():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
